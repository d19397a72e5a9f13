import numpy as np
import pytest

from toposval.index import Character, ContextError, LatticeElement
from toposval.linalg import DensityMatrix
from toposval.presheaves import GlobalElementG, SubobjectSigma, coarse_grain
from toposval.sampling import random_density, random_poset
from toposval.valuations import (
    MorphismSetValuation,
    alpha_from_global_element,
    alpha_from_subobject,
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    from_table,
    interval,
    nu_rho,
    nu_rho_r,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    search_supportsmatch_violation,
    support,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
    truth_set,
    valuations_equal,
)

from conftest import bits_valuation, is_true, outputs_under_hash_seeds, random_table_valuation


def full_table(poset):
    """Constant-true valuation: every query gets the whole down-set."""
    table = {}
    for cid in poset.ids:
        n = poset.context(cid).n_atoms
        for mask in range(1 << n):
            table[(cid, mask)] = frozenset(poset.down_set(cid))
    return from_table(poset, table, name="const_true")


def test_nu_rho_unit_and_null(fixa, rho_e0):
    nu = nu_rho(rho_e0, fixa)
    for cid in fixa.ids:
        full = fixa.context(cid).full_mask
        assert nu.members(cid, full) == frozenset(fixa.down_set(cid))
        assert nu.members(cid, 0) == frozenset()


def test_nu_rho_plus_state(dim2_poset, rho_plus):
    nu = nu_rho(rho_plus, dim2_poset)
    assert nu.members("Vdiag", 0b01) == frozenset({"Vtriv"})
    s = nu.evaluate("Vdiag", LatticeElement("Vdiag", 0b01))
    assert s.apex == "Vdiag" and s.members == frozenset({"Vtriv"})


def test_nu_rho_r_boundary_equals_nu_rho(fixa):
    rho = random_density(np.random.default_rng(5), 3)
    assert valuations_equal(nu_rho(rho, fixa), nu_rho_r(rho, 1.0, fixa))[0]


def test_nu_rho_r_examples(dim2_poset, rho_plus):
    half = nu_rho_r(rho_plus, 0.5, dim2_poset)
    assert half.members("Vdiag", 0b01) == frozenset({"Vdiag", "Vtriv"})
    strict = nu_rho_r(rho_plus, 0.9, dim2_poset)
    assert strict.members("Vdiag", 0b01) == frozenset({"Vtriv"})
    with pytest.raises(ValueError):
        nu_rho_r(rho_plus, 0.0, dim2_poset)
    with pytest.raises(ValueError):
        nu_rho_r(rho_plus, 1.5, dim2_poset)


def test_truth_set_examples(dim2_poset):
    nu = nu_rho(DensityMatrix(np.diag([1.0, 0])), dim2_poset)
    assert truth_set(nu, "Vdiag").members == {0b01, 0b11}
    mixed = nu_rho(DensityMatrix(np.eye(2) / 2), dim2_poset)
    assert truth_set(mixed, "Vdiag").members == {0b11}
    # the unit proposition is always totally true
    for cid in dim2_poset.ids:
        assert dim2_poset.context(cid).full_mask in truth_set(nu, cid).members


def test_support_examples(fixa, dim2_poset, rho_plus):
    nu = nu_rho(DensityMatrix(np.diag([1.0, 0])), dim2_poset)
    assert support(nu, "Vdiag") == LatticeElement("Vdiag", 0b01)
    assert support(nu_rho(rho_plus, dim2_poset), "Vdiag") == LatticeElement("Vdiag", 0b11)
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    assert support(nu_rho(rho, fixa), "V1") == LatticeElement("V1", 0b011)


def test_support_trace_formula_oracle():
    # infimum-of-truth-set must equal the atom-weight mask
    for seed in range(15):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=6, max_atoms=5)
        dim = poset.context(poset.ids[0]).dim
        rho = random_density(rng, dim)
        nu = nu_rho(rho, poset)
        for cid in poset.ids:
            v = poset.context(cid)
            mask = 0
            for i, atom in enumerate(v.atoms):
                if float(np.trace(rho.entries @ atom.entries).real) > 1e-10:
                    mask |= 1 << i
            assert support(nu, cid) == LatticeElement(cid, mask)


def test_interval_examples(fixa, dim2_poset):
    mixed = nu_rho(DensityMatrix(np.eye(2) / 2), dim2_poset)
    assert interval(mixed, "Vdiag") == frozenset(
        {Character("Vdiag", 0), Character("Vdiag", 1)})
    pure = nu_rho(DensityMatrix(np.diag([1.0, 0])), dim2_poset)
    assert interval(pure, "Vdiag") == frozenset({Character("Vdiag", 0)})
    e1 = nu_rho(DensityMatrix(np.diag([0.0, 1, 0])), fixa)
    assert interval(e1, "V2") == frozenset({Character("V2", 1)})


def test_interval_equals_support_characters():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=5, max_atoms=4)
        dim = poset.context(poset.ids[0]).dim
        nu = nu_rho(random_density(rng, dim), poset)
        for cid in poset.ids:
            s = support(nu, cid)
            expected = frozenset(
                Character(cid, i) for i in range(poset.context(cid).n_atoms)
                if s.mask >> i & 1
            )
            assert interval(nu, cid) == expected


def test_definition3_nu_rho(fixa):
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density(rng, 3)
        assert check_definition3(nu_rho(rho, fixa))["passed"]


def test_definition3_r_family(fixa):
    rng = np.random.default_rng(23)
    rho = random_density(rng, 3)
    rep = check_definition3(nu_rho_r(rho, 0.7, fixa))
    assert rep["passed"], rep


def test_definition3_r03_exclusivity_witness(dim2_poset):
    mixed = DensityMatrix(np.eye(2) / 2)
    rep = check_definition3(nu_rho_r(mixed, 0.3, dim2_poset))
    assert rep["exclusivity"]["status"] == "fail"
    w = rep["exclusivity"]["witness"]
    assert w["p"] & w["q"] == 0
    # the other clauses survive
    for clause in ("sievehood", "func", "null", "monotonicity", "unit"):
        assert rep[clause]["status"] == "pass"


def test_subobject_condition(fixa):
    rng = np.random.default_rng(29)
    rho = random_density(rng, 3)
    assert check_subobject_condition(nu_rho(rho, fixa))["status"] == "pass"
    assert check_subobject_condition(nu_rho_r(rho, 0.8, fixa))["status"] == "pass"
    assert check_subobject_condition(full_table(fixa))["status"] == "pass"


def test_global_element_condition(fixa):
    rng = np.random.default_rng(31)
    for _ in range(20):
        rho = random_density(rng, 3)
        assert check_global_element_condition(nu_rho(rho, fixa))["status"] == "pass"
    # the stated probability-r instance happens to satisfy the law on this
    # chain (confirmed by enumeration); a violating instance is nearby
    stated = nu_rho_r(DensityMatrix(np.diag([0.5, 0.4, 0.1])), 0.9, fixa)
    assert check_global_element_condition(stated)["status"] == "pass"
    violating = nu_rho_r(DensityMatrix(np.diag([0.4, 0.3, 0.3])), 0.6, fixa)
    rep = check_global_element_condition(violating)
    assert rep["status"] == "fail"
    assert rep["witness"]["v1"] == "V1"


def test_supportsmatch_witness_search_replays():
    res = search_supportsmatch_violation(seed=20260810, draws=200)
    assert res["status"] == "witness-of-failure"
    assert res["replayed"]
    assert res["r"] < 1.0
    again = search_supportsmatch_violation(seed=20260810, draws=200)
    assert again == res


def test_alpha_from_global_element_unit_boundary(fixa):
    ones = GlobalElementG(
        fixa, {cid: fixa.context(cid).full_mask for cid in fixa.ids})
    alpha = alpha_from_global_element(ones)
    # membership exactly where the proposition coarse-grains to the unit
    for cid in fixa.ids:
        n = fixa.context(cid).n_atoms
        for mask in range(1 << n):
            expected = frozenset(
                sub for sub in fixa.down_set(cid)
                if coarse_grain(fixa, sub, cid, LatticeElement(cid, mask)).mask
                == fixa.context(sub).full_mask
            )
            assert alpha.members(cid, mask) == expected
        assert is_true(alpha, cid, fixa.context(cid).full_mask)


def test_alpha_from_supports_is_nu_rho(fixa):
    rng = np.random.default_rng(37)
    for _ in range(20):
        nu = nu_rho(random_density(rng, 3), fixa)
        alpha = alpha_from_global_element(supports_global_element(nu))
        assert valuations_equal(nu, alpha)[0]


def test_alpha_from_broken_assignment_not_sieve(fixa):
    broken = GlobalElementG(
        fixa, {"V1": 0b010, "V2": 0b01, "Vtriv": 0b1}, enforce=False)
    assert not broken.satisfies_matching
    alpha = alpha_from_global_element(broken)
    ok, witness = alpha.is_sieve_valued()
    assert not ok and witness is not None


def test_alpha_from_global_element_support_identity(fixa):
    # taking supports of the induced valuation recovers the assignment
    rng = np.random.default_rng(79)
    for _ in range(10):
        a = supports_global_element(nu_rho(random_density(rng, 3), fixa))
        alpha = alpha_from_global_element(a)
        for cid in fixa.ids:
            assert support(alpha, cid).mask == a.assignment[cid]


def test_alpha_from_subobject_full_spectrum(fixa):
    a = SubobjectSigma(
        fixa,
        {cid: frozenset(range(fixa.context(cid).n_atoms)) for cid in fixa.ids},
    )
    alpha = alpha_from_subobject(a)
    for cid in fixa.ids:
        n = fixa.context(cid).n_atoms
        for mask in range(1 << n):
            assert is_true(alpha, cid, mask) == (mask == (1 << n) - 1)


def test_alpha_from_intervals_is_nu_rho(fixa):
    rng = np.random.default_rng(41)
    for _ in range(20):
        nu = nu_rho(random_density(rng, 3), fixa)
        ivals = {cid: frozenset(k.atom_index for k in interval(nu, cid))
                 for cid in fixa.ids}
        alpha = alpha_from_subobject(SubobjectSigma(fixa, ivals))
        assert valuations_equal(nu, alpha)[0]


def test_alpha_from_nontight_subobject(fixa):
    # law holds but not tightly: the induced valuation loses sievehood
    a = SubobjectSigma(
        fixa,
        {"V1": frozenset({0}), "V2": frozenset({0, 1}), "Vtriv": frozenset({0})},
    )
    assert a.satisfies_law and not a.is_tight
    alpha = alpha_from_subobject(a)
    ok, _ = alpha.is_sieve_valued()
    _, rep = reconstruct_from_intervals(alpha)
    assert (not ok) or (not rep["equal"])


def test_roundtrip_supports(fixa):
    rng = np.random.default_rng(43)
    nu = nu_rho(random_density(rng, 3), fixa)
    _, rep = reconstruct_from_supports(nu)
    assert rep["equal"] and rep["condition_i"] and rep["iff_consistent"]


def test_roundtrip_intervals(fixa):
    rng = np.random.default_rng(47)
    nu = nu_rho(random_density(rng, 3), fixa)
    _, rep = reconstruct_from_intervals(nu)
    assert rep["equal"] and rep["condition_i"] and rep["iff_consistent"]


def test_roundtrip_fails_for_r_family(fixa):
    # supports decide membership only at full certainty
    alpha = nu_rho_r(DensityMatrix(np.diag([0.4, 0.3, 0.3])), 0.6, fixa)
    _, rep = reconstruct_from_supports(alpha)
    assert not rep["equal"] and not rep["condition_i"] and rep["iff_consistent"]
    strict = nu_rho_r(DensityMatrix(np.diag([0.88, 0.07, 0.05])), 0.9, fixa)
    _, rep = reconstruct_from_supports(strict)
    assert not rep["equal"] and rep["iff_consistent"]


def test_roundtrip_tampered_table(fixa, rho_e0):
    nu = nu_rho(rho_e0, fixa)
    table = {}
    for cid in fixa.ids:
        n = fixa.context(cid).n_atoms
        for mask in range(1 << n):
            table[(cid, mask)] = nu.members(cid, mask)
    # drop the trivial stage from one non-principal entry; truth sets are
    # untouched, so condition (i) must fail and the round-trip must differ
    assert table[("V1", 0b010)] == frozenset({"Vtriv"})
    table[("V1", 0b010)] = frozenset()
    tampered = from_table(fixa, table, name="tampered")
    _, rep = reconstruct_from_supports(tampered)
    assert not rep["equal"] and not rep["condition_i"] and rep["iff_consistent"]


def test_roundtrip_alpha_a_identity(fixa):
    rng = np.random.default_rng(53)
    nu = nu_rho(random_density(rng, 3), fixa)
    alpha = alpha_from_global_element(supports_global_element(nu))
    _, rep = reconstruct_from_supports(alpha)
    assert rep["equal"] and rep["condition_i"]


def test_theorem1_nu_rho(fixa):
    rng = np.random.default_rng(59)
    for _ in range(10):
        rep = theorem1_verify(nu_rho(random_density(rng, 3), fixa))
        assert rep["conditions_hold"]
        assert rep["contract_ok"] and rep["func_given_i_ok"]
        assert rep["conclusion_sieve"]["holds"]
        assert rep["conclusion_func"]["holds"]
        assert rep["conclusion_characterization"]["holds"]


def test_theorem1_r_family_condition_ii_fails(fixa):
    alpha = nu_rho_r(DensityMatrix(np.diag([0.4, 0.3, 0.3])), 0.6, fixa)
    rep = theorem1_verify(alpha)
    assert not rep["condition_ii"]["holds"]
    assert not rep["conditions_hold"]
    assert rep["contract_ok"]          # vacuous, and must never be violated
    assert rep["func_given_i_ok"]
    # a strict-threshold instance: two near-certain pairs squeeze the
    # infimum below every truth-set member
    strict = nu_rho_r(DensityMatrix(np.diag([0.88, 0.07, 0.05])), 0.9, fixa)
    rep = theorem1_verify(strict)
    assert not rep["condition_ii"]["holds"]
    assert rep["contract_ok"] and rep["func_given_i_ok"]


def test_theorem1_alpha_a(fixa):
    rng = np.random.default_rng(61)
    a = supports_global_element(nu_rho(random_density(rng, 3), fixa))
    rep = theorem1_verify(alpha_from_global_element(a))
    assert rep["conditions_hold"] and rep["contract_ok"]


def test_theorem1_degenerate_skipped(fixa):
    table = {}
    for cid in fixa.ids:
        n = fixa.context(cid).n_atoms
        for mask in range(1 << n):
            table[(cid, mask)] = frozenset()
    rep = theorem1_verify(from_table(fixa, table))
    assert rep["skipped"] and rep["degenerate"] == fixa.ids


def test_theorem2_nu_rho(fixa):
    rng = np.random.default_rng(67)
    for _ in range(10):
        rep = theorem2_verify(nu_rho(random_density(rng, 3), fixa))
        assert rep["conditions_hold"]
        assert rep["contract_ok"] and rep["func_given_i_ok"]
        assert rep["routes_agree"]
        assert rep["subobject_law"]


def test_theorem2_gamma_backed(fixa):
    ge = GlobalElementG(fixa, {"V1": 0b001, "V2": 0b01, "Vtriv": 0b1})
    rep = theorem2_verify(alpha_from_global_element(ge))
    assert rep["conditions_hold"] and rep["contract_ok"]


def test_theorem2_loosened_intervals(fixa):
    a = SubobjectSigma(
        fixa,
        {"V1": frozenset({0}), "V2": frozenset({0, 1}), "Vtriv": frozenset({0})},
    )
    alpha = alpha_from_subobject(a)
    rep = theorem2_verify(alpha)
    assert not rep["condition_ii"]["holds"]
    assert rep["contract_ok"]   # no claim is made when the conditions fail


def test_func_through_sieve_pullback(fixa):
    # the composition law routed through the public sieve API: pulling the
    # fine-stage sieve back equals evaluating the coarse-grained element
    from toposval.presheaves import pullback

    rng = np.random.default_rng(83)
    nu = nu_rho(random_density(rng, 3), fixa)
    for sub, sup in fixa.pairs():
        for mask in range(1 << fixa.context(sup).n_atoms):
            p = LatticeElement(sup, mask)
            cg = coarse_grain(fixa, sub, sup, p)
            lhs = nu.evaluate(sub, cg)
            rhs = pullback(fixa, sub, sup, nu.evaluate(sup, p))
            assert lhs == rhs


def test_func_r_grid(fixa):
    rng = np.random.default_rng(71)
    rho = random_density(rng, 3)
    for r in (0.3, 0.5, 0.7, 0.9, 1.0):
        rep = check_definition3(nu_rho_r(rho, r, fixa))
        assert rep["func"]["status"] == "pass"


def test_func_r_grid_random_posets():
    from toposval.valuations import _func_report

    for seed in range(50):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=5, max_atoms=4)
        dim = poset.context(poset.ids[0]).dim
        rho = random_density(rng, dim)
        for r in (0.3, 0.5, 0.7, 0.9, 1.0):
            alpha = nu_rho_r(rho, r, poset)
            ok, witness = _func_report(alpha)
            assert ok, (seed, r, witness)
            assert alpha.is_sieve_valued()[0]


def test_random_table_contracts(fixa):
    # the theorem contracts hold for arbitrary member-set assignments
    rng = np.random.default_rng(73)
    for _ in range(20):
        alpha = random_table_valuation(rng, fixa, sieve_valued=bool(rng.integers(2)))
        rep = theorem1_verify(alpha)
        if not rep.get("skipped"):
            assert rep["contract_ok"] and rep["func_given_i_ok"]
        rep = theorem2_verify(alpha)
        assert rep["contract_ok"] and rep["func_given_i_ok"]


def test_valuation_determinism(fixa, rho_e0):
    nu = nu_rho(rho_e0, fixa)
    first = nu.members("V1", 0b011)
    assert nu.members("V1", 0b011) is first  # memoized
    assert nu_rho(rho_e0, fixa).members("V1", 0b011) == first


def test_dump_format(fixa, rho_e0):
    dump = nu_rho(rho_e0, fixa).dump()
    assert set(dump) == set(fixa.ids)
    assert dump["V1"]["7"] == ["V1", "V2", "Vtriv"]
    assert dump["V1"]["0"] == []


def test_rule_backed_valuations_ask_their_rule_once_per_cell_at_build(fixa):
    # each constructor asks its rule for every cell, in cell order, when the
    # valuation is built; the laws, queries and dump then ask nothing
    index = fixa.index
    cells = [(i, m) for i, n in enumerate(index.n_atoms) for m in range(1 << n)]
    by_id = [(index.ids[i], m) for i, m in cells]
    asked = []

    def bits_rule(i, mask):
        asked.append((i, mask))
        return index.down[i] if mask else 0

    def rule(cid, mask):
        asked.append((cid, mask))
        return frozenset(fixa.down_set(cid)) if mask else frozenset()

    class Table(dict):
        def get(self, key, default=None):
            asked.append(key)
            return super().get(key, default)

    table = Table({(cid, m): frozenset(fixa.down_set(cid)) for cid, m in by_id if m})
    for build, want in ((lambda: bits_valuation(fixa, bits_rule, "spy"), cells),
                        (lambda: MorphismSetValuation(fixa, rule), by_id),
                        (lambda: from_table(fixa, table), by_id)):
        asked.clear()
        alpha = build()
        assert asked == want
        check_definition3(alpha)
        theorem1_verify(alpha)
        theorem2_verify(alpha)
        assert alpha.members("V1", 0b011) == frozenset(fixa.down_set("V1"))
        alpha.dump()
        assert asked == want


def test_from_table_with_a_member_above_the_apex_raises_at_build(fixa):
    with pytest.raises(ContextError, match="valuation returned 'V1' above the apex 'V2'"):
        from_table(fixa, {("V2", 0b01): frozenset({"V1"})})


def test_a_rule_above_the_apex_names_the_same_member_under_every_hash_seed():
    # the rule's member set was once walked in frozenset order, so the
    # error named 'V1' or 'V2' by the interpreter's hash seed
    code = """
from toposval.index import ContextError
from toposval.sampling import fix_a
from toposval.valuations import from_table
try:
    from_table(fix_a(), {("Vtriv", 0): frozenset({"V1", "V2"})})
except ContextError as exc:
    print(exc)
"""
    assert outputs_under_hash_seeds(code) == {"valuation returned 'V1' above the apex 'Vtriv'\n"}
