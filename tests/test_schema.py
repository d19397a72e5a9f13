import numpy as np
import pytest

from toposval.contexts import ContextError
from toposval.linalg import DensityMatrix, HermitianOperator, StateVector
from toposval.ocat import ODecomposition, OperatorCategory, elementary_support
from toposval.presheaves import GlobalElementG, SubobjectSigma, subobject_from_global_element
from toposval.sampling import fix_a, random_category, random_density, random_poset, random_state
from toposval.schema import (
    BUILTIN_RELATIONS,
    BUILTIN_SET_RELATIONS,
    alpha_a_R,
    random_relation,
    survey_properties,
    survey_properties_o,
    survey_properties_sigma,
)
from toposval.valuations import (
    alpha_from_global_element,
    nu_rho,
    supports_global_element,
    valuations_equal,
)

HOLDS = "holds-exhaustively"
FAILS = "witness-of-failure"


def strictly_positive_a(poset, seed=0):
    """Supports of a full-rank state: a global element with no zero stage."""
    rng = np.random.default_rng(seed)
    dim = poset.context(poset.ids[0]).dim
    a = supports_global_element(nu_rho(random_density(rng, dim, rank=dim), poset))
    assert all(mask != 0 for mask in a.assignment.values())
    return a


def test_alpha_a_R_le_is_alpha_from_global_element(fixa):
    a = strictly_positive_a(fixa)
    assert valuations_equal(
        alpha_a_R(a, BUILTIN_RELATIONS["le"]), alpha_from_global_element(a))[0]


def test_alpha_a_R_requires_matching(fixa):
    broken = GlobalElementG(fixa, {"V1": 0b010, "V2": 0b01, "Vtriv": 0b1}, enforce=False)
    with pytest.raises(ContextError):
        alpha_a_R(broken, BUILTIN_RELATIONS["le"])


def test_alpha_a_R_equality_membership(fixa):
    # supports of e1: membership exactly where the assignment equals the
    # coarse-grained proposition
    nu = nu_rho(DensityMatrix(np.diag([0.0, 1, 0])), fixa)
    a = supports_global_element(nu)
    assert a.assignment == {"V1": 0b010, "V2": 0b10, "Vtriv": 0b1}
    alpha = alpha_a_R(a, BUILTIN_RELATIONS["eq"])
    assert alpha.members("V1", 0b010) == frozenset({"V1", "V2", "Vtriv"})
    assert alpha.members("V1", 0b011) == frozenset({"Vtriv"})
    assert alpha.members("V1", 0b110) == frozenset({"V2", "Vtriv"})


def test_alpha_a_R_always_true_is_principal(fixa):
    a = strictly_positive_a(fixa)
    alpha = alpha_a_R(a, BUILTIN_RELATIONS["always-true"])
    for cid in fixa.ids:
        for mask in range(1 << fixa.context(cid).n_atoms):
            assert alpha.members(cid, mask) == frozenset(fixa.down_set(cid))
    # the degenerate relation cannot keep the null-proposition law
    rep = survey_properties(a, BUILTIN_RELATIONS["always-true"])
    assert rep["properties"]["null"]["status"] == FAILS


def test_survey_le_strictly_positive_all_hold(fixa):
    rep = survey_properties(strictly_positive_a(fixa), BUILTIN_RELATIONS["le"])
    assert rep["all_hold"], rep
    assert rep["analyses"]["sievehood_paths_agree"]
    assert rep["analyses"]["null_paths_agree"]
    assert rep["analyses"]["monotonicity_paths_agree"]
    assert rep["analyses"]["coarse_graining_preserves_relation"]["status"] == HOLDS
    assert rep["analyses"]["stable_under_enlargement"]["status"] == HOLDS


def test_survey_le_zero_assignment_null_fails(fixa):
    zero = GlobalElementG(fixa, {cid: 0 for cid in fixa.ids})
    rep = survey_properties(zero, BUILTIN_RELATIONS["le"])
    assert rep["properties"]["null"]["status"] == FAILS
    assert rep["analyses"]["null_paths_agree"]


def test_survey_equality_global_element_is_stable(fixa):
    # coarse-graining is a function, so equality propagates down whenever
    # the assignment itself matches up: no witness can exist here
    rep = survey_properties(strictly_positive_a(fixa), BUILTIN_RELATIONS["eq"])
    assert rep["properties"]["sievehood"]["status"] == HOLDS
    assert rep["properties"]["func"]["status"] == HOLDS
    assert rep["analyses"]["sievehood_paths_agree"]


def test_survey_equality_broken_assignment_sievehood_witness(fixa):
    broken = GlobalElementG(fixa, {"V1": 0b010, "V2": 0b11, "Vtriv": 0b1}, enforce=False)
    rep = survey_properties(broken, BUILTIN_RELATIONS["eq"])
    assert not rep["a_is_global_element"]
    assert rep["properties"]["sievehood"]["status"] == FAILS
    assert rep["properties"]["func"]["status"] == HOLDS   # any relation whatsoever
    assert rep["analyses"]["sievehood_paths_agree"]
    # the witness re-verifies on replay: that member set is not a sieve
    from toposval.presheaves import is_downward_closed
    from toposval.schema import _schema_valuation
    w = rep["properties"]["sievehood"]["witness"]
    alpha = _schema_valuation(broken, BUILTIN_RELATIONS["eq"])
    members = alpha.members(w["v1"], w["mask"])
    assert sorted(members) == w["members"]
    assert not is_downward_closed(fixa, w["v1"], members)


def test_survey_func_builtin_and_random_relations(fixa):
    a = strictly_positive_a(fixa)
    for rel in BUILTIN_RELATIONS.values():
        rep = survey_properties(a, rel)
        assert rep["properties"]["func"]["status"] == HOLDS, rel.name
        assert rep["analyses"]["sievehood_paths_agree"]
        assert rep["analyses"]["null_paths_agree"]
        assert rep["analyses"]["monotonicity_paths_agree"]
    rng = np.random.default_rng(101)
    for i in range(10):
        rel = random_relation(rng, fixa, name=f"r{i}")
        rep = survey_properties(a, rel)
        assert rep["properties"]["func"]["status"] == HOLDS


def test_survey_random_relations_on_random_posets():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=4, max_atoms=3)
        dim = poset.context(poset.ids[0]).dim
        a = supports_global_element(nu_rho(random_density(rng, dim), poset))
        for i in range(4):
            rel = random_relation(rng, poset, name=f"r{i}")
            rep = survey_properties(a, rel)
            assert rep["properties"]["func"]["status"] == HOLDS
            assert rep["analyses"]["sievehood_paths_agree"]


def test_survey_le_random_draws_all_pass():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=5, max_atoms=4)
        dim = poset.context(poset.ids[0]).dim
        a = supports_global_element(nu_rho(random_density(rng, dim, rank=dim), poset))
        if any(mask == 0 for mask in a.assignment.values()):
            continue
        rep = survey_properties(a, BUILTIN_RELATIONS["le"])
        assert rep["all_hold"]


def test_survey_sigma_subset_tight(fixa):
    a = subobject_from_global_element(strictly_positive_a(fixa))
    rep = survey_properties_sigma(a, BUILTIN_SET_RELATIONS["subset"])
    assert rep["all_hold"]
    assert rep["regularity"]["tight"] and rep["regularity"]["nonempty_everywhere"]


def test_survey_sigma_empty_stage_null_fails(fixa):
    a = SubobjectSigma(
        fixa,
        {"V1": frozenset(), "V2": frozenset(), "Vtriv": frozenset()},
    )
    rep = survey_properties_sigma(a, BUILTIN_SET_RELATIONS["subset"])
    assert rep["properties"]["null"]["status"] == FAILS
    assert not rep["regularity"]["nonempty_everywhere"]


def test_survey_o_subset_on_discrete_fixture():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 1, 2])), "A")
    sq = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 1, 4])), "Asq")
    one = ODecomposition.from_operator(HermitianOperator(np.eye(3)), "one")
    cat = OperatorCategory([a_op, sq, one])
    psi = StateVector(np.array([1, 0, 1]) / np.sqrt(2))
    a = {oid: elementary_support(psi, cat.objects[oid]) for oid in cat.ids}
    rep = survey_properties_o(a, "subset", cat)
    assert rep["all_hold"], rep
    assert rep["regularity"]["nonempty_everywhere"]


def test_survey_o_always_true_fails_null():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 2])), "A")
    cat = OperatorCategory([a_op])
    a = {"A": frozenset({1.0})}
    rep = survey_properties_o(a, "always-true", cat)
    assert rep["properties"]["null"]["status"] == FAILS


# --------------------------------------------------------------------------
# the eigenvalue-set survey against its frozenset form

def oracle_survey_properties_o(a, rel_name, category):
    """The eigenvalue-set survey as it stood before it moved onto the
    shared checkers: one loop per law over frozensets of eigenvalues and
    `morphisms_into`, giving statuses and regularity only."""
    test = {
        "subset": lambda l, r: l <= r,
        "superset": lambda l, r: l >= r,
        "eq": lambda l, r: l == r,
        "intersects": lambda l, r: bool(l & r),
        "always-true": lambda l, r: True,
        "always-false": lambda l, r: False,
    }[rel_name]
    ids = category.ids
    regularity = {
        "nonempty_everywhere": all(a.get(oid) for oid in ids),
        "covers_category": set(a) >= set(ids),
    }
    if not regularity["covers_category"]:
        return {"regularity": regularity, "status": {}, "all_hold": False}

    def into(aid):
        return [(m.src, m.dst) for m in category.morphisms_into(aid)]

    memo = {}

    def members(aid, delta):
        if (aid, delta) not in memo:
            memo[(aid, delta)] = frozenset((m.src, m.dst) for m in category.morphisms_into(aid)
                                           if test(a[m.src], m.map.image(delta)))
        return memo[(aid, delta)]

    subsets = {}
    for aid in ids:
        spec = category.objects[aid].spectrum
        subsets[aid] = [frozenset(spec[i] for i in range(len(spec)) if mask >> i & 1)
                        for mask in range(1 << len(spec))]

    def sieve_ok(aid, delta):
        mem = members(aid, delta)
        return all((g, aid) in mem for src, _ in mem for g, _ in into(src))

    def func_ok(f, delta):
        aid, bid = f.dst, f.src
        at_a = members(aid, delta)
        return members(bid, f.map.image(delta)) == frozenset(
            (g, h) for g, h in into(bid) if (g, aid) in at_a)

    full = {aid: frozenset(into(aid)) for aid in ids}
    status = {
        "sievehood": all(sieve_ok(aid, d) for aid in ids for d in subsets[aid]),
        "func": all(func_ok(f, d) for f in category.morphisms.values()
                    for d in subsets[f.dst]),
        "null": all(not members(aid, frozenset()) for aid in ids),
        "monotonicity": all(members(aid, d1) <= members(aid, d2) for aid in ids
                            for d1 in subsets[aid] for d2 in subsets[aid] if d1 <= d2),
        "exclusivity": not any(members(aid, d1) == full[aid] == members(aid, d2)
                               for aid in ids for d1 in subsets[aid] for d2 in subsets[aid]
                               if not d1 & d2),
        "unit": all(members(aid, frozenset(category.objects[aid].spectrum)) == full[aid]
                    for aid in ids),
    }
    return {"regularity": regularity, "status": status, "all_hold": all(status.values())}


def survey_summary(rep):
    return {"regularity": rep["regularity"],
            "status": {k: v["status"] == HOLDS for k, v in rep["properties"].items()},
            "all_hold": rep["all_hold"]}


def test_survey_o_matches_frozenset_oracle_on_random_categories():
    rng = np.random.default_rng(331)
    seen = {rel: set() for rel in BUILTIN_SET_RELATIONS}
    for draw in range(300):
        dim = int(rng.integers(2, 6))
        cat, aid = random_category(rng, dim)
        state = random_state(rng, dim) if draw % 2 else random_density(rng, dim)
        supports = {oid: elementary_support(state, cat.objects[oid]) for oid in cat.ids}
        drawn = {oid: frozenset(lam for lam in cat.objects[oid].spectrum if rng.random() < 0.5)
                 for oid in cat.ids}
        for a in (supports, drawn):
            for rel in BUILTIN_SET_RELATIONS:
                got = survey_summary(survey_properties_o(a, rel, cat))
                assert got == oracle_survey_properties_o(a, rel, cat), (draw, rel)
                seen[rel].add(tuple(sorted(got["status"].items())))
    # every relation but the constant ones meets both outcomes of some law
    for rel in ("subset", "superset", "eq", "intersects"):
        assert len(seen[rel]) > 1, rel


def test_survey_o_uncovered_and_unknown():
    cat, _ = random_category(np.random.default_rng(337), 3)
    rep = survey_properties_o({"A": frozenset()}, "subset", cat)
    assert rep["skipped"] and rep["properties"] == {} and not rep["all_hold"]
    assert rep["regularity"] == oracle_survey_properties_o({"A": frozenset()}, "subset",
                                                           cat)["regularity"]
    with pytest.raises(KeyError, match="unknown set relation"):
        survey_properties_o({}, "within", cat)


def test_survey_o_witnesses_name_operators_and_index_masks():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 2])), "A")
    cat = OperatorCategory([a_op])
    rep = survey_properties_o({"A": frozenset({1.0})}, "always-true", cat)
    assert rep["properties"]["null"]["witness"] == {"v1": "A", "members": ["A"]}
    assert rep["properties"]["exclusivity"]["witness"] == {"v1": "A", "p": 0, "q": 0}


def scalar_relation_table(rng, poset):
    """One scalar draw per (context, left mask, right mask): the reference
    order of the stream behind `random_relation`."""
    table = {}
    for cid in poset.ids:
        n = poset.context(cid).n_atoms
        for l in range(1 << n):
            for r in range(1 << n):
                table[(cid, l, r)] = bool(rng.random() < 0.5)
    return table


@pytest.mark.parametrize("seed", range(6))
def test_random_relation_matches_scalar_draws(seed):
    poset = fix_a() if seed == 0 else random_poset(np.random.default_rng(seed), max_contexts=5)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rel = random_relation(rng, poset)
    table = scalar_relation_table(ref, poset)
    assert {key: rel.test(*key) for key in table} == table
    assert rng.bit_generator.state == ref.bit_generator.state
