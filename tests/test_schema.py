import numpy as np
import pytest

from toposval.contexts import ContextPoset, build_poset
from toposval.index import ContextError, bit_list
from toposval.linalg import DensityMatrix, HermitianOperator, StateVector
from toposval.ocat import OcatError, ODecomposition, OperatorCategory, elementary_support
from toposval.presheaves import GlobalElementG, SubobjectSigma, subobject_from_global_element
from toposval.sampling import (
    diag_plus_trivial,
    fix_a,
    random_category,
    random_density,
    random_poset,
    random_state,
)
from toposval.schema import (
    BUILTIN_RELATIONS,
    BUILTIN_SET_RELATIONS,
    Relation,
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

from conftest import bits_valuation, index_below, is_downward_closed, map_image, morphisms_into, route_rows
from test_kernel import (
    scan_exclusivity,
    scan_func,
    scan_monotonicity,
    scan_null,
    scan_sieve,
    scan_unit,
    stage_rule,
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
    from toposval.schema import _schema_valuation
    w = rep["properties"]["sievehood"]["witness"]
    alpha = _schema_valuation(broken, BUILTIN_RELATIONS["eq"])
    members = alpha.members(w["v1"], w["mask"])
    assert sorted(members) == w["members"]
    assert not is_downward_closed(fixa, w["v1"], members)


@pytest.mark.parametrize("changes, test, witness", [
    # Vtriv <= V1 no longer composes through V2: 0b100 of V1 coarse-grains
    # to 0 straight down, to V2's atom 1 on the way.  R holds at V2 and
    # Vtriv on each nonzero mask and nowhere at V1, so every pair passes,
    # while the member set {V2} of (V1, 0b100) is no sieve
    ({("Vtriv", "V1"): (0b011,)}, lambda cid, l, r: cid != "V1" and r != 0, None),
    # V2's reflexive map sends 0b10 to 0b01 and V2 <= V1 sends each nonzero
    # mask to 0b01, so the only cell where R holds, (V2, 0b10), reaches no
    # member set: sievehood holds, and the pair (V2, 0b10, V2) fails
    ({("V2", "V2"): (0b11, 0b00), ("V2", "V1"): (0b111, 0b000)},
     lambda cid, l, r: cid == "V2" and r == 0b10, {"v1": "V2", "v2": "V2", "mask": 0b10}),
])
def test_sievehood_paths_disagree_where_coarse_graining_does_not_compose(fixa, changes, test, witness):
    poset = ContextPoset(contexts=fixa.contexts, order=fixa.order,
                         partition_maps={**fixa.partition_maps, **changes})
    a = GlobalElementG(poset, {cid: poset.context(cid).full_mask for cid in poset.ids}, enforce=False)
    rep = survey_properties(a, Relation("hand", test))
    assert rep["properties"]["sievehood"]["status"] == (HOLDS if witness else FAILS)
    assert rep["analyses"]["stability_under_coarse_graining"]["witness"] == witness
    assert not rep["analyses"]["sievehood_paths_agree"]


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
        return [(m.src, m.dst) for m in morphisms_into(category, aid)]

    memo = {}

    def members(aid, delta):
        if (aid, delta) not in memo:
            memo[(aid, delta)] = frozenset((m.src, m.dst) for m in morphisms_into(category, aid)
                                           if test(a[m.src], map_image(m.map, delta)))
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
        return members(bid, map_image(f.map, delta)) == frozenset(
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


def test_survey_o_refuses_a_value_outside_the_spectrum():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 2])), "A")
    cat = OperatorCategory([a_op])
    with pytest.raises(OcatError, match="7.0 is not an eigenvalue of 'A'"):
        survey_properties_o({"A": frozenset({1.0, 7.0})}, "subset", cat)
    # an assignment that does not cover the category is skipped before
    # any of its sets becomes a mask
    two = OperatorCategory([a_op, ODecomposition.from_operator(HermitianOperator(np.eye(2)), "one")])
    rep = survey_properties_o({"A": frozenset({7.0})}, "subset", two)
    assert rep["skipped"] and not rep["regularity"]["covers_category"]


def test_survey_lattice_and_sigma_forms_agree():
    # subobject_from_global_element maps a's masks to the same atom masks,
    # and a set relation is its mask relation under the set name, so both
    # forms decide the same cells; only the routes differ
    aliases = {"le": "subset", "ge": "superset", "eq": "eq", "nonzero-product": "intersects",
               "always-true": "always-true", "always-false": "always-false"}
    compared = failed = 0
    for seed in range(60):
        rng = np.random.default_rng([seed, 27])
        poset = random_poset(rng, max_contexts=5, max_atoms=4)
        dim = poset.context(poset.ids[0]).dim
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        a = supports_global_element(nu_rho(rho, poset))
        sigma = subobject_from_global_element(a)
        for name, set_name in aliases.items():
            lattice = survey_properties(a, BUILTIN_RELATIONS[name])["properties"]
            if lattice["unit"]["witness"] is not None:
                del lattice["unit"]["witness"]["v2"]
            assert lattice == survey_properties_sigma(sigma, BUILTIN_SET_RELATIONS[set_name])[
                "properties"], (seed, name)
            compared += 1
            failed += sum(v["status"] == FAILS for v in lattice.values())
    assert compared == 360 and failed > 300, failed


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


def test_a_random_relation_refuses_a_context_it_was_not_drawn_for():
    rel = random_relation(np.random.default_rng(7), fix_a(), name="drawn")
    other = diag_plus_trivial(2)
    message = "relation 'drawn' was not drawn for context 'Vdiag'"
    a = GlobalElementG(other, {cid: other.context(cid).full_mask for cid in other.ids})
    sigma = SubobjectSigma(other, {cid: frozenset(range(other.context(cid).n_atoms))
                                   for cid in other.ids})
    for call in (lambda: survey_properties(a, rel), lambda: survey_properties_sigma(sigma, rel),
                 lambda: rel.test("Vdiag", 0, 0)):
        with pytest.raises(ContextError) as exc:
            call()
        assert str(exc.value) == message


def test_a_random_relation_surveys_a_poset_of_contexts_it_was_drawn_for():
    # every context of the sub-poset is in the draw with its atom count, so
    # the survey reads the drawn tables, as a relation tabulated from them
    # one test at a time does
    poset = fix_a()
    rel = random_relation(np.random.default_rng(7), poset, name="drawn")
    sub = build_poset([poset.context("V1")], add_trivial=True, dim=3)
    assert sub.ids == ["V1", "Vtriv"]
    plain = Relation("drawn", rel.test)
    a = GlobalElementG(sub, {cid: sub.context(cid).full_mask for cid in sub.ids})
    sigma = SubobjectSigma(sub, {cid: frozenset(range(sub.context(cid).n_atoms)) for cid in sub.ids})
    assert survey_properties(a, rel) == survey_properties(a, plain)
    assert survey_properties_sigma(sigma, rel) == survey_properties_sigma(sigma, plain)


# --------------------------------------------------------------------------
# the surveys against the scans they replaced
#
# R asked once per (context, left mask) through `test`, the valuation built
# by `stage_rule`, every law and every analysis one Python loop.

class ScanRelationRows:
    """`rel.test` over one poset, asked once per (context, left mask): the
    row of a left mask is the bitmask of the right masks it relates to."""

    def __init__(self, poset, rel):
        self._test = rel.test
        self._index = poset.index
        self._rows = {}

    def row(self, i, left):
        out = self._rows.get((i, left))
        if out is None:
            cid = self._index.ids[i]
            out = 0
            for right in range(1 << self._index.n_atoms[i]):
                if self._test(cid, left, right):
                    out |= 1 << right
            self._rows[(i, left)] = out
        return out


def scan_statuses(alpha, unit=scan_unit):
    sieve_ok, w = scan_sieve(alpha)
    found = [("sievehood", sieve_ok, w)]
    for clause, find in (("func", scan_func), ("null", scan_null),
                         ("monotonicity", scan_monotonicity),
                         ("exclusivity", scan_exclusivity), ("unit", unit)):
        w = find(alpha)
        found.append((clause, w is None, w))
    properties = {clause: {"status": HOLDS if ok else FAILS, "witness": None if ok else w}
                  for clause, ok, w in found}
    return {"properties": properties,
            "all_hold": all(v["status"] == HOLDS for v in properties.values())}


def scan_unit_with_stage(alpha):
    w = scan_unit(alpha)
    if w is not None:
        index = alpha._index
        i = index.pos[w["v1"]]
        missing = index.down[i] & ~alpha._bits(i, (1 << index.n_atoms[i]) - 1)
        w["v2"] = index.ids[(missing & -missing).bit_length() - 1]
    return w


def scan_stable_under_coarse_graining(index, left):
    for sup, cid in enumerate(index.ids):
        below = index_below(index, sup)
        for mask in range(1 << index.n_atoms[sup]):
            related = 0
            for sub, table in below:
                if left[sub] >> table[mask] & 1:
                    related |= 1 << sub
            for mid in bit_list(related):
                missing = index.down[mid] & ~related
                if missing:
                    sub = (missing & -missing).bit_length() - 1
                    return False, {"v1": cid, "v2": index.ids[mid], "v3": index.ids[sub],
                                   "mask": mask}
    return True, None


def scan_preserved_by_coarse_graining(index, rows):
    for sub, sup in index.pair_indices:
        if sub == sup:
            continue
        table = index.coarse(sub, sup)
        for x in range(len(table)):
            related = rows.row(sup, x)
            if not related:
                continue
            at_sub = rows.row(sub, table[x])
            for y in bit_list(related):
                if not at_sub >> table[y] & 1:
                    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "x": x, "y": y}
    return True, None


def scan_isotone_under_coarse_graining(index, left):
    for sub, sup in index.pair_indices:
        table = index.coarse(sub, sup)
        related = left[sub]
        for p in range(len(table)):
            if not related >> table[p] & 1:
                continue
            q = p
            while q < len(table):
                if not related >> table[q] & 1:
                    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "p": p, "q": q}
                q = (q + 1) | p
    return True, None


def scan_stable_under_enlargement(index, left):
    for i, cid in enumerate(index.ids):
        related = left[i]
        size = 1 << index.n_atoms[i]
        for s in range(size):
            if not related >> s & 1:
                continue
            t = s
            while t < size:
                if not related >> t & 1:
                    return False, {"v1": cid, "s": s, "t": t}
                t = (t + 1) | s
    return True, None


def scan_status(ok, witness):
    return {"status": HOLDS if ok else FAILS, "witness": None if ok else witness}


def scan_survey_properties(a, rel):
    poset = a.poset
    index = poset.index
    rows = ScanRelationRows(poset, rel)
    alpha = bits_valuation(poset, stage_rule(
        index, lambda sup: index_below(index, sup),
        lambda j, m: bool(rows.row(j, a.assignment[index.ids[j]]) >> m & 1)),
        "scan")
    left = [rows.row(i, a.assignment[cid]) for i, cid in enumerate(index.ids)]
    report = {"relation": rel.name, "a_is_global_element": a.satisfies_matching,
              **scan_statuses(alpha, unit=scan_unit_with_stage)}
    holds = {name: v["status"] == HOLDS for name, v in report["properties"].items()}
    analyses = report["analyses"] = {}
    stable, w = scan_stable_under_coarse_graining(index, left)
    analyses["stability_under_coarse_graining"] = scan_status(stable, w)
    analyses["sievehood_paths_agree"] = holds["sievehood"] == stable
    pres, w = scan_preserved_by_coarse_graining(index, rows)
    analyses["coarse_graining_preserves_relation"] = scan_status(pres, w)
    char_ok, char_w = True, None
    for sub, sup in index.pair_indices:
        if left[sub] & 1:
            char_ok, char_w = False, {"v1": index.ids[sup], "v2": index.ids[sub]}
            break
    analyses["null_characterization"] = scan_status(char_ok, char_w)
    analyses["null_paths_agree"] = holds["null"] == char_ok
    iso, w = scan_isotone_under_coarse_graining(index, left)
    analyses["isotone_under_coarse_graining"] = scan_status(iso, w)
    analyses["monotonicity_paths_agree"] = holds["monotonicity"] == iso
    stab, w = scan_stable_under_enlargement(index, left)
    analyses["stable_under_enlargement"] = scan_status(stab, w)
    return report


def test_survey_matches_scans_for_builtin_and_random_relations():
    outcomes = {}
    for seed in range(40):
        rng = np.random.default_rng([seed, 17])
        poset = random_poset(rng, max_contexts=5, max_atoms=3)
        dim = poset.context(poset.ids[0]).dim
        matching = supports_global_element(nu_rho(random_density(rng, dim), poset))
        broken = GlobalElementG(poset, {cid: int(rng.integers(1 << poset.context(cid).n_atoms))
                                        for cid in poset.ids}, enforce=False)
        relations = list(BUILTIN_RELATIONS.values())
        relations += [random_relation(rng, poset, name=f"r{k}") for k in range(3)]
        for a in (matching, broken):
            for rel in relations:
                report = survey_properties(a, rel)
                assert report == scan_survey_properties(a, rel), (seed, rel.name)
                for name, v in report["analyses"].items():
                    if isinstance(v, dict):
                        outcomes.setdefault(name, set()).add(v["status"])
    # every analysis both holds and fails somewhere
    assert all(seen == {HOLDS, FAILS} for seen in outcomes.values()), outcomes


def test_survey_on_closed_peres24_matches_scans():
    from test_kernel import _peres_bases
    from toposval.contexts import Context, build_poset
    from toposval.linalg import Projector
    contexts = [Context(f"P{k:02d}", [Projector(np.outer(ray, ray) / np.dot(ray, ray))
                                      for ray in basis])
                for k, basis in enumerate(_peres_bases())]
    poset = build_poset(contexts, add_trivial=True, close_under_meets=True)
    rng = np.random.default_rng(68112)
    a = supports_global_element(nu_rho(random_density(rng, 4, rank=2), poset))
    assert len(poset.index.coarse_squares[2]) == 68112
    for rel in (BUILTIN_RELATIONS["le"], BUILTIN_RELATIONS["eq"], random_relation(rng, poset)):
        assert survey_properties(a, rel) == scan_survey_properties(a, rel), rel.name


def scan_survey_form(alpha, regularity, name):
    return {"relation": name, "regularity": regularity, **scan_statuses(alpha)}


def test_survey_sigma_matches_scans():
    for seed in range(30):
        rng = np.random.default_rng([seed, 19])
        poset = random_poset(rng, max_contexts=5, max_atoms=3)
        index = poset.index
        a = SubobjectSigma(poset, {cid: frozenset(k for k in range(poset.context(cid).n_atoms)
                                                  if rng.random() < 0.6) for cid in poset.ids},
                           enforce=False)
        for rel in BUILTIN_SET_RELATIONS.values():
            alpha = bits_valuation(poset, stage_rule(
                index, route_rows(index, "below_image"),
                lambda j, m: bool(rel.test(index.ids[j], a.masks[j], m))), "scan")
            report = survey_properties_sigma(a, rel)
            assert report == scan_survey_form(alpha, report["regularity"], rel.name)


def test_survey_o_matches_scans():
    rng = np.random.default_rng(339)
    for draw in range(60):
        dim = int(rng.integers(2, 5))
        cat, _ = random_category(rng, dim)
        index = cat.index
        a = {oid: frozenset(lam for lam in cat.objects[oid].spectrum if rng.random() < 0.5)
             for oid in cat.ids}
        for name, rel in BUILTIN_SET_RELATIONS.items():
            alpha = bits_valuation(cat, stage_rule(
                index, lambda sup: index_below(index, sup),
                lambda j, m: bool(rel.test(index.ids[j], cat.objects[index.ids[j]].mask_of(
                    a[index.ids[j]]), m))), "scan")
            report = survey_properties_o(a, name, cat)
            assert report == scan_survey_form(alpha, report["regularity"], name), (draw, name)


@pytest.mark.parametrize("name", sorted(BUILTIN_RELATIONS))
def test_builtin_relation_tables_match_their_tests(name):
    rel = BUILTIN_RELATIONS[name]
    for n in range(1, 5):
        assert rel.table("V", n).tolist() == [[bool(rel.test("V", l, r)) for r in range(1 << n)]
                                              for l in range(1 << n)]
    # a relation without a grid is tabulated through its test
    plain = Relation(name, rel.test)
    assert np.array_equal(plain.table("V", 3), rel.table("V", 3))
