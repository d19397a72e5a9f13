"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them inline)."""

import time

import numpy as np
import pytest

from toposval.contexts import Context, build_poset
from toposval.index import LatticeElement
from toposval.ks import (
    bundled_ks_poset,
    global_section_search,
    load_bundled_ks,
    section_verify,
    validate_rank_one_cover,
)
from toposval.linalg import DensityMatrix, projector_from_span
from toposval.ocat import characterize_check, support_subobject_check
from toposval.presheaves import (
    GlobalElementG,
    check_nat_iso,
    coarse_grain,
)
from toposval.sampling import (
    context_from_basis,
    diag_plus_trivial,
    fix_a,
    random_category,
    random_density,
    random_poset,
    random_state,
    random_unitary,
)
from toposval.schema import BUILTIN_RELATIONS, random_relation, survey_properties
from toposval.valuations import (
    alpha_from_global_element,
    check_definition3,
    from_table,
    nu_rho,
    nu_rho_r,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    search_supportsmatch_violation,
    supports_global_element,
    supportsmatch_draw,
    theorem1_verify,
    theorem2_verify,
    valuations_equal,
)

from conftest import coarse_grain_bruteforce, random_table_valuation

ISO_SEEDS = [1000 + i for i in range(50)]
DEFN3_POSET_SEEDS = [2000 + i for i in range(20)]
ROUNDTRIP_POSET_SEEDS = [3000 + i for i in range(20)]
SEARCH_SEED = 20260810
SEARCH_DRAWS = 200


def _line(num: int, name: str, ok: bool) -> None:
    import conftest

    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    print(line)
    conftest.criterion_lines.append(line)


@pytest.fixture(scope="module")
def fixa():
    return fix_a()


@pytest.fixture(scope="module")
def iso_posets():
    return [random_poset(np.random.default_rng(s), max_contexts=12, max_atoms=6)
            for s in ISO_SEEDS]


@pytest.fixture(scope="module")
def defn3_posets():
    return [random_poset(np.random.default_rng(s), max_contexts=6, max_atoms=4)
            for s in DEFN3_POSET_SEEDS]


@pytest.fixture(scope="module")
def roundtrip_posets():
    return [random_poset(np.random.default_rng(s), max_contexts=6, max_atoms=4)
            for s in ROUNDTRIP_POSET_SEEDS]


def test_criterion_1_kochen_specker():
    contexts = load_bundled_ks()
    fixture = validate_rank_one_cover(contexts)
    ok = fixture["ok"] and fixture["rayCount"] == 18 \
        and fixture["rayContextCounts"] == [2] * 18 and fixture["parityObstruction"]

    t0 = time.time()
    verdict = global_section_search(bundled_ks_poset())
    elapsed = time.time() - t0
    ok = ok and verdict["exists"] is False and elapsed < 2.0

    # every dim-2 fixture admits a verified section
    h = [projector_from_span([np.array([1, 1]) / np.sqrt(2)]),
         projector_from_span([np.array([1, -1]) / np.sqrt(2)])]
    from conftest import diag_proj
    two_bases = build_poset(
        [Context("Vdiag", [diag_proj(1, 0), diag_proj(0, 1)]), Context("Vhad", h)],
        add_trivial=True, close_under_meets=True)
    fixtures2 = [diag_plus_trivial(2), two_bases]
    fixtures2 += [random_poset(np.random.default_rng(s), dim=2, max_contexts=6, max_atoms=2)
                  for s in range(10)]
    for poset in fixtures2:
        v = global_section_search(poset)
        ok = ok and v["exists"] and section_verify(poset, v["witness"])

    # single-maximal-context posets: a section always exists
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 6))
        basis = random_unitary(rng, dim)
        blocks = [[i] for i in range(dim)]
        ctxs = [context_from_basis(basis, blocks, "M")]
        ctxs.append(context_from_basis(basis, [[0, 1]] + [[i] for i in range(2, dim)], "C1"))
        ctxs.append(context_from_basis(basis, [list(range(dim))], "C2"))
        poset = build_poset(ctxs, add_trivial=True)
        v = global_section_search(poset)
        ok = ok and v["exists"] and section_verify(poset, v["witness"])

    _line(1, "Kochen-Specker reproduction", ok)
    assert ok


def test_criterion_2_nat_iso(fixa, iso_posets):
    ok = check_nat_iso(fixa)["passed"]
    for poset in iso_posets:
        report = check_nat_iso(poset)
        ok = ok and report["passed"] and report["failures"] == []
    _line(2, "power-object isomorphism on FIX-A and 50 random posets", ok)
    assert ok


def test_criterion_3_definition3(fixa, defn3_posets):
    ok = True
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = random_density(rng, 3)
        ok = ok and check_definition3(nu_rho(rho, fixa))["passed"]
    for poset in defn3_posets:
        dim = poset.context(poset.ids[0]).dim
        for _ in range(2):
            rho = random_density(rng, dim)
            ok = ok and check_definition3(nu_rho(rho, poset))["passed"]

    # the probability-r family keeps every clause at r >= 0.5
    for r in (0.5, 0.7, 0.9):
        rho = random_density(rng, 3)
        ok = ok and check_definition3(nu_rho_r(rho, r, fixa))["passed"]
        for poset in defn3_posets[:5]:
            dim = poset.context(poset.ids[0]).dim
            ok = ok and check_definition3(nu_rho_r(random_density(rng, dim), r, poset))["passed"]

    # the stated dim-2 exclusivity witness at r = 0.3
    mixed = DensityMatrix(np.eye(2) / 2)
    rep = check_definition3(nu_rho_r(mixed, 0.3, diag_plus_trivial(2)))
    ok = ok and rep["exclusivity"]["status"] == "fail"

    _line(3, "generalized-valuation clauses for state valuations", ok)
    assert ok


def test_criterion_4_theorem_contracts(fixa, defn3_posets):
    ok = True

    def contracts_hold(alpha):
        t1 = theorem1_verify(alpha)
        t2 = theorem2_verify(alpha)
        fine = t2["contract_ok"] and t2["func_given_i_ok"] and t2["routes_agree"]
        if not t1.get("skipped"):
            fine = fine and t1["contract_ok"] and t1["func_given_i_ok"]
        return fine, t1, t2

    rng = np.random.default_rng(7)
    # state valuations: conditions and conclusions must all pass
    for _ in range(30):
        nu = nu_rho(random_density(rng, 3), fixa)
        fine, t1, t2 = contracts_hold(nu)
        ok = ok and fine and t1["conditions_hold"] and t2["conditions_hold"]
    for poset in defn3_posets:
        dim = poset.context(poset.ids[0]).dim
        nu = nu_rho(random_density(rng, dim), poset)
        fine, t1, t2 = contracts_hold(nu)
        ok = ok and fine and t1["conditions_hold"] and t2["conditions_hold"]

    # r-family: contracts hold whatever the conditions do
    for r in (0.5, 0.7, 0.9):
        for _ in range(5):
            alpha = nu_rho_r(random_density(rng, 3), r, fixa)
            fine, _, _ = contracts_hold(alpha)
            ok = ok and fine

    # schema-induced valuations
    for _ in range(10):
        a = supports_global_element(nu_rho(random_density(rng, 3), fixa))
        fine, t1, _ = contracts_hold(alpha_from_global_element(a))
        ok = ok and fine and t1["conditions_hold"]

    # randomized table-backed doubles
    for _ in range(30):
        alpha = random_table_valuation(rng, fixa, sieve_valued=bool(rng.integers(2)))
        fine, _, _ = contracts_hold(alpha)
        ok = ok and fine

    _line(4, "theorem contracts (conditions imply conclusions)", ok)
    assert ok


def test_criterion_5_expected_failure():
    res = search_supportsmatch_violation(seed=SEARCH_SEED, draws=SEARCH_DRAWS)
    ok = res["status"] == "witness-of-failure" and res["replayed"] and res["r"] < 1.0
    again = search_supportsmatch_violation(seed=SEARCH_SEED, draws=SEARCH_DRAWS)
    ok = ok and again == res
    _line(5, "support-matching violation witness for r < 1", ok)
    assert ok


def test_criterion_6_mutual_determination(fixa, roundtrip_posets):
    ok = True
    rng = np.random.default_rng(11)
    for poset in [fixa] + roundtrip_posets:
        dim = poset.context(poset.ids[0]).dim
        nu = nu_rho(random_density(rng, dim), poset)
        rebuilt_s, rep_s = reconstruct_from_supports(nu)
        rebuilt_i, rep_i = reconstruct_from_intervals(nu)
        ok = ok and rep_s["equal"] and rep_i["equal"]
        ok = ok and valuations_equal(nu, rebuilt_s)[0] and valuations_equal(nu, rebuilt_i)[0]
        ok = ok and rep_s["iff_consistent"] and rep_i["iff_consistent"]

    # a table violating the membership-by-support condition must be witnessed
    nu = nu_rho(DensityMatrix(np.diag([1.0, 0, 0])), fixa)
    table = {
        (cid, mask): nu.members(cid, mask)
        for cid in fixa.ids
        for mask in range(1 << fixa.context(cid).n_atoms)
    }
    table[("V1", 0b010)] = frozenset()
    tampered = from_table(fixa, table)
    _, rep = reconstruct_from_supports(tampered)
    ok = ok and not rep["equal"] and not rep["condition_i"] and rep["iff_consistent"]
    ok = ok and rep["witness"] is not None

    _line(6, "mutual determination round-trips", ok)
    assert ok


def test_criterion_7_relation_survey(fixa):
    ok = True
    rng = np.random.default_rng(13)
    # strictly positive global element: supports of a full-rank state
    a = supports_global_element(nu_rho(random_density(rng, 3, rank=3), fixa))
    ok = ok and all(mask != 0 for mask in a.assignment.values())
    rep = survey_properties(a, BUILTIN_RELATIONS["le"])
    ok = ok and rep["all_hold"]

    # functional composition for every relation, built-in or random
    for rel in BUILTIN_RELATIONS.values():
        rep = survey_properties(a, rel)
        ok = ok and rep["properties"]["func"]["status"] == "holds-exhaustively"
        ok = ok and rep["analyses"]["sievehood_paths_agree"]
    for i in range(50):
        rel = random_relation(rng, fixa, name=f"r{i}")
        rep = survey_properties(a, rel)
        ok = ok and rep["properties"]["func"]["status"] == "holds-exhaustively"
        ok = ok and rep["analyses"]["sievehood_paths_agree"]

    # equality loses sievehood once the assignment stops matching up
    broken = GlobalElementG(fixa, {"V1": 0b010, "V2": 0b11, "Vtriv": 0b1}, enforce=False)
    rep = survey_properties(broken, BUILTIN_RELATIONS["eq"])
    ok = ok and rep["properties"]["sievehood"]["status"] == "witness-of-failure"
    ok = ok and rep["properties"]["func"]["status"] == "holds-exhaustively"

    _line(7, "relation survey (six properties)", ok)
    assert ok


def test_criterion_8_operator_category_suite():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(17)
    # characterization equality and dual-path coarse-graining on 500 draws
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        cat, aid = random_category(rng, dim)
        a = cat.objects[aid]
        n = len(a.spectrum)
        mask = int(rng.integers(0, 1 << n))
        delta = frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)
        state = random_state(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)
        rep = characterize_check(state, a, delta, cat)  # raises on dual-path disagreement
        ok = ok and rep["passed"]
    # support equality through every morphism on 300 draws
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        cat, _ = random_category(rng, dim)
        state = random_state(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)
        rep = support_subobject_check(state, cat)
        ok = ok and rep["passed"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _line(8, f"discrete-operator suite ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_9_oracle_agreement(fixa, iso_posets, defn3_posets, roundtrip_posets):
    posets = [fixa] + iso_posets + defn3_posets + roundtrip_posets
    for i in range(SEARCH_DRAWS):
        posets.append(supportsmatch_draw(SEARCH_SEED, i)[2])
    disagreements = 0
    checked = 0
    for poset in posets:
        for sub, sup in poset.pairs():
            for mask in range(1 << poset.context(sup).n_atoms):
                p = LatticeElement(sup, mask)
                checked += 1
                if coarse_grain(poset, sub, sup, p) != coarse_grain_bruteforce(poset, sub, sup, p):
                    disagreements += 1
    ok = disagreements == 0 and checked > 0
    _line(9, f"coarse-graining oracle agreement ({checked} instances)", ok)
    assert ok
