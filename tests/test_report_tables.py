"""The report values a state verdict reads off shared per-poset tables
(supports, intervals, member names, the interval subobject and the
supports' global element, the survey's gathers) against their
per-context constructions in `conftest`."""

import numpy as np
import pytest

from toposval.contexts import ContextError, LatticeElement, build_poset, v_of_p
from toposval.ks import load_bundled_ks
from toposval.linalg import DensityMatrix
from toposval.presheaves import GlobalElementG, SubobjectSigma
from toposval.sampling import fix_a, random_density, random_poset
from toposval.schema import (
    BUILTIN_RELATIONS,
    _isotone_under_coarse_graining,
    _preserved_by_coarse_graining,
    _related,
    _relation_tables,
    random_relation,
)
from toposval.valuations import (
    _intervals_subobject,
    alpha_from_global_element,
    alpha_from_subobject,
    interval,
    nu_rho,
    nu_rho_r,
    random_table_valuation,
    support,
    supports_global_element,
    valuations_equal,
)

from conftest import (
    atom_range_oracle,
    dump_oracle,
    interval_oracle,
    intervals_subobject_oracle,
    isotone_oracle,
    mask_range_oracle,
    preserved_oracle,
    random_relation_oracle,
    support_oracle,
    supports_global_element_oracle,
)
from test_kernel import closed_peres24  # noqa: F401  (a module-scoped fixture)

THRESHOLDS = (1.0, 0.8, 0.6)


def peres_states(poset):
    """The four state kinds of a closed Peres-24 check: a Peres ray, a
    random pure state, and random mixed states of rank 2 and 4."""
    rng = np.random.default_rng(94)
    return [DensityMatrix(poset.context("P00").atoms[1].entries)] + [
        random_density(rng, 4, rank=k) for k in (1, 2, 4)]


def valuation_cases(closed_peres24):
    """(name, valuation) over closed Peres-24 at each threshold, the closed
    18-ray fixture and 30 seeded posets, with random table valuations on
    the posets for degenerate supports."""
    for k, rho in enumerate(peres_states(closed_peres24)):
        for r in THRESHOLDS:
            yield f"peres24-{k}@{r}", nu_rho_r(rho, r, closed_peres24)
    ks18 = build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True)
    rng = np.random.default_rng(18)
    for r in THRESHOLDS:
        yield f"ks18@{r}", nu_rho_r(random_density(rng, 4, rank=2), r, ks18)
    for seed in range(30):
        rng = np.random.default_rng([seed, 24])
        dim = int(rng.integers(2, 5))
        poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
        yield f"random{seed}", nu_rho_r(random_density(rng, dim), THRESHOLDS[seed % 3], poset)
        yield f"table{seed}", random_table_valuation(rng, poset, sieve_valued=seed % 2 == 0)


def _outcome(build):
    try:
        return build()
    except ContextError as exc:
        return str(exc)


def test_report_values_match_their_per_context_constructions(closed_peres24):
    degenerate = 0
    for name, alpha in valuation_cases(closed_peres24):
        ids = alpha.poset.ids
        assert alpha.dump() == dump_oracle(alpha), name
        for cid in ids:
            assert support(alpha, cid) == support_oracle(alpha, cid), (name, cid)
            assert interval(alpha, cid) == interval_oracle(alpha, cid), (name, cid)
        sigma, oracle = _intervals_subobject(alpha), intervals_subobject_oracle(alpha)
        assert sigma.assignment == oracle.assignment, name
        assert (sigma.satisfies_law, sigma.is_tight) == (oracle.satisfies_law, oracle.is_tight), name
        assert sigma.masks == oracle.masks, name
        assert valuations_equal(alpha_from_subobject(sigma), alpha_from_subobject(oracle)) == (True, None)
        gamma = _outcome(lambda: supports_global_element(alpha))
        expected = _outcome(lambda: supports_global_element_oracle(alpha))
        if isinstance(expected, str):
            assert gamma == expected, name
            degenerate += 1
            continue
        assert gamma.assignment == expected.assignment, name
        assert gamma.satisfies_matching == expected.satisfies_matching, name
        assert gamma.masks == expected.masks, name
        assert valuations_equal(alpha_from_global_element(gamma),
                                alpha_from_global_element(expected)) == (True, None)
    assert degenerate >= 10, degenerate


def test_supports_and_intervals_are_the_shared_objects(closed_peres24):
    poset = closed_peres24
    rho = peres_states(poset)[0]
    first, second = nu_rho(rho, poset), nu_rho_r(rho, 0.6, poset)
    shared = 0
    for cid in poset.ids:
        for read in (support, interval):
            a, b = read(first, cid), read(second, cid)
            assert (a is b) == (a == b), (read.__name__, cid)
            shared += a is b
    assert 0 < shared < 2 * len(poset.ids), shared


def test_a_mutated_dump_leaves_the_next_dump_unchanged(closed_peres24):
    alpha = nu_rho(peres_states(closed_peres24)[2], closed_peres24)
    expected = dump_oracle(alpha)
    for cid, table in alpha.dump().items():
        for key, members in table.items():
            members.append("extra")
            members.reverse()
        table["extra"] = []
    assert alpha.dump() == expected


def survey_tables(rng, poset):
    """The relations of the survey checks: the built-ins, a seeded random
    one and a sparse random one, whose tables fail the coarse-graining
    laws."""
    index = poset.index
    relations = [BUILTIN_RELATIONS[name] for name in ("le", "ge", "eq", "nonzero-product")]
    relations.append(random_relation(rng, poset))
    tables = [_relation_tables(index, rel) for rel in relations]
    tables.append([rng.random((1 << n, 1 << n)) < 0.9 for n in index.n_atoms])
    return tables


def test_survey_gathers_match_the_concatenating_scans(closed_peres24):
    posets = [("peres24", closed_peres24),
              ("ks18", build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True))]
    for seed in range(30):
        rng = np.random.default_rng([seed, 25])
        dim = int(rng.integers(2, 5))
        posets.append((f"random{seed}", random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)))
    failures = 0
    for name, poset in posets:
        index = poset.index
        rng = np.random.default_rng(len(index.ids))
        a = GlobalElementG(poset, {cid: int(rng.integers(1 << poset.context(cid).n_atoms))
                                   for cid in poset.ids}, enforce=False)
        for tables in survey_tables(rng, poset):
            got = _preserved_by_coarse_graining(index, tables)
            assert got == preserved_oracle(index, tables), name
            failures += not got[0]
            for related in (_related(tables, a.masks), rng.random(len(index.cell_stage)) < 0.7):
                got = _isotone_under_coarse_graining(index, related)
                assert got == isotone_oracle(index, related), name
                failures += not got[0]
    assert failures >= 30, failures


def test_random_relation_takes_one_draw_as_the_per_context_draws_do(closed_peres24):
    posets = [closed_peres24]
    for seed in range(20):
        rng = np.random.default_rng([seed, 26])
        posets.append(random_poset(rng, max_contexts=6, max_atoms=4))
    for k, poset in enumerate(posets):
        rng, oracle_rng = np.random.default_rng(k), np.random.default_rng(k)
        rel = random_relation(rng, poset)
        expected = random_relation_oracle(oracle_rng, poset)
        for cid in poset.ids:
            n = poset.context(cid).n_atoms
            assert np.array_equal(rel.table(cid, n), expected[cid]), (k, cid)
        assert rng.random() == oracle_rng.random(), k


# --------------------------------------------------------------------------
# the range checks of the assignment types refuse what is not an int

@pytest.mark.parametrize("mask", [2.0, True, False, "1", None, 1 << 70, -1, 4, 1 << 9])
def test_global_element_refuses_a_mask_that_is_not_an_int_in_range(mask):
    poset = fix_a()
    assignment = {cid: 1 for cid in poset.ids}
    assignment[poset.ids[-1]] = mask
    with pytest.raises(ContextError) as expected:
        mask_range_oracle(poset, assignment)
    refused = "not an int" if isinstance(mask, bool) or not isinstance(mask, int) else "out of range"
    with pytest.raises(ContextError, match=refused) as got:
        GlobalElementG(poset, assignment, enforce=False)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("index", [1.5, "a", True, None, 1 << 70, -1, 1])
def test_subobject_refuses_an_atom_index_that_is_not_an_int_in_range(index):
    poset = fix_a()
    assignment = {cid: frozenset({0}) for cid in poset.ids}
    assignment[poset.ids[-1]] = frozenset({0, index})
    with pytest.raises(ContextError) as expected:
        atom_range_oracle(poset, assignment)
    refused = "must be ints" if isinstance(index, bool) or not isinstance(index, int) else "out of range"
    with pytest.raises(ContextError, match=refused) as got:
        SubobjectSigma(poset, assignment, enforce=False)
    assert str(got.value) == str(expected.value)


def test_range_checks_name_the_first_failing_context_in_assignment_order():
    poset = fix_a()
    ids = list(reversed(poset.ids))
    masks = {cid: 1 for cid in ids}
    masks[ids[0]], masks[ids[1]] = 1 << 9, 2.0
    atoms = {cid: frozenset({0}) for cid in ids}
    atoms[ids[0]], atoms[ids[2]] = frozenset({"a"}), frozenset({9})
    for build, oracle, assignment in ((GlobalElementG, mask_range_oracle, masks),
                                      (SubobjectSigma, atom_range_oracle, atoms)):
        with pytest.raises(ContextError) as expected:
            oracle(poset, assignment)
        with pytest.raises(ContextError) as got:
            build(poset, assignment, enforce=False)
        assert str(got.value) == str(expected.value) and repr(ids[0]) in str(got.value)


def test_range_checks_accept_numpy_integers():
    poset = fix_a()
    gamma = GlobalElementG(poset, {cid: np.int64(1) for cid in poset.ids}, enforce=False)
    sigma = SubobjectSigma(poset, {cid: frozenset({np.int64(0)}) for cid in poset.ids}, enforce=False)
    assert gamma.masks == sigma.masks == (1,) * len(poset.ids)


def test_v_of_p_refuses_mask_bits_beyond_the_atoms():
    context = load_bundled_ks()[0]
    cid = context.id
    assert context.n_atoms == 4
    with pytest.raises(ContextError, match=f"mask 1025 out of range for context {cid!r}"):
        v_of_p(context, LatticeElement(cid, 1 << 10 | 1))
    for mask in (-1, 16):
        with pytest.raises(ContextError, match=f"mask {mask} out of range"):
            v_of_p(context, LatticeElement(cid, mask))
    assert len(v_of_p(context, LatticeElement(cid, 15))) == 4
    assert {k.atom_index for k in v_of_p(context, LatticeElement(cid, 0b1001))} == {0, 3}
