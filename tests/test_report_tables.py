"""The report values a state verdict reads off shared per-poset tables
(supports, intervals, member names, the interval subobject and the
supports' global element, the survey's gathers) against their
per-context constructions in `conftest`."""

from dataclasses import replace

import numpy as np
import pytest

from toposval.contexts import ContextError, ContextPoset, LatticeElement, build_poset, trivial_context, v_of_p
from toposval.ks import global_section_search, load_bundled_ks
from toposval.linalg import DensityMatrix
from toposval.presheaves import GlobalElementG, SubobjectSigma, check_nat_iso
from toposval.sampling import fix_a, random_density, random_poset
from toposval.schema import (
    BUILTIN_RELATIONS,
    BUILTIN_SET_RELATIONS,
    Relation,
    _isotone_under_coarse_graining,
    _preserved_by_coarse_graining,
    _related,
    _relation_squares,
    random_relation,
    survey_properties,
    survey_properties_sigma,
)
from toposval.valuations import (
    _intervals_subobject,
    _supports,
    alpha_from_global_element,
    alpha_from_subobject,
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    from_table,
    interval,
    nu_rho,
    nu_rho_r,
    random_table_valuation,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    support,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
    valuations_equal,
)

from conftest import (
    atom_range_oracle,
    dump_oracle,
    index_lift,
    interval_oracle,
    intervals_subobject_oracle,
    isotone_oracle,
    lifted_supports_oracle,
    mask_range_oracle,
    poset_table_oracles,
    preserved_oracle,
    random_relation_oracle,
    related_oracle,
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


def survey_relations(rng, poset):
    """The relations of the survey checks: the built-ins, a seeded random
    one and a sparse random one, whose tables fail the coarse-graining
    laws."""
    index = poset.index
    relations = [BUILTIN_RELATIONS[name] for name in ("le", "ge", "eq", "nonzero-product")]
    relations.append(random_relation(rng, poset))
    sparse = {cid: rng.random((1 << n, 1 << n)) < 0.9 for cid, n in zip(index.ids, index.n_atoms)}
    relations.append(Relation("sparse", lambda cid, l, r: bool(sparse[cid][l, r]), lambda cid, n: sparse[cid]))
    return relations


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
        for rel in survey_relations(rng, poset):
            tables = [rel.table(cid, n) for cid, n in zip(index.ids, index.n_atoms)]
            squares = _relation_squares(index, rel)
            got = _preserved_by_coarse_graining(index, squares)
            assert got == preserved_oracle(index, tables), name
            failures += not got[0]
            for related in (_related(squares, index, a.masks), rng.random(len(index.cell_stage)) < 0.7):
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
# the poset-only tables of a state verdict, built once per poset

def state_verdict(alpha):
    """The checks of a state verdict, in the order of `verify-theorems`
    after `supports`."""
    for cid in alpha.poset.ids:
        support(alpha, cid)
        interval(alpha, cid)
    check_subobject_condition(alpha)
    check_global_element_condition(alpha)
    check_definition3(alpha)
    theorem1_verify(alpha)
    theorem2_verify(alpha)
    reconstruct_from_supports(alpha)
    reconstruct_from_intervals(alpha)


def kept_tables(index):
    """The poset-only arrays of `poset_table_oracles`, as the index and its
    gathers keep them."""
    out = {}
    for name in poset_table_oracles(index):
        if isinstance(name, tuple):
            route, attr = name
            out[name] = getattr(index.gather(route), attr)
        else:
            out[name] = getattr(index, name)
    return out


def table_posets(closed_peres24):
    posets = [("peres24", closed_peres24)]
    for seed in range(30):
        rng = np.random.default_rng([seed, 28])
        dim = int(rng.integers(2, 5))
        posets.append((f"random{seed}", random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)))
    return posets


def test_poset_tables_equal_the_per_call_expressions(closed_peres24):
    for name, poset in table_posets(closed_peres24):
        index = poset.index
        kept = kept_tables(index)
        for key, want in poset_table_oracles(index).items():
            got = kept[key]
            assert got.dtype == want.dtype and np.array_equal(got, want), (name, key)
            assert not got.flags.writeable, (name, key)
        for key in ("atom_counts", "square_start", "square_cell", "sub_null_cells"):
            assert kept[key].dtype == np.intp, (name, key)
        # every mask of every proper pair lifts to the union of its blocks
        first, lift = index.proper_lifts
        sub, sup, _ = index.proper_pairs
        assert lift.tolist() == [index_lift(index, i, j, m) for i, j in zip(sub.tolist(), sup.tolist())
                                 for m in range(1 << index.n_atoms[i])], name
        rng = np.random.default_rng(len(index.ids))
        for _ in range(5):
            s = [int(rng.integers(1 << n)) for n in index.n_atoms]
            assert np.array_equal(np.take(lift, first + np.array(s)[sub]),
                                  lifted_supports_oracle(index, s)), name


def test_two_valuations_of_one_poset_read_the_same_tables(closed_peres24):
    cases = [(closed_peres24, peres_states(closed_peres24)[2])]
    for seed in range(10):
        rng = np.random.default_rng([seed, 29])
        dim = int(rng.integers(2, 5))
        cases.append((random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim), random_density(rng, dim)))
    for poset, rho in cases:
        index = poset.index
        first = nu_rho(rho, poset)
        state_verdict(first)
        kept = kept_tables(index)
        lifts = index.proper_lifts
        state_verdict(nu_rho_r(rho, 0.6, poset))
        assert all(got is kept[key] for key, got in kept_tables(index).items())
        assert index.proper_lifts is lifts
        a = GlobalElementG(poset, dict(zip(poset.ids, (s or 0 for s in _supports(first)))), enforce=False)
        le = BUILTIN_RELATIONS["le"]
        survey_properties(a, le)
        squares = _relation_squares(index, le)
        assert _relation_squares(index, BUILTIN_SET_RELATIONS["subset"]) is squares
        survey_properties(a, BUILTIN_RELATIONS["eq"])
        assert _relation_squares(index, le) is squares


def test_poset_tables_are_built_on_first_use():
    # building the poset, the section search and the iso check build none
    # of a state verdict's tables; the first verdict builds them
    poset = build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True)
    global_section_search(poset)
    check_nat_iso(poset)
    index = poset.index
    names = {"atom_counts", "cell_down", "cell_full", "square_start", "square_cell",
             "sub_null_cells", "proper_lifts"}
    assert not names & set(vars(index)) and not index._squares
    state_verdict(nu_rho(random_density(np.random.default_rng(18), 4), poset))
    assert names - {"square_start", "square_cell", "sub_null_cells"} <= set(vars(index))


def test_a_pair_without_a_partition_map_raises_on_every_subobject_check():
    poset = ContextPoset(contexts={x: trivial_context(2, x) for x in "ab"},
                         order=frozenset({("a", "a"), ("b", "b"), ("a", "b")}), partition_maps={})
    alpha = from_table(poset, {(x, 1): frozenset(poset.down_set(x)) for x in "ab"})
    errors = []
    for _ in range(2):
        with pytest.raises(ContextError) as got:
            check_subobject_condition(alpha)
        errors.append(str(got.value))
        assert "proper_lifts" not in vars(poset.index)
    assert errors == ["'a' is not included in 'b'"] * 2


# --------------------------------------------------------------------------
# R laid out flat, the stages' squares end to end

def flat_relations(rng, poset):
    """The survey relations, the other built-ins, every set alias and a
    test-only relation without a grid."""
    return (survey_relations(rng, poset) + [BUILTIN_RELATIONS[name] for name in ("always-true", "always-false")]
            + list(BUILTIN_SET_RELATIONS.values()) + [Relation("hand", lambda cid, l, r: (l ^ r) % 3 == 0)])


def test_related_is_the_per_stage_concatenation(closed_peres24):
    posets = [("peres24", closed_peres24)]
    for seed in range(20):
        rng = np.random.default_rng([seed, 30])
        posets.append((f"random{seed}", random_poset(rng, max_contexts=6, max_atoms=4)))
    for name, poset in posets:
        index = poset.index
        rng = np.random.default_rng(len(index.ids))
        assignments = [[int(rng.integers(1 << n)) for n in index.n_atoms] for _ in range(4)]
        assignments.append([(1 << n) - 1 for n in index.n_atoms])
        for rel in flat_relations(rng, poset):
            tables = [rel.table(cid, n) for cid, n in zip(index.ids, index.n_atoms)]
            squares = _relation_squares(index, rel)
            assert squares.dtype == bool, (name, rel.name)
            assert np.array_equal(squares, np.concatenate([t.ravel() for t in tables])), (name, rel.name)
            for masks in assignments:
                assert np.array_equal(_related(squares, index, masks), related_oracle(tables, masks)), \
                    (name, rel.name)
        # only the relations whose tables depend on the atom count alone stay
        assert len(index._squares) == len(BUILTIN_RELATIONS), name


def test_random_relation_squares_are_its_draw(closed_peres24):
    posets = [closed_peres24] + [random_poset(np.random.default_rng([seed, 31]), max_contexts=6, max_atoms=4)
                                 for seed in range(10)]
    for k, poset in enumerate(posets):
        index = poset.index
        rng, oracle_rng = np.random.default_rng(k), np.random.default_rng(k)
        rel = random_relation(rng, poset)
        expected = random_relation_oracle(oracle_rng, poset)
        squares = _relation_squares(index, rel)
        assert squares is rel.grid.squares, k
        assert np.array_equal(squares, np.concatenate([expected[cid].ravel() for cid in index.ids])), k
        assert rng.random() == oracle_rng.random(), k
        assert all(kept is not squares for kept in index._squares.values()), k


@pytest.mark.parametrize("grid", [
    lambda n: np.full((1 << n, 1 << n), 0.25),
    lambda n: np.full((1 << n, 1 << n), np.nan),
    lambda n: np.ones((1 << n, 1 << n), dtype=np.int64),
    lambda n: np.ones((1 << n, 1 << n), dtype=np.uint8),
])
def test_a_grid_that_is_not_bool_is_refused(grid):
    poset = fix_a()
    index = poset.index
    first = index.ids[0]
    rel = Relation("odd", lambda cid, l, r: True, lambda cid, n: grid(n))
    dtype = np.asarray(grid(1)).dtype
    refused = f"relation 'odd' has a {dtype} table at {first!r}, not a bool one"
    a = GlobalElementG(poset, {cid: 1 for cid in poset.ids}, enforce=False)
    sigma = SubobjectSigma(poset, {cid: frozenset({0}) for cid in poset.ids}, enforce=False)
    for run in (lambda: _relation_squares(index, rel), lambda: survey_properties(a, rel),
                lambda: survey_properties_sigma(sigma, rel),
                lambda: rel.table(first, index.n_atoms[0])):
        with pytest.raises(ContextError) as got:
            run()
        assert str(got.value) == refused


def test_a_grid_of_another_shape_keeps_its_message():
    poset = fix_a()
    rel = Relation("short", lambda cid, l, r: True, lambda cid, n: np.ones((2, 2), dtype=bool))
    first = poset.index.ids[0]
    size = 1 << poset.index.n_atoms[0]
    with pytest.raises(ContextError) as got:
        _relation_squares(poset.index, rel)
    assert str(got.value) == f"relation 'short' has no {size} x {size} table at {first!r}"


def test_a_bool_grid_from_lists_is_accepted():
    poset = fix_a()
    rel = Relation("listed", lambda cid, l, r: l & r == l,
                   lambda cid, n: [[l & r == l for r in range(1 << n)] for l in range(1 << n)])
    a = GlobalElementG(poset, {cid: 1 for cid in poset.ids}, enforce=False)
    report = survey_properties(a, rel)
    assert report == survey_properties(a, replace(BUILTIN_RELATIONS["le"], name="listed"))


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
