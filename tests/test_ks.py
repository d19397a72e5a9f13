import itertools
import time

import numpy as np
import pytest

import toposval.ks
import toposval.linalg

from toposval.contexts import Character, Context, ContextError, ContextPoset, build_poset, evaluate
from toposval.ks import (
    _evaluations,
    _first_value_mismatch,
    _levels,
    _search,
    bundled_ks_poset,
    global_section_search,
    load_bundled_ks,
    section_verify,
    validate_rank_one_cover,
)
from toposval.linalg import HermitianOperator, LinalgError, Projector, projector_from_span
from toposval.sampling import context_from_basis, fix_a, random_poset, random_unitary
from toposval.tolerances import DEFAULT

from conftest import diag_proj, flat_pair_row, restriction_oracle
from test_closure import _peres_subset


def test_single_context_section():
    poset = build_poset([Context("V", [diag_proj(1, 0), diag_proj(0, 1)])])
    verdict = global_section_search(poset)
    assert verdict["exists"]
    assert verdict["witness"] == {"V": 0}
    assert section_verify(poset, verdict["witness"])


def test_dim2_incomparable_bases():
    h = [projector_from_span([np.array([1, 1]) / np.sqrt(2)]),
         projector_from_span([np.array([1, -1]) / np.sqrt(2)])]
    d = [diag_proj(1, 0), diag_proj(0, 1)]
    poset = build_poset(
        [Context("Vdiag", d), Context("Vhad", h)],
        add_trivial=True, close_under_meets=True)
    verdict = global_section_search(poset)
    assert verdict["exists"]
    assert section_verify(poset, verdict["witness"])


def test_dim2_random_posets_always_have_sections():
    for seed in range(25):
        poset = random_poset(np.random.default_rng(seed), dim=2, max_contexts=6, max_atoms=2)
        verdict = global_section_search(poset)
        assert verdict["exists"], seed
        assert section_verify(poset, verdict["witness"])


def test_single_maximal_with_coarsenings(fixa):
    verdict = global_section_search(fixa)
    assert verdict["exists"]
    w = verdict["witness"]
    assert section_verify(fixa, w)
    # the section is the downward restriction of the maximal choice
    assert w["V1"] == 0 and w["V2"] == 0 and w["Vtriv"] == 0


def test_single_maximal_every_atom_choice_extends():
    rng = np.random.default_rng(11)
    basis = random_unitary(rng, 4)
    fine = context_from_basis(basis, [[0], [1], [2], [3]], "M")
    mid = context_from_basis(basis, [[0, 1], [2], [3]], "C1")
    coarse = context_from_basis(basis, [[0, 1], [2, 3]], "C2")
    poset = build_poset([fine, mid, coarse], add_trivial=True)
    verdict = global_section_search(poset)
    assert verdict["exists"]
    assert section_verify(poset, verdict["witness"])


def test_trivial_only_poset_section():
    poset = build_poset([], add_trivial=True, dim=3)
    assert section_verify(poset, {"Vtriv": 0})
    verdict = global_section_search(poset)
    assert verdict["exists"] and verdict["witness"] == {"Vtriv": 0}


def test_section_verify_rejects_swapped_atom(fixa):
    verdict = global_section_search(fixa)
    w = dict(verdict["witness"])
    w["V1"] = (w["V1"] + 1) % 3
    assert not section_verify(fixa, w)


def test_section_verification_uses_caller_tolerances(fixa):
    # a negative recon bound fails every value comparison, so the witness
    # check can only pass if it still uses the default
    strict = DEFAULT.overridden(recon=-1.0)
    witness = global_section_search(fixa)["witness"]
    assert section_verify(fixa, witness)
    assert not section_verify(fixa, witness, strict)
    with pytest.raises(RuntimeError, match="fails verification"):
        global_section_search(fixa, tol=strict)


def test_bundled_fixture_validates():
    contexts = load_bundled_ks()
    assert len(contexts) == 9
    report = validate_rank_one_cover(contexts)
    assert report["ok"]
    assert report["rayCount"] == 18
    assert report["rayContextCounts"] == [2] * 18
    assert report["allCountsEven"]
    assert report["parityObstruction"]


def test_fixture_validation_rejects_bad_rank():
    bad = Context("X", [diag_proj(1, 1, 0, 0), diag_proj(0, 0, 1, 0), diag_proj(0, 0, 0, 1)])
    report = validate_rank_one_cover([bad])
    assert not report["ok"]


def test_ks_obstruction_within_budget():
    t0 = time.time()
    poset = bundled_ks_poset()
    verdict = global_section_search(poset)
    elapsed = time.time() - t0
    assert not verdict["exists"]
    assert verdict["witness"] is None
    assert verdict["nodesExplored"] > 0
    assert elapsed < 2.0, f"search took {elapsed:.2f}s"


def test_ks_verdict_invariant_under_permutation():
    contexts = load_bundled_ks()
    rng = np.random.default_rng(5)
    order = list(rng.permutation(len(contexts)))
    shuffled = [contexts[i] for i in order]
    poset = build_poset(shuffled, add_trivial=True, close_under_meets=True)
    verdict = global_section_search(poset)
    assert not verdict["exists"]


def test_ks_without_meets_is_unconstrained():
    # the nine bases alone share no subcontexts: choices are independent
    contexts = load_bundled_ks()
    poset = build_poset(contexts, add_trivial=True, close_under_meets=False)
    verdict = global_section_search(poset)
    assert verdict["exists"]
    assert section_verify(poset, verdict["witness"])


def test_ks_full_enumeration_oracle():
    # count all 4^9 maximal assignments satisfying the meet constraints by
    # tensor contraction, independently of the backtracker: must be zero
    poset = bundled_ks_poset()
    maximal = poset.maximal_ids()
    index = {m: i for i, m in enumerate(maximal)}
    sizes = [poset.context(m).n_atoms for m in maximal]
    consistent = np.ones(sizes, dtype=bool)
    n_constraints = 0
    for meet in poset.ids:
        if meet in index or poset.context(meet).n_atoms == 1:
            continue
        parents = [m for m in maximal if poset.leq(meet, m)]
        for a, b in [(x, y) for i, x in enumerate(parents) for y in parents[i + 1:]]:
            na, nb = poset.context(a).n_atoms, poset.context(b).n_atoms
            table = np.zeros((na, nb), dtype=bool)
            pa = poset.partition_map(meet, a)
            pb = poset.partition_map(meet, b)
            for ia in range(na):
                ra = next(j for j, blk in enumerate(pa) if blk >> ia & 1)
                for ib in range(nb):
                    rb = next(j for j, blk in enumerate(pb) if blk >> ib & 1)
                    table[ia, ib] = ra == rb
            shape = [1] * len(maximal)
            shape[index[a]] = na
            shape[index[b]] = nb
            order = np.moveaxis(
                table.reshape(na, nb, *[1] * (len(maximal) - 2)),
                (0, 1), (index[a], index[b]))
            consistent &= order
            n_constraints += 1
    assert n_constraints == 18
    assert consistent.size == 4 ** 9
    assert int(consistent.sum()) == 0


def test_ks_rotated_fixture_still_obstructed():
    # conjugating every basis by one unitary moves the fixture off the
    # rational grid without changing its structure
    rng = np.random.default_rng(77)
    u = random_unitary(rng, 4)
    rotated = []
    for c in load_bundled_ks():
        atoms = [Projector(u @ a.entries @ u.conj().T) for a in c.atoms]
        rotated.append(Context(c.id, atoms))
    report = validate_rank_one_cover(rotated)
    assert report["ok"] and report["parityObstruction"]
    poset = build_poset(rotated, add_trivial=True, close_under_meets=True)
    assert len(poset.ids) == 28
    verdict = global_section_search(poset)
    assert not verdict["exists"]


def test_search_raises_on_a_partition_map_that_misses_an_atom(monkeypatch):
    # V2's map loses atom 0 of V1, the first atom the search tries; the
    # search itself must raise, before any witness reaches section_verify
    poset = fix_a()
    poset.partition_maps[("V2", "V1")] = (0b010, 0b100)
    verified = []
    monkeypatch.setattr(toposval.ks, "section_verify", lambda *args: verified.append(args))
    with pytest.raises(ContextError, match="does not cover"):
        global_section_search(poset)
    assert verified == []


def test_search_rejects_a_partition_map_with_more_blocks_than_atoms():
    # V2 has two atoms; a third block owning V1's atoms has no cell to pin
    poset = fix_a()
    poset.partition_maps[("V2", "V1")] = (0b000, 0b000, 0b111)
    with pytest.raises(ContextError, match="block past the 2 atoms of 'V2'"):
        global_section_search(poset)


def _rank_one_cover_oracle(contexts, tol=DEFAULT):
    """`validate_rank_one_cover` one atom pair and one ray at a time."""
    report = {"ok": True, "problems": []}
    for c in contexts:
        for a in c.atoms:
            if a.rank != 1:
                report["ok"] = False
                report["problems"].append(f"context {c.id!r} has an atom of rank {a.rank}")
        for a, b in itertools.combinations(c.atoms, 2):
            if np.max(np.abs(a.entries @ b.entries)) > tol.ortho_fixture:
                report["ok"] = False
                report["problems"].append(f"context {c.id!r} has non-orthogonal atoms")
    rays = []   # first matrix, count
    for c in contexts:
        for a in c.atoms:
            for i, (m, n) in enumerate(rays):
                if np.max(np.abs(m - a.entries)) < tol.ortho_fixture:
                    rays[i] = (m, n + 1)
                    break
            else:
                rays.append((a.entries, 1))
    counts = sorted(n for _, n in rays)
    report.update(rayCount=len(rays), contextCount=len(contexts), rayContextCounts=counts,
                  allCountsEven=all(n % 2 == 0 for n in counts))
    report["parityObstruction"] = report["allCountsEven"] and len(contexts) % 2 == 1
    return report


def _rank_one_cover_rows(contexts, tol=DEFAULT):
    """The ray counts of `validate_rank_one_cover` by a row loop over the
    all-pairs table of max|P - Q|: each atom, in order, joins the first
    ray whose first atom its row marks near, or starts one."""
    stack = np.array([a.entries for c in contexts for a in c.atoms])
    if not len(stack):
        return []
    close = (np.abs(stack[:, np.newaxis] - stack).max(axis=(2, 3)) < tol.ortho_fixture).tolist()
    firsts, counts = [], []
    for k, row in enumerate(close):
        ray = next((r for r, f in enumerate(firsts) if row[f]), None)
        if ray is None:
            firsts.append(k)
            counts.append(1)
        else:
            counts[ray] += 1
    return sorted(counts)


def _planted_cover():
    """Dimension-4 contexts at a loose atom tolerance: a rank-2 atom, rays
    2e-6 from orthogonal, and copies of rays moved by 3e-11 and by 3e-10,
    inside and outside the fixture tolerance."""
    loose = DEFAULT.overridden(atom=1e-4, proj_idem=1e-4)
    rng = np.random.default_rng(17)
    u = random_unitary(rng, 4)
    out = []
    for k, (turn, move) in enumerate(((0.0, 0.0), (2e-6, 0.0), (0.0, 3e-11), (2e-6, 3e-10), (0.0, 3e-10))):
        c, s = np.cos(turn), np.sin(turn)
        w = u.copy()
        w[:, 1] = c * u[:, 1] + s * u[:, 0]
        w[:, 0] += move * rng.normal(size=4)
        atoms = [Projector(np.outer(w[:, i], w[:, i].conj()) / np.vdot(w[:, i], w[:, i]).real, tol=loose)
                 for i in range(4)]
        if k % 2:
            atoms[2:] = [Projector(atoms[2].entries + atoms[3].entries, tol=loose)]
        out.append(Context(f"K{k}", atoms[::-1] if k == 4 else atoms, tol=loose))
    return out


def test_rank_one_cover_matches_the_pairwise_oracle():
    peres = build_poset(_peres_subset(24, 24), add_trivial=True, close_under_meets=True)
    planted = _planted_cover()
    cases = [load_bundled_ks(), [peres.context(cid) for cid in peres.maximal_ids()], planted,
             planted[::-1], planted[:1], []]
    for contexts in cases:
        report = validate_rank_one_cover(contexts)
        assert report == _rank_one_cover_oracle(contexts)
        assert report["rayContextCounts"] == _rank_one_cover_rows(contexts)
    report = validate_rank_one_cover(planted)
    assert sum("rank 2" in p for p in report["problems"]) == 2
    assert sum("non-orthogonal" in p for p in report["problems"]) >= 2
    assert len(peres.maximal_ids()) == 24


def test_ray_grouping_matches_the_row_loop_on_chains_of_near_rays():
    # rays a step apart, nearer than the fixture tolerance to the next one
    # but not to the one after: nearness is not transitive, so each ray's
    # members depend on which atom starts it, in every order of the atoms
    tol = DEFAULT.overridden(ortho_fixture=1e-3)
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 3)
    for step in (4e-4, 6e-4, 9e-4):
        rays = []
        for k in range(6):
            v = u @ np.array([np.cos(k * step), np.sin(k * step), 0.0])
            w = u @ np.array([-np.sin(k * step), np.cos(k * step), 0.0])
            rays.append(Context(f"C{k}", [Projector(np.outer(v, v.conj())), Projector(np.outer(w, w.conj())),
                                          Projector(np.outer(u[:, 2], u[:, 2].conj()))]))
        for trial in range(8):
            contexts = [rays[int(i)] for i in rng.permutation(len(rays))]
            report = validate_rank_one_cover(contexts, tol)
            assert report["rayContextCounts"] == _rank_one_cover_rows(contexts, tol), (step, trial)
            assert report == _rank_one_cover_oracle(contexts, tol)


def test_rank_one_cover_chunks_its_tables(monkeypatch):
    # at one pair or one row per chunk the report is the same
    contexts = _planted_cover() + load_bundled_ks()
    want = validate_rank_one_cover(contexts)
    monkeypatch.setattr(toposval.linalg, "CONTAINMENT_CHUNK", 1)
    assert validate_rank_one_cover(contexts) == want


# --------------------------------------------------------------------------
# the bitmask search and the batched value check against their oracles

def _dict_search(poset, maximal):
    """The search as it once ran: a dict of pinned contexts, filled by
    walking each maximal choice's restriction maps (the one-pair oracle's)
    down the poset and undone on conflict."""
    if not poset.ids:
        return {"exists": True, "witness": {}, "nodesExplored": 0}
    index = poset.index
    below = {m: tuple((sub, None if sub == m else restriction_oracle(index, *index.pair(sub, m)))
                      for sub in poset.down_set(m))
             for m in maximal}
    nodes = 0
    assignment = {}

    def assign(m, atom):
        new = []
        for sub, owner in below[m]:
            j = atom if owner is None else owner[atom]
            if j is None:
                raise ContextError("partition map does not cover the atom")
            if sub in assignment:
                if assignment[sub] != j:
                    for cid in new:
                        del assignment[cid]
                    return None
            else:
                assignment[sub] = j
                new.append(sub)
        return new

    def backtrack(i):
        nonlocal nodes
        if i == len(maximal):
            return True
        m = maximal[i]
        for atom in range(poset.context(m).n_atoms):
            nodes += 1
            new = assign(m, atom)
            if new is None:
                continue
            if backtrack(i + 1):
                return True
            for cid in new:
                del assignment[cid]
        return False

    if not backtrack(0):
        return {"exists": False, "witness": None, "nodesExplored": nodes}
    return {"exists": True, "witness": dict(sorted(assignment.items())), "nodesExplored": nodes}


def _bitmask_search(poset, maximal):
    index = poset.index
    return _search(index, _levels(index, [index.pos[m] for m in maximal]))


def _seeded_posets():
    """Closed random Peres subsets, the 18-ray set (closed, rotated, and
    without meets) and random posets on seeded unitaries."""
    rng = np.random.default_rng(2024)
    for k, size in enumerate((4, 6, 9, 12, 16, 20)):
        yield f"peres{size}", build_poset(_peres_subset(k + 40, size), add_trivial=True,
                                          close_under_meets=True)
    yield "ray18", bundled_ks_poset()
    u = random_unitary(rng, 4)
    rotated = [Context(c.id, [Projector(u @ a.entries @ u.conj().T) for a in c.atoms])
               for c in load_bundled_ks()]
    yield "ray18-rotated", build_poset(rotated, add_trivial=True, close_under_meets=True)
    yield "ray18-open", build_poset(load_bundled_ks(), add_trivial=True)
    for seed in range(12):
        yield f"random{seed}", random_poset(np.random.default_rng([seed, 7]), max_contexts=8, max_atoms=4)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ContextError, LinalgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_bitmask_search_matches_the_dict_search():
    verdicts = set()
    for name, poset in _seeded_posets():
        maximal = poset.maximal_ids()
        for order in (maximal, maximal[::-1]):
            got = _bitmask_search(poset, order)
            assert got == _dict_search(poset, order), name
            verdicts.add(got["exists"])
    assert verdicts == {True, False}


def test_bitmask_search_raises_where_the_dict_search_raises():
    # a bit cleared from one block of a map into a maximal context leaves
    # that atom uncovered: the dict search raises when it reaches it, or
    # never does when an earlier context conflicts or a witness comes first.
    # A maximal context's own map is never read: its atom stays itself
    seen = set()
    for size in (6, 10, 13, 16):
        base = build_poset(_peres_subset(size, size), add_trivial=True, close_under_meets=True)
        maximal = base.maximal_ids()
        into_maximal = [p for p in base.pairs() if p[1] in maximal]
        for seed in range(12):
            rng = np.random.default_rng([size, seed])
            sub, sup = into_maximal[rng.integers(len(into_maximal))]
            pmap = list(base.partition_map(sub, sup))
            j = int(rng.integers(len(pmap)))
            pmap[j] &= ~(1 << int(rng.choice([b for b in range(4) if pmap[j] >> b & 1])))
            maps = {**base.partition_maps, (sub, sup): tuple(pmap)}
            broken = ContextPoset(contexts=base.contexts, order=base.order, partition_maps=maps)
            for order in (maximal, maximal[::-1]):
                got = _outcome(_bitmask_search, broken, order)
                assert got == _outcome(_dict_search, broken, order), (size, seed)
                seen.add(got if isinstance(got, str) else got["exists"])
    assert seen == {"ContextError: partition map does not cover the atom", True, False}


def test_pair_rows_of_an_uncovering_map_read_the_flat_tables():
    # the same hand-broken maps: the broken pair's restriction row names no
    # owner for the uncovered atom and its image row raises, on every call;
    # every other row is the flat tables' slice
    for size in (6, 10):
        base = build_poset(_peres_subset(size, size), add_trivial=True, close_under_meets=True)
        maximal = base.maximal_ids()
        into_maximal = [p for p in base.pairs() if p[1] in maximal]
        for seed in range(4):
            rng = np.random.default_rng([size, seed])
            sub, sup = into_maximal[rng.integers(len(into_maximal))]
            pmap = list(base.partition_map(sub, sup))
            j = int(rng.integers(len(pmap)))
            pmap[j] &= ~(1 << int(rng.choice([b for b in range(4) if pmap[j] >> b & 1])))
            maps = {**base.partition_maps, (sub, sup): tuple(pmap)}
            index = ContextPoset(contexts=base.contexts, order=base.order, partition_maps=maps).index
            broken = index.pair(sub, sup)
            for k, l in index.pair_indices:
                assert index.coarse(k, l) == tuple(flat_pair_row(index, "coarse", k, l))
                assert index.restriction(k, l) == restriction_oracle(index, k, l)
                if (k, l) != broken:
                    assert index.image(k, l) == tuple(flat_pair_row(index, "image", k, l))
            assert None in index.restriction(*broken)
            for _ in range(2):
                with pytest.raises(ContextError, match="partition map does not cover the atom"):
                    index.image(*broken)


def _value_mismatch_oracle(poset, assignment, pairs, tol=DEFAULT):
    """The value half of `section_verify` one pair at a time, through
    `evaluate`: the first pair whose values differ, or None."""
    for sub, sup in pairs:
        v_sub = poset.context(sub)
        gen = sum((j + 2) * a.entries for j, a in enumerate(v_sub.atoms))
        op = HermitianOperator(gen, tol=tol)
        at_sup = evaluate(poset.context(sup), Character(sup, assignment[sup]), op, tol)
        at_sub = evaluate(v_sub, Character(sub, assignment[sub]), op, tol)
        if abs(at_sup - at_sub) > tol.recon:
            return (sub, sup)
    return None


def test_batched_evaluations_are_bit_equal_to_evaluate():
    rows = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, 31])
        poset = random_poset(rng, dim=int(rng.integers(2, 11)), max_contexts=6, max_atoms=6)
        groups = [(cid, sub) for sub, sup in poset.pairs(proper_only=True) for cid in (sub, sup)]
        gens = {sub: sum((j + 2) * a.entries for j, a in enumerate(poset.context(sub).atoms))
                for _, sub in groups}
        first, c, defect = _evaluations(poset.contexts, groups, gens)
        for g, (cid, sub) in enumerate(groups):
            op = HermitianOperator(gens[sub])
            for i, atom in enumerate(poset.context(cid).atoms):
                want = evaluate(poset.context(cid), Character(cid, i), op)
                assert c[first[g] + i] == want
                assert defect[first[g] + i] == np.max(np.abs(atom.entries @ op.entries - want * atom.entries))
                rows += 1
    assert rows > 500


def test_batched_section_verify_matches_per_pair_evaluate():
    # valid witnesses pass both; witnesses with some contexts moved to
    # another atom fail the value check at the same first pair
    failed = 0
    for name, poset in _seeded_posets():
        verdict = global_section_search(poset)
        if not verdict["exists"]:
            continue
        witness = verdict["witness"]
        pairs = poset.pairs(proper_only=True)
        assert section_verify(poset, witness)
        assert _first_value_mismatch(poset, witness, pairs, DEFAULT) is None
        assert _value_mismatch_oracle(poset, witness, pairs) is None
        rng = np.random.default_rng(len(pairs))
        for _ in range(6):
            moved = dict(witness)
            for cid in rng.choice(poset.ids, size=min(3, len(poset.ids)), replace=False).tolist():
                moved[cid] = int(rng.integers(poset.context(cid).n_atoms))
            got = _first_value_mismatch(poset, moved, pairs, DEFAULT)
            assert got == _value_mismatch_oracle(poset, moved, pairs), name
            failed += got is not None
    assert failed > 20


def test_batched_value_check_spans_contexts_of_two_dimensions():
    # fix_a (dimension 3) beside a dimension-2 context and its trivial one
    a = fix_a()
    contexts = {**a.contexts, "W": Context("W", [diag_proj(1, 0), diag_proj(0, 1)]),
                "Wtriv": Context("Wtriv", [diag_proj(1, 1)])}
    order = set(a.order) | {("W", "W"), ("Wtriv", "Wtriv"), ("Wtriv", "W")}
    maps = {**a.partition_maps, ("W", "W"): (1, 2), ("Wtriv", "Wtriv"): (1,), ("Wtriv", "W"): (3,)}
    poset = ContextPoset(contexts=contexts, order=frozenset(order), partition_maps=maps)
    pairs = poset.pairs(proper_only=True)
    witness = {"V1": 0, "V2": 0, "Vtriv": 0, "W": 1, "Wtriv": 0}
    assert section_verify(poset, witness)
    for moved in ({}, {"V1": 2}, {"W": 0}, {"V2": 1, "W": 0}):
        assignment = {**witness, **moved}
        got = _first_value_mismatch(poset, assignment, pairs, DEFAULT)
        assert got == _value_mismatch_oracle(poset, assignment, pairs)
    assert _first_value_mismatch(poset, {**witness, "V1": 2}, pairs, DEFAULT) == ("V2", "V1")


def test_section_verify_raises_the_first_error_in_pair_order():
    h = [projector_from_span([np.array([1, 1]) / np.sqrt(2)]),
         projector_from_span([np.array([1, -1]) / np.sqrt(2)])]
    contexts = {"A": Context("A", [diag_proj(1, 0), diag_proj(0, 1)]),
                "A2": Context("A2", [diag_proj(1, 0), diag_proj(0, 1)]),
                "B": Context("B", h),
                "D": Context("D", [diag_proj(1, 0, 0), diag_proj(0, 1, 1)])}
    # maps that claim A below A2 (true), below B (A's generator is not in
    # B's algebra) and below D (another dimension)
    order = {(x, x) for x in contexts} | {("A", "A2"), ("A", "B"), ("A", "D")}
    maps = {(x, y): (1, 2) for x, y in order}
    poset = ContextPoset(contexts=contexts, order=frozenset(order), partition_maps=maps)
    pairs = poset.pairs(proper_only=True)
    assert pairs == [("A", "A2"), ("A", "B"), ("A", "D")]
    cases = [({"A": 0, "A2": 1, "B": 0, "D": 0}, pairs, ("A", "A2")),
             ({"A": 0, "A2": 0, "B": 0, "D": 0}, pairs,
              "ContextError: operator is not in the context's algebra"),
             ({"A": 0, "A2": 0, "B": 0, "D": 0}, [pairs[0], pairs[2]], "ContextError: dimension mismatch")]
    for assignment, walk, want in cases:
        got = _outcome(_first_value_mismatch, poset, assignment, walk, DEFAULT)
        assert got == _outcome(_value_mismatch_oracle, poset, assignment, walk) == want
    # a generator that fails the Hermitian check raises before its pair's values
    strict = DEFAULT.overridden(herm=-1.0)
    got = _outcome(_first_value_mismatch, poset, {"A": 0, "A2": 1, "B": 0, "D": 0}, pairs, strict)
    assert got == _outcome(_value_mismatch_oracle, poset, {"A": 0, "A2": 1, "B": 0, "D": 0}, pairs, strict)
    assert got == "LinalgError: matrix is not Hermitian within tolerance"
