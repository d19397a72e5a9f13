import itertools
import time

import numpy as np
import pytest

import toposval.ks
import toposval.linalg

from toposval.contexts import Context, ContextError, build_poset
from toposval.ks import (
    bundled_ks_poset,
    global_section_search,
    load_bundled_ks,
    section_verify,
    validate_rank_one_cover,
)
from toposval.linalg import Projector, projector_from_span
from toposval.sampling import context_from_basis, fix_a, random_poset, random_unitary
from toposval.tolerances import DEFAULT

from conftest import diag_proj
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
        assert validate_rank_one_cover(contexts) == _rank_one_cover_oracle(contexts)
    report = validate_rank_one_cover(planted)
    assert sum("rank 2" in p for p in report["problems"]) == 2
    assert sum("non-orthogonal" in p for p in report["problems"]) >= 2
    assert len(peres.maximal_ids()) == 24


def test_rank_one_cover_chunks_its_tables(monkeypatch):
    # at one pair or one row per chunk the report is the same
    contexts = _planted_cover() + load_bundled_ks()
    want = validate_rank_one_cover(contexts)
    monkeypatch.setattr(toposval.linalg, "CONTAINMENT_CHUNK", 1)
    assert validate_rank_one_cover(contexts) == want
