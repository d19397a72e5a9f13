"""Differential tests for meet closure and the partial-order check.

`build_poset` closes under meets with the component rule on per-atom link
blocks, each bit proven from the overlap trace or taken from a gathered
product, lattice elements interned by trace bucket and a pair worklist,
meeting the pairs that one batched reachability step finds disconnected in
one batched pass per round; it takes partition maps from a trace screen in
row blocks that drops pairs with an in-band overlap while its guard holds
and takes them again otherwise, confirms them in one batch for the pass,
orders atoms by one lexsort of rounded keys, builds lattice projectors in
batches, and checks the order on int-bitmask down-sets.  Kept here as
oracles: the enumerating meet; the per-pair component walk `_meet_masks`,
on a float link matrix of its own; the per-pair
`_partition_map`/`member_mask` and trace screen; the drop guard's delta
taken atom by atom; interning by a scan of every stored projector; the
eager rounded-tuple atom key and the comparator
(`conftest.canonical_order_oracle`); lattice projectors built one request
at a time; the rescan-every-pair closure with two-way `inclusion` duplicate
tests and all-pairs partition maps; and the triple-loop order check.
"""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import toposval.contexts
from conftest import PairStore, _union, canonical_order_oracle, store_connected, store_intern
from toposval.contexts import (
    Context,
    ContextPoset,
    _canonical_permutation,
    _check_partial_order,
    _ContextStore,
    build_poset,
    inclusion,
    lattice_projectors,
    trivial_context,
)
from toposval.index import ContextError, bit_list
from toposval.ks import load_bundled_ks
from toposval.linalg import LinalgError, Projector
from toposval.sampling import (
    context_from_basis,
    random_partition,
    random_poset,
    random_unitary,
)
from toposval.tolerances import DEFAULT


def _meet_enumerate(a, b, tol=DEFAULT):
    """Minimal non-zero common lattice elements, as masks over a's atoms,
    found by testing all 2^n masks of a for membership in b."""
    common = [m for m in range(1, 1 << a.n_atoms)
              if b.member_mask(a.projector(m), tol) is not None]
    return [m for m in common if not any(o != m and o & m == o for o in common)]


def _stack(c):
    return np.stack([a.entries for a in c.atoms])


def _meet_masks(b_of, a_of, sa, sb, tol):
    """The per-pair component walk: atoms of the intersection of two
    contexts' algebras, as increasing masks over the first context's atoms,
    given stacked atom entries and their link matrix as bitsets (b_of[i]
    holds the b_j linked to a_i and a_of[j] the a_i linked to b_j).  A
    component whose a-sum equals its b-sum within `tol.atom` is an atom, the
    last one untested unless an earlier one failed; all other components
    together form one more."""
    masks = []
    rest = 0
    free = (1 << len(sa)) - 1
    while free:
        in_a = free & -free
        while True:
            in_b = _union(b_of, in_a)
            grown = in_a | _union(a_of, in_b)
            if grown == in_a:
                break
            in_a = grown
        free &= ~in_a
        if not free and not rest:
            masks.append(in_a)   # the last component is an atom either way
        elif np.max(np.abs(sa[bit_list(in_a)].sum(axis=0) - sb[bit_list(in_b)].sum(axis=0))) < tol.atom:
            masks.append(in_a)
        else:
            rest |= in_a
    if rest:
        masks.append(rest)
    return sorted(masks)


def _meet_masks_pairwise(sa, sb, tol):
    """The component rule on a float link matrix of its own, built per
    context pair as the meet did before link bitsets."""
    link = (np.abs(sa[:, None] @ sb[None]).max(axis=(2, 3)) >= tol.atom).tolist()
    b_of = [sum(1 << j for j, x in enumerate(row) if x) for row in link]
    a_of = [sum(1 << i for i, row in enumerate(link) if row[j]) for j in range(len(sb))]
    return _meet_masks(b_of, a_of, sa, sb, tol)


def _partition_map(v2, v1, tol):
    """For v2 <= v1, the mask over v1's atoms composing each atom of v2,
    one `member_mask` per atom; None when some atom is not in v1's lattice."""
    maps = []
    for a2 in v2.atoms:
        mask = v1.member_mask(a2, tol)
        if mask is None:
            return None
        maps.append(mask)
    return tuple(maps)


def _canonical_key(p):
    """The eager sort key: every entry's parts, numpy scalars, rounded to
    9 decimals."""
    flat = p.entries.reshape(-1)
    return tuple(
        x for z in flat for x in (-round(z.real, 9) - 0.0, -round(z.imag, 9) - 0.0)
    )


def _store_meet(a, b, tol=DEFAULT):
    """The store's meet of two contexts, or None when b merges onto a."""
    store = PairStore(tol)
    store.add_many([a])
    store.add_many([b])
    return store.meet(0, 1) if len(store.ctxs) == 2 else None


def _check_partial_order_triples(poset):
    ids = poset.ids
    for x in ids:
        if not poset.leq(x, x):
            raise ContextError("inclusion is not reflexive")
    for x, y in itertools.combinations(ids, 2):
        if poset.leq(x, y) and poset.leq(y, x):
            raise ContextError(f"distinct contexts {x!r}, {y!r} are mutually included")
    for x in ids:
        for y in ids:
            for z in ids:
                if poset.leq(x, y) and poset.leq(y, z) and not poset.leq(x, z):
                    raise ContextError("inclusion is not transitive")


def _build_poset_reference(contexts, add_trivial=False, close_under_meets=False, tol=DEFAULT):
    """Rescan every pair each round, detect duplicates by mutual inclusion,
    and try a partition map on every ordered pair."""
    def same(c, d):
        return inclusion(c, d, tol) and inclusion(d, c, tol)

    ctxs = []
    for c in contexts:
        if not any(same(c, d) for d in ctxs):
            ctxs.append(c)
    if add_trivial and not any(c.n_atoms == 1 for c in ctxs):
        ctxs.append(trivial_context(contexts[0].dim))
    made = close_under_meets
    while made:
        made = False
        for a, b in itertools.combinations(list(ctxs), 2):
            minimal = _meet_enumerate(a, b, tol)
            if len(minimal) <= 1:
                continue
            m = Context("meet", [a.projector(x) for x in minimal], tol=tol)
            if not any(same(m, d) for d in ctxs):
                ctxs.append(Context(f"meet({a.id},{b.id})", m.atoms, tol=tol))
                made = True
    order, pmaps = set(), {}
    for a in ctxs:
        for b in ctxs:
            pm = _partition_map(a, b, tol)
            if pm is not None:
                order.add((a.id, b.id))
                pmaps[(a.id, b.id)] = pm
    poset = ContextPoset(contexts={c.id: c for c in ctxs}, order=frozenset(order),
                         partition_maps=pmaps)
    _check_partial_order_triples(poset)
    return poset


def _assert_same_poset(got, want):
    assert got.ids == want.ids
    assert got.order == want.order
    assert list(got.partition_maps.items()) == list(want.partition_maps.items())
    for cid in want.ids:
        g, w = got.context(cid).atoms, want.context(cid).atoms
        assert len(g) == len(w)
        for p, q in zip(g, w):
            assert np.array_equal(p.entries, q.entries), cid


def _refinement(rng, blocks):
    out = []
    for block in blocks:
        for part in random_partition(rng, len(block)):
            out.append(sorted(block[i] for i in part))
    return out


def _random_meet_pair(rng, kind):
    """Two contexts in dimension 2-6.  Kind 0: independent bases; 1: one
    basis, two partitions; 2: bases differing inside the blocks of a shared
    coarsening, each partition refining it; 3: bases sharing the columns
    outside a rotated subset, free partitions."""
    dim = int(rng.integers(2, 7))
    u = random_unitary(rng, dim)
    pa = random_partition(rng, dim)
    pb = random_partition(rng, dim)
    if kind == 0:
        v = random_unitary(rng, dim)
    elif kind == 1:
        v = u
    elif kind == 2:
        shared = random_partition(rng, dim)
        v = u.copy()
        for block in shared:
            v[:, block] = u[:, block] @ random_unitary(rng, len(block))
        pa, pb = _refinement(rng, shared), _refinement(rng, shared)
    else:
        moved = sorted(int(i) for i in rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                                                  replace=False))
        v = u.copy()
        v[:, moved] = u[:, moved] @ random_unitary(rng, len(moved))
    return context_from_basis(u, pa, "A"), context_from_basis(v, pb, "B")


def test_meet_component_rule_matches_enumeration():
    rng = np.random.default_rng(2024)
    nontrivial = coarse_atoms = stored = 0
    for n in range(520):
        a, b = _random_meet_pair(rng, n % 4)
        want = _meet_enumerate(a, b)
        assert _meet_masks_pairwise(_stack(a), _stack(b), DEFAULT) == want, n
        got = _store_meet(a, b)
        if got is not None:
            stored += 1
            assert got == want, n
        if len(want) > 1:
            nontrivial += 1
            coarse_atoms += any(a.projector(m).rank > 1 for m in want)
    assert nontrivial >= 120 and coarse_atoms >= 80, (nontrivial, coarse_atoms)
    assert stored >= 400, stored


def test_meet_merges_components_split_below_tolerance():
    # w1, w2 turn v1, v2 by 1.5e-8 inside their plane: max|v1 w2| stays
    # below tol.atom, so v1-w1 and v2-w2 are separate components, but each
    # pair differs by more than tol.atom; only their union is common
    v1 = np.array([1, 1, 1, 0]) / np.sqrt(3)
    v2 = np.array([1, -1, 0, 0]) / np.sqrt(2)
    v3 = np.array([1, 1, -2, 0]) / np.sqrt(6)
    e4 = np.array([0, 0, 0, 1.0])
    c, s = np.cos(1.5e-8), np.sin(1.5e-8)
    w1, w2 = c * v1 + s * v2, c * v2 - s * v1
    a = Context("A", [Projector(np.outer(v, v)) for v in (v1, v2, v3, e4)])
    b = Context("B", [Projector(np.outer(v, v)) for v in (w1, w2, v3, e4)])
    assert np.max(np.abs(np.outer(v1, v1) @ np.outer(w2, w2))) < DEFAULT.atom
    assert np.max(np.abs(np.outer(v1, v1) - np.outer(w1, w1))) > DEFAULT.atom
    masks = _store_meet(a, b)
    assert masks == _meet_enumerate(a, b) == _meet_masks_pairwise(_stack(a), _stack(b), DEFAULT)
    assert sorted(a.projector(m).rank for m in masks) == [1, 1, 2]


def test_meet_masks_trivial_and_identical():
    a, _ = _random_meet_pair(np.random.default_rng(5), 1)
    assert _meet_masks_pairwise(_stack(a), _stack(a), DEFAULT) == [1 << i for i in range(a.n_atoms)]
    assert _store_meet(a, Context("copy", a.atoms)) is None   # the store never meets a copy
    triv = trivial_context(a.dim)
    assert _store_meet(a, triv) == _meet_masks_pairwise(_stack(a), _stack(triv), DEFAULT) == [a.full_mask]
    assert _store_meet(triv, a) == _meet_masks_pairwise(_stack(triv), _stack(a), DEFAULT) == [1]


def _rank_one_contexts(bases, u, tag):
    out = []
    for k, basis in enumerate(bases):
        atoms = []
        for ray in basis:
            v = u @ (np.asarray(ray, dtype=float) / np.linalg.norm(ray))
            atoms.append(Projector(np.outer(v, v.conj())))
        out.append(Context(f"{tag}{k}", atoms))
    return out


def _peres_bases():
    """The 24 orthogonal bases of Peres' 24 rays in dimension 4."""
    rays = set()
    for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for signs in itertools.product((1, -1), repeat=4):
            for ray in itertools.permutations([s * x for s, x in zip(signs, pattern)]):
                lead = next(x for x in ray if x)
                rays.add(tuple(x * lead for x in ray))
    bases = [quad for quad in itertools.combinations(sorted(rays), 4)
             if all(np.dot(p, q) == 0 for p, q in itertools.combinations(quad, 2))]
    assert len(rays) == 24 and len(bases) == 24
    return bases


def test_build_poset_matches_reference_on_rotated_ks18():
    u = random_unitary(np.random.default_rng(77), 4)
    rotated = [Context(c.id, [Projector(u @ a.entries @ u.conj().T) for a in c.atoms])
               for c in load_bundled_ks()]
    got = build_poset(rotated, add_trivial=True, close_under_meets=True)
    assert len(got.ids) == 28
    _assert_same_poset(got, _build_poset_reference(rotated, add_trivial=True,
                                                   close_under_meets=True))


@pytest.mark.parametrize("seed,size", [(1, 4), (2, 7), (3, 10)])
def test_build_poset_matches_reference_on_peres_subsets(seed, size):
    rng = np.random.default_rng(seed)
    bases = _peres_bases()
    chosen = [bases[int(i)] for i in rng.choice(len(bases), size=size, replace=False)]
    contexts = _rank_one_contexts(chosen, random_unitary(rng, 4), "P")
    contexts.append(contexts[0])   # a repeated input merges onto the first id
    got = build_poset(contexts, add_trivial=True, close_under_meets=True)
    assert any(cid.startswith("meet") for cid in got.ids)
    _assert_same_poset(got, _build_poset_reference(contexts, add_trivial=True,
                                                   close_under_meets=True))


def _random_family(seed):
    """Four contexts in dimension 2-5: two refining a shared coarsening of
    bases that differ inside its blocks, one more partition of the first
    basis, and an unrelated one."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    u = random_unitary(rng, dim)
    shared = random_partition(rng, dim)
    v = u.copy()
    for block in shared:
        v[:, block] = u[:, block] @ random_unitary(rng, len(block))
    return [
        context_from_basis(u, _refinement(rng, shared), "C0"),
        context_from_basis(v, _refinement(rng, shared), "C1"),
        context_from_basis(u, random_partition(rng, dim), "C2"),
        context_from_basis(random_unitary(rng, dim), random_partition(rng, dim), "C3"),
    ]


def test_build_poset_matches_reference_on_random_families():
    for seed in range(40):
        contexts = _random_family(seed)
        for close in (False, True):
            got = build_poset(contexts, add_trivial=True, close_under_meets=close)
            _assert_same_poset(got, _build_poset_reference(contexts, add_trivial=True,
                                                           close_under_meets=close))


class _PairwiseStore(_ContextStore):
    """The store meeting each disconnected pair by the component walk on a
    float link matrix of its own, interning each meet's elements from
    their own sums."""

    def split_meets(self, first, second):
        if not first.size:
            return []
        split = ~store_connected(self, first, second)
        return [(i, j, _meet_masks_pairwise(self.ctxs[i].stack, self.ctxs[j].stack, self.tol), {})
                for i, j in zip(first[split].tolist(), second[split].tolist())]


def _build_poset_pairwise(contexts, add_trivial=True, close_under_meets=True, tol=DEFAULT):
    """`build_poset` with a float link matrix per met pair and
    `_partition_map` (`member_mask` per atom) on every ordered pair."""
    store = _PairwiseStore(tol)
    for c in contexts:
        store.add_many([c])
    if add_trivial and not any(c.n_atoms == 1 for c in store.ctxs):
        store.add_many([trivial_context(contexts[0].dim, tol=tol)])
    if close_under_meets:
        store.close_under_meets()
    order, pmaps = set(), {}
    for a in store.ctxs:
        for b in store.ctxs:
            pm = _partition_map(a, b, tol)
            if pm is not None:
                order.add((a.id, b.id))
                pmaps[(a.id, b.id)] = pm
    poset = ContextPoset(contexts={c.id: c for c in store.ctxs}, order=frozenset(order),
                         partition_maps=pmaps)
    _check_partial_order(poset)
    return poset


def _overlap_masks(b, a):
    """Per atom a_i, `member_mask`'s mask over b before its equality test:
    the b_k with tr(b_k a_i) > rank(b_k) / 2."""
    return tuple(
        sum(1 << k for k, bk in enumerate(b.atoms)
            if float(np.trace(bk.entries @ ai.entries).real) > bk.rank / 2)
        for ai in a.atoms
    )


def _screen_contract(store):
    """Per ordered pair (a id, b id) of a store, the outcomes the screen may
    yield for it: the per-pair trace screen's masks when it passes the
    pair, or None, unless the guard holds and some tr(b_k a_i) in
    member_mask's float lies near rank(b_k) / 2.  Then the pair is dropped
    (None) when that float lies within a quarter of the band, and may be
    either way up to twice the band: the screen's float differs from
    member_mask's by less than 5/8 of the band."""
    band, delta = store._screen_bounds()
    guard = delta + 2 * band < 0.5
    out = {}
    for a in store.ctxs:
        for b in store.ctxs:
            masks = _overlap_masks(b, a)
            covered = [sum(b.atoms[k].rank for k in bit_list(m)) for m in masks]
            screened = masks if covered == [p.rank for p in a.atoms] else None
            gap = min(abs(float(np.trace(bk.entries @ ai.entries).real) - bk.rank / 2)
                      for bk in b.atoms for ai in a.atoms)
            if not guard or gap > 2 * band:
                out[(a.id, b.id)] = {screened}
            else:
                out[(a.id, b.id)] = {None} if gap <= band / 4 else {screened, None}
    return out


def _pairwise_order(store):
    """The (a id, b id) pairs of the store that `_partition_map`, the
    decision `_build_poset_pairwise` makes per pair, puts in the order (a
    pair whose mask projector fails validation is left out)."""
    out = set()
    for a in store.ctxs:
        for b in store.ctxs:
            try:
                if _partition_map(a, b, store.tol) is not None:
                    out.add((a.id, b.id))
            except LinalgError:
                pass
    return out


def _noisy(contexts, rng, scale):
    """Each atom plus Hermitian noise of max-abs size about `scale`."""
    out = []
    for c in contexts:
        atoms = []
        for p in c.atoms:
            g = rng.normal(size=p.entries.shape) + 1j * rng.normal(size=p.entries.shape)
            atoms.append(Projector(p.entries + scale * (g + g.conj().T) / 4))
        out.append(Context(c.id, atoms))
    return out


def _peres_subset(seed, size, tol=DEFAULT, jitter=0.0):
    """`size` seeded Peres bases under a seeded unitary; with `jitter`, each
    ray is first moved by about that much and renormalised."""
    rng = np.random.default_rng(seed)
    bases = _peres_bases()
    chosen = [bases[int(i)] for i in rng.choice(len(bases), size=size, replace=False)]
    u = random_unitary(rng, 4)
    out = []
    for k, basis in enumerate(chosen):
        atoms = []
        for ray in basis:
            v = u @ (np.asarray(ray, dtype=float) + jitter * rng.normal(size=4))
            v = v / np.linalg.norm(v)
            atoms.append(Projector(np.outer(v, v.conj()), tol=tol))
        out.append(Context(f"P{k}", atoms, tol=tol))
    return out


LOOSE_ATOM = DEFAULT.overridden(atom=1e-4, proj_idem=1e-4)


def _closure_inputs():
    """(name, contexts, tol) families for the pairwise differential tests."""
    rng = np.random.default_rng(99)
    u = random_unitary(rng, 4)
    ks18 = load_bundled_ks()
    rotated = [Context(c.id, [Projector(u @ a.entries @ u.conj().T) for a in c.atoms])
               for c in ks18]
    yield "ks18", ks18, DEFAULT
    yield "ks18-rotated-noise", _noisy(rotated, rng, 1e-12), DEFAULT
    for seed, size in ((4, 8), (5, 13), (6, 16)):
        yield f"peres{size}", _peres_subset(seed, size), DEFAULT
    yield "peres13-noise", _noisy(_peres_subset(7, 13), rng, 1e-12), DEFAULT
    yield "peres13-loose", _peres_subset(8, 13, LOOSE_ATOM, jitter=1e-6), LOOSE_ATOM
    for seed in range(30):
        draw = random_poset(np.random.default_rng(seed), max_contexts=7, max_atoms=4)
        yield f"random{seed}", list(draw.contexts.values()), DEFAULT
        yield f"family{seed}", _random_family(seed), DEFAULT
    loose = DEFAULT.overridden(atom=1e-2)
    for seed in range(10):
        draw = random_poset(np.random.default_rng(100 + seed), max_contexts=7, max_atoms=4)
        yield f"random{100 + seed}-loose", list(draw.contexts.values()), loose


def test_build_poset_matches_pairwise_decisions():
    # meets, order, partition maps (in insertion order), atom entries and
    # ids, against today's per-pair float decisions
    closed = 0
    for name, contexts, tol in _closure_inputs():
        outcomes = []
        for build in (build_poset, _build_poset_pairwise):
            try:
                outcomes.append(build(contexts, add_trivial=True, close_under_meets=True, tol=tol))
            except (ContextError, LinalgError) as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want, name
            continue
        _assert_same_poset(got, want)
        closed += any(cid.startswith("meet") for cid in got.ids)
    assert closed >= 15, closed


class _LinkCheckedStore(PairStore):
    """`PairStore` that checks its whole link matrix after every `add_many`
    batch: each entry from an atom of an earlier context to an atom of a
    later one is the per-pair float max|g t| >= tol.atom, and every other
    entry (within one context, from a later context to an earlier one, the
    pad row and column) is False."""

    batches = 0

    def add_many(self, contexts, atom_ids=None):
        super().add_many(contexts, atom_ids)
        self.batches += 1
        n = len(self.every)
        want = np.zeros((n + 1, n + 1), dtype=bool)
        spans = [(int(s), int(s + k)) for s, k in zip(self.starts, self.sizes)]
        for (a, b), (c, d) in itertools.combinations(spans, 2):
            want[a:b, c:d] = _float_link(self.every[a:b], self.every[c:d], self.tol)
        assert self.link.shape == want.shape and self.link.tolist() == want.tolist(), self.batches


def test_store_links_and_screen_match_per_pair_floats():
    # the whole link matrix after every store batch, the meet of every
    # stored pair, and the screen's candidates and masks on every ordered
    # pair, against per-pair float expressions
    for name, contexts, tol in _closure_inputs():
        store = _LinkCheckedStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        assert store.batches > len(contexts), name
        for i, j in itertools.combinations(range(len(store.ctxs)), 2):
            sa, sb = store.ctxs[i].stack, store.ctxs[j].stack
            assert store.meet(i, j) == _meet_masks_pairwise(sa, sb, tol), (name, i, j)
        got = {(a.id, b.id): pm for a, b, pm in store.inclusion_candidates()}
        for pair, allowed in _screen_contract(store).items():
            assert got.get(pair) in allowed, (name, *pair)
        assert _pairwise_order(store) <= set(got), name


def test_screen_drops_a_pair_whose_overlap_is_exactly_half_the_rank():
    # |+><+| has overlap exactly 1/2 with |0><0| and |1><1|: no mask passes
    # the strict > rank/2, so the rank count drops the pair.  At a loose
    # atom tolerance the equality test alone would accept the empty masks.
    plus = Projector(np.array([[0.5, 0.5], [0.5, 0.5]]))
    minus = Projector(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    x = Context("X", [plus, minus])
    z = Context("Z", [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))])
    assert float(np.trace(z.atoms[0].entries @ plus.entries).real) == 0.5
    for tol in (DEFAULT, DEFAULT.overridden(atom=0.6)):
        store = PairStore(tol)
        store.add_many([x])
        store.add_many([z])
        pairs = {(a.id, b.id) for a, b, _ in store.inclusion_candidates()}
        assert pairs == {("X", "X"), ("Z", "Z")}
        assert build_poset([x, z], tol=tol).order == pairs
    assert _partition_map(x, z, DEFAULT) is None
    assert _partition_map(x, z, DEFAULT.overridden(atom=0.6)) == (0, 0)


def _a_components(link):
    """The per-pair component walk on a bool link matrix [a-atom, b-atom]:
    the number of components that hold the a-atoms."""
    free, count = set(range(len(link))), 0
    while free:
        grown = {min(free)}
        while True:
            in_b = {j for i in grown for j, x in enumerate(link[i]) if x}
            more = grown | {i for i in range(len(link)) if any(link[i][j] for j in in_b)}
            if more == grown:
                break
            grown = more
        free -= grown
        count += 1
    return count


def _float_link(sa, sb, tol):
    return (np.abs(sa[:, None] @ sb[None]).max(axis=(2, 3)) >= tol.atom).tolist()


def test_batched_connectivity_matches_the_per_pair_component_walk():
    # every pair of every closed store, against the walk on a float link
    # matrix of its own
    split = 0
    for name, contexts, tol in _closure_inputs():
        store = _ContextStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        first, second = np.triu_indices(len(store.ctxs), 1)
        got = store_connected(store, first, second).tolist()
        for i, j, connected in zip(first.tolist(), second.tolist(), got):
            want = _a_components(_float_link(store.ctxs[i].stack, store.ctxs[j].stack, tol)) == 1
            assert connected == want, (name, i, j)
            split += not want
    assert split >= 1000, split


def _split_below_tolerance():
    """Three bases of dimension 4.  B shares v3 and e4 with A, its other
    two rays turned by 1.5e-8 in their plane: each turned pair is a
    component of its own whose sums differ by more than tol.atom, so the
    two merge into one atom of the meet.  C shares v1 and v2 with A and
    rotates v3, e4 in theirs, so it meets B the same way."""
    v1 = np.array([1, 1, 1, 0]) / np.sqrt(3)
    v2 = np.array([1, -1, 0, 0]) / np.sqrt(2)
    v3 = np.array([1, 1, -2, 0]) / np.sqrt(6)
    e4 = np.array([0, 0, 0, 1.0])
    c, s = np.cos(1.5e-8), np.sin(1.5e-8)
    w1, w2 = c * v1 + s * v2, c * v2 - s * v1
    return [Context(name, [Projector(np.outer(v, v)) for v in rays])
            for name, rays in (("A", (v1, v2, v3, e4)), ("B", (w1, w2, v3, e4)),
                               ("C", (v1, v2, (v3 + e4) / np.sqrt(2), (v3 - e4) / np.sqrt(2))))]


def test_batched_meets_match_the_pair_walk_on_every_store():
    # all pairs of every closed store in one batched pass, against the walk
    # on a float link matrix of its own per pair; each whole-component sum
    # handed to interning is the stack's own sum, bit for bit
    split = merged = 0
    for name, contexts, tol in [*_closure_inputs(), ("split", _split_below_tolerance(), DEFAULT)]:
        store = _ContextStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        first, second = np.triu_indices(len(store.ctxs), 1)
        got = {(i, j): (masks, sums) for i, j, masks, sums in store.split_meets(first, second)}
        for i, j in zip(first.tolist(), second.tolist()):
            sa, sb = store.ctxs[i].stack, store.ctxs[j].stack
            want = _meet_masks_pairwise(sa, sb, tol)
            if (i, j) not in got:
                assert _a_components(_float_link(sa, sb, tol)) == 1, (name, i, j)
                assert want == [(1 << len(sa)) - 1], (name, i, j)
                continue
            masks, sums = got[(i, j)]
            assert masks == want, (name, i, j)
            for m, entries in sums.items():
                assert m in masks and np.array_equal(entries, sa[bit_list(m)].sum(axis=0)), (name, i, j)
            split += 1
            merged += name == "split" and any(m not in sums for m in masks)
    assert merged >= 2, merged   # A with B and B with C, at least
    assert split >= 1000, split


def _intern_scan(stored, entries, tol):
    """Interning by a scan of every stored projector: the first within
    `tol.atom` in max-abs entries, or a new id."""
    for k, other in enumerate(stored):
        if np.max(np.abs(other - entries)) < tol.atom:
            return k
    stored.append(entries)
    return len(stored) - 1


def test_intern_by_trace_bucket_matches_the_scan():
    # matrices near a few bases, diagonals near half-integers, and copies
    # moved by about tol.atom, so matches cross trace buckets at loose
    # tolerances and near misses abound
    rng = np.random.default_rng(61)
    crossed = matched = 0
    for atom in (1e-8, 0.05, 0.3):
        tol = DEFAULT.overridden(atom=atom)
        for dim in (2, 3, 5):
            store, stored, traces = _ContextStore(tol), [], []
            bases = [np.diag(rng.integers(0, 2, size=dim) + rng.choice([0.0, 0.5], size=dim))
                     + 1j * atom * rng.normal(size=(dim, dim)) for _ in range(6)]
            for _ in range(150):
                x = bases[int(rng.integers(len(bases)))] + atom * rng.uniform(-0.7, 0.7, size=(dim, dim))
                want = _intern_scan(stored, x, tol)
                assert store_intern(store, x) == want, (atom, dim)
                trace = round(float(np.trace(x).real))
                if want < len(traces):
                    matched += 1
                    crossed += traces[want] != trace
                else:
                    traces.append(trace)
    assert matched >= 900 and crossed >= 100, (matched, crossed)


@pytest.mark.parametrize("name,calls,closed", [("peres24", 780, 94), ("ks18", 54, 28)])
def test_meet_runs_on_disconnected_pairs_only(monkeypatch, name, calls, closed):
    # the batched pass meets exactly the disconnected pairs, each as the
    # per-pair walk does
    seen = []
    batched = _ContextStore.split_meets

    def spy(store, first, second):
        out = batched(store, first, second)
        for i, j, masks, _ in out:
            sa, sb = store.ctxs[i].stack, store.ctxs[j].stack
            assert _a_components(_float_link(sa, sb, store.tol)) > 1, name
            assert masks == _meet_masks_pairwise(sa, sb, store.tol), (name, i, j)
        connected = sum(_a_components(_float_link(store.ctxs[i].stack, store.ctxs[j].stack, store.tol)) == 1
                        for i, j in zip(first.tolist(), second.tolist()))
        assert len(out) + connected == len(first), name
        seen.extend(out)
        return out

    monkeypatch.setattr(_ContextStore, "split_meets", spy)
    contexts = _peres_subset(24, 24) if name == "peres24" else load_bundled_ks()
    poset = build_poset(contexts, add_trivial=True, close_under_meets=True)
    assert (len(seen), len(poset.ids)) == (calls, closed)


def _hermiticity_defect(contexts, rng, tol):
    """Each atom plus i * 0.45 tol.herm * T for a random real symmetric T
    with max|T| = 1: an anti-Hermitian part of max-abs size 0.9 tol.herm."""
    out = []
    for c in contexts:
        atoms = []
        for p in c.atoms:
            t = rng.normal(size=p.entries.shape)
            t = t + t.T
            atoms.append(Projector(p.entries + 0.45j * tol.herm * t / np.abs(t).max(), tol=tol))
        out.append(Context(c.id, atoms, tol=tol))
    return out


def test_screen_follows_the_trace_on_atoms_hermitian_only_within_tolerance():
    # Re tr(b a) and Re tr(b^H a) differ by twice tr(K_b K_a), the product
    # of the anti-Hermitian parts: about 1e-20 at the default herm, but
    # about 1e-12 at herm = 1e-6, far outside the screen's rounding band.
    # Peres overlaps are exactly 1/2, so the sign of that term decides
    # them; the screen must decide on the trace's float.
    tol = DEFAULT.overridden(herm=1e-6, proj_idem=1e-5, atom=1e-4)
    rng = np.random.default_rng(41)
    contexts = _hermiticity_defect(_peres_subset(9, 24, tol), rng, tol)
    store = PairStore(tol)
    for c in contexts:
        store.add_many([c])
    got = {(a.id, b.id): pm for a, b, pm in store.inclusion_candidates()}
    want = _screen_contract(store)
    assert _pairwise_order(store) <= set(got)
    apart = 0
    for a in store.ctxs:
        for b in store.ctxs:
            assert got.get((a.id, b.id)) in want[(a.id, b.id)], (a.id, b.id)
            for bk in b.atoms:
                for ai in a.atoms:
                    gap = np.trace(bk.entries @ ai.entries) - np.trace(bk.entries.conj().T @ ai.entries)
                    apart += abs(gap.real) > 1e-13
    assert apart >= 100, apart
    assert len(got) > len(store.ctxs)


def _rotated_pair(cos2):
    """Z, the standard basis of dimension 2, and R, the basis of v =
    (sqrt(cos2), sqrt(1 - cos2)) and its complement: each atom of R has
    overlap cos2 with one atom of Z and 1 - cos2 with the other."""
    c, s = np.sqrt(cos2), np.sqrt(1 - cos2)
    z = Context("Z", [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))])
    r = Context("R", [Projector(np.outer(v, v)) for v in (np.array([c, s]), np.array([-s, c]))])
    return z, r


def test_link_proof_takes_the_product_only_below_its_threshold(monkeypatch):
    # at atom = 0.1 in dimension 2 a pair is linked without a product when
    # Re tr(g t) >= 0.2 plus a slack of about 1e-15; an overlap 1e-6 below
    # takes the exact max|g t|, one 1e-6 above does not
    tol = DEFAULT.overridden(atom=0.1)
    real = toposval.contexts.product_max
    for cos2, below in ((0.2 - 1e-6, 2), (0.2 + 1e-6, 0)):
        z, r = _rotated_pair(cos2)
        seen = []

        def spy(stack, first, second):
            seen.extend(zip(first.tolist(), second.tolist()))
            return real(stack, first, second)

        monkeypatch.setattr(toposval.contexts, "product_max", spy)
        store = _ContextStore(tol)
        store.add_many([z])
        store.add_many([r])
        monkeypatch.undo()
        want = {(g, 2 + t) for g in range(2) for t in range(2)
                if float(np.trace(z.stack[g] @ r.stack[t]).real) < 0.2}
        assert len(want) == below and set(seen) == want and len(seen) == below, cos2
        assert store.link[:2, 2:4].tolist() == _float_link(z.stack, r.stack, tol), cos2


def _store_products(monkeypatch):
    """Spies on the link products `add_many` takes: per pair it sends to
    `product_max`, its global atom indices (g, t) and the bytes of both
    matrices."""
    sent, adding = [], []
    real_product, real_add = toposval.contexts.product_max, _ContextStore.add_many

    def product_max(stack, first, second):
        if adding:
            sent.extend((g, t, stack[g].tobytes() + stack[t].tobytes())
                        for g, t in zip(first.tolist(), second.tolist()))
        return real_product(stack, first, second)

    def add_many(self, contexts, atom_ids=None):
        adding.append(True)
        try:
            real_add(self, contexts, atom_ids)
        finally:
            adding.pop()

    monkeypatch.setattr(toposval.contexts, "product_max", product_max)
    monkeypatch.setattr(_ContextStore, "add_many", add_many)
    return sent


def _own_kinds(stack, seen):
    """`byte_kinds` with a new kind for every matrix: the store then takes
    a product for every pair its overlap proof leaves open."""
    return [seen.setdefault(len(seen), len(seen)) for _ in range(len(stack))]


@pytest.mark.parametrize("name", ["peres24", "ks18"])
def test_store_takes_one_link_product_per_pair_of_distinct_matrices(monkeypatch, name):
    # a meet's atoms copy stored atoms or sum them, so most open pairs
    # repeat the matrices of an earlier one and read its bit off the table
    contexts = _peres_subset(24, 24) if name == "peres24" else load_bundled_ks()
    builds = []
    for kinds in (toposval.contexts.byte_kinds, _own_kinds):
        with monkeypatch.context() as m:
            m.setattr(toposval.contexts, "byte_kinds", kinds)
            sent = _store_products(m)
            builds.append((build_poset(contexts, add_trivial=True, close_under_meets=True),
                           [key for _, _, key in sent]))
    (got, once), (want, every) = builds
    _assert_same_poset(got, want)
    assert len(once) == len(set(once)) and set(once) == set(every)
    assert len(every) > 3 * len(once), (len(every), len(once))


def test_store_takes_every_open_pair_when_no_bytes_repeat(monkeypatch):
    # each atom moved by about 1e-13: the document's batch has no two
    # equal matrices, so every pair the proof leaves open takes a product
    contexts = _noisy(_peres_subset(9, 13), np.random.default_rng(41), 1e-13)
    stacked = np.concatenate([c.stack for c in contexts])
    assert len({m.tobytes() for m in stacked}) == len(stacked)
    taken = []
    for kinds in (toposval.contexts.byte_kinds, _own_kinds):
        with monkeypatch.context() as m:
            m.setattr(toposval.contexts, "byte_kinds", kinds)
            sent = _store_products(m)
            _ContextStore(DEFAULT).add_many(contexts)
            taken.append([(g, t) for g, t, _ in sent])
    assert taken[0] == taken[1] and len(taken[0]) > 100
    got = build_poset(contexts, add_trivial=True, close_under_meets=True)
    assert any(cid.startswith("meet") for cid in got.ids)
    _assert_same_poset(got, _build_poset_pairwise(contexts))


def test_atoms_differing_in_the_sign_of_a_zero_are_separate_kinds(monkeypatch):
    # B's first atom equals A's first in value, but one of its zeros is
    # -0.0: the two are separate kinds, so each takes its own product
    # against C's plane atoms, and every bit is the per-pair float
    def rays(*vectors):
        return [Projector(np.outer(v, v)) for v in vectors]

    def plane(angle):
        c, s = np.cos(angle), np.sin(angle)
        return np.array([0.0, c, s]), np.array([0.0, -s, c])

    e = np.eye(3)
    signed = np.outer(e[0], e[0]).astype(complex)
    signed[1, 1] = -0.0
    a = Context("A", rays(*e))
    c = Context("C", rays(e[0], *plane(0.5)))
    for first, separate in ((Projector(signed), True), (rays(e[0])[0], False)):
        b = Context("B", [first, *rays(*plane(0.9))])
        with monkeypatch.context() as m:
            sent = _store_products(m)
            store = _LinkCheckedStore(DEFAULT)
            store.add_many([a, b, c])
        a0, b0 = (int(np.flatnonzero([abs(x.entries[0, 0]) > 0.5 for x in ctx.atoms])[0]) + start
                  for ctx, start in ((a, 0), (b, 3)))
        assert (store.every[a0].tobytes() != store.every[b0].tobytes()) == separate
        assert (store.kinds[a0] != store.kinds[b0]) == separate
        plane_atoms = [6 + k for k, x in enumerate(c.atoms) if abs(x.entries[0, 0]) < 0.5]
        taken = {(g, t) for g, t, _ in sent}
        assert {(a0, t) for t in plane_atoms} <= taken
        b_pairs = {(b0, t) for t in plane_atoms}
        assert b_pairs <= taken if separate else not b_pairs & taken


def test_kinds_are_bytes_not_interned_ids():
    # at atom = 0.1, B's first atom u interns to A's e0 (they differ by
    # 0.05), but against C's atom v, max|e0 v| = 0.119 links and max|u v|
    # = 0.069 does not: a table keyed by interned id would give u e0's bit
    tol = DEFAULT.overridden(atom=0.1)

    def rays(*vectors):
        return [Projector(np.outer(v, v), tol=tol) for v in vectors]

    def turned(angle):
        return np.array([np.cos(angle), np.sin(angle), 0.0]), np.array([-np.sin(angle), np.cos(angle), 0.0])

    e = np.eye(3)
    u, u_perp = turned(-0.05)
    v, v_perp = turned(np.pi / 2 - 0.12)
    contexts = [Context("A", rays(*e), tol=tol),
                Context("B", rays(u, (u_perp + e[2]) / np.sqrt(2), (u_perp - e[2]) / np.sqrt(2)), tol=tol),
                Context("C", rays(v, v_perp, e[2]), tol=tol)]
    store = _LinkCheckedStore(tol)
    store.add_many(contexts)
    first = [int(s) + next(k for k, a in enumerate(c.atoms) if np.allclose(a.entries, np.outer(w, w)))
             for c, s, w in zip(contexts, store.starts, (e[0], u, v))]
    a0, b0, t = first
    assert len(set(store._intern_many(np.stack([store.every[a0], store.every[b0]])))) == 1
    assert store.link[a0, t] and not store.link[b0, t]


@pytest.mark.parametrize("name", ["peres24", "ks18"])
def test_store_links_do_not_depend_on_the_batches(name):
    # one batch fills the kinds table at once, one context per batch fills
    # it across batches: the link matrices and the kinds agree
    contexts = _peres_subset(24, 24) if name == "peres24" else load_bundled_ks()
    whole, single = _ContextStore(DEFAULT), _ContextStore(DEFAULT)
    whole.add_many(contexts)
    for c in contexts:
        single.add_many([c])
    for store in (whole, single):
        store.close_under_meets()
    assert len(whole.ctxs) == {"peres24": 93, "ks18": 27}[name]
    assert whole.link.tolist() == single.link.tolist()
    assert whole.kinds.tolist() == single.kinds.tolist()


def _screen_bounds_oracle(store):
    """(band, delta) as `_screen`'s docstring derives them, atom by atom."""
    atoms = [p for c in store.ctxs for p in c.atoms]
    dim = atoms[0].dim
    f2 = max(float(np.sum(np.abs(p.entries) ** 2)) for p in atoms)
    band = 4 * np.finfo(float).eps * dim * dim * f2
    t = max(abs(float(np.trace(p.entries).real) - p.rank) for p in atoms)
    tau_c = max(c.tol.atom for c in store.ctxs)
    w = max(c.n_atoms for c in store.ctxs)
    delta = t + dim * np.sqrt(f2) * (store.tol.atom + tau_c) + (w - 1) * dim * tau_c + 2 * dim * band
    return band, delta


def test_drop_guard_bounds_every_confirmed_overlap_and_holds_at_default():
    # delta as the `_screen` docstring derives it; on every store, every
    # overlap of a confirmed inclusion, in member_mask's float, lies within
    # delta of 0 or of the rank, and at the default tolerances the guard
    # holds with room to spare
    doc = " ".join(_ContextStore._screen.__doc__.split())
    assert "delta = t + d F (tau + tau_c) + (w - 1) d tau_c + rho" in doc
    confirmed = 0
    for name, contexts, tol in _closure_inputs():
        store = _ContextStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        band, delta = store._screen_bounds()
        assert np.allclose((band, delta), _screen_bounds_oracle(store), rtol=1e-9, atol=0), name
        if tol == DEFAULT:
            assert delta + 2 * band < 1e-6, name
        try:
            order, _ = store.inclusion()
        except (ContextError, LinalgError):
            continue
        ids = {c.id: c for c in store.ctxs}
        for sub, sup in order:
            for bk in ids[sup].atoms:
                for ai in ids[sub].atoms:
                    x = float(np.trace(bk.entries @ ai.entries).real)
                    assert min(abs(x), abs(x - bk.rank)) <= delta, (name, sub, sup)
            confirmed += 1
    assert confirmed >= 1000, confirmed


def test_screen_takes_in_band_entries_again_where_the_guard_fails(monkeypatch):
    # where delta + 2 band reaches 1/2 the screen drops nothing for an
    # in-band entry: it takes each again in member_mask's float, one stack
    # per block, and its candidates are the per-pair trace screen's
    calls = []
    real = toposval.contexts._trace_products

    def spy(every, first, second):
        calls.append(len(first))
        return real(every, first, second)

    monkeypatch.setattr(toposval.contexts, "_trace_products", spy)
    plus = Projector(np.array([[0.5, 0.5], [0.5, 0.5]]))
    minus = Projector(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    x = Context("X", [plus, minus])
    z = Context("Z", [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))])
    ks18 = load_bundled_ks(DEFAULT.overridden(atom=5e-2))
    inputs = [("xz", [x, z], DEFAULT.overridden(atom=0.6)), ("ks18", ks18, DEFAULT.overridden(atom=5e-2))]
    inputs += [(name, contexts, tol.overridden(atom=0.2)) for name, contexts, tol in _closure_inputs()
               if name.startswith("random") and name.endswith("-loose")]
    for name, contexts, tol in inputs:
        store = PairStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        band, delta = store._screen_bounds()
        assert delta + 2 * band >= 0.5, name
        del calls[:]
        got = {(a.id, b.id): pm for a, b, pm in store.inclusion_candidates()}
        for pair, allowed in _screen_contract(store).items():
            assert len(allowed) == 1 and got.get(pair) in allowed, (name, *pair)
        if name == "xz":
            assert set(got) == {("X", "X"), ("Z", "Z")} and sum(calls) == 8
        if name == "ks18":
            assert sum(calls) >= 100, sum(calls)


def test_screen_does_not_depend_on_the_row_block_size(monkeypatch):
    # one context per block, a few, and the default: the same candidates,
    # partition maps, order and confirmation on every store
    for name, contexts, tol in _closure_inputs():
        store = _ContextStore(tol)
        for c in contexts:
            store.add_many([c])
        store.close_under_meets()
        outcomes = []
        for block in (1, 64, toposval.contexts._SCREEN_BLOCK):
            monkeypatch.setattr(toposval.contexts, "_SCREEN_BLOCK", block)
            screened = [part.tolist() for part in store._screen()]
            try:
                confirmed = store.inclusion()
            except (ContextError, LinalgError) as exc:
                confirmed = str(exc)
            outcomes.append((screened, confirmed))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1] == outcomes[2], name


def test_confirmation_builds_mask_projectors_up_to_the_first_failing_atom():
    # X's atoms each carry an anti-Hermitian part of 0.9 tol.herm, so the
    # projector of two of them fails validation.  T's first atom passes the
    # screen against x0 but differs from it by about 1e-3; the one-by-one
    # test stops there and never builds the projector of T's second mask,
    # {x1, x2}.  T2's first atom equals x0, so that projector is built, and
    # fails, as it did one atom at a time.
    tol = DEFAULT.overridden(herm=1e-6, proj_idem=1e-5, atom=1e-4)
    t = np.random.default_rng(5).normal(size=(3, 3))
    skew = 0.45j * tol.herm * (t + t.T) / np.abs(t + t.T).max()
    x = Context("X", [Projector(np.diag(d).astype(complex) + skew, tol=tol)
                      for d in np.eye(3)], tol=tol)
    with pytest.raises(LinalgError, match="Hermitian"):
        x.projector(0b110)
    v = np.array([np.cos(1e-3), 0, np.sin(1e-3)])
    for first, fails in ((np.outer(v, v), True), (np.diag([1.0, 0, 0]), False)):
        other = Projector(np.eye(3) - first, tol=tol)
        coarse = Context("T", [Projector(first, tol=tol), other], tol=tol)
        outcomes = []
        for build in (build_poset, _build_poset_pairwise):
            x = Context("X", x.atoms, tol=tol)   # no projector built yet
            try:
                outcomes.append(build([x, coarse], add_trivial=False, close_under_meets=False,
                                      tol=tol))
            except LinalgError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if fails:
            _assert_same_poset(got, want)
            assert not got.leq("T", "X")
        else:
            assert "Hermitian" in want and got == want


# SHA-256 of the closed poset of all 24 Peres bases (`_peres_subset(24,
# 24)`, with the trivial context: 94 contexts): its ids, sorted order pairs
# and partition maps, as JSON.
PERES24_CLOSED = "5e48a9c89017656cdfb330b50a67bda34251219827d1ec9f0c1bd1816e78ed60"


def test_golden_peres24_closure_digest():
    poset = build_poset(_peres_subset(24, 24), add_trivial=True, close_under_meets=True)
    assert len(poset.ids) == 94
    doc = {"ids": poset.ids, "order": sorted(poset.order),
           "partitionMaps": sorted([list(k), list(v)] for k, v in poset.partition_maps.items())}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == PERES24_CLOSED


def _atom_lists():
    """Atom tuples to sort: contexts' atoms shuffled, near-copies within
    rounding, parts on both sides of a rounding tie, and signed zeros."""
    rng = np.random.default_rng(12)
    contexts = list(load_bundled_ks()) + _peres_subset(3, 6)
    for seed in range(20):
        contexts += list(random_poset(np.random.default_rng(seed), max_atoms=5).contexts.values())
    for c in contexts:
        atoms = list(c.atoms)
        yield [atoms[int(k)] for k in rng.permutation(len(atoms))]
        noisy = _noisy([c], rng, 1e-12)[0].atoms
        yield [p for pair in zip(atoms, noisy) for p in pair][::-1]
    e = np.diag([1.0, 0.0])
    ties = [Projector(e + np.array([[0, d], [d, 0]]))
            for d in (5e-10, 1.5e-9, 2.5e-10, -5e-10, 4.9999999e-10, 1e-9, 0.0, -0.0)]
    yield ties
    yield ties[::-1]
    yield [Projector(np.diag([0.0, 1.0])), Projector(np.diag([-0.0, 1.0])),
           Projector(np.diag([1.0, 0.0])), Projector(np.diag([1.0, -0.0]))]


def _canonical_atoms(atoms):
    """The atoms of one context in `_canonical_permutation`'s order."""
    stack = np.array([a.entries for a in atoms])
    return [atoms[i] for i in _canonical_permutation(stack, np.zeros(len(atoms), dtype=np.intp)).tolist()]


def test_canonical_order_matches_eager_rounded_key():
    lists = 0
    for atoms in _atom_lists():
        got = _canonical_atoms(atoms)
        want = sorted(atoms, key=_canonical_key)
        assert [id(p) for p in got] == [id(p) for p in want]
        lists += 1
    assert lists >= 100, lists


def test_context_projectors_validate_at_its_tolerances():
    # two rays at 2e-5 from orthogonal: each atom is an exact projector,
    # but their sum is idempotent only to about 4e-5
    t = 2e-5
    v, w = np.array([1.0, 0.0]), np.array([t, 1.0]) / np.hypot(t, 1.0)
    atoms = [Projector(np.outer(v, v)), Projector(np.outer(w, w))]
    loose = DEFAULT.overridden(proj_idem=1e-4, atom=1e-4)
    ctx = Context("A", atoms, tol=loose)
    assert ctx.tol == loose and ctx.projector(0b11).rank == 2
    with pytest.raises(LinalgError, match="idempotent"):
        Projector(ctx.projector(0b11).entries)
    with pytest.raises(LinalgError, match="idempotent"):
        Context("A", atoms, tol=DEFAULT.overridden(atom=1e-4)).projector(0b11)
    assert trivial_context(2, tol=loose).tol == loose
    # the partition-map path: the one-atom coarsening of A is its mask 0b11
    coarse = Context("T", [Projector(atoms[0].entries + atoms[1].entries, tol=loose)], tol=loose)
    poset = build_poset([ctx, coarse], tol=loose)
    assert poset.partition_map("T", "A") == (0b11,)


def test_closure_takes_a_second_round():
    # one basis in dimension 5, partitions {12|3|4|5}, {1|23|4|5} and
    # {1|2|34|5}: the pairwise meets come in round one, and their common
    # coarsening {1234|5} only when a meet is met again
    u = random_unitary(np.random.default_rng(8), 5)
    contexts = [
        context_from_basis(u, [[0, 1], [2], [3], [4]], "A"),
        context_from_basis(u, [[0], [1, 2], [3], [4]], "B"),
        context_from_basis(u, [[0], [1], [2, 3], [4]], "C"),
    ]
    got = build_poset(contexts, add_trivial=True, close_under_meets=True)
    assert "meet(A,meet(B,C))" in got.ids
    assert sorted(p.rank for p in got.context("meet(A,meet(B,C))").atoms) == [1, 4]
    _assert_same_poset(got, _build_poset_reference(contexts, add_trivial=True,
                                                   close_under_meets=True))


def test_close_under_meets_beyond_twenty_atoms():
    # two 22-atom bases in dimension 22 sharing the ray e0: their meet is
    # {e0, its complement}
    dim = 22
    rest = np.zeros((dim, dim), dtype=complex)
    rest[0, 0] = 1
    rest[1:, 1:] = random_unitary(np.random.default_rng(22), dim - 1)
    a = context_from_basis(np.eye(dim, dtype=complex), [[i] for i in range(dim)], "A")
    b = context_from_basis(rest, [[i] for i in range(dim)], "B")
    poset = build_poset([a, b], add_trivial=True, close_under_meets=True)
    assert poset.ids == ["A", "B", "Vtriv", "meet(A,B)"]
    meet = poset.context("meet(A,B)")
    assert sorted(p.rank for p in meet.atoms) == [1, dim - 1]
    assert poset.leq("meet(A,B)", "A") and poset.leq("meet(A,B)", "B")
    assert poset.leq("Vtriv", "meet(A,B)")


def _hand_poset(order):
    return ContextPoset(contexts={x: trivial_context(2, x) for x in "abc"},
                        order=frozenset(order), partition_maps={})


def _outcome(check, poset):
    try:
        check(poset)
    except ContextError as exc:
        return str(exc)
    return None


REFLEXIVE = {(x, x) for x in "abc"}


@pytest.mark.parametrize("order,message", [
    (REFLEXIVE - {("b", "b")}, "inclusion is not reflexive"),
    (REFLEXIVE | {("a", "c"), ("c", "a")}, "distinct contexts 'a', 'c' are mutually included"),
    (REFLEXIVE | {("c", "b"), ("b", "c"), ("a", "c"), ("c", "a")},
     "distinct contexts 'a', 'c' are mutually included"),
    (REFLEXIVE | {("a", "b"), ("b", "c")}, "inclusion is not transitive"),
    (REFLEXIVE | {("c", "a"), ("a", "b")}, "inclusion is not transitive"),
])
def test_order_check_rejects_broken_orders(order, message):
    poset = _hand_poset(order)
    with pytest.raises(ContextError, match=message):
        _check_partial_order(poset)
    assert _outcome(_check_partial_order_triples, poset) == message


def test_order_check_accepts_a_chain_and_ignores_unknown_ids():
    chain = REFLEXIVE | {("a", "b"), ("b", "c"), ("a", "c"), ("z", "a")}
    _check_partial_order(_hand_poset(chain))


def test_order_check_agrees_with_triple_loop_on_random_posets():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=6, max_atoms=4)
        pairs = sorted(poset.order)
        ids = poset.ids
        variants = [set(pairs)]
        variants.append(set(pairs) - {pairs[int(rng.integers(len(pairs)))]})
        sub, sup = (ids[int(i)] for i in rng.integers(len(ids), size=2))
        variants.append(set(pairs) | {(sub, sup)})
        variants.append(set(pairs) | {(q, p) for p, q in pairs})
        for order in variants:
            p = ContextPoset(contexts=poset.contexts, order=frozenset(order), partition_maps={})
            assert _outcome(_check_partial_order, p) == _outcome(_check_partial_order_triples, p)


# --------------------------------------------------------------------------
# the stacked contexts boundary: atom order, lattice batches, component sums

def test_lexsort_order_matches_the_comparator():
    lists = 0
    for atoms in _atom_lists():
        got = _canonical_atoms(atoms)
        assert [id(p) for p in got] == [id(p) for p in canonical_order_oracle(atoms)]
        lists += 1
    assert lists == 189, lists


def _one_at_a_time(requests):
    """`lattice_projectors` one request at a time: each mask's atoms added
    by Python's `sum` and validated by `Projector`, cached on its context."""
    out = []
    for c, mask in requests:
        p = c._projectors.get(mask)
        if p is None:
            if mask < 0 or mask > c.full_mask:
                raise ContextError(f"mask {mask} out of range for context {c.id!r}")
            entries = (sum(c.atoms[i].entries for i in bit_list(mask)) if mask
                       else np.zeros((c.dim, c.dim)))
            p = c._projectors[mask] = Projector(entries, tol=c.tol)
        out.append(p)
    return out


TIGHT_IDEM = DEFAULT.overridden(atom=1e-4)   # proj_idem stays at 1e-9


def _rays(vectors, tol, scale=1.0):
    return [Projector(scale * np.outer(v, v.conj()) / np.vdot(v, v).real, tol=tol) for v in vectors]


def _meet_fails_before_a_later_projector():
    """A and B, atoms scaled by 1 + 5e-5 and valid at their loose
    tolerances, share two planes, so their meet's two atoms sum to the
    identity only within 5e-5, beyond the build's `atom` of 2e-5.  C and D
    share a plane too; C's rays are jittered by 1e-6, so its plane's
    projector fails a tight `proj_idem`.  One meet at a time, meet(A, B)
    fails its `Context` check before C's projector is built."""
    scaled = DEFAULT.overridden(atom=1e-4, proj_idem=1e-3, trace_rank=1e-3)
    rng = np.random.default_rng(3)
    u, w, x = random_unitary(rng, 4), random_unitary(rng, 2), random_unitary(rng, 4)
    turned = np.column_stack([u[:, :2] @ w, u[:, 2:] @ w])
    return [Context("A", _rays(u.T, scaled, 1 + 5e-5), tol=scaled),
            Context("B", _rays(turned.T, scaled, 1 + 5e-5), tol=scaled),
            Context("C", _rays((x + 1e-6 * rng.normal(size=(4, 4))).T, TIGHT_IDEM), tol=TIGHT_IDEM),
            Context("D", _rays(np.column_stack([x[:, :2] @ w, x[:, 2:]]).T, TIGHT_IDEM), tol=TIGHT_IDEM)]


def _lattice_families():
    """(name, contexts, build tolerances) families whose lattice projectors
    all pass, or whose multi-atom ones fail at a tight `proj_idem`, some at
    mixed tolerances."""
    inputs = {name: contexts for name, contexts, _ in _closure_inputs()}
    for name in ("ks18", "ks18-rotated-noise", "peres8", "peres13-noise", "peres13-loose",
                 *(f"random{s}" for s in range(8)), *(f"family{s}" for s in range(8)),
                 "random100-loose", "random101-loose"):
        yield name, inputs[name], inputs[name][0].tol
    yield "peres13-tight", _peres_subset(8, 13, TIGHT_IDEM, jitter=1e-6), TIGHT_IDEM
    mixed = _peres_subset(3, 8, LOOSE_ATOM, jitter=1e-6) + _peres_subset(4, 8, TIGHT_IDEM, jitter=1e-6)
    yield "peres-mixed", [Context(f"Q{k:02d}", c.atoms, tol=c.tol) for k, c in enumerate(mixed)], LOOSE_ATOM
    yield "peres-mixed-reversed", [Context(f"Q{k:02d}", c.atoms, tol=c.tol)
                                   for k, c in enumerate(mixed[::-1])], TIGHT_IDEM
    yield "meet-first", _meet_fails_before_a_later_projector(), DEFAULT.overridden(atom=2e-5)


def _closed_lattice(contexts, close, tol):
    """A fresh build of the contexts' poset and its lattice, or the type and
    message of the error it raises."""
    fresh = [Context(c.id, c.atoms, tol=c.tol) for c in contexts]
    try:
        poset = build_poset(fresh, add_trivial=True, close_under_meets=close, tol=tol)
        return poset, poset.lattice
    except (LinalgError, ContextError) as exc:
        return type(exc), str(exc)


def test_lattice_batches_raise_and_build_as_one_request_at_a_time(monkeypatch):
    # the closure's meets, the inclusion pass and the lattice, each in one
    # batch, against the same builds with every projector made alone
    failed = {}
    for name, contexts, tol in _lattice_families():
        for close in (True, False):
            got = _closed_lattice(contexts, close, tol)
            with monkeypatch.context() as m:
                m.setattr(toposval.contexts, "lattice_projectors", _one_at_a_time)
                want = _closed_lattice(contexts, close, tol)
            if isinstance(want[0], type):
                assert got == want, (name, close)
                failed[(name, close)] = want[1]
                continue
            _assert_same_poset(got[0], want[0])
            assert got[1].offsets == want[1].offsets
            assert got[1].entries.tobytes() == want[1].entries.tobytes(), (name, close)
    assert failed.pop(("meet-first", True)) == "atoms of context 'meet(A,B)' do not resolve the identity"
    assert set(failed) == {(name, close) for close in (True, False)
                           for name in ("peres13-tight", "peres-mixed", "peres-mixed-reversed")} | {
                               ("meet-first", False)}
    assert all("idempotent" in message for message in failed.values())


def test_lattice_batch_raises_the_first_failure_in_lattice_order():
    # B's atoms fail Hermiticity at B's tolerances and C's pair sum fails
    # idempotency at C's; in lattice order (ids sorted, masks ascending)
    # B's mask 0b01 comes first, after A's four, which pass
    t = 2e-5
    v, w = np.array([1.0, 0.0]), np.array([t, 1.0]) / np.hypot(t, 1.0)
    near = [Projector(np.outer(v, v)), Projector(np.outer(w, w))]
    skew = np.array([[0, 1e-7j], [1e-7j, 0]])
    herm = DEFAULT.overridden(herm=1e-6, proj_idem=1e-4, atom=1e-4)
    skewed = [Projector(np.diag([1.0, 0.0]) + skew, tol=herm), Projector(np.diag([0.0, 1.0]) + skew, tol=herm)]
    contexts = {"A": Context("A", near, tol=DEFAULT.overridden(proj_idem=1e-4, atom=1e-4)),
                "B": Context("B", skewed, tol=DEFAULT.overridden(proj_idem=1e-4, atom=1e-4)),
                "C": Context("C", near, tol=TIGHT_IDEM)}
    poset = ContextPoset(contexts=contexts, order=frozenset((c, c) for c in contexts),
                         partition_maps={(c, c): (1, 2) for c in contexts})
    with pytest.raises(LinalgError) as batch:
        poset.lattice
    fresh = {cid: Context(cid, c.atoms, tol=c.tol) for cid, c in contexts.items()}
    with pytest.raises(LinalgError) as alone:
        _one_at_a_time((fresh[cid], m) for cid in sorted(fresh) for m in range(4))
    assert str(batch.value) == str(alone.value) == "projector is not Hermitian within tolerance"
    with pytest.raises(LinalgError, match="idempotent"):
        contexts["C"].projector(0b11)
    with pytest.raises(ContextError, match="mask 4 out of range"):
        lattice_projectors([(contexts["A"], 1), (contexts["A"], 4), (contexts["C"], 3)])
    assert 1 in contexts["A"]._projectors   # built before the bad mask, as one at a time


def _sides(sa, sb, tol):
    """The (a-atoms, b-atoms) of each component of a pair's float link
    graph, from its lowest a-atom up."""
    link = _float_link(sa, sb, tol)
    free, out = set(range(len(sa))), []
    while free:
        in_a, in_b = {min(free)}, set()
        while True:
            in_b = {j for i in in_a for j, x in enumerate(link[i]) if x}
            more = in_a | {i for i in range(len(sa)) if any(link[i][j] for j in in_b)}
            if more == in_a:
                break
            in_a = more
        free -= in_a
        out.append((in_a, in_b))
    return out


@pytest.mark.parametrize("name", ["peres24", "ks18"])
def test_split_meets_sums_each_distinct_component_once(monkeypatch, name):
    # every pair of the closed store in one call: one summed row per
    # distinct (context, atoms) side of a component of a disconnected pair
    contexts = _peres_subset(24, 24) if name == "peres24" else load_bundled_ks()
    store = _ContextStore(DEFAULT)
    for c in contexts:
        store.add_many([c])
    store.close_under_meets()
    first, second = np.triu_indices(len(store.ctxs), 1)
    want, sides = set(), 0
    for i, j in zip(first.tolist(), second.tolist()):
        comps = _sides(store.ctxs[i].stack, store.ctxs[j].stack, DEFAULT)
        if len(comps) > 1:
            for in_a, in_b in comps:
                want.add(frozenset(store.starts[i].tolist() + a for a in in_a))
                want.add(frozenset(store.starts[j].tolist() + b for b in in_b))
                sides += 2
    summed = []
    real = toposval.contexts._ordered_sums

    def spy(every, index, chosen):
        summed.extend(frozenset(row[pick].tolist()) for row, pick in zip(index, chosen))
        return real(every, index, chosen)

    monkeypatch.setattr(toposval.contexts, "_ordered_sums", spy)
    store.split_meets(first, second)
    assert len(summed) == len(set(summed)) and set(summed) == want
    assert sides >= 2 * len(want), (sides, len(want))   # sides recur across pairs


def test_closed_peres24_build_peaks_below_two_megabytes():
    # the closure's a- and b-side sums of each distinct component, once
    contexts = _peres_subset(24, 24)
    build_poset(contexts, add_trivial=True, close_under_meets=True)
    fresh = [Context(c.id, c.atoms) for c in contexts]
    tracemalloc.start()
    try:
        build_poset(fresh, add_trivial=True, close_under_meets=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.05e6, peak
