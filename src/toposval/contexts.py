"""Contexts, their projector lattices, spectra and the inclusion poset.

A context is a commutative algebra presented by its atoms: an orthogonal
resolution of the identity.  Its lattice is the Boolean algebra of sums of
atoms, encoded as integer bit masks over atom indices; its spectrum is the
set of characters, one per atom.  Inclusion of contexts is partition
coarsening.  Once a poset is built, every atom-of-the-coarse-context is
recorded as a bit mask over the fine context's atoms, and all downstream
reasoning is exact on those masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    HermitianOperator,
    Projector,
    commutes,
    eig_hermitian,
    identity_projector,
)
from .tolerances import DEFAULT, Tolerances

MAX_ATOMS_FOR_LATTICE = 20


class ContextError(ValueError):
    """Malformed context, lattice element or poset input."""


def _canonical_key(p: Projector) -> tuple:
    """Deterministic sort key over matrix entries (descending, so the
    standard-basis atoms keep their natural order)."""
    flat = p.entries.reshape(-1)
    return tuple(
        x for z in flat for x in (-round(z.real, 9) - 0.0, -round(z.imag, 9) - 0.0)
    )


@dataclass(frozen=True, eq=False)
class Context:
    """A commutative algebra given by its ordered list of atoms."""

    id: str
    atoms: tuple[Projector, ...]

    def __init__(self, id: str, atoms, tol: Tolerances = DEFAULT, canonicalize: bool = True):
        atoms = tuple(atoms)
        if not atoms:
            raise ContextError("a context needs at least one atom")
        dim = atoms[0].dim
        for a in atoms:
            if a.dim != dim:
                raise ContextError("atoms of mixed dimension")
            if a.rank < 1:
                raise ContextError("zero atom in context")
        for a, b in itertools.combinations(atoms, 2):
            if not a.orthogonal_to(b, tol):
                raise ContextError(f"atoms of context {id!r} are not orthogonal")
        total = sum(a.entries for a in atoms)
        if np.max(np.abs(total - np.eye(dim))) > tol.atom:
            raise ContextError(f"atoms of context {id!r} do not resolve the identity")
        if canonicalize:
            atoms = tuple(sorted(atoms, key=_canonical_key))
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_projectors", {})

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_atoms) - 1

    def projector(self, mask: int) -> Projector:
        """The lattice projector for a bit mask over atom indices, built
        once per mask."""
        p = self._projectors.get(mask)
        if p is None:
            if mask < 0 or mask > self.full_mask:
                raise ContextError(f"mask {mask} out of range for context {self.id!r}")
            if mask == 0:
                p = Projector(np.zeros((self.dim, self.dim)))
            else:
                p = Projector(sum(self.atoms[i].entries for i in range(self.n_atoms) if mask >> i & 1))
            self._projectors[mask] = p
        return p

    def member_mask(self, p: Projector, tol: Tolerances = DEFAULT) -> int | None:
        """The mask whose projector equals `p`, or None if p is not in the lattice."""
        if p.dim != self.dim:
            raise ContextError("dimension mismatch")
        mask = 0
        for i, a in enumerate(self.atoms):
            overlap = float(np.trace(a.entries @ p.entries).real)
            if overlap > a.rank / 2:
                mask |= 1 << i
        if self.projector(mask).equals(p, tol):
            return mask
        return None


def trivial_context(dim: int, id: str = "Vtriv") -> Context:
    return Context(id, [identity_projector(dim)])


@dataclass(frozen=True)
class LatticeElement:
    """A projector of a context's lattice, encoded as an atom-index bit mask."""

    context_id: str
    mask: int


@dataclass(frozen=True)
class Character:
    """A multiplicative functional on a context: the selection of one atom."""

    context_id: str
    atom_index: int


def context_from_operators(
    ops: list[HermitianOperator],
    id: str = "V",
    tol: Tolerances = DEFAULT,
    tol_group: float | None = None,
) -> Context:
    """The context generated by commuting operators: atoms are their joint
    eigenspace projectors (common refinement of the individual spectral
    decompositions)."""
    if not ops:
        raise ContextError("need at least one operator")
    dim = ops[0].dim
    for a, b in itertools.combinations(ops, 2):
        if not commutes(a, b, tol):
            raise ContextError("operators do not commute pairwise")
    tg = tol.eig_group if tol_group is None else tol_group
    blocks: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for op in ops:
        eig = eig_hermitian(op, tol_group=tg, tol=tol)
        refined = []
        for block in blocks:
            for _, proj in eig:
                prod = block @ proj.entries
                prod = (prod + prod.conj().T) / 2
                evals, evecs = np.linalg.eigh(prod)
                vecs = evecs[:, evals > 0.5]
                if vecs.shape[1] == 0:
                    continue
                refined.append(vecs @ vecs.conj().T)
        blocks = refined
    atoms = [Projector(b, tol=tol) for b in blocks]
    ctx = Context(id, atoms, tol=tol)
    for op in ops:
        for _, proj in eig_hermitian(op, tol_group=tg, tol=tol):
            if ctx.member_mask(proj, tol) is None:
                raise ContextError("joint refinement failed: spectral projector not in lattice")
    return ctx


def inclusion(v2: Context, v1: Context, tol: Tolerances = DEFAULT) -> bool:
    """True iff v2 <= v1: every atom of v2 is a sum of atoms of v1."""
    if v2.dim != v1.dim:
        raise ContextError("dimension mismatch")
    return _partition_map(v2, v1, tol) is not None


def _partition_map(v2: Context, v1: Context, tol: Tolerances) -> tuple[int, ...] | None:
    """For v2 <= v1, the mask over v1's atoms composing each atom of v2."""
    maps = []
    for a2 in v2.atoms:
        mask = v1.member_mask(a2, tol)
        if mask is None:
            return None
        maps.append(mask)
    return tuple(maps)


def lattice_elements(v: Context) -> list[LatticeElement]:
    """All 2^n masks of the context's Boolean lattice."""
    if v.n_atoms > MAX_ATOMS_FOR_LATTICE:
        raise ContextError(f"context {v.id!r} has too many atoms to enumerate")
    return [LatticeElement(v.id, m) for m in range(1 << v.n_atoms)]


def evaluate(v: Context, kappa: Character, a: HermitianOperator, tol: Tolerances = DEFAULT) -> float:
    """Gelfand evaluation of an algebra member at a character.

    `a` must be constant on each atom's range (i.e. lie in the algebra);
    the value at `kappa` is the constant on its atom.
    """
    if kappa.context_id != v.id:
        raise ContextError("character does not belong to this context")
    if a.dim != v.dim:
        raise ContextError("dimension mismatch")
    values = []
    for atom in v.atoms:
        c = float(np.trace(atom.entries @ a.entries).real) / atom.rank
        if np.max(np.abs(atom.entries @ a.entries - c * atom.entries)) > tol.atom:
            raise ContextError("operator is not in the context's algebra")
        values.append(c)
    return values[kappa.atom_index]


def v_of_p(v: Context, p: LatticeElement) -> frozenset[Character]:
    """The characters valuing the lattice element at 1: one per atom in the mask."""
    if p.context_id != v.id:
        raise ContextError("lattice element belongs to a different context")
    return frozenset(
        Character(v.id, i) for i in range(v.n_atoms) if p.mask >> i & 1
    )


class PosetIndex:
    """Lookup tables of a finite order whose stages carry atoms: the
    contexts of a `ContextPoset`, or the operators of an `OperatorCategory`
    with its arrows B -> A as the pairs (B, A).

    It is given the atom count of each id, the (sub, super) pairs of the
    order and, per comparable pair, the partition map: the mask over the
    super-stage's atoms that makes up each sub-stage atom.  Stages are
    numbered in sorted id order, so ascending bits of a mask over stage
    indices list ids in sorted order.  The order becomes int-bitmask
    down-sets and up-sets in one pass over its pairs; a pair naming an id
    without an atom count only reaches the by-id maps, whose masks cover
    known ids alone.  Per comparable pair, the coarse-graining table
    (sub-stage mask of each super-stage mask) and the restriction map
    (sub-stage atom of each super-stage atom) are built from the partition
    map on first request.
    """

    def __init__(self, n_atoms: dict[str, int], order,
                 partition_maps: dict[tuple[str, str], tuple[int, ...]]):
        self.partition_maps = partition_maps
        self.ids: tuple[str, ...] = tuple(sorted(n_atoms))
        self.pos: dict[str, int] = {cid: i for i, cid in enumerate(self.ids)}
        self.n_atoms: tuple[int, ...] = tuple(n_atoms[c] for c in self.ids)
        down_of: dict[str, int] = {}
        up_of: dict[str, int] = {}
        for sub, sup in order:
            if sub in self.pos:
                down_of[sup] = down_of.get(sup, 0) | 1 << self.pos[sub]
            if sup in self.pos:
                up_of[sub] = up_of.get(sub, 0) | 1 << self.pos[sup]
        self.down_of = down_of
        self.up_of = up_of
        self.down: tuple[int, ...] = tuple(down_of.get(c, 0) for c in self.ids)
        self.up: tuple[int, ...] = tuple(up_of.get(c, 0) for c in self.ids)
        self.pairs: tuple[tuple[str, str], ...] = tuple(sorted(order))
        # the comparable pairs of known ids as (sub index, super index), in
        # the order of `pairs`
        self.pair_indices: tuple[tuple[int, int], ...] = tuple(
            (self.pos[a], self.pos[b]) for a, b in self.pairs if a in self.pos and b in self.pos
        )
        self._names: dict[int, tuple[str, ...]] = {}
        self._sets: dict[int, frozenset[str]] = {}
        self._closures: dict[int, int] = {}
        self._coarse: dict[tuple[int, int], tuple[int, ...]] = {}
        self._restriction: dict[tuple[int, int], tuple[int | None, ...]] = {}
        self._image: dict[tuple[int, int], tuple[int, ...]] = {}
        self._below: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}
        self._below_image: dict[int, tuple[tuple[int, tuple[int, ...]], ...]] = {}

    def names(self, bits: int) -> tuple[str, ...]:
        """The ids of a mask over context indices, sorted."""
        out = self._names.get(bits)
        if out is None:
            out = self._names[bits] = tuple(self.ids[i] for i in bit_list(bits))
        return out

    def id_set(self, bits: int) -> frozenset[str]:
        """The ids of a mask over context indices, as one shared frozenset
        per mask."""
        out = self._sets.get(bits)
        if out is None:
            out = self._sets[bits] = frozenset(self.names(bits))
        return out

    def closure(self, bits: int) -> int:
        """The union of the down-sets of the contexts in a mask."""
        out = self._closures.get(bits)
        if out is None:
            out = 0
            for i in bit_list(bits):
                out |= self.down[i]
            self._closures[bits] = out
        return out

    def pair(self, sub: str, sup: str) -> tuple[int, int]:
        """The indices of two context ids, for the per-pair tables."""
        if sub not in self.pos or sup not in self.pos:
            raise ContextError(f"{sub!r} is not included in {sup!r}")
        return self.pos[sub], self.pos[sup]

    def _pmap(self, sub: int, sup: int) -> tuple[int, ...]:
        key = (self.ids[sub], self.ids[sup])
        if key not in self.partition_maps:
            raise ContextError(f"{key[0]!r} is not included in {key[1]!r}")
        return self.partition_maps[key]

    def lift(self, sub: int, sup: int, mask: int) -> int:
        """A sub-stage mask expressed over the super-stage's atoms."""
        return _union(self._pmap(sub, sup), mask)

    def coarse(self, sub: int, sup: int) -> tuple[int, ...]:
        """Coarse-graining table of a comparable pair: entry `mask` is the
        least sub-context mask above the super-context mask.  A sub-atom
        enters exactly when its block of super-atoms meets the mask."""
        table = self._coarse.get((sub, sup))
        if table is None:
            pmap = self._pmap(sub, sup)
            blocks_of = [0] * self.n_atoms[sup]   # sub-atoms whose block holds each super-atom
            for j, block in enumerate(pmap):
                for k in range(len(blocks_of)):
                    if block >> k & 1:
                        blocks_of[k] |= 1 << j
            table = self._coarse[(sub, sup)] = _union_table(blocks_of)
        return table

    def restriction(self, sub: int, sup: int) -> tuple[int | None, ...]:
        """Restriction map of a comparable pair: for each super-context atom,
        the first sub-context atom whose block holds it (None if no block
        does, which only a broken partition map allows)."""
        owner = self._restriction.get((sub, sup))
        if owner is None:
            pmap = self._pmap(sub, sup)
            owner = self._restriction[(sub, sup)] = tuple(
                next((j for j, block in enumerate(pmap) if block >> k & 1), None)
                for k in range(self.n_atoms[sup])
            )
        return owner

    def image(self, sub: int, sup: int) -> tuple[int, ...]:
        """Restriction table of a comparable pair: entry `mask` is the image,
        as a sub-context mask, of the characters in the super-context mask."""
        table = self._image.get((sub, sup))
        if table is None:
            owner = self.restriction(sub, sup)
            if None in owner:
                raise ContextError("partition map does not cover the atom")
            table = self._image[(sub, sup)] = _union_table([1 << j for j in owner])
        return table

    def below(self, sup: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(sub index, coarse-graining table) for each context below `sup`,
        ascending."""
        out = self._below.get(sup)
        if out is None:
            out = self._below[sup] = tuple(
                (sub, self.coarse(sub, sup)) for sub in bit_list(self.down[sup])
            )
        return out

    def below_image(self, sup: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(sub index, restriction table) for each context below `sup`,
        ascending."""
        out = self._below_image.get(sup)
        if out is None:
            out = self._below_image[sup] = tuple(
                (sub, self.image(sub, sup)) for sub in bit_list(self.down[sup])
            )
        return out


def _union_table(masks: list[int]) -> tuple[int, ...]:
    """Entry `m` is the union of masks[k] over the bits k of m."""
    table = [0] * (1 << len(masks))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | masks[low.bit_length() - 1]
    return tuple(table)


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """A finite fragment of the inclusion poset of contexts.

    Stores, for every comparable pair (v2 <= v1), the partition map giving
    each v2-atom as a bit mask over v1's atoms; everything downstream works
    on these exact encodings.  Immutable; `version` stamps derived data
    such as sieves.  The accessors below read `index`, which is built once,
    on first use.
    """

    contexts: dict[str, Context] = field(default_factory=dict)
    order: frozenset[tuple[str, str]] = frozenset()          # (sub, super) pairs, reflexive
    partition_maps: dict[tuple[str, str], tuple[int, ...]] = field(default_factory=dict)
    version: str = ""

    def __post_init__(self):
        ids = sorted(self.contexts)
        object.__setattr__(self, "version", "|".join(ids))

    @cached_property
    def index(self) -> PosetIndex:
        n_atoms = {cid: c.n_atoms for cid, c in self.contexts.items()}
        return PosetIndex(n_atoms, self.order, self.partition_maps)

    @property
    def ids(self) -> list[str]:
        return list(self.index.ids)

    def context(self, cid: str) -> Context:
        return self.contexts[cid]

    def leq(self, sub: str, sup: str) -> bool:
        return (sub, sup) in self.order

    def down_set(self, cid: str) -> list[str]:
        """Ids of all contexts <= cid (cid included), sorted."""
        index = self.index
        return list(index.names(index.down_of.get(cid, 0)))

    def up_set(self, cid: str) -> list[str]:
        index = self.index
        return list(index.names(index.up_of.get(cid, 0)))

    def maximal_ids(self) -> list[str]:
        index = self.index
        return [x for i, x in enumerate(index.ids) if not index.up[i] & ~(1 << i)]

    def pairs(self, proper_only: bool = False) -> list[tuple[str, str]]:
        """All comparable (sub, super) pairs, identity pairs included by default."""
        return [p for p in self.index.pairs if not proper_only or p[0] != p[1]]

    def cover_pairs(self) -> list[tuple[str, str]]:
        """Hasse edges: (sub, super) with nothing strictly between."""
        index = self.index
        out = []
        for sub, sup in self.pairs(proper_only=True):
            ends = 1 << index.pos[sub] if sub in index.pos else 0
            if sup in index.pos:
                ends |= 1 << index.pos[sup]
            if not index.up_of.get(sub, 0) & index.down_of.get(sup, 0) & ~ends:
                out.append((sub, sup))
        return out

    def partition_map(self, sub: str, sup: str) -> tuple[int, ...]:
        if (sub, sup) not in self.partition_maps:
            raise ContextError(f"{sub!r} is not included in {sup!r}")
        return self.partition_maps[(sub, sup)]

    def lift_mask(self, sub: str, sup: str, mask: int) -> int:
        """Express a sub-context lattice element as a mask over the super-context."""
        return _union(self.partition_map(sub, sup), mask)


def build_poset(
    contexts: list[Context],
    add_trivial: bool = False,
    close_under_meets: bool = False,
    dim: int | None = None,
    tol: Tolerances = DEFAULT,
) -> ContextPoset:
    """Build the inclusion poset of the given contexts.

    Duplicate algebras (the same atoms within `tol.atom`) are merged onto
    the first id seen.  With `add_trivial` the one-atom context is inserted;
    with `close_under_meets` common coarsenings (algebra intersections) are
    added until closure.  `dim` is only needed when no contexts are given.

    Which finite fragment of the full inclusion order is rich enough for a
    given law is the caller's choice; every verification in this package is
    relative to the supplied poset.
    """
    if contexts:
        dim = contexts[0].dim
        for c in contexts:
            if c.dim != dim:
                raise ContextError("contexts of mixed dimension")
    elif add_trivial and dim is None:
        raise ContextError("no contexts given: pass dim to add the trivial context")
    store = _ContextStore(tol)
    for c in contexts:
        store.add_if_new(c)
    if add_trivial and not any(c.n_atoms == 1 for c in store.ctxs):
        store.add_if_new(trivial_context(dim))
    if close_under_meets:
        store.close_under_meets()
    ctxs = store.ctxs
    ids = [c.id for c in ctxs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ContextError(f"distinct contexts share ids: {dupes}")
    order = set()
    pmaps = {}
    for a, b in store.inclusion_candidates():
        pm = _partition_map(a, b, tol)
        if pm is not None:
            order.add((a.id, b.id))
            pmaps[(a.id, b.id)] = pm
    poset = ContextPoset(
        contexts={c.id: c for c in ctxs},
        order=frozenset(order),
        partition_maps=pmaps,
    )
    _check_partial_order(poset)
    return poset


class _ContextStore:
    """The contexts of one `build_poset` call, with their lattice elements
    interned.

    Each projector that is a sum of one context's atoms is stored once: it
    joins the first stored projector within `tol.atom` in max-abs entries
    (the test `Projector.equals` makes), or gets a new id.  A context is
    then keyed by the set of its atoms' ids, so two contexts are the same
    algebra exactly when their keys match, and a candidate meet is looked up
    before any `Context` is built for it.
    """

    def __init__(self, tol: Tolerances):
        self.tol = tol
        self.ctxs: list[Context] = []
        self.stacks: list[np.ndarray] = []   # atom entries of ctxs[k], shape (n_atoms, dim, dim)
        self.keys: set[frozenset[int]] = set()
        self._element_ids: dict[tuple[int, int], int] = {}   # (context index, mask) -> id
        self._stored: np.ndarray | None = None   # interned entries, shape (n, dim, dim)

    def _intern(self, entries: np.ndarray) -> int:
        if self._stored is None:
            self._stored = entries[None]
            return 0
        hits = np.flatnonzero(np.abs(self._stored - entries).max(axis=(1, 2)) < self.tol.atom)
        if hits.size:
            return int(hits[0])
        self._stored = np.concatenate([self._stored, entries[None]])
        return len(self._stored) - 1

    def _element(self, k: int, mask: int) -> int:
        """The id of lattice element `mask` of the k-th context."""
        eid = self._element_ids.get((k, mask))
        if eid is None:
            eid = self._intern(self.stacks[k][bit_list(mask)].sum(axis=0))
            self._element_ids[(k, mask)] = eid
        return eid

    def add_if_new(self, c: Context) -> None:
        stack = np.stack([a.entries for a in c.atoms])
        atom_ids = [self._intern(e) for e in stack]
        key = frozenset(atom_ids)
        if key in self.keys:
            return
        k = len(self.ctxs)
        self.ctxs.append(c)
        self.stacks.append(stack)
        self.keys.add(key)
        for i, eid in enumerate(atom_ids):
            self._element_ids[(k, 1 << i)] = eid

    def close_under_meets(self) -> None:
        """Add pairwise algebra intersections until closure (trivial meets
        skipped).

        Each round visits the pairs of a snapshot in `itertools.combinations`
        order, as a plain rescan would, so each new meet keeps the id of the
        first pair that produces it.  A pair whose contexts both predate the
        previous round was met then, and its meet is present, so it is
        skipped.
        """
        old = 0
        while True:
            n = len(self.ctxs)
            for i in range(n):
                for j in range(max(i + 1, old), n):
                    masks = _meet_masks(self.stacks[i], self.stacks[j], self.tol)
                    if len(masks) <= 1:
                        continue
                    if frozenset(self._element(i, m) for m in masks) in self.keys:
                        continue
                    a, b = self.ctxs[i], self.ctxs[j]
                    atoms = [a.projector(m) for m in masks]
                    self.add_if_new(Context(f"meet({a.id},{b.id})", atoms, tol=self.tol))
            if len(self.ctxs) == n:
                return
            old = n

    def inclusion_candidates(self):
        """The (a, b) pairs, in row order, that may satisfy a <= b.

        For a <= b each atom a_i is the sum of the b-atoms b_k with
        tr(a_i b_k) > rank(b_k) / 2, so those ranks add up to rank(a_i);
        pairs failing that rank count are dropped before `_partition_map`.
        """
        if not self.ctxs:
            return
        every = np.concatenate(self.stacks)
        dim = every.shape[1]
        transposed = every.transpose(0, 2, 1).reshape(len(every), dim * dim)
        ranks = np.array([a.rank for c in self.ctxs for a in c.atoms])
        starts = np.cumsum([0] + [len(s) for s in self.stacks[:-1]])
        for a, sa in zip(self.ctxs, self.stacks):
            overlap = (sa.reshape(len(sa), dim * dim) @ transposed.T).real
            covered = np.add.reduceat(np.where(overlap > ranks / 2, ranks, 0), starts, axis=1)
            a_ranks = np.array([p.rank for p in a.atoms])
            for j in np.flatnonzero((covered == a_ranks[:, None]).all(axis=0)):
                yield a, self.ctxs[j]


def _meet_masks(sa: np.ndarray, sb: np.ndarray, tol: Tolerances) -> list[int]:
    """Atoms of the intersection of two contexts' algebras, as increasing
    masks over the first context's atoms; given stacked atom entries.

    Link a_i to b_j when max|a_i b_j| >= tol.atom (they are not orthogonal)
    and take the connected components.  A common element is a sum of whole
    components, so a component whose a-sum equals its b-sum within
    `tol.atom` is an atom of the meet, and all other components together
    form one more.  In exact arithmetic every component is an atom; the
    merged one arises when overlaps below `tol.atom` split a component.
    One mask means the meet is trivial.
    """
    link = (np.abs(sa[:, None] @ sb[None]).max(axis=(2, 3)) >= tol.atom).tolist()
    b_of = [sum(1 << j for j, x in enumerate(row) if x) for row in link]
    a_of = [sum(1 << i for i, row in enumerate(link) if row[j]) for j in range(len(sb))]
    masks: list[int] = []
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


def bit_list(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _union(masks: list[int], select: int) -> int:
    out = 0
    for i in bit_list(select):
        out |= masks[i]
    return out


def _check_partial_order(poset: ContextPoset) -> None:
    """Reflexivity, antisymmetry and transitivity of `poset.order` over its
    ids, on the index's int-bitmask down-sets."""
    ids = poset.index.ids
    down = poset.index.down   # bit i of down[j] set when ids[i] <= ids[j]
    for i in range(len(ids)):
        if not down[i] >> i & 1:
            raise ContextError("inclusion is not reflexive")
    for i, x in enumerate(ids):
        for j in bit_list(down[i]):
            if j > i and down[j] >> i & 1:
                raise ContextError(f"distinct contexts {x!r}, {ids[j]!r} are mutually included")
    for j in range(len(ids)):
        if any(down[i] & ~down[j] for i in bit_list(down[j])):
            raise ContextError("inclusion is not transitive")
