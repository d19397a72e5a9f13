"""Contexts, their projector lattices, spectra and the inclusion poset.

A context is a commutative algebra presented by its atoms: an orthogonal
resolution of the identity.  Its lattice is the Boolean algebra of sums of
atoms, encoded as integer bit masks over atom indices; its spectrum is the
set of characters, one per atom.  Inclusion of contexts is partition
coarsening.  Once a poset is built, every atom-of-the-coarse-context is
recorded as a bit mask over the fine context's atoms, and all downstream
reasoning is exact on those masks.

This module is the float side: it decides each inclusion and meet once
and hands the masks to the float-free kernel in `index` (`PosetIndex`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import (
    CONTAINMENT_CHUNK,
    _EPS,
    HermitianOperator,
    LinalgError,
    Projector,
    _SCREEN_ROUNDING,
    _chunks,
    byte_kinds,
    commutes,
    eig_hermitian,
    identity_projector,
    product_max,
    projector_ranks,
)
from .index import Character, ContextError, LatticeElement, PosetIndex, _mask_bits, _row_masks, bit_list
from .tolerances import DEFAULT, Tolerances

MAX_ATOMS_FOR_LATTICE = 20


# Complex entries of one row block of the inclusion screen's overlap
# product: whole contexts are taken while their atoms times the stored atoms
# stay within it (at least one context per block).
_SCREEN_BLOCK = 4 * CONTAINMENT_CHUNK


def _canonical_permutation(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The canonical order of the atoms of several contexts, stacked: one
    stable `np.lexsort` with the owning context's index `owner` as its
    primary key, so each context's atoms stay together, in context order,
    then by descending matrix entries, their real and imaginary parts in
    row-major order compared lexicographically under the key
    -round(part, 9) (so the standard-basis atoms keep their natural order);
    atoms whose keys all agree keep their input order.  The parts are
    rounded as numpy float64, whose rounding can differ from a Python
    float's at a tie."""
    keys = -np.round(stack.reshape(len(stack), -1).view(np.float64), 9)
    return np.lexsort((*keys.T[::-1], owner))


@lru_cache(maxsize=None)
def _atom_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) index arrays of the pairs i < j of n atoms, in
    `itertools.combinations` order; read-only, as they are shared."""
    pairs = np.triu_indices(n, 1)
    for ix in pairs:
        ix.flags.writeable = False
    return pairs


@dataclass(frozen=True, eq=False)
class Context:
    """A commutative algebra given by its ordered list of atoms, with the
    tolerances it was validated at; its lattice projectors are validated
    at the same tolerances.

    Validation takes the atoms in checks of increasing cost, raising on the
    first that fails: one dimension, no zero atom, pairwise orthogonality
    (max|a b| < tol.atom) and the identity as their sum within tol.atom.
    A context is the one-item call of `build_contexts`.  `stack` holds the
    atoms' entries in atom order, read-only, shape (n_atoms, dim, dim)."""

    id: str
    atoms: tuple[Projector, ...]
    tol: Tolerances

    def __init__(self, id: str, atoms, tol: Tolerances = DEFAULT):
        (atoms, stack), = _validated([(id, tuple(atoms))], tol)
        self._settle(id, atoms, tol, stack)

    def _settle(self, id: str, atoms: tuple[Projector, ...], tol: Tolerances, stack: np.ndarray) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "stack", stack)
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
        once per mask and validated at the context's tolerances: the
        one-request case of `lattice_projectors`."""
        p = self._projectors.get(mask)
        return p if p is not None else lattice_projectors([(self, mask)])[0]

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


def build_contexts(specs, tol: Tolerances = DEFAULT) -> list[Context]:
    """The contexts of (id, atoms) specs, validated at `tol` as one batch:
    the batch form of `Context`, raising what building them one at a time,
    in order, would raise first.

    The checks of one dimension and no zero atom are made atom by atom, and
    the first context failing one caps the batch: the contexts before it
    are all that one-at-a-time building would check first.  Those are
    checked in one pass per dimension (a document has one): one
    `product_max` over the atom pairs i < j of every context, one
    `_ordered_sums` of every context's atoms, added in atom order (bit for
    bit the float `stack.sum(axis=0)` gives, up to the sign of a zero
    entry, which the max-abs test ignores), and one `_canonical_permutation`
    that puts each context's atoms in canonical order.  The first context
    failing a float check raises it, orthogonality before the identity;
    if none does, the capping context raises its own failure."""
    specs = [(cid, tuple(atoms)) for cid, atoms in specs]
    out = []
    for (cid, _), (atoms, stack) in zip(specs, _validated(specs, tol)):
        c = object.__new__(Context)
        c._settle(cid, atoms, tol, stack)
        out.append(c)
    return out


def _atom_error(atoms: tuple[Projector, ...]) -> ContextError | None:
    """The first failure of a context's per-atom checks, if any."""
    if not atoms:
        return ContextError("a context needs at least one atom")
    dim = atoms[0].dim
    for a in atoms:
        if a.dim != dim:
            return ContextError("atoms of mixed dimension")
        if a.rank < 1:
            return ContextError("zero atom in context")
    return None


def _validated(specs: list, tol: Tolerances) -> list[tuple[tuple[Projector, ...], np.ndarray]]:
    """(atoms in canonical order, their read-only stack) per (id, atoms)
    spec, checked as `build_contexts` describes."""
    capped = None
    for k, (_, atoms) in enumerate(specs):
        capped = _atom_error(atoms)
        if capped is not None:
            specs = specs[:k]
            break
    out: list = [None] * len(specs)
    failed: dict[int, str] = {}
    for dim in dict.fromkeys(atoms[0].dim for _, atoms in specs):
        group = [k for k, (_, atoms) in enumerate(specs) if atoms[0].dim == dim]
        atoms = [a for k in group for a in specs[k][1]]
        sizes = np.array([len(specs[k][1]) for k in group])
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(group)), sizes)
        stack = np.array([a.entries for a in atoms])
        pairs = [_atom_pairs(n) for n in sizes.tolist()]
        first = np.concatenate([i + s for (i, _), s in zip(pairs, starts.tolist())])
        second = np.concatenate([j + s for (_, j), s in zip(pairs, starts.tolist())])
        skew = np.zeros(len(group), dtype=bool)
        skew[owner[first[~(product_max(stack, first, second) < tol.atom)]]] = True
        width = np.arange(sizes.max())
        sums = _ordered_sums(stack, np.minimum(starts[:, np.newaxis] + width, len(stack) - 1),
                             width < sizes[:, np.newaxis])
        apart = np.abs(sums - np.eye(dim)).max(axis=(1, 2)) > tol.atom
        for g in np.flatnonzero(skew | apart).tolist():
            cid = specs[group[g]][0]
            failed[group[g]] = (f"atoms of context {cid!r} are not orthogonal" if skew[g]
                                else f"atoms of context {cid!r} do not resolve the identity")
        perm = _canonical_permutation(stack, owner)
        ordered = stack[perm]
        ordered.flags.writeable = False
        atoms = [atoms[i] for i in perm.tolist()]
        for k, s, n in zip(group, starts.tolist(), sizes.tolist()):
            out[k] = (tuple(atoms[s:s + n]), ordered[s:s + n])
    if failed:
        raise ContextError(failed[min(failed)])
    if capped is not None:
        raise capped
    return out


def lattice_projectors(requests) -> list[Projector]:
    """The lattice projectors of (context, mask) requests, in order: the
    batch form of `Context.projector`.  The requests not built yet are
    built together: each is its mask's atoms summed in ascending atom
    order, and every run of requests whose contexts share a dimension and a
    tolerance set is validated as one stack, in one `projector_ranks` call.
    A failure raises what building the requests one at a time, in order,
    would raise first: a mask out of range, one with `mask >> n_atoms`
    nonzero, raises after the requests before it are built."""
    requests = list(requests)
    todo = {}
    for q, (c, mask) in enumerate(requests):
        if mask not in c._projectors:
            if mask >> len(c.atoms):
                lattice_projectors(requests[:q])
                raise ContextError(f"mask {mask} out of range for context {c.id!r}")
            todo.setdefault((id(c), mask), (c, mask))
    for _, run in itertools.groupby(todo.values(), key=lambda r: (r[0].dim, r[0].tol)):
        run = list(run)
        owners = list({id(c): c for c, _ in run}.values())
        start = dict(zip(map(id, owners), np.cumsum([0] + [c.n_atoms for c in owners]).tolist()))
        every = np.concatenate([c.stack for c in owners])
        width = max(c.n_atoms for c in owners)
        # a context's atoms t, or any atom past them, where no bit is set
        index = np.minimum(np.array([start[id(c)] for c, _ in run])[:, np.newaxis] + np.arange(width),
                           len(every) - 1)
        entries = _ordered_sums(every, index, _mask_bits([mask for _, mask in run], width))
        entries.flags.writeable = False
        ranks = projector_ranks(entries, run[0][0].tol)
        for (c, mask), e, rank in zip(run, entries, ranks):
            c._projectors[mask] = Projector._validated(e, rank)
    return [c._projectors[mask] for c, mask in requests]


def trivial_context(dim: int, id: str = "Vtriv", tol: Tolerances = DEFAULT) -> Context:
    """The one-atom context of the identity, validated once: one atom has
    no pair to test for orthogonality and sums to the identity exactly, so
    of `Context`'s checks only the per-atom ones (no zero atom) are left."""
    atoms = (identity_projector(dim, tol),)
    error = _atom_error(atoms)
    if error is not None:
        raise error
    c = object.__new__(Context)
    c._settle(id, atoms, tol, atoms[0].entries[np.newaxis])
    return c


def context_from_operators(
    ops: list[HermitianOperator],
    id: str = "V",
    tol: Tolerances = DEFAULT,
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
    blocks: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for op in ops:
        eig = eig_hermitian(op, tol)
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
        for _, proj in eig_hermitian(op, tol):
            if ctx.member_mask(proj, tol) is None:
                raise ContextError("joint refinement failed: spectral projector not in lattice")
    return ctx


def inclusion(v2: Context, v1: Context, tol: Tolerances = DEFAULT) -> bool:
    """True iff v2 <= v1: every atom of v2 is a sum of atoms of v1."""
    if v2.dim != v1.dim:
        raise ContextError("dimension mismatch")
    return all(v1.member_mask(a2, tol) is not None for a2 in v2.atoms)


def lattice_elements(v: Context) -> list[LatticeElement]:
    """All 2^n masks of the context's Boolean lattice."""
    if v.n_atoms > MAX_ATOMS_FOR_LATTICE:
        raise ContextError(f"context {v.id!r} has too many atoms to enumerate")
    return [LatticeElement(v.id, m) for m in range(1 << v.n_atoms)]


def evaluate(v: Context, kappa: Character, a: HermitianOperator, tol: Tolerances = DEFAULT) -> float:
    """Gelfand evaluation of an algebra member at a character.

    `a` must be constant on each atom's range (i.e. lie in the algebra);
    the value at `kappa` is the constant on its atom.  The one-group case
    of `_evaluations`: an atom whose defect exceeds `tol.atom` puts `a`
    outside the algebra.
    """
    if kappa.context_id != v.id:
        raise ContextError("character does not belong to this context")
    if not 0 <= kappa.atom_index < v.n_atoms:
        raise ContextError(f"atom index {kappa.atom_index} out of range for context {v.id!r}")
    if a.dim != v.dim:
        raise ContextError("dimension mismatch")
    _, c, defect = _evaluations([(v, a.entries)])
    if (defect > tol.atom).any():
        raise ContextError("operator is not in the context's algebra")
    return float(c[kappa.atom_index])


def _evaluations(groups: list[tuple[Context, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each (context, matrix) group g, rows first[g] to first[g + 1]:
    per atom of the context in order, the matrix's Gelfand value c there,
    Re tr(atom @ matrix) / rank, and its defect, max|atom @ matrix - c
    atom|.  The products are one stacked matmul per dimension."""
    sizes = np.array([v.n_atoms for v, _ in groups], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(sizes)])
    c, defect = np.zeros(first[-1]), np.zeros(first[-1])
    by_dim: dict[int, list[int]] = {}
    for g, (v, _) in enumerate(groups):
        by_dim.setdefault(v.dim, []).append(g)
    for at in by_dim.values():
        owners = [groups[g][0] for g in at]
        n = sizes[at]
        rows = np.arange(n.sum()) + np.repeat(first[at] - (np.cumsum(n) - n), n)
        stack = np.concatenate([o.stack for o in owners])
        gen = np.repeat(np.array([groups[g][1] for g in at]), n, axis=0)
        products = np.matmul(stack, gen)
        c[rows] = np.trace(products, axis1=1, axis2=2).real / [a.rank for o in owners for a in o.atoms]
        defect[rows] = np.abs(products - c[rows][:, np.newaxis, np.newaxis] * stack).max(axis=(1, 2))
    return first, c, defect


def v_of_p(v: Context, p: LatticeElement) -> frozenset[Character]:
    """The characters valuing the lattice element at 1: one per atom in the mask."""
    if p.context_id != v.id:
        raise ContextError("lattice element belongs to a different context")
    if not 0 <= p.mask <= v.full_mask:
        raise ContextError(f"mask {p.mask} out of range for context {v.id!r}")
    return frozenset(Character(v.id, i) for i in bit_list(p.mask))


@dataclass(frozen=True, eq=False)
class LatticeStack:
    """Every lattice projector of a poset's contexts in one read-only
    array: the projector of (context index i, mask m) is
    `entries[offsets[i] + m]`, contexts in index order, masks ascending.

    Cells repeat matrices: every null proposition is the zero matrix, and
    contexts sharing atoms share their sums (the closed Peres-24 document
    has 251 distinct matrices in 806 cells).  `distinct` keeps each matrix
    once, keyed by its bytes, so a decision made per matrix is made once
    per distinct one; equal bytes give equal floats, hence the decision
    each cell would get on its own."""

    entries: np.ndarray   # shape (cells, dim, dim)
    offsets: tuple[int, ...]

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(the distinct matrices, read-only, in the order of their first
        cell; each cell's row among them), found on first use."""
        which = np.array(byte_kinds(self.entries, {}), dtype=np.intp)
        matrices = self.entries[np.unique(which, return_index=True)[1]]
        matrices.flags.writeable = False
        return matrices, which


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """A finite fragment of the inclusion poset of contexts.

    Stores, for every comparable pair (v2 <= v1), the partition map giving
    each v2-atom as a bit mask over v1's atoms; everything downstream works
    on these exact encodings.  Immutable; `version` stamps derived data
    such as sieves.  The accessors below read `index`, which is built once,
    on first use; so is `lattice`, the stacked lattice projectors, whose
    distinct matrices state valuations decide in one batch.
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

    @cached_property
    def lattice(self) -> LatticeStack:
        """Every lattice projector of every context, stacked once, on first
        use, with its distinct matrices found on their first use.  They come
        from one `lattice_projectors` batch, so each is validated at its
        context's tolerances."""
        index = self.index
        offsets = np.cumsum([0] + [1 << n for n in index.n_atoms]).tolist()[:-1]
        mats = [p.entries for p in lattice_projectors(
            (self.contexts[cid], m) for cid, n in zip(index.ids, index.n_atoms) for m in range(1 << n))]
        if len({m.shape for m in mats}) > 1:
            raise ContextError("contexts of mixed dimension")
        entries = np.array(mats) if mats else np.zeros((0, 0, 0), dtype=complex)
        entries.flags.writeable = False
        return LatticeStack(entries, tuple(offsets))

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
    store.add_many(contexts)
    if add_trivial and not (store.sizes == 1).any():
        store.add_many([trivial_context(dim, tol=tol)])
    if close_under_meets:
        store.close_under_meets()
    ctxs = store.ctxs
    ids = [c.id for c in ctxs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ContextError(f"distinct contexts share ids: {dupes}")
    order, pmaps = store.inclusion()
    poset = ContextPoset(
        contexts={c.id: c for c in ctxs},
        order=frozenset(order),
        partition_maps=pmaps,
    )
    _check_partial_order(poset)
    return poset


class _ContextStore:
    """The contexts of one `build_poset` call, with their atoms linked and
    their lattice elements interned.

    Contexts come in batches, a document's contexts or one closure round's
    meets, and each batch is interned and linked at once (see `add_many`).
    Every stored context's atoms join one global stack, in storage order;
    `starts`, `sizes` and `ranks` hold each context's first atom and atom
    count and each atom's rank, as arrays.  The links are one bool matrix
    `link` over the stored atoms: [g, t] when atom g, stored in an earlier
    context than atom t, is not orthogonal to it, max|g t| >= tol.atom with
    the earlier atom on the left.  Its last row and column, index n for n
    stored atoms, are False and pad the stacks `_reach` gathers.  A
    context's column block is decided when it is added, from one overlap
    product and a gathered product of the pairs it leaves open; a closure
    round gathers every pair's links from the matrix, and from them its
    connectivity and, for the disconnected pairs, their components and the
    sums that decide them.

    A product is taken once per ordered pair of bit-distinct atom
    matrices.  Each stored atom has a kind, its index among the stored
    atoms' distinct byte strings (`byte_kinds`), and `_decided` holds the
    bit of each (kind of g, kind of t) decided so far, -1 if none, growing
    geometrically.  A pair's float max|g t| depends only on its matrices'
    bytes, so all pairs of the same kinds, g on the left, share one
    product's bit.  Kinds are keyed by bytes, not by interned element, and
    links kept per stored atom, because interning is not transitive at
    `tol.atom`: an interned representative may link where the atom it
    stands for does not.  A zero's sign splits kinds, costing only dedup.

    Each projector that is a sum of one context's atoms is stored once: it
    joins the first stored projector within `tol.atom` in max-abs entries
    (the test `Projector.equals` makes), or gets a new id (see
    `_intern_many`).  A context is then keyed by the set of its atoms' ids,
    so two contexts are the same algebra exactly when their keys match,
    and a candidate meet is looked up before any `Context` is built for it.
    """

    def __init__(self, tol: Tolerances):
        self.tol = tol
        self.ctxs: list[Context] = []
        self.keys: set[frozenset[int]] = set()
        self.every: np.ndarray | None = None   # every stored atom, shape (n, dim, dim)
        self.starts = np.zeros(0, dtype=np.int64)   # global index of the first atom of ctxs[k]
        self.sizes = np.zeros(0, dtype=np.int64)   # atom count of ctxs[k]
        self.ranks = np.zeros(0, dtype=np.int64)   # rank of each stored atom
        self.link = np.zeros((1, 1), dtype=bool)   # (n + 1)^2, see the class docstring
        self.kinds = np.zeros(0, dtype=np.intp)   # each stored atom's kind (`byte_kinds`)
        self._kind_ids: dict[bytes, int] = {}   # the stored atoms' distinct bytes -> kind
        self._decided = np.zeros((0, 0), dtype=np.int8)   # link bit per (kind, kind), -1 undecided
        self.frobenius = 0.0   # the largest ||p||_F^2 of a stored atom
        self._element_ids: dict[tuple[int, int], int] = {}   # (context index, mask) -> id
        self._interned = 0
        self._elements: np.ndarray | None = None   # the interned projectors by id, with spare rows

    def _intern_many(self, stack: np.ndarray) -> list[int]:
        """The ids that interning each matrix of `stack` in turn would give:
        the smallest id of a stored projector within `tol.atom` of it in
        max-abs entries, or else a new id, under which it is stored, so a
        later matrix of the batch may match it.

        Candidates come from one sort of the keys Re p[0, 0] of the stored
        projectors and of the batch.  The float key difference
        fl(Re x00 - Re y00) is the real part of an entry of the difference
        the max-abs test takes, so at most that entry's modulus: for a pair
        within tol.atom it is below atom, the exact difference below
        atom / (1 - eps / 2), and a window of 2 atom + 4 eps |key| on each
        side of a matrix's key, found by two `searchsorted` calls, holds
        every such key in spite of its own rounding.  The candidates
        (stored projectors, and earlier matrices of the batch) take the
        max-abs test in one chunked batch.

        The first-stored rule is then a loop over ints, in batch order: a
        matrix within atom of a stored projector takes the smallest such
        id, as every stored id precedes the batch's new ones; else the
        first earlier matrix of the batch that got a new id, as new ids
        ascend in batch order; else the next new id.  A matrix that took a
        stored id is not stored, so it matches no later one."""
        n, m = self._interned, len(stack)
        if not m:
            return []
        if self._elements is None or n + m > len(self._elements):
            grown = np.empty((2 * (n + m),) + stack.shape[1:], dtype=complex)
            if n:
                grown[:n] = self._elements[:n]
            self._elements = grown
        pool = self._elements[:n + m]
        pool[n:] = stack   # the batch where its new rows will go
        key = pool[:, 0, 0].real
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        reach = 2 * self.tol.atom + 4 * _EPS * np.abs(key[n:])
        lo = np.searchsorted(ranked, key[n:] - reach, side="left")
        count = np.searchsorted(ranked, key[n:] + reach, side="right") - lo
        q = np.repeat(np.arange(m), count)
        other = order[np.arange(len(q)) + np.repeat(lo - np.cumsum(count) + count, count)]
        before = other < n + q
        q, other = q[before], other[before]
        close = np.empty(len(q), dtype=bool)
        for c in _chunks(len(q), pool.shape[1] * pool.shape[2]):
            close[c] = np.abs(pool[other[c]] - pool[n + q[c]]).max(axis=(1, 2)) < self.tol.atom
        q, other = q[close], other[close]
        stored = other < n
        hit = np.full(m, n)
        np.minimum.at(hit, q[stored], other[stored])
        q, other = q[~stored], other[~stored] - n
        by = np.lexsort((other, q))   # each matrix's earlier batch matches, ascending
        bounds = np.searchsorted(q[by], np.arange(m + 1)).tolist()
        other = other[by].tolist()
        ids: list[int] = []
        new: dict[int, int] = {}   # batch row -> its new id
        for r, eid in enumerate(hit.tolist()):
            if eid == n:
                eid = next((new[p] for p in other[bounds[r]:bounds[r + 1]] if p in new), None)
                if eid is None:
                    eid = new[r] = n + len(new)
            ids.append(eid)
        pool[n:n + len(new)] = stack[list(new)]
        self._interned = n + len(new)
        return ids

    def add_many(self, contexts: list[Context], atom_ids: list[list[int]] | None = None) -> None:
        """Store each context unless its algebra is stored, in order, so a
        context repeating an earlier one's algebra, in the store or in the
        batch, is dropped; `atom_ids`, when given, are each context's atoms'
        interned ids, in its atom order.  Otherwise every atom of the batch
        is interned in one `_intern_many` call, in context and atom order.
        A context is kept when the frozenset of its atom ids is no key yet.

        A kept context's column block of `link`, [g, t] when max|g t| >=
        tol.atom for atom g stored before it and its atom t, is decided from
        one overlap product first: Re tr(g t) for every such pair, the sum
        of g_kl t_lk over flattened matrices.  The trace is a sum of d
        diagonal entries, so |tr(g t)| <= d max|g t| in exact arithmetic.
        The float overlap is within d^2 eps F of the exact trace and each
        float entry of g t within 2 (d + 1) eps F of its exact value, F =
        ||g||_F ||t||_F (see `_SCREEN_ROUNDING`; the modulus adds eps
        |entry|).  So an overlap of at least d tol.atom + s, the slack s = 2
        _SCREEN_ROUNDING d^2 F_max^2 (twice the screen's band, F_max^2 the
        largest ||p||_F^2 of a stored atom, the batch's included), puts the
        float max|g t| at or above tol.atom: the pair links, and no product
        is taken for it.  Every other pair reads its kinds' bit off
        `_decided` (see the class docstring); of those whose kinds are
        undecided, the first of each kind pair in row order takes that
        float max|g t|, in one gathered stacked product for the batch
        (`product_max`, the broadcast product's float per pair).  So each
        bit is the decision one pair's product makes: on the closed 18-ray
        set 144 products decide 549 open pairs, on closed Peres-24 410
        decide 8,628.

        The overlap product takes every atom stored before the batch's last
        kept context against every kept atom, in column blocks of at most
        `_SCREEN_BLOCK` entries; a kept context's block is its columns, cut
        at the atoms stored before it.  `link` grows once per batch: the old
        matrix is copied into the grown one and the batch's cut columns
        written beside it.  The bounds hold for any summation order and a
        larger F_max only raises the slack, so the product's shape and the
        batch's atoms move pairs between the proof and the exact product,
        never a bit; nor does the table, which holds the float of the
        same bytes."""
        contexts = list(contexts)
        if atom_ids is None:
            flat = self._intern_many(np.concatenate([c.stack for c in contexts])) if contexts else []
            ends = np.cumsum([c.n_atoms for c in contexts]).tolist()
            atom_ids = [flat[e - c.n_atoms:e] for c, e in zip(contexts, ends)]
        kept = []
        for c, ids in zip(contexts, atom_ids):
            key = frozenset(ids)
            if key not in self.keys:
                self.keys.add(key)
                kept.append((c, ids))
        if not kept:
            return
        stack = np.concatenate([c.stack for c, _ in kept])
        n, dim = (0 if self.every is None else len(self.every)), stack.shape[1]
        every = stack if self.every is None else np.concatenate([self.every, stack])
        sizes = np.array([c.n_atoms for c, _ in kept])
        starts = n + np.cumsum(sizes) - sizes   # global index of each kept context's first atom
        flat = stack.reshape(len(stack), dim * dim)
        self.frobenius = max(self.frobenius, float((np.abs(flat) ** 2).sum(axis=1).max()))
        slack = 2 * _SCREEN_ROUNDING * dim * dim * self.frobenius
        rows = int(starts[-1])
        lead = every[:rows].reshape(rows, dim * dim)
        turned = stack.transpose(0, 2, 1).reshape(len(stack), -1)
        cut = np.repeat(starts, sizes)   # per kept atom, the atoms stored before its context
        kinds = np.concatenate([self.kinds, byte_kinds(stack, self._kind_ids)])
        if len(self._kind_ids) > len(self._decided):
            table = np.full((2 * len(self._kind_ids),) * 2, -1, dtype=np.int8)
            table[:len(self._decided), :len(self._decided)] = self._decided
            self._decided = table
        link = np.zeros((rows, len(stack)), dtype=bool)
        step = max(1, _SCREEN_BLOCK // max(1, rows))
        for c in range(0, len(stack), step):
            top = int(cut[min(c + step, len(stack)) - 1])
            link[:top, c:c + step] = (lead[:top] @ turned[c:c + step].T).real >= dim * self.tol.atom + slack
        before = np.arange(rows)[:, np.newaxis] < cut
        g, t = np.nonzero(~link & before)
        code = kinds[g] * len(self._decided) + kinds[n + t]   # each open pair's cell of the table
        decided = self._decided.reshape(-1)
        new = np.flatnonzero(decided[code] < 0)
        new = new[np.unique(code[new], return_index=True)[1]]
        decided[code[new]] = product_max(every, g[new], n + t[new]) >= self.tol.atom
        link[g, t] = decided[code] > 0
        grown = np.zeros((len(every) + 1, len(every) + 1), dtype=bool)
        grown[:n, :n] = self.link[:n, :n]
        grown[:rows, n:len(every)] = link & before
        for c, ids in kept:
            for i, eid in enumerate(ids):
                self._element_ids[(len(self.ctxs), 1 << i)] = eid
            self.ctxs.append(c)
        self.starts = np.concatenate([self.starts, starts])
        self.sizes = np.concatenate([self.sizes, sizes])
        self.ranks = np.concatenate([self.ranks, [a.rank for c, _ in kept for a in c.atoms]])
        self.link = grown
        self.every = every
        self.kinds = kinds

    def _reach(self, first: np.ndarray, second: np.ndarray):
        """(reach, link, rows, cols) for the pairs of stored contexts
        (first[p] < second[p]), each padded to the widest context.

        The padded (pairs, width, width) link stack is gathered from `link`:
        link[p, s, t] when the first context's atom s links to the second's
        atom t.  rows and cols hold the global indices of the two contexts'
        atoms, the atom count marking padding, which links to nothing.
        A-atoms linked through a common b-atom are adjacent, and squaring
        that reachability matrix about log2(width) times joins each
        component: reach[p, s, u] when a-atoms s and u lie in one component.
        No link is decided again."""
        size = int(self.sizes.max())
        t = np.arange(size)
        atoms = np.where(t < self.sizes[:, np.newaxis], self.starts[:, np.newaxis] + t, len(self.every))
        rows, cols = atoms[first], atoms[second]
        link = self.link[rows[:, :, np.newaxis], cols[:, np.newaxis, :]]
        reach = link @ link.transpose(0, 2, 1) | np.eye(size, dtype=bool)
        for _ in range(max(size - 2, 0).bit_length()):   # paths of up to size - 1 steps
            reach = reach @ reach
        return reach, link, rows, cols

    def split_meets(self, first: np.ndarray, second: np.ndarray) -> list[tuple[int, int, list[int], dict]]:
        """(i, j, masks, sums) for the pairs of stored contexts (first[p] <
        second[p]) whose link graph is disconnected, in the given order:
        the atoms of the intersection of their algebras, as increasing
        masks over context i's atoms, and the atom sum of context i over
        each mask that is a whole component.

        A common element is a sum of whole components of the link graph,
        so a component whose a-sum equals its b-sum within `tol.atom` is an
        atom of the meet, and all other components together form one more.
        In exact arithmetic every component is an atom; the merged one
        arises when overlaps below `tol.atom` split a component.  The
        components of a pair are visited from their lowest a-atom up, and
        the last one is an atom without a test unless an earlier one failed.

        All of the round's components are found and decided at once: a
        component is the reach row of its lowest a-atom, its b-atoms the
        OR of those rows' links, and both sums are taken in ascending atom
        order, the float `stack[bit_list(mask)].sum(axis=0)` gives, in one
        batched max-abs test.  A side that recurs across pairs, the same
        atoms of one context, is summed once."""
        if not first.size:
            return []
        reach, link, rows, cols = self._reach(first, second)
        pad = len(self.every)
        split = np.flatnonzero(~(reach[:, 0] | (rows == pad)).all(axis=1))
        if not split.size:
            return []
        reach, link, rows, cols = reach[split], link[split], rows[split], cols[split]
        size = reach.shape[1]
        below = np.tri(size, size, -1, dtype=bool)   # [s, u] when u < s
        pair, lead = np.nonzero(~(reach & below).any(axis=2) & (rows != pad))
        in_a = reach[pair, lead]
        in_b = (in_a[:, :, np.newaxis] & link[pair]).any(axis=1)
        # a component as its global atoms, padded: a-sides, then b-sides;
        # each distinct one is summed once
        chosen = np.concatenate([np.where(in_a, rows[pair], pad), np.where(in_b, cols[pair], pad)])
        parts, which = _unique_rows(chosen)
        summed = _ordered_sums(self.every, np.minimum(parts, pad - 1), parts != pad)
        a_of, b_of = which[:len(pair)], which[len(pair):]
        equal = np.empty(len(pair), dtype=bool)
        for c in _chunks(len(pair), summed.shape[1] * summed.shape[2]):
            equal[c] = np.abs(summed[a_of[c]] - summed[b_of[c]]).max(axis=(1, 2)) < self.tol.atom
        equal, a_of = equal.tolist(), a_of.tolist()
        comps = _row_masks(in_a)
        bounds = np.searchsorted(pair, np.arange(len(split) + 1)).tolist()
        out = []
        for p, (i, j) in enumerate(zip(first[split].tolist(), second[split].tolist())):
            masks, sums, rest = [], {}, 0
            last = bounds[p + 1] - 1
            for c in range(bounds[p], last + 1):
                if equal[c] or (c == last and not rest):   # the last component is an atom either way
                    masks.append(comps[c])
                    sums[comps[c]] = summed[a_of[c]]
                else:
                    rest |= comps[c]
            if rest:
                masks.append(rest)
            out.append((i, j, sorted(masks), sums))
        return out

    def close_under_meets(self) -> None:
        """Add pairwise algebra intersections until closure (trivial meets
        skipped).

        Each round decides the meets of all its pairs at once, in
        `split_meets`: a pair whose link graph is connected has a trivial
        meet and is dropped there.  A pair whose contexts both predate the
        previous round was met then, and its meet is present, so it is not
        met again.  The meets are then looked up one by one, in
        `itertools.combinations` order, as a plain rescan would, so each
        new meet keeps the id of the first pair that produces it; a round's
        meets depend only on the link bits and atoms of contexts stored
        before it, so deciding them ahead changes nothing.  The round's
        lattice elements not interned yet are interned as one batch, in the
        order a pair-by-pair lookup would first use them.  The atoms of the
        round's new meets are built as one `lattice_projectors` batch, and
        the meets up to the first whose atoms fail are validated as one
        `build_contexts` batch and stored as one `add_many` batch; that
        failure, if any, is raised after theirs.
        """
        old = 0
        while True:
            n = len(self.ctxs)
            first, second = np.triu_indices(n, 1)
            fresh = second >= old
            split = [s for s in self.split_meets(first[fresh], second[fresh]) if len(s[2]) > 1]
            # the round's elements not interned yet, in first-use order, as one batch
            todo = {}
            for i, _, masks, sums in split:
                for m in masks:
                    if (i, m) not in self._element_ids and (i, m) not in todo:
                        todo[(i, m)] = sums[m] if m in sums else self.ctxs[i].stack[bit_list(m)].sum(axis=0)
            if todo:
                self._element_ids.update(zip(todo, self._intern_many(np.array(list(todo.values())))))
            meets, keys = [], set()
            for i, j, masks, _ in split:
                eids = [self._element_ids[(i, m)] for m in masks]
                key = frozenset(eids)
                if key not in self.keys and key not in keys:
                    keys.add(key)
                    meets.append((i, j, masks, eids))
            try:
                lattice_projectors((self.ctxs[i], m) for i, _, masks, _ in meets for m in masks)
            except LinalgError:
                pass   # raised again below, after the checks of the meets before it
            specs, eid_maps, failed = [], [], None
            for i, j, masks, eids in meets:
                a, b = self.ctxs[i], self.ctxs[j]
                try:
                    # each atom's entries are its element's sum, so they intern to its id
                    eid_of = {a.projector(m): eid for m, eid in zip(masks, eids)}
                except LinalgError as exc:
                    failed = exc
                    break
                specs.append((f"meet({a.id},{b.id})", list(eid_of)))
                eid_maps.append(eid_of)
            built = build_contexts(specs, self.tol)
            if failed is not None:
                raise failed
            self.add_many(built, [[eid_of[p] for p in c.atoms] for c, eid_of in zip(built, eid_maps)])
            if len(self.ctxs) == n:
                return
            old = n

    def _screen_bounds(self) -> tuple[float, float]:
        """(band, delta) of the inclusion screen over the stored atoms: the
        rounding band of rank / 2 (`_SCREEN_ROUNDING`) and how far a
        confirmed inclusion's overlaps can lie from 0 or the rank (derived
        in `_screen`)."""
        dim = self.every.shape[1]
        band = _SCREEN_ROUNDING * dim * dim * self.frobenius
        trace = float(np.abs(np.trace(self.every, axis1=1, axis2=2).real - self.ranks).max())
        tau, tau_c = self.tol.atom, max(c.tol.atom for c in self.ctxs)
        widest = int(self.sizes.max())
        delta = (trace + dim * np.sqrt(self.frobenius) * (tau + tau_c) + (widest - 1) * dim * tau_c
                 + 2 * dim * band)
        return band, delta

    def _screen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(k, j, atom, mask) for the whole pass.  Per candidate pair, in
        row order (k ascending, then j), the stored contexts k and j that
        may satisfy ctxs[k] <= ctxs[j]; per (candidate, atom of context k),
        in candidate and then atom order, the atom's index in the global
        stack and its mask over context j's atoms, so a candidate's rows
        are its partition map.

        One pass over row blocks of whole contexts (`_SCREEN_BLOCK`): a
        block takes tr(b_m a_i) for every stored atom b_m against each of
        its atoms a_i in one product of flattened matrices, the sum of
        (b_m)_lr (a_i)_rl.  That is a different float from the one
        `Context.member_mask` takes, `np.trace(b_m @ a_i)`, but by less than
        the rounding band (see `_SCREEN_ROUNDING`), so outside the band the
        decision tr(b_m a_i) > rank(b_m) / 2 is member_mask's.  The mask of
        a_i over context j holds the b_m that pass, packed for every context
        by one `reduceat` of the atoms' bits.  For a <= b the ranks of a
        mask add up to rank(a_i), so pairs failing that count for some atom
        are dropped, the sums and the test over a's atoms also taken by
        `reduceat`.

        A pair with any entry within the band of rank(b_m) / 2 is dropped
        as well, while the guard delta + 2 band < 1/2 holds.  delta bounds
        how far tr(b_m a_i) lies from 0 or rank(b_m) when `inclusion`
        confirms a <= b.  There, with M the mask of a_i over b and S the sum
        of its atoms, E = S - a_i has max|E| < tau, the store's tol.atom.
        For any X, |tr(b X)| <= max|X| sum|b_kl| <= d F max|X|, with F^2
        the largest ||b||_F^2 of a stored atom.  Each context was validated
        at a tolerance set whose atom is at most tau_c: two of its atoms
        have |tr(b_m b_n)| <= d max|b_m b_n| < d tau_c, and its atoms sum to
        I within tau_c.  So, w being the most atoms of a stored context,
          for m not in M, tr(b_m a_i) = sum over n in M of tr(b_m b_n) -
          tr(b_m E) lies within (w - 1) d tau_c + d F tau of 0;
          for m in M, tr(b_m a_i) = tr(b_m) + tr(b_m (sum_n b_n - I)) -
          sum over n not in M of tr(b_m b_n) - tr(b_m E) lies within
          t + d F tau_c + (w - 1) d tau_c + d F tau of rank(b_m),
        t being the largest |Re tr(b) - rank(b)| of a stored atom.  The
        sums and products those checks compared are floats: a sum is off by
        at most about w^2 eps F per entry and a product by 2 (d + 1) eps F^2,
        which moves the traces above by at most 6 d^3 eps F^2 in all, and
        the term rho = 2 d band covers them.  Hence
        delta = t + d F (tau + tau_c) + (w - 1) d tau_c + rho, about 3e-7
        at the default tolerances and d = 4.  A float entry lies within
        band / 4 of its exact value, so every entry of a confirmed pair
        lies more than 1/2 - delta - band / 4 from rank(b_m) / 2, outside
        the band while the guard holds: dropping a pair with an in-band
        entry never drops an inclusion.  When the guard fails (a loose
        `--tol`), the in-band entries are taken again in member_mask's
        expression, one gathered stack of traces per block, and every
        decision is made on member_mask's float, as one pair's test makes
        it."""
        if not self.ctxs:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty, empty, empty
        every, starts, sizes, ranks = self.every, self.starts, self.sizes, self.ranks
        ends = starts + sizes
        half = ranks / 2
        band, delta = self._screen_bounds()
        drop = delta + 2 * band < 0.5
        flat = every.reshape(len(every), -1)
        turned = every.transpose(0, 2, 1).reshape(len(every), -1)
        # each atom's bit within its own context, as Python ints past 62 atoms
        local = np.arange(len(every)) - np.repeat(starts, sizes)
        bits = 1 << (local if sizes.max() < 63 else local.astype(object))
        rows = max(1, _SCREEN_BLOCK // len(every))
        first = 0
        found = []   # per block, its (k, j, atom, mask)
        while first < len(self.ctxs):
            last = max(first + 1, int(np.searchsorted(ends, starts[first] + rows, side="right")))
            lo, hi = starts[first], ends[last - 1]
            heads = starts[first:last] - lo
            overlap = (turned[lo:hi] @ flat.T).real
            near = np.abs(overlap - half) <= band
            if drop:
                clean = ~np.logical_or.reduceat(np.logical_or.reduceat(near, heads, axis=0), starts, axis=1)
            else:
                r, m = np.nonzero(near)
                if r.size:
                    overlap[r, m] = _trace_products(every, m, lo + r)
                clean = True
            inside = overlap > half
            covered = np.add.reduceat(np.where(inside, ranks, 0), starts, axis=1)
            kept = np.logical_and.reduceat(covered == ranks[lo:hi, np.newaxis], heads, axis=0) & clean
            packed = np.bitwise_or.reduceat(np.where(inside, bits, 0), starts, axis=1)
            k, j = np.nonzero(kept)
            k += first
            count = sizes[k]
            atom = np.arange(count.sum()) + np.repeat(starts[k] - (np.cumsum(count) - count), count)
            found.append((k, j, atom, packed[atom - lo, np.repeat(j, count)]))
            first = last
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def inclusion(self) -> tuple[set[tuple[str, str]], dict[tuple[str, str], tuple[int, ...]]]:
        """The inclusion order of the stored contexts and its partition
        maps, in row order: each screened candidate a <= b kept when every
        atom a_i equals the projector of its mask over b within
        `tol.atom`, the test `member_mask` makes.

        Every (candidate, atom) row of the pass is decided in one batch:
        each mask's atom sum is taken in ascending atom order by one
        `_ordered_sums`, bit for bit the float `Context.projector` stores,
        and compared with a_i in one max-abs test, chunked as `_chunks`
        sizes it.  A cumulative count of the failing rows gives each
        candidate's first failing atom: a test of one atom at a time
        reaches a row exactly when no earlier row of its candidate failed.
        The lattice projectors of the multi-atom masks it would build, on
        the rows it reaches and in its order, are then built, and so
        validated, as one `lattice_projectors` batch for the whole pass.
        A candidate is confirmed when all its rows pass (one
        `logical_and.reduceat`), and only the confirmed ones are visited in
        Python, to fill the order and the maps.  A candidate the screen
        drops for an in-band overlap is no inclusion (see `_screen`), and
        its mask projectors are neither built nor validated."""
        order: set[tuple[str, str]] = set()
        pmaps_out: dict[tuple[str, str], tuple[int, ...]] = {}
        k, j, a_atom, masks = self._screen()
        if not len(k):
            return order, pmaps_out
        every = np.concatenate([self.every, np.zeros_like(self.every[:1])])
        starts, sizes = self.starts, self.sizes
        count = sizes[k]   # rows per candidate
        head = np.cumsum(count) - count   # each candidate's first row
        b_of = np.repeat(j, count)
        t = np.arange(sizes.max())
        index = starts[b_of][:, np.newaxis] + t
        index[t >= sizes[b_of][:, np.newaxis]] = len(every) - 1
        sums = _ordered_sums(every, index, ((masks[:, np.newaxis] >> t) & 1).astype(bool))
        equal = np.empty(len(sums), dtype=bool)
        for c in _chunks(len(sums), sums.shape[1] * sums.shape[2]):
            equal[c] = np.abs(sums[c] - every[a_atom[c]]).max(axis=(1, 2)) < self.tol.atom
        failed = np.cumsum(~equal) - ~equal   # failing rows before each row
        reached = failed == np.repeat(failed[head], count)
        multi = reached & (masks & (masks - 1) != 0).astype(bool)
        built = [(self.ctxs[b], m) for b, m in zip(b_of[multi].tolist(), masks[multi].tolist())]
        held = np.logical_and.reduceat(equal, head)
        rows = masks[np.repeat(held, count)].tolist()
        ends = np.cumsum(count[held]).tolist()
        for a, b, n, end in zip(k[held].tolist(), j[held].tolist(), count[held].tolist(), ends):
            key = (self.ctxs[a].id, self.ctxs[b].id)
            order.add(key)
            pmaps_out[key] = tuple(rows[end - n:end])
        lattice_projectors(built)
        return order, pmaps_out


def _trace_products(every: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Re tr(every[first[p]] @ every[second[p]]) per pair p, in one stacked
    product: the float `Context.member_mask` takes for each."""
    return np.trace(every[first] @ every[second], axis1=1, axis2=2).real


def _ordered_sums(every: np.ndarray, index: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Per row r, the sum of every[index[r, t]] over the t with
    chosen[r, t], added in ascending t: bit for bit the float that summing
    the chosen atoms of a stack along its first axis gives, up to the sign
    of a zero entry."""
    out = np.zeros((len(index),) + every.shape[1:], dtype=every.dtype)
    atoms = np.empty_like(out)
    for t in range(index.shape[1]):
        np.add(out, np.take(every, index[:, t], axis=0, out=atoms), out=out,
               where=chosen[:, t, np.newaxis, np.newaxis])
    return out


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows, the index of each row among them) of a 2-D array,
    found by one `np.lexsort` of its columns."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(rows), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return ranked[new], which


def _check_partial_order(poset: ContextPoset) -> None:
    """Reflexivity, antisymmetry and transitivity of `poset.order` over its
    ids, on one bool matrix of the index's down-sets: down[j, i] when
    ids[i] <= ids[j].  Each law is one array test, and a failing one
    raises as a walk over the down-sets in index order would: the first
    mutually included pair (i, j), i < j, in row-major order, is named.
    Transitivity squares the 0/1 matrix as float32, whose path counts are
    exact below 2^24, in any summation order."""
    ids = poset.index.ids
    if not ids:
        return
    down = _mask_bits(list(poset.index.down), len(ids))
    if not down.diagonal().all():
        raise ContextError("inclusion is not reflexive")
    mutual = np.triu(down & down.T, 1)
    if mutual.any():
        i, j = divmod(int(mutual.argmax()), len(ids))
        raise ContextError(f"distinct contexts {ids[i]!r}, {ids[j]!r} are mutually included")
    counts = down.astype(np.float32)
    if (((counts @ counts) > 0) & ~down).any():
        raise ContextError("inclusion is not transitive")
