"""The category of discrete-spectrum self-adjoint operators.

Objects are operators carried with their spectral decomposition; a
morphism B -> A exists when B is a function of A, and is represented by
that function's restriction to the spectrum of A.  In finite dimension
every spectrum is finite, so images of spectra are spectra on the nose and
the support/coarse-graining identities hold exactly.  Eigenvalues are
snapped to canonical representatives so that all set operations on reals
are exact.

Behind the frozenset API, a set of eigenvalues is an int mask over
spectrum indices (`ODecomposition.mask_of`, which refuses a value outside
the spectrum with `OcatError`).  Each `ODecomposition` builds the
spectral projectors of all its masks as one stack, validated in one test
at the tolerances it was built with (which f(A) keeps from A), and each
`EigenvalueMap` carries, per domain index, the bit of its value in the
sorted codomain, so images and preimages are ORs of bits.

The arrows of an `OperatorCategory` form the same `PosetIndex` that a
poset of contexts uses: an arrow B -> A is the pair (B, A), and its
partition map sends each eigenvalue of B to the mask of A's eigenvalues
that map to it.  A category decides in stacks: discovery takes one
stacked product per target (`_discover`), every arrow's image f(A) is
built in one batch (`_images`; the eigenprojector of a value is the sum of
A's eigenprojectors at its preimage), and a state's supports
take one stacked product over every eigenprojector (`_support_masks`).
Each of these float decisions has that one implementation, which the
per-pair functions `discover_morphism`, `apply_map`, `elementary_support`
and `func_subset_check` run with one entry.  A state's valuation gives
each cell (operator, delta mask) the arrows into the operator along which
delta coarse-grains to a certain projector; a query reads one cell and
runs no law.  The float decisions are made once and kept by
`OperatorCategory`:

- per tolerance set, the infimum cross-check of every delta mask of every
  operator along every arrow into it: the preimage of delta's image must
  equal the infimum over every spectral projector of f(A) that dominates
  delta's projector.  One `screened_containment_blocks` call decides them
  all, one block per target A (rows the stacked mask projectors of all
  the arrows' images into A, columns A's): a pair whose trace gap proves
  it not contained takes no product.  A query raises `OcatError` on the
  first arrow, in source order, at which its delta disagrees, or the
  error of an arrow whose image fails validation, as often as it is made.
  The test stays exhaustive: the max-abs defect is not monotone under
  projection, so the meet of the dominating co-atoms alone can differ
  from the infimum at very tight containment widths;
- per (state, tolerances), one plain record in a table keyed weakly by
  the state, so it goes when the state does, made on the state's first
  query: the support mask of each operator and of each arrow's image
  operator, from one stacked product over all their eigenprojectors, and
  per operator the row of member bits of its delta masks.  For a density
  matrix, one `certain_each` over every operator's stacked mask
  projectors decides every row; for a vector state, one stacked product
  over the distinct preimage projectors does, each norm as
  `np.linalg.norm` takes it (see `row_norms`).

The support characterization reads supports by their masks, so it stays
independent of the certainty tests it is compared with.

A vector state is recoverable from the (operator, eigenvalue-set) pairs it
makes certain, so its certainty valuation both determines and is
determined by its totally-true assignments.  That is a fact about the
family, recorded here for reference; no operation hangs off it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from operator import lt

import numpy as np

from .index import PosetIndex, _row_masks, bit_list
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    Projector,
    StateVector,
    _hermitian_defect,
    certain_each,
    eig_hermitian,
    probability_each,
    projector_checks,
    row_norms,
    screened_containment_blocks,
)
from .tolerances import DEFAULT, Tolerances


class OcatError(ValueError):
    """Bad operator-category input (unknown eigenvalue, unmatched spectrum...)."""


def canonical_values(values, tol: float = DEFAULT.eig_match) -> list[float]:
    """Chain-group a list of reals at the given width and return one
    representative per group (the smallest member), sorted."""
    vs = sorted(float(v) for v in values)
    reps = []
    for v in vs:
        if not reps or v - reps[-1][-1] > tol:
            reps.append([v])
        else:
            reps[-1].append(v)
    return [g[0] for g in reps]


def snap(value: float, anchors, tol: float = DEFAULT.eig_match) -> float:
    """The anchor closest to `value`, required to be within tolerance."""
    best = min(anchors, key=lambda a: abs(a - value))
    if abs(best - value) > tol:
        raise OcatError(f"value {value} does not match any anchor within {tol}")
    return best


@dataclass(frozen=True, eq=False)
class ODecomposition:
    """An operator with its ordered distinct eigenvalues and eigenprojectors.

    A subset of the spectrum is also an index mask (bit i for spectrum[i]).
    On the first request for any of them, the spectral projectors of all
    masks are built as one stack and validated at `tol`, the tolerances the
    decomposition was built with (see `_stack_masks`).  The spectrum must
    be strictly ascending, so a mask numbers the eigenvalues as every
    table of the category does (`EigenvalueMap.preimage_table` reads them
    in sorted order); any other order raises `OcatError`.
    """

    id: str
    operator: HermitianOperator
    spectrum: tuple[float, ...]
    eigenprojectors: tuple[Projector, ...]
    tol: Tolerances = DEFAULT

    def __post_init__(self):
        if not all(map(lt, self.spectrum, self.spectrum[1:])):
            raise OcatError(f"spectrum of operator {self.id!r} is not strictly ascending: {list(self.spectrum)}")
        object.__setattr__(self, "_position", {lam: i for i, lam in enumerate(self.spectrum)})
        object.__setattr__(self, "_projectors", {})
        object.__setattr__(self, "_subsets", {})
        object.__setattr__(self, "_checks", None)

    @classmethod
    def from_operator(cls, op: HermitianOperator, id: str = "A",
                      tol: Tolerances = DEFAULT) -> "ODecomposition":
        pairs = eig_hermitian(op, tol)
        return cls(
            id=id,
            operator=op,
            spectrum=tuple(lam for lam, _ in pairs),
            eigenprojectors=tuple(p for _, p in pairs),
            tol=tol,
        )

    @property
    def dim(self) -> int:
        return self.operator.dim

    def mask_of(self, subset) -> int:
        """The index mask of the eigenvalues in `subset`, each taken as a
        float; a value outside the spectrum raises `OcatError`."""
        mask = 0
        for x in subset:
            i = self._position.get(float(x))
            if i is None:
                raise OcatError(f"{float(x)} is not an eigenvalue of {self.id!r}")
            mask |= 1 << i
        return mask

    def subset(self, mask: int) -> frozenset[float]:
        """The eigenvalues of an index mask, one shared frozenset per mask."""
        out = self._subsets.get(mask)
        if out is None:
            if mask < 0 or mask >> len(self.spectrum):
                raise OcatError(f"mask {mask} out of range for operator {self.id!r}")
            out = self._subsets[mask] = frozenset(self.spectrum[i] for i in bit_list(mask))
        return out

    def projector(self, mask: int) -> Projector:
        """The spectral projector of an index mask, read from `mask_entries`."""
        p = self._projectors.get(mask)
        if p is None:
            if mask < 0 or mask >> len(self.spectrum):
                raise OcatError(f"mask {mask} out of range for operator {self.id!r}")
            entries, ranks = self._mask_stack
            p = self._projectors[mask] = Projector._validated(entries[mask], ranks[mask])
        return p

    @property
    def _mask_checks(self) -> tuple[np.ndarray, list[int], dict[int, LinalgError]]:
        """Every mask's spectral projector, stacked by mask, its rank, and by
        mask the error of each that fails validation (see `_stack_masks`)."""
        if self._checks is None:
            _stack_masks([self])
        return self._checks

    @property
    def _mask_stack(self) -> tuple[np.ndarray, list[int]]:
        """Every mask's spectral projector, stacked by mask, and its rank;
        raises the error of the first failing mask."""
        entries, ranks, errors = self._mask_checks
        if errors:
            raise errors[min(errors)].with_traceback(None)
        return entries, ranks

    @property
    def mask_entries(self) -> np.ndarray:
        """The entries of every mask's spectral projector, stacked by mask."""
        return self._mask_stack[0]


def _stack_masks(decomps) -> None:
    """Build the mask stack of each decomposition that has none yet, and
    validate the stacks of one dimension and tolerance set in one test.
    The projector of a mask is that of the mask without its top bit plus
    the top eigenprojector.  Each decomposition keeps its stack, the rank
    of each mask and, by mask, the error `Projector` raises on each one
    that fails validation at the decomposition's `tol`."""
    groups: dict[tuple[int, Tolerances], dict[int, tuple[ODecomposition, np.ndarray]]] = {}
    for o in decomps:
        if o._checks is None:
            out = np.zeros((1 << len(o.spectrum), o.dim, o.dim), dtype=complex)
            for i, e in enumerate(o.eigenprojectors):
                out[1 << i:2 << i] = out[:1 << i] + e.entries
            groups.setdefault((o.dim, o.tol), {})[id(o)] = (o, out)
    for (_, tol), group in groups.items():
        stack = np.concatenate([out for _, out in group.values()])
        stack.flags.writeable = False
        ranks, errors = projector_checks(stack, tol)
        start = 0
        for o, out in group.values():
            end = start + len(out)
            failed = {k - start: e for k, e in errors.items() if start <= k < end}
            object.__setattr__(o, "_checks", (stack[start:end], ranks[start:end], failed))
            start = end


@dataclass(frozen=True)
class EigenvalueMap:
    """A real function restricted to an operator's spectrum.

    Values are canonicalized at construction (grouped at the matching
    width), so applying the map and forming image sets are exact set
    operations afterwards.  The codomain is the sorted set of values; each
    domain index (position in `pairs`) carries the bit of its value's
    codomain index.  The image of every domain mask and the preimage of
    every codomain mask are two tables, built on first use by doubling
    over those bits; `image_mask` reads the first, and a mask outside it
    raises `OcatError`.
    """

    pairs: tuple[tuple[float, float], ...]

    @cached_property
    def _values(self) -> dict[float, float]:
        values: dict[float, float] = {}
        for k, v in self.pairs:
            values.setdefault(k, v)
        return values

    @cached_property
    def codomain(self) -> tuple[float, ...]:
        return tuple(sorted(set(self._values.values())))

    @cached_property
    def _codomain_position(self) -> dict[float, int]:
        return {v: j for j, v in enumerate(self.codomain)}

    @cached_property
    def image_bits(self) -> tuple[int, ...]:
        """Per domain index, the bit of its value's codomain index."""
        at = self._codomain_position
        return tuple(1 << at[self._values[k]] for k, _ in self.pairs)

    @classmethod
    def from_dict(cls, d: dict[float, float], tol: float = DEFAULT.eig_match) -> "EigenvalueMap":
        """The map of `d`, values snapped to their group's representative;
        a non-finite key or value raises `OcatError`."""
        for x in (*d, *d.values()):
            if not math.isfinite(x):
                raise OcatError(f"eigenvalue map entry {x} is not finite")
        reps = canonical_values(d.values(), tol)
        snapped = {float(k): snap(float(v), reps, tol) for k, v in d.items()}
        return cls(tuple(sorted(snapped.items())))

    def __call__(self, lam: float) -> float:
        try:
            return self._values[lam]
        except KeyError:
            raise OcatError(f"{lam} is outside the domain of the map") from None

    @property
    def domain(self) -> tuple[float, ...]:
        return tuple(k for k, _ in self.pairs)

    def image_mask(self, mask: int) -> int:
        """Codomain mask of the image of a domain mask."""
        return _entry(self.image_table, mask, "domain")

    @cached_property
    def image_table(self) -> tuple[int, ...]:
        """Per domain mask, the codomain mask of its image, built by
        doubling the table over the domain's bits."""
        table = [0]
        for bit in self.image_bits:
            table += [m | bit for m in table]
        return tuple(table)

    @cached_property
    def preimage_table(self) -> tuple[int, ...]:
        """Per codomain mask, the domain mask of its preimage, built by
        doubling the table over the codomain's bits, each the domain mask
        of the indices whose value it is."""
        fibres = [0] * len(self.codomain)
        for i, bit in enumerate(self.image_bits):
            fibres[bit.bit_length() - 1] |= 1 << i
        table = [0]
        for fibre in fibres:
            table += [m | fibre for m in table]
        return tuple(table)

    def _values_of(self, mask: int) -> frozenset[float]:
        return frozenset(self.codomain[j] for j in bit_list(mask))


def _entry(table: tuple[int, ...], mask: int, side: str) -> int:
    """A map table's entry at a mask; a mask outside the table raises
    `OcatError`."""
    if not 0 <= mask < len(table):
        raise OcatError(f"mask {mask} out of range for the map's {side}")
    return table[mask]


def apply_map(f: EigenvalueMap, a: ODecomposition, id: str | None = None) -> ODecomposition:
    """Construct f(A) directly from A's decomposition; the spectrum of the
    result is exactly the image of A's spectrum (no re-diagonalization).
    The result is validated at, and keeps, A's tolerances: the one-pair
    case of `_images`."""
    (b,) = _images([(_on_spectrum(f, a), a)])
    if isinstance(b, ValueError):
        raise b.with_traceback(None)
    return replace(b, id=id) if id else b


def _on_spectrum(f: EigenvalueMap, a: ODecomposition) -> EigenvalueMap:
    """`f` with its domain listed in the order of A's spectrum, so that a
    domain mask is an index mask of A."""
    if set(f.domain) != set(a.spectrum):
        raise OcatError("map domain does not equal the operator's spectrum")
    if f.domain == a.spectrum:
        return f
    return EigenvalueMap(tuple((lam, f(lam)) for lam in a.spectrum))


def _images(pairs) -> list[ODecomposition | ValueError]:
    """f(A), named "f(A's id)", for each (f, A) of `pairs`, all of one
    dimension, f on A's spectrum, or the error building it raises.  The
    spectrum of f(A) is f's codomain, and the eigenprojector of a value is
    the sum of A's eigenprojectors at its preimage, added from zero in
    ascending order: bit for bit A's mask projector there, with none of
    A's other masks built, validated in one `projector_checks` call per
    tolerance set.  The error is that of the first value whose projector
    fails validation, else that of the image operator's Hermiticity test,
    taken for all images in one stacked call on one cumulative sum of their
    terms, v E_v over the values v in ascending order."""
    out: list = [None] * len(pairs)
    fibres = {}   # pair index -> its value projectors and their ranks
    groups: dict[Tolerances, list[int]] = {}
    for n, (_, a) in enumerate(pairs):
        groups.setdefault(a.tol, []).append(n)
    for tol, members in groups.items():
        starts = np.cumsum([0] + [len(pairs[n][0].codomain) for n in members]).tolist()
        stack = np.zeros((starts[-1],) + pairs[members[0]][1].operator.entries.shape, dtype=complex)
        for n, start in zip(members, starts):
            for bit, e in zip(pairs[n][0].image_bits, pairs[n][1].eigenprojectors):
                stack[start + bit.bit_length() - 1] += e.entries
        stack.flags.writeable = False
        ranks, errors = projector_checks(stack, tol)
        for n, start, end in zip(members, starts, starts[1:]):
            failed = min((k for k in errors if start <= k < end), default=None)
            if failed is None:
                fibres[n] = (stack[start:end], ranks[start:end])
            else:
                out[n] = errors[failed].with_traceback(None)
    if not fibres:
        return out
    todo = sorted(fibres)
    dim = pairs[todo[0]][1].dim
    counts = [len(pairs[n][0].codomain) for n in todo]
    terms = np.zeros((len(todo), 1 + max(counts), dim, dim), dtype=complex)
    for row, n in enumerate(todo):
        terms[row, 1:1 + counts[row]] = np.array(pairs[n][0].codomain)[:, np.newaxis, np.newaxis] * fibres[n][0]
    sums = np.cumsum(terms, axis=1)[np.arange(len(todo)), counts]
    sums.flags.writeable = False
    defects = _hermitian_defect(sums).tolist()
    for row, n in enumerate(todo):
        f, a = pairs[n]
        if not defects[row] <= a.tol.herm:   # a non-finite sum fails in HermitianOperator
            try:
                HermitianOperator(sums[row], tol=a.tol)
            except LinalgError as exc:
                out[n] = exc.with_traceback(None)
                continue
        entries, ranks = fibres[n]
        out[n] = ODecomposition(
            id=f"f({a.id})",
            operator=HermitianOperator._validated(sums[row]),
            spectrum=f.codomain,
            eigenprojectors=tuple(Projector._validated(e, rank) for e, rank in zip(entries, ranks)),
            tol=a.tol,
        )
    return out


def _eigenspace_scalars(ops: np.ndarray, a: ODecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Per operator B of a stack and eigenprojector e of A, from one
    stacked product: the scalar c = Re tr(B e) / rank e and the defect
    max|B e - c e|."""
    eigen = np.array([e.entries for e in a.eigenprojectors])
    products = ops[:, np.newaxis] @ eigen
    scalars = np.trace(products, axis1=-2, axis2=-1).real / [e.rank for e in a.eigenprojectors]
    defects = np.abs(products - scalars[..., np.newaxis, np.newaxis] * eigen).max(axis=(-2, -1))
    return scalars, defects


def _discover(ops: np.ndarray, objects, a: ODecomposition,
              tol: Tolerances) -> list[EigenvalueMap | None]:
    """Per object B of `objects`, whose operators `ops` stacks, the function
    with B = f(A), or None: B must act as a scalar on every eigenspace of A
    (see `_eigenspace_scalars`), and the scalars, snapped to B's spectrum,
    must reconstruct B and reach all of its spectrum.  B with more distinct
    eigenvalues than A is refused before any snapping, since f takes at
    most |spec A| values."""
    scalars, defects = _eigenspace_scalars(ops, a)
    passed = (~(defects > tol.eig_match).any(axis=1)).tolist()
    scalars = scalars.tolist()
    return [_map_from_scalars(b, a, c, tol) if ok and len(b.spectrum) <= len(a.spectrum) else None
            for b, c, ok in zip(objects, scalars, passed)]


def _map_from_scalars(b: ODecomposition, a: ODecomposition, scalars,
                      tol: Tolerances) -> EigenvalueMap | None:
    """The function with B = f(A), given the scalar by which B acts on each
    eigenspace of A: each scalar snapped to B's spectrum, then the
    reconstruction of B and the image of A's spectrum tested."""
    try:
        mapping = {lam: snap(c, b.spectrum, tol.eig_match) for lam, c in zip(a.spectrum, scalars)}
    except OcatError:
        return None
    recon = sum(mapping[lam] * e.entries for lam, e in zip(a.spectrum, a.eigenprojectors))
    if np.max(np.abs(recon - b.operator.entries)) > tol.recon:
        return None
    if set(mapping.values()) != set(b.spectrum):
        return None  # b has spectral weight outside the image: not a function of a
    return EigenvalueMap(tuple(sorted(mapping.items())))


def discover_morphism(b: ODecomposition, a: ODecomposition,
                      tol: Tolerances = DEFAULT) -> EigenvalueMap | None:
    """The function with B = f(A), if it exists: the one-object case of
    `_discover`."""
    if b.dim != a.dim:
        raise OcatError("dimension mismatch")
    return _discover(b.operator.entries[np.newaxis], [b], a, tol)[0]


class _CrossCheck:
    """The infimum cross-check along the arrows into some target operators.
    Each target is given as (A, its arrows, at least one, and a stack of
    A's mask projectors, the columns), each arrow as (a label, f, f(A), per
    column the codomain mask of its image): the preimage of a column's
    image must equal the meet of every mask projector of f(A) that
    dominates the column.  Per tolerance set, one
    `screened_containment_blocks` call decides every target: its block has
    the mask projectors of every image as rows, arrow after arrow, against
    its own columns alone.  Each entry is `containment_table`'s, a row
    repeated bit for bit in a block (the zero projector of every image,
    for one) is decided once, and only the pairs the trace proof leaves
    open take a product.

    Per target the check keeps its block's reduction: the first row of
    each arrow in the block, and per row its mask in its image's stack and
    that image's full mask.  A segment is one (target, column, arrow);
    segments run target by target, column by column and, within a column,
    in arrow order.  Per segment the check keeps the first row of its arrow
    (where the arrow's preimage table starts in `preimage`), the arrow's
    label, the segment's target and column, both as indices of the check,
    and `lifted`, the preimage of the column's image, a mask of the
    target."""

    def __init__(self, targets):
        self.targets = [a for a, _, _ in targets]
        arrows = [arrow for _, mine, _ in targets for arrow in mine]
        self.rows = np.concatenate([b.mask_entries for _, _, b, _ in arrows])
        self.columns = np.concatenate([columns for _, _, columns in targets])
        self.preimage = np.concatenate([f.preimage_table for _, f, _, _ in arrows])
        size = np.array([1 << len(b.spectrum) for _, _, b, _ in arrows])          # per arrow
        count = np.array([len(mine) for _, mine, _ in targets])                   # per target
        width = np.array([len(columns) for _, _, columns in targets])
        first_row, first_arrow = np.cumsum(size) - size, np.cumsum(count) - count
        height = np.add.reduceat(size, first_arrow)
        self.blocks = list(zip(height.tolist(), width.tolist()))
        self.column_starts = np.cumsum(width) - width
        local = (np.arange(len(self.rows)) - np.repeat(first_row, size))[:, np.newaxis]
        full = np.repeat(size - 1, size)[:, np.newaxis]
        self.reductions = []
        for r, n, k, m in zip((np.cumsum(height) - height).tolist(), height.tolist(),
                              first_arrow.tolist(), count.tolist()):
            self.reductions.append((first_row[k:k + m] - r, local[r:r + n], full[r:r + n]))
        # per segment: its target t, column c (of the target) and arrow k
        t = np.repeat(np.arange(len(targets)), width * count)
        w = np.arange(len(t)) - np.repeat(np.cumsum(width * count) - width * count, width * count)
        c, k = w // count[t], first_arrow[t] + w % count[t]
        self.base, self.target, self.column = first_row[k], t, self.column_starts[t] + c
        self.label = np.array([label for label, _, _, _ in arrows])[k]
        images = np.array([image for _, _, _, images in arrows for image in images])
        image_start = np.cumsum(np.repeat(width, count)) - np.repeat(width, count)
        self.lifted = self.preimage[self.base + images[image_start[k] + c]]

    def failures(self, tol: Tolerances) -> list[dict[int, str]]:
        """Per target, by column of its own, the error message of the first
        arrow at which the two paths disagree, for the columns where one
        does."""
        tables = screened_containment_blocks(self.rows, self.columns, self.blocks, tol)
        kept, some = [], []   # per segment, the meet of the dominating masks, and whether there is one
        for dom, (starts, local, full) in zip(tables, self.reductions):
            kept.append(np.bitwise_and.reduceat(np.where(dom, local, full), starts).T.ravel())
            some.append(np.logical_or.reduceat(dom, starts).T.ravel())
        kept, some = np.concatenate(kept), np.concatenate(some)
        infimum = self.preimage[self.base + kept]
        bad = np.flatnonzero(~some | (infimum != self.lifted))
        out: list[dict[int, str]] = [{} for _ in self.targets]
        # a column's segments are consecutive and in arrow order
        for k in bad[np.diff(self.column[bad], prepend=-1) != 0].tolist():
            t = int(self.target[k])
            a = self.targets[t]
            out[t][int(self.column[k] - self.column_starts[t])] = (
                "no dominating element in the spectral algebra" if not some[k] else
                f"coarse-graining paths disagree: "
                f"preimage {sorted(a.subset(int(self.lifted[k])))} "
                f"vs infimum {sorted(a.subset(int(infimum[k])))}")
        return out


def o_coarse_grain(f: EigenvalueMap, a: ODecomposition, delta,
                   tol: Tolerances = DEFAULT) -> Projector:
    """The spectral projector of "f(A) lands in f(delta)", computed as the
    preimage sum and cross-checked against the infimum over the spectral
    algebra of f(A)."""
    mask = a.mask_of(delta)
    f = _on_spectrum(f, a)
    image = f.image_mask(mask)
    failed = _CrossCheck([(a, [(0, f, apply_map(f, a), [image])], a.mask_entries[mask:mask + 1])]).failures(tol)[0]
    if failed:
        raise OcatError(failed[0])
    return a.projector(f.preimage_table[image])


def _support_masks(state: StateVector | DensityMatrix, ops, tol: Tolerances,
                   stack: np.ndarray | None = None) -> list[int]:
    """Per operator of `ops`, the index mask of the eigenvalues whose
    eigenprojector meets the state, from one stacked product over all
    their eigenprojectors, operator after operator (`stack`, when given,
    is that stack): the norm of each projected vector (see `row_norms`)
    above `vector_support`, or each Born probability above
    `support_trace`."""
    if any(o.dim != state.dim for o in ops):
        raise OcatError("dimension mismatch")
    if stack is None:
        stack = np.array([e.entries for o in ops for e in o.eigenprojectors])
    if isinstance(state, StateVector):
        inside = (row_norms(stack @ state.amplitudes) > tol.vector_support).tolist()
    else:
        inside = (probability_each(state, stack) > tol.support_trace).tolist()
    out, start = [], 0
    for o in ops:
        n = len(o.spectrum)
        out.append(sum(1 << i for i in range(n) if inside[start + i]))
        start += n
    return out


def elementary_support(state: StateVector | DensityMatrix, a: ODecomposition,
                       tol: Tolerances = DEFAULT) -> frozenset[float]:
    """The least set of eigenvalues carrying probability 1 for the state."""
    return a.subset(_support_masks(state, [a], tol)[0])


@dataclass(frozen=True)
class Morphism:
    """src = f(dst): the map carries eigenvalues of dst to eigenvalues of src."""

    src: str
    dst: str
    map: EigenvalueMap


@dataclass
class _Decisions:
    """The float decisions of one state at one tolerance set, over one
    category, all made on its first query: the support mask of each object
    and arrow image operator (see `_support_masks`), and by operator index
    the member bits of each of its delta masks (see
    `OperatorCategory._members`).  It holds no reference to the state or
    the category."""

    support: dict[ODecomposition, int]
    members: list[list[int]]


@dataclass(frozen=True, eq=False)
class _Target:
    """The arrows into one operator up to the first that fails validation:
    their source indices; per arrow its `image_table` (the coarse-graining
    of the target's masks); and that failure, if any."""

    sources: list[int]
    tables: list[tuple[int, ...]]
    broken: ValueError | None


class OperatorCategory:
    """A finite full subcategory: a list of operators with all morphisms
    discovered pairwise (identities included), one `_discover` per target
    over every operator.

    Its arrows form a `PosetIndex`, `index`: the stages are the operators,
    an arrow B -> A is the pair (B, A), and its partition map gives, for
    each eigenvalue of B, the mask of A's eigenvalues that the map sends
    there.  Its `tables` hold, per arrow, the map's image on index masks,
    which is the arrow's `EigenvalueMap.image_table` on A's spectrum, and
    `index.down` lists the arrows into each object; the per-cell decisions
    read each arrow's image and preimage off its map, and a gather over
    the category (as `survey_properties_o` makes) reads the flat `tables`.
    Everything else is built on first use and kept, once per category:
    every arrow's map on its target's spectrum and image operator f(A), in
    one batch; per target, its arrows (`_targets`), and one cross-check of
    every target (`_check`; the mask stacks of every object, then of every
    image, validated in one test each); per tol, that cross-check's verdict
    of every delta mask of every operator; per state and tol, that state's
    `_Decisions`, in a table keyed weakly by the state, so they go when the
    state does.  `_member_bits` reads a cell off the verdict and the
    operator's row of member bits.
    """

    def __init__(self, objects: list[ODecomposition], tol: Tolerances = DEFAULT):
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):
            raise OcatError("duplicate operator ids")
        dims = {o.dim for o in objects}
        if len(dims) > 1:
            raise OcatError("operators of mixed dimension")
        self.dim = dims.pop() if dims else None
        self.objects = {o.id: o for o in objects}
        ops = np.array([o.operator.entries for o in objects])
        found = [_discover(ops, objects, a, tol) for a in objects]
        self.morphisms: dict[tuple[str, str], Morphism] = {}
        for k, b in enumerate(objects):
            for a, maps in zip(objects, found):
                if maps[k] is not None:
                    self.morphisms[(b.id, a.id)] = Morphism(b.id, a.id, maps[k])
        self._checked: dict[Tolerances, list[tuple[dict[int, str], ValueError | None]]] = {}
        self._states: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @cached_property
    def index(self) -> PosetIndex:
        blocks_of: dict[tuple[str, str], tuple[int, ...]] = {}
        for (bid, aid), m in self.morphisms.items():
            a, b = self.objects[aid], self.objects[bid]
            blocks = [0] * len(b.spectrum)
            for i, lam in enumerate(a.spectrum):
                blocks[b._position[m.map(lam)]] |= 1 << i
            blocks_of[(bid, aid)] = tuple(blocks)
        n_atoms = {oid: len(o.spectrum) for oid, o in self.objects.items()}
        return PosetIndex(n_atoms, self.morphisms, blocks_of)

    @property
    def ids(self) -> list[str]:
        return sorted(self.objects)

    def check_composition_closure(self) -> tuple[bool, dict | None]:
        """Every composable pair must have a discovered composite whose map
        agrees with the composition pointwise on the spectrum: for f: B -> A
        and g: C -> B, the composite C -> A must send each eigenvalue of A
        through f's map then g's map."""
        into: dict[str, list[Morphism]] = {}
        for g in self.morphisms.values():
            into.setdefault(g.dst, []).append(g)
        for f in self.morphisms.values():
            for g in into.get(f.src, ()):
                h = self.morphisms.get((g.src, f.dst))
                if h is None:
                    return False, {"f": (f.src, f.dst), "g": (g.src, g.dst),
                                   "missing": (g.src, f.dst)}
                if h.map.pairs != tuple((lam, g.map(v)) for lam, v in f.map.pairs):
                    return False, {"f": (f.src, f.dst), "g": (g.src, g.dst),
                                   "composite_mismatch": (g.src, f.dst)}
        return True, None

    def _object(self, a: ODecomposition) -> str:
        if self.objects.get(a.id) is not a:
            raise OcatError(f"{a.id!r} is not an object of this category")
        return a.id

    @cached_property
    def _arrows(self) -> dict[tuple[str, str], tuple[EigenvalueMap, ODecomposition] | ValueError]:
        """Per arrow, its map on its target's spectrum and its image
        operator f(A), or the error building f(A) raises; the images are
        built in one batch (see `_images`).  When the map fixes every
        eigenvalue of an ascending spectrum, as an identity arrow's does,
        f(A) is the object A itself."""
        out, todo = {}, []
        for key, arrow in self.morphisms.items():
            a = self.objects[arrow.dst]
            f = _on_spectrum(arrow.map, a)
            if tuple(v for _, v in f.pairs) == a.spectrum == f.codomain:
                out[key] = (f, a)
            else:
                todo.append((key, f, a))
        for (key, f, _), b in zip(todo, _images([(f, a) for _, f, a in todo])):
            out[key] = b if isinstance(b, ValueError) else (f, b)
        return out

    def _arrow(self, m: Morphism) -> tuple[EigenvalueMap, ODecomposition]:
        """The arrow's map and image operator (see `_arrows`); raises the
        error building f(A) raises."""
        out = self._arrows[(m.src, m.dst)]
        if isinstance(out, ValueError):
            raise out.with_traceback(None)
        return out

    @cached_property
    def _targets(self) -> tuple[_Target, ...]:
        """Per operator index, the arrows into it (see `_Target`).  An
        arrow's validation is, in order: its image operator, the target's
        mask stack, the image's mask stack."""
        index = self.index
        objects = [self.objects[oid] for oid in index.ids]
        _stack_masks(objects)
        arrows, broken = [], []
        for i, a in enumerate(objects):
            mine, failed = [], None
            for j in bit_list(index.down[i]):
                try:
                    f, b = self._arrow(self.morphisms[(index.ids[j], a.id)])
                    a._mask_stack
                except ValueError as exc:
                    failed = exc.with_traceback(None)
                    break
                mine.append((j, f, b))
            arrows.append(mine)
            broken.append(failed)
        _stack_masks([b for mine in arrows for _, _, b in mine])
        out = []
        for a, mine, failed in zip(objects, arrows, broken):
            for k, (_, _, b) in enumerate(mine):
                errors = b._mask_checks[2]
                if errors:
                    mine, failed = mine[:k], errors[min(errors)]
                    break
            out.append(_Target([j for j, _, _ in mine], [f.image_table for _, f, _ in mine], failed))
        return tuple(out)

    @cached_property
    def _check(self) -> _CrossCheck | None:
        """The cross-check of every operator with arrows into it, in index
        order, each against its whole mask stack; an arrow's label is its
        source index.  None when no operator has one."""
        index = self.index
        targets = []
        for aid, target in zip(index.ids, self._targets):
            if target.sources:
                a = self.objects[aid]
                arrows = [(j, *self._arrow(self.morphisms[(index.ids[j], aid)]), table)
                          for j, table in zip(target.sources, target.tables)]
                targets.append((a, arrows, a.mask_entries))
        return _CrossCheck(targets) if targets else None

    def _target_failures(self, i: int, tol: Tolerances) -> tuple[dict[int, str], ValueError | None]:
        """By delta mask, the message of the first arrow into operator i at
        which the cross-check fails at a tolerance set, and the error of the
        first arrow that fails validation, which a query raises when no
        earlier arrow fails at its delta.  The first request at a tolerance
        set decides every operator's at once, in one `_CrossCheck.failures`,
        kept per tolerance set."""
        verdicts = self._checked.get(tol)
        if verdicts is None:
            found = iter(self._check.failures(tol) if self._check is not None else ())
            verdicts = self._checked[tol] = [(next(found) if target.sources else {}, target.broken)
                                             for target in self._targets]
        return verdicts[i]

    def _member_bits(self, state, i: int, delta: int, tol: Tolerances) -> int:
        """The member bits of the cell (operator index i, delta mask) for a
        state, read off the operator's row of its decisions; raises what
        `_target_failures` gives at delta."""
        members = self._decisions(state, tol).members
        failures, broken = self._target_failures(i, tol)
        if delta in failures:
            raise OcatError(failures[delta])
        if broken is not None:
            raise broken.with_traceback(None)
        return members[i][delta]

    def _members(self, state, tol: Tolerances) -> list[list[int]]:
        """Per operator index and delta mask, the member bits: by source
        index, the arrows along which the preimage of delta's image is
        certain for the state.  For a density matrix, one `certain_each`
        over every operator's mask stack (the cross-check's columns)
        decides them all; for a vector state, one stacked product over the
        distinct preimage projectors Q, each norm |Q v - v| the float
        `np.linalg.norm` gives (see `row_norms`)."""
        rows = [[0] * (1 << n) for n in self.index.n_atoms]
        check = self._check
        if check is None:
            return rows
        at = check.column_starts[check.target] + check.lifted   # the column of each preimage
        if isinstance(state, StateVector):
            needed = np.unique(at)
            v = state.amplitudes
            sure = np.zeros(len(check.columns), dtype=bool)
            sure[needed] = row_norms(check.columns[needed] @ v - v) < tol.vector_support
        else:
            sure = certain_each(state, check.columns, tol)
        table = np.zeros((len(check.columns), len(rows)), dtype=bool)
        table[check.column, check.label] = sure[at]
        masks = _row_masks(table)
        for a, start, (_, m) in zip(check.targets, check.column_starts.tolist(), check.blocks):
            rows[self.index.pos[a.id]] = masks[start:start + m]
        return rows

    @cached_property
    def _eigenprojectors(self) -> tuple[list[ODecomposition], np.ndarray]:
        """Every object, then every arrow image operator that is not one,
        and the stack of their eigenprojectors, operator after operator."""
        images = (out[1] for out in self._arrows.values() if not isinstance(out, ValueError))
        ops = list(dict.fromkeys([*self.objects.values(), *images]))
        return ops, np.array([e.entries for o in ops for e in o.eigenprojectors])

    def _decisions(self, state, tol: Tolerances) -> _Decisions:
        """A state's decisions at a tolerance set, all made when first
        asked for; a state of another dimension than the operators' is
        refused when first seen."""
        per_tol = self._states.get(state)
        if per_tol is None:
            if self.dim is not None and state.dim != self.dim:
                raise OcatError(f"the state has dimension {state.dim}, "
                                f"the operators have dimension {self.dim}")
            per_tol = self._states[state] = {}
        out = per_tol.get(tol)
        if out is None:
            ops, stack = self._eigenprojectors
            out = per_tol[tol] = _Decisions(dict(zip(ops, _support_masks(state, ops, tol, stack))),
                                            self._members(state, tol))
        return out

    def _support_mask(self, state, op: ODecomposition, tol: Tolerances) -> int:
        """Support mask of an object or of an arrow's image operator."""
        return self._decisions(state, tol).support[op]


def _cell(state, a: ODecomposition, delta, category: OperatorCategory,
          tol: Tolerances) -> tuple[int, int, int]:
    """(operator index, delta mask, member bitmask) of a query: the member
    bitmask marks, by source index, the arrows into `a` along which the
    proposition coarse-grains to a probability-1 projector."""
    mask = a.mask_of(delta)
    i = category.index.pos[category._object(a)]
    return i, mask, category._member_bits(state, i, mask, tol)


def _arrow_keys(index: PosetIndex, i: int, bits: int) -> list[tuple[str, str]]:
    """The (src, dst) keys of the arrows into operator i marked in `bits`, sorted."""
    return [(src, index.ids[i]) for src in index.names(bits)]


def nu_psi_o(state: StateVector | DensityMatrix, a: ODecomposition, delta,
             category: OperatorCategory, tol: Tolerances = DEFAULT) -> frozenset[tuple[str, str]]:
    """Morphisms into `a` along which the proposition coarse-grains to a
    probability-1 projector for the state."""
    i, _, bits = _cell(state, a, delta, category, tol)
    return frozenset(_arrow_keys(category.index, i, bits))


def characterize_check(state: StateVector | DensityMatrix, a: ODecomposition, delta,
                       category: OperatorCategory, tol: Tolerances = DEFAULT) -> dict:
    """The probability-1 morphism set must equal the support
    characterization: arrows whose map sends the elementary support inside
    the image of the proposition's eigenvalue set."""
    i, mask, definitional = _cell(state, a, delta, category, tol)
    index = category.index
    s = category._support_mask(state, a, tol)
    by_support = 0
    # a cell is decided only when no arrow into `a` failed validation, so
    # its target holds every arrow into `a`
    target = category._targets[i]
    for j, image in zip(target.sources, target.tables):
        if not image[s] & ~image[mask]:
            by_support |= 1 << j
    return {
        "passed": definitional == by_support,
        "definitional": _arrow_keys(index, i, definitional),
        "by_support": _arrow_keys(index, i, by_support),
        "support": sorted(a.subset(s)),
        "delta": sorted(a.subset(mask)),
    }


def check_sieve_on_o(state, a: ODecomposition, delta,
                     category: OperatorCategory, tol: Tolerances = DEFAULT) -> tuple[bool, dict | None]:
    """The probability-1 morphism set is closed under precomposition: the
    down-sets of its sources add no arrow.  The witness is the set's leak
    (`PosetIndex.leak`): its first arrow f whose source's down-set it
    leaves, and the first arrow g into f's source whose composite is
    missing."""
    _, _, bits = _cell(state, a, delta, category, tol)
    index = category.index
    leak = index.leak(bits)
    if leak is None:
        return True, None
    src, g = leak
    return False, {"f": (index.ids[src], a.id), "g": (index.ids[g], index.ids[src])}


def _subset_report(f: EigenvalueMap, pushed: int, image: int) -> dict:
    """The subset law of supports from the pushed support of A and the
    support of f(A), both codomain masks of `f`."""
    return {
        "passed": pushed == image,
        "subset": not pushed & ~image,
        "pushed_support": sorted(f._values_of(pushed)),
        "image_support": sorted(f._values_of(image)),
    }


def func_subset_check(state: StateVector | DensityMatrix, a: ODecomposition,
                      f: EigenvalueMap, tol: Tolerances = DEFAULT) -> dict:
    """Pushing the elementary support through the map must give exactly the
    elementary support of the image operator (equality, not mere
    containment, on discrete spectra)."""
    f = _on_spectrum(f, a)
    s, image = _support_masks(state, [a, apply_map(f, a)], tol)
    return _subset_report(f, f.image_mask(s), image)


def support_subobject_check(state, category: OperatorCategory,
                            tol: Tolerances = DEFAULT) -> dict:
    """The subset-law of supports, swept over every morphism of the category."""
    failures = []
    checked = 0
    for m in category.morphisms.values():
        checked += 1
        f, b = category._arrow(m)
        a = category.objects[m.dst]
        res = _subset_report(f, f.image_mask(category._support_mask(state, a, tol)),
                             category._support_mask(state, b, tol))
        if not res["passed"]:
            failures.append({"src": m.src, "dst": m.dst, **res})
    return {"passed": not failures, "morphismsChecked": checked, "failures": failures}
