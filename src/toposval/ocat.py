"""The category of discrete-spectrum self-adjoint operators.

Objects are operators carried with their spectral decomposition; a
morphism B -> A exists when B is a function of A, and is represented by
that function's restriction to the spectrum of A.  In finite dimension
every spectrum is finite, so images of spectra are spectra on the nose and
the support/coarse-graining identities hold exactly.  Eigenvalues are
snapped to canonical representatives so that all set operations on reals
are exact.

Behind the frozenset API, a set of eigenvalues is an int mask over
spectrum indices.  Each `ODecomposition` builds the spectral projectors of
all its masks as one stack, validated in one test at the tolerances it was
built with (which `apply_map` passes on to f(A)), and each `EigenvalueMap`
carries, per domain index, the bit of its value in the sorted codomain, so
images and preimages are ORs of bits.

The arrows of an `OperatorCategory` form the same `PosetIndex` that a
poset of contexts uses: an arrow B -> A is the pair (B, A), and its
partition map sends each eigenvalue of B to the mask of A's eigenvalues
that map to it.  A state's valuation gives each cell (operator, delta
mask) the arrows into the operator along which delta coarse-grains to a
certain projector; a query reads one cell and runs no law, so each cell
is decided on its first query.  The float decisions are made once and kept
by `OperatorCategory`:

- per (arrow, tolerances), the infimum cross-check of the coarse-graining
  of every delta mask along the arrow: the preimage of delta's image must
  equal the independent infimum over every spectral projector of f(A)
  that dominates delta's projector.  The first query that reaches the
  arrow decides all 2^|spec f(A)| x 2^|spec A| containments in one
  `containment_table` (rows f(A)'s stacked mask projectors, columns A's),
  ANDs each column's dominating masks and keeps one verdict per delta.  A
  query raises `OcatError` when its own delta disagrees, and on every such
  query.  The test stays exhaustive: the max-abs defect is not monotone
  under projection, so the meet of the dominating co-atoms alone can
  differ from the infimum at very tight containment widths;
- per (state, tolerances), held weakly by the state object: the support
  mask of each operator and of each arrow's image operator, and the
  member bits of each queried cell.  For a density matrix, one
  `certain_each` over an operator's stacked mask projectors decides every
  mask of it at once; for a vector state, each (operator, preimage mask)
  is one norm test on that preimage's projector.

The support characterization reads supports by their masks, so it stays
independent of the certainty tests it is compared with.

A vector state is recoverable from the (operator, eigenvalue-set) pairs it
makes certain, so its certainty valuation both determines and is
determined by its totally-true assignments.  That is a fact about the
family, recorded here for reference; no operation hangs off it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contexts import PosetIndex, bit_list
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    Projector,
    StateVector,
    certain,
    certain_each,
    containment_table,
    eig_hermitian,
    projector_ranks,
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


def _index_mask(position: dict[float, int], values) -> int:
    """The mask of the positions of `values`; values without one are ignored."""
    mask = 0
    for x in values:
        i = position.get(x)
        if i is not None:
            mask |= 1 << i
    return mask


@dataclass(frozen=True, eq=False)
class ODecomposition:
    """An operator with its ordered distinct eigenvalues and eigenprojectors.

    A subset of the spectrum is also an index mask (bit i for spectrum[i]).
    On the first request for any of them, the spectral projectors of all
    masks are built as one stack and validated at `tol`, the tolerances the
    decomposition was built with.
    """

    id: str
    operator: HermitianOperator
    spectrum: tuple[float, ...]
    eigenprojectors: tuple[Projector, ...]
    tol: Tolerances = DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "_position", {lam: i for i, lam in enumerate(self.spectrum)})
        object.__setattr__(self, "_projectors", {})

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
        """The index mask of the eigenvalues in `subset`; other values are ignored."""
        return _index_mask(self._position, subset)

    def subset(self, mask: int) -> frozenset[float]:
        """The eigenvalues of an index mask."""
        return frozenset(self.spectrum[i] for i in bit_list(mask))

    def projector(self, mask: int) -> Projector:
        """The spectral projector of an index mask, read from `mask_entries`."""
        p = self._projectors.get(mask)
        if p is None:
            if mask < 0 or mask >> len(self.spectrum):
                raise OcatError(f"mask {mask} out of range for operator {self.id!r}")
            entries, ranks = self._mask_stack
            p = self._projectors[mask] = Projector._validated(entries[mask], ranks[mask])
        return p

    @cached_property
    def _mask_stack(self) -> tuple[np.ndarray, list[int]]:
        """Every mask's spectral projector, stacked by mask, and its rank.
        The projector of a mask is its eigenprojectors summed in ascending
        spectrum order: that of the mask without its top bit plus the top
        eigenprojector.  The stack is validated at `tol` in one test, which
        raises for the first failing mask."""
        out = np.zeros((1 << len(self.spectrum), self.dim, self.dim), dtype=complex)
        for i, e in enumerate(self.eigenprojectors):
            out[1 << i:2 << i] = out[:1 << i] + e.entries
        ranks = projector_ranks(out, self.tol)
        out.flags.writeable = False
        return out, ranks

    @property
    def mask_entries(self) -> np.ndarray:
        """The entries of every mask's spectral projector, stacked by mask."""
        return self._mask_stack[0]

    def check_subset(self, subset) -> frozenset[float]:
        out = frozenset(float(x) for x in subset)
        for x in out:
            if x not in self._position:
                raise OcatError(f"{x} is not an eigenvalue of {self.id!r}")
        return out


@dataclass(frozen=True)
class EigenvalueMap:
    """A real function restricted to an operator's spectrum.

    Values are canonicalized at construction (grouped at the matching
    width), so applying the map and forming image sets are exact set
    operations afterwards.  The codomain is the sorted set of values; each
    domain index (position in `pairs`) carries the bit of its value's
    codomain index, so images and preimages of index masks are ORs of bits.
    These tables are built on first use.
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
    def _domain_position(self) -> dict[float, int]:
        return {k: i for i, (k, _) in enumerate(self.pairs)}

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
        out = 0
        for i in bit_list(mask):
            out |= self.image_bits[i]
        return out

    @cached_property
    def preimage_table(self) -> tuple[int, ...]:
        """Per codomain mask, the domain mask of its preimage."""
        return tuple(self.preimage_mask(k) for k in range(1 << len(self.codomain)))

    def preimage_mask(self, mask: int) -> int:
        """Domain mask of the preimage of a codomain mask."""
        out = 0
        for i, bit in enumerate(self.image_bits):
            if bit & mask:
                out |= 1 << i
        return out

    def image(self, subset: frozenset[float]) -> frozenset[float]:
        for x in subset:
            if x not in self._values:
                raise OcatError(f"{x} is outside the domain of the map")
        return self._values_of(self.image_mask(_index_mask(self._domain_position, subset)))

    def preimage(self, subset: frozenset[float]) -> frozenset[float]:
        mask = self.preimage_mask(_index_mask(self._codomain_position, subset))
        return frozenset(self.pairs[i][0] for i in bit_list(mask))

    def _values_of(self, mask: int) -> frozenset[float]:
        return frozenset(self.codomain[j] for j in bit_list(mask))


def apply_map(f: EigenvalueMap, a: ODecomposition, id: str | None = None) -> ODecomposition:
    """Construct f(A) directly from A's decomposition; the spectrum of the
    result is exactly the image of A's spectrum (no re-diagonalization).
    The result is validated at, and keeps, A's tolerances."""
    if set(f.domain) != set(a.spectrum):
        raise OcatError("map domain does not equal the operator's spectrum")
    values = sorted(set(f(lam) for lam in a.spectrum))
    projs = []
    for v in values:
        m = np.zeros((a.dim, a.dim), dtype=complex)
        for lam, p in zip(a.spectrum, a.eigenprojectors):
            if f(lam) == v:
                m = m + p.entries
        projs.append(Projector(m, tol=a.tol))
    entries = sum(v * p.entries for v, p in zip(values, projs))
    return ODecomposition(
        id=id or f"f({a.id})",
        operator=HermitianOperator(entries, tol=a.tol),
        spectrum=tuple(values),
        eigenprojectors=tuple(projs),
        tol=a.tol,
    )


def _on_spectrum(f: EigenvalueMap, a: ODecomposition) -> EigenvalueMap:
    """`f` with its domain listed in the order of A's spectrum, so that a
    domain mask is an index mask of A."""
    if set(f.domain) != set(a.spectrum):
        raise OcatError("map domain does not equal the operator's spectrum")
    if f.domain == a.spectrum:
        return f
    return EigenvalueMap(tuple((lam, f(lam)) for lam in a.spectrum))


def discover_morphism(b: ODecomposition, a: ODecomposition,
                      tol: Tolerances = DEFAULT) -> EigenvalueMap | None:
    """The function with B = f(A), if it exists: B must act as a scalar on
    every eigenspace of A, and the scalars must reconstruct B."""
    if b.dim != a.dim:
        raise OcatError("dimension mismatch")
    if len(b.spectrum) > len(a.spectrum):
        return None  # f takes at most |spec A| values, so it cannot reach all of spec B
    mapping: dict[float, float] = {}
    for lam, e in zip(a.spectrum, a.eigenprojectors):
        c = float(np.trace(b.operator.entries @ e.entries).real) / e.rank
        if np.max(np.abs(b.operator.entries @ e.entries - c * e.entries)) > tol.eig_match:
            return None
        try:
            mapping[lam] = snap(c, b.spectrum, tol.eig_match)
        except OcatError:
            return None
    recon = sum(mapping[lam] * e.entries for lam, e in zip(a.spectrum, a.eigenprojectors))
    if np.max(np.abs(recon - b.operator.entries)) > tol.recon:
        return None
    if set(mapping.values()) != set(b.spectrum):
        return None  # b has spectral weight outside the image: not a function of a
    return EigenvalueMap(tuple(sorted(mapping.items())))


def _cross_checks(a: ODecomposition, b: ODecomposition, deltas: np.ndarray, images,
                  preimage, tol: Tolerances) -> list[str | None]:
    """The infimum cross-check of coarse-graining along a map f from A's
    spectrum, with `b` = f(A), for each column of `deltas`, a stack of A's
    mask projectors: the error message where the two paths disagree, else
    None.  `images` holds the codomain mask of each column's image, and
    `preimage` the domain mask of the preimage of each codomain mask.

    The independent path is the infimum over the spectral algebra of f(A):
    the meet of every mask projector of f(A) that dominates the column's
    projector.  Every containment is decided in one `containment_table`;
    a column's infimum ANDs the masks of its dominating rows."""
    dom = containment_table(b.mask_entries, deltas, tol)
    full = dom.shape[0] - 1
    kept = np.bitwise_and.reduce(np.where(dom, np.arange(full + 1)[:, np.newaxis], full), axis=0)
    out: list[str | None] = []
    for image, k, some in zip(images, kept.tolist(), dom.any(axis=0).tolist()):
        if not some:
            out.append("no dominating element in the spectral algebra")
            continue
        pre, inf_pre = preimage[image], preimage[k]
        out.append(None if inf_pre == pre else
                   f"coarse-graining paths disagree: preimage {sorted(a.subset(pre))} "
                   f"vs infimum {sorted(a.subset(inf_pre))}")
    return out


def o_coarse_grain(f: EigenvalueMap, a: ODecomposition, delta,
                   tol: Tolerances = DEFAULT) -> Projector:
    """The spectral projector of "f(A) lands in f(delta)", computed as the
    preimage sum and cross-checked against the infimum over the spectral
    algebra of f(A)."""
    mask = a.mask_of(a.check_subset(delta))
    f = _on_spectrum(f, a)
    image = f.image_mask(mask)
    (msg,) = _cross_checks(a, apply_map(f, a), a.mask_entries[mask:mask + 1], [image],
                           f.preimage_table, tol)
    if msg is not None:
        raise OcatError(msg)
    return a.projector(f.preimage_table[image])


def _support_mask(state: StateVector | DensityMatrix, a: ODecomposition,
                  tol: Tolerances) -> int:
    """Index mask of the eigenvalues whose eigenprojector meets the state."""
    if state.dim != a.dim:
        raise OcatError("dimension mismatch")
    mask = 0
    for i, e in enumerate(a.eigenprojectors):
        if isinstance(state, StateVector):
            inside = np.linalg.norm(e.entries @ state.amplitudes) > tol.vector_support
        else:
            inside = float(np.trace(state.entries @ e.entries).real) > tol.support_trace
        if inside:
            mask |= 1 << i
    return mask


def elementary_support(state: StateVector | DensityMatrix, a: ODecomposition,
                       tol: Tolerances = DEFAULT) -> frozenset[float]:
    """The least set of eigenvalues carrying probability 1 for the state."""
    return a.subset(_support_mask(state, a, tol))


def state_certain(state: StateVector | DensityMatrix, p: Projector,
                  tol: Tolerances = DEFAULT) -> bool:
    """Probability-1 test for either kind of state."""
    if isinstance(state, StateVector):
        return bool(np.linalg.norm(p.entries @ state.amplitudes - state.amplitudes)
                    < tol.vector_support)
    return certain(state, p, tol)


@dataclass(frozen=True)
class Morphism:
    """src = f(dst): the map carries eigenvalues of dst to eigenvalues of src."""

    src: str
    dst: str
    map: EigenvalueMap


class _Decisions:
    """The float decisions of one state at one tolerance set, over one
    category: the support mask of each object or arrow image operator, and
    in `cells` the member bits of each queried cell (operator index, delta
    mask).  `bits` decides a cell on its first query: for each arrow into
    the operator, by source index, the arrow's infimum cross-check at delta
    (which raises where it fails) and then the certainty test of delta's
    preimage.  Certainty is decided once per (operator, preimage mask): for
    a density matrix, every mask of an operator in one `certain_each` call
    on first use, and for a vector state one norm test per preimage.  The
    state is held weakly, as the category's memo holds it, so the decisions
    never keep their state alive."""

    __slots__ = ("support", "cells", "bits")

    def __init__(self, category: "OperatorCategory", state, tol: Tolerances):
        self.support: dict[ODecomposition, int] = {}
        self.cells = cells = {}   # (operator index, delta mask) -> member bits
        index = category.index
        held = weakref.ref(state)
        vector = isinstance(state, StateVector)
        decided: dict = {}   # (operator, mask) -> bool for a vector, else operator -> per-mask list
        checked = category._checked.setdefault(tol, {})

        def sure(i: int, a: ODecomposition, pre: int) -> bool:
            if vector:
                out = decided.get((i, pre))
                if out is None:
                    out = decided[(i, pre)] = state_certain(held(), a.projector(pre), tol)
                return out
            masks = decided.get(i)
            if masks is None:
                masks = decided[i] = certain_each(held(), a.mask_entries, tol).tolist()
            return masks[pre]

        def bits(i: int, delta: int) -> int:
            out = cells.get((i, delta))
            if out is None:
                a = category.objects[index.ids[i]]
                out = 0
                for j, table in index.below(i):
                    category._cross_check(j, i, delta, tol, checked)
                    if sure(i, a, index.lift(j, i, table[delta])):
                        out |= 1 << j
                cells[(i, delta)] = out
            return out

        self.bits = bits


class _ArrowIndex(PosetIndex):
    """The `PosetIndex` of a category's arrows, whose coarse-graining rows
    (the map's image on index masks) are built one arrow at a time, on
    first request.  A category has about a dozen arrows over spectra of a
    few eigenvalues, where the index's one array pass over every pair
    costs more than these rows: building the index and every row of an
    operator-suite category took about 120 us that way against 45 us this
    way (Python 3.11, numpy 2.4, a shared 2-core x86_64 VM).  The per-cell
    decisions read only these rows; a gather over the category (as
    `survey_properties_o` makes) reads the index's flat `tables`, which
    hold the same tables."""

    def coarse(self, sub: int, sup: int) -> tuple[int, ...]:
        rows = self._rows["coarse"]
        out = rows.get((sub, sup))
        if out is None:
            images = [0] * self.n_atoms[sup]   # per eigenvalue of the target, the bit of its image
            for j, block in enumerate(self._pmap(sub, sup)):
                for k in bit_list(block):
                    images[k] |= 1 << j
            table = [0]
            for bit in images:
                table += [m | bit for m in table]
            out = rows[(sub, sup)] = tuple(table)
        return out


class OperatorCategory:
    """A finite full subcategory: a list of operators with all morphisms
    discovered pairwise (identities included).

    Its arrows form a `PosetIndex`, `index`: the stages are the operators,
    an arrow B -> A is the pair (B, A), and its partition map gives, for
    each eigenvalue of B, the mask of A's eigenvalues that the map sends
    there.  So `index.coarse(B, A)` is the map's image on index masks,
    `index.lift` its preimage, and `index.down` lists the arrows into each
    object.  Everything else is built on first use and kept: per arrow, the
    map on the target's spectrum and its image operator f(A); per (arrow,
    tol), the infimum cross-check verdict of every delta mask; per state and
    tol, that state's decisions (held weakly, so they go when the state
    does).
    """

    def __init__(self, objects: list[ODecomposition], tol: Tolerances = DEFAULT):
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):
            raise OcatError("duplicate operator ids")
        dims = {o.dim for o in objects}
        if len(dims) > 1:
            raise OcatError("operators of mixed dimension")
        self.objects = {o.id: o for o in objects}
        self.morphisms: dict[tuple[str, str], Morphism] = {}
        for b in objects:
            for a in objects:
                f = discover_morphism(b, a, tol)
                if f is not None:
                    self.morphisms[(b.id, a.id)] = Morphism(b.id, a.id, f)
        self._arrows: dict[tuple[str, str], tuple[EigenvalueMap, ODecomposition]] = {}
        self._checked: dict[Tolerances, dict[tuple[int, int], list[str | None]]] = {}
        self._states: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @cached_property
    def index(self) -> _ArrowIndex:
        blocks_of: dict[tuple[str, str], tuple[int, ...]] = {}
        for (bid, aid), m in self.morphisms.items():
            a, b = self.objects[aid], self.objects[bid]
            blocks = [0] * len(b.spectrum)
            for i, lam in enumerate(a.spectrum):
                blocks[b._position[m.map(lam)]] |= 1 << i
            blocks_of[(bid, aid)] = tuple(blocks)
        n_atoms = {oid: len(o.spectrum) for oid, o in self.objects.items()}
        return _ArrowIndex(n_atoms, self.morphisms, blocks_of)

    @property
    def ids(self) -> list[str]:
        return sorted(self.objects)

    def morphisms_into(self, aid: str) -> list[Morphism]:
        index = self.index
        return [self.morphisms[(bid, aid)] for bid in index.names(index.down_of.get(aid, 0))]

    def compose(self, g: Morphism, f: Morphism) -> EigenvalueMap:
        """Eigenvalue map of the composite (g after f as arrows): given
        f: B -> A and g: C -> B, the composite C -> A sends each eigenvalue
        of A through f's map then g's map."""
        if g.dst != f.src:
            raise OcatError("morphisms do not compose")
        return EigenvalueMap(tuple(
            (lam, g.map(f.map(lam))) for lam in f.map.domain
        ))

    def check_composition_closure(self) -> tuple[bool, dict | None]:
        """Every composable pair must have a discovered composite whose map
        agrees with the composition pointwise on the spectrum."""
        for f in self.morphisms.values():
            for g in self.morphisms.values():
                if g.dst != f.src:
                    continue
                h = self.morphisms.get((g.src, f.dst))
                if h is None:
                    return False, {"f": (f.src, f.dst), "g": (g.src, g.dst),
                                   "missing": (g.src, f.dst)}
                composed = self.compose(g, f)
                if h.map.pairs != composed.pairs:
                    return False, {"f": (f.src, f.dst), "g": (g.src, g.dst),
                                   "composite_mismatch": (g.src, f.dst)}
        return True, None

    def _object(self, a: ODecomposition) -> str:
        if self.objects.get(a.id) is not a:
            raise OcatError(f"{a.id!r} is not an object of this category")
        return a.id

    def _arrow(self, m: Morphism) -> tuple[EigenvalueMap, ODecomposition]:
        """The arrow's map on its target's spectrum, and the image operator.
        When the map fixes every eigenvalue of an ascending spectrum, as an
        identity arrow's does, f(A) is the object A itself: `apply_map`
        would rebuild the same spectrum and eigenprojectors."""
        out = self._arrows.get((m.src, m.dst))
        if out is None:
            a = self.objects[m.dst]
            f = _on_spectrum(m.map, a)
            fixed = tuple(v for _, v in f.pairs) == a.spectrum == f.codomain
            out = self._arrows[(m.src, m.dst)] = (f, a if fixed else apply_map(f, a))
        return out

    def _cross_check(self, src: int, dst: int, delta: int, tol: Tolerances,
                     checked: dict[tuple[int, int], list[str | None]]) -> None:
        """Raise if the infimum cross-check of arrow (src, dst), by operator
        index, fails at a delta mask.  The first query of an arrow at a
        tolerance set decides every delta mask at once; `checked` is
        `_checked[tol]`, fetched once by the caller, and keeps the verdicts
        by arrow."""
        verdicts = checked.get((src, dst))
        if verdicts is None:
            verdicts = checked[(src, dst)] = self._verdicts(src, dst, tol)
        if verdicts[delta] is not None:
            raise OcatError(verdicts[delta])

    def _verdicts(self, src: int, dst: int, tol: Tolerances) -> list[str | None]:
        """Per delta mask of the target of arrow (src, dst), the infimum
        cross-check's error message, or None where it passes."""
        index = self.index
        m = self.morphisms[(index.ids[src], index.ids[dst])]
        f, b = self._arrow(m)
        a = self.objects[m.dst]
        return _cross_checks(a, b, a.mask_entries, index.coarse(src, dst), f.preimage_table, tol)

    def _decisions(self, state, tol: Tolerances) -> _Decisions:
        per_tol = self._states.get(state)
        if per_tol is None:
            per_tol = self._states[state] = {}
        out = per_tol.get(tol)
        if out is None:
            out = per_tol[tol] = _Decisions(self, state, tol)
        return out

    def _support_mask(self, state, op: ODecomposition, tol: Tolerances) -> int:
        """Support mask of an object or of an arrow's image operator."""
        memo = self._decisions(state, tol).support
        out = memo.get(op)
        if out is None:
            out = memo[op] = _support_mask(state, op, tol)
        return out


def _cell(state, a: ODecomposition, delta, category: OperatorCategory,
          tol: Tolerances) -> tuple[int, int, int]:
    """(operator index, delta mask, member bitmask) of a query: the member
    bitmask marks, by source index, the arrows into `a` along which the
    proposition coarse-grains to a probability-1 projector."""
    mask = a.mask_of(a.check_subset(delta))
    i = category.index.pos[category._object(a)]
    return i, mask, category._decisions(state, tol).bits(i, mask)


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
    for j, image in index.below(i):
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
    down-sets of its sources add no arrow.  The witness is an arrow f of the
    set and an arrow g into f's source whose composite is missing."""
    i, _, bits = _cell(state, a, delta, category, tol)
    index = category.index
    if not index.closure(bits) & ~bits:
        return True, None
    src = next(j for j in bit_list(bits) if index.down[j] & ~bits)
    missing = index.down[src] & ~bits
    g = (missing & -missing).bit_length() - 1
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
    b = apply_map(f, a)
    return _subset_report(f, f.image_mask(_support_mask(state, a, tol)),
                          _support_mask(state, b, tol))


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
