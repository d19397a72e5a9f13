"""Dense complex linear algebra substrate.

Hermitian eigendecomposition with eigenvalue grouping, projector
construction, subspace tests and density-matrix supports.  Everything here
is small and dense (dims ~16 at most); all downstream lattice work reasons
exactly on integer masks, so this module is the only place where raw
floating point decisions are made.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances


class LinalgError(ValueError):
    """Invalid numerical input (non-Hermitian, dependent vectors, ...)."""


class GroupingError(LinalgError):
    """Eigenvalue cluster that cannot be resolved at the given width."""


# A NaN defect compares False with every tolerance, so each validation
# refuses non-finite entries before it takes a defect.  A finite sum of
# entries proves them all finite; only a sum that is not (an entry is not,
# or finite entries overflow) takes the test entry by entry.
NON_FINITE = "matrix has a non-finite entry"


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {m.shape}")
    if not cmath.isfinite(m.sum()) and not np.isfinite(m).all():
        raise LinalgError(NON_FINITE)
    return m


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.flags.writeable = False
    return out


# The defects below act on a matrix or on a stack of matrices, one value
# per matrix, so a single check and a stacked one share each formula.  A
# 0 x 0 matrix has defect 0.

def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    return np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1), initial=0.0)


def _idempotency_defect(m: np.ndarray) -> np.ndarray:
    return np.abs(m @ m - m).max(axis=(-2, -1), initial=0.0)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1).real


def _projector_rank(herm: float, idem: float, tr: float, tol: Tolerances) -> int:
    """The rank of a projector matrix from its Hermiticity and idempotency
    defects and its trace, or the error of the first check it fails."""
    if herm > tol.herm:
        raise LinalgError("projector is not Hermitian within tolerance")
    if idem > tol.proj_idem:
        raise LinalgError("projector is not idempotent within tolerance")
    rank = int(round(tr))
    if abs(tr - rank) > tol.trace_rank:
        raise LinalgError(f"projector trace {tr} is not close to an integer")
    return rank


def projector_checks(stack: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[list[int], dict[int, LinalgError]]:
    """The rank of each projector matrix of a stack, and, by stack index,
    the error `Projector` raises on each one that fails its validation (the
    rank given for such a matrix is 0).  A non-finite matrix fails first,
    as in `Projector`: it is zeroed, so it passes the defect checks with
    rank 0, and then given that error."""
    if cmath.isfinite(stack.sum()):
        return _finite_checks(stack, tol)
    finite = np.isfinite(stack).all(axis=(-2, -1))
    ranks, errors = _finite_checks(np.where(finite[:, np.newaxis, np.newaxis], stack, 0), tol)
    errors.update((k, LinalgError(NON_FINITE)) for k in np.flatnonzero(~finite).tolist())
    return ranks, errors


def _finite_checks(stack: np.ndarray, tol: Tolerances) -> tuple[list[int], dict[int, LinalgError]]:
    """`projector_checks` on a stack of finite matrices."""
    herm, idem, tr = _hermitian_defect(stack), _idempotency_defect(stack), _trace(stack)
    ranks = np.round(tr)
    bad = (herm > tol.herm) | (idem > tol.proj_idem) | (np.abs(tr - ranks) > tol.trace_rank)
    if not bad.any():
        return ranks.astype(int).tolist(), {}
    errors = {}
    for k in np.flatnonzero(bad).tolist():
        try:
            _projector_rank(float(herm[k]), float(idem[k]), float(tr[k]), tol)
        except LinalgError as exc:
            errors[k] = exc
    return np.where(bad, 0, ranks).astype(int).tolist(), errors


def projector_ranks(stack: np.ndarray, tol: Tolerances = DEFAULT) -> list[int]:
    """The rank of each projector matrix of a stack, validated as
    `Projector` validates one; a stack with a failing member raises the
    error of the first, in stack order."""
    ranks, errors = projector_checks(stack, tol)
    if errors:
        raise errors[min(errors)]
    return ranks


def span_projectors(spans: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, dict[int, LinalgError]]:
    """For a stack of (d, k) matrices, each holding k vectors as columns:
    the matrix q q^H of each, q from its QR factorisation, and, by stack
    index, the error `projector_from_span` raises on one before it
    validates that matrix: a zero span, or vectors linearly dependent
    within `tol.trace_rank` (see there).  numpy's svd, qr and matmul work
    one matrix of a stack at a time, so each matrix and each singular value
    is the float one span alone gives.  The zero test is the norm's: a
    squared norm is 0 exactly when every squared real and imaginary part
    is."""
    zero = ~((spans.real * spans.real != 0) | (spans.imag * spans.imag != 0)).any(axis=(1, 2))
    svals = np.linalg.svd(spans, compute_uv=False)   # none for vectors of length 0
    dependent = (svals.min(axis=1, initial=np.inf)
                 < tol.trace_rank * np.maximum(1.0, svals.max(axis=1, initial=0.0)))
    q = np.linalg.qr(spans)[0]
    errors = {k: LinalgError("zero vector in span" if zero[k] else
                             "vectors are linearly dependent within rank tolerance")
              for k in np.flatnonzero(zero | dependent).tolist()}
    return q @ q.conj().swapaxes(1, 2), errors


# Rounding band of a trace overlap.  tr(b a) is the sum over k, l of
# b_kl a_lk; its real part is a sum of 2 d^2 real products whose moduli add
# up to at most F = ||b||_F ||a||_F (Cauchy-Schwarz).  A sum of n rounded
# products, in any order and with or without fused multiply-adds, is off by
# at most about n eps/2 times that total.  So the one-dot form (2 d^2
# products) is within d^2 eps F of the exact value, np.trace(b @ a) (2 d
# products per diagonal entry, then a sum of d entries) within 1.5 d eps F,
# and the two differ by less than 2.5 d^2 eps F.  A band is this constant
# times d^2 times a bound on F; for projectors ||p||_F^2 = rank(p) <= d, so
# it is at most 4 d^3 eps: 5.7e-14 at d = 4, where the two forms differ by
# at most 1.3e-15 on the closed Peres-24 and 18-ray posets, noisy copies
# included.  The closure's inclusion screen and link proof
# (`contexts._ContextStore`) and `screened_containment_blocks` bound their
# rounding by it.
_EPS = np.finfo(float).eps
_SCREEN_ROUNDING = 4 * _EPS


# Complex entries in each temporary of a table of pairwise products or
# differences; larger tables are computed in chunks.
CONTAINMENT_CHUNK = 4096


def _chunks(count: int, cell: int) -> list[slice]:
    """Slices of range(count) whose items, `cell` complex entries each, make
    temporaries of at most CONTAINMENT_CHUNK entries (or one item)."""
    step = max(1, CONTAINMENT_CHUNK // max(1, cell))
    return [slice(s, s + step) for s in range(0, count, step)]


def byte_kinds(stack: np.ndarray, seen: dict[bytes, int]) -> list[int]:
    """The kind of each matrix of a stack: its index among the distinct
    byte strings of `seen`, each new one added in stack order.  Matrices
    equal bit for bit share a kind, so a float taken from one holds for
    all; a zero's sign splits kinds."""
    raw = stack.tobytes()
    width = len(raw) // max(1, len(stack))
    return [seen.setdefault(raw[k * width:(k + 1) * width], len(seen)) for k in range(len(stack))]


def product_max(stack: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """max|P Q| over the entries, for each pair (P, Q) = (stack[first[p]],
    stack[second[p]]) of a stack of matrices: the float
    `Projector.orthogonal_to` tests, taken in chunks of pairs."""
    out = np.empty(len(first))
    cell = stack.shape[1] * stack.shape[2]
    for s in _chunks(len(first), cell):
        products = stack[first[s]] @ stack[second[s]]
        out[s] = np.abs(products.reshape(len(products), cell)).max(axis=1)
    return out


def containment_table(rows: np.ndarray, cols: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Subspace containment P <= Q for each projector matrix Q of the stack
    `rows` and P of the stack `cols`, decided as max|Q*P - P| < tol.certain:
    a bool array indexed [row, column]."""
    if rows.ndim != 3 or rows.shape[1:] != cols.shape[1:]:
        raise LinalgError("dimension mismatch")
    cell = rows.shape[1] * rows.shape[2]
    step = max(1, CONTAINMENT_CHUNK // cell)
    if len(cols) > step:
        return np.concatenate([containment_table(rows, cols[c:c + step], tol)
                               for c in range(0, len(cols), step)], axis=1)
    step = max(1, CONTAINMENT_CHUNK // max(1, len(cols) * cell))
    if len(rows) > step:
        return np.concatenate([containment_table(rows[r:r + step], cols, tol)
                               for r in range(0, len(rows), step)])
    return np.abs(rows[:, np.newaxis] @ cols - cols).max(axis=(-2, -1)) < tol.certain


def screened_containment_blocks(rows: np.ndarray, cols: np.ndarray, blocks,
                                tol: Tolerances = DEFAULT) -> list[np.ndarray]:
    """`containment_table` on the diagonal blocks of a table: `blocks`
    gives each block's number of rows and of columns, taken from `rows`
    and `cols` in order, and a block's table tests its rows against its
    own columns alone.  Each row equal bit for bit to an earlier one of its
    block is decided once (a row repeated in another block meets other
    columns), and each non-containment proven by trace where it can be.

    For X = Q P - P, exact on the float entries, |tr X| <= d max|X| and
    Re tr X = Re tr(Q P) - Re tr P.  One product of flattened matrices per
    block, as in the closure's link proof, gives the overlap Re tr(Q P),
    the sum of Q_kl P_lk, for every pair, within d^2 eps F of its exact
    value, F = ||Q||_F ||P||_F (see `_SCREEN_ROUNDING`).  Re tr P is within
    d^2 eps G, G = ||P||_F; a float entry of Q P is within 2 (d + 1) eps F
    of its exact value, and the subtraction and modulus add 2 eps (F + G).
    So a gap |overlap - Re tr P| of at least d tol.certain + s, the slack
    s = 2 _SCREEN_ROUNDING d^2 (F + G) with F and G bounded by the
    Frobenius norms of the whole stacks, puts the float max|Q P - P| at or
    above tol.certain: the pair is not contained and takes no product.
    The threshold is raised by the factor 1 + _SCREEN_ROUNDING against its
    own rounding and the gap's.  Every other pair, of every block, takes
    that float max in one gathered stacked product (the broadcast product's
    float per pair, as in `product_max`).  For projectors a pair that is
    not contained has Re tr P - Re tr(Q P) >= 1 in exact arithmetic, the
    rank of the part of P outside Q, so at widths well below 1 / d only
    contained pairs take a product."""
    rows, cols = np.asarray(rows, dtype=complex), np.asarray(cols, dtype=complex)
    counts = np.array(blocks, dtype=np.intp).reshape(-1, 2)
    if rows.ndim != 3 or rows.shape[1:] != cols.shape[1:]:
        raise LinalgError("dimension mismatch")
    if counts.sum(axis=0).tolist() != [len(rows), len(cols)]:
        raise LinalgError("blocks do not cover the stacks")
    if not len(counts):
        return []
    dim = rows.shape[1]
    cell = dim * dim
    row_starts, col_starts = (np.cumsum(counts, axis=0) - counts).T.tolist()
    kinds, found, raw = [], [], []   # per block, each row's kind and the kinds' first index
    for r, n in zip(row_starts, counts[:, 0].tolist()):
        seen: dict[bytes, int] = {}
        kinds.append(byte_kinds(rows[r:r + n], seen))
        found.append((len(raw), len(seen)))
        raw += seen
    distinct = np.frombuffer(b"".join(raw), dtype=complex).reshape(len(raw), dim, dim)
    flat = distinct.reshape(len(raw), cell)
    turned = cols.transpose(0, 2, 1).reshape(len(cols), cell)
    row_norm, col_norm = float(np.vdot(flat, flat).real), float(np.vdot(turned, turned).real)
    slack = 2 * _SCREEN_ROUNDING * cell * (math.sqrt(row_norm * col_norm) + math.sqrt(col_norm))
    threshold = (dim * tol.certain + slack) * (1 + _SCREEN_ROUNDING)
    trace = _trace(cols)
    tables, opened = [], []   # per block, a table by (kind, column) and its pairs left open
    for (k, n), c, m in zip(found, col_starts, counts[:, 1].tolist()):
        gap = np.abs((flat[k:k + n] @ turned[c:c + m].T).real - trace[c:c + m])
        tables.append(np.zeros(gap.shape, dtype=bool))
        opened.append(np.nonzero(~(gap >= threshold) if threshold < np.inf else ~tables[-1]))
    first = np.concatenate([k + q for (k, _), (q, _) in zip(found, opened)])
    second = np.concatenate([c + p for c, (_, p) in zip(col_starts, opened)])
    decided = np.empty(len(first), dtype=bool)
    for s in _chunks(len(first), cell):
        factor = cols[second[s]]
        products = distinct[first[s]] @ factor - factor
        decided[s] = np.abs(products.reshape(len(products), cell)).max(axis=1) < tol.certain
    out, start = [], 0
    for table, (q, p), which in zip(tables, opened, kinds):
        table[q, p] = decided[start:start + len(q)]
        start += len(q)
        out.append(table[which])
    return out


def screened_containment_table(rows: np.ndarray, cols: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """`containment_table` of `screened_containment_blocks`'s one-block
    case: every row against every column."""
    return screened_containment_blocks(rows, cols, [(len(rows), len(cols))], tol)[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A bounded self-adjoint operator on a finite-dimensional Hilbert space."""

    entries: np.ndarray

    def __init__(self, entries, tol: Tolerances = DEFAULT):
        m = _as_complex_matrix(entries)
        if _hermitian_defect(m) > tol.herm:
            raise LinalgError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", _frozen(m))

    @classmethod
    def _validated(cls, entries: np.ndarray) -> "HermitianOperator":
        """An operator on read-only entries that have passed the
        Hermiticity test of `__init__`."""
        op = cls.__new__(cls)
        object.__setattr__(op, "entries", entries)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector; rank is the trace rounded to the nearest integer."""

    entries: np.ndarray
    rank: int

    def __init__(self, entries, tol: Tolerances = DEFAULT):
        m = _as_complex_matrix(entries)
        rank = _projector_rank(_hermitian_defect(m), _idempotency_defect(m), float(_trace(m)), tol)
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "rank", rank)

    @classmethod
    def _validated(cls, entries: np.ndarray, rank: int) -> "Projector":
        """A projector on read-only entries that have passed validation,
        with the rank found there (see `projector_ranks`)."""
        p = cls.__new__(cls)
        object.__setattr__(p, "entries", entries)
        object.__setattr__(p, "rank", rank)
        return p

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def leq(self, other: "Projector", tol: Tolerances = DEFAULT) -> bool:
        """Subspace containment self <= other, decided as other*self == self."""
        return bool(containment_table(other.entries[np.newaxis], self.entries[np.newaxis], tol)[0, 0])

    def orthogonal_to(self, other: "Projector", tol: Tolerances = DEFAULT) -> bool:
        return bool(np.max(np.abs(self.entries @ other.entries)) < tol.atom)

    def equals(self, other: "Projector", tol: Tolerances = DEFAULT) -> bool:
        return bool(np.max(np.abs(self.entries - other.entries)) < tol.atom)


def identity_projector(dim: int, tol: Tolerances = DEFAULT) -> Projector:
    return Projector(np.eye(dim), tol=tol)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A PSD, trace-one state; caches the projector onto its range."""

    entries: np.ndarray
    support_projector: Projector

    def __init__(self, entries, tol: Tolerances = DEFAULT):
        m = _as_complex_matrix(entries)
        if _hermitian_defect(m) > tol.herm:
            raise LinalgError("density matrix is not Hermitian within tolerance")
        evals, evecs = np.linalg.eigh(m)
        if evals.min() < tol.psd_floor:
            raise LinalgError(f"negative eigenvalue {evals.min()} below PSD floor")
        if abs(float(np.trace(m).real) - 1.0) > tol.trace_one:
            raise LinalgError("density matrix trace is not 1 within tolerance")
        # support = span of eigenvectors carrying weight above the support threshold
        keep = evals > tol.support_trace
        vecs = evecs[:, keep]
        supp = Projector(vecs @ vecs.conj().T, tol=tol)
        if np.max(np.abs(supp.entries @ m - m)) > tol.certain:
            raise LinalgError("support projector does not reproduce the state")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "support_projector", supp)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector; `density()` gives the corresponding pure state."""

    amplitudes: np.ndarray

    def __init__(self, amplitudes, tol: Tolerances = DEFAULT):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise LinalgError("state vector has a non-finite entry")
        if abs(np.linalg.norm(v) - 1.0) > tol.unit_norm:
            raise LinalgError("state vector is not normalised within tolerance")
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self, tol: Tolerances = DEFAULT) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), tol=tol)


def eig_hermitian(h: HermitianOperator, tol: Tolerances = DEFAULT) -> list[tuple[float, Projector]]:
    """Grouped eigendecomposition: strictly increasing eigenvalues with
    mutually orthogonal eigenprojectors summing to the identity.

    Raw eigenvalues are chained into clusters wherever consecutive gaps are
    <= tol.eig_group.  A cluster wider than tol.eig_group is ambiguous (two
    raw eigenvalues straddle the grouping width without a clean gap) and is
    reported as an error rather than silently merged or split.
    """
    group = tol.eig_group
    if group <= 0:
        raise LinalgError("eig_group must be positive")
    evals, evecs = np.linalg.eigh(h.entries)
    # the groups are runs of the ascending eigenvalues, each starting where
    # a gap exceeds the grouping width
    cuts = [0, *(np.flatnonzero(~(np.diff(evals) <= group)) + 1).tolist(), len(evals)]
    runs = list(zip(cuts, cuts[1:]))
    # the groups' projectors are validated as one stack; a group's width
    # error comes before its own projector's error, after earlier groups'
    stack = np.array([evecs[:, s:t] @ evecs[:, s:t].conj().T for s, t in runs])
    stack.flags.writeable = False
    ranks, errors = projector_checks(stack, tol)
    out: list[tuple[float, Projector]] = []
    for k, (s, t) in enumerate(runs):
        if evals[t - 1] - evals[s] > group:
            raise GroupingError(
                f"eigenvalue cluster {evals[s:t].tolist()} is wider than "
                f"the grouping width {group}; refusing to guess"
            )
        if k in errors:
            raise errors[k]
        out.append((float(np.mean(evals[s:t])), Projector._validated(stack[k], ranks[k])))
    # post-conditions: reconstruction and resolution of the grouped spectrum
    recon = sum(lam * p.entries for lam, p in out)
    if np.max(np.abs(recon - h.entries)) > tol.recon:
        raise LinalgError("spectral reconstruction failed")
    for (l1, _), (l2, _) in zip(out, out[1:]):
        if l2 - l1 <= group:
            raise GroupingError("grouped eigenvalues are not separated by eig_group")
    return out


def projector_from_span(vectors, tol: Tolerances = DEFAULT) -> Projector:
    """Orthogonal projector onto the span of the given vectors.

    The vectors must be linearly independent: the smallest singular value
    must reach `tol.trace_rank` times the largest (or times 1, if that is
    larger).  The resulting rank equals the number of vectors.  This is the
    one-span case of `span_projectors`.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vs:
        raise LinalgError("empty span")
    matrices, errors = span_projectors(np.column_stack(vs)[np.newaxis], tol)
    if errors:
        raise errors[0]
    p = Projector(matrices[0], tol=tol)
    if p.rank != len(vs):
        raise LinalgError("projector rank does not match the number of vectors")
    return p


def commutes(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT) -> bool:
    """Max-abs commutator test; pre-condition for sharing a context."""
    if a.dim != b.dim:
        raise LinalgError("dimension mismatch")
    comm = a.entries @ b.entries - b.entries @ a.entries
    return bool(np.max(np.abs(comm)) < tol.commute)


def certain(rho: DensityMatrix, p: Projector, tol: Tolerances = DEFAULT) -> bool:
    """Born-rule probability-1 test, decided as support containment.

    tr(rho P) = 1 exactly when the support of rho lies inside the range of
    P; the containment form P*S = S is robust at the boundary where a
    floating trace comparison would flap.
    """
    return bool(containment_table(p.entries[np.newaxis], rho.support_projector.entries[np.newaxis],
                                  tol)[0, 0])


def certain_each(rho: DensityMatrix, stack: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The probability-1 test of `certain` for each projector matrix Q of a
    stack: the containment of rho's support projector in Q, one column of
    `containment_table`."""
    return containment_table(stack, rho.support_projector.entries[np.newaxis], tol)[:, 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """The norm of each row of a complex matrix, each the float
    `np.linalg.norm` gives for that row alone: the dot of its real parts
    with themselves plus that of its imaginary parts, then the square
    root.  A stack of (1, n) by (n, 1) products takes numpy's dot on the
    same strided parts, as `np.linalg.norm` does."""
    re, im = x.real[:, np.newaxis], x.imag[:, np.newaxis]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def probability_each(rho: DensityMatrix, stack: np.ndarray) -> np.ndarray:
    """The Born probability tr(rho Q) of each projector matrix Q of a
    stack, in one batched product."""
    return np.trace(rho.entries[np.newaxis] @ stack, axis1=1, axis2=2).real
