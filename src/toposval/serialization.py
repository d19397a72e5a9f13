"""JSON input schemas.

Complex numbers are [re, im] pairs (bare reals accepted on input), finite,
and never JSON booleans; matrices are row-major nested arrays.  A context
is given either by its atom matrices or by a basis plus a partition of the
basis indices.

A contexts document is schema-checked object by object, partition indices
included, before any float work.  Its projectors are then built and
validated in stacks, one svd, qr and product per block size and one
projector validation for every atom, and the contexts are validated as
one batch (see `_build_contexts`), raising the error that checking one
context and one atom at a time would raise first.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

import numpy as np

from .contexts import Context, build_contexts
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    Projector,
    StateVector,
    projector_checks,
    span_projectors,
)
from .tolerances import DEFAULT, Tolerances


class SchemaError(ValueError):
    """Input file does not match the documented schema."""


def parse_complex(x) -> complex:
    # a bool is an int in Python: without the bool test, JSON `true` reads as 1
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        z = complex(x)
    elif isinstance(x, (list, tuple)) and len(x) == 2 \
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x):
        z = complex(x[0], x[1])
    else:
        raise SchemaError(f"expected a real or an [re, im] pair, got {x!r}")
    if not cmath.isfinite(z):
        raise SchemaError(f"expected finite numbers, got {x!r}")
    return z


def matrix_from_json(rows, dim: int | None = None) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError("matrix must be a nested array")
    m = np.array([[parse_complex(x) for x in r] for r in rows])
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"matrix must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise SchemaError(f"matrix dim {m.shape[0]} does not match declared dim {dim}")
    return m


def vector_from_json(entries, dim: int | None = None) -> np.ndarray:
    if not isinstance(entries, list):
        raise SchemaError("vector must be an array")
    v = np.array([parse_complex(x) for x in entries])
    if dim is not None and v.shape[0] != dim:
        raise SchemaError(f"vector dim {v.shape[0]} does not match declared dim {dim}")
    return v


@dataclass
class _ContextSpec:
    """One context object of a document after its schema checks: its atom
    matrices (atoms form) or its basis vectors and partition blocks (basis
    form), and the schema error it failed with, if any.  An atoms-form
    object that fails keeps the matrices parsed before the failing one."""

    id: object = None
    matrices: list[np.ndarray] = field(default_factory=list)
    vectors: list[np.ndarray] = field(default_factory=list)
    blocks: list[list[int]] | None = None
    error: SchemaError | None = None


def _parse_context(obj) -> _ContextSpec:
    spec = _ContextSpec()
    try:
        if not isinstance(obj, dict):
            raise SchemaError("context must be an object")
        for key in ("id", "dim"):
            if key not in obj:
                raise SchemaError(f"context is missing the {key!r} field")
        spec.id, dim = obj["id"], obj["dim"]
        if not isinstance(spec.id, str):
            raise SchemaError(f"context id must be a string, got {spec.id!r}")
        if "atoms" in obj:
            if not isinstance(obj["atoms"], list):
                raise SchemaError(f"atoms of context {spec.id!r} must be an array of matrices")
            for a in obj["atoms"]:
                spec.matrices.append(matrix_from_json(a, dim))
        elif "basis" in obj and "partition" in obj:
            if not isinstance(obj["basis"], list):
                raise SchemaError(f"basis of context {spec.id!r} must be an array of vectors")
            vectors = [vector_from_json(v, dim) for v in obj["basis"]]
            spec.blocks = _partition_blocks(obj["partition"], len(vectors), spec.id)
            spec.vectors = vectors
        else:
            raise SchemaError(f"context {spec.id!r} needs either atoms or basis+partition")
    except SchemaError as exc:
        spec.error = exc
    return spec


def _partition_blocks(partition, n: int, cid) -> list[list[int]]:
    """The blocks of a basis partition: non-empty arrays of ints in
    range(n), no index twice (bools are not indices)."""
    if not isinstance(partition, list) or not all(isinstance(b, list) for b in partition):
        raise SchemaError(f"partition of context {cid!r} must be an array of index arrays")
    seen = set()
    for block in partition:
        if not block:
            raise SchemaError(f"empty partition block in context {cid!r}")
        for i in block:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
                raise SchemaError(f"partition of context {cid!r} has {i!r}, "
                                  f"which is not an index of its {n} basis vectors")
            if i in seen:
                raise SchemaError(f"partition of context {cid!r} uses index {i} twice")
            seen.add(i)
    return partition


def _build_contexts(specs: list[_ContextSpec], tol: Tolerances) -> list[Context]:
    """The contexts of parsed specs, their projectors built and validated in
    stacks: each basis-form block's span projector in one `span_projectors`
    call per (dim, block size), then every atom matrix of one dim in one
    `projector_checks` call.  The specs are then taken in order up to the
    first that fails a check of its own, in this order: its atoms'
    projector checks, in atom order; its schema error; the partition's
    cover of the basis.  The specs before it become contexts in one
    `build_contexts` batch, which raises the first `Context` check failed
    among them; if none fails, that spec's own failure is raised.  So the
    error is the one building the contexts one at a time, each atom in
    turn, would raise first."""
    matrices: list = []   # per atom, in spec and atom order
    owner: list[int] = []
    errors: dict[int, LinalgError] = {}
    sizes: dict[int, int] = {}   # per basis-form atom, its block's size
    vectors: dict[int, list[np.ndarray]] = {}   # per dim, the basis vectors of its specs
    spans: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}   # (dim, size) -> (atom, rows)
    for k, spec in enumerate(specs):
        if spec.blocks is None:
            matrices.extend(spec.matrices)
            owner.extend([k] * len(spec.matrices))
            continue
        if spec.blocks:
            dim = len(spec.vectors[0])
            base = len(vectors.setdefault(dim, []))
            vectors[dim].extend(spec.vectors)
        for block in spec.blocks:
            spans.setdefault((dim, len(block)), []).append((len(matrices), [base + i for i in block]))
            sizes[len(matrices)] = len(block)
            matrices.append(None)
            owner.append(k)
    for (dim, _), group in spans.items():
        rows = np.array([r for _, r in group])
        built, failed = span_projectors(np.array(vectors[dim])[rows].transpose(0, 2, 1), tol)
        for g, (a, _) in enumerate(group):
            matrices[a] = built[g]
            if g in failed:
                errors[a] = failed[g]
    atoms: list = [None] * len(matrices)
    for dim in {len(m) for m in matrices}:
        picked = [a for a, m in enumerate(matrices) if len(m) == dim]
        stack = np.array([matrices[a] for a in picked], dtype=complex)
        stack.flags.writeable = False
        ranks, failed = projector_checks(stack, tol)
        for g, a in enumerate(picked):
            if g in failed:
                errors.setdefault(a, failed[g])
            elif a in sizes and ranks[g] != sizes[a]:
                errors.setdefault(a, LinalgError("projector rank does not match the number of vectors"))
            else:
                atoms[a] = Projector._validated(stack[g], ranks[g])
    ready, failed = [], None
    bounds = np.searchsorted(owner, np.arange(len(specs) + 1)).tolist()
    for k, spec in enumerate(specs):
        mine = range(bounds[k], bounds[k + 1])
        failed = next((errors[a] for a in mine if a in errors), spec.error)
        if failed is None and spec.blocks is not None and sum(map(len, spec.blocks)) != len(spec.vectors):
            failed = SchemaError(f"partition of context {spec.id!r} does not cover the basis")
        if failed is not None:
            break
        ready.append((spec.id, [atoms[a] for a in mine]))
    contexts = build_contexts(ready, tol)
    if failed is not None:
        raise failed
    return contexts


def context_from_json(obj, tol: Tolerances = DEFAULT) -> Context:
    """{"id", "dim", "atoms": [matrix...]} or
    {"id", "dim", "basis": [vector...], "partition": [[indices]...]}; the
    partition's indices are checked before any float work (see
    `contexts_from_json`)."""
    return _build_contexts([_parse_context(obj)], tol)[0]


def contexts_from_json(doc, tol: Tolerances = DEFAULT) -> tuple[list[Context], int | None]:
    """A bare array of contexts, or {"dim": n, "contexts": [...]}.

    The context objects are schema-checked in order, up to the first that
    fails; the projectors of all of them are then built and validated in
    stacks (see `_build_contexts`), and the first failure is raised: the
    error of the first context that fails any check, and within it the
    first check it fails, in the order its atoms come.  A declared dim
    must then match every context's; the first that differs, in document
    order, is named."""
    if isinstance(doc, dict):
        dim = doc.get("dim")
        raw = doc.get("contexts", [])
    elif isinstance(doc, list):
        dim = None
        raw = doc
    else:
        raise SchemaError("contexts document must be an array or an object")
    specs = []
    for obj in raw:
        specs.append(_parse_context(obj))
        if specs[-1].error is not None:
            break
    contexts = _build_contexts(specs, tol)
    if dim is not None:
        for c in contexts:
            if c.dim != dim:
                raise SchemaError(f"declared dim {dim} does not match context {c.id!r} of dim {c.dim}")
    return contexts, dim


def state_from_json(doc, tol: Tolerances = DEFAULT) -> DensityMatrix | StateVector:
    """{"type": "pure" | "density", "data": vector | matrix}."""
    if not isinstance(doc, dict) or "type" not in doc or "data" not in doc:
        raise SchemaError('state must be {"type": "pure"|"density", "data": ...}')
    if doc["type"] == "pure":
        return StateVector(vector_from_json(doc["data"]), tol=tol)
    if doc["type"] == "density":
        return DensityMatrix(matrix_from_json(doc["data"]), tol=tol)
    raise SchemaError(f"unknown state type {doc['type']!r}")


def operators_from_json(doc, tol: Tolerances = DEFAULT) -> list[tuple[str, HermitianOperator]]:
    """{"dim": n, "operators": [{"id", "matrix"}...]}, each id a string."""
    if not isinstance(doc, dict) or "operators" not in doc:
        raise SchemaError('operator set must be {"dim": n, "operators": [...]}')
    dim = doc.get("dim")
    if not isinstance(doc["operators"], list):
        raise SchemaError("operators must be an array of objects")
    out = []
    for entry in doc["operators"]:
        if not isinstance(entry, dict) or "id" not in entry or "matrix" not in entry:
            raise SchemaError("each operator needs id and matrix")
        if not isinstance(entry["id"], str):
            raise SchemaError(f"operator id must be a string, got {entry['id']!r}")
        out.append((entry["id"], HermitianOperator(matrix_from_json(entry["matrix"], dim), tol=tol)))
    return out


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
