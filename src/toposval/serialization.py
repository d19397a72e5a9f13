"""JSON input schemas.

Complex numbers are [re, im] pairs (bare reals accepted on input);
matrices are row-major nested arrays.  A context is given either by its
atom matrices or by a basis plus a partition of the basis indices.
"""

from __future__ import annotations

import json

import numpy as np

from .contexts import Context
from .linalg import DensityMatrix, HermitianOperator, StateVector, projector_from_span
from .tolerances import DEFAULT, Tolerances


class SchemaError(ValueError):
    """Input file does not match the documented schema."""


def parse_complex(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 \
            and all(isinstance(v, (int, float)) for v in x):
        return complex(x[0], x[1])
    raise SchemaError(f"expected a real or an [re, im] pair, got {x!r}")


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


def context_from_json(obj, tol: Tolerances = DEFAULT) -> Context:
    """{"id", "dim", "atoms": [matrix...]} or
    {"id", "dim", "basis": [vector...], "partition": [[indices]...]}."""
    if not isinstance(obj, dict):
        raise SchemaError("context must be an object")
    for key in ("id", "dim"):
        if key not in obj:
            raise SchemaError(f"context is missing the {key!r} field")
    cid = obj["id"]
    dim = obj["dim"]
    if "atoms" in obj:
        from .linalg import Projector
        atoms = [Projector(matrix_from_json(a, dim), tol=tol) for a in obj["atoms"]]
    elif "basis" in obj and "partition" in obj:
        basis = [vector_from_json(v, dim) for v in obj["basis"]]
        atoms = []
        for block in obj["partition"]:
            if not block:
                raise SchemaError(f"empty partition block in context {cid!r}")
            atoms.append(projector_from_span([basis[i] for i in block], tol=tol))
        covered = sorted(i for block in obj["partition"] for i in block)
        if covered != list(range(len(basis))):
            raise SchemaError(f"partition of context {cid!r} does not cover the basis")
    else:
        raise SchemaError(f"context {cid!r} needs either atoms or basis+partition")
    return Context(cid, atoms, tol=tol)


def contexts_from_json(doc, tol: Tolerances = DEFAULT) -> tuple[list[Context], int | None]:
    """A bare array of contexts, or {"dim": n, "contexts": [...]}."""
    if isinstance(doc, dict):
        dim = doc.get("dim")
        raw = doc.get("contexts", [])
    elif isinstance(doc, list):
        dim = None
        raw = doc
    else:
        raise SchemaError("contexts document must be an array or an object")
    contexts = [context_from_json(c, tol) for c in raw]
    if contexts and dim is not None and contexts[0].dim != dim:
        raise SchemaError("declared dim does not match the contexts")
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
    """{"dim": n, "operators": [{"id", "matrix"}...]}."""
    if not isinstance(doc, dict) or "operators" not in doc:
        raise SchemaError('operator set must be {"dim": n, "operators": [...]}')
    dim = doc.get("dim")
    out = []
    for entry in doc["operators"]:
        if "id" not in entry or "matrix" not in entry:
            raise SchemaError("each operator needs id and matrix")
        out.append((entry["id"], HermitianOperator(matrix_from_json(entry["matrix"], dim), tol=tol)))
    return out


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
