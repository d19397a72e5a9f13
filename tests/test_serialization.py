import json
from importlib import resources

import numpy as np
import numpy.testing as npt
import pytest

from conftest import context_atoms_oracle, span_projector_oracle
from test_closure import _peres_bases
from toposval.linalg import LinalgError, Projector
from toposval.sampling import random_unitary
from toposval.serialization import (
    SchemaError,
    context_from_json,
    contexts_from_json,
    matrix_from_json,
    operators_from_json,
    parse_complex,
    state_from_json,
    vector_from_json,
)
from toposval.tolerances import DEFAULT


def test_parse_complex():
    assert parse_complex(1.5) == 1.5 + 0j
    assert parse_complex([1, -2]) == 1 - 2j
    with pytest.raises(SchemaError):
        parse_complex("x")
    with pytest.raises(SchemaError):
        parse_complex([1, 2, 3])


def test_matrix_roundtrip():
    m = matrix_from_json([[[0, 0], [0, -1]], [[0, 1], [0, 0]]])
    npt.assert_allclose(m, np.array([[0, -1j], [1j, 0]]))
    with pytest.raises(SchemaError):
        matrix_from_json([[1, 2, 3]])


def test_context_from_atoms():
    ctx = context_from_json({
        "id": "V", "dim": 2,
        "atoms": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    })
    assert ctx.n_atoms == 2


def test_context_from_basis_partition():
    ctx = context_from_json({
        "id": "V", "dim": 3,
        "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "partition": [[0], [1, 2]],
    })
    assert ctx.n_atoms == 2
    assert {a.rank for a in ctx.atoms} == {1, 2}
    with pytest.raises(SchemaError):
        context_from_json({
            "id": "V", "dim": 3,
            "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "partition": [[0], [1]],     # does not cover the basis
        })


def test_context_missing_fields():
    with pytest.raises(SchemaError):
        context_from_json({"id": "V"})
    with pytest.raises(SchemaError):
        context_from_json({"id": "V", "dim": 2})


def test_contexts_document_forms():
    obj = {"id": "V", "dim": 2, "atoms": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    ctxs, dim = contexts_from_json([obj])
    assert len(ctxs) == 1 and dim is None
    ctxs, dim = contexts_from_json({"dim": 2, "contexts": [obj]})
    assert dim == 2
    with pytest.raises(SchemaError):
        contexts_from_json({"dim": 3, "contexts": [obj]})


def test_state_parsing():
    psi = state_from_json({"type": "pure", "data": [[1, 0], [0, 0]]})
    assert psi.dim == 2
    rho = state_from_json({"type": "density", "data": [[0.5, 0], [0, 0.5]]})
    assert rho.dim == 2
    with pytest.raises(SchemaError):
        state_from_json({"type": "thermal", "data": []})


def test_operators_parsing():
    ops = operators_from_json({
        "dim": 2,
        "operators": [{"id": "A", "matrix": [[1, 0], [0, 2]]}],
    })
    assert ops[0][0] == "A"
    with pytest.raises(SchemaError):
        operators_from_json({"operators": [{"matrix": [[1]]}]})


# --------------------------------------------------------------------------
# the stacked boundary against one-context-at-a-time oracles

def _contexts_oracle(doc, tol=DEFAULT):
    """`contexts_from_json` one context, block and atom at a time: (id,
    atoms in canonical order) per context, or the first error raised."""
    out = []
    for obj in doc["contexts"] if isinstance(doc, dict) else doc:
        cid, dim = obj["id"], obj["dim"]
        if "atoms" in obj:
            atoms = [Projector(matrix_from_json(a, dim), tol=tol) for a in obj["atoms"]]
        else:
            basis = [vector_from_json(v, dim) for v in obj["basis"]]
            atoms = [span_projector_oracle([basis[i] for i in block], tol) for block in obj["partition"]]
            if sorted(i for block in obj["partition"] for i in block) != list(range(len(basis))):
                raise SchemaError(f"partition of context {cid!r} does not cover the basis")
        out.append((cid, context_atoms_oracle(cid, atoms, tol)))
    return out


def _outcome(parse, doc, tol):
    try:
        return parse(doc, tol)
    except ValueError as exc:
        return exc


def _assert_matches_oracle(doc, tol=DEFAULT):
    """Bit-equal atom entries, the same atom order and ranks, or the same
    exception type and message."""
    want = _outcome(_contexts_oracle, doc, tol)
    got = _outcome(lambda d, t: contexts_from_json(d, t)[0], doc, tol)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert [c.id for c in got] == [cid for cid, _ in want]
    for c, (_, atoms) in zip(got, want):
        assert [a.rank for a in c.atoms] == [a.rank for a in atoms]
        assert [a.entries.tobytes() for a in c.atoms] == [a.entries.tobytes() for a in atoms]


def _z(x):
    return [float(x.real), float(x.imag)]


def _blocks(rng, n, pairs=True):
    """A seeded partition of range(n) into blocks of one or two indices."""
    rest, out = [int(i) for i in rng.permutation(n)], []
    while rest:
        k = 2 if pairs and len(rest) > 1 and rng.random() < 0.5 else 1
        out.append(sorted(rest[:k]))
        rest = rest[k:]
    return out


def _document(bases, rng, form, noise=0.0, pairs=True):
    """A contexts document of bases (vectors as columns), each with a
    seeded partition into blocks of one or two vectors, in the basis form
    or the atoms form, through a JSON round trip."""
    out = []
    for k, u in enumerate(bases):
        dim = u.shape[0]
        vectors = [u[:, i] + noise * (rng.normal(size=dim) + 1j * rng.normal(size=dim)) for i in range(dim)]
        blocks = _blocks(rng, dim, pairs)
        ctx = {"id": f"C{k}", "dim": dim}
        if form == "basis":
            ctx.update(basis=[[_z(x) for x in v] for v in vectors], partition=blocks)
        else:
            ctx["atoms"] = [[[_z(x) for x in row]
                             for row in span_projector_oracle([vectors[i] for i in b]).entries]
                            for b in blocks]
        out.append(ctx)
    return json.loads(json.dumps({"dim": out[0]["dim"], "contexts": out}))


def _peres(rng, bases, size):
    """`size` seeded Peres bases under a seeded unitary, vectors as columns."""
    u = random_unitary(rng, 4)
    picked = [bases[int(i)] for i in rng.choice(24, size=size, replace=False)]
    return [u @ (np.array(b, dtype=float).T / np.linalg.norm(b, axis=1)) for b in picked]


def test_stacked_parse_matches_the_oracle_on_seeded_documents():
    docs = [json.loads(resources.files("toposval").joinpath("data/ks18_dim4.json").read_text())]
    bases = _peres_bases()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 4
        unitaries = [random_unitary(rng, dim) for _ in range(1 + seed % 5)]
        peres = _peres(rng, bases, 3 + seed)
        for form in ("basis", "atoms"):
            docs.append(_document(unitaries, rng, form))
            docs.append(_document(unitaries, rng, form, noise=1e-12))
            docs.append(_document(peres, rng, form, pairs=seed % 2 == 0))
            docs.append(_document(peres, rng, form, noise=1e-12, pairs=False))
    for doc in docs:
        _assert_matches_oracle(doc)
    ranks = {a.rank for doc in docs for c in contexts_from_json(doc)[0] for a in c.atoms}
    assert len(docs) == 97 and ranks == {1, 2}


def _faulty(seed, fault):
    """A seeded basis-form document of three dimension-3 contexts, the
    middle one broken by `fault`."""
    rng = np.random.default_rng(seed)
    doc = _document([random_unitary(rng, 3) for _ in range(3)], rng, "basis", pairs=False)
    ctx = doc["contexts"][1]
    vectors = ctx["basis"]
    if fault == "zero vector":
        vectors[0] = [0, 0, 0]
    elif fault == "dependent block":
        vectors[1] = vectors[0]
        ctx["partition"] = [[0, 1], [2]]
    elif fault == "non-orthogonal atoms":
        vectors[1] = [[x + 1e-3 * y for x, y in zip(p, q)] for p, q in zip(vectors[1], vectors[0])]
    elif fault == "uncovered basis":
        ctx["partition"] = [[0], [2]]
    elif fault == "non-idempotent atom":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    elif fault == "non-Hermitian atom":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            [[1, 1e-6, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    elif fault == "no identity":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}
    elif fault == "zero atom":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}
    elif fault == "bad atom, then a malformed one":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 0], [0, 1]]]}
    elif fault == "malformed atom, then a bad one":
        doc["contexts"][1] = {"id": "C1", "dim": 3, "atoms": [
            "x", [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]]]}
    return doc


FAULTS = ["zero vector", "dependent block", "non-orthogonal atoms", "uncovered basis",
          "non-idempotent atom", "non-Hermitian atom", "no identity", "zero atom",
          "bad atom, then a malformed one", "malformed atom, then a bad one"]


@pytest.mark.parametrize("fault", FAULTS)
def test_stacked_parse_raises_the_oracle_error(fault):
    for seed in range(3):
        doc = _faulty(seed, fault)
        with pytest.raises(ValueError):
            _contexts_oracle(doc)
        _assert_matches_oracle(doc)


@pytest.mark.parametrize("first,second", [
    ("non-orthogonal atoms", "dependent block"),      # a Context check before a span check
    ("dependent block", "malformed atom, then a bad one"),   # a span check before a schema error
    ("no identity", "zero vector"),
    ("zero vector", "non-idempotent atom"),
    ("uncovered basis", "non-Hermitian atom"),
])
def test_stacked_parse_raises_the_first_of_two_faulty_contexts(first, second):
    alone = [str(_outcome(_contexts_oracle, _faulty(seed, f), DEFAULT)) for seed, f in ((1, first), (2, second))]
    assert alone[0] != alone[1]
    doc = _faulty(1, first)
    doc["contexts"].append(_faulty(2, second)["contexts"][1])
    assert str(_outcome(_contexts_oracle, doc, DEFAULT)) == alone[0]
    _assert_matches_oracle(doc)
    # and in the other order, the other context's error
    doc["contexts"][1], doc["contexts"][3] = doc["contexts"][3], doc["contexts"][1]
    assert str(_outcome(_contexts_oracle, doc, DEFAULT)) == alone[1]
    _assert_matches_oracle(doc)


@pytest.mark.parametrize("partition,message", [
    ([[0], [5]], "has 5, which is not an index of its 2 basis vectors"),
    ([[0], [-1]], "has -1, which is not an index"),
    ([[0], [1.0]], "has 1.0, which is not an index"),
    ([[0], [True]], "has True, which is not an index"),
    ([[0], ["1"]], "has '1', which is not an index"),
    ([[0, 1], [1]], "uses index 1 twice"),
    ([[0], []], "empty partition block"),
    ([[0], 1], "must be an array of index arrays"),
    ({"0": [0]}, "must be an array of index arrays"),
])
def test_partition_indices_are_schema_checked(partition, message):
    obj = {"id": "V", "dim": 2, "basis": [[1, 0], [0, 1]], "partition": partition}
    with pytest.raises(SchemaError, match=message) as info:
        context_from_json(obj)
    assert "'V'" in str(info.value)


def test_partition_indices_are_checked_before_float_work():
    # the zero vector of block 0 is never reached: the partition fails first
    obj = {"id": "V", "dim": 2, "basis": [[0, 0], [0, 1]], "partition": [[0], [7]]}
    with pytest.raises(SchemaError, match="not an index"):
        context_from_json(obj)
    # but an earlier context's float failure still comes first
    doc = [{"id": "U", "dim": 2, "basis": [[0, 0], [0, 1]], "partition": [[0], [1]]}, obj]
    with pytest.raises(LinalgError, match="zero vector"):
        contexts_from_json(doc)


def test_non_finite_numbers_are_schema_errors():
    for x in (float("nan"), float("inf"), [0, float("-inf")]):
        with pytest.raises(SchemaError, match="finite"):
            parse_complex(x)
    doc = json.loads('[{"id": "V", "dim": 2, "basis": [[NaN, 0], [0, 1]], "partition": [[0], [1]]}]')
    with pytest.raises(SchemaError, match="finite"):
        contexts_from_json(doc)


@pytest.mark.parametrize("x", [True, False, [True, 0], [0, False]])
def test_json_booleans_are_not_numbers(x):
    # a bool is an int in Python: `true` once read as 1 in any matrix or vector
    with pytest.raises(SchemaError, match="expected a real"):
        parse_complex(x)


def test_booleans_are_rejected_in_every_document_kind():
    with pytest.raises(SchemaError, match="got True"):
        matrix_from_json(json.loads("[[true, false], [false, true]]"))
    with pytest.raises(SchemaError, match="got False"):
        vector_from_json(json.loads("[1, false]"))
    with pytest.raises(SchemaError, match="got True"):
        state_from_json(json.loads('{"type": "pure", "data": [true, 0]}'))
    with pytest.raises(SchemaError, match="got True"):
        operators_from_json(json.loads('{"dim": 1, "operators": [{"id": "A", "matrix": [[true]]}]}'))
    for obj in ('{"id": "V", "dim": 2, "atoms": [[[true, 0], [0, 0]], [[0, 0], [0, 1]]]}',
                '{"id": "V", "dim": 2, "basis": [[1, 0], [0, [true, 0]]], "partition": [[0], [1]]}'):
        with pytest.raises(SchemaError, match="expected a real"):
            contexts_from_json([json.loads(obj)])


def test_declared_dim_is_checked_against_every_context():
    def ctx(cid, dim):
        return {"id": cid, "dim": dim, "atoms": [np.eye(dim, dtype=int).tolist()]}

    doc = {"dim": 2, "contexts": [ctx("A", 2), ctx("B", 3), ctx("C", 4)]}
    with pytest.raises(SchemaError, match="declared dim 2 does not match context 'B' of dim 3"):
        contexts_from_json(doc)
    doc = {"dim": 3, "contexts": [ctx("A", 2), ctx("B", 3)]}
    with pytest.raises(SchemaError, match="context 'A' of dim 2"):
        contexts_from_json(doc)
    contexts, dim = contexts_from_json({"dim": 3, "contexts": [ctx("A", 3), ctx("B", 3)]})
    assert dim == 3 and [c.dim for c in contexts] == [3, 3]


@pytest.mark.parametrize("doc", [
    [],
    [{"id": "V", "dim": 0, "basis": [[], []], "partition": [[0, 1]]}],
    [{"id": "V", "dim": 2, "basis": [], "partition": []}],
    [{"id": "V", "dim": 2, "atoms": []}],
    [{"id": "V", "dim": 1, "atoms": [[[1]]]}, {"id": "W", "dim": 2, "basis": [[1, 0], [0, 1]], "partition": [[1, 0]]}],
    [{"id": "V", "dim": 2, "basis": [[1, 0], [1, 0]], "partition": [[0], [1]]}],
])
def test_stacked_parse_matches_the_oracle_on_edge_documents(doc):
    _assert_matches_oracle(doc)
