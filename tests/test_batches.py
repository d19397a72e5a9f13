"""Differential tests for the batch forms of the contexts boundary.

A document's contexts, and the new meets of one closure round, are
validated by one `build_contexts` call, interned by one
`_ContextStore._intern_many` call and linked by one `add_many` call.  The
old one-item behaviour is the oracle: `conftest.context_atoms_oracle`
checks one atom pair at a time, `test_closure._intern_scan` scans every
stored projector, and `_OneAtATimeStore` makes every interning and every
store call for one item.  The call-count test keeps the build from falling
back to per-context calls.
"""

import itertools
import json
import re
from importlib import resources

import numpy as np
import pytest

import toposval.contexts
from conftest import context_atoms_oracle, store_intern
from test_closure import _closure_inputs, _intern_scan, _peres_subset
from test_serialization import _contexts_oracle, _faulty, _outcome
from toposval.contexts import _ContextStore, build_contexts, build_poset
from toposval.index import ContextError
from toposval.linalg import Projector
from toposval.serialization import contexts_from_json
from toposval.tolerances import DEFAULT


def test_intern_many_matches_the_scan():
    # batches of matrices near a few bases, some moved by about tol.atom,
    # against one scan per matrix in turn
    rng = np.random.default_rng(17)
    within = 0
    for atom in (1e-8, 0.05, 0.3):
        tol = DEFAULT.overridden(atom=atom)
        for dim in (2, 3, 5):
            store, stored = _ContextStore(tol), []
            bases = [np.diag(rng.integers(0, 2, size=dim) + rng.choice([0.0, 0.5], size=dim))
                     + 1j * atom * rng.normal(size=(dim, dim)) for _ in range(6)]
            for _ in range(12):
                batch = np.array([bases[int(rng.integers(len(bases)))]
                                  + atom * rng.uniform(-0.7, 0.7, size=(dim, dim))
                                  for _ in range(int(rng.integers(1, 30)))])
                before, seen = len(stored), set()
                want = [_intern_scan(stored, x, tol) for x in batch]
                assert store._intern_many(batch) == want, (atom, dim)
                for eid in want:   # a match of an earlier new matrix of the batch
                    within += eid >= before and eid in seen
                    seen.add(eid)
    assert within >= 50, within


def test_intern_many_takes_a_batch_match_only_without_a_stored_one():
    # at atom = 0.05: A is stored; C, 0.06 from A, is new; X, 0.03 from
    # both, takes A's id; Y, 0.03 from C only, takes C's; Z, 0.04 from Y,
    # matches no stored projector nor a new one, as Y took C's id
    tol = DEFAULT.overridden(atom=0.05)
    store = _ContextStore(tol)
    a = np.zeros((2, 2), dtype=complex)
    shift = np.array([[0, 0], [0, 1.0]])
    assert store._intern_many(a[np.newaxis]) == [0]
    batch = np.array([a + 0.06 * shift, a + 0.03 * shift, a + 0.09 * shift, a + 0.13 * shift])
    stored = [a]
    want = [_intern_scan(stored, x, tol) for x in batch]
    assert want == [1, 0, 1, 2]
    assert store._intern_many(batch) == want
    assert store._intern_many(batch) == [1, 0, 1, 2]   # now every one is stored
    assert store_intern(store, a + 0.2 * shift) == 3


def _spec_lists():
    """Lists of (id, atoms) specs mixing good contexts with a non-orthogonal
    one, one that does not resolve the identity, one with a zero atom, one
    of mixed dimension and an empty one, in dimensions 2 and 3."""
    e = [np.diag(np.eye(3)[i]) for i in range(3)]
    tilt = np.array([1.0, 1e-3, 0.0]) / np.hypot(1.0, 1e-3)
    specs = {
        "good3": [Projector(m) for m in e],
        "good3-reversed": [Projector(m) for m in e[::-1]],
        "good2": [Projector(np.diag([0.0, 1.0])), Projector(np.diag([1.0, 0.0]))],
        "skew": [Projector(np.outer(tilt, tilt)), Projector(e[1]), Projector(e[2])],
        "short": [Projector(e[0]), Projector(e[1])],
        "zero": [Projector(np.zeros((3, 3))), Projector(np.eye(3))],
        "mixed": [Projector(np.eye(2)), Projector(np.eye(3))],
        "empty": [],
    }
    names = list(specs)
    for r in (1, 2, 3):
        for chosen in itertools.permutations(names, r):
            yield [(f"{name}-{k}", specs[name]) for k, name in enumerate(chosen)]


def test_build_contexts_raises_and_builds_as_one_at_a_time():
    failed = set()
    for specs in _spec_lists():
        try:
            want = [context_atoms_oracle(cid, atoms) for cid, atoms in specs]
        except ContextError as exc:
            with pytest.raises(ContextError) as got:
                build_contexts(specs)
            assert str(got.value) == str(exc), [cid for cid, _ in specs]
            failed.add(re.sub(r"'.*'", "X", str(exc)))
            continue
        got = build_contexts(specs)
        assert [c.id for c in got] == [cid for cid, _ in specs]
        for c, atoms in zip(got, want):
            assert [id(p) for p in c.atoms] == [id(p) for p in atoms]
            assert c.stack.tobytes() == np.array([p.entries for p in atoms]).tobytes()
            assert not c.stack.flags.writeable and c.tol is DEFAULT
    assert failed == {"atoms of context X are not orthogonal", "atoms of context X do not resolve the identity",
                      "zero atom in context", "atoms of mixed dimension", "a context needs at least one atom"}


@pytest.mark.parametrize("first,second", [
    ("non-orthogonal atoms", "non-idempotent atom"),
    ("no identity", "dependent block"),
    ("no identity", "zero vector"),
])
def test_contexts_from_json_raises_a_context_error_before_a_later_projector_error(first, second):
    doc = _faulty(1, first)
    doc["contexts"].append(_faulty(2, second)["contexts"][1])
    want = _outcome(_contexts_oracle, doc, DEFAULT)
    got = _outcome(lambda d, t: contexts_from_json(d, t)[0], doc, DEFAULT)
    assert isinstance(want, ContextError)
    assert (type(got), str(got)) == (type(want), str(want))


class _OneAtATimeStore(_ContextStore):
    """The store with every interning and every store call made for one
    item: `_intern` per matrix, `add_many` per context."""

    def _intern_many(self, stack):
        return [_ContextStore._intern_many(self, x[np.newaxis])[0] for x in stack]

    def add_many(self, contexts, atom_ids=None):
        for k, c in enumerate(contexts):
            _ContextStore.add_many(self, [c], None if atom_ids is None else [atom_ids[k]])


def _fixture():
    return json.loads(resources.files("toposval").joinpath("data/ks18_dim4.json").read_text())


def _repeated_algebra_document():
    """The bundled 18-ray document plus its first basis again, under a new
    id and with its vectors in reverse order."""
    doc = _fixture()
    again = dict(doc["contexts"][0], id="B1again", basis=doc["contexts"][0]["basis"][::-1])
    doc["contexts"].append(again)
    return doc


def _store_state(store):
    return ([c.id for c in store.ctxs], store.starts.tolist(), store.link.tolist(),
            store._element_ids, store.keys, store.every.tobytes(),
            [c.stack.tobytes() for c in store.ctxs])


def test_batched_store_matches_one_context_at_a_time():
    families = list(_closure_inputs())
    repeated, _ = contexts_from_json(_repeated_algebra_document())
    families.append(("ks18-repeated", repeated, DEFAULT))
    for name, contexts, tol in families:
        states = []
        for store in (_ContextStore(tol), _OneAtATimeStore(tol)):
            try:
                store.add_many(contexts)
                store.close_under_meets()
                states.append(_store_state(store))
            except (ContextError, ValueError) as exc:
                states.append((type(exc), str(exc)))
        assert states[0] == states[1], name
    ids = [c.id for c in repeated]
    assert "B1again" in ids and "B1again" not in build_poset(repeated).ids


def _count_calls(monkeypatch):
    """Spies on one build: the event log of closure rounds (`split_meets`
    calls), interning batches, validation batches and store batches, with
    the link products each store batch takes."""
    events = []
    real_add, real_intern = _ContextStore.add_many, _ContextStore._intern_many
    real_validated, real_split = toposval.contexts._validated, _ContextStore.split_meets
    real_product = toposval.contexts.product_max
    adding = []

    def add_many(self, contexts, atom_ids=None):
        adding.append(0)
        try:
            real_add(self, contexts, atom_ids)
        finally:
            events.append(("add", adding.pop()))

    def product_max(stack, first, second):
        if adding:
            adding[-1] += 1
        return real_product(stack, first, second)

    def logged(name, real):
        def spy(*args):
            events.append((name,))
            return real(*args)
        return spy

    monkeypatch.setattr(_ContextStore, "add_many", add_many)
    monkeypatch.setattr(_ContextStore, "_intern_many", logged("intern", real_intern))
    monkeypatch.setattr(_ContextStore, "split_meets", logged("round", real_split))
    monkeypatch.setattr(toposval.contexts, "_validated", logged("validate", real_validated))
    monkeypatch.setattr(toposval.contexts, "product_max", product_max)
    return events


def _per_stage(events):
    """The event names between two closure rounds, the document's first."""
    stages, current = [], []
    for e in events:
        if e[0] == "round":
            stages.append(current)
            current = []
        current.append(e[0])
    return stages + [current]


@pytest.mark.parametrize("name", ["peres24", "ks18"])
def test_one_batch_per_document_and_per_closure_round(monkeypatch, name):
    if name == "ks18":
        doc = _fixture()
    else:
        doc = [{"id": c.id, "dim": 4, "atoms": [[[[x.real, x.imag] for x in row] for row in a.entries]
                                                 for a in c.atoms]} for c in _peres_subset(24, 24)]
    events = _count_calls(monkeypatch)
    parsed, _ = contexts_from_json(doc)
    assert events == [("validate",)]
    events.clear()
    poset = build_poset(parsed, add_trivial=True, close_under_meets=True)
    stages = _per_stage(events)
    rounds = len(stages) - 1
    # the document's one interning and store batch, then the trivial
    # context's, whose one identity atom takes no validation batch
    assert stages[0] == ["intern", "add", "intern", "add"]
    # per closure round: at most one interning batch, one validation batch
    # and one store batch, which takes at most one link product
    for stage in stages[1:]:
        assert stage in (["round", "validate", "add"], ["round", "intern", "validate", "add"]), stage
    links = [e[1] for e in events if e[0] == "add"]
    assert len(links) == rounds + 2 and max(links) == 1, links
    assert rounds >= 2 and len(poset.ids) == {"peres24": 94, "ks18": 28}[name]
