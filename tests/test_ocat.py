"""Tests for the operator category.

`ODecomposition` builds one spectral projector per eigenvalue-index mask,
and `OperatorCategory` decides each coarse-graining once per (arrow, delta
mask, tolerances) and each certainty once per (state, operator, preimage
mask).  The per-call forms they replaced (the subset projector sum, the
dual-path coarse-graining with its infimum loop, the eigenprojector
support scan and the per-morphism certainty sweep) are kept below as
oracles, written on `pairs` and `spectrum` alone.
"""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from toposval.linalg import DensityMatrix, HermitianOperator, LinalgError, Projector, StateVector
from toposval.ocat import (
    EigenvalueMap,
    ODecomposition,
    OcatError,
    OperatorCategory,
    _infimum,
    _on_spectrum,
    apply_map,
    characterize_check,
    check_sieve_on_o,
    discover_morphism,
    elementary_support,
    func_subset_check,
    identity_map,
    nu_psi_o,
    o_coarse_grain,
    state_certain,
    support_subobject_check,
)
from toposval.sampling import random_category, random_density, random_state
from toposval.valuations import MorphismSetValuation
from toposval.tolerances import DEFAULT


def decomp(*diag, id="A"):
    return ODecomposition.from_operator(
        HermitianOperator(np.diag(np.array(diag, dtype=float))), id=id)


def test_discover_morphism_square():
    f = discover_morphism(decomp(1, 4, 9, id="B"), decomp(1, 2, 3))
    assert f is not None
    assert f.pairs == ((1.0, 1.0), (2.0, 4.0), (3.0, 9.0))


def test_discover_morphism_constant():
    one = ODecomposition.from_operator(HermitianOperator(np.eye(3)), "one")
    f = discover_morphism(one, decomp(1, 2, 3))
    assert f is not None and set(v for _, v in f.pairs) == {1.0}


def test_discover_morphism_absent():
    # target is not constant on the anchor's degenerate eigenspace
    assert discover_morphism(decomp(1, 2, 2, id="B"), decomp(1, 1, 2)) is None


def test_discover_morphism_reflexive():
    a = decomp(1, 1, 5)
    f = discover_morphism(a, a)
    assert f.pairs == ((1.0, 1.0), (5.0, 5.0))


def test_o_coarse_grain_injective_is_identity():
    a = decomp(1, 2, 3)
    f = EigenvalueMap.from_dict({1.0: 10.0, 2.0: 20.0, 3.0: 30.0})
    delta = frozenset({2.0})
    npt.assert_allclose(
        o_coarse_grain(f, a, delta).entries, np.diag([0.0, 1, 0]), atol=1e-12)


def test_o_coarse_grain_square_preimage():
    a = decomp(-1, 1, 2)
    sq = EigenvalueMap.from_dict({-1.0: 1.0, 1.0: 1.0, 2.0: 4.0})
    e = o_coarse_grain(sq, a, frozenset({1.0}))
    npt.assert_allclose(e.entries, np.diag([1.0, 1, 0]), atol=1e-12)


def test_o_coarse_grain_full_and_empty():
    a = decomp(1, 2, 2)
    f = identity_map(a)
    npt.assert_allclose(
        o_coarse_grain(f, a, frozenset(a.spectrum)).entries, np.eye(3), atol=1e-12)
    npt.assert_allclose(
        o_coarse_grain(f, a, frozenset()).entries, np.zeros((3, 3)), atol=1e-12)
    with pytest.raises(OcatError):
        o_coarse_grain(f, a, frozenset({7.0}))


def test_o_coarse_grain_growth():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        cat, aid = random_category(rng, dim)
        a = cat.objects[aid]
        n = len(a.spectrum)
        mask = int(rng.integers(0, 1 << n))
        delta = frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)
        e_delta = a.projector_for(delta)
        for m in cat.morphisms_into(aid):
            e = o_coarse_grain(m.map, a, delta)
            assert e_delta.leq(e)


def test_elementary_support_examples():
    a = decomp(1, 2, 3)
    psi = StateVector(np.array([0, 1, 0], dtype=complex))
    assert elementary_support(psi, a) == frozenset({2.0})
    plus = StateVector(np.array([1, 1, 0]) / np.sqrt(2))
    assert elementary_support(plus, a) == frozenset({1.0, 2.0})
    rho = DensityMatrix(np.eye(2) / 2)
    assert elementary_support(rho, decomp(4, 4)) == frozenset({4.0})


def test_nu_psi_o_trivial_cases():
    a = decomp(1, 2)
    one = ODecomposition.from_operator(HermitianOperator(np.eye(2)), "one")
    cat = OperatorCategory([a, one])
    psi = random_state(np.random.default_rng(1), 2)
    assert nu_psi_o(psi, a, frozenset(a.spectrum), cat) == frozenset(
        {("A", "A"), ("one", "A")})
    assert nu_psi_o(psi, a, frozenset(), cat) == frozenset()


def test_nu_psi_o_two_morphisms():
    a = decomp(1, 2)
    one = ODecomposition.from_operator(HermitianOperator(np.eye(2)), "one")
    cat = OperatorCategory([a, one])
    psi = StateVector(np.array([0.0, 1.0]))
    members = nu_psi_o(psi, a, frozenset({2.0}), cat)
    assert members == frozenset({("A", "A"), ("one", "A")})
    other = StateVector(np.array([1.0, 0.0]))
    assert nu_psi_o(other, a, frozenset({2.0}), cat) == frozenset({("one", "A")})


def test_characterize_trivial_delta_cases():
    rng = np.random.default_rng(2)
    cat, aid = random_category(rng, 3)
    a = cat.objects[aid]
    psi = random_state(rng, 3)
    s = elementary_support(psi, a)
    rep = characterize_check(psi, a, s, cat)
    assert rep["passed"]
    assert (aid, aid) in {tuple(x) for x in rep["definitional"]}


def test_characterize_disjoint_delta():
    a = decomp(1, 2)
    one = ODecomposition.from_operator(HermitianOperator(np.eye(2)), "one")
    cat = OperatorCategory([a, one])
    psi = StateVector(np.array([1.0, 0.0]))   # support {1}
    rep = characterize_check(psi, a, frozenset({2.0}), cat)
    assert rep["passed"]
    ids = {tuple(x) for x in rep["definitional"]}
    assert ("A", "A") not in ids        # identity excluded
    assert ("one", "A") in ids          # the collapsing arrow survives


def test_characterize_seeded_draws():
    rng = np.random.default_rng(97)
    for _ in range(120):
        dim = int(rng.integers(2, 6))
        cat, aid = random_category(rng, dim)
        a = cat.objects[aid]
        n = len(a.spectrum)
        mask = int(rng.integers(0, 1 << n))
        delta = frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)
        state = random_state(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)
        assert characterize_check(state, a, delta, cat)["passed"]
        ok, w = check_sieve_on_o(state, a, delta, cat)
        assert ok, w


def test_func_subset_injective_trivial():
    a = decomp(1, 2, 3)
    f = EigenvalueMap.from_dict({1.0: 7.0, 2.0: 8.0, 3.0: 9.0})
    psi = random_state(np.random.default_rng(3), 3)
    assert func_subset_check(psi, a, f)["passed"]


def test_func_subset_square_example():
    a = decomp(-1, 1, 2)
    sq = EigenvalueMap.from_dict({-1.0: 1.0, 1.0: 1.0, 2.0: 4.0})
    psi = StateVector(np.array([1, 1, 0]) / np.sqrt(2))
    rep = func_subset_check(psi, a, sq)
    assert rep["passed"]
    assert rep["pushed_support"] == [1.0] and rep["image_support"] == [1.0]


def test_func_subset_seeded_draws():
    rng = np.random.default_rng(103)
    for _ in range(80):
        dim = int(rng.integers(2, 6))
        cat, _ = random_category(rng, dim)
        state = random_state(rng, dim) if rng.random() < 0.5 else random_density(rng, dim)
        rep = support_subobject_check(state, cat)
        assert rep["passed"], rep["failures"]


def test_composition_closure():
    rng = np.random.default_rng(41)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        cat, _ = random_category(rng, dim)
        ok, w = cat.check_composition_closure()
        assert ok, w
        for oid in cat.ids:
            assert (oid, oid) in cat.morphisms   # identities discovered


def test_apply_map_spectrum_is_image():
    a = decomp(1, 1, 2, 3)
    f = EigenvalueMap.from_dict({1.0: 5.0, 2.0: 5.0, 3.0: 6.0})
    b = apply_map(f, a)
    assert b.spectrum == (5.0, 6.0)
    npt.assert_allclose(b.operator.entries, np.diag([5.0, 5, 5, 6]), atol=1e-12)


# --------------------------------------------------------------------------
# per-call oracles

def oracle_projector_for(a, subset):
    m = np.zeros((a.dim, a.dim), dtype=complex)
    for lam, p in zip(a.spectrum, a.eigenprojectors):
        if lam in subset:
            m = m + p.entries
    return Projector(m)


def oracle_algebra(b):
    """Every (eigenvalue subset, spectral projector) of B."""
    n = len(b.spectrum)
    out = []
    for mask in range(1 << n):
        q = frozenset(b.spectrum[i] for i in range(n) if mask >> i & 1)
        out.append((q, oracle_projector_for(b, q)))
    return out


def oracle_coarse_grain(f, a, delta, tol=DEFAULT, algebra=None):
    """Preimage of the image of delta, and the infimum over the spectral
    algebra of f(A); raises when the two differ.  `algebra`, when given, is
    `oracle_algebra(apply_map(f, a))`, built once for several deltas."""
    value = dict(f.pairs)
    pre = frozenset(k for k, v in f.pairs if v in {value[x] for x in delta})
    if algebra is None:
        algebra = oracle_algebra(apply_map(f, a))
    e_delta = oracle_projector_for(a, delta)
    kept = None
    for q, qp in algebra:
        if e_delta.leq(qp, tol):
            kept = q if kept is None else kept & q
    if kept is None:
        raise OcatError("no dominating element in the spectral algebra")
    if frozenset(lam for lam in a.spectrum if value[lam] in kept) != pre:
        raise OcatError("coarse-graining paths disagree")
    return oracle_projector_for(a, pre)


def oracle_support(state, a, tol=DEFAULT):
    out = []
    for lam, e in zip(a.spectrum, a.eigenprojectors):
        if isinstance(state, StateVector):
            if np.linalg.norm(e.entries @ state.amplitudes) > tol.vector_support:
                out.append(lam)
        elif float(np.trace(state.entries @ e.entries).real) > tol.support_trace:
            out.append(lam)
    return frozenset(out)


def oracle_into(cat, aid):
    return [cat.morphisms[k] for k in sorted(cat.morphisms) if k[1] == aid]


def oracle_nu_psi_o(state, a, delta, cat, tol=DEFAULT, coarse=None):
    """`coarse`, when given, maps (src, dst, delta) to the oracle
    coarse-graining, computed once for several states."""
    out = []
    for m in oracle_into(cat, a.id):
        e = (coarse[(m.src, m.dst, delta)] if coarse is not None
             else oracle_coarse_grain(m.map, a, delta, tol))
        if state_certain(state, e, tol):
            out.append((m.src, m.dst))
    return frozenset(out)


def oracle_characterize(state, a, delta, cat, tol=DEFAULT, coarse=None):
    definitional = oracle_nu_psi_o(state, a, delta, cat, tol, coarse)
    s = oracle_support(state, a, tol)
    by_support = frozenset(
        (m.src, m.dst) for m in oracle_into(cat, a.id)
        if {dict(m.map.pairs)[x] for x in s} <= {dict(m.map.pairs)[x] for x in delta}
    )
    return {
        "passed": definitional == by_support,
        "definitional": sorted(definitional),
        "by_support": sorted(by_support),
        "support": sorted(s),
        "delta": sorted(delta),
    }


def oracle_sieve(members, aid, cat):
    return all((g.src, aid) in members
               for src, _ in members for g in oracle_into(cat, src))


def oracle_support_subobject(state, cat, tol=DEFAULT):
    failures = []
    for m in cat.morphisms.values():
        value = dict(m.map.pairs)
        lhs = frozenset(value[x] for x in oracle_support(state, cat.objects[m.dst], tol))
        rhs = oracle_support(state, apply_map(m.map, cat.objects[m.dst]), tol)
        if lhs != rhs:
            failures.append({"src": m.src, "dst": m.dst, "passed": False, "subset": lhs <= rhs,
                             "pushed_support": sorted(lhs), "image_support": sorted(rhs)})
    return {"passed": not failures, "morphismsChecked": len(cat.morphisms), "failures": failures}


def all_deltas(a):
    n = len(a.spectrum)
    for mask in range(1 << n):
        yield frozenset(a.spectrum[i] for i in range(n) if mask >> i & 1)


def eigen_supported_state(rng, a, pure):
    """A state inside the span of a random nonempty set of A's eigenspaces,
    so that its support, and the arrows that make it certain, vary."""
    n = len(a.spectrum)
    mask = int(rng.integers(1, 1 << n))
    p = sum(a.eigenprojectors[i].entries for i in range(n) if mask >> i & 1)
    if pure:
        v = p @ (rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim))
        return StateVector(v / np.linalg.norm(v))
    m = p @ random_density(rng, a.dim).entries @ p
    return DensityMatrix(m / np.trace(m).real)


def states_for(rng, cat, aid):
    a = cat.objects[aid]
    return (random_state(rng, a.dim), random_density(rng, a.dim),
            eigen_supported_state(rng, a, True), eigen_supported_state(rng, a, False))


def assert_matches_oracles(states, cat, tol=DEFAULT):
    """Every checker on every delta of every object, for each state, against
    the oracles; the states are queried in turn on one category."""
    coarse = {}
    for m in cat.morphisms.values():
        a = cat.objects[m.dst]
        algebra = oracle_algebra(apply_map(m.map, a))
        for delta in all_deltas(a):
            coarse[(m.src, m.dst, delta)] = oracle_coarse_grain(m.map, a, delta, tol, algebra)
    for aid in cat.ids:
        a = cat.objects[aid]
        for state in states:
            assert elementary_support(state, a, tol) == oracle_support(state, a, tol)
        for delta in all_deltas(a):
            assert np.array_equal(a.projector_for(delta).entries,
                                  oracle_projector_for(a, delta).entries)
            for state in states:
                expected = oracle_characterize(state, a, delta, cat, tol, coarse)
                members = frozenset(tuple(x) for x in expected["definitional"])
                assert nu_psi_o(state, a, delta, cat, tol) == members
                assert characterize_check(state, a, delta, cat, tol) == expected
                assert check_sieve_on_o(state, a, delta, cat, tol)[0] == oracle_sieve(
                    members, aid, cat)
    for state in states:
        assert support_subobject_check(state, cat, tol) == oracle_support_subobject(
            state, cat, tol)


# --------------------------------------------------------------------------
# differential tests

def test_coarse_graining_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(211)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        cat, _ = random_category(rng, dim)
        for aid in cat.ids:
            a = cat.objects[aid]
            for delta in all_deltas(a):
                for m in cat.morphisms_into(aid):
                    assert np.array_equal(o_coarse_grain(m.map, a, delta).entries,
                                          oracle_coarse_grain(m.map, a, delta).entries)


def test_checkers_match_oracles_on_random_categories():
    rng = np.random.default_rng(223)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        cat, aid = random_category(rng, dim)
        assert_matches_oracles(states_for(rng, cat, aid), cat)


def test_one_category_two_interleaved_states():
    rng = np.random.default_rng(227)
    differ = False
    for _ in range(10):
        dim = int(rng.integers(3, 6))
        cat, aid = random_category(rng, dim)
        a = cat.objects[aid]
        states = (eigen_supported_state(rng, a, True), eigen_supported_state(rng, a, False))
        for delta in all_deltas(a):
            got = []
            for state in states:
                got.append(nu_psi_o(state, a, delta, cat))
                assert got[-1] == oracle_nu_psi_o(state, a, delta, cat)
                assert characterize_check(state, a, delta, cat) == oracle_characterize(
                    state, a, delta, cat)
            differ = differ or got[0] != got[1]
        for state in states:
            assert support_subobject_check(state, cat) == oracle_support_subobject(state, cat)
    assert differ   # a memo that ignored the state would have failed above


def test_one_category_two_tolerance_sets():
    # the wider support widths make more arrows certain for a pure state and
    # fewer eigenvalues meet a mixed one
    wide = DEFAULT.overridden(vector_support=0.4, support_trace=0.15)
    rng = np.random.default_rng(229)
    differ = False
    for _ in range(10):
        dim = int(rng.integers(3, 6))
        cat, aid = random_category(rng, dim)
        a = cat.objects[aid]
        for state in (random_state(rng, dim), random_density(rng, dim)):
            for delta in all_deltas(a):
                reports = []
                for tol in (DEFAULT, wide, DEFAULT):
                    reports.append(characterize_check(state, a, delta, cat, tol))
                    assert reports[-1] == oracle_characterize(state, a, delta, cat, tol)
                differ = differ or reports[0] != reports[1]
            for tol in (wide, DEFAULT):
                assert support_subobject_check(state, cat, tol) == oracle_support_subobject(
                    state, cat, tol)
    assert differ   # a memo that ignored the tolerances would have failed above


def test_fresh_states_are_not_confused_and_not_kept_alive():
    rng = np.random.default_rng(240)
    cat, aid = random_category(rng, 4)
    a = cat.objects[aid]
    assert len(a.spectrum) > 2
    deltas = list(all_deltas(a))
    # the numbers are drawn first and each state is dropped before the next
    # is built, so in CPython the states share one address
    data = []
    for k in range(20):
        state = eigen_supported_state(rng, a, pure=k % 2 == 0)
        data.append(state.amplitudes if k % 2 == 0 else state.entries)
    del state
    for k, x in enumerate(data):
        state = StateVector(x) if k % 2 == 0 else DensityMatrix(x)
        for delta in deltas:
            assert nu_psi_o(state, a, delta, cat) == oracle_nu_psi_o(state, a, delta, cat)
        del state
    state = DensityMatrix(data[1])
    nu_psi_o(state, a, frozenset(), cat)
    alive = weakref.ref(state)
    del state
    gc.collect()
    assert alive() is None


def test_cross_check_raises_for_every_tolerance_set():
    # with a containment width of 10 every spectral projector of f(A)
    # dominates, so the infimum is empty while the preimage is not
    rng = np.random.default_rng(239)
    loose = DEFAULT.overridden(certain=10.0)
    cat, aid = random_category(rng, 3)
    a = cat.objects[aid]
    delta = frozenset(a.spectrum)
    state = random_state(rng, 3)
    assert nu_psi_o(state, a, delta, cat)   # decided and kept at DEFAULT
    with pytest.raises(OcatError, match="disagree"):
        nu_psi_o(state, a, delta, cat, loose)
    with pytest.raises(OcatError, match="disagree"):
        o_coarse_grain(cat.morphisms[(aid, aid)].map, a, delta, loose)
    with pytest.raises(OcatError, match="disagree"):
        oracle_coarse_grain(cat.morphisms[(aid, aid)].map, a, delta, loose)


def test_batched_dominance_matches_pairwise_containment():
    # per (arrow, delta, tolerances), the batched containment test gives the
    # pairwise max-abs decision for every spectral projector of f(A), and so
    # the exhaustive infimum.  The max-abs defect is not monotone under
    # projection, so at the tightest widths the co-atom shortcut (the meet of
    # the full mask and of each dominating all-but-one-eigenvalue mask)
    # differs from it; the last assertion keeps this test able to see that.
    tols = [DEFAULT] + [DEFAULT.overridden(certain=c) for c in (10.0, 0.5, 1e-15, 1e-16, 0.0)]
    rng = np.random.default_rng(251)
    coatom_differs = 0
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        cat, _ = random_category(rng, dim)
        for m in cat.morphisms.values():
            a = cat.objects[m.dst]
            b = apply_map(m.map, a)
            full = (1 << len(b.spectrum)) - 1
            coatoms = [full] + [full & ~(1 << i) for i in range(len(b.spectrum))]
            for delta in range(1 << len(a.spectrum)):
                e = a.projector(delta).entries
                for tol in tols:
                    pairwise = [bool(np.max(np.abs(b.projector(q).entries @ e - e)) < tol.certain)
                                for q in range(full + 1)]
                    assert a.projector(delta).leq_each(b.mask_entries, tol).tolist() == pairwise
                    kept = coatom = None
                    for q, ok in enumerate(pairwise):
                        if ok:
                            kept = q if kept is None else kept & q
                            if q in coatoms:
                                coatom = q if coatom is None else coatom & q
                    assert _infimum(a, b, delta, tol) == kept
                    coatom_differs += coatom != kept
    assert coatom_differs


def test_identity_arrows_reuse_the_object():
    # an identity arrow's f(A) is the object itself; the cross-check, the
    # checkers and the support subset law give what the `apply_map` image
    # gives, on a twin category whose arrow memo holds those images
    tols = [DEFAULT, DEFAULT.overridden(certain=1e-15)]
    rng = np.random.default_rng(907)
    identities = 0
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        cat, aid = random_category(rng, dim)
        twin = OperatorCategory(list(cat.objects.values()))
        for m in twin.morphisms.values():
            a = twin.objects[m.dst]
            f = _on_spectrum(m.map, a)
            twin._arrows[(m.src, m.dst)] = (f, apply_map(f, a))
        for m in cat.morphisms.values():
            a = cat.objects[m.dst]
            b, rebuilt = cat._arrow(m)[1], twin._arrow(m)[1]
            if m.src == m.dst:
                identities += 1
                assert b is a and rebuilt is not a
            for delta in range(1 << len(a.spectrum)):
                for tol in tols:
                    assert _infimum(a, b, delta, tol) == _infimum(a, rebuilt, delta, tol)
        for state in states_for(rng, cat, aid):
            for tol in tols:
                for oid in cat.ids:
                    for delta in all_deltas(cat.objects[oid]):
                        assert _outcome(characterize_check, state, oid, delta, cat, tol) == \
                            _outcome(characterize_check, state, oid, delta, twin, tol)
                assert support_subobject_check(state, cat, tol) == \
                    support_subobject_check(state, twin, tol)
    assert identities >= 100, identities


def _outcome(check, state, oid, delta, cat, tol):
    """A checker's result on a category's object, or the error it raises."""
    try:
        return check(state, cat.objects[oid], delta, cat, tol)
    except OcatError as exc:
        return str(exc)


def test_decomposition_tolerances_reach_projector_validation():
    # two eigenprojectors that overlap by about 1e-6: the projector of their
    # union is refused at the default idempotency width and accepted at 1e-4,
    # both as a mask of the decomposition and as the merged eigenprojector of
    # f(A), which keeps the tolerances of A
    v = np.array([1e-6, 1.0])
    p1 = Projector(np.diag([1.0, 0.0]))
    p2 = Projector(np.outer(v, v) / (v @ v))
    loose = DEFAULT.overridden(proj_idem=1e-4)

    def build(tol):
        return ODecomposition("A", HermitianOperator(p1.entries + 2 * p2.entries),
                              (1.0, 2.0), (p1, p2), tol=tol)

    merge = EigenvalueMap.from_dict({1.0: 5.0, 2.0: 5.0})
    with pytest.raises(LinalgError, match="idempotent"):
        build(DEFAULT).projector(0b11)
    with pytest.raises(LinalgError, match="idempotent"):
        apply_map(merge, build(DEFAULT))
    assert build(loose).projector(0b11).rank == 2
    b = apply_map(merge, build(loose))
    assert b.spectrum == (5.0,) and b.tol == loose
    assert b.projector(0b1).rank == 2
    op = HermitianOperator(np.diag([1.0, 2.0]))
    assert ODecomposition.from_operator(op, tol=loose).tol == loose


def test_foreign_object_is_refused():
    a = decomp(1, 2)
    cat = OperatorCategory([a])
    with pytest.raises(OcatError, match="not an object"):
        nu_psi_o(random_state(np.random.default_rng(5), 2), decomp(1, 2), frozenset(), cat)


def test_index_holds_the_arrows():
    # the arrows into each object, in `morphisms_into` order, and per arrow
    # B -> A the coarse-graining table is the map's image on A's index masks
    rng = np.random.default_rng(241)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        cat, _ = random_category(rng, dim)
        index = cat.index
        assert index.ids == tuple(cat.ids)
        assert set(index.pairs) == set(cat.morphisms)
        for i, aid in enumerate(index.ids):
            a = cat.objects[aid]
            into = [(src, aid) for j, src in enumerate(index.ids) if index.down[i] >> j & 1]
            assert into == [(m.src, m.dst) for m in oracle_into(cat, aid)]
            assert cat.morphisms_into(aid) == oracle_into(cat, aid)
            for m in cat.morphisms_into(aid):
                j = index.pos[m.src]
                table = index.coarse(j, i)
                b = cat.objects[m.src]
                for delta in all_deltas(a):
                    mask = a.mask_of(delta)
                    assert table[mask] == m.map.image_mask(mask)
                    assert b.subset(table[mask]) == m.map.image(delta)
                    assert a.subset(index.lift(j, i, table[mask])) == m.map.preimage(
                        m.map.image(delta))
    assert cat.morphisms_into("absent") == []


def test_sieve_witness_names_a_missing_composite():
    # a state's member sets are always sieves, so the failing branch is
    # reached through a hand-made valuation: at A it holds Asq -> A alone,
    # while A -> Asq and one -> Asq are arrows into Asq
    a = decomp(1, 2, 3)
    cat = OperatorCategory([a, decomp(1, 4, 9, id="Asq"), decomp(1, 1, 1, id="one")])
    state = random_state(np.random.default_rng(9), 3)
    index = cat.index
    assert [m.src for m in cat.morphisms_into("Asq")] == ["A", "Asq", "one"]
    check_sieve_on_o(state, a, frozenset(), cat)   # builds the state's decisions
    cat._decisions(state, DEFAULT).valuation = MorphismSetValuation._from_bits(
        cat, lambda i, mask: 1 << index.pos["Asq"] if index.ids[i] == "A" else 0, "broken")
    assert check_sieve_on_o(state, a, frozenset(), cat) == (
        False, {"f": ("Asq", "A"), "g": ("A", "Asq")})


def test_image_and_preimage_masks():
    f = EigenvalueMap.from_dict({-1.0: 1.0, 1.0: 1.0, 2.0: 4.0})
    assert f.codomain == (1.0, 4.0)
    assert f.image_mask(0b011) == 0b01 and f.image_mask(0b100) == 0b10
    assert f.preimage_mask(0b01) == 0b011 and f.preimage_mask(0b11) == 0b111
    assert f.image(frozenset({-1.0, 2.0})) == frozenset({1.0, 4.0})
    assert f.preimage(frozenset({1.0, 9.0})) == frozenset({-1.0, 1.0})
    with pytest.raises(OcatError):
        f.image(frozenset({3.0}))
