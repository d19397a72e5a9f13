"""Tests for the operator category.

`ODecomposition` builds the spectral projectors of all eigenvalue-index
masks as one validated stack, and `OperatorCategory` discovers its
morphisms from one stacked product per target, reads every image operator
off its target's mask stack, decides the coarse-graining cross-check of
every arrow and every delta mask of every operator at once per tolerance
set, and a state's supports and certainties at once per (state,
tolerances).  The per-call forms they replaced (the per-pair morphism
test, the per-value image `apply_map_oracle`, the per-arrow cross-check
table, the per-mask projector sum, the dual-path coarse-graining with its
infimum loop, the per-delta infimum, the eigenprojector support scan and
the per-morphism certainty sweep) are kept below as oracles, written on
`pairs` and `spectrum` alone.
"""

import gc
import itertools
import weakref
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from toposval import linalg
from toposval import ocat as ocat_module
from toposval.index import bit_list
from toposval.linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    Projector,
    StateVector,
    certain_each,
    containment_table,
    screened_containment_blocks,
)
from toposval.ocat import (
    EigenvalueMap,
    Morphism,
    ODecomposition,
    OcatError,
    OperatorCategory,
    _on_spectrum,
    apply_map,
    characterize_check,
    check_sieve_on_o,
    discover_morphism,
    elementary_support,
    func_subset_check,
    nu_psi_o,
    o_coarse_grain,
    snap,
    support_subobject_check,
)
from toposval.sampling import (
    random_category,
    random_degenerate_hermitian,
    random_density,
    random_hermitian,
    random_state,
    random_unitary,
)
from toposval.schema import survey_properties_o
from toposval.tolerances import DEFAULT

from conftest import (
    compose,
    identity_map,
    image_mask_oracle,
    index_below,
    index_lift,
    leq_each,
    map_image,
    map_preimage,
    morphisms_into,
    preimage_mask,
    preimage_mask_oracle,
    projector_for,
    screened_containment_table,
    state_certain,
)


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


def _discover_morphism_floats(b, a, tol=DEFAULT):
    """`discover_morphism` with every float test made, also when B has
    more distinct eigenvalues than A."""
    mapping = {}
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
        return None
    return EigenvalueMap(tuple(sorted(mapping.items())))


def test_discover_morphism_matches_the_full_float_test():
    # every ordered pair of seeded categories, the pairs that the spectrum
    # count refuses among them
    rng = np.random.default_rng(31)
    found = refused = 0
    for _ in range(60):
        cat, _ = random_category(rng, int(rng.integers(2, 7)))
        for b, a in itertools.product(cat.objects.values(), repeat=2):
            got, want = discover_morphism(b, a), _discover_morphism_floats(b, a)
            assert (None if got is None else got.pairs) == (None if want is None else want.pairs)
            found += got is not None
            refused += len(b.spectrum) > len(a.spectrum)
    assert found >= 500 and refused >= 200, (found, refused)


def test_stacked_discovery_floats_equal_the_per_pair_floats():
    # each scalar and defect of the one stacked product per target is, bit
    # for bit, the float `discover_morphism` computes for its pair, in
    # dimensions 1-12, on anchors, functions of them, unrelated operators
    # and the unit
    rng = np.random.default_rng(37)
    for dim in range(1, 13):
        for _ in range(3):
            a = ODecomposition.from_operator(random_degenerate_hermitian(
                rng, dim, int(rng.integers(1, min(dim, 7) + 1))), id="A")
            f = EigenvalueMap.from_dict({lam: float(rng.integers(-2, 3)) for lam in a.spectrum})
            objects = [a, apply_map(f, a), ODecomposition.from_operator(random_hermitian(rng, dim)),
                       ODecomposition.from_operator(HermitianOperator(np.eye(dim)))]
            ops = np.array([o.operator.entries for o in objects])
            for target in objects:
                scalars, defects = ocat_module._eigenspace_scalars(ops, target)
                for k, b in enumerate(objects):
                    for n, e in enumerate(target.eigenprojectors):
                        product = b.operator.entries @ e.entries
                        c = float(np.trace(product).real) / e.rank
                        assert scalars[k, n].tobytes() == np.float64(c).tobytes()
                        assert defects[k, n] == np.max(np.abs(product - c * e.entries))


# discovery widths loose enough to add arrows to some seeded categories
LOOSE_MATCH = DEFAULT.overridden(eig_match=1.1, recon=3.0)


def test_batches_match_the_per_pair_and_per_arrow_oracles():
    # on seeded categories, at the default widths and at loosened matching
    # ones: the stacked discovery's morphisms (keys, insertion order and
    # maps) are those of the per-pair float test, every image operator read
    # off a mask stack equals `apply_map_oracle`'s bit for bit, and
    # the per-target tables give the per-arrow verdicts at every table width
    # (checked at the loosened widths where they add arrows)
    rng = np.random.default_rng(281)
    added = images = 0
    for _ in range(60):
        drawn, _ = random_category(rng, int(rng.integers(2, 7)))
        objects = list(drawn.objects.values())
        for tol in (DEFAULT, LOOSE_MATCH):
            cat = OperatorCategory(objects, tol)
            want = [((b.id, a.id), f.pairs) for b in objects for a in objects
                    if (f := _discover_morphism_floats(b, a, tol)) is not None]
            assert [(key, m.map.pairs) for key, m in cat.morphisms.items()] == want
            added += len(cat.morphisms) - len(drawn.morphisms)
            for m in cat.morphisms.values():
                a = cat.objects[m.dst]
                f, b = cat._arrow(m)
                g, rebuilt = oracle_image(m, a)
                assert f == g
                if rebuilt is a:
                    assert b is a
                    continue
                images += 1
                assert b.spectrum == rebuilt.spectrum and b.tol == rebuilt.tol == a.tol
                assert b.operator.entries.tobytes() == rebuilt.operator.entries.tobytes()
                assert [p.entries.tobytes() for p in b.eigenprojectors] == \
                    [p.entries.tobytes() for p in rebuilt.eigenprojectors]
                assert [p.rank for p in b.eigenprojectors] == [p.rank for p in rebuilt.eigenprojectors]
            if tol == DEFAULT or set(cat.morphisms) != set(drawn.morphisms):
                assert_tables_match_oracle(cat, TABLE_WIDTHS)
    assert added > 0 and images > 300, (added, images)


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
        e_delta = projector_for(a, delta)
        for m in morphisms_into(cat, aid):
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


def test_a_spectrum_out_of_order_is_refused():
    # B = diag(2, 2, 1) given with its spectrum as (2, 1): a mask would
    # number B's eigenvalues in that order while the preimage tables number
    # them ascending, and the two coarse-graining paths disagreed on four of
    # A's masks.  Such a decomposition is refused; the same B built
    # ascending passes every mask
    a = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 2, 3])), "A")
    b_op = HermitianOperator(np.diag([2.0, 2, 1]))
    two, one = Projector(np.diag([1.0, 1, 0])), Projector(np.diag([0.0, 0, 1]))
    with pytest.raises(OcatError, match="not strictly ascending"):
        ODecomposition("B", b_op, (2.0, 1.0), (two, one))
    with pytest.raises(OcatError, match="not strictly ascending"):
        ODecomposition("B", b_op, (2.0, 2.0), (two, one))
    b = ODecomposition("B", b_op, (1.0, 2.0), (one, two))
    unit = ODecomposition.from_operator(HermitianOperator(np.eye(3)), "one")
    psi = StateVector(np.array([0.6, 0.0, 0.8]))
    for decomps in ([a, b, unit], [a, ODecomposition.from_operator(b_op, "B"), unit]):
        cat = OperatorCategory(decomps)
        for mask in range(1 << len(a.spectrum)):
            delta = a.subset(mask)
            assert nu_psi_o(psi, a, delta, cat) == oracle_nu_psi_o(psi, a, delta, cat)


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


def composition_closure_oracle(cat):
    """`check_composition_closure` as a scan of every pair (f, g) of
    morphisms, each composite's map built by `compose` (conftest)."""
    for f in cat.morphisms.values():
        for g in cat.morphisms.values():
            if g.dst != f.src:
                continue
            h = cat.morphisms.get((g.src, f.dst))
            if h is None:
                return False, {"f": (f.src, f.dst), "g": (g.src, g.dst), "missing": (g.src, f.dst)}
            if h.map.pairs != compose(g, f).pairs:
                return False, {"f": (f.src, f.dst), "g": (g.src, g.dst),
                               "composite_mismatch": (g.src, f.dst)}
    return True, None


def test_composition_closure_witnesses_match_the_composed_maps():
    # a missing composite and a mismatched one, planted in seeded
    # categories, are named by the same witness as a scan that builds each
    # composite's map
    rng = np.random.default_rng(43)
    planted = Counter()
    for _ in range(10):
        cat, aid = random_category(rng, int(rng.integers(2, 6)))
        assert cat.check_composition_closure() == composition_closure_oracle(cat) == (True, None)
        # one -> A is the composite of one -> F0 and F0 -> A
        h = cat.morphisms[("one", aid)]
        del cat.morphisms[("one", aid)]
        ok, witness = cat.check_composition_closure()
        assert not ok and (ok, witness) == composition_closure_oracle(cat)
        planted[next(iter(witness.keys() - {"f", "g"}))] += 1
        # the same arrow with one value moved off its composite's
        (lam, v), *rest = h.map.pairs
        cat.morphisms[("one", aid)] = Morphism("one", aid, EigenvalueMap(((lam, v + 1.0), *rest)))
        ok, witness = cat.check_composition_closure()
        assert not ok and (ok, witness) == composition_closure_oracle(cat)
        planted[next(iter(witness.keys() - {"f", "g"}))] += 1
    assert planted == Counter({"missing": 10, "composite_mismatch": 10})


def test_apply_map_spectrum_is_image():
    a = decomp(1, 1, 2, 3)
    f = EigenvalueMap.from_dict({1.0: 5.0, 2.0: 5.0, 3.0: 6.0})
    b = apply_map(f, a)
    assert b.spectrum == (5.0, 6.0)
    npt.assert_allclose(b.operator.entries, np.diag([5.0, 5, 5, 6]), atol=1e-12)
    # bit for bit the per-value oracle's image, under the name it is given
    for name in (None, "B"):
        got, want = apply_map(f, a, id=name), apply_map_oracle(f, a, id=name)
        assert got.id == want.id == (name or "f(A)") and got.tol == want.tol
        assert got.spectrum == want.spectrum
        assert got.operator.entries.tobytes() == want.operator.entries.tobytes()
        assert [p.entries.tobytes() for p in got.eigenprojectors] == \
            [p.entries.tobytes() for p in want.eigenprojectors]
        assert [p.rank for p in got.eigenprojectors] == [p.rank for p in want.eigenprojectors]
    with pytest.raises(OcatError, match="map domain does not equal"):
        apply_map(EigenvalueMap.from_dict({1.0: 5.0, 2.0: 5.0}), a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalue_map_refuses_a_non_finite_key_or_value(bad):
    # NaN compares False with the grouping width both ways, so unchecked
    # it would join a neighbour's group whichever order the keys come in
    for d in ({1.0: 5.0, 2.0: bad}, {1.0: bad, 2.0: 5.0}, {1.0: 5.0, bad: 6.0}, {bad: 5.0, 1.0: 6.0}):
        with pytest.raises(OcatError, match=f"entry {bad} is not finite"):
            EigenvalueMap.from_dict(d)


def test_a_non_finite_image_fails_as_apply_map_fails():
    # a NaN value makes the image's Hermiticity defect NaN, which compares
    # False with the width: the batched image, and `apply_map` with it,
    # refuses it as the per-value oracle does
    a = decomp(1, 1, 2)
    f = EigenvalueMap(((1.0, 5.0), (2.0, np.nan)))
    with pytest.raises(LinalgError) as want:
        apply_map_oracle(f, a)
    with pytest.raises(LinalgError) as raised:
        apply_map(f, a)
    got = ocat_module._images([(f, a)])[0]
    assert isinstance(got, LinalgError)
    assert str(got) == str(raised.value) == str(want.value) == linalg.NON_FINITE


def test_apply_map_builds_no_mask_stack_of_its_operator():
    # each value's eigenprojector is summed from A's eigenprojectors, so
    # neither apply_map nor func_subset_check builds A's 2^n mask
    # projectors; the image stays bit for bit the per-value oracle's
    u = random_unitary(np.random.default_rng(12), 12)
    op = HermitianOperator(u @ np.diag(np.arange(-6.0, 6.0)) @ u.conj().T)
    state = random_state(np.random.default_rng(13), 12)
    for fresh in range(2):
        a = ODecomposition.from_operator(op)
        assert len(a.spectrum) == 12
        f = EigenvalueMap.from_dict({lam: round(lam) ** 2 for lam in a.spectrum})
        if fresh:
            assert func_subset_check(state, a, f)["passed"]
        got, want = apply_map(f, a), apply_map_oracle(f, a)
        assert a._checks is None and got._checks is None
        assert got.spectrum == want.spectrum == tuple(float(k * k) for k in range(7))
        assert got.operator.entries.tobytes() == want.operator.entries.tobytes()
        assert [p.entries.tobytes() for p in got.eigenprojectors] == \
            [p.entries.tobytes() for p in want.eigenprojectors]
        assert [p.rank for p in got.eigenprojectors] == [p.rank for p in want.eigenprojectors]


# --------------------------------------------------------------------------
# per-call oracles

def apply_map_oracle(f, a, id=None):
    """f(A) value by value: each value's eigenprojector summed from A's
    eigenprojectors in ascending order and validated on its own, then the
    operator summed from them and validated."""
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
    `oracle_algebra(apply_map_oracle(f, a))`, built once for several deltas."""
    value = dict(f.pairs)
    pre = frozenset(k for k, v in f.pairs if v in {value[x] for x in delta})
    if algebra is None:
        algebra = oracle_algebra(apply_map_oracle(f, a))
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


def _infimum(a, b, delta, tol):
    """The per-delta form of the cross-check's independent path: the mask of
    the meet of every spectral projector of `b` that dominates the projector
    of a delta mask of `a`, or None if none does."""
    dominating = np.flatnonzero(leq_each(a.projector(delta), b.mask_entries, tol))
    return int(np.bitwise_and.reduce(dominating)) if dominating.size else None


def oracle_verdict(f, a, b, delta, tol):
    """The per-delta cross-check of the coarse-graining of a delta mask of
    `a` along `f` (on A's spectrum; `b` is f(A)): its error, or None."""
    pre = preimage_mask_oracle(f, image_mask_oracle(f, delta))
    kept = _infimum(a, b, delta, tol)
    if kept is None:
        return "no dominating element in the spectral algebra"
    if preimage_mask_oracle(f, kept) != pre:
        return (f"coarse-graining paths disagree: preimage {sorted(a.subset(pre))} "
                f"vs infimum {sorted(a.subset(preimage_mask_oracle(f, kept)))}")
    return None


def cross_checks_oracle(a, b, deltas, images, preimage, tol):
    """The per-arrow form of the infimum cross-check of coarse-graining
    along a map f from A's spectrum, with `b` = f(A), for each column of
    `deltas`, a stack of A's mask projectors: the error message where the
    two paths disagree, else None.  `images` holds the codomain mask of
    each column's image, and `preimage` the domain mask of the preimage of
    each codomain mask.  One `containment_table` per arrow decides every
    containment; a column's infimum ANDs the masks of its dominating rows."""
    dom = containment_table(b.mask_entries, deltas, tol)
    full = dom.shape[0] - 1
    kept = np.bitwise_and.reduce(np.where(dom, np.arange(full + 1)[:, np.newaxis], full), axis=0)
    out = []
    for image, k, some in zip(images, kept.tolist(), dom.any(axis=0).tolist()):
        if not some:
            out.append("no dominating element in the spectral algebra")
            continue
        pre, inf_pre = preimage[image], preimage[k]
        out.append(None if inf_pre == pre else
                   f"coarse-graining paths disagree: preimage {sorted(a.subset(pre))} "
                   f"vs infimum {sorted(a.subset(inf_pre))}")
    return out


def oracle_image(m, a):
    """An arrow's map on its target's spectrum and its image operator, built
    by `apply_map_oracle` (the object itself when the map fixes an ascending
    spectrum)."""
    f = _on_spectrum(m.map, a)
    fixed = tuple(v for _, v in f.pairs) == a.spectrum == f.codomain
    return f, a if fixed else apply_map_oracle(f, a)


def arrow_verdicts(cat, src, dst, tol):
    """Per delta mask of the target of arrow (src, dst), by operator index,
    the infimum cross-check's error message, or None where it passes: one
    table per arrow, on its `apply_map_oracle` image."""
    index = cat.index
    m = cat.morphisms[(index.ids[src], index.ids[dst])]
    a = cat.objects[m.dst]
    f, b = oracle_image(m, a)
    return cross_checks_oracle(a, b, a.mask_entries, index.coarse(src, dst), f.preimage_table, tol)


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
        rhs = oracle_support(state, apply_map_oracle(m.map, cat.objects[m.dst]), tol)
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
        algebra = oracle_algebra(apply_map_oracle(m.map, a))
        for delta in all_deltas(a):
            coarse[(m.src, m.dst, delta)] = oracle_coarse_grain(m.map, a, delta, tol, algebra)
    for aid in cat.ids:
        a = cat.objects[aid]
        for state in states:
            assert elementary_support(state, a, tol) == oracle_support(state, a, tol)
        for delta in all_deltas(a):
            assert np.array_equal(projector_for(a, delta).entries,
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
                for m in morphisms_into(cat, aid):
                    assert np.array_equal(o_coarse_grain(m.map, a, delta).entries,
                                          oracle_coarse_grain(m.map, a, delta).entries)


def test_checkers_match_oracles_on_random_categories():
    rng = np.random.default_rng(223)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        cat, aid = random_category(rng, dim)
        assert_matches_oracles(states_for(rng, cat, aid), cat)


def _bits_by_state_certain(cat, state, tol, i, delta):
    """The member bits of (operator i, mask delta) with one `state_certain`
    call per (operator, preimage mask), as the decisions once made them."""
    index = cat.index
    a = cat.objects[index.ids[i]]
    out = 0
    for j, table in index_below(index, i):
        if state_certain(state, a.projector(index_lift(index, j, i, table[delta])), tol):
            out |= 1 << j
    return out


def test_mixed_state_decisions_match_state_certain(monkeypatch):
    # one certain_each per category for a density matrix, over every
    # operator's mask stack, against one state_certain per (operator,
    # preimage mask); vector states keep the norm test
    wide = DEFAULT.overridden(vector_support=0.4, support_trace=0.15, certain=1e-3)
    calls = []
    batched = ocat_module.certain_each

    def spy(rho, stack, tol=DEFAULT):
        calls.append(len(stack))
        return batched(rho, stack, tol)

    monkeypatch.setattr(ocat_module, "certain_each", spy)
    rng = np.random.default_rng(233)
    certain_bits = draws = 0
    for _ in range(40):
        cat, aid = random_category(rng, int(rng.integers(2, 7)))
        index = cat.index
        for state in states_for(rng, cat, aid):
            for tol in (DEFAULT, wide):
                calls.clear()
                for i, n in enumerate(index.n_atoms):
                    for delta in range(1 << n):
                        want = _bits_by_state_certain(cat, state, tol, i, delta)
                        assert cat._member_bits(state, i, delta, tol) == want, (i, delta)
                        certain_bits += want.bit_count()
                if isinstance(state, StateVector):
                    assert calls == []
                else:
                    draws += 1
                    assert calls == [sum(1 << n for n in index.n_atoms)]
    assert draws == 160 and certain_bits >= 2000, (draws, certain_bits)


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


# the containment widths of the table tests: the default, one at which
# every spectral projector dominates, and ever tighter ones
TABLE_WIDTHS = [DEFAULT] + [DEFAULT.overridden(certain=c) for c in (10.0, 0.5, 1e-15, 1e-16, 0.0)]


def test_batched_dominance_matches_pairwise_containment():
    # per (arrow, delta, tolerances), the batched containment test gives the
    # pairwise max-abs decision for every spectral projector of f(A), and so
    # the exhaustive infimum.  The max-abs defect is not monotone under
    # projection, so at the tightest widths the co-atom shortcut (the meet of
    # the full mask and of each dominating all-but-one-eigenvalue mask)
    # differs from it; the last assertion keeps this test able to see that.
    tols = TABLE_WIDTHS
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
            tables = {tol: containment_table(b.mask_entries, a.mask_entries, tol) for tol in tols}
            for delta in range(1 << len(a.spectrum)):
                e = a.projector(delta).entries
                for tol in tols:
                    pairwise = [bool(np.max(np.abs(b.projector(q).entries @ e - e)) < tol.certain)
                                for q in range(full + 1)]
                    assert leq_each(a.projector(delta), b.mask_entries, tol).tolist() == pairwise
                    assert tables[tol][:, delta].tolist() == pairwise
                    kept = coatom = None
                    for q, ok in enumerate(pairwise):
                        if ok:
                            kept = q if kept is None else kept & q
                            if q in coatoms:
                                coatom = q if coatom is None else coatom & q
                    assert _infimum(a, b, delta, tol) == kept
                    coatom_differs += coatom != kept
    assert coatom_differs


def assert_tables_match_oracle(cat, tols):
    """Per arrow and tolerance set, the one-table-per-arrow verdict of every
    delta mask equals the per-delta cross-check on the `apply_map_oracle` image;
    per target operator, the category's one table gives at each delta the
    message of the first arrow, in source order, whose verdict fails."""
    index = cat.index
    for i, aid in enumerate(index.ids):
        a = cat.objects[aid]
        for tol in tols:
            first = {}
            for j, _ in index_below(index, i):
                f = _on_spectrum(cat.morphisms[(index.ids[j], aid)].map, a)
                b = apply_map_oracle(f, a)
                verdicts = arrow_verdicts(cat, j, i, tol)
                assert verdicts == [oracle_verdict(f, a, b, delta, tol)
                                    for delta in range(1 << len(a.spectrum))]
                for delta, v in enumerate(verdicts):
                    if v is not None:
                        first.setdefault(delta, v)
            assert cat._target_failures(i, tol) == (first, None)


def test_arrow_tables_match_the_per_delta_cross_check():
    # one table per arrow gives, for every delta, the verdict and message of
    # the per-delta infimum, at the widths of the batched dominance test;
    # some arrows disagree at the looser widths
    rng = np.random.default_rng(257)
    failing = Counter()
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        cat, _ = random_category(rng, dim)
        assert_tables_match_oracle(cat, TABLE_WIDTHS)
        for m in cat.morphisms.values():
            for tol in TABLE_WIDTHS:
                verdicts = arrow_verdicts(cat, cat.index.pos[m.src], cat.index.pos[m.dst], tol)
                failing.update(v.split(":")[0] for v in verdicts if v is not None)
    assert failing["coarse-graining paths disagree"]


def six_distinct(rng):
    """A dim-6 category on an anchor with 6 distinct eigenvalues: its
    identity, an injective function of it, its square and the unit."""
    u = random_unitary(rng, 6)
    a = ODecomposition.from_operator(
        HermitianOperator(u @ np.diag(np.arange(-3.0, 3.0)) @ u.conj().T), id="A")
    objects = [a]
    for name, g in (("twice", lambda lam: 2 * lam + 1), ("square", lambda lam: lam * lam)):
        objects.append(apply_map(EigenvalueMap.from_dict({lam: g(lam) for lam in a.spectrum}),
                                 a, id=name))
    objects.append(ODecomposition.from_operator(HermitianOperator(np.eye(6)), id="one"))
    return OperatorCategory(objects)


def test_arrow_table_spans_several_chunks(monkeypatch):
    cat = six_distinct(np.random.default_rng(263))
    a = cat.objects["A"]
    assert len(a.spectrum) == 6 and len(cat.objects["twice"].spectrum) == 6
    # a row of the identity arrow's table alone fills most of a chunk
    assert 2 * a.mask_entries[0].size * len(a.mask_entries) > linalg.CONTAINMENT_CHUNK
    assert_tables_match_oracle(cat, TABLE_WIDTHS)
    # the chunk size changes no decision: one cell, one row, one table
    for tol in TABLE_WIDTHS:
        want = containment_table(a.mask_entries, a.mask_entries, tol)
        for chunk in (1, 100, 10 ** 7):
            monkeypatch.setattr(linalg, "CONTAINMENT_CHUNK", chunk)
            assert np.array_equal(containment_table(a.mask_entries, a.mask_entries, tol), want)
            assert np.array_equal(screened_containment_table(a.mask_entries, a.mask_entries, tol), want)
        monkeypatch.undo()


def test_screened_cross_check_tables_match_containment_table():
    # every cross-check table, the rows of all arrows into a target against
    # its mask projectors, decides each entry as `containment_table` does,
    # on 60 seeded categories and the CI operator set at every table width,
    # rows repeated bit for bit among them
    entries = repeated = 0
    for cat in _arrow_categories():
        check = cat._check
        row_ends, col_ends = np.cumsum(check.blocks, axis=0).T
        for (n, m), r, c in zip(check.blocks, row_ends, col_ends):
            rows, cols = check.rows[r - n:r], check.columns[c - m:c]
            repeated += len(rows) - len({r.tobytes() for r in rows})
            for tol in TABLE_WIDTHS:
                want = containment_table(rows, cols, tol)
                assert np.array_equal(screened_containment_table(rows, cols, tol), want)
                entries += want.size
    assert entries > 200_000 and repeated > 500, (entries, repeated)


def test_category_passes_match_the_per_object_oracles():
    # the category-wide passes against the per-object forms they replaced,
    # at every table width, for pure and mixed states, on the 60-draw sweep
    # and on categories with arrows whose images fail validation: each
    # target's block of the one screened call against
    # `screened_containment_table` on that target alone; every support mask
    # against the per-eigenprojector `oracle_support`; every member row against one
    # `state_certain` per (operator, preimage mask), and for a density
    # matrix those certainties against one `certain_each` per operator
    rng = np.random.default_rng(1433)
    seen = Counter()
    for cat in [*_arrow_categories(), *planted_categories()]:
        index, check = cat.index, cat._check
        row_ends, col_ends = np.cumsum(check.blocks, axis=0).T
        states = states_for(rng, cat, "A" if "A" in cat.objects else "one")
        for tol in TABLE_WIDTHS:
            tables = screened_containment_blocks(check.rows, check.columns, check.blocks, tol)
            for table, (n, m), r, c in zip(tables, check.blocks, row_ends, col_ends):
                assert np.array_equal(
                    table, screened_containment_table(check.rows[r - n:r], check.columns[c - m:c], tol))
            for state in states:
                decisions = cat._decisions(state, tol)
                for op, mask in decisions.support.items():
                    assert mask == op.mask_of(oracle_support(state, op, tol))
                    seen["support bits"] += mask.bit_count()
                for i, (aid, target) in enumerate(zip(index.ids, cat._targets)):
                    a = cat.objects[aid]
                    sure = {}
                    want = [0] * (1 << len(a.spectrum))
                    for j, table in zip(target.sources, target.tables):
                        for delta, image in enumerate(table):
                            lift = index_lift(index, j, i, image)
                            if lift not in sure:
                                sure[lift] = state_certain(state, a.projector(lift), tol)
                            want[delta] |= sure[lift] << j
                    assert decisions.members[i] == want, (aid, tol)
                    if target.sources and isinstance(state, DensityMatrix):
                        each = certain_each(state, a.mask_entries, tol)
                        assert all(each[lift] == ok for lift, ok in sure.items())
                    seen["member bits"] += sum(bits.bit_count() for bits in want)
                    seen["broken"] += target.broken is not None
    assert seen["support bits"] > 10_000 and seen["member bits"] > 50_000 and seen["broken"], seen


def test_failing_delta_raises_on_each_query_and_spares_the_others():
    # at a containment width of 10 every spectral projector of f(A)
    # dominates, so the infimum is empty: the empty delta agrees with its
    # preimage and the full one does not.  Its query raises the per-delta
    # message of the first arrow into A, every time, before and after
    # queries of the same arrows that pass
    rng = np.random.default_rng(269)
    loose = DEFAULT.overridden(certain=10.0)
    cat, aid = random_category(rng, 3)
    a = cat.objects[aid]
    full = (1 << len(a.spectrum)) - 1
    first = morphisms_into(cat, aid)[0]
    f = _on_spectrum(first.map, a)
    expected = oracle_verdict(f, a, apply_map_oracle(f, a), full, loose)
    assert expected.startswith("coarse-graining paths disagree")
    for state in (random_state(rng, 3), random_density(rng, 3)):
        empty = nu_psi_o(state, a, frozenset(), cat, loose)
        for _ in range(2):
            for check in (nu_psi_o, characterize_check, check_sieve_on_o):
                with pytest.raises(OcatError) as exc:
                    check(state, a, frozenset(a.spectrum), cat, loose)
                assert str(exc.value) == expected
            assert nu_psi_o(state, a, frozenset(), cat, loose) == empty
            assert characterize_check(state, a, frozenset(), cat, loose)["delta"] == []


def test_one_table_per_target_and_tolerance_set(monkeypatch):
    # building a category takes one stacked discovery product per target
    # operator; a full `ocat` sweep, for two states at two tolerance sets
    # (the default one queried twice), takes one screened containment call
    # per tolerance set, whose columns are every target's mask projectors
    products, tables = Counter(), Counter()
    product, table = ocat_module._eigenspace_scalars, ocat_module.screened_containment_blocks

    def product_spy(ops, a):
        products[a.id] += 1
        return product(ops, a)

    def table_spy(rows, cols, blocks, tol=DEFAULT):
        tables[(id(cols), tol)] += 1
        return table(rows, cols, blocks, tol)

    monkeypatch.setattr(ocat_module, "_eigenspace_scalars", product_spy)
    monkeypatch.setattr(ocat_module, "screened_containment_blocks", table_spy)
    wide = DEFAULT.overridden(vector_support=0.4, support_trace=0.15)
    rng = np.random.default_rng(271)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        products.clear()
        cat, aid = random_category(rng, dim)
        assert products == Counter({oid: 1 for oid in cat.ids})
        tables.clear()
        for tol in (DEFAULT, wide, DEFAULT):
            for state in (random_state(rng, dim), random_density(rng, dim)):
                for oid in cat.ids:
                    for delta in all_deltas(cat.objects[oid]):
                        characterize_check(state, cat.objects[oid], delta, cat, tol)
                        check_sieve_on_o(state, cat.objects[oid], delta, cat, tol)
                support_subobject_check(state, cat, tol)
        assert tables == Counter({(id(cat._check.columns), tol): 1 for tol in (DEFAULT, wide)})


def oracle_mask_projector(o, mask, tol):
    """A mask's spectral projector as one projector: its eigenprojectors
    summed in ascending spectrum order, validated on its own."""
    m = np.zeros((o.dim, o.dim), dtype=complex)
    for i in bit_list(mask):
        m = m + o.eigenprojectors[i].entries
    return Projector(m, tol=tol)


def test_mask_stack_matches_per_mask_projectors():
    # entries and ranks of the stacked mask projectors equal, bit for bit,
    # those of each mask summed and validated on its own, for objects and
    # arrow images of dims 2-6
    rng = np.random.default_rng(277)
    for k in range(25):
        dim = 2 + k % 5
        cat, _ = random_category(rng, dim)
        ops = list(cat.objects.values()) + [cat._arrow(m)[1] for m in cat.morphisms.values()]
        for o in ops:
            assert not o.mask_entries.flags.writeable
            for mask in range(1 << len(o.spectrum)):
                want = oracle_mask_projector(o, mask, o.tol)
                got = o.projector(mask)
                assert got.entries.tobytes() == want.entries.tobytes() == \
                    o.mask_entries[mask].tobytes()
                assert got.rank == want.rank and got is o.projector(mask)
                assert not got.entries.flags.writeable
    with pytest.raises(OcatError, match="out of range"):
        o.projector(1 << len(o.spectrum))


def test_mask_stack_raises_for_its_first_failing_mask():
    # eigenprojectors accepted at loose widths, in a decomposition validated
    # at strict ones: the first failing mask, in ascending order, raises the
    # error that `Projector` gives that mask alone, and every mask's
    # projector raises it
    loose = DEFAULT.overridden(herm=1e-3, proj_idem=1e-3, trace_rank=1e-3)
    strict = DEFAULT.overridden(trace_rank=1e-12)
    ok = Projector(np.diag([1.0, 0, 0]))
    skew = np.diag([0.0, 1, 0]).astype(complex)
    skew[1, 2] = 1e-9                       # Hermiticity defect 1e-9, idempotent
    frac = np.diag([0.0, 0, 1 + 1e-10])     # trace 1 + 1e-10, idempotency defect 2e-10
    skew, frac = Projector(skew, tol=loose), Projector(frac, tol=loose)
    op = HermitianOperator(np.diag([1.0, 2, 3]))
    for projs, first, kind in (((ok, skew, frac), 0b010, "Hermitian"),
                               ((ok, frac, skew), 0b010, "trace"),
                               ((frac, ok, skew), 0b001, "trace")):
        o = ODecomposition("A", op, (1.0, 2.0, 3.0), projs, tol=strict)
        with pytest.raises(LinalgError, match=kind) as want:
            oracle_mask_projector(o, first, strict)
        for mask in (0, first, 0b111):
            with pytest.raises(LinalgError) as got:
                o.projector(mask)
            assert str(got.value) == str(want.value)
        assert ODecomposition("A", op, (1.0, 2.0, 3.0), projs, tol=loose).projector(0b111).rank == 3


def oracle_validation_error(o):
    """The error of the first mask of `o`, ascending, whose projector fails
    validation on its own, or None."""
    for mask in range(1 << len(o.spectrum)):
        try:
            oracle_mask_projector(o, mask, o.tol)
        except LinalgError as exc:
            return exc
    return None


def per_arrow_error(cat, aid, delta, tol):
    """The error a query of (operator aid, delta mask) raises along the
    per-arrow path: for each arrow into the operator, in source order, its
    `apply_map_oracle` image, then the target's and the image's mask projectors
    each validated on its own, then the arrow's cross-check at delta; or
    None."""
    index = cat.index
    a = cat.objects[aid]
    for j, table in index_below(index, index.pos[aid]):
        try:
            f, b = oracle_image(cat.morphisms[(index.ids[j], aid)], a)
        except ValueError as exc:
            return exc
        for o in (a, b):
            exc = oracle_validation_error(o)
            if exc is not None:
                return exc
        (msg,) = cross_checks_oracle(a, b, a.mask_entries[delta:delta + 1], [table[delta]],
                                     f.preimage_table, tol)
        if msg is not None:
            return OcatError(msg)
    return None


def planted_categories():
    """Categories on a decomposition Z that fails validation: as in
    `test_mask_stack_raises_for_its_first_failing_mask` (its operator made
    consistent with its eigenprojectors), with arrows into Z whose images
    reach a failing mask first (B merges two eigenvalues, C is injective)
    or whose first arrow is Z's own; and a valid Z whose eigenprojector at 2
    has a Hermiticity defect of 5e-11, which B's image scales by 40 past
    `herm`, after an arrow from A1 whose image passes."""
    loose = DEFAULT.overridden(herm=1e-3, proj_idem=1e-3, trace_rank=1e-3)
    strict = DEFAULT.overridden(trace_rank=1e-12)
    ok = Projector(np.diag([1.0, 0, 0]))
    skew = np.diag([0.0, 1, 0]).astype(complex)
    skew[1, 2] = 1e-9
    skew = Projector(skew, tol=loose)
    frac = Projector(np.diag([0.0, 0, 1 + 1e-10]), tol=loose)
    for projs in ((ok, skew, frac), (ok, frac, skew), (frac, ok, skew)):
        op = HermitianOperator(np.diag(sum(lam * np.round(p.entries.diagonal().real)
                                           for lam, p in zip((1.0, 2.0, 3.0), projs))))
        z = ODecomposition("Z", op, (1.0, 2.0, 3.0), projs, tol=strict)
        for others in ([decomp(1, 1, 4, id="B"), decomp(5, 6, 7, id="C")], [decomp(5, 6, 7, id="C")], []):
            yield OperatorCategory([z, *others, decomp(1, 1, 1, id="one")])
    slight = np.diag([0.0, 1, 0]).astype(complex)
    slight[1, 2] = 5e-11
    z = ODecomposition("Z", HermitianOperator(np.diag([1.0, 2, 3])), (1.0, 2.0, 3.0),
                       (ok, Projector(slight), Projector(np.diag([0.0, 0, 1]))))
    yield OperatorCategory([z, decomp(0, 1, 0, id="A1"), decomp(1, 40, 3, id="B"),
                            decomp(1, 1, 1, id="one")])


def test_a_planted_validation_failure_raises_as_the_per_arrow_path():
    # every query of every cell, by `nu_psi_o` and `characterize_check`,
    # raises the type and message of the first failure along the per-arrow
    # path: an image's failing value projector, the target's first failing
    # mask, an image operator that is not Hermitian, or, at a containment
    # width of 10, an earlier arrow's cross-check; a query that passes gives
    # the oracle's member set
    rng = np.random.default_rng(283)
    raised = Counter()
    for cat in planted_categories():
        for state in (random_state(rng, 3), random_density(rng, 3)):
            for tol in (DEFAULT, DEFAULT.overridden(certain=10.0)):
                for aid in cat.ids:
                    a = cat.objects[aid]
                    for delta in range(1 << len(a.spectrum)):
                        want = per_arrow_error(cat, aid, delta, tol)
                        for check in (nu_psi_o, characterize_check):
                            if want is None:
                                assert check(state, a, a.subset(delta), cat, tol) is not None
                                continue
                            with pytest.raises(type(want)) as got:
                                check(state, a, a.subset(delta), cat, tol)
                            assert str(got.value) == str(want)
                            raised[str(want).split(":")[0]] += 1
                        if want is None:
                            assert nu_psi_o(state, a, a.subset(delta), cat, tol) == \
                                oracle_nu_psi_o(state, a, a.subset(delta), cat, tol)
    assert set(raised) == {"projector is not Hermitian within tolerance",
                           "projector trace 1.0000000001 is not close to an integer",
                           "matrix is not Hermitian within tolerance",
                           "coarse-graining paths disagree"}, raised


def test_identity_arrows_reuse_the_object():
    # an identity arrow's f(A) is the object itself; the cross-check, the
    # checkers and the support subset law give what the `apply_map_oracle` image
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
            twin._arrows[(m.src, m.dst)] = (f, apply_map_oracle(f, a))
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


def test_a_state_of_another_dimension_is_refused_naming_both():
    # checked once, when the state's decisions are first made, before any
    # product with the state
    cat = OperatorCategory([decomp(1, 2, 3), decomp(1, 1, 1, id="one")])
    a = cat.objects["A"]
    rng = np.random.default_rng(11)
    for state in (random_state(rng, 2), random_density(rng, 4)):
        message = f"the state has dimension {state.dim}, the operators have dimension 3"
        for check in (nu_psi_o, characterize_check, check_sieve_on_o):
            with pytest.raises(OcatError) as exc:
                check(state, a, frozenset({2.0}), cat)
            assert str(exc.value) == message
        with pytest.raises(OcatError) as exc:
            support_subobject_check(state, cat)
        assert str(exc.value) == message


def _arrow_categories():
    """60 seeded random categories, then the operator set of the CI
    report checks (A = diag(-1, 1, 2), its square and the identity)."""
    rng = np.random.default_rng(241)
    for _ in range(60):
        yield random_category(rng, int(rng.integers(2, 7)))[0]
    yield OperatorCategory([decomp(-1, 1, 2), decomp(1, 1, 4, id="Asq"), decomp(1, 1, 1, id="one")])


def test_index_holds_the_arrows():
    # the arrows into each object, in `morphisms_into` order, and per arrow
    # B -> A the coarse-graining table is the map's image on A's index masks;
    # the tables the category decides cells on, each arrow's `image_table`
    # and the preimages of its images, are that table and its lift
    for cat in _arrow_categories():
        index = cat.index
        assert index.ids == tuple(cat.ids)
        assert set(index.pairs) == set(cat.morphisms)
        for i, aid in enumerate(index.ids):
            a = cat.objects[aid]
            into = [(src, aid) for j, src in enumerate(index.ids) if index.down[i] >> j & 1]
            assert into == [(m.src, m.dst) for m in oracle_into(cat, aid)]
            assert morphisms_into(cat, aid) == oracle_into(cat, aid)
            target = cat._targets[i]
            assert target.broken is None
            assert target.sources == [index.pos[m.src] for m in morphisms_into(cat, aid)]
            check = cat._check
            at = check.target == [o.id for o in check.targets].index(aid)
            for j, table, lifted in zip(target.sources, target.tables,
                                        check.lifted[at].reshape(-1, len(target.sources)).T.tolist()):
                assert table == index.coarse(j, i)
                assert lifted == [index_lift(index, j, i, image) for image in table]
            for m in morphisms_into(cat, aid):
                j = index.pos[m.src]
                table = index.coarse(j, i)
                f = _on_spectrum(m.map, a)
                assert f.image_table == tuple(image_mask_oracle(f, mask)
                                              for mask in range(1 << len(a.spectrum)))
                b = cat.objects[m.src]
                for delta in all_deltas(a):
                    mask = a.mask_of(delta)
                    assert table[mask] == m.map.image_mask(mask)
                    assert b.subset(table[mask]) == map_image(m.map, delta)
                    assert a.subset(index_lift(index, j, i, table[mask])) == map_preimage(
                        m.map, map_image(m.map, delta))
    assert morphisms_into(cat, "absent") == []


def test_sieve_witness_names_a_missing_composite():
    # a state's member sets are always sieves, so the failing branch is
    # reached through a hand-set entry of A's row of member bits: at delta
    # 0 it holds Asq -> A alone, while A -> Asq and one -> Asq are arrows
    # into Asq
    a = decomp(1, 2, 3)
    cat = OperatorCategory([a, decomp(1, 4, 9, id="Asq"), decomp(1, 1, 1, id="one")])
    state = random_state(np.random.default_rng(9), 3)
    index = cat.index
    assert [m.src for m in morphisms_into(cat, "Asq")] == ["A", "Asq", "one"]
    check_sieve_on_o(state, a, frozenset(), cat)   # builds the state's decisions
    cat._decisions(state, DEFAULT).members[index.pos["A"]][0] = 1 << index.pos["Asq"]
    assert check_sieve_on_o(state, a, frozenset(), cat) == (
        False, {"f": ("Asq", "A"), "g": ("A", "Asq")})


def _seeded_maps(rng):
    """Maps of 1 to 7 points with repeated values, then every arrow's map,
    on its target's spectrum, of seeded random categories."""
    for _ in range(150):
        n = int(rng.integers(1, 8))
        keys = (rng.choice(30, size=n, replace=False) - 15.0).tolist()
        values = (rng.integers(-3, 4, size=n) * 1.5).tolist()
        yield EigenvalueMap.from_dict(dict(zip(keys, values)))
    for _ in range(20):
        cat, _ = random_category(rng, int(rng.integers(2, 7)))
        for m in cat.morphisms.values():
            yield _on_spectrum(m.map, cat.objects[m.dst])


def test_map_masks_read_the_tables_the_per_mask_loops_give():
    # image_mask, preimage_mask and both tables equal the bit-by-bit loops
    # they replaced; a mask outside a table, a negative one included,
    # raises OcatError naming it instead of indexing or looping forever
    rng = np.random.default_rng(1409)
    for f in _seeded_maps(rng):
        n, m = len(f.pairs), len(f.codomain)
        assert f.image_table == tuple(image_mask_oracle(f, mask) for mask in range(1 << n))
        assert f.preimage_table == tuple(preimage_mask_oracle(f, mask) for mask in range(1 << m))
        for mask in range(1 << n):
            assert f.image_mask(mask) == image_mask_oracle(f, mask)
        for mask in range(1 << m):
            assert preimage_mask(f, mask) == preimage_mask_oracle(f, mask)
        for bad in (-1, -(1 << n), 1 << n):
            with pytest.raises(OcatError) as exc:
                f.image_mask(bad)
            assert str(exc.value) == f"mask {bad} out of range for the map's domain"
        for bad in (-1, 1 << m):
            with pytest.raises(OcatError) as exc:
                preimage_mask(f, bad)
            assert str(exc.value) == f"mask {bad} out of range for the map's codomain"


def test_a_value_outside_the_spectrum_is_refused_by_every_query():
    # a delta is turned into a mask once, each value taken as a float, and
    # a value outside the operator's spectrum is named in the error
    a = decomp(1, 2, 3)
    cat = OperatorCategory([a, decomp(1, 1, 1, id="one")])
    psi = random_state(np.random.default_rng(13), 3)
    message = "7.0 is not an eigenvalue of 'A'"
    assert a.mask_of([2, 3.0]) == 0b110
    for delta in (frozenset({7}), frozenset({1.0, 7.0}), [7.0]):
        with pytest.raises(OcatError) as exc:
            a.mask_of(delta)
        assert str(exc.value) == message
        for check in (nu_psi_o, characterize_check, check_sieve_on_o):
            with pytest.raises(OcatError) as exc:
                check(psi, a, delta, cat)
            assert str(exc.value) == message
        with pytest.raises(OcatError) as exc:
            o_coarse_grain(identity_map(a), a, delta)
        assert str(exc.value) == message
        with pytest.raises(OcatError) as exc:
            survey_properties_o({"A": delta, "one": frozenset({1.0})}, "subset", cat)
        assert str(exc.value) == message


def test_the_per_pair_functions_run_the_category_code(monkeypatch):
    # discovery, image building and supports each have one implementation:
    # the per-pair functions call it with one entry (`func_subset_check`
    # with A and f(A) in one product), and a category with all of its
    # entries at once
    calls = []
    for name, size in (("_discover", lambda ops, objects, a, tol: len(objects)),
                       ("_images", lambda pairs: len(pairs)),
                       ("_support_masks", lambda state, ops, tol, stack=None: len(ops))):
        def spy(*args, _real=getattr(ocat_module, name), _name=name, _size=size):
            calls.append((_name, _size(*args)))
            return _real(*args)
        monkeypatch.setattr(ocat_module, name, spy)
    a = decomp(1, 1, 2, 3)
    b = decomp(1, 1, 4, 9, id="B")
    f = EigenvalueMap.from_dict({1.0: 1.0, 2.0: 4.0, 3.0: 9.0})
    psi = random_state(np.random.default_rng(17), 4)
    for run, want in ((lambda: discover_morphism(b, a), [("_discover", 1)]),
                      (lambda: apply_map(f, a), [("_images", 1)]),
                      (lambda: elementary_support(psi, a), [("_support_masks", 1)]),
                      (lambda: func_subset_check(psi, a, f), [("_images", 1), ("_support_masks", 2)])):
        calls.clear()
        run()
        assert calls == want
    calls.clear()
    cat = OperatorCategory([a, b])
    assert calls == [("_discover", 2)] * 2
    calls.clear()
    nu_psi_o(psi, a, frozenset(), cat)
    ops, _ = cat._eigenprojectors   # the objects, then every image that is not one
    assert calls == [("_images", len(ops) - 2), ("_support_masks", len(ops))] and len(ops) > 2


def test_a_subset_mask_outside_the_spectrum_raises():
    a = decomp(1, 2, 3)
    assert a.subset(0b101) == frozenset({1.0, 3.0})
    for bad in (-1, -8, 8):
        with pytest.raises(OcatError) as exc:
            a.subset(bad)
        assert str(exc.value) == f"mask {bad} out of range for operator 'A'"


def test_decisions_are_one_row_per_queried_operator():
    # a state's decisions are plain data: its support masks and, per
    # operator queried, one row of member bits by delta mask, which is
    # what every cell of that operator reads; they refer to neither the
    # state nor the category
    rng = np.random.default_rng(1423)
    for _ in range(10):
        cat, aid = random_category(rng, int(rng.integers(2, 6)))
        index = cat.index
        i = index.pos[aid]
        for state in states_for(rng, cat, aid):
            a = cat.objects[aid]
            characterize_check(state, a, frozenset(), cat)
            decisions = cat._decisions(state, DEFAULT)
            images = {out[1] for out in cat._arrows.values() if not isinstance(out, ValueError)}
            assert set(decisions.support) == set(cat.objects.values()) | images
            assert len(decisions.members) == len(index.ids)
            row = decisions.members[i]
            assert len(row) == 1 << len(a.spectrum)
            for delta in range(1 << len(a.spectrum)):
                assert cat._member_bits(state, i, delta, DEFAULT) == row[delta]
                assert nu_psi_o(state, a, a.subset(delta), cat) == frozenset(
                    (src, aid) for src in index.names(row[delta]))
            assert len(decisions.members) == len(index.ids)
            assert set(vars(decisions)) == {"support", "members"}
            assert all(type(bits) is int for bits in row)
            assert all(type(o) is ODecomposition and type(mask) is int
                       for o, mask in decisions.support.items())


def test_the_first_arrow_request_builds_every_arrow():
    # one batch fills the arrow table; each later request is a lookup, and
    # an arrow whose image fails validation raises its kept error each time
    rng = np.random.default_rng(1427)
    for _ in range(10):
        cat, _ = random_category(rng, int(rng.integers(2, 6)))
        first = next(iter(cat.morphisms.values()))
        cat._arrow(first)
        assert set(cat._arrows) == set(cat.morphisms)
        for m in cat.morphisms.values():
            assert cat._arrow(m) is cat._arrows[(m.src, m.dst)]
    failed = 0
    for cat in planted_categories():
        for m in cat.morphisms.values():
            kept = cat._arrows[(m.src, m.dst)]
            if isinstance(kept, ValueError):
                failed += 1
                for _ in range(2):
                    with pytest.raises(type(kept)) as exc:
                        cat._arrow(m)
                    assert str(exc.value) == str(kept)
    assert failed > 0


def test_image_and_preimage_masks():
    f = EigenvalueMap.from_dict({-1.0: 1.0, 1.0: 1.0, 2.0: 4.0})
    assert f.codomain == (1.0, 4.0)
    assert f.image_mask(0b011) == 0b01 and f.image_mask(0b100) == 0b10
    assert preimage_mask(f, 0b01) == 0b011 and preimage_mask(f, 0b11) == 0b111
    assert f.preimage_table == (0b000, 0b011, 0b100, 0b111)
    assert f.image_table == (0b00, 0b01, 0b01, 0b01, 0b10, 0b11, 0b11, 0b11)
    assert map_image(f, frozenset({-1.0, 2.0})) == frozenset({1.0, 4.0})
    assert map_preimage(f, frozenset({1.0})) == frozenset({-1.0, 1.0})
    with pytest.raises(OcatError):
        map_image(f, frozenset({3.0}))
    with pytest.raises(OcatError):
        map_preimage(f, frozenset({1.0, 9.0}))
