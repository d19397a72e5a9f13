import numpy as np
import numpy.testing as npt
import pytest

from toposval.contexts import (
    Character,
    Context,
    ContextError,
    LatticeElement,
    bit_list,
    build_poset,
    context_from_operators,
    evaluate,
    inclusion,
    lattice_elements,
    trivial_context,
    v_of_p,
)
from toposval.linalg import HermitianOperator, Projector, identity_projector, projector_from_span
from toposval.sampling import random_poset
from toposval.tolerances import DEFAULT

from conftest import diag_proj


def test_context_from_single_nondegenerate():
    ctx = context_from_operators([HermitianOperator(np.diag([0.0, 1, 2]))])
    assert ctx.n_atoms == 3
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1
        npt.assert_allclose(ctx.atoms[i].entries, np.diag(e), atol=1e-10)


def test_context_from_degenerate():
    ctx = context_from_operators([HermitianOperator(np.diag([5.0, 5, 7]))])
    assert ctx.n_atoms == 2
    npt.assert_allclose(ctx.atoms[0].entries, np.diag([1.0, 1, 0]), atol=1e-10)
    npt.assert_allclose(ctx.atoms[1].entries, np.diag([0.0, 0, 1]), atol=1e-10)


def test_context_joint_refinement():
    # partitions {{0},{1,2}} and {{0,1},{2}} refine to singletons
    a = HermitianOperator(np.diag([0.0, 1, 1]))
    b = HermitianOperator(np.diag([1.0, 1, 0]))
    ctx = context_from_operators([a, b])
    assert ctx.n_atoms == 3
    # every spectral projector of the inputs is in the lattice
    assert ctx.member_mask(Projector(np.diag([0.0, 1, 1]))) == 0b110
    assert ctx.member_mask(Projector(np.diag([1.0, 1, 0]))) == 0b011


def test_context_rejects_noncommuting():
    sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    sz = HermitianOperator(np.diag([1.0, -1]))
    with pytest.raises(ContextError):
        context_from_operators([sx, sz])


def test_inclusion_examples(fixa):
    v1 = fixa.context("V1")
    v2 = fixa.context("V2")
    vt = fixa.context("Vtriv")
    assert inclusion(vt, v1) and inclusion(vt, v2)
    assert inclusion(v1, v1) and inclusion(v2, v2)
    assert inclusion(v2, v1)
    assert not inclusion(v1, v2)


def test_lattice_elements_counts(fixa):
    assert len(lattice_elements(fixa.context("Vtriv"))) == 2
    assert len(lattice_elements(fixa.context("V1"))) == 8
    masks = {e.mask for e in lattice_elements(fixa.context("V2"))}
    assert masks == {0b00, 0b01, 0b10, 0b11}


def test_evaluate_examples():
    ctx = Context("V", [diag_proj(1, 0, 0), diag_proj(0, 1, 0), diag_proj(0, 0, 1)])
    a = HermitianOperator(np.diag([4.0, 5, 6]))
    assert evaluate(ctx, Character("V", 1), a) == pytest.approx(5.0)
    assert evaluate(ctx, Character("V", 0), HermitianOperator(np.eye(3))) == pytest.approx(1.0)
    coarse = Context("W", [diag_proj(1, 0, 0), diag_proj(0, 1, 1)])
    b = HermitianOperator(np.diag([3.0, 7, 7]))
    assert evaluate(coarse, Character("W", 1), b) == pytest.approx(7.0)
    with pytest.raises(ContextError):
        evaluate(coarse, Character("W", 0), HermitianOperator(np.diag([1.0, 2, 3])))


def test_character_func_and_multiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.integers(-3, 4, size=4).astype(float)
        ctx = context_from_operators([HermitianOperator(np.diag(vals))], id="V")
        a = HermitianOperator(np.diag(vals))
        f = lambda x: x ** 2 - x
        fa = HermitianOperator(np.diag([f(v) for v in vals]))
        for i in range(ctx.n_atoms):
            k = Character("V", i)
            assert abs(evaluate(ctx, k, fa) - f(evaluate(ctx, k, a))) < 1e-7
            prod = HermitianOperator(a.entries @ fa.entries)
            assert abs(evaluate(ctx, k, prod)
                       - evaluate(ctx, k, a) * evaluate(ctx, k, fa)) < 1e-7


def test_v_of_p(fixa):
    v1 = fixa.context("V1")
    assert v_of_p(v1, LatticeElement("V1", 0b111)) == frozenset(
        Character("V1", i) for i in range(3))
    assert v_of_p(v1, LatticeElement("V1", 0)) == frozenset()
    assert v_of_p(v1, LatticeElement("V1", 0b110)) == frozenset(
        {Character("V1", 1), Character("V1", 2)})
    assert len(v_of_p(v1, LatticeElement("V1", 0b101))) == 2


def test_build_poset_trivial_only():
    poset = build_poset([], add_trivial=True, dim=3)
    assert poset.ids == ["Vtriv"]
    assert poset.leq("Vtriv", "Vtriv")


def test_build_poset_fixa_chain(fixa):
    assert fixa.ids == ["V1", "V2", "Vtriv"]
    assert fixa.cover_pairs() == [("V2", "V1"), ("Vtriv", "V2")]
    assert fixa.leq("Vtriv", "V1")


def test_build_poset_incomparable_dim2():
    h = [projector_from_span([np.array([1, 1]) / np.sqrt(2)]),
         projector_from_span([np.array([1, -1]) / np.sqrt(2)])]
    d = [diag_proj(1, 0), diag_proj(0, 1)]
    poset = build_poset(
        [Context("Vdiag", d), Context("Vhad", h)], add_trivial=True)
    assert len(poset.ids) == 3
    assert not poset.leq("Vdiag", "Vhad") and not poset.leq("Vhad", "Vdiag")
    assert poset.cover_pairs() == [("Vtriv", "Vdiag"), ("Vtriv", "Vhad")]


def test_build_poset_merges_duplicates():
    d = [diag_proj(1, 0), diag_proj(0, 1)]
    poset = build_poset([Context("A", d), Context("B", list(reversed(d)))])
    assert poset.ids == ["A"]


def test_build_poset_mixed_dims():
    with pytest.raises(ContextError):
        build_poset([trivial_context(2, "a"), trivial_context(3, "b")])


def test_close_under_meets():
    # two bases sharing one ray: the meet is the ray-plus-complement context
    shared = np.array([1.0, 0, 0])
    b1 = [projector_from_span([shared]), diag_proj(0, 1, 0), diag_proj(0, 0, 1)]
    v = np.array([0, 1, 1]) / np.sqrt(2)
    w = np.array([0, 1, -1]) / np.sqrt(2)
    b2 = [projector_from_span([shared]), projector_from_span([v]), projector_from_span([w])]
    poset = build_poset(
        [Context("X", b1), Context("Y", b2)], add_trivial=True, close_under_meets=True)
    meets = [cid for cid in poset.ids if cid.startswith("meet")]
    assert len(meets) == 1
    m = poset.context(meets[0])
    assert m.n_atoms == 2
    assert poset.leq(meets[0], "X") and poset.leq(meets[0], "Y")


def test_partial_order_on_random_posets():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=6, max_atoms=4)
        ids = poset.ids
        for x in ids:
            assert poset.leq(x, x)
        for x in ids:
            for y in ids:
                if x != y and poset.leq(x, y):
                    assert not poset.leq(y, x)
                for z in ids:
                    if poset.leq(x, y) and poset.leq(y, z):
                        assert poset.leq(x, z)


def test_partition_maps_consistent(fixa):
    pmap = fixa.partition_map("V2", "V1")
    assert pmap == (0b001, 0b110)
    assert fixa.lift_mask("V2", "V1", 0b10) == 0b110
    assert fixa.partition_map("Vtriv", "V1") == (0b111,)


def test_a_lift_mask_outside_the_sub_lattice_raises(fixa):
    # a negative mask has infinitely many bits: it is refused, as is one
    # with a bit past the sub-context's atoms, instead of looping or indexing
    assert fixa.lift_mask("V2", "V1", 0b11) == 0b111
    for bad in (-1, -4, 0b100):
        with pytest.raises(ContextError) as exc:
            fixa.lift_mask("V2", "V1", bad)
        assert str(exc.value) == f"mask {bad} out of range for context 'V2'"


def test_bit_list_refuses_a_negative_mask():
    assert bit_list(0) == [] and bit_list(0b1011) == [0, 1, 3]
    for bad in (-1, -(1 << 70)):
        with pytest.raises(ValueError) as exc:
            bit_list(bad)
        assert str(exc.value) == f"mask {bad} is negative"


def test_trivial_context_equals_the_validated_one_atom_context():
    # built without the batch validation its one identity atom cannot fail,
    # it is the context `Context` validates from the same atom
    loose = DEFAULT.overridden(atom=0.3, proj_idem=0.1, trace_rank=0.1)
    for tol in (DEFAULT, loose):
        for d in range(1, 7):
            got = trivial_context(d, "T", tol)
            want = Context("T", [identity_projector(d, tol)], tol)
            assert (got.id, got.tol, got.n_atoms) == (want.id, tol, 1)
            assert [(a.entries.tobytes(), a.rank) for a in got.atoms] == \
                [(a.entries.tobytes(), a.rank) for a in want.atoms]
            assert (got.stack.shape, got.stack.dtype) == (want.stack.shape, want.stack.dtype)
            assert got.stack.tobytes() == want.stack.tobytes()
            assert not got.stack.flags.writeable
    with pytest.raises(ContextError, match="zero atom in context"):
        trivial_context(0)
    with pytest.raises(ValueError) as err:
        trivial_context(-1)
    assert type(err.value) is ValueError
