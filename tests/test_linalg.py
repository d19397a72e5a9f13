import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from toposval.linalg import (
    DensityMatrix,
    GroupingError,
    HermitianOperator,
    LinalgError,
    Projector,
    StateVector,
    certain,
    certain_each,
    commutes,
    containment_table,
    eig_hermitian,
    projector_checks,
    projector_from_span,
    projector_ranks,
    screened_containment_blocks,
)
from toposval.sampling import random_degenerate_hermitian, random_density, random_hermitian
from toposval.tolerances import DEFAULT

from conftest import leq_each, screened_containment_table


def test_eig_identity():
    pairs = eig_hermitian(HermitianOperator(np.eye(3)))
    assert len(pairs) == 1
    assert pairs[0][0] == pytest.approx(1.0)
    npt.assert_allclose(pairs[0][1].entries, np.eye(3), atol=1e-12)


def test_eig_diagonal_degenerate():
    pairs = eig_hermitian(HermitianOperator(np.diag([0.0, 0, 1])))
    assert [round(lam) for lam, _ in pairs] == [0, 1]
    npt.assert_allclose(pairs[0][1].entries, np.diag([1.0, 1, 0]), atol=1e-10)
    npt.assert_allclose(pairs[1][1].entries, np.diag([0.0, 0, 1]), atol=1e-10)


def test_eig_sigma_x():
    # hand diagonalization: eigenvectors (1, ±1)/sqrt(2)
    h = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    pairs = eig_hermitian(h)
    assert [round(lam) for lam, _ in pairs] == [-1, 1]
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    p_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    npt.assert_allclose(pairs[0][1].entries, p_minus, atol=1e-10)
    npt.assert_allclose(pairs[1][1].entries, p_plus, atol=1e-10)
    recon = sum(lam * p.entries for lam, p in pairs)
    npt.assert_allclose(recon, h.entries, atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(LinalgError):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_ambiguous_cluster():
    # three eigenvalues chained inside one another: 0, 0.8t, 1.6t with t the width
    t = 1e-8
    with pytest.raises(GroupingError):
        eig_hermitian(HermitianOperator(np.diag([0.0, 0.8 * t, 1.6 * t])),
                      tol=DEFAULT.overridden(eig_group=t))


def eig_hermitian_per_group(h, tol):
    """`eig_hermitian` with each group's width tested, and its projector
    built and validated, one group at a time: the errors' oracle."""
    evals, evecs = np.linalg.eigh(h.entries)
    groups = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] <= tol.eig_group:
            groups[-1].append(i)
        else:
            groups.append([i])
    out = []
    for g in groups:
        if evals[g[-1]] - evals[g[0]] > tol.eig_group:
            raise GroupingError(
                f"eigenvalue cluster {[float(evals[i]) for i in g]} is wider than "
                f"the grouping width {tol.eig_group}; refusing to guess"
            )
        vecs = evecs[:, g]
        out.append((float(np.mean(evals[g])), Projector(vecs @ vecs.conj().T, tol=tol)))
    return out


def _planted(*blocks) -> HermitianOperator:
    """A block-diagonal operator: a list of floats is a diagonal block,
    whose eigenvectors eigh returns exactly; a tuple of eigenvalues is a
    seeded rotated block, whose eigenprojectors carry rounding."""
    rng = np.random.default_rng(23)
    parts = []
    for b in blocks:
        if isinstance(b, list):
            parts.append(np.diag(np.array(b, dtype=complex)))
        else:
            u = np.linalg.qr(rng.normal(size=(len(b), len(b))) + 1j * rng.normal(size=(len(b), len(b))))[0]
            m = u @ np.diag(np.array(b, dtype=complex)) @ u.conj().T
            parts.append((m + m.conj().T) / 2)
    dim = sum(len(p) for p in parts)
    h = np.zeros((dim, dim), dtype=complex)
    at = 0
    for p in parts:
        h[at:at + len(p), at:at + len(p)] = p
        at += len(p)
    return HermitianOperator(h)


def test_eig_groups_validated_at_once_raise_the_per_group_errors():
    # one validation of the stacked group projectors raises what validating
    # group by group raises: a late group's projector failure, a wide
    # cluster before a failing group, and a failing group before a wide
    # cluster; a passing decomposition is the same floats
    width = DEFAULT.overridden(eig_group=1e-3)
    wide = [1.0, 1.0006, 1.0012]
    cases = [
        (_planted([0.0, 1.0], (2.0, 3.0)), width.overridden(trace_rank=0.0), LinalgError),
        (_planted([0.0, 1.0], (2.0, 3.0)), width.overridden(proj_idem=1e-17), LinalgError),
        (_planted([0.0] + wide, (2.0, 3.0)), width.overridden(trace_rank=0.0), GroupingError),
        (_planted((-3.0, -2.0), wide), width.overridden(proj_idem=1e-17), LinalgError),
        (_planted((-3.0, -2.0), wide), width, GroupingError),
    ]
    for h, tol, kind in cases:
        with pytest.raises(LinalgError) as want:
            eig_hermitian_per_group(h, tol)
        with pytest.raises(LinalgError) as got:
            eig_hermitian(h, tol)
        assert type(got.value) is type(want.value) is kind
        assert str(got.value) == str(want.value)
    for h, tol, _ in cases[:2]:
        with pytest.raises(LinalgError, match="projector"):
            eig_hermitian_per_group(h, tol)
    h = _planted([0.0, 1.0], (2.0, 3.0), (5.0, 5.0, 6.0))
    got, want = eig_hermitian(h, width), eig_hermitian_per_group(h, width)
    assert [lam for lam, _ in got] == [lam for lam, _ in want]
    assert [p.entries.tobytes() for _, p in got] == [p.entries.tobytes() for _, p in want]
    assert [p.rank for _, p in got] == [p.rank for _, p in want] == [1, 1, 1, 1, 2, 1]


def test_eig_groups_as_runs_match_the_index_list_groups():
    # a group is a run of adjacent sorted eigenvalues, read as slices: its
    # value and its projector's bytes are those of the per-group oracle,
    # which gathers each group by an index list, on seeded generic and
    # degenerate operators
    rng = np.random.default_rng(1433)
    groups = repeated = 0
    for k in range(300):
        dim = int(rng.integers(2, 9))
        if k % 2:
            h = random_degenerate_hermitian(rng, dim, int(rng.integers(1, min(dim, 7) + 1)))
        else:
            h = random_hermitian(rng, dim)
        got, want = eig_hermitian(h), eig_hermitian_per_group(h, DEFAULT)
        assert [lam for lam, _ in got] == [lam for lam, _ in want]
        assert [p.entries.tobytes() for _, p in got] == [p.entries.tobytes() for _, p in want]
        assert [p.rank for _, p in got] == [p.rank for _, p in want]
        groups += len(got)
        repeated += any(p.rank > 1 for _, p in got)
    assert groups > 1000 and repeated > 100, (groups, repeated)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
def test_eig_reconstruction_and_orthogonality(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    pairs = eig_hermitian(h)
    recon = sum(lam * p.entries for lam, p in pairs)
    assert np.max(np.abs(recon - h.entries)) < 1e-7
    total = sum(p.entries for _, p in pairs)
    assert np.max(np.abs(total - np.eye(dim))) < 1e-8
    for i, (_, p) in enumerate(pairs):
        for _, q in pairs[i + 1:]:
            assert np.max(np.abs(p.entries @ q.entries)) < 1e-8
    evals = [lam for lam, _ in pairs]
    assert all(b - a > 1e-8 for a, b in zip(evals, evals[1:]))


def test_projector_from_span_examples():
    npt.assert_allclose(projector_from_span([[1, 0]]).entries, np.diag([1.0, 0]), atol=1e-12)
    npt.assert_allclose(projector_from_span([[1, 0], [0, 1]]).entries, np.eye(2), atol=1e-12)
    v = np.array([1, 1]) / np.sqrt(2)
    npt.assert_allclose(projector_from_span([v]).entries, np.full((2, 2), 0.5), atol=1e-12)


def test_projector_from_span_rejects_dependent():
    with pytest.raises(LinalgError):
        projector_from_span([[1, 0], [2, 0]])
    with pytest.raises(LinalgError):
        projector_from_span([[0, 0]])
    with pytest.raises(LinalgError):
        projector_from_span([])


def test_projector_from_span_rank_cut_reads_tol_trace_rank():
    # singular values about 1.41 and 7.1e-10: below the default cut of
    # 1e-8 times the largest, above a cut of 1e-11 times it
    pair = [[1, 0], [1, 1e-9]]
    with pytest.raises(LinalgError, match="dependent"):
        projector_from_span(pair)
    p = projector_from_span(pair, DEFAULT.overridden(trace_rank=1e-11))
    assert p.rank == 2
    npt.assert_allclose(p.entries, np.eye(2), atol=1e-6)


def test_commutes_examples():
    a = HermitianOperator(np.diag([1.0, 2]))
    b = HermitianOperator(np.diag([3.0, 4]))
    assert commutes(a, b)
    sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
    sz = HermitianOperator(np.diag([1.0, -1]))
    assert not commutes(sx, sz)
    assert commutes(sx, HermitianOperator(np.eye(2)))
    with pytest.raises(LinalgError):
        commutes(a, HermitianOperator(np.eye(3)))


def test_certain_examples():
    rho = DensityMatrix(np.diag([1.0, 0]))
    assert certain(rho, Projector(np.diag([1.0, 0])))
    assert not certain(rho, Projector(np.diag([0.0, 1])))
    mixed = DensityMatrix(np.eye(2) / 2)
    assert not certain(mixed, Projector(np.diag([1.0, 0])))
    assert certain(mixed, Projector(np.eye(2)))


def test_certain_agrees_with_trace_oracle():
    # half the draws engineered so the state is supported inside the projector
    rng = np.random.default_rng(42)
    agree = 0
    for i in range(1000):
        dim = int(rng.integers(2, 5))
        if i % 2 == 0:
            rank = int(rng.integers(1, dim + 1))
            rho = random_density(rng, dim, rank=rank)
            extra = int(rng.integers(0, dim - rank + 1))
            evals, evecs = np.linalg.eigh(rho.entries)
            order = np.argsort(evals)[::-1]
            cols = evecs[:, order[:rank + extra]]
            p = Projector(cols @ cols.conj().T)
        else:
            rho = random_density(rng, dim)
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            k = int(rng.integers(1, dim + 1))
            p = Projector(q[:, :k] @ q[:, :k].conj().T)
        oracle = abs(float(np.trace(rho.entries @ p.entries).real) - 1.0) < 1e-8
        assert certain(rho, p) == oracle
        agree += 1
    assert agree == 1000


def test_density_matrix_validation():
    with pytest.raises(LinalgError):
        DensityMatrix(np.diag([1.5, -0.5]))   # negative eigenvalue
    with pytest.raises(LinalgError):
        DensityMatrix(np.diag([0.7, 0.7]))    # trace != 1
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
    npt.assert_allclose(rho.support_projector.entries, np.diag([1.0, 1, 0]), atol=1e-10)
    assert rho.support_projector.rank == 2


def test_state_vector():
    with pytest.raises(LinalgError):
        StateVector([1, 1])
    psi = StateVector(np.array([1, 1]) / np.sqrt(2))
    rho = psi.density()
    npt.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-12)


def test_projector_validation():
    with pytest.raises(LinalgError):
        Projector(np.array([[0.5, 0], [0, 0]]))  # not idempotent
    p = Projector(np.diag([1.0, 1, 0]))
    assert p.rank == 2
    assert p.leq(Projector(np.eye(3)))
    assert not Projector(np.eye(3)).leq(p)


def test_leq_each_decides_per_matrix_of_a_stack():
    p = Projector(np.diag([1.0, 0, 0]))
    stack = np.stack([np.eye(3), np.diag([0.0, 1, 1]), np.diag([1.0, 1, 0])]).astype(complex)
    assert leq_each(p, stack).tolist() == [True, False, True]
    assert [p.leq(Projector(q)) for q in stack] == [True, False, True]
    # the containment width is tol.certain: a defect of 1 passes a width of 2
    assert leq_each(p, stack, DEFAULT.overridden(certain=2.0)).tolist() == [True] * 3
    with pytest.raises(LinalgError, match="dimension"):
        leq_each(p, np.eye(3, dtype=complex))
    with pytest.raises(LinalgError, match="dimension"):
        p.leq(Projector(np.eye(2)))


def test_containment_table_decides_every_pair():
    # rows Q and columns P of a table give leq's pairwise decision
    rng = np.random.default_rng(19)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    stack = np.stack([u @ np.diag(np.array(bits, dtype=float)) @ u.conj().T
                      for bits in np.ndindex(2, 2, 2)])
    for tol in (DEFAULT, DEFAULT.overridden(certain=0.5)):
        table = containment_table(stack, stack[2:], tol)
        assert table.shape == (8, 6)
        assert table.tolist() == [[Projector(p).leq(Projector(q), tol) for p in stack[2:]]
                                  for q in stack]
    with pytest.raises(LinalgError, match="dimension"):
        containment_table(stack, np.eye(2, dtype=complex)[np.newaxis])


def test_screened_table_decides_as_containment_table():
    # a stack with repeated rows, in scrambled order, zero and identity rows
    # among them, at widths from none to every pair
    rng = np.random.default_rng(29)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    stack = np.stack([u @ np.diag(np.array(bits, dtype=float)) @ u.conj().T
                      for bits in np.ndindex(2, 2, 2, 2)])
    rows = stack[rng.integers(0, len(stack), 40)]
    for certain in (10.0, 0.5, 1e-8, 1e-15, 0.0):
        tol = DEFAULT.overridden(certain=certain)
        want = containment_table(rows, stack, tol)
        assert screened_containment_table(rows, stack, tol).tolist() == want.tolist()
        assert screened_containment_table(rows[:0], stack, tol).shape == (0, 16)
        assert screened_containment_table(rows, stack[:0], tol).shape == (40, 0)
    # a NaN entry fails every pair it meets, and only those
    broken = stack.copy()
    broken[3, 1, 2] = np.nan
    table = screened_containment_table(broken, broken)
    assert table.tolist() == containment_table(broken, broken).tolist()
    assert not table[3].any() and not table[:, 3].any() and table[5].any()
    with pytest.raises(LinalgError, match="dimension"):
        screened_containment_table(stack, np.eye(2, dtype=complex)[np.newaxis])


def test_screened_blocks_decide_each_block_as_its_own_table():
    # rows repeated within and across blocks, a block without rows and one
    # without columns: each block's table is `containment_table` on that
    # block's rows and columns alone
    rng = np.random.default_rng(31)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    stack = np.stack([u @ np.diag(np.array(bits, dtype=float)) @ u.conj().T
                      for bits in np.ndindex(2, 2, 2, 2)])
    rows, cols = stack[rng.integers(0, 16, 30)], stack[rng.integers(0, 16, 20)]
    blocks = [(12, 8), (0, 5), (10, 0), (8, 7)]
    for certain in (10.0, 0.5, 1e-8, 0.0):
        tol = DEFAULT.overridden(certain=certain)
        tables = screened_containment_blocks(rows, cols, blocks, tol)
        r = c = 0
        for (n, m), table in zip(blocks, tables, strict=True):
            assert table.shape == (n, m)
            assert table.tolist() == containment_table(rows[r:r + n], cols[c:c + m], tol).tolist()
            r, c = r + n, c + m
    assert screened_containment_blocks(rows[:0], cols[:0], []) == []
    with pytest.raises(LinalgError, match="blocks do not cover"):
        screened_containment_blocks(rows, cols, [(29, 20)])


def test_screened_table_keeps_a_pair_only_the_factor_d_protects():
    # max|Q P - P| = 5e-10 < 1e-9, so P <= Q; but |tr(Q P - P)| = 1.5e-9
    # reaches the width, so a proof without the factor d would refute it
    delta = 5e-10
    p = np.diag([1.0, 1, 1, 0]).astype(complex)[np.newaxis]
    q = np.diag([1 - delta, 1 - delta, 1 - delta, 0]).astype(complex)[np.newaxis]
    tol = DEFAULT.overridden(certain=1e-9)
    assert abs(np.trace(q[0] @ p[0] - p[0]).real) >= tol.certain
    assert containment_table(q, p, tol).tolist() == [[True]]
    assert screened_containment_table(q, p, tol).tolist() == [[True]]


def test_screened_table_needs_its_rounding_slack():
    # Q = (1 - delta) I against P = I, at a width one ulp above the float
    # max|Q - I|: every pair is contained, while the float overlap, rounded
    # down, puts |Re tr(Q - I)| above d times the width in about two draws
    # of five, so only the slack keeps them
    for dim in (3, 5, 6, 7):
        for k in range(64):
            delta = 1e-9 * (1 + k / 64)
            q = np.diag(np.full(dim, 1 - delta)).astype(complex)[np.newaxis]
            p = np.eye(dim, dtype=complex)[np.newaxis]
            tol = DEFAULT.overridden(certain=float(np.nextafter(np.abs(q[0] - p[0]).max(), np.inf)))
            assert containment_table(q, p, tol).tolist() == [[True]]
            assert screened_containment_table(q, p, tol).tolist() == [[True]]


def test_projector_ranks_validate_a_stack_as_projector_does():
    # valid members give Projector's ranks; otherwise the first failing
    # member in stack order raises Projector's error for it
    stack = np.stack([np.diag(d).astype(complex) for d in ([0, 0], [1, 0], [1, 1])])
    assert projector_ranks(stack) == [Projector(m).rank for m in stack] == [0, 1, 2]
    skew = np.array([[1, 1e-6], [0, 0]], dtype=complex)    # idempotent, not Hermitian
    half = np.diag([0.5, 0]).astype(complex)               # Hermitian, not idempotent
    frac = np.diag([1 + 1e-6, 0]).astype(complex)          # trace off an integer
    loose_idem = DEFAULT.overridden(proj_idem=1e-4)
    for bad, tol in ((skew, DEFAULT), (half, DEFAULT), (frac, loose_idem)):
        with pytest.raises(LinalgError) as want:
            Projector(bad, tol=tol)
        for others in ([], [half], [skew, frac]):
            with pytest.raises(LinalgError) as got:
                projector_ranks(np.stack([stack[1], bad, *others]), tol)
            assert str(got.value) == str(want.value)


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1))


def _with_entry(value, at):
    m = np.diag([1.0, 0.0]).astype(complex)
    m[at] = value
    return m


@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_matrices_fail_every_validation(value, at):
    # a NaN defect compares False with every tolerance; each path refuses
    # the entry before it takes one, with the same message and no warning
    m = _with_entry(value, at)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (HermitianOperator, Projector, DensityMatrix):
            with pytest.raises(LinalgError, match="non-finite") as scalar:
                make(m)
        for before, after in (([], []), ([np.eye(2)], []), ([np.diag([1.0, 0])], [np.diag([0.5, 0])])):
            with pytest.raises(LinalgError) as batch:
                projector_ranks(np.stack([*before, m, *after]).astype(complex))
            assert str(batch.value) == str(scalar.value)
        ranks, errors = projector_checks(np.stack([np.eye(2), m, np.diag([0.5, 0])]).astype(complex))
        assert ranks == [2, 0, 0] and set(errors) == {1, 2}
        assert str(errors[1]) == str(scalar.value) and "idempotent" in str(errors[2])
        with pytest.raises(LinalgError, match="non-finite"):
            StateVector([value, 0])


def test_eigen_path_never_sees_a_non_finite_operator():
    # the operator is refused where it is made, so no eigenvalue is NaN
    for value in NON_FINITE:
        with pytest.raises(LinalgError, match="non-finite"):
            eig_hermitian(HermitianOperator(_with_entry(value, (0, 0))))


def test_certain_each_decides_per_matrix_of_a_stack():
    rho = DensityMatrix(np.diag([0.25, 0.75, 0]))
    stack = np.stack([np.eye(3), np.diag([1.0, 0, 1]), np.diag([1.0, 1, 0])]).astype(complex)
    assert certain_each(rho, stack).tolist() == [True, False, True]
    assert [certain(rho, Projector(q)) for q in stack] == [True, False, True]
    # the containment width is tol.certain: a defect of 1 passes a width of 2
    assert certain_each(rho, stack, DEFAULT.overridden(certain=2.0)).tolist() == [True] * 3
    with pytest.raises(LinalgError, match="dimension"):
        certain_each(rho, np.eye(3, dtype=complex))
    with pytest.raises(LinalgError, match="dimension"):
        certain(rho, Projector(np.eye(2)))


def test_support_reproduction_check_reads_tol_certain():
    # an eigenvalue of 5e-9 falls below support_trace = 1e-8, so the support
    # misses it by 5e-9: inside the default tol.certain of 1e-8, outside 1e-9
    rho = np.diag([1 - 5e-9, 5e-9])
    coarse = DEFAULT.overridden(support_trace=1e-8)
    assert DensityMatrix(rho, tol=coarse).support_projector.rank == 1
    with pytest.raises(LinalgError, match="does not reproduce"):
        DensityMatrix(rho, tol=coarse.overridden(certain=1e-9))


def test_pure_state_density_takes_the_callers_tolerances():
    v = StateVector([0.6, 0.8, 0])
    assert v.density().support_projector.rank == 1
    # the two zero eigenvalues sit below a PSD floor raised to 1e-3
    with pytest.raises(LinalgError, match="negative eigenvalue"):
        v.density(DEFAULT.overridden(psd_floor=1e-3))
