import numpy as np
import pytest

from toposval.linalg import DensityMatrix, Projector, containment_table
from toposval.ocat import EigenvalueMap
from toposval.sampling import diag_plus_trivial, fix_a
from toposval.tolerances import DEFAULT

criterion_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixa():
    return fix_a()


@pytest.fixture(scope="session")
def dim2_poset():
    return diag_plus_trivial(2)


@pytest.fixture
def rho_e0():
    return DensityMatrix(np.diag([1.0, 0, 0]))


@pytest.fixture
def rho_plus():
    v = np.array([1, 1]) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def diag_proj(*bits):
    return Projector(np.diag([float(b) for b in bits]).astype(complex))


# --------------------------------------------------------------------------
# test-only conveniences over the package's API

def is_true(alpha, cid, mask):
    """Whether a valuation sends (cid, mask) to the principal sieve."""
    return alpha.members(cid, mask) == frozenset(alpha.poset.down_set(cid))


def is_downward_closed(poset, apex, members):
    return all(poset.leq(m, apex) for m in members) and all(
        below in members for m in members for below in poset.down_set(m)
    )


def up_set(poset, cid):
    """Ids of all contexts >= cid (cid included), sorted."""
    index = poset.index
    return list(index.names(index.up_of.get(cid, 0)))


def leq_each(p, stack, tol=DEFAULT):
    """Subspace containment p <= Q for each projector matrix Q of a stack:
    one column of `containment_table`."""
    return containment_table(stack, p.entries[np.newaxis], tol)[:, 0]


def projector_for(a, subset):
    """The spectral projector of a subset of an operator's spectrum."""
    return a.projector(a.mask_of(subset))


def identity_map(a):
    return EigenvalueMap.from_dict({lam: lam for lam in a.spectrum})
