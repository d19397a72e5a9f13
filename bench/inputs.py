"""Seeded input generator for the benchmark.

Uses numpy and the standard library only, never ``toposval`` itself, so a
change to the program (``toposval.sampling`` included) cannot change what
the benchmark feeds it.  Every document matches the JSON schemas the
``toposval`` CLI reads.

Rays are kept as exact integer vectors; the float documents handed to the
program are those rays normalised, in a shuffled order inside each basis,
and optionally turned by one global unitary.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

Ray = tuple[int, ...]
Basis = tuple[Ray, ...]

# The 18-ray, 9-basis Kochen-Specker set in dimension 4 of Cabello,
# Estebaranz and Garcia-Alcaine, Phys. Lett. A 212 (1996) 183.
KS18_BASES: tuple[tuple[Ray, ...], ...] = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)

# Orthogonal pairs of rational rays in dimension 2: no two share a ray, so
# every meet is trivial and a global section always exists.
DIM2_BASES: tuple[Basis, ...] = (
    ((1, 0), (0, 1)),
    ((1, 1), (1, -1)),
    ((1, 2), (2, -1)),
    ((2, 1), (1, -2)),
    ((1, 3), (3, -1)),
    ((3, 1), (1, -3)),
)


def canonical_ray(v) -> Ray:
    """The representative of a ray whose first non-zero entry is positive."""
    v = tuple(int(x) for x in v)
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise ValueError("the zero vector is not a ray")


def _dot(a: Ray, b: Ray) -> int:
    return sum(x * y for x, y in zip(a, b))


def validate_bases(bases, n_rays: int, n_bases: int, bases_per_ray: int) -> None:
    """Reject a ray set unless it has the stated counts, every basis is
    orthogonal and complete, and every ray lies in the stated number of bases."""
    if len(bases) != n_bases:
        raise ValueError(f"expected {n_bases} bases, got {len(bases)}")
    counts: Counter = Counter()
    for basis in bases:
        dim = len(basis[0])
        if len(basis) != dim or any(len(v) != dim for v in basis):
            raise ValueError(f"basis {basis} is not a complete basis")
        for a, b in itertools.combinations(basis, 2):
            if _dot(a, b) != 0:
                raise ValueError(f"rays {a} and {b} of one basis are not orthogonal")
        rays = {canonical_ray(v) for v in basis}
        if len(rays) != dim:
            raise ValueError(f"basis {basis} repeats a ray")
        counts.update(rays)
    if len(counts) != n_rays:
        raise ValueError(f"expected {n_rays} rays, got {len(counts)}")
    bad = sorted(r for r, n in counts.items() if n != bases_per_ray)
    if bad:
        raise ValueError(f"rays {bad} do not lie in exactly {bases_per_ray} bases")


def peres24_bases() -> tuple[Basis, ...]:
    """Peres' 24 rays in dimension 4 (J. Phys. A 24 (1991) L175), built from
    the ray rule: permutations of (1,0,0,0), (1,+-1,0,0) and (1,+-1,+-1,+-1),
    up to sign.  The bases are all orthogonal quadruples of those rays."""
    rays = set()
    for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for signs in itertools.product((1, -1), repeat=4):
            for perm in itertools.permutations(s * x for s, x in zip(signs, pattern)):
                rays.add(canonical_ray(perm))
    rays = sorted(rays)
    bases = tuple(
        quad for quad in itertools.combinations(rays, 4)
        if all(_dot(a, b) == 0 for a, b in itertools.combinations(quad, 2))
    )
    validate_bases(bases, n_rays=24, n_bases=24, bases_per_ray=4)
    return bases


def signed_permutation(rng: np.random.Generator, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A random coordinate permutation with random sign flips: a symmetry
    of any ray set closed under both, Peres' 24 rays among them."""
    perm = tuple(int(i) for i in rng.permutation(dim))
    signs = tuple(int(x) for x in rng.choice((-1, 1), size=dim))
    return perm, signs


def apply_signed_permutation(bases, perm, signs) -> tuple[Basis, ...]:
    """The image of every ray under x -> (signs[i] * x[perm[i]])_i, bases
    and rays kept in their order."""
    return tuple(
        tuple(canonical_ray([signs[i] * v[perm[i]] for i in range(len(v))]) for v in basis)
        for basis in bases
    )


def ks18_bases() -> tuple[Basis, ...]:
    bases = tuple(tuple(canonical_ray(v) for v in b) for b in KS18_BASES)
    validate_bases(bases, n_rays=18, n_bases=9, bases_per_ray=2)
    return bases


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def encode_matrix(m: np.ndarray) -> list:
    return [encode_vector(row) for row in m]


def contexts_doc(bases, ids, rng: np.random.Generator | None) -> dict:
    """A contexts document of one-ray-per-atom bases.  With an rng, the
    vectors of each basis are shuffled and the whole set is turned by one
    random unitary; without, the normalised integer rays are written as is."""
    dim = len(bases[0][0])
    u = random_unitary(rng, dim) if rng is not None else np.eye(dim)
    contexts = []
    for cid, basis in zip(ids, bases):
        order = rng.permutation(len(basis)) if rng is not None else range(len(basis))
        vectors = []
        for i in order:
            v = np.array(basis[int(i)], dtype=float)
            vectors.append(encode_vector(u @ (v / np.linalg.norm(v))))
        contexts.append({
            "id": cid,
            "dim": dim,
            "basis": vectors,
            "partition": [[i] for i in range(len(basis))],
        })
    return {"dim": dim, "contexts": contexts}


def pure_state_doc(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=complex)
    return {"type": "pure", "data": encode_vector(v / np.linalg.norm(v))}


def random_pure_state_doc(rng: np.random.Generator, dim: int) -> dict:
    return pure_state_doc(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_density_doc(rng: np.random.Generator, dim: int, rank: int) -> dict:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return {"type": "density", "data": encode_matrix((m + m.conj().T) / 2)}


def operator_set_doc(rng: np.random.Generator, dim: int, loose: bool) -> dict:
    """A degenerate Hermitian A with dim - 1 distinct integer eigenvalues
    (one eigenvalue of A is repeated), two integer-valued functions of A, the
    identity and, when `loose`, an unrelated random Hermitian.  F0 takes two
    values and F1 one fewer than A, so every operator set of a dimension has
    the same number of eigenvalue subsets to check."""
    u = random_unitary(rng, dim)
    n_values = max(1, dim - 1)
    values = rng.choice(np.arange(-3, 4), size=n_values, replace=False)
    spectrum = np.concatenate([values, rng.choice(values, size=dim - n_values)])
    rng.shuffle(spectrum)

    def conj(diag) -> np.ndarray:
        m = u @ np.diag(np.asarray(diag, dtype=complex)) @ u.conj().T
        return (m + m.conj().T) / 2

    operators = [{"id": "A", "matrix": encode_matrix(conj(spectrum))}]
    for i, n_image in enumerate((min(2, n_values), max(1, n_values - 1))):
        image = rng.choice(np.arange(-2, 3), size=n_image, replace=False)
        labels = np.concatenate([np.arange(n_image), rng.integers(0, n_image, size=n_values - n_image)])
        rng.shuffle(labels)
        f = {int(v): int(image[k]) for v, k in zip(values, labels)}
        operators.append({"id": f"F{i}", "matrix": encode_matrix(conj([f[int(x)] for x in spectrum]))})
    operators.append({"id": "one", "matrix": encode_matrix(np.eye(dim, dtype=complex))})
    if loose:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        operators.append({"id": "loose", "matrix": encode_matrix((g + g.conj().T) / 2)})
    return {"dim": dim, "operators": operators}
