"""Kochen-Specker sets in dimensions 3 and 8, built from their rules.

Peres' 33 rays in dimension 3 (completed to 40 bases) and the 40 rays of
Kernaghan and Peres in dimension 8 (the joint eigenbases of Mermin's star)
reach the poset as contexts documents, one context per basis with one atom
per ray, and are closed under meets before the search.  The counts are the
sets' own: rays, bases, closed contexts and order pairs; the search must
find no global section.
"""

import itertools

import numpy as np

from toposval.contexts import build_poset
from toposval.ks import global_section_search
from toposval.sampling import random_unitary
from toposval.serialization import contexts_from_json


def _ray(v):
    """A ray as a hashable key: the vector scaled so its first nonzero
    entry is 1, rounded."""
    v = np.asarray(v, dtype=float)
    return tuple(np.round(v / v[np.flatnonzero(v)[0]], 12).tolist())


def _orthogonal(a, b):
    return abs(np.dot(a, b)) < 1e-9


def peres33_bases():
    """Peres' 33 rays: every permutation of (0, 0, 1), (0, 1, ±1),
    (0, 1, ±√2) and (1, ±1, ±√2).  Their 16 orthogonal triads are bases,
    and each of the 24 orthogonal pairs in no triad is completed by its
    cross product to one more basis."""
    r2 = np.sqrt(2)
    patterns = [(0, 0, 1), (0, 1, 1), (0, 1, -1), (0, 1, r2), (0, 1, -r2),
                *((1, s, t * r2) for s in (1, -1) for t in (1, -1))]
    rays = sorted({_ray(p) for pattern in patterns for p in itertools.permutations(pattern)})
    triads = [t for t in itertools.combinations(rays, 3)
              if all(_orthogonal(a, b) for a, b in itertools.combinations(t, 2))]
    in_triad = {frozenset(p) for t in triads for p in itertools.combinations(t, 2)}
    pairs = [(a, b) for a, b in itertools.combinations(rays, 2)
             if _orthogonal(a, b) and frozenset((a, b)) not in in_triad]
    assert (len(rays), len(triads), len(pairs)) == (33, 16, 24)
    return [list(t) for t in triads] + [[a, b, _ray(np.cross(a, b))] for a, b in pairs]


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]])}

# the five lines of Mermin's star; three operators of a line fix its
# fourth, so they alone pick its joint eigenbasis
MERMIN_STAR = [("XII", "IXI", "IIX"), ("YII", "IYI", "IIX"), ("YII", "IXI", "IIY"),
               ("XII", "IYI", "IIY"), ("XXX", "YYX", "YXY")]


def _pauli(word):
    out = np.eye(1)
    for letter in word:
        out = np.kron(out, PAULI[letter])
    return out


def kernaghan_peres_bases():
    """The 40 rays of the joint eigenbases of the lines of Mermin's star
    (each line's weighted sum with weights 1, 2, 4 has eight distinct
    eigenvalues), and the 8-cliques of their orthogonality graph as
    bases."""
    rays = []
    for line in MERMIN_STAR:
        _, vectors = np.linalg.eigh(sum(w * _pauli(word) for w, word in zip((1, 2, 4), line)))
        rays.extend(vectors.T)
    orthogonal = np.abs(np.conj(rays) @ np.transpose(rays)) < 1e-9
    cliques = []

    def grow(clique, candidates):
        if len(clique) == 8:
            cliques.append(clique)
        for k in candidates:
            grow(clique + [k], [j for j in candidates if j > k and orthogonal[k, j]])

    grow([], list(range(len(rays))))
    assert len(rays) == 40 and len(cliques) == 25
    assert np.bincount(np.concatenate(cliques)).tolist() == [5] * 40
    return [[rays[k] for k in clique] for clique in cliques]


def contexts_doc(bases, rng=None):
    """The contexts document of the bases, basis k as context "B<k>" with
    one atom per ray.  With an rng: one global unitary, a phase per vector,
    a shuffled vector order in each basis and a shuffled document order,
    each basis keeping its id."""
    dim = len(bases[0][0])
    u = random_unitary(rng, dim) if rng is not None else np.eye(dim)
    contexts = []
    for k, basis in enumerate(bases):
        order = rng.permutation(dim) if rng is not None else range(dim)
        vectors = []
        for i in order:
            v = np.asarray(basis[int(i)], dtype=complex)
            v = u @ (v / np.linalg.norm(v))
            if rng is not None:
                v = v * np.exp(2j * np.pi * rng.random())
            vectors.append([[float(z.real), float(z.imag)] for z in v])
        contexts.append({"id": f"B{k:02d}", "dim": dim, "basis": vectors,
                         "partition": [[i] for i in range(dim)]})
    if rng is not None:
        contexts = [contexts[int(i)] for i in rng.permutation(len(contexts))]
    return {"dim": dim, "contexts": contexts}


def closed_verdict(doc):
    """(closed contexts, order pairs, section exists, nodes explored)."""
    contexts, _ = contexts_from_json(doc)
    poset = build_poset(contexts, add_trivial=True, close_under_meets=True)
    verdict = global_section_search(poset)
    return len(poset.ids), len(poset.order), verdict["exists"], verdict["nodesExplored"]


def test_peres33_completes_to_57_rays_in_40_bases_with_no_section():
    bases = peres33_bases()
    assert len(bases) == 40
    assert len({_ray(v) for basis in bases for v in basis}) == 57
    # the node count is left unpinned: it follows the document's order
    n_contexts, _, exists, _ = closed_verdict(contexts_doc(bases))
    assert (n_contexts, exists) == (74, False)


def test_kernaghan_peres_has_no_section_under_rotations_phases_and_orders():
    bases = kernaghan_peres_bases()
    assert closed_verdict(contexts_doc(bases)) == (236, 1831, False, 96432)
    for seed in range(3):
        got = closed_verdict(contexts_doc(bases, np.random.default_rng([seed, 8])))
        assert got == (236, 1831, False, 96432), seed
