"""Exact Kochen-Specker oracle for the ks-ladder workload.

Works on the integer rays the generator starts from, in rational
arithmetic, and shares no code with the program:

* ``closed_count`` closes the bases (plus the trivial context) under
  algebra intersection, exactly, and counts the contexts.  The program's
  ``build_poset(add_trivial, close_under_meets)`` must reach the same count
  on the rotated float input.
* ``section_exists`` colours the bases: one ray per basis, such that for
  every pair of bases the two chosen rays lie in the same atom of the
  pair's common subalgebra.  Common subspaces count, not only shared rays:
  two bases that share a plane but no ray still constrain each other.  A
  global section of the closed poset exists exactly when such a colouring
  does, because every closed context lies below the meet of any two bases
  above it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

Key = tuple[Fraction, ...]   # a projector, as its flattened rational matrix


def ray_projector(v) -> Key:
    n = sum(x * x for x in v)
    return tuple(Fraction(a * b, n) for a in v for b in v)


def _add(p: Key, q: Key) -> Key:
    return tuple(a + b for a, b in zip(p, q))


class ExactContext:
    """A context as its atoms, with every lattice element keyed by mask."""

    def __init__(self, atoms):
        self.atoms = tuple(sorted(atoms))
        size = len(self.atoms[0])
        zero = (Fraction(0),) * size
        self.elements: dict[int, Key] = {0: zero}
        for mask in range(1, 1 << len(self.atoms)):
            low = mask & -mask
            self.elements[mask] = _add(self.elements[mask ^ low],
                                       self.atoms[low.bit_length() - 1])
        self.mask_of = {key: mask for mask, key in self.elements.items()}
        self.identity = frozenset(self.atoms)

    def meet_masks(self, other: "ExactContext") -> list[int]:
        """Masks (over this context's atoms) of the meet's atoms."""
        common = [m for m, key in self.elements.items() if m and key in other.mask_of]
        return [m for m in common if not any(o != m and o & m == o for o in common)]

    def meet(self, other: "ExactContext") -> "ExactContext | None":
        masks = self.meet_masks(other)
        if len(masks) <= 1:
            return None
        return ExactContext(self.elements[m] for m in masks)


def basis_context(basis) -> ExactContext:
    return ExactContext(ray_projector(v) for v in basis)


def closed_count(bases) -> int:
    """Number of contexts in the meet closure of the bases plus the trivial
    context (duplicates merged, trivial meets skipped)."""
    contexts = [basis_context(b) for b in bases]
    dim = len(bases[0][0])
    identity = tuple(Fraction(int(i == j)) for i in range(dim) for j in range(dim))
    contexts.append(ExactContext([identity]))
    seen = {c.identity for c in contexts}
    pending = list(range(len(contexts)))
    while pending:
        i = pending.pop()
        for j in range(len(contexts)):
            if j == i:
                continue
            m = contexts[i].meet(contexts[j])
            if m is not None and m.identity not in seen:
                seen.add(m.identity)
                contexts.append(m)
                pending.append(len(contexts) - 1)
    return len(contexts)


def section_exists(bases) -> bool:
    """Exact colouring search over the pairwise common subalgebras."""
    ctxs = [basis_context(b) for b in bases]
    n = len(ctxs)
    # block[i][j][a]: which atom of meet(i, j) contains atom a of basis i
    block: list[dict[int, tuple[int, ...]]] = [dict() for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        masks_i = ctxs[i].meet_masks(ctxs[j])
        if len(masks_i) <= 1:
            continue
        masks_j = [ctxs[j].mask_of[ctxs[i].elements[m]] for m in masks_i]
        for (x, masks) in ((i, masks_i), (j, masks_j)):
            y = j if x == i else i
            block[x][y] = tuple(
                next(k for k, m in enumerate(masks) if m >> a & 1)
                for a in range(len(ctxs[x].atoms))
            )
    order = sorted(range(n), key=lambda i: -len(block[i]))
    choice: dict[int, int] = {}

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        i = order[depth]
        for a in range(len(ctxs[i].atoms)):
            if all(block[i][j][a] == block[j][i][choice[j]]
                   for j in block[i] if j in choice):
                choice[i] = a
                if extend(depth + 1):
                    return True
                del choice[i]
        return False

    return extend(0)
