"""The exact kernel against an exact boundary.

`build_poset` is the float boundary: it decides every inclusion and meet of
the contexts at tolerances and hands the kernel (`index.PosetIndex`) ints
alone: atom counts, the order and the partition maps.  Here contexts
spanned by integer rays are closed and ordered a second time in exact
rational arithmetic, sharing no code with the package, and those ints are
fed to the same kernel: every count, pair, map, table and verdict must come
out as the float poset's.
"""

import itertools
import json
import math
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from toposval.contexts import build_poset
from toposval.index import PosetIndex
from toposval.ks import _levels, _search
from toposval.presheaves import check_nat_iso
from toposval.serialization import contexts_from_json

from test_closure import _peres_bases

# how close a float atom lies to the exact atom it stands for
MATCH = 1e-9


def ray_projector(ray):
    """v v^T / (v . v) for an integer ray v, row-major, in Fractions."""
    norm = sum(x * x for x in ray)
    return tuple(Fraction(a * b, norm) for a in ray for b in ray)


class ExactPoset:
    """The contexts of a contexts document whose bases are integer rays,
    with the trivial context, closed under meets and ordered exactly.

    Every atom is a rational projector: its `ray_projector` sums, in
    Fractions, put over `scale`, the least common denominator of every
    input atom's entries.  So an atom is kept as the tuple of its entries
    times `scale`, all ints, and two atoms are the same projector exactly
    when their tuples are equal: `atoms` interns them, and a context is
    the tuple of its atoms' ids in document order, an algebra being the
    set of them.

    Two atoms a, b are orthogonal exactly when tr(a b) = 0, as both are
    positive semidefinite.  The meet of two contexts has one atom per
    connected component of the graph joining each atom of one to the atoms
    of the other it is not orthogonal to: the sum of the component's atoms
    of either side, which are equal, asserted exactly."""

    def __init__(self, doc):
        dim = doc["dim"]
        given = []
        for obj in doc["contexts"]:
            rays = [ray_projector(v) for v in obj["basis"]]
            given.append([tuple(map(sum, zip(*(rays[i] for i in block)))) for block in obj["partition"]])
        self.scale = math.lcm(*(x.denominator for atoms in given for atom in atoms for x in atom))
        self.dim = dim
        self.atoms: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._links: dict[tuple[int, int], bool] = {}
        self.contexts: list[tuple[int, ...]] = []
        self.by_key: dict[frozenset[int], int] = {}
        identity = tuple(self.scale * (i == j) for i in range(dim) for j in range(dim))
        for atoms in given:
            ids = [self._checked_atom(atom) for atom in atoms]
            assert self._sum(ids) == identity
            assert not any(self.linked(a, b) for a, b in itertools.combinations(ids, 2))
            self._add(ids)
        self._add([self._intern(identity)])
        k = 1
        while k < len(self.contexts):   # each context is met with every one before it
            for j in range(k):
                atoms = self.meet(j, k)
                if len(atoms) > 1:
                    self._add(atoms)
            k += 1

    def _checked_atom(self, atom) -> int:
        """The id of an input atom, checked to be a projector."""
        scaled = tuple(x.numerator * (self.scale // x.denominator) for x in atom)
        m = np.array(scaled, dtype=object).reshape(self.dim, self.dim)
        assert (m == m.T).all() and (m.dot(m) == self.scale * m).all()
        return self._intern(scaled)

    def _intern(self, scaled: tuple[int, ...]) -> int:
        if scaled not in self._ids:
            self._ids[scaled] = len(self.atoms)
            self.atoms.append(scaled)
        return self._ids[scaled]

    def _add(self, atoms: list[int]) -> None:
        key = frozenset(atoms)
        if key not in self.by_key:
            self.by_key[key] = len(self.contexts)
            self.contexts.append(tuple(atoms))

    def _sum(self, ids) -> tuple[int, ...]:
        return tuple(map(sum, zip(*(self.atoms[i] for i in ids))))

    def linked(self, a: int, b: int) -> bool:
        """Whether atoms a and b are not orthogonal: tr(a b) != 0."""
        key = (min(a, b), max(a, b))
        if key not in self._links:
            self._links[key] = sum(x * y for x, y in zip(self.atoms[a], self.atoms[b])) != 0
        return self._links[key]

    def meet(self, x: int, y: int) -> list[int]:
        """The atoms of the meet of contexts x and y, one per component."""
        a, b = self.contexts[x], self.contexts[y]
        left, out = list(range(len(a))), []
        while left:
            side_a, side_b, todo = {left[0]}, set(), [left[0]]
            while todo:
                i = todo.pop()
                for j in range(len(b)):
                    if j not in side_b and self.linked(a[i], b[j]):
                        side_b.add(j)
                        for k in range(len(a)):
                            if k not in side_a and self.linked(a[k], b[j]):
                                side_a.add(k)
                                todo.append(k)
            left = [i for i in left if i not in side_a]
            total = self._sum(a[i] for i in side_a)
            assert total == self._sum(b[j] for j in side_b)
            out.append(self._intern(total))
        return out

    def partition_map(self, x: int, y: int) -> tuple[int, ...] | None:
        """Each atom of x as the mask of the atoms of y it is not
        orthogonal to, when x <= y: each atom of x is exactly the sum of
        those; None otherwise."""
        out = []
        for a in self.contexts[x]:
            mask = [j for j, b in enumerate(self.contexts[y]) if self.linked(a, b)]
            if self._sum(self.contexts[y][j] for j in mask) != self.atoms[a]:
                return None
            out.append(sum(1 << j for j in mask))
        return tuple(out)


def matched(poset, exact):
    """Per float context id, (its exact context, the position in that
    context of the exact atom each float atom stands for, in float atom
    order).  Each float atom must lie within `MATCH` of exactly one exact
    atom, and the contexts must match one to one."""
    d = exact.dim
    floats = np.array(exact.atoms, dtype=float).reshape(-1, d, d) / exact.scale
    out = {}
    for cid in poset.ids:
        ids = []
        for atom in poset.context(cid).atoms:
            near = np.flatnonzero(np.abs(floats - atom.entries).max(axis=(1, 2)) < MATCH)
            assert len(near) == 1, cid
            ids.append(int(near[0]))
        x = exact.by_key[frozenset(ids)]
        out[cid] = (x, [exact.contexts[x].index(i) for i in ids])
    assert sorted(x for x, _ in out.values()) == list(range(len(exact.contexts)))
    return out


def exact_data(exact, match):
    """The atom counts, order and partition maps of the exact poset, its
    contexts named and its atoms numbered as their float matches."""
    n_atoms = {cid: len(exact.contexts[x]) for cid, (x, _) in match.items()}
    order, maps = set(), {}
    for (sub, (x, atoms_x)), (sup, (y, atoms_y)) in itertools.product(match.items(), repeat=2):
        blocks = exact.partition_map(x, y)
        if blocks is not None:
            position = {j: i for i, j in enumerate(atoms_y)}
            order.add((sub, sup))
            maps[(sub, sup)] = tuple(sum(1 << position[j] for j in position if blocks[i] >> j & 1) for i in atoms_x)
    return n_atoms, order, maps


def _verdict(index):
    maximal = [i for i in range(len(index.ids)) if not index.up[i] & ~(1 << i)]
    return _search(index, _levels(index, maximal))


def _doc(bases, partitions=None, prefix="B"):
    dim = len(bases[0][0])
    partitions = partitions or [[[i] for i in range(dim)]] * len(bases)
    return {"dim": dim, "contexts": [
        {"id": f"{prefix}{k:02d}", "dim": dim, "basis": [list(v) for v in basis], "partition": blocks}
        for k, (basis, blocks) in enumerate(zip(bases, partitions))]}


def _signed_permutation(rng, bases):
    """The bases under one seeded signed permutation of the coordinates,
    each basis's rays shuffled too."""
    dim = len(bases[0][0])
    perm, signs = rng.permutation(dim), rng.choice((-1, 1), size=dim)
    out = []
    for basis in bases:
        rays = [tuple(int(s * v[p]) for s, p in zip(signs, perm)) for v in basis]
        out.append([rays[i] for i in rng.permutation(dim)])
    return out


# small integer-orthogonal bases of one block of coordinates
BLOCKS = {
    1: [((1,),)],
    2: [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 2), (2, -1)), ((1, 3), (3, -1))],
    3: [((1, 1, 0), (1, -1, 0), (0, 0, 1)), ((1, 2, 2), (2, 1, -2), (2, -2, 1)),
        ((1, 1, 1), (1, -1, 0), (1, 1, -2)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
}


def _small_bases(rng, dim, count):
    """`count` integer-orthogonal bases of dimension `dim`, each a direct sum
    of `BLOCKS` bases over a random split of the coordinates, all under one
    random signed permutation; half of them have one atom of rank two."""
    bases, partitions = [], []
    for _ in range(count):
        basis, start = [], 0
        while start < dim:
            size = int(rng.integers(1, min(3, dim - start) + 1))
            block = BLOCKS[size][int(rng.integers(len(BLOCKS[size])))]
            basis += [(0,) * start + v + (0,) * (dim - start - size) for v in block]
            start += size
        bases.append(basis)
        blocks = [[i] for i in range(dim)]
        if rng.random() < 0.5:   # two rays span one atom
            blocks[:2] = [[0, 1]]
        partitions.append(blocks)
    return _signed_permutation(rng, bases), partitions


def _families():
    """(name, contexts document, exact closed count or None, section
    verdict or None) for each family."""
    ks18 = json.loads(resources.files("toposval").joinpath("data/ks18_dim4.json").read_text())
    yield "ks18", ks18, 28, False
    peres = [list(b) for b in _peres_bases()]
    yield "peres24", _doc(peres, prefix="P"), 94, False
    rng = np.random.default_rng(35)
    for size in (5, 9, 13):
        chosen = [peres[int(i)] for i in rng.choice(len(peres), size=size, replace=False)]
        yield f"peres{size}-signed", _doc(_signed_permutation(rng, chosen), prefix="P"), None, None
    for dim in (3, 4, 5):
        for draw in range(3):
            bases, partitions = _small_bases(rng, dim, int(rng.integers(4, 8)))
            yield f"dim{dim}-{draw}", _doc(bases, partitions), None, None


FAMILIES = list(_families())


@pytest.mark.parametrize("name,doc,closed,exists", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_the_kernel_decides_the_same_from_exact_ints(name, doc, closed, exists):
    poset = build_poset(contexts_from_json(doc)[0], add_trivial=True, close_under_meets=True)
    exact = ExactPoset(doc)
    if closed is not None:
        assert len(exact.contexts) == closed
    match = matched(poset, exact)
    n_atoms, order, maps = exact_data(exact, match)
    assert n_atoms == {cid: c.n_atoms for cid, c in poset.contexts.items()}
    assert order == set(poset.order)
    assert maps == poset.partition_maps

    # the kernel from the exact ints alone
    index, ref = PosetIndex(n_atoms, order, maps), poset.index
    assert (index.ids, index.down, index.up, index.pair_indices) == (ref.ids, ref.down, ref.up, ref.pair_indices)
    for table in ("table_start", "owner_start", "missing", "covered", "coarse", "owner", "image"):
        assert np.array_equal(getattr(index.tables, table), getattr(ref.tables, table)), table
    for route in ("below", "below_image"):
        got, want = index.gather(route), ref.gather(route)
        for column in ("cell", "stage", "image", "target", "start", "pair", "slot"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (route, column)
    verdict = _verdict(index)
    assert verdict == _verdict(ref)
    if exists is not None:
        assert verdict["exists"] is exists
    assert check_nat_iso(SimpleNamespace(index=index)) == check_nat_iso(poset)
