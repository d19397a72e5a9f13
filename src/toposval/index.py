"""The exact kernel: stage indices, member sets and lattice elements as
int bitmasks.

`PosetIndex` is built from ints alone: each stage's atom count, the
order's (sub, super) pairs and, per comparable pair, the partition map
giving each sub-stage atom as a mask over the super-stage's atoms, which
`contexts` hands over for a poset and `ocat` for a category's arrows.
From them it builds every table a verdict reads.  No float decision is
made here: this module imports only numpy and the standard library, never
`linalg`, `tolerances`, `contexts` or `ocat` (`tests/test_source.py`
checks it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ContextError(ValueError):
    """Malformed context, lattice element or poset input."""


@dataclass(frozen=True)
class LatticeElement:
    """A projector of a context's lattice, encoded as an atom-index bit mask."""

    context_id: str
    mask: int


@dataclass(frozen=True)
class Character:
    """A multiplicative functional on a context: the selection of one atom."""

    context_id: str
    atom_index: int


class PosetIndex:
    """Lookup tables of a finite order whose stages carry atoms: the
    contexts of a `ContextPoset`, or the operators of an `OperatorCategory`
    with its arrows B -> A as the pairs (B, A).

    It is given the atom count of each id, the (sub, super) pairs of the
    order and, per comparable pair, the partition map: the mask over the
    super-stage's atoms that makes up each sub-stage atom.  Stages are
    numbered in sorted id order, so ascending bits of a mask over stage
    indices list ids in sorted order.  The order becomes int-bitmask
    down-sets and up-sets in one pass over its pairs; a pair naming an id
    without an atom count only reaches the by-id maps, whose masks cover
    known ids alone.  The tables of the comparable pairs (`tables`: the
    restriction owner of each super-stage atom, and the restriction image
    and coarse-graining of each super-stage mask) are built from the
    partition maps in one array pass on first request and kept in that
    flat form alone: `coarse`, `restriction` and `image` copy one pair's
    slice of them on each call, and the route gathers (`gather`) and
    `coarse_squares` read the flat arrays.

    The immutable objects a report names are kept here, built on first
    use and shared by every caller: the id tuple of a mask over stage
    indices (`names`, and `row_names` for packed rows), and the
    `LatticeElement` and the character set of a cell (`element`,
    `characters`).

    So are the arrays a state verdict reads that depend on the order and
    the partition maps alone, never on a state or a valuation: each cell's
    down-set row and full mask (`cell_down`, `cell_full`, for truth sets
    and supports), every proper pair's lifted sub-stage masks
    (`proper_lifts`, for the subobject law), the square layout of a
    relation over the stages (`square_start`, `square_cell`) and the
    squares of the relations whose tables depend on the atom count alone
    (filled by `schema`).  Each is built on first request, read-only, so
    building a poset, a section search or an isomorphism check pays for
    none of them, and every later valuation of the poset reads the same
    arrays.  Index arrays are intp, numpy's native width, which a gather
    reads without converting.
    """

    def __init__(self, n_atoms: dict[str, int], order,
                 partition_maps: dict[tuple[str, str], tuple[int, ...]]):
        self.partition_maps = partition_maps
        self.ids: tuple[str, ...] = tuple(sorted(n_atoms))
        self.pos: dict[str, int] = {cid: i for i, cid in enumerate(self.ids)}
        self.n_atoms: tuple[int, ...] = tuple(n_atoms[c] for c in self.ids)
        down_of: dict[str, int] = {}
        up_of: dict[str, int] = {}
        for sub, sup in order:
            if sub in self.pos:
                down_of[sup] = down_of.get(sup, 0) | 1 << self.pos[sub]
            if sup in self.pos:
                up_of[sub] = up_of.get(sub, 0) | 1 << self.pos[sup]
        self.down_of = down_of
        self.up_of = up_of
        self.down: tuple[int, ...] = tuple(down_of.get(c, 0) for c in self.ids)
        self.up: tuple[int, ...] = tuple(up_of.get(c, 0) for c in self.ids)
        self.pairs: tuple[tuple[str, str], ...] = tuple(sorted(order))
        # the comparable pairs of known ids as (sub index, super index), in
        # the order of `pairs`
        self.pair_indices: tuple[tuple[int, int], ...] = tuple(
            (self.pos[a], self.pos[b]) for a, b in self.pairs if a in self.pos and b in self.pos
        )
        self._names: dict[int, tuple[str, ...]] = {}
        self._sets: dict[int, frozenset[str]] = {}
        self._row_names: dict[bytes, tuple[str, ...]] = {}
        self._elements: dict[tuple[int, int], LatticeElement] = {}
        self._characters: dict[tuple[int, int], frozenset[Character]] = {}
        self._gathers: dict[str, Gather] = {}
        # the squares of relations whose tables depend on the atom count
        # alone, by their grid (`schema._relation_squares`)
        self._squares: dict = {}

    def names(self, bits: int) -> tuple[str, ...]:
        """The ids of a mask over context indices, sorted."""
        out = self._names.get(bits)
        if out is None:
            out = self._names[bits] = tuple(self.ids[i] for i in bit_list(bits))
        return out

    def id_set(self, bits: int) -> frozenset[str]:
        """The ids of a mask over context indices, as one shared frozenset
        per mask."""
        out = self._sets.get(bits)
        if out is None:
            out = self._sets[bits] = frozenset(self.names(bits))
        return out

    def row_names(self, packed: np.ndarray) -> list[tuple[str, ...]]:
        """The ids of each row of packed masks over context indices
        (`pack_ints` rows), sorted: one shared tuple per distinct row,
        kept here alone (not in `names`' table) and looked up by the
        row's little-endian bytes."""
        rows = np.ascontiguousarray(packed, dtype="<u8")
        keys = rows.view(f"V{8 * rows.shape[1]}").ravel().tolist()
        known = self._row_names
        try:
            return list(map(known.__getitem__, keys))
        except KeyError:
            for key in set(keys).difference(known):
                known[key] = tuple(map(self.ids.__getitem__, bit_list(int.from_bytes(key, "little"))))
            return list(map(known.__getitem__, keys))

    def element(self, i: int, mask: int) -> LatticeElement:
        """The lattice element of (stage index, mask), one shared object
        per cell."""
        out = self._elements.get((i, mask))
        if out is None:
            out = self._elements[(i, mask)] = LatticeElement(self.ids[i], mask)
        return out

    def characters(self, i: int, mask: int) -> frozenset[Character]:
        """The characters of stage index i selecting the atoms of a mask,
        one shared frozenset per cell."""
        out = self._characters.get((i, mask))
        if out is None:
            cid = self.ids[i]
            out = self._characters[(i, mask)] = frozenset(Character(cid, k) for k in bit_list(mask))
        return out

    def leak(self, row: int) -> tuple[int, int] | None:
        """Where a mask over stage indices fails to be a sieve: its first
        member whose down-set it leaves, and the lowest stage of that
        down-set left out; None when the mask is downward closed."""
        for j in bit_list(row):
            missing = self.down[j] & ~row
            if missing:
                return j, (missing & -missing).bit_length() - 1
        return None

    def pair(self, sub: str, sup: str) -> tuple[int, int]:
        """The indices of two context ids, for the per-pair tables."""
        if sub not in self.pos or sup not in self.pos:
            raise ContextError(f"{sub!r} is not included in {sup!r}")
        return self.pos[sub], self.pos[sup]

    @cached_property
    def tables(self) -> "PairTables":
        """The tables of every pair of `pair_indices`."""
        return PairTables(self)

    def _row(self, name: str, sub: int, sup: int) -> tuple:
        """One pair's row of a `tables` array, as a tuple of ints, read
        off the flat array on each call."""
        t = self.tables
        k = t.rank.get((sub, sup))
        if k is None or t.missing[k]:
            raise ContextError(f"{self.ids[sub]!r} is not included in {self.ids[sup]!r}")
        if name == "image" and not t.covered[k]:
            raise ContextError("partition map does not cover the atom")
        if name == "owner":
            row = t.owner[t.owner_start[k]:t.owner_start[k + 1]].tolist()
            return tuple(None if j < 0 else j for j in row)
        return tuple(getattr(t, name)[t.table_start[k]:t.table_start[k + 1]].tolist())

    def _ranks(self, name: str, sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
        """The `tables` ranks of comparable pairs given as index arrays;
        raises what `_row` raises for the first of them, in the order
        given, whose row of `name` cannot be read."""
        t = self.tables
        k = t.ranks(sub, sup)
        bad = ~t.covered[k] if name == "image" else t.missing[k]
        if bad.any():
            p = int(bad.argmax())
            self._row(name, int(sub[p]), int(sup[p]))
        return k

    def coarse(self, sub: int, sup: int) -> tuple[int, ...]:
        """Coarse-graining table of a comparable pair: entry `mask` is the
        least sub-context mask above the super-context mask.  A sub-atom
        enters exactly when its block of super-atoms meets the mask."""
        return self._row("coarse", sub, sup)

    def restriction(self, sub: int, sup: int) -> tuple[int | None, ...]:
        """Restriction map of a comparable pair: for each super-context atom,
        the first sub-context atom whose block holds it (None if no block
        does, which only a broken partition map allows)."""
        return self._row("owner", sub, sup)

    def image(self, sub: int, sup: int) -> tuple[int, ...]:
        """Restriction table of a comparable pair: entry `mask` is the image,
        as a sub-context mask, of the characters in the super-context mask."""
        return self._row("image", sub, sup)

    # -- flat tables over cells, built on first use ------------------------
    # A cell is a (stage, mask) pair.  The cells of stage i are
    # cell_start[i] + mask, stages in index order and masks ascending: the
    # numbering of `ContextPoset.lattice`.

    @cached_property
    def cell_start(self) -> np.ndarray:
        """The first cell of each stage, then the number of cells."""
        return np.cumsum([0] + [1 << n for n in self.n_atoms])

    @cached_property
    def cell_stage(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.ids)), np.diff(self.cell_start))

    @cached_property
    def cell_mask(self) -> np.ndarray:
        return np.arange(self.cell_start[-1]) - self.cell_start[self.cell_stage]

    @cached_property
    def atom_counts(self) -> np.ndarray:
        """`n_atoms` as an intp array."""
        return _frozen(np.array(self.n_atoms, dtype=np.intp))

    @cached_property
    def cell_full(self) -> np.ndarray:
        """The full mask of each cell's stage."""
        return _frozen(((1 << self.atom_counts) - 1)[self.cell_stage])

    @cached_property
    def cell_down(self) -> np.ndarray:
        """The down-set of each cell's stage, packed: the row of a cell
        sent to the principal sieve."""
        return _frozen(np.take(self.down_words, self.cell_stage, axis=0))

    @cached_property
    def square_start(self) -> np.ndarray:
        """The first entry of each stage's square, then the number of
        entries: the squares of the stages, 2^n x 2^n entries each (left
        mask major), laid end to end.  A relation's squares
        (`schema._relation_squares`) and `coarse_squares` use this
        layout."""
        return _frozen(np.cumsum([0] + [1 << 2 * n for n in self.n_atoms]).astype(np.intp))

    @cached_property
    def square_cell(self) -> np.ndarray:
        """Per cell (stage j, mask m), the entry of (0, m) in j's square: the
        entry of (x, m) is `square_cell[c] + (x << n_j)`."""
        return _frozen(self.square_start[self.cell_stage] + self.cell_mask)

    @cached_property
    def words(self) -> int:
        """The uint64 words of a packed mask over stage indices."""
        return max(1, -(-len(self.ids) // 64))

    @cached_property
    def down_words(self) -> np.ndarray:
        """The down-set of each stage, packed."""
        return pack_ints(self.down, self.words)

    @cached_property
    def proper_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sub, super, rank) int arrays over the pairs of `pair_indices`
        with sub != super, in that order; `rank` is the position of sub
        among the stages below super, so the gather entry of (super, mask,
        sub) is `start[cell] + rank`."""
        out = np.array([(sub, sup, (self.down[sup] & ((1 << sub) - 1)).bit_count())
                        for sub, sup in self.pair_indices if sub != sup], dtype=np.intp)
        sub, sup, rank = np.array(out.reshape(-1, 3).T)
        return sub, sup, rank

    @cached_property
    def sub_null_cells(self) -> np.ndarray:
        """Per pair of `pair_indices`, the cell of the sub-stage's null
        mask."""
        return _frozen(self.cell_start[[sub for sub, _ in self.pair_indices]])

    @cached_property
    def proper_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sub-stage mask of every pair of `proper_pairs` lifted
        through the pair's partition map: the union of its atoms' blocks
        of super-stage atoms.  Returns (first, lift); pair k's mask m lifts
        to `lift[first[k] + m]`.  Raises as `_row` does for a pair without
        a partition map, and then keeps nothing, so every later request
        raises again."""
        sub, sup, _ = self.proper_pairs
        blocks = self.tables._blocks[self._ranks("coarse", sub, sup)]
        sizes = 1 << self.atom_counts[sub]
        first = np.cumsum(sizes) - sizes
        pair = np.repeat(np.arange(len(sub)), sizes)
        atoms = (np.arange(sizes.sum()) - first[pair])[:, np.newaxis] >> np.arange(blocks.shape[1]) & 1
        lift = np.bitwise_or.reduce(np.where(atoms == 1, blocks[pair], 0), axis=1)
        return _frozen(first), _frozen(lift)

    @cached_property
    def mask_covers(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) cells of every cover of every stage's lattice:
        (i, p) and (i, p | bit) for each bit outside p, by cell and then
        bit.  A property of masks that holds along every cover holds from
        each mask to every mask above it."""
        lo, hi = [], []
        for i, n in enumerate(self.n_atoms):
            masks = np.arange(1 << n)[:, np.newaxis]
            bits = 1 << np.arange(n)
            outside = (masks & bits) == 0
            first = int(self.cell_start[i])
            lo.append(first + np.broadcast_to(masks, outside.shape)[outside])
            hi.append(first + (masks | bits)[outside])
        return _concat(lo), _concat(hi)

    @cached_property
    def disjoint_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, q) cells of every pair of disjoint masks of one stage, by
        stage, then p, then q."""
        lo, hi = [], []
        for i, n in enumerate(self.n_atoms):
            masks = np.arange(1 << n)
            p, q = np.nonzero((masks[:, np.newaxis] & masks) == 0)
            first = int(self.cell_start[i])
            lo.append(first + p)
            hi.append(first + q)
        return _concat(lo), _concat(hi)

    def gather(self, route: str) -> "Gather":
        """The flat gather table of a route, "below" (coarse-graining) or
        "below_image" (restriction), built on first request."""
        out = self._gathers.get(route)
        if out is None:
            out = self._gathers[route] = Gather.build(self, route)
        return out

    @cached_property
    def coarse_squares(self) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray, np.ndarray]:
        """Coarse-graining of mask pairs, flat.  The squares of the stages,
        2^n x 2^n entries each (left mask major), are laid end to end.  Per
        proper comparable pair (sub, sup), in `pair_indices` order, its
        entries are sup's square, (x, y) ascending: `target` holds the
        offset of (cg x, cg y) in sub's square, read off `tables.coarse`,
        and `source` the offset of (x, y) in sup's square.  Returns the
        pairs, `first` (each pair's first entry, then the count), `target`
        and `source`."""
        sub, sup, _ = self.proper_pairs
        t = self.tables
        starts = t.table_start[self._ranks("coarse", sub, sup)].tolist()
        square_start = self.square_start.tolist()
        proper = tuple(zip(sub.tolist(), sup.tolist()))
        first = np.cumsum([0] + [1 << 2 * self.n_atoms[j] for _, j in proper])
        source = np.empty(first[-1], dtype=np.intp)
        target = np.empty(first[-1], dtype=np.intp)
        for k, ((i, j), start) in enumerate(zip(proper, starts)):
            table = t.coarse[start:start + (1 << self.n_atoms[j])].astype(np.intp)
            source[first[k]:first[k + 1]] = np.arange(square_start[j], square_start[j + 1], dtype=np.intp)
            target[first[k]:first[k + 1]] = ((table << self.n_atoms[i])[:, np.newaxis]
                                             + table).ravel() + square_start[i]
        return proper, first, target, source

    @cached_property
    def cover_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lattice covers of `mask_covers` carried down the "below"
        gather: per sub-stage entry of each cover's lower cell, the
        targets of that entry and of the upper cell's entry for the same
        sub-stage, and the entry's pair rank (`Gather.pair`)."""
        g = self.gather("below")
        lo, hi = self.mask_covers
        per_cell = np.diff(g.start)[lo]
        offset = np.arange(per_cell.sum()) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
        lo_e = np.repeat(g.start[lo], per_cell) + offset
        hi_e = np.repeat(g.start[hi], per_cell) + offset
        return g.target[lo_e], g.target[hi_e], g.pair[lo_e]


class PairTables:
    """The per-pair tables of a `PosetIndex`, flat, pairs in the order of
    `pair_indices` (`rank` maps a pair to its position k), each built in
    one array pass over every pair on first use.  `coarse` and `image`,
    from `table_start[k]`, hold per super-stage mask the sub-stage atoms
    whose block meets it (coarse-graining) and the owners of its atoms
    (restriction); `owner`, from `owner_start[k]`, holds per super-stage
    atom the first sub-stage atom whose block holds it, -1 where none
    does.  `missing[k]` marks a pair without a partition map, whose rows
    are zero; `covered[k]` a pair whose every super-stage atom has an
    owner.  `key[k]` is sub * stages + super, ascending, as
    `pair_indices` is sorted."""

    def __init__(self, index: PosetIndex):
        pairs = index.pair_indices
        self.rank: dict[tuple[int, int], int] = {p: k for k, p in enumerate(pairs)}
        self._pairs, self._stages = pairs, len(index.ids)
        n_sup = np.array([index.n_atoms[sup] for _, sup in pairs], dtype=np.int64)
        self.owner_start = np.concatenate([[0], np.cumsum(n_sup)])
        self.table_start = np.concatenate([[0], np.cumsum(1 << n_sup)])
        keys = [(index.ids[sub], index.ids[sup]) for sub, sup in pairs]
        self.missing = np.array([key not in index.partition_maps for key in keys], dtype=bool)
        maps = [index.partition_maps.get(key, ()) for key in keys]
        width = max([1] + [len(m) for m in maps])
        # each sub-atom's block of super-atoms, zero-padded to the longest map
        self._blocks = np.array([tuple(m) + (0,) * (width - len(m)) for m in maps],
                                dtype=np.int64).reshape(len(pairs), width)
        self._n_sup = n_sup

    @cached_property
    def key(self) -> np.ndarray:
        return np.array(self._pairs, dtype=np.int64).reshape(-1, 2) @ [self._stages, 1]

    def ranks(self, sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
        """The ranks of comparable pairs given as index arrays."""
        return np.searchsorted(self.key, sub * self._stages + sup)

    def _table(self, sets: np.ndarray) -> np.ndarray:
        """Per table entry (pair k, mask): the sub-atoms j whose
        sets[k, j] meets the mask."""
        pair = np.repeat(np.arange(len(sets)), 1 << self._n_sup)
        mask = (np.arange(self.table_start[-1]) - self.table_start[pair])[:, np.newaxis]
        return ((sets[pair] & mask) != 0) @ (1 << np.arange(sets.shape[1]))

    @cached_property
    def coarse(self) -> np.ndarray:
        return self._table(self._blocks)

    @cached_property
    def _holders(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, has, real), each (pairs, widest super-stage): the first
        block holding each super-atom, whether any does, and whether the
        atom exists."""
        atom = np.arange(int(self._n_sup.max(initial=0)))
        real = atom < self._n_sup[:, np.newaxis]
        holds = (self._blocks[:, :, np.newaxis] >> atom & 1).astype(bool) & real[:, np.newaxis]
        return holds.argmax(axis=1), holds.any(axis=1), real

    @cached_property
    def owner(self) -> np.ndarray:
        first, has, real = self._holders
        return np.where(has, first, -1)[real]

    @cached_property
    def image(self) -> np.ndarray:
        # each sub-atom's owned super-atoms: its block, less what an
        # earlier block holds
        first, has, _ = self._holders
        width = self._blocks.shape[1]
        owned = (first[:, np.newaxis] == np.arange(width)[:, np.newaxis]) & has[:, np.newaxis]
        return self._table(owned @ (1 << np.arange(first.shape[1])))

    @cached_property
    def covered(self) -> np.ndarray:
        _, has, real = self._holders
        return ~self.missing & (has | ~real).all(axis=1)


@dataclass(frozen=True, eq=False)
class Gather:
    """One route's flat gather table over a `PosetIndex`: one entry per
    (stage i, mask of i, stage j below i), ordered by i, then mask, then j.
    `cell[e]` is the cell of (i, mask), `stage[e]` is j, `image[e]` the
    image of the mask at j and `target[e]` the cell of (j, image); the
    entries of cell c are `start[c]` to `start[c + 1]`, and `pair[e]` is
    the rank of (j, i) in `pair_indices`.  Closed Peres-24 has 5,738
    entries over 806 cells.  `slot[e]` is the bit of j in the row of (i,
    mask) when the member matrix is one flat bit string, `words` uint64
    words per cell.

    A per-cell decision vector d gathers to a member matrix, j a member of
    (i, mask) exactly when d[target[e]]: `pack(d[target])`.

    Every index column is intp, numpy's native width: a gather through it
    runs about twice as fast as through int32.  The arrays below the
    columns are built on first use and kept, read-only, since the entries
    depend on the poset alone and each valuation of it reads them again:
    `down_words` and `cell_stage` are the index's own, shared.
    """

    cell: np.ndarray
    stage: np.ndarray
    image: np.ndarray
    target: np.ndarray
    start: np.ndarray
    pair: np.ndarray
    slot: np.ndarray
    words: int
    down_words: np.ndarray = field(repr=False)
    cell_stage: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, index: PosetIndex, route: str) -> "Gather":
        """The entries are those of `index.tables`, `coarse` for "below" and
        `image` for "below_image", put in gather order by one `np.lexsort`
        by cell and then sub-stage.  A pair whose row cannot be read raises
        as `PosetIndex._row` does, the first in (super, sub) order."""
        name = {"below": "coarse", "below_image": "image"}[route]
        t = index.tables
        pairs = np.array(index.pair_indices, dtype=np.int64).reshape(-1, 2)
        by_super = np.lexsort((pairs[:, 0], pairs[:, 1]))
        index._ranks(name, pairs[by_super, 0], pairs[by_super, 1])
        pair = np.repeat(np.arange(len(pairs)), np.diff(t.table_start))
        sub, sup = pairs[pair, 0], pairs[pair, 1]
        cell = index.cell_start[sup] + np.arange(len(pair)) - t.table_start[pair]
        order = np.lexsort((sub, cell))
        cell, stage, image, pair = (a[order].astype(np.intp) for a in (cell, sub, getattr(t, name), pair))
        per_cell = np.bincount(cell, minlength=int(index.cell_start[-1]))
        return cls(cell=cell, stage=stage, image=image,
                   target=index.cell_start[stage] + image,
                   start=np.concatenate([[0], np.cumsum(per_cell)]).astype(np.intp),
                   pair=pair, slot=cell * (64 * index.words) + stage,
                   words=index.words, down_words=index.down_words, cell_stage=index.cell_stage)

    @cached_property
    def stage_down(self) -> np.ndarray:
        """The down-set of each entry's stage j, packed (`words` per row)."""
        return _frozen(np.take(self.down_words, self.stage, axis=0))

    @cached_property
    def cell_stage_of(self) -> np.ndarray:
        """The stage i of each entry's cell."""
        return _frozen(self.cell_stage[self.cell])

    @cached_property
    def rank(self) -> np.ndarray:
        """Each entry's position among its cell's entries: the rank of j
        among the stages below i, the same in every cell of i."""
        return _frozen(np.arange(len(self.cell)) - self.start[self.cell])

    def pack(self, member: np.ndarray) -> np.ndarray:
        """The member matrix of per-entry member bits: per cell, the stages
        of its entries e where `member[e]`, packed as (cells, words) uint64
        rows.  The member bits are scattered to their slots in one bool
        grid, which `np.packbits` packs little-endian, so bit j % 64 of
        word j // 64 of a row is stage j."""
        cells = len(self.start) - 1
        grid = np.zeros(cells * 64 * self.words, dtype=bool)
        grid[self.slot] = member
        return np.packbits(grid, bitorder="little").view("<u8").reshape(cells, self.words)


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: a table kept on a shared index."""
    a.flags.writeable = False
    return a


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """Index arrays end to end, as intp: numpy gathers through native-width
    indices without converting them first, about twice as fast as through
    int32 ones."""
    return np.concatenate(parts).astype(np.intp) if parts else np.zeros(0, dtype=np.intp)


_WORD = (1 << 64) - 1


def pack_ints(masks: list[int], words: int) -> np.ndarray:
    """Int bitmasks as (len(masks), words) uint64 rows: bit j of a mask is
    bit j % 64 of word j // 64."""
    return np.array([[m >> 64 * k & _WORD for k in range(words)] for m in masks],
                    dtype=np.uint64).reshape(len(masks), words)


def nonzero_rows(packed: np.ndarray) -> np.ndarray:
    """Per row of packed words, whether any bit is set: one pass per word
    (numpy reduces slowly along a short last axis)."""
    out = packed[:, 0] != 0
    for k in range(1, packed.shape[1]):
        out |= packed[:, k] != 0
    return out


def row_ints(packed: np.ndarray) -> list[int]:
    """Each row of `pack_ints` words as its int bitmask."""
    out = packed[:, 0].tolist()
    for k in range(1, packed.shape[1]):
        out = [low | high << 64 * k for low, high in zip(out, packed[:, k].tolist())]
    return out


def _row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a bool matrix as the int mask of its set columns."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[r * width:(r + 1) * width], "little") for r in range(len(rows))]


def _mask_bits(masks: list[int], width: int) -> np.ndarray:
    """The bits of each int mask as a bool row of the given width."""
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), size), axis=1, count=width,
                         bitorder="little").astype(bool)


def bit_list(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending; a negative one,
    which has infinitely many, raises `ValueError`."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
