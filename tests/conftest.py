import itertools
import os
import subprocess
import sys
from functools import cmp_to_key
from pathlib import Path

import numpy as np
import pytest

from toposval.contexts import ContextPoset, _ContextStore
from toposval.index import Character, ContextError, LatticeElement, bit_list, nonzero_rows, pack_ints, row_ints
from toposval.linalg import (
    DensityMatrix,
    LinalgError,
    Projector,
    StateVector,
    certain,
    containment_table,
    screened_containment_blocks,
)
from toposval.ocat import EigenvalueMap, OcatError, _entry
from toposval.presheaves import GlobalElementG, SubobjectSigma
from toposval.sampling import diag_plus_trivial, fix_a
from toposval.serialization import contexts_from_json
from toposval.tolerances import DEFAULT
from toposval.valuations import (
    MorphismSetValuation,
    _first,
    _intervals,
    _supports,
    first_superset_failure,
    from_table,
)

criterion_lines: list[str] = []

SRC = str(Path(__file__).resolve().parent.parent / "src")


def outputs_under_hash_seeds(code):
    """What a Python snippet prints, run in a fresh interpreter under
    `PYTHONHASHSEED` 0 to 3, as a set of distinct outputs."""
    out = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        out.add(run.stdout)
    return out


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


def morphisms_into(category, aid):
    """The arrows into an object of an operator category, in source index
    order, read off the category's index."""
    index = category.index
    return [category.morphisms[(bid, aid)] for bid in index.names(index.down_of.get(aid, 0))]


def map_image(f, subset):
    """The values an eigenvalue map takes on a set of its domain; a value
    outside the domain raises `OcatError`."""
    return frozenset(f(x) for x in subset)


def map_preimage(f, subset):
    """The domain values an eigenvalue map sends into a set of its values;
    a value outside the codomain raises `OcatError`."""
    for v in subset:
        if v not in f.codomain:
            raise OcatError(f"{v} is outside the codomain of the map")
    return frozenset(k for k, v in f.pairs if v in subset)


def state_certain(state, p, tol=DEFAULT):
    """Probability-1 test of one projector for either kind of state: the
    norm of the vector's part outside the projector, or `certain`."""
    if isinstance(state, StateVector):
        return bool(np.linalg.norm(p.entries @ state.amplitudes - state.amplitudes)
                    < tol.vector_support)
    return certain(state, p, tol)


def screened_containment_table(rows, cols, tol=DEFAULT):
    """`screened_containment_blocks`'s one-block case: every row against
    every column."""
    return screened_containment_blocks(rows, cols, [(len(rows), len(cols))], tol)[0]


def context_from_json(obj, tol=DEFAULT):
    """One context object parsed and built as the one item of a bare
    contexts array (see `contexts_from_json`)."""
    return contexts_from_json([obj], tol)[0][0]


def lift_mask(poset, sub, sup, mask):
    """A sub-context lattice element as a mask over the super-context: the
    union of its atoms' blocks; a mask outside the sub-context's lattice
    raises."""
    blocks = poset.partition_map(sub, sup)
    if mask < 0 or mask >> len(blocks):
        raise ContextError(f"mask {mask} out of range for context {sub!r}")
    return _union(blocks, mask)


def _union(masks, select):
    """The union of the masks that `select`'s bits pick."""
    out = 0
    for i in bit_list(select):
        out |= masks[i]
    return out


def preimage_mask(f, mask):
    """The domain mask of a codomain mask's preimage, read off the map's
    `preimage_table`; a mask outside the table raises `OcatError`."""
    return _entry(f.preimage_table, mask, "codomain")


def random_table_valuation(rng, poset, sieve_valued=False):
    """Random test double: arbitrary member sets per (context, mask); with
    `sieve_valued` each set is closed downward after drawing."""
    table = {}
    for cid in poset.ids:
        down = poset.down_set(cid)
        n = poset.context(cid).n_atoms
        for mask in range(1 << n):
            picked = {d for d in down if rng.random() < 0.5}
            if sieve_valued:
                closed = set()
                for m in picked:
                    closed.update(poset.down_set(m))
                picked = closed
            table[(cid, mask)] = frozenset(picked)
    return from_table(poset, table, name="random_table")


def coarse_grain_bruteforce(poset: ContextPoset, sub: str, sup: str, p: LatticeElement) -> LatticeElement:
    """Infimum of all sub-lattice elements dominating `p`, by full
    enumeration: the oracle of `presheaves.coarse_grain`."""
    if p.context_id != sup:
        raise ContextError("lattice element does not live at the given context")
    n = poset.context(sub).n_atoms
    dominating = [
        q for q in range(1 << n)
        if lift_mask(poset, sub, sup, q) & p.mask == p.mask
    ]
    if not dominating:
        raise ContextError("no dominating element; partition map is broken")
    inf = dominating[0]
    for q in dominating[1:]:
        inf &= q
    if lift_mask(poset, sub, sup, inf) & p.mask != p.mask:
        raise ContextError("infimum does not dominate; lattice is not closed under meets")
    return LatticeElement(sub, inf)


def compose(g, f):
    """Eigenvalue map of the composite (g after f as arrows): given
    f: B -> A and g: C -> B, the composite C -> A sends each eigenvalue
    of A through f's map then g's map."""
    if g.dst != f.src:
        raise OcatError("morphisms do not compose")
    return EigenvalueMap(tuple((lam, g.map(f.map(lam))) for lam in f.map.domain))


# --------------------------------------------------------------------------
# one-at-a-time oracles for the stacked contexts boundary

def span_projector_oracle(vectors, tol=DEFAULT):
    """The projector onto the span of some vectors, one span at a time:
    the norm, svd and qr of its own matrix, then `Projector`."""
    a = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    if np.linalg.norm(a) == 0:
        raise LinalgError("zero vector in span")
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.min() < tol.trace_rank * max(1.0, svals.max()):
        raise LinalgError("vectors are linearly dependent within rank tolerance")
    q, _ = np.linalg.qr(a)
    p = Projector(q @ q.conj().T, tol=tol)
    if p.rank != len(vectors):
        raise LinalgError("projector rank does not match the number of vectors")
    return p


def canonical_order_oracle(atoms):
    """The atoms sorted by a comparator: the first differing raw part of
    two atoms, rounded to 9 decimals as a numpy scalar, decides, under the
    key -round(part, 9); a stable sort."""
    parts = [a.entries.reshape(-1).view(np.float64) for a in atoms]
    raw = [p.tolist() for p in parts]

    def compare(i, j):
        for k, (u, v) in enumerate(zip(raw[i], raw[j])):
            if u != v:
                ku, kv = -round(parts[i][k], 9) - 0.0, -round(parts[j][k], 9) - 0.0
                if ku != kv:
                    return -1 if ku < kv else 1
        return 0

    return tuple(atoms[i] for i in sorted(range(len(atoms)), key=cmp_to_key(compare)))


def context_atoms_oracle(cid, atoms, tol=DEFAULT):
    """The `Context` checks one atom and one atom pair at a time, raising
    the first failure; the atoms in canonical order."""
    atoms = tuple(atoms)
    if not atoms:
        raise ContextError("a context needs at least one atom")
    dim = atoms[0].dim
    for a in atoms:
        if a.dim != dim:
            raise ContextError("atoms of mixed dimension")
        if a.rank < 1:
            raise ContextError("zero atom in context")
    for a, b in itertools.combinations(atoms, 2):
        if not np.max(np.abs(a.entries @ b.entries)) < tol.atom:
            raise ContextError(f"atoms of context {cid!r} are not orthogonal")
    total = sum(a.entries for a in atoms)
    if np.max(np.abs(total - np.eye(dim))) > tol.atom:
        raise ContextError(f"atoms of context {cid!r} do not resolve the identity")
    return canonical_order_oracle(atoms)


# --------------------------------------------------------------------------
# one-pair oracles of the index's pair tables (`PairTables` builds them for
# every pair in one array pass)

def union_table(masks):
    """Entry `m` is the union of masks[k] over the bits k of m."""
    table = [0] * (1 << len(masks))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | masks[low.bit_length() - 1]
    return tuple(table)


def pmap_oracle(index, sub, sup):
    """The partition map of a pair of stage indices."""
    key = (index.ids[sub], index.ids[sup])
    if key not in index.partition_maps:
        raise ContextError(f"{key[0]!r} is not included in {key[1]!r}")
    return index.partition_maps[key]


def coarse_oracle(index, sub, sup):
    """The coarse-graining table of one pair: a sub-atom enters a mask's
    entry when its block of super-atoms meets the mask."""
    pmap = pmap_oracle(index, sub, sup)
    blocks_of = [0] * index.n_atoms[sup]   # sub-atoms whose block holds each super-atom
    for j, block in enumerate(pmap):
        for k in range(len(blocks_of)):
            if block >> k & 1:
                blocks_of[k] |= 1 << j
    return union_table(blocks_of)


def restriction_oracle(index, sub, sup):
    """Per super-atom, the first sub-atom whose block holds it, or None."""
    pmap = pmap_oracle(index, sub, sup)
    return tuple(next((j for j, block in enumerate(pmap) if block >> k & 1), None)
                 for k in range(index.n_atoms[sup]))


def image_oracle(index, sub, sup):
    """The restriction table of one pair, or None where an atom has no owner."""
    owner = restriction_oracle(index, sub, sup)
    return None if None in owner else union_table([1 << j for j in owner])


def index_below(index, sup):
    """(sub index, coarse-graining table) for each stage below `sup`,
    ascending, each table `PosetIndex.coarse` of the pair."""
    return tuple((sub, index.coarse(sub, sup)) for sub in range(len(index.ids)) if index.down[sup] >> sub & 1)


def index_lift(index, sub, sup, mask):
    """A sub-stage mask expressed over the super-stage's atoms: the union
    of the blocks of its atoms in the pair's partition map."""
    out = 0
    for j, block in enumerate(pmap_oracle(index, sub, sup)):
        if mask >> j & 1:
            out |= block
    return out


def route_table(index, route, sub, sup):
    """The table of one pair along a gather route: coarse-graining
    ("below") or restriction ("below_image"), raising the index's error
    where it cannot be read."""
    if route == "below":
        return coarse_oracle(index, sub, sup)
    out = image_oracle(index, sub, sup)
    if out is None:
        raise ContextError("partition map does not cover the atom")
    return out


def route_rows(index, route):
    """The per-stage form of a gather route: `below(sup)` gives (sub index,
    `route_table`) for each stage below `sup`, ascending, each stage's
    rows built once."""
    kept = {}

    def below(sup):
        if sup not in kept:
            kept[sup] = tuple((sub, route_table(index, route, sub, sup)) for sub in range(len(index.ids))
                              if index.down[sup] >> sub & 1)
        return kept[sup]
    return below


def gather_rows(g, member, table):
    """The take/reduceat form of a gather's member rows: per cell, the OR
    of `table[stage[e]]` (packed rows over stages) over the cell's entries
    e where `member[e]`, as (cells, words).  `Gather.pack` builds the rows
    of `stage_bits` by scatter instead."""
    cells = len(g.start) - 1
    if not len(g.cell):
        return np.zeros((cells, table.shape[1]), dtype=table.dtype)
    picked = np.take(table, g.stage, axis=0)
    picked[~member] = 0
    out = np.bitwise_or.reduceat(picked, np.minimum(g.start[:-1], len(g.cell) - 1))
    out[g.start[:-1] == g.start[1:]] = 0   # a cell without entries
    return out


def bits_valuation(poset, rule, name):
    """The rule-backed valuation whose rule gives the member bitmask of
    (stage index, mask); `poset` may also be an `OperatorCategory`."""
    index = poset.index
    return MorphismSetValuation(poset, lambda cid, m: index.id_set(rule(index.pos[cid], m)), name=name)


def stage_bits(index):
    """The one-stage mask of each stage, packed."""
    return pack_ints([1 << j for j in range(len(index.ids))], index.words)


def unclosed_cells_oracle(index, member):
    """`valuations.unclosed_cells` as the OR of the members' down-sets
    against the OR of their bits, both by `gather_rows`."""
    g = index.gather("below")
    return nonzero_rows(gather_rows(g, member, index.down_words) & ~gather_rows(g, member, stage_bits(index)))


# --------------------------------------------------------------------------
# per-pair views of the closure store, which the package's batched passes
# no longer need

def store_intern(store: _ContextStore, entries: np.ndarray) -> int:
    """The id of the first stored projector within `tol.atom` of
    `entries`, storing it under a new id when there is none: the one-item
    call of `_ContextStore._intern_many`."""
    return store._intern_many(entries[np.newaxis])[0]


def store_connected(store: _ContextStore, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per pair of stored contexts (first[p] < second[p]), whether all the
    first context's atoms lie in one component of the pair's link graph,
    so that its meet is the single full mask."""
    reach, _, rows, _ = store._reach(first, second)
    return (reach[:, 0] | (rows == len(store.every))).all(axis=1)


class PairStore(_ContextStore):
    """`_ContextStore` with one pair's meet and the screen's candidates
    as (a, b, partition map)."""

    def meet(self, i: int, j: int) -> list[int]:
        """The meet masks of stored contexts i < j: `split_meets` of the
        one pair, or the full mask when its link graph is connected."""
        split = self.split_meets(np.array([i]), np.array([j]))
        return split[0][2] if split else [(1 << self.ctxs[i].n_atoms) - 1]

    def inclusion_candidates(self):
        """(a, b, partition map) for the pairs, in row order, that may
        satisfy a <= b: the screen's candidates (see `_screen`), for
        `inclusion` to confirm."""
        k, j, _, masks = self._screen()
        ends = np.cumsum([self.ctxs[a].n_atoms for a in k.tolist()]).tolist()
        masks = masks.tolist()
        for a, b, end in zip(k.tolist(), j.tolist(), ends):
            yield self.ctxs[a], self.ctxs[b], tuple(masks[end - self.ctxs[a].n_atoms:end])


# --------------------------------------------------------------------------
# per-context constructions of the report values that the poset index now
# shares, or builds in one array pass

def dump_oracle(alpha):
    """`dump` as one comprehension per stage over the int rows."""
    index = alpha._index
    ints = row_ints(alpha._matrix)
    first = index.cell_start.tolist()
    out = {}
    for i, (cid, n) in enumerate(zip(index.ids, index.n_atoms)):
        out[cid] = {format(mask, "x"): list(index.names(bits))
                    for mask, bits in enumerate(ints[first[i]:first[i] + (1 << n)])}
    return out


def support_oracle(alpha, cid):
    """A fresh `LatticeElement` of the support, None without one."""
    mask = _supports(alpha)[alpha._index.pos[cid]]
    return None if mask is None else LatticeElement(cid, mask)


def interval_oracle(alpha, cid):
    """A fresh character set of the interval."""
    return frozenset(Character(cid, i) for i in bit_list(_intervals(alpha)[alpha._index.pos[cid]]))


def intervals_subobject_oracle(alpha):
    """The interval subobject from a frozenset assignment, by `__init__`."""
    assignment = {cid: frozenset(bit_list(m)) for cid, m in zip(alpha._index.ids, _intervals(alpha))}
    return SubobjectSigma(alpha.poset, assignment, enforce=False)


def supports_global_element_oracle(alpha):
    """The supports as a global element, by `__init__`."""
    assignment = {}
    for cid, s in zip(alpha._index.ids, _supports(alpha)):
        if s is None:
            raise ContextError(f"empty truth set at {cid!r}: no support to package")
        assignment[cid] = s
    return GlobalElementG(alpha.poset, assignment, enforce=False)


def preserved_oracle(index, tables):
    """`_preserved_by_coarse_graining` with the source squares concatenated
    pair by pair."""
    pairs, first, target, _ = index.coarse_squares
    if not pairs:
        return True, None
    flat = [t.ravel() for t in tables]
    source = np.concatenate([flat[sup] for _, sup in pairs])
    e = _first(source & ~np.concatenate(flat)[target])
    if e is None:
        return True, None
    k = int(np.searchsorted(first, e, side="right")) - 1
    sub, sup = pairs[k]
    x, y = divmod(e - int(first[k]), 1 << index.n_atoms[sup])
    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "x": x, "y": y}


def isotone_oracle(index, related):
    """`_isotone_under_coarse_graining` with the cover entries found per
    call from the gather and the lattice covers."""
    g = index.gather("below")
    lo, hi = index.mask_covers
    per_cell = np.diff(g.start)[lo]
    offset = np.arange(per_cell.sum()) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    lo_e = np.repeat(g.start[lo], per_cell) + offset
    hi_e = np.repeat(g.start[hi], per_cell) + offset
    bad = related[g.target[lo_e]] & ~related[g.target[hi_e]]
    if not bad.any():
        return True, None
    sub, sup = index.pair_indices[int(g.pair[lo_e[bad]].min())]
    at_sub = related[index.cell_start[sub] + np.array(index.coarse(sub, sup))].tolist()
    p, q = first_superset_failure(len(at_sub), lambda p, q: at_sub[p] and not at_sub[q])
    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "p": p, "q": q}


def related_oracle(tables, masks):
    """`schema._related` from per-stage tables: row masks[j] of each
    stage's table, concatenated in index order."""
    if not tables:
        return np.zeros(0, dtype=bool)
    return np.concatenate([t[m] for t, m in zip(tables, masks)])


def poset_table_oracles(index):
    """The poset-only arrays a state verdict reads off its `PosetIndex` and
    gathers, each by the expression its checker evaluated on every call
    before the index kept it: name (or (route, name)) -> array."""
    square_start = np.cumsum([0] + [1 << 2 * n for n in index.n_atoms])
    out = {
        "atom_counts": np.array(index.n_atoms),
        "cell_down": np.take(index.down_words, index.cell_stage, axis=0),
        "cell_full": (1 << np.array(index.n_atoms, dtype=np.int64))[index.cell_stage] - 1,
        "square_start": square_start,
        "square_cell": np.array([square_start[j] + m for j, n in enumerate(index.n_atoms)
                                 for m in range(1 << n)], dtype=np.int64),
        "sub_null_cells": index.cell_start[[sub for sub, _ in index.pair_indices]],
    }
    for route in ("below", "below_image"):
        g = index.gather(route)
        out[(route, "stage_down")] = np.take(index.down_words, g.stage, axis=0)
        out[(route, "cell_stage_of")] = index.cell_stage[g.cell]
        out[(route, "rank")] = np.arange(len(g.cell)) - g.start[g.cell]
    return out


def lifted_supports_oracle(index, supports):
    """`check_subobject_condition`'s lift of each proper pair's sub-stage
    support through the pair's partition map, from the zero-padded blocks
    of `PairTables`."""
    sub, sup, _ = index.proper_pairs
    s = np.array(supports, dtype=np.int64)
    blocks = index.tables._blocks[index._ranks("coarse", sub, sup)]
    atoms = s[sub][:, np.newaxis] >> np.arange(blocks.shape[1]) & 1
    return np.bitwise_or.reduce(np.where(atoms == 1, blocks, 0), axis=1)


def random_relation_oracle(rng, poset):
    """`random_relation`'s tables by one draw per context in turn."""
    tables = {}
    for cid in poset.ids:
        n = poset.context(cid).n_atoms
        tables[cid] = rng.random(1 << 2 * n).reshape(1 << n, 1 << n) < 0.5
    return tables


def mask_range_oracle(poset, assignment):
    """`GlobalElementG`'s checks one context at a time, in the
    assignment's order."""
    for cid, mask in assignment.items():
        if not isinstance(mask, (int, np.integer)) or isinstance(mask, bool):
            raise ContextError(f"mask {mask!r} at {cid!r} is not an int")
        if not 0 <= mask <= poset.context(cid).full_mask:
            raise ContextError(f"mask {mask} out of range at {cid!r}")


def atom_range_oracle(poset, assignment):
    """`SubobjectSigma`'s checks one context at a time, in the
    assignment's order."""
    for cid, indices in assignment.items():
        n = poset.context(cid).n_atoms
        for i in indices:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ContextError(f"atom indices at {cid!r} must be ints")
            if not 0 <= i < n:
                raise ContextError(f"atom index out of range at {cid!r}")


def evaluate_oracle(v, kappa, a, tol=DEFAULT):
    """Gelfand evaluation one atom at a time, each product on its own: the
    oracle of `contexts.evaluate`."""
    if kappa.context_id != v.id:
        raise ContextError("character does not belong to this context")
    if not 0 <= kappa.atom_index < v.n_atoms:
        raise ContextError(f"atom index {kappa.atom_index} out of range for context {v.id!r}")
    if a.dim != v.dim:
        raise ContextError("dimension mismatch")
    values = []
    for atom in v.atoms:
        c = float(np.trace(atom.entries @ a.entries).real) / atom.rank
        if np.max(np.abs(atom.entries @ a.entries - c * atom.entries)) > tol.atom:
            raise ContextError("operator is not in the context's algebra")
        values.append(c)
    return values[kappa.atom_index]


def image_mask_oracle(f, mask):
    """The codomain mask of a domain mask's image, bit by bit."""
    out = 0
    for i in bit_list(mask):
        out |= f.image_bits[i]
    return out


def preimage_mask_oracle(f, mask):
    """The domain mask of a codomain mask's preimage, index by index."""
    out = 0
    for i, bit in enumerate(f.image_bits):
        if bit & mask:
            out |= 1 << i
    return out


def flat_pair_row(index, name, sub, sup):
    """One pair's slice of a flat `PairTables` array ("coarse", "owner" or
    "image"), or None for a pair without a table."""
    t = index.tables
    k = t.rank.get((sub, sup))
    if k is None or t.missing[k]:
        return None
    start = t.owner_start if name == "owner" else t.table_start
    return getattr(t, name)[start[k]:start[k + 1]].tolist()

