"""Relation-parameterized valuations and the six-property survey.

Given an interval valuation `a` and a binary relation R, a valuation with
sets of morphisms as values arises by testing R at the coarse stage:
a stage enters when R holds between a's value there and the coarse-grained
proposition.  Which laws of a generalized valuation the result obeys
depends only on R (and mild conditions on `a`); the surveys below check
each law exhaustively over the finite poset, alongside the
characterizations and sufficient conditions that explain the outcome.

Three forms are covered: lattice elements, character sets (atom-index
masks) and eigenvalue sets over a finite operator category (masks over
spectrum indices).  A set relation is the mask relation of the same
meaning under its set name (`BUILTIN_SET_RELATIONS`: subset is `le`,
intersects is `nonzero-product`, ...), so every form decides R the same
way: R is laid out as the stages' (2^n, 2^n) bool squares (`Relation.table`,
which refuses a grid that is not bool) end to end in one flat array
(`_relation_squares`, at `PosetIndex.square_start`; kept on the index
for the relations whose tables depend on the atom count alone), a's
masks pick one row of each square in one gather (`_related`), and the
valuation is gathered from that decision vector
(`MorphismSetValuation._gathered`) over a `PosetIndex` (the operator
category's arrows form one too), so the three share one set of law
checkers.  The lattice form adds its characterizations and sufficient
conditions on R, each one reduction over those squares: the cells where R
relates a's element, gathered along the coarse-graining route or the
lattice covers, and the coarse-graining of mask pairs
(`PosetIndex.coarse_squares`).  A reduction that finds a
failure along covers re-runs the scan on the one failing stage or pair,
so each witness is the scan's first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .contexts import ContextPoset
from .index import ContextError, PosetIndex
from .ocat import OperatorCategory
from .presheaves import GlobalElementG, SubobjectSigma
from .valuations import (
    MorphismSetValuation,
    _clause_statuses,
    _first,
    _unit_witness,
    first_superset_failure,
    unclosed_cells,
)

HOLDS = "holds-exhaustively"
FAILS = "witness-of-failure"


@dataclass(frozen=True)
class Relation:
    """A binary relation on a context's lattice, given as masks.

    `test(context_id, left_mask, right_mask)`; deterministic and total on
    every lattice of the poset it is used with.  `grid(context_id, n)`, when
    given, is the same relation on a whole n-atom lattice at once, as the
    (2^n, 2^n) bool array of `table`.
    """

    name: str
    test: Callable[[str, int, int], bool]
    grid: Callable[[str, int], np.ndarray] | None = field(default=None, compare=False)

    def table(self, cid: str, n: int) -> np.ndarray:
        """R on the lattice of an n-atom context: entry [l, r] is
        test(cid, l, r).  A grid of another shape or of a dtype other than
        bool is refused: a cast would read 0.25 or NaN as true."""
        size = 1 << n
        if self.grid is not None:
            out = np.asarray(self.grid(cid, n))
            if out.shape != (size, size):
                raise ContextError(f"relation {self.name!r} has no {size} x {size} table at {cid!r}")
            if out.dtype != bool:
                raise ContextError(f"relation {self.name!r} has a {out.dtype} table at {cid!r}, "
                                   "not a bool one")
            return out
        return np.array([bool(self.test(cid, l, r)) for l in range(size) for r in range(size)],
                        dtype=bool).reshape(size, size)


def _le(cid, l, r):
    return l & r == l


def _ge(cid, l, r):
    return l & r == r


def _eq(cid, l, r):
    return l == r


def _nonzero_product(cid, l, r):
    return l & r != 0


class _DrawnGrid:
    """The grid of relation `name` drawn for one poset's stages as
    `squares`, the flat layout of `_relation_squares` over `stages` (the
    poset index's ids and atom counts).  A context's table is a view into
    it, taken when asked for; a context the draw does not cover raises
    `ContextError`."""

    def __init__(self, name: str, squares: np.ndarray, index: PosetIndex):
        self.name = name
        self.squares = squares
        self.stages = (index.ids, index.n_atoms)
        self._pos, self._start = index.pos, index.square_start

    def __call__(self, cid: str, n: int) -> np.ndarray:
        i = self._pos.get(cid)
        if i is None:
            raise ContextError(f"relation {self.name!r} was not drawn for context {cid!r}")
        size = 1 << self.stages[1][i]
        start = int(self._start[i])
        return self.squares[start:start + size * size].reshape(size, size)


def _grid(test):
    """`test` on every (left, right) mask pair of an n-atom lattice, with
    numpy's integer operators; the relation ignores the context, so each
    lattice size is tabulated once, read-only."""
    @functools.lru_cache(maxsize=None)
    def on(n: int) -> np.ndarray:
        masks = np.arange(1 << n)
        out = np.array(np.broadcast_to(test(None, masks[:, np.newaxis], masks), (1 << n, 1 << n)))
        out.flags.writeable = False
        return out
    return lambda cid, n: on(n)


BUILTIN_RELATIONS = {
    name: Relation(name, test, _grid(test)) for name, test in (
        ("le", _le),
        ("ge", _ge),
        ("eq", _eq),
        ("nonzero-product", _nonzero_product),
        ("always-true", lambda cid, l, r: True),
        ("always-false", lambda cid, l, r: False),
    )
}

# the grids that ignore the context: their squares over a poset depend on
# the atom counts alone, so the poset index keeps them (`_relation_squares`)
_SIZE_GRIDS = frozenset(rel.grid for rel in BUILTIN_RELATIONS.values())


def random_relation(rng: np.random.Generator, poset: ContextPoset, name: str = "random") -> Relation:
    """A seeded boolean table per context, (left mask, right mask), so
    replays are exact.  One draw covers every context, consumed in
    (context, l, r) order, so the tables and the generator's next draw
    are those of one draw per context in turn."""
    index = poset.index
    grid = _DrawnGrid(name, rng.random(int(index.square_start[-1])) < 0.5, index)
    return Relation(name, lambda cid, l, r: bool(grid(cid, 0)[l, r]), grid)


BUILTIN_SET_RELATIONS = {
    set_name: replace(BUILTIN_RELATIONS[name], name=set_name) for set_name, name in (
        ("subset", "le"),
        ("superset", "ge"),
        ("eq", "eq"),
        ("intersects", "nonzero-product"),
        ("always-true", "always-true"),
        ("always-false", "always-false"),
    )
}


def _relation_squares(index: PosetIndex, rel: Relation) -> np.ndarray:
    """R over every stage's lattice as one flat bool array: the stages'
    squares (`Relation.table`, left mask major) end to end, from
    `index.square_start`.  The index keeps the squares of a relation that
    ignores the context (`_SIZE_GRIDS`: the built-ins and their set
    aliases); `random_relation`'s draw already is this layout and is
    handed over as is; any other relation is tabulated per call, so no
    per-job relation stays on the index."""
    grid = rel.grid
    if isinstance(grid, _DrawnGrid) and grid.stages == (index.ids, index.n_atoms):
        return grid.squares
    if grid in _SIZE_GRIDS:
        out = index._squares.get(grid)
        if out is None:
            out = index._squares[grid] = _tabulate(index, rel)
            out.flags.writeable = False
        return out
    return _tabulate(index, rel)


def _tabulate(index: PosetIndex, rel: Relation) -> np.ndarray:
    """R's squares, one `Relation.table` per stage, concatenated."""
    if not index.ids:
        return np.zeros(0, dtype=bool)
    return np.concatenate([rel.table(cid, n).ravel() for cid, n in zip(index.ids, index.n_atoms)])


def _related(squares: np.ndarray, index: PosetIndex, masks) -> np.ndarray:
    """Per cell (stage j, mask m): whether R relates masks[j] to m, one
    gather from R's squares (`_relation_squares`): entry
    square_start[j] + masks[j] * 2^n_j + m."""
    rows = np.array(masks, dtype=np.intp) << index.atom_counts
    return np.take(squares, index.square_cell + rows[index.cell_stage])


def _schema_valuation(a: GlobalElementG, rel: Relation,
                      related: np.ndarray | None = None) -> MorphismSetValuation:
    """The valuation gathered from R's row at a, along coarse-graining."""
    index = a.poset.index
    if related is None:
        related = _related(_relation_squares(index, rel), index, a.masks)
    return MorphismSetValuation._gathered(a.poset, related, "below", name=f"alpha^(a,{rel.name})")


def alpha_a_R(a: GlobalElementG, rel: Relation) -> MorphismSetValuation:
    """The schema valuation: membership by evaluating R at the coarse stage."""
    if not a.satisfies_matching:
        raise ContextError("the projector assignment is not a global element")
    return _schema_valuation(a, rel)


def _status(ok: bool, witness: dict | None) -> dict:
    return {"status": HOLDS if ok else FAILS, "witness": None if ok else witness}


def _law_statuses(alpha: MorphismSetValuation, unit=_unit_witness) -> dict:
    """The six properties by the shared checkers of `valuations`, in the
    survey's status words, with the overall flag.  Functional composition
    holds for any relation whatsoever."""
    properties = _clause_statuses(alpha, HOLDS, FAILS, unit)
    return {"properties": properties,
            "all_hold": all(v["status"] == HOLDS for v in properties.values())}


def _unit_witness_with_stage(alpha: MorphismSetValuation) -> dict | None:
    """The unit witness, naming the refusing stage: the first one below
    that is not a member."""
    w = _unit_witness(alpha)
    if w is not None:
        index = alpha._index
        i = index.pos[w["v1"]]
        missing = index.down[i] & ~alpha._bits(i, (1 << index.n_atoms[i]) - 1)
        w["v2"] = index.ids[(missing & -missing).bit_length() - 1]
    return w


def survey_properties(a: GlobalElementG, rel: Relation) -> dict:
    """Exhaustive six-property report for the lattice-relation schema.

    Sievehood and monotonicity carry, next to the direct check on the
    generated valuation, the characterization on R itself and the simpler
    sufficient condition, and their agreement is part of the report.  The
    sievehood characterization reads R's cells pair by pair, not the
    valuation's member sets: it agrees with the direct check whenever
    coarse-graining composes along chains and is the identity on
    reflexive pairs (see `_stable_under_coarse_graining`), so a
    disagreement shows maps that do not.

    Non-matching assignments are admitted (the report records the flag):
    when the assignment really matches up, coarse-graining is a function of
    the left argument, so relations like equality are automatically stable;
    the failing direction of the characterizations only shows up on broken
    assignments.
    """
    poset = a.poset
    index = poset.index
    squares = _relation_squares(index, rel)
    # related[c]: R relates a's element at the cell's stage to the cell's mask
    related = _related(squares, index, a.masks)
    alpha = _schema_valuation(a, rel, related)
    report: dict = {"relation": rel.name, "a_is_global_element": a.satisfies_matching,
                    **_law_statuses(alpha, unit=_unit_witness_with_stage)}
    holds = {name: v["status"] == HOLDS for name, v in report["properties"].items()}
    analyses = report["analyses"] = {}

    # (i) characterization: R stable under coarse-graining, computed on R alone
    stable, w = _stable_under_coarse_graining(index, related)
    analyses["stability_under_coarse_graining"] = _status(stable, w)
    analyses["sievehood_paths_agree"] = holds["sievehood"] == stable

    # (i) sufficient condition: coarse-graining preserves R on both arguments
    pres, w = _preserved_by_coarse_graining(index, squares)
    analyses["coarse_graining_preserves_relation"] = _status(pres, w)

    # (iii) null proposition, characterized: R relates no sub-stage's
    # element to its null proposition
    k = _first(np.take(related, index.sub_null_cells))
    char_ok = k is None
    char_w = None if char_ok else {"v1": index.ids[index.pair_indices[k][1]],
                                   "v2": index.ids[index.pair_indices[k][0]]}
    analyses["null_characterization"] = _status(char_ok, char_w)
    analyses["null_paths_agree"] = holds["null"] == char_ok

    # (iv) monotonicity, characterized, and the sufficient condition
    iso, w = _isotone_under_coarse_graining(index, related)
    analyses["isotone_under_coarse_graining"] = _status(iso, w)
    analyses["monotonicity_paths_agree"] = holds["monotonicity"] == iso
    stab, w = _stable_under_enlargement(index, related)
    analyses["stable_under_enlargement"] = _status(stab, w)
    return report


def _stable_under_coarse_graining(index: PosetIndex, related: np.ndarray):
    """R is stable under coarse-graining: for every comparable k <= j and
    mask m of j, R(a_j, m) gives R(a_k, cg m).  Decided on R's cells alone,
    over the entries (j, m, k) of the "below" gather, with no member
    matrix.  Where coarse-graining composes along k <= j <= i and the
    reflexive tables are the identity, this is exactly sievehood of the
    schema valuation, so comparing the two checks the maps as well.

    The witness is the first cell whose stages where R holds at the
    coarse-grained mask form no sieve, and in it their leak
    (`PosetIndex.leak`: v2, the first whose down-set they leave, and v3,
    the lowest stage left out there); where the maps are broken so that
    no cell shows one, it is the first failing entry (v1 = j, v2 = k,
    mask m)."""
    g = index.gather("below")
    e = _first(related[g.cell] & ~related[g.target])
    if e is None:
        return True, None
    member = related[g.target]
    c = _first(unclosed_cells(index, member, g.pack(member)))
    if c is None:
        cell = g.cell[e]
        return False, {"v1": index.ids[int(index.cell_stage[cell])], "v2": index.ids[int(g.stage[e])],
                       "mask": int(index.cell_mask[cell])}
    row = 0
    for e in range(g.start[c], g.start[c + 1]):
        if related[g.target[e]]:
            row |= 1 << int(g.stage[e])
    mid, sub = index.leak(row)
    return False, {"v1": index.ids[int(index.cell_stage[c])], "v2": index.ids[mid],
                   "v3": index.ids[sub], "mask": int(index.cell_mask[c])}


def _preserved_by_coarse_graining(index: PosetIndex, squares: np.ndarray):
    """R(x, y) at a stage gives R(cg x, cg y) at every proper sub-stage: one
    gather over every (pair, x, y) from R's squares (`_relation_squares`);
    the first failure in that order."""
    pairs, first, target, source = index.coarse_squares
    if not pairs:
        return True, None
    e = _first(np.take(squares, source) > np.take(squares, target))
    if e is None:
        return True, None
    k = int(np.searchsorted(first, e, side="right")) - 1
    sub, sup = pairs[k]
    x, y = divmod(e - int(first[k]), 1 << index.n_atoms[sup])
    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "x": x, "y": y}


def _isotone_under_coarse_graining(index: PosetIndex, related: np.ndarray):
    """Along each comparable pair (sub, sup), R at sub must be monotone in
    the coarse-graining of sup's masks.  Decided along sup's covers, each
    carried to sub through the gather's entries (`cover_targets`); the
    first failing pair in `pair_indices` order is scanned for its
    witness."""
    lo, hi, pair = index.cover_targets
    bad = np.take(related, lo) > np.take(related, hi)
    if not bad.any():
        return True, None
    sub, sup = index.pair_indices[int(pair[bad].min())]
    at_sub = related[index.cell_start[sub] + np.array(index.coarse(sub, sup))].tolist()
    p, q = first_superset_failure(len(at_sub), lambda p, q: at_sub[p] and not at_sub[q])
    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "p": p, "q": q}


def _stable_under_enlargement(index: PosetIndex, related: np.ndarray):
    """R at a's element must be monotone in the right mask at every stage:
    decided along the covers, the first failing stage scanned for its
    witness."""
    lo, hi = index.mask_covers
    e = _first(related[lo] & ~related[hi])
    if e is None:
        return True, None
    i = int(index.cell_stage[lo[e]])
    first = int(index.cell_start[i])
    at_stage = related[first:first + (1 << index.n_atoms[i])].tolist()
    s, t = first_superset_failure(len(at_stage), lambda s, t: at_stage[s] and not at_stage[t])
    return False, {"v1": index.ids[i], "s": s, "t": t}


def survey_properties_sigma(a: SubobjectSigma, rel: Relation) -> dict:
    """Six-property survey for the character-set schema: membership by
    relating a's character set to the restriction of the proposition's
    certain set, both atom masks.  Regularity (non-emptiness, tightness)
    is reported, not enforced."""
    poset = a.poset
    related = _related(_relation_squares(poset.index, rel), poset.index, a.masks)
    alpha = MorphismSetValuation._gathered(poset, related, "below_image",
                                           name=f"alpha^(a,{rel.name})_sigma")
    regularity = {
        "nonempty_everywhere": all(a.masks),
        "subobject_law": a.satisfies_law,
        "tight": a.is_tight,
    }
    return {"relation": rel.name, "regularity": regularity, **_law_statuses(alpha)}


def survey_properties_o(a: dict[str, frozenset[float]], rel_name: str,
                        category: OperatorCategory) -> dict:
    """Six-property survey for the eigenvalue-set schema over an operator
    category: a stage (arrow) enters when the relation holds between a's
    eigenvalue set at the arrow's source and the image of the proposition's
    eigenvalue set, both masks over spectrum indices.  Subsethood is the
    distinguished relation.  A value of `a` outside its operator's
    spectrum raises `OcatError`.

    The arrows are the stages of `category.index`, so the laws are the
    shared checkers; witnesses name operators by id and eigenvalue sets by
    masks over spectrum indices."""
    if rel_name not in BUILTIN_SET_RELATIONS:
        raise KeyError(f"unknown set relation {rel_name!r}")
    rel = BUILTIN_SET_RELATIONS[rel_name]
    regularity = {
        "nonempty_everywhere": all(a.get(oid) for oid in category.ids),
        "covers_category": set(a) >= set(category.ids),
    }
    if not regularity["covers_category"]:
        return {"relation": rel_name, "regularity": regularity,
                "properties": {}, "all_hold": False,
                "skipped": "assignment does not cover the category"}
    index = category.index
    objects = category.objects
    masks = [objects[oid].mask_of(a[oid]) for oid in index.ids]
    alpha = MorphismSetValuation._gathered(category, _related(_relation_squares(index, rel), index, masks),
                                           "below", name=f"alpha^(a,{rel_name})_o")
    return {"relation": rel_name, "regularity": regularity, **_law_statuses(alpha)}
