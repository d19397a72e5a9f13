"""Sieve-valued valuations, their truth sets, supports and intervals.

A valuation assigns to each (context, lattice element) a set of
subcontexts; the sieve-valued ones are the generalized truth values of the
theory.  Quantum states induce such valuations: a stage enters when the
coarse-grained proposition is certain for the state (`nu_rho`), or certain
with probability at least r (`nu_rho_r`).  The checkers below verify the
defining clauses of a generalized valuation, the support/interval
compatibility laws, and the two mutual-determination theorems relating
sieve-valued valuations to interval valuations.

A valuation is one member matrix: a row per cell (context, mask), a bit
per context, packed into uint64 words, its only stored form.  A state, a
projector or character assignment, or a relation decides each cell once,
as one bool vector over the cells (for a state, one batched Born decision
over the distinct matrices of the poset's stacked lattice projectors),
and the matrix is one gather of that vector through `PosetIndex.gather`:
stage j enters (i, mask) when the cell of j and the mask's image at j was
decided true, images by coarse-graining ("below") or by restriction
("below_image"), the member entries scattered into the packed rows in one
step (`Gather.pack`).  Rows become ids only where a report names
members: `dump` looks the whole matrix up at once in the poset index's
id tuples, a witness or a query converts only the rows it reads to int
bitmasks.

A report's per-context values are lookups in tables that the poset index
builds on first use and shares between valuations: `support` returns the
index's `LatticeElement` of the cell and `interval` its character set,
both immutable.  What a caller may mutate is fresh per call: `dump`
builds new dicts and lists on every call.  The supports' global element
and the interval subobject are built from the mask tuples of
`_supports` and `_intervals`, which they keep (`masks`) for the
valuations rebuilt from them.

Each law is one array reduction over the matrix, or over the per-entry
member bits of a gather, and its witness is the first failing entry in
the order of the scan that defined it: cells by context and mask for
sievehood, null, unit, the characterization and equality; comparable
pairs, then masks, for functional composition; context, mask, then
subcontext for condition (i).  Monotonicity is decided along the covers
of each lattice, and only a failing stage is scanned again for its
(p, q).  The pair laws on supports and intervals (matching, the subobject
law, tightness) are `presheaves._first_failing_pair`, which also sets the
flags of `GlobalElementG` and `SubobjectSigma`.  Law results are kept on
the valuation, so the clause report, both theorems and both
reconstructions share them.

The routes stay independent: condition (i) is read off the valuation's
own matrix, never off the rebuilt valuation, so `iff_consistent` compares
two verdicts; `routes_agree` compares a reduction over the restriction
gather with one over the coarse-graining gather; and
`check_subobject_condition` lifts supports through the partition maps.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contexts import ContextPoset
from .index import (
    Character,
    ContextError,
    LatticeElement,
    PosetIndex,
    bit_list,
    nonzero_rows,
    pack_ints,
    row_ints,
)
from .linalg import DensityMatrix, certain_each, probability_each
from .presheaves import GlobalElementG, Sieve, SubobjectSigma, _first_failing_pair, make_sieve
from .sampling import random_density, random_poset
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class ValuationParams:
    """The probability threshold of the r-family; strictly interior values
    relax certainty, r = 1 recovers the probability-1 valuation."""

    r: float

    def __post_init__(self):
        if not 0 < self.r <= 1:
            raise ValueError(f"r must lie in (0, 1], got {self.r}")


class MorphismSetValuation:
    """Assignment (context, mask) -> set of subcontext ids.

    Member sets are only required to lie below the queried context; the
    sieve-valued subclass additionally guarantees downward closure.

    A member set is an int bitmask over the context indices of
    `poset.index`, and the member sets of every cell (context, mask) form
    one member matrix, kept only as packed uint64 rows (`PosetIndex.words`
    per cell).  The matrix is made when the valuation is built: the
    valuations of this package gather it (`_gathered`, one decision per
    cell through a `PosetIndex.gather` table), and a rule-backed one asks
    its rule once per cell, in cell order, and checks the member ids it
    gives in sorted order.  The law checkers read nothing of `poset` but
    its `index`, so it may also be an `OperatorCategory`, whose arrows are
    the stages.  Truth sets, supports, intervals and law results are kept
    per valuation.
    """

    def __init__(self, poset: ContextPoset, rule: Callable[[str, int], frozenset[str]],
                 name: str = "alpha"):
        index = poset.index

        def bits_rule(i: int, mask: int) -> int:
            cid = index.ids[i]
            out = 0
            for m in sorted(frozenset(rule(cid, mask))):
                j = index.pos.get(m)
                if j is None or not index.down[i] >> j & 1:
                    raise ContextError(f"valuation returned {m!r} above the apex {cid!r}")
                out |= 1 << j
            return out

        ints = [bits_rule(i, m) for i, n in enumerate(index.n_atoms) for m in range(1 << n)]
        self._setup(poset, name, pack_ints(ints, index.words))

    @classmethod
    def _gathered(cls, poset: ContextPoset, decided: np.ndarray, route: str,
                  name: str) -> "MorphismSetValuation":
        """The valuation in which stage j enters (stage i, mask) exactly when
        `decided` holds at the cell of j and the mask's image there, images
        along `route`: "below" coarse-grains, "below_image" restricts."""
        index = poset.index
        g = index.gather(route)
        alpha = cls.__new__(cls)
        alpha._setup(poset, name, g.pack(decided[g.target]))
        return alpha

    def _setup(self, poset: ContextPoset, name: str, words: np.ndarray) -> None:
        self.poset = poset
        self.name = name
        self._index = poset.index
        self._first = self._index.cell_start.tolist()
        self._matrix = words
        self._laws: dict = {}

    def _position(self, cid: str) -> int:
        i = self._index.pos.get(cid)
        if i is None:
            raise ContextError(f"unknown context {cid!r}")
        return i

    def _row(self, c: int) -> int:
        """Member bitmask of cell c, converted from its row alone."""
        return row_ints(self._matrix[c:c + 1])[0]

    def _bits(self, i: int, mask: int) -> int:
        """Member bitmask of (context index, mask), read off the matrix."""
        return self._row(self._first[i] + mask)

    def _truth(self, i: int) -> tuple[int, ...]:
        """The masks of context index i sent to the principal sieve, ascending."""
        first = self._index.cell_start
        return tuple(np.flatnonzero(_truth_flags(self)[first[i]:first[i + 1]]).tolist())

    def _support(self, i: int) -> int | None:
        """Infimum of the truth set of context index i; None when it is empty."""
        return _supports(self)[i]

    def _interval(self, i: int) -> int:
        """Atom mask of the interval: the support, or every atom when the
        truth set is empty."""
        return _intervals(self)[i]

    def _cell(self, cid: str, mask: int) -> tuple[int, int]:
        """(context index, member bitmask) of a query by id."""
        i = self._position(cid)
        if not 0 <= mask < 1 << self._index.n_atoms[i]:
            raise ContextError(f"mask {mask} out of range for context {cid!r}")
        return i, self._bits(i, mask)

    def members(self, cid: str, mask: int) -> frozenset[str]:
        return self._index.id_set(self._cell(cid, mask)[1])

    def is_sieve_valued(self) -> tuple[bool, dict | None]:
        """Downward closure of every member set, over the whole matrix."""
        w = _sieve_witness(self)
        return w is None, w

    def dump(self) -> dict:
        """{context -> {maskHex -> [member ids]}} over the full lattice,
        each stage's dict zipped from the shared hex keys and the index's
        shared name tuples; every call returns fresh dicts and lists."""
        index = self._index
        rows = list(map(list, index.row_names(self._matrix)))
        first = self._first
        return {cid: dict(zip(_mask_keys(n), rows[first[i]:first[i + 1]]))
                for i, (cid, n) in enumerate(zip(index.ids, index.n_atoms))}


@functools.lru_cache(maxsize=None)
def _mask_keys(n: int) -> tuple[str, ...]:
    """The hex keys of the masks of an n-atom context, ascending."""
    return tuple(format(mask, "x") for mask in range(1 << n))


class Valuation(MorphismSetValuation):
    """A sieve-valued valuation: every query returns a validated Sieve."""

    def evaluate(self, cid: str, p: LatticeElement) -> Sieve:
        if p.context_id != cid:
            raise ContextError("lattice element belongs to a different context")
        return make_sieve(self.poset, cid, self.members(cid, p.mask))


def from_table(poset: ContextPoset, table: dict[tuple[str, int], frozenset[str]],
               name: str = "table") -> MorphismSetValuation:
    """A table-backed valuation (test double); missing entries are empty."""
    def rule(cid: str, mask: int) -> frozenset[str]:
        return frozenset(table.get((cid, mask), frozenset()))
    return MorphismSetValuation(poset, rule, name=name)


def _cell_decisions(rho: DensityMatrix, poset: ContextPoset,
                    decide_each: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The stage decision of a state valuation, per cell: `decide_each` is
    called once, on the distinct matrices of the poset's stacked lattice
    projectors, and each cell takes the decision of its matrix."""
    stack = poset.lattice
    if not stack.offsets:
        return np.zeros(0, dtype=bool)
    if stack.entries.shape[1:] != rho.entries.shape:
        raise ContextError("state dimension does not match the poset")
    matrices, which = stack.distinct
    return decide_each(matrices)[which]


def nu_rho(rho: DensityMatrix, poset: ContextPoset, tol: Tolerances = DEFAULT) -> Valuation:
    """The sieve-valued valuation of a state: a stage enters when the
    coarse-grained proposition has Born probability 1 there.  Every
    (stage, mask) is decided in one `certain_each` call when the
    valuation is built."""
    decided = _cell_decisions(rho, poset, lambda stack: certain_each(rho, stack, tol))
    return Valuation._gathered(poset, decided, "below", name="nu_rho")


def nu_rho_r(rho: DensityMatrix, r: float, poset: ContextPoset,
             tol: Tolerances = DEFAULT) -> MorphismSetValuation:
    """The probability-r relaxation: a stage enters when the coarse-grained
    proposition has Born probability >= r there, every (stage, mask)
    decided in one batched trace.  Always sieve-valued (the trace grows
    under coarse-graining); exclusivity may fail for r < 0.5."""
    ValuationParams(r)
    if abs(r - 1.0) < tol.r_slack:
        return nu_rho(rho, poset, tol)
    decided = _cell_decisions(rho, poset, lambda stack: probability_each(rho, stack) >= r - tol.r_slack)
    return MorphismSetValuation._gathered(poset, decided, "below", name=f"nu_rho_r[{r}]")


@dataclass(frozen=True)
class TruthSet:
    """The lattice elements a valuation sends to the principal sieve."""

    context_id: str
    members: frozenset[int]


def truth_set(alpha: MorphismSetValuation, cid: str) -> TruthSet:
    return TruthSet(cid, frozenset(alpha._truth(alpha._position(cid))))


def support(alpha: MorphismSetValuation, cid: str) -> LatticeElement | None:
    """Infimum of the truth set at a stage; None flags an empty truth set
    (a degenerate valuation, excluded from the support-based theorems)."""
    i = alpha._position(cid)
    mask = alpha._support(i)
    return None if mask is None else alpha._index.element(i, mask)


def interval(alpha: MorphismSetValuation, cid: str) -> frozenset[Character]:
    """Characters valuing every truth-set member at 1.  Over a finite
    spectrum this is the character set of the support (when it exists);
    the empty intersection convention yields the whole spectrum.  The set
    is the poset index's shared one for that cell."""
    i = alpha._position(cid)
    return alpha._index.characters(i, alpha._interval(i))


# --------------------------------------------------------------------------
# the laws, each one reduction over the member matrix
#
# A law's result is kept on the valuation, so the clause report, both
# theorems and both reconstructions share it; a witness is the first
# failing entry in the order of the scan that defines it.

def _law(compute):
    """Run `compute(alpha, *args)` once per valuation and arguments."""
    @functools.wraps(compute)
    def run(alpha: MorphismSetValuation, *args):
        key = (compute.__name__, *args)
        laws = alpha._laws
        if key not in laws:
            laws[key] = compute(alpha, *args)
        return laws[key]
    return run


def _witness(find):
    """A law's witness finder, run once per valuation and arguments; each
    caller gets its own copy of the witness."""
    kept = _law(find)

    @functools.wraps(find)
    def run(alpha: MorphismSetValuation, *args):
        return copy.deepcopy(kept(alpha, *args))
    return run


def _first(flags: np.ndarray) -> int | None:
    """The position of the first true entry, or None."""
    if not flags.size:
        return None
    k = int(flags.argmax())
    return k if flags[k] else None


def _cell_of(index: PosetIndex, c: int) -> tuple[int, int]:
    """(stage index, mask) of a cell."""
    return int(index.cell_stage[c]), int(index.cell_mask[c])


def unclosed_cells(index: PosetIndex, member: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per cell, whether its member set leaves out part of a member's
    down-set, the members given per entry of the coarse-graining gather
    and as the packed rows they form (`Gather.pack`): decided per member
    entry, whose stage's down-set must lie in its cell's row.  As OR
    distributes, that is the OR of the members' down-sets against the OR
    of their bits."""
    g = index.gather("below")
    e = np.flatnonzero(member)
    leaves = nonzero_rows(np.take(g.stage_down, e, axis=0) & ~np.take(rows, g.cell[e], axis=0))
    out = np.zeros(len(rows), dtype=bool)
    out[g.cell[e[leaves]]] = True
    return out


def first_superset_failure(size: int, fails: Callable[[int, int], bool]) -> tuple[int, int]:
    """The scan of a property that must hold from each mask to the masks
    above it, for a lattice known to fail it: the first (p, q) with
    `fails(p, q)`, p ascending and then q over the masks above p,
    ascending."""
    for p in range(size):
        q = p
        while q < size:
            if fails(p, q):
                return p, q
            q = (q + 1) | p
    raise ValueError("the property holds on every pair")


@_law
def _entry_members(alpha: MorphismSetValuation, route: str) -> np.ndarray:
    """Per entry of a route's gather, whether its stage is a member of its
    cell, read off the member matrix."""
    g = alpha._index.gather(route)
    bits = np.unpackbits(np.ascontiguousarray(alpha._matrix, dtype="<u8").view(np.uint8), bitorder="little")
    return np.take(bits, g.slot).view(bool)


@_law
def _truth_flags(alpha: MorphismSetValuation) -> np.ndarray:
    """Per cell, whether it is sent to the principal sieve."""
    return ~nonzero_rows(alpha._matrix ^ alpha._index.cell_down)


@_law
def _supports(alpha: MorphismSetValuation) -> tuple[int | None, ...]:
    """The support mask of every stage, in index order: the AND of the
    truth masks, one `reduceat` over the cells."""
    index = alpha._index
    if not index.ids:
        return ()
    truths = _truth_flags(alpha)
    starts = index.cell_start[:-1]
    meet = np.bitwise_and.reduceat(np.where(truths, index.cell_mask, index.cell_full), starts).tolist()
    some = np.logical_or.reduceat(truths, starts).tolist()
    return tuple(m if ok else None for m, ok in zip(meet, some))


@_law
def _intervals(alpha: MorphismSetValuation) -> tuple[int, ...]:
    """The interval mask of every stage, in index order."""
    return tuple((1 << n) - 1 if s is None else s
                 for s, n in zip(_supports(alpha), alpha._index.n_atoms))


def _degenerate(alpha: MorphismSetValuation) -> list[str]:
    return [cid for cid, s in zip(alpha._index.ids, _supports(alpha)) if s is None]


@_witness
def _sieve_witness(alpha: MorphismSetValuation) -> dict | None:
    """Sievehood: the first cell whose member set is not downward closed."""
    index = alpha._index
    c = _first(unclosed_cells(index, _entry_members(alpha, "below"), alpha._matrix))
    if c is None:
        return None
    i, mask = _cell_of(index, c)
    return {"v1": index.ids[i], "mask": mask, "members": list(index.names(alpha._row(c)))}


@_witness
def _func_witness(alpha: MorphismSetValuation) -> dict | None:
    """Functional composition: alpha(V2, coarse-grained P) is alpha(V1, P)
    cut down to V2.  The first failing entry of the coarse-graining gather,
    in the scan's order: comparable pairs as in `pair_indices`, then
    masks."""
    index = alpha._index
    g = index.gather("below")
    words = alpha._matrix
    differ = np.take(words, g.cell, axis=0)
    differ &= g.stage_down
    differ ^= np.take(words, g.target, axis=0)
    bad = np.flatnonzero(nonzero_rows(differ))
    if not len(bad):
        return None
    e = bad[np.lexsort((g.cell[bad], g.pair[bad]))[0]]
    sup, mask = _cell_of(index, g.cell[e])
    sub = int(g.stage[e])
    return {"v1": index.ids[sup], "v2": index.ids[sub], "mask": mask,
            "lhs": list(index.names(alpha._row(g.target[e]))),
            "rhs": list(index.names(alpha._row(g.cell[e]) & index.down[sub]))}


@_witness
def _null_witness(alpha: MorphismSetValuation) -> dict | None:
    """The first stage whose null proposition has members."""
    index = alpha._index
    i = _first(nonzero_rows(np.take(alpha._matrix, index.cell_start[:-1], axis=0)))
    return None if i is None else {"v1": index.ids[i], "members": list(index.names(alpha._bits(i, 0)))}


@_witness
def _monotonicity_witness(alpha: MorphismSetValuation) -> dict | None:
    """Monotonicity, decided along the covers of each lattice.  The first
    stage with a failing cover is the first failing stage; its witness is
    the scan's first (p, q)."""
    index = alpha._index
    words = alpha._matrix
    lo, hi = index.mask_covers
    e = _first(nonzero_rows(np.take(words, lo, axis=0) & ~np.take(words, hi, axis=0)))
    if e is None:
        return None
    i = int(index.cell_stage[lo[e]])
    row = row_ints(words[alpha._first[i]:alpha._first[i + 1]])
    p, q = first_superset_failure(len(row), lambda p, q: row[p] & ~row[q])
    return {"v1": index.ids[i], "p": p, "q": q}


@_witness
def _exclusivity_witness(alpha: MorphismSetValuation) -> dict | None:
    """The first (stage, p, q) with p and q disjoint truth-set members."""
    index = alpha._index
    truths = _truth_flags(alpha)
    lo, hi = index.disjoint_cells
    e = _first(truths[lo] & truths[hi])
    if e is None:
        return None
    i, p = _cell_of(index, lo[e])
    return {"v1": index.ids[i], "p": p, "q": int(index.cell_mask[hi[e]])}


@_witness
def _unit_witness(alpha: MorphismSetValuation) -> dict | None:
    """The first stage whose unit proposition is not sent to the principal
    sieve."""
    index = alpha._index
    units = np.take(alpha._matrix, index.cell_start[1:] - 1, axis=0)
    i = _first(nonzero_rows(units ^ index.down_words))
    return None if i is None else {"v1": index.ids[i]}


def _clause_statuses(alpha: MorphismSetValuation, holds: str = "pass", fails: str = "fail",
                     unit=_unit_witness) -> dict[str, dict]:
    """The six laws of a generalized valuation by the shared checkers, each
    as {"status": holds or fails, "witness": None or the failure}: (i)
    sievehood, the downward closure of every member set; (ii) functional
    composition; (iii) the null proposition; (iv) monotonicity; (v)
    exclusivity, where a certain proposition leaves no disjoint one without
    a refuting stage; and (vi) the unit proposition, whose witness comes
    from `unit`."""
    out = {}
    for clause, find in (("sievehood", _sieve_witness), ("func", _func_witness),
                         ("null", _null_witness), ("monotonicity", _monotonicity_witness),
                         ("exclusivity", _exclusivity_witness), ("unit", unit)):
        w = find(alpha)
        out[clause] = {"status": holds if w is None else fails, "witness": w}
    return out


def check_definition3(alpha: MorphismSetValuation) -> dict:
    """Exhaustive per-clause report for the generalized-valuation laws:
    sieve-valuedness, functional composition, null proposition,
    monotonicity, exclusivity, unit proposition."""
    report = _clause_statuses(alpha)
    report["passed"] = all(v["status"] == "pass" for v in report.values())
    return report


def check_subobject_condition(alpha: MorphismSetValuation) -> dict:
    """Supports may only grow when passing to a coarser stage (the law that
    makes interval assignments a subobject of the spectral presheaf)."""
    degenerate = _degenerate(alpha)
    if degenerate:
        return {"status": "degenerate", "witness": None, "degenerate": degenerate}
    index = alpha._index
    first, lift = index.proper_lifts   # raises for a pair without a partition map
    sub, sup, _ = index.proper_pairs
    s = np.array(_supports(alpha), dtype=np.intp)
    # each pair lifts the sub-stage support through its partition map
    lifted = np.take(lift, first + s[sub])
    k = _first(lifted & s[sup] != s[sup])
    if k is None:
        return {"status": "pass", "witness": None, "degenerate": []}
    s_sub, s_sup = int(s[sub[k]]), int(s[sup[k]])
    return {
        "status": "fail",
        "witness": {"v1": index.ids[sup[k]], "v2": index.ids[sub[k]], "s1": s_sup, "s2": s_sub},
        "degenerate": [],
    }


def check_global_element_condition(alpha: MorphismSetValuation) -> dict:
    """Supports must match up exactly under coarse-graining (i.e. form a
    global element of the coarse-graining presheaf)."""
    degenerate = _degenerate(alpha)
    if degenerate:
        return {"status": "degenerate", "witness": None, "degenerate": degenerate}
    index = alpha._index
    supports = _supports(alpha)
    found = _first_failing_pair(index, supports, "below")
    if found is None:
        return {"status": "pass", "witness": None, "degenerate": []}
    sub, sup, cg = found
    witness = {"v1": index.ids[sup], "v2": index.ids[sub],
               "support_v2": supports[sub], "coarse_grained_support_v1": cg}
    return {"status": "fail", "witness": witness, "degenerate": []}


def supports_global_element(alpha: MorphismSetValuation) -> GlobalElementG:
    """Package the supports of a valuation as a (possibly broken) projector
    assignment; callers inspect `satisfies_matching`."""
    supports = _supports(alpha)
    if None in supports:
        cid = alpha._index.ids[supports.index(None)]
        raise ContextError(f"empty truth set at {cid!r}: no support to package")
    return GlobalElementG._of_masks(alpha.poset, supports)


def _inside_each(index: PosetIndex, chosen: tuple[int, ...]) -> np.ndarray:
    """Per cell (stage j, mask m): whether chosen[j] lies inside m."""
    return (np.array(chosen, dtype=np.int64)[index.cell_stage] & ~index.cell_mask) == 0


def alpha_from_global_element(a: GlobalElementG) -> MorphismSetValuation:
    """The valuation induced by a projector assignment: a stage enters when
    the assigned projector there lies below the coarse-grained proposition.
    Sieve-valued whenever `a` really is a global element; its supports
    always reproduce `a`."""
    return MorphismSetValuation._gathered(a.poset, _inside_each(a.poset.index, a.masks), "below",
                                          name="alpha^a")


def alpha_from_subobject(a: SubobjectSigma) -> MorphismSetValuation:
    """The valuation induced by a character-set assignment: a stage enters
    when its assigned characters all lie in the restriction of the
    proposition's certain set.  Sieve-valued whenever `a` is tight."""
    return MorphismSetValuation._gathered(a.poset, _inside_each(a.poset.index, a.masks), "below_image",
                                          name="alpha^a_sigma")


def valuations_equal(a: MorphismSetValuation, b: MorphismSetValuation) -> tuple[bool, dict | None]:
    """Set equality of member ids at every stage and lattice element (both
    valuations over posets with the same contexts): the first differing
    row of the two member matrices."""
    index = a._index
    if b._index.ids != index.ids or b._index.n_atoms != index.n_atoms:
        raise ContextError("valuations over posets with different contexts")
    c = _first(nonzero_rows(a._matrix ^ b._matrix))
    if c is None:
        return True, None
    i, mask = _cell_of(index, c)
    return False, {"v1": index.ids[i], "mask": mask,
                   "lhs": list(index.names(a._row(c))), "rhs": list(index.names(b._row(c)))}


@_witness
def _condition_i(alpha: MorphismSetValuation, route: str, chosen: tuple[int, ...],
                 inside_key: str | None) -> tuple[bool, dict | None]:
    """Condition (i) of either theorem, one test per gather entry of
    `route` ("below" for the coarse-graining, "below_image" for the
    restriction): stage V2 is a member of alpha(V1, P) exactly when
    `chosen[V2]` lies inside the image of P at V2.  The witness is the
    first mismatch, in stage, mask and subcontext order; `inside_key`
    names its containment verdict, which the iso route leaves out."""
    index = alpha._index
    g = index.gather(route)
    inside = (np.array(chosen, dtype=np.int64)[g.stage] & ~g.image) == 0
    e = _first(inside != _entry_members(alpha, route))
    if e is None:
        return True, None
    sup, mask = _cell_of(index, g.cell[e])
    witness = {"v1": index.ids[sup], "v2": index.ids[g.stage[e]], "mask": mask}
    if inside_key is not None:
        witness.update({inside_key: bool(inside[e]), "member": not inside[e]})
    return False, witness


@_witness
def _characterization(alpha: MorphismSetValuation, route: str,
                      chosen: tuple[int, ...]) -> tuple[bool, dict | None]:
    """The characterization both theorems conclude: alpha(V1, P) is the set
    of stages V2 at which the image of `chosen[V1]` lies inside the image
    of P, both images read along `route`.  The image of `chosen[V1]` at V2
    is that of the entry of cell (V1, chosen[V1]) for the same V2; the
    witness is the first failing cell."""
    index = alpha._index
    g = index.gather(route)
    # per stage V1, the first entry of its cell (V1, chosen[V1])
    first = g.start[index.cell_start[:-1] + np.array(chosen, dtype=np.intp)]
    own = g.image[first[g.cell_stage_of] + g.rank]
    expected = (own & ~g.image) == 0
    e = _first(expected != _entry_members(alpha, route))
    if e is None:
        return True, None
    c = int(g.cell[e])
    bits = 0
    for k in range(g.start[c], g.start[c + 1]):
        if expected[k]:
            bits |= 1 << int(g.stage[k])
    i, mask = _cell_of(index, c)
    return False, {"v1": index.ids[i], "mask": mask,
                   "lhs": list(index.names(alpha._row(c))), "rhs": list(index.names(bits))}


def _reconstruction(alpha: MorphismSetValuation, rebuilt: MorphismSetValuation,
                    condition_i: tuple[bool, dict | None]) -> tuple[MorphismSetValuation, dict]:
    """A rebuilt valuation with the report comparing it to the original:
    equality must hold exactly when condition (i), decided independently,
    does."""
    equal, witness = valuations_equal(alpha, rebuilt)
    cond_i, cond_witness = condition_i
    return rebuilt, {
        "equal": equal,
        "witness": witness,
        "condition_i": cond_i,
        "condition_i_witness": cond_witness,
        "iff_consistent": equal == cond_i,
    }


def reconstruct_from_supports(alpha: MorphismSetValuation) -> tuple[MorphismSetValuation, dict]:
    """Rebuild a valuation from its own supports and compare.

    The rebuilt valuation equals the original exactly when the original
    already decides membership by support containment (condition (i) of
    the support-side theorem); the report carries both verdicts and checks
    they agree.  Valuations with an empty truth set somewhere have no
    supports to rebuild from and are skipped.
    """
    degenerate = _degenerate(alpha)
    if degenerate:
        return alpha, {"degenerate": degenerate, "skipped": True}
    rebuilt = alpha_from_global_element(supports_global_element(alpha))
    return _reconstruction(alpha, rebuilt,
                           _condition_i(alpha, "below", _supports(alpha), "support_below"))


@_law
def _intervals_subobject(alpha: MorphismSetValuation) -> SubobjectSigma:
    """The interval assignment as a subobject, built once per valuation:
    `theorem2_verify` reads its flags and `reconstruct_from_intervals`
    rebuilds from it."""
    return SubobjectSigma._of_masks(alpha.poset, _intervals(alpha))


def reconstruct_from_intervals(alpha: MorphismSetValuation) -> tuple[MorphismSetValuation, dict]:
    """Rebuild a valuation from its own intervals and compare; equality holds
    exactly under condition (i) of the interval-side theorem."""
    rebuilt = alpha_from_subobject(_intervals_subobject(alpha))
    return _reconstruction(alpha, rebuilt,
                           _condition_i(alpha, "below_image", _intervals(alpha), "interval_inside"))


def _func_report(alpha: MorphismSetValuation) -> tuple[bool, dict | None]:
    w = _func_witness(alpha)
    return w is None, w


def _conclusions(alpha: MorphismSetValuation, route: str, chosen: tuple[int, ...],
                 cond_i: bool, cond_ii: bool) -> dict:
    """The conclusions either theorem draws from its conditions, each
    verified on its own (sievehood, functional composition and the
    characterization along `route` from `chosen`), and the two contracts:
    the conditions give every conclusion, and (i) alone gives functional
    composition."""
    sieve_ok, w_sieve = alpha.is_sieve_valued()
    func_ok, w_func = _func_report(alpha)
    charac_ok, w_charac = _characterization(alpha, route, chosen)
    conditions_hold = cond_i and cond_ii
    return {
        "conclusion_sieve": {"holds": sieve_ok, "witness": w_sieve},
        "conclusion_func": {"holds": func_ok, "witness": w_func},
        "conclusion_characterization": {"holds": charac_ok, "witness": w_charac},
        "conditions_hold": conditions_hold,
        "contract_ok": (not conditions_hold) or (sieve_ok and func_ok and charac_ok),
        "func_given_i_ok": (not cond_i) or func_ok,
    }


def theorem1_verify(alpha: MorphismSetValuation) -> dict:
    """Support-side mutual determination: under (i) membership-by-support
    and (ii) supports matching up under coarse-graining, the valuation is
    sieve-valued, obeys functional composition, and is characterized by its
    coarse-grained supports.  Conditions and conclusions are verified
    independently; (i) alone must already give functional composition."""
    degenerate = _degenerate(alpha)
    if degenerate:
        return {"degenerate": degenerate, "skipped": True}
    supports = _supports(alpha)
    cond_i, w_i = _condition_i(alpha, "below", supports, "support_below")
    ge_report = check_global_element_condition(alpha)
    cond_ii = ge_report["status"] == "pass"
    return {
        "degenerate": [],
        "skipped": False,
        "condition_i": {"holds": cond_i, "witness": w_i},
        "condition_ii": {"holds": cond_ii, "witness": ge_report["witness"]},
        **_conclusions(alpha, "below", supports, cond_i, cond_ii),
    }


def theorem2_verify(alpha: MorphismSetValuation) -> dict:
    """Interval-side mutual determination: condition (i) is
    membership-by-interval-containment, condition (ii) is tightness of the
    interval assignment under restriction; conclusions mirror the
    support-side theorem.  Condition (i) is additionally recomputed through
    the coarse-graining route (certain characters of the coarse-grained
    proposition) and the two routes must agree, which exercises the
    power-object isomorphism."""
    index = alpha._index
    ivals = _intervals(alpha)
    cond_i, w_i = _condition_i(alpha, "below_image", ivals, "interval_inside")
    sigma = _intervals_subobject(alpha)
    w_ii = None
    if not sigma.is_tight:
        sub, sup, restricted = _first_failing_pair(index, ivals, "below_image")
        w_ii = {"v1": index.ids[sup], "v2": index.ids[sub],
                "restricted": bit_list(restricted), "interval": bit_list(ivals[sub])}
    iso_ok, w_iso = _condition_i(alpha, "below", ivals, None)
    return {
        "condition_i": {"holds": cond_i, "witness": w_i},
        "condition_ii": {"holds": sigma.is_tight, "witness": w_ii},
        "condition_i_iso_route": {"holds": iso_ok, "witness": w_iso},
        "routes_agree": cond_i == iso_ok,
        "subobject_law": sigma.satisfies_law,
        **_conclusions(alpha, "below_image", ivals, cond_i, sigma.is_tight),
    }


_R_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)


def supportsmatch_draw(seed: int, i: int):
    """Draw i of the witness-search schedule: (state, r, poset), a pure
    function of (seed, i) so witnesses replay exactly."""
    rng = np.random.default_rng([seed, i])
    dim = int(rng.integers(2, 5))
    poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
    rho = random_density(rng, dim)
    r = float(_R_GRID[int(rng.integers(0, len(_R_GRID)))])
    return rho, r, poset


def search_supportsmatch_violation(seed: int, draws: int = 200) -> dict:
    """Seeded schedule of (state, r < 1, poset) draws hunting a violation of
    the support-matching law for the probability-r valuations.

    Each draw is reconstructible from (seed, index); a found witness is
    replayed from scratch before being reported.  Absence of a witness is
    reported as not-found, never as a law.
    """
    def draw(i: int):
        return supportsmatch_draw(seed, i)

    for i in range(draws):
        rho, r, poset = draw(i)
        report = check_global_element_condition(nu_rho_r(rho, r, poset))
        if report["status"] == "fail":
            rho2, r2, poset2 = draw(i)
            replay = check_global_element_condition(nu_rho_r(rho2, r2, poset2))
            if replay["status"] != "fail" or replay["witness"] != report["witness"]:
                raise RuntimeError("witness failed to replay deterministically")
            return {
                "status": "witness-of-failure",
                "draw": i,
                "seed": seed,
                "r": r,
                "dim": rho.dim,
                "witness": report["witness"],
                "replayed": True,
            }
    return {"status": "not-found-after-search", "draws": draws, "seed": seed}
