"""Sieve-valued valuations, their truth sets, supports and intervals.

A valuation assigns to each (context, lattice element) a set of
subcontexts; the sieve-valued ones are the generalized truth values of the
theory.  Quantum states induce such valuations: a stage enters when the
coarse-grained proposition is certain for the state (`nu_rho`), or certain
with probability at least r (`nu_rho_r`).  The checkers below verify the
defining clauses of a generalized valuation, the support/interval
compatibility laws, and the two mutual-determination theorems relating
sieve-valued valuations to interval valuations.

The theorem layer has one scan per law.  `_condition_i` decides condition
(i) and `_characterization` the characterization, each over every row of
the valuation, for supports or intervals and through coarse-graining or
restriction tables.  The pair laws on supports and intervals (matching,
the subobject law, tightness) are `presheaves._first_failing_pair`, the
scan that also sets the flags of `GlobalElementG` and `SubobjectSigma`.
The routes stay independent: condition (i) is read off the valuation's
rows, never off the rebuilt valuation, so `iff_consistent` compares two
verdicts; `routes_agree` compares a scan over restriction tables with one
over coarse-graining tables; and `check_subobject_condition` lifts
supports through the partition maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contexts import Character, ContextError, ContextPoset, LatticeElement, PosetIndex, bit_list
from .linalg import DensityMatrix, certain_each
from .presheaves import GlobalElementG, Sieve, SubobjectSigma, _first_failing_pair, index_mask, make_sieve
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
    """Assignment (context, mask) -> set of subcontext ids, memoized.

    Member sets are only required to lie below the queried context; the
    sieve-valued subclass additionally guarantees downward closure.

    Internally a member set is an int bitmask over the context indices of
    `poset.index`, each (context, mask) cell is computed once, and truth
    sets, supports and intervals are memoised per valuation.  `rule` gives
    member ids; the valuations built in this package give bitmasks directly
    (`_from_bits`).
    """

    def __init__(self, poset: ContextPoset, rule: Callable[[str, int], frozenset[str]],
                 name: str = "alpha"):
        index = poset.index

        def bits_rule(i: int, mask: int) -> int:
            cid = index.ids[i]
            out = 0
            for m in frozenset(rule(cid, mask)):
                j = index.pos.get(m)
                if j is None or not index.down[i] >> j & 1:
                    raise ContextError(f"valuation returned {m!r} above the apex {cid!r}")
                out |= 1 << j
            return out

        self._setup(poset, bits_rule, name)

    @classmethod
    def _from_bits(cls, poset: ContextPoset, bits_rule: Callable[[int, int], int],
                   name: str) -> "MorphismSetValuation":
        """A valuation whose rule gives the member bitmask of (context
        index, mask); the rule must only set bits of the context's down-set.
        The law checkers read nothing of `poset` but its `index`, so it may
        also be an `OperatorCategory`, whose arrows are the stages."""
        alpha = cls.__new__(cls)
        alpha._setup(poset, bits_rule, name)
        return alpha

    def _setup(self, poset: ContextPoset, bits_rule: Callable[[int, int], int], name: str) -> None:
        self.poset = poset
        self.name = name
        self._index = poset.index
        self._bits_rule = bits_rule
        n = len(self._index.ids)
        self._rows: list[list[int | None] | None] = [None] * n
        self._complete = [False] * n
        self._truths: list[tuple[int, ...] | None] = [None] * n
        self._supports: list[int | None] = [None] * n

    def _position(self, cid: str) -> int:
        i = self._index.pos.get(cid)
        if i is None:
            raise ContextError(f"unknown context {cid!r}")
        return i

    def _bits(self, i: int, mask: int) -> int:
        """Member bitmask of (context index, mask), computed once."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [None] * (1 << self._index.n_atoms[i])
        bits = row[mask]
        if bits is None:
            bits = row[mask] = self._bits_rule(i, mask)
        return bits

    def _row(self, i: int) -> list[int]:
        """Member bitmasks of every mask of context index i, in mask order."""
        if not self._complete[i]:
            for mask in range(1 << self._index.n_atoms[i]):
                self._bits(i, mask)
            self._complete[i] = True
        return self._rows[i]

    def _truth(self, i: int) -> tuple[int, ...]:
        """The masks of context index i sent to the principal sieve, ascending."""
        t = self._truths[i]
        if t is None:
            top = self._index.down[i]
            t = self._truths[i] = tuple(m for m, bits in enumerate(self._row(i)) if bits == top)
            if t:
                mask = (1 << self._index.n_atoms[i]) - 1
                for m in t:
                    mask &= m
                self._supports[i] = mask
        return t

    def _support(self, i: int) -> int | None:
        """Infimum of the truth set of context index i; None when it is empty."""
        self._truth(i)
        return self._supports[i]

    def _interval(self, i: int) -> int:
        """Atom mask of the interval: the support, or every atom when the
        truth set is empty."""
        s = self._support(i)
        return (1 << self._index.n_atoms[i]) - 1 if s is None else s

    def _cell(self, cid: str, mask: int) -> tuple[int, int]:
        """(context index, member bitmask) of a query by id."""
        i = self._position(cid)
        if not 0 <= mask < 1 << self._index.n_atoms[i]:
            raise ContextError(f"mask {mask} out of range for context {cid!r}")
        return i, self._bits(i, mask)

    def members(self, cid: str, mask: int) -> frozenset[str]:
        return self._index.id_set(self._cell(cid, mask)[1])

    def is_true(self, cid: str, mask: int) -> bool:
        i, bits = self._cell(cid, mask)
        return bits == self._index.down[i]

    def is_sieve_valued(self) -> tuple[bool, dict | None]:
        """Exhaustively check downward closure of every member set."""
        index = self._index
        for i, cid in enumerate(index.ids):
            for mask, bits in enumerate(self._row(i)):
                if index.closure(bits) & ~bits:
                    return False, {"v1": cid, "mask": mask, "members": list(index.names(bits))}
        return True, None

    def dump(self) -> dict:
        """{context -> {maskHex -> [member ids]}} over the full lattice."""
        index = self._index
        return {
            cid: {format(mask, "x"): list(index.names(bits)) for mask, bits in enumerate(self._row(i))}
            for i, cid in enumerate(index.ids)
        }


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


def stage_rule(index: PosetIndex, below: Callable[[int], tuple],
               decide: Callable[[int, int], bool]) -> Callable[[int, int], int]:
    """The member rule "stage j enters (context i, mask) when `decide`
    holds for j and the image of the mask at j", with `below(i)` giving
    (j, table of images) for the stages below i: `index.below` maps a
    proposition to its coarse-graining, `index.below_image` to the
    restriction of its characters.  `decide` is called at most once per
    (stage index, stage mask)."""
    decided: list[list[bool | None] | None] = [None] * len(index.ids)

    def rule(i: int, mask: int) -> int:
        out = 0
        for j, table in below(i):
            row = decided[j]
            if row is None:
                row = decided[j] = [None] * (1 << index.n_atoms[j])
            m = table[mask]
            hit = row[m]
            if hit is None:
                hit = row[m] = decide(j, m)
            if hit:
                out |= 1 << j
        return out

    return rule


def _cell_decisions(rho: DensityMatrix, poset: ContextPoset,
                    decide_each: Callable[[np.ndarray], np.ndarray]) -> Callable[[int, int], bool]:
    """The stage decision of a state valuation: `decide_each` is called once,
    on the poset's stacked lattice projectors, and (stage j, mask m) reads
    its entry."""
    stack = poset.lattice
    if not stack.offsets:
        return lambda j, m: False   # no contexts, so no cell is ever asked for
    if stack.entries.shape[1:] != rho.entries.shape:
        raise ContextError("state dimension does not match the poset")
    hits = decide_each(stack.entries).tolist()
    offsets = stack.offsets
    return lambda j, m: hits[offsets[j] + m]


def nu_rho(rho: DensityMatrix, poset: ContextPoset, tol: Tolerances = DEFAULT) -> Valuation:
    """The sieve-valued valuation of a state: a stage enters when the
    coarse-grained proposition has Born probability 1 there.  Every
    (stage, mask) is decided in one `certain_each` call when the
    valuation is built."""
    decide = _cell_decisions(rho, poset, lambda stack: certain_each(rho, stack, tol))
    return Valuation._from_bits(poset, stage_rule(poset.index, poset.index.below, decide),
                                name="nu_rho")


def nu_rho_r(rho: DensityMatrix, r: float, poset: ContextPoset,
             tol: Tolerances = DEFAULT) -> MorphismSetValuation:
    """The probability-r relaxation: a stage enters when the coarse-grained
    proposition has Born probability >= r there, every (stage, mask)
    decided in one batched trace.  Always sieve-valued (the trace grows
    under coarse-graining); exclusivity may fail for r < 0.5."""
    ValuationParams(r)
    if abs(r - 1.0) < tol.r_slack:
        return nu_rho(rho, poset, tol)

    def decide_each(stack: np.ndarray) -> np.ndarray:
        return np.trace(rho.entries[np.newaxis] @ stack, axis1=1, axis2=2).real >= r - tol.r_slack

    decide = _cell_decisions(rho, poset, decide_each)
    return MorphismSetValuation._from_bits(poset, stage_rule(poset.index, poset.index.below, decide),
                                           name=f"nu_rho_r[{r}]")


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
    mask = alpha._support(alpha._position(cid))
    return None if mask is None else LatticeElement(cid, mask)


def interval(alpha: MorphismSetValuation, cid: str) -> frozenset[Character]:
    """Characters valuing every truth-set member at 1.  Over a finite
    spectrum this is the character set of the support (when it exists);
    the empty intersection convention yields the whole spectrum."""
    return frozenset(Character(cid, i) for i in bit_list(alpha._interval(alpha._position(cid))))


def _degenerate(alpha: MorphismSetValuation) -> list[str]:
    return [cid for cid, s in zip(alpha._index.ids, _supports(alpha)) if s is None]


def _supports(alpha: MorphismSetValuation) -> list[int | None]:
    """The support mask of every stage, in index order."""
    return [alpha._support(i) for i in range(len(alpha._index.ids))]


def _intervals(alpha: MorphismSetValuation) -> list[int]:
    """The interval mask of every stage, in index order."""
    return [alpha._interval(i) for i in range(len(alpha._index.ids))]


def _func_witness(alpha: MorphismSetValuation) -> dict | None:
    """Functional composition: alpha(V2, coarse-grained P) is alpha(V1, P)
    cut down to V2, for every comparable pair and mask."""
    index = alpha._index
    for sub, sup in index.pair_indices:
        table = index.coarse(sub, sup)
        sub_row = alpha._row(sub)
        below_sub = index.down[sub]
        for mask, bits in enumerate(alpha._row(sup)):
            lhs = sub_row[table[mask]]
            rhs = bits & below_sub
            if lhs != rhs:
                return {"v1": index.ids[sup], "v2": index.ids[sub], "mask": mask,
                        "lhs": list(index.names(lhs)), "rhs": list(index.names(rhs))}
    return None


def _null_witness(alpha: MorphismSetValuation) -> dict | None:
    index = alpha._index
    for i, cid in enumerate(index.ids):
        bits = alpha._bits(i, 0)
        if bits:
            return {"v1": cid, "members": list(index.names(bits))}
    return None


def _monotonicity_witness(alpha: MorphismSetValuation) -> dict | None:
    for i, cid in enumerate(alpha._index.ids):
        row = alpha._row(i)
        for p, bits in enumerate(row):
            q = p
            while q < len(row):   # the masks above p, ascending
                if bits & ~row[q]:
                    return {"v1": cid, "p": p, "q": q}
                q = (q + 1) | p
    return None


def _exclusivity_witness(alpha: MorphismSetValuation) -> dict | None:
    for i, cid in enumerate(alpha._index.ids):
        truths = alpha._truth(i)
        for p in truths:
            for q in truths:
                if p & q == 0:
                    return {"v1": cid, "p": p, "q": q}
    return None


def _unit_witness(alpha: MorphismSetValuation) -> dict | None:
    index = alpha._index
    for i, cid in enumerate(index.ids):
        if alpha._bits(i, (1 << index.n_atoms[i]) - 1) != index.down[i]:
            return {"v1": cid}
    return None


def _clause_statuses(alpha: MorphismSetValuation, holds: str = "pass", fails: str = "fail",
                     unit=_unit_witness) -> dict[str, dict]:
    """The six laws of a generalized valuation by the shared checkers, each
    as {"status": holds or fails, "witness": None or the failure}: (i)
    sievehood, the downward closure of every member set; (ii) functional
    composition; (iii) the null proposition; (iv) monotonicity; (v)
    exclusivity, where a certain proposition leaves no disjoint one without
    a refuting stage; and (vi) the unit proposition, whose witness comes
    from `unit`."""
    ok, w = alpha.is_sieve_valued()
    found = [("sievehood", ok, w)]
    for clause, find in (("func", _func_witness), ("null", _null_witness),
                         ("monotonicity", _monotonicity_witness),
                         ("exclusivity", _exclusivity_witness), ("unit", unit)):
        w = find(alpha)
        found.append((clause, w is None, w))
    return {clause: {"status": holds if ok else fails, "witness": None if ok else w}
            for clause, ok, w in found}


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
    for sub, sup in index.pair_indices:
        if sub == sup:
            continue
        s_sub = alpha._support(sub)
        s_sup = alpha._support(sup)
        lifted = index.lift(sub, sup, s_sub)
        if lifted & s_sup != s_sup:
            return {
                "status": "fail",
                "witness": {"v1": index.ids[sup], "v2": index.ids[sub], "s1": s_sup, "s2": s_sub},
                "degenerate": [],
            }
    return {"status": "pass", "witness": None, "degenerate": []}


def check_global_element_condition(alpha: MorphismSetValuation) -> dict:
    """Supports must match up exactly under coarse-graining (i.e. form a
    global element of the coarse-graining presheaf)."""
    degenerate = _degenerate(alpha)
    if degenerate:
        return {"status": "degenerate", "witness": None, "degenerate": degenerate}
    index = alpha._index
    supports = _supports(alpha)
    found = _first_failing_pair(index, supports, index.coarse)
    if found is None:
        return {"status": "pass", "witness": None, "degenerate": []}
    sub, sup, cg = found
    witness = {"v1": index.ids[sup], "v2": index.ids[sub],
               "support_v2": supports[sub], "coarse_grained_support_v1": cg}
    return {"status": "fail", "witness": witness, "degenerate": []}


def supports_global_element(alpha: MorphismSetValuation) -> GlobalElementG:
    """Package the supports of a valuation as a (possibly broken) projector
    assignment; callers inspect `satisfies_matching`."""
    assignment = {}
    for i, cid in enumerate(alpha._index.ids):
        s = alpha._support(i)
        if s is None:
            raise ContextError(f"empty truth set at {cid!r}: no support to package")
        assignment[cid] = s
    return GlobalElementG(alpha.poset, assignment, enforce=False)


def alpha_from_global_element(a: GlobalElementG) -> MorphismSetValuation:
    """The valuation induced by a projector assignment: a stage enters when
    the assigned projector there lies below the coarse-grained proposition.
    Sieve-valued whenever `a` really is a global element; its supports
    always reproduce `a`."""
    index = a.poset.index
    chosen = [a.assignment[cid] for cid in index.ids]
    rule = stage_rule(index, index.below, lambda j, m: chosen[j] & m == chosen[j])
    return MorphismSetValuation._from_bits(a.poset, rule, name="alpha^a")


def alpha_from_subobject(a: SubobjectSigma) -> MorphismSetValuation:
    """The valuation induced by a character-set assignment: a stage enters
    when its assigned characters all lie in the restriction of the
    proposition's certain set.  Sieve-valued whenever `a` is tight."""
    index = a.poset.index
    chosen = [index_mask(a.assignment[cid]) for cid in index.ids]
    rule = stage_rule(index, index.below_image, lambda j, m: not chosen[j] & ~m)
    return MorphismSetValuation._from_bits(a.poset, rule, name="alpha^a_sigma")


def valuations_equal(a: MorphismSetValuation, b: MorphismSetValuation) -> tuple[bool, dict | None]:
    """Set equality of member ids at every stage and lattice element (both
    valuations over posets with the same contexts)."""
    index = a._index
    if b._index.ids != index.ids:
        raise ContextError("valuations over posets with different contexts")
    for i, cid in enumerate(index.ids):
        for mask, (x, y) in enumerate(zip(a._row(i), b._row(i))):
            if x != y:
                return False, {
                    "v1": cid, "mask": mask,
                    "lhs": list(index.names(x)),
                    "rhs": list(index.names(y)),
                }
    return True, None


def _condition_i(alpha: MorphismSetValuation, below: Callable[[int], tuple], chosen: list[int],
                 inside_key: str | None) -> tuple[bool, dict | None]:
    """Condition (i) of either theorem, in one scan: stage V2 is a member
    of alpha(V1, P) exactly when `chosen[V2]` lies inside the image of P at
    V2, the image read from `below(V1)` (`index.below` for the
    coarse-graining, `index.below_image` for the restriction).  The witness
    is the first mismatch in stage, mask and subcontext order; `inside_key`
    names its containment verdict, which the iso route leaves out."""
    index = alpha._index
    for sup, cid in enumerate(index.ids):
        rows = below(sup)
        for mask, bits in enumerate(alpha._row(sup)):
            for sub, table in rows:
                inside = not chosen[sub] & ~table[mask]
                if inside != bool(bits >> sub & 1):
                    witness = {"v1": cid, "v2": index.ids[sub], "mask": mask}
                    if inside_key is not None:
                        witness.update({inside_key: inside, "member": not inside})
                    return False, witness
    return True, None


def _characterization(alpha: MorphismSetValuation, below: Callable[[int], tuple],
                      chosen: list[int]) -> tuple[bool, dict | None]:
    """The characterization both theorems conclude, in one scan:
    alpha(V1, P) is the set of stages V2 at which the image of `chosen[V1]`
    lies inside the image of P, both images read from `below(V1)`."""
    index = alpha._index
    for sup, cid in enumerate(index.ids):
        rows = [(sub, table, table[chosen[sup]]) for sub, table in below(sup)]
        for mask, bits in enumerate(alpha._row(sup)):
            expected = 0
            for sub, table, c1 in rows:
                if not c1 & ~table[mask]:
                    expected |= 1 << sub
            if bits != expected:
                return False, {"v1": cid, "mask": mask,
                               "lhs": list(index.names(bits)), "rhs": list(index.names(expected))}
    return True, None


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
                           _condition_i(alpha, alpha._index.below, _supports(alpha), "support_below"))


def _intervals_subobject(alpha: MorphismSetValuation) -> SubobjectSigma:
    assignment = {cid: frozenset(bit_list(m)) for cid, m in zip(alpha._index.ids, _intervals(alpha))}
    return SubobjectSigma(alpha.poset, assignment, enforce=False)


def reconstruct_from_intervals(alpha: MorphismSetValuation) -> tuple[MorphismSetValuation, dict]:
    """Rebuild a valuation from its own intervals and compare; equality holds
    exactly under condition (i) of the interval-side theorem."""
    rebuilt = alpha_from_subobject(_intervals_subobject(alpha))
    return _reconstruction(alpha, rebuilt,
                           _condition_i(alpha, alpha._index.below_image, _intervals(alpha),
                                        "interval_inside"))


def _func_report(alpha: MorphismSetValuation) -> tuple[bool, dict | None]:
    w = _func_witness(alpha)
    return w is None, w


def _conclusions(alpha: MorphismSetValuation, below: Callable[[int], tuple], chosen: list[int],
                 cond_i: bool, cond_ii: bool) -> dict:
    """The conclusions either theorem draws from its conditions, each
    verified on its own (sievehood, functional composition and the
    characterization over `below` and `chosen`), and the two contracts:
    the conditions give every conclusion, and (i) alone gives functional
    composition."""
    sieve_ok, w_sieve = alpha.is_sieve_valued()
    func_ok, w_func = _func_report(alpha)
    charac_ok, w_charac = _characterization(alpha, below, chosen)
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
    index = alpha._index
    supports = _supports(alpha)
    cond_i, w_i = _condition_i(alpha, index.below, supports, "support_below")
    ge_report = check_global_element_condition(alpha)
    cond_ii = ge_report["status"] == "pass"
    return {
        "degenerate": [],
        "skipped": False,
        "condition_i": {"holds": cond_i, "witness": w_i},
        "condition_ii": {"holds": cond_ii, "witness": ge_report["witness"]},
        **_conclusions(alpha, index.below, supports, cond_i, cond_ii),
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
    cond_i, w_i = _condition_i(alpha, index.below_image, ivals, "interval_inside")
    sigma = _intervals_subobject(alpha)
    w_ii = None
    if not sigma.is_tight:
        sub, sup, restricted = _first_failing_pair(index, ivals, index.image)
        w_ii = {"v1": index.ids[sup], "v2": index.ids[sub],
                "restricted": bit_list(restricted), "interval": bit_list(ivals[sub])}
    iso_ok, w_iso = _condition_i(alpha, index.below, ivals, None)
    return {
        "condition_i": {"holds": cond_i, "witness": w_i},
        "condition_ii": {"holds": sigma.is_tight, "witness": w_ii},
        "condition_i_iso_route": {"holds": iso_ok, "witness": w_iso},
        "routes_agree": cond_i == iso_ok,
        "subobject_law": sigma.satisfies_law,
        **_conclusions(alpha, index.below_image, ivals, cond_i, sigma.is_tight),
    }


def random_table_valuation(rng: np.random.Generator, poset: ContextPoset,
                           sieve_valued: bool = False) -> MorphismSetValuation:
    """Random test double: arbitrary member sets per (context, mask); with
    `sieve_valued` each set is closed downward after drawing."""
    table: dict[tuple[str, int], frozenset[str]] = {}
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
