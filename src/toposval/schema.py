"""Relation-parameterized valuations and the six-property survey.

Given an interval valuation `a` and a binary relation R, a valuation with
sets of morphisms as values arises by testing R at the coarse stage:
a stage enters when R holds between a's value there and the coarse-grained
proposition.  Which laws of a generalized valuation the result obeys
depends only on R (and mild conditions on `a`); the surveys below check
each law exhaustively over the finite poset, alongside the
characterizations and sufficient conditions that explain the outcome.

Three forms are covered: lattice elements against a projector relation,
character sets against a set relation, and eigenvalue sets over a finite
operator category.  All three build a `MorphismSetValuation` over a
`PosetIndex` (the operator category's arrows form one too), so they share
one set of law checkers; the lattice form adds its characterizations and
sufficient conditions on R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contexts import ContextError, ContextPoset, PosetIndex, bit_list
from .ocat import OperatorCategory
from .presheaves import GlobalElementG, SubobjectSigma
from .valuations import MorphismSetValuation, _clause_statuses, _unit_witness, stage_rule

HOLDS = "holds-exhaustively"
FAILS = "witness-of-failure"


@dataclass(frozen=True)
class Relation:
    """A binary relation on a context's lattice, given as masks.

    `test(context_id, left_mask, right_mask)`; deterministic and total on
    every lattice of the poset it is used with.
    """

    name: str
    test: Callable[[str, int, int], bool]


def _le(cid, l, r):
    return l & r == l


def _ge(cid, l, r):
    return l & r == r


def _eq(cid, l, r):
    return l == r


def _nonzero_product(cid, l, r):
    return l & r != 0


BUILTIN_RELATIONS = {
    "le": Relation("le", _le),
    "ge": Relation("ge", _ge),
    "eq": Relation("eq", _eq),
    "nonzero-product": Relation("nonzero-product", _nonzero_product),
    "always-true": Relation("always-true", lambda cid, l, r: True),
    "always-false": Relation("always-false", lambda cid, l, r: False),
}


def random_relation(rng: np.random.Generator, poset: ContextPoset, name: str = "random") -> Relation:
    """A seeded boolean table over (context, left mask, right mask), so
    replays are exact."""
    table: dict[tuple[str, int, int], bool] = {}
    for cid in poset.ids:
        n = poset.context(cid).n_atoms
        # one draw per context, consumed in (l, r) order like scalar draws
        draws = iter(rng.random(1 << 2 * n).tolist())
        for l in range(1 << n):
            for r in range(1 << n):
                table[(cid, l, r)] = next(draws) < 0.5
    return Relation(name, lambda cid, l, r: table[(cid, l, r)])


@dataclass(frozen=True)
class SetRelation:
    """A binary relation on subsets of a context's spectrum (atom-index sets)."""

    name: str
    test: Callable[[str, frozenset[int], frozenset[int]], bool]


BUILTIN_SET_RELATIONS = {
    "subset": SetRelation("subset", lambda cid, l, r: l <= r),
    "superset": SetRelation("superset", lambda cid, l, r: l >= r),
    "eq": SetRelation("eq", lambda cid, l, r: l == r),
    "intersects": SetRelation("intersects", lambda cid, l, r: bool(l & r)),
    "always-true": SetRelation("always-true", lambda cid, l, r: True),
    "always-false": SetRelation("always-false", lambda cid, l, r: False),
}


class _RelationRows:
    """`rel.test` over one poset, asked once per (context, left mask): the
    row of a left mask is the bitmask of the right masks it relates to."""

    def __init__(self, poset: ContextPoset, rel: Relation):
        self._test = rel.test
        self._index = poset.index
        self._rows: dict[tuple[int, int], int] = {}

    def row(self, i: int, left: int) -> int:
        out = self._rows.get((i, left))
        if out is None:
            cid = self._index.ids[i]
            out = 0
            for right in range(1 << self._index.n_atoms[i]):
                if self._test(cid, left, right):
                    out |= 1 << right
            self._rows[(i, left)] = out
        return out


def _schema_valuation(a: GlobalElementG, rel: Relation,
                      rows: _RelationRows | None = None) -> MorphismSetValuation:
    if rows is None:
        rows = _RelationRows(a.poset, rel)
    index = a.poset.index

    def decide(j: int, m: int) -> bool:
        return bool(rows.row(j, a.assignment[index.ids[j]]) >> m & 1)

    return MorphismSetValuation._from_bits(a.poset, stage_rule(index, index.below, decide),
                                           name=f"alpha^(a,{rel.name})")


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
    sufficient condition; the two code paths for sievehood are independent
    and their agreement is part of the report.

    Non-matching assignments are admitted (the report records the flag):
    when the assignment really matches up, coarse-graining is a function of
    the left argument, so relations like equality are automatically stable;
    the failing direction of the characterizations only shows up on broken
    assignments.
    """
    poset = a.poset
    index = poset.index
    rows = _RelationRows(poset, rel)
    alpha = _schema_valuation(a, rel, rows)
    # left[i]: the right masks R relates a's element at context i to
    left = [rows.row(i, a.assignment[cid]) for i, cid in enumerate(index.ids)]
    report: dict = {"relation": rel.name, "a_is_global_element": a.satisfies_matching,
                    **_law_statuses(alpha, unit=_unit_witness_with_stage)}
    holds = {name: v["status"] == HOLDS for name, v in report["properties"].items()}
    analyses = report["analyses"] = {}

    # (i) characterization: R stable under coarse-graining, computed on R alone
    stable, w = _stable_under_coarse_graining(index, left)
    analyses["stability_under_coarse_graining"] = _status(stable, w)
    analyses["sievehood_paths_agree"] = holds["sievehood"] == stable

    # (i) sufficient condition: coarse-graining preserves R on both arguments
    pres, w = _preserved_by_coarse_graining(index, rows)
    analyses["coarse_graining_preserves_relation"] = _status(pres, w)

    # (iii) null proposition, characterized
    char_ok = True
    char_w = None
    for sub, sup in index.pair_indices:
        if left[sub] & 1:
            char_ok, char_w = False, {"v1": index.ids[sup], "v2": index.ids[sub]}
            break
    analyses["null_characterization"] = _status(char_ok, char_w)
    analyses["null_paths_agree"] = holds["null"] == char_ok

    # (iv) monotonicity, characterized, and the sufficient condition
    iso, w = _isotone_under_coarse_graining(index, left)
    analyses["isotone_under_coarse_graining"] = _status(iso, w)
    analyses["monotonicity_paths_agree"] = holds["monotonicity"] == iso
    stab, w = _stable_under_enlargement(index, left)
    analyses["stable_under_enlargement"] = _status(stab, w)
    return report


def _stable_under_coarse_graining(index: PosetIndex, left: list[int]):
    for sup, cid in enumerate(index.ids):
        below = index.below(sup)
        for mask in range(1 << index.n_atoms[sup]):
            related = 0   # the stages below sup where R holds at the coarse-grained mask
            for sub, table in below:
                if left[sub] >> table[mask] & 1:
                    related |= 1 << sub
            for mid in bit_list(related):
                missing = index.down[mid] & ~related
                if missing:
                    sub = (missing & -missing).bit_length() - 1
                    return False, {"v1": cid, "v2": index.ids[mid], "v3": index.ids[sub],
                                   "mask": mask}
    return True, None


def _preserved_by_coarse_graining(index: PosetIndex, rows: _RelationRows):
    for sub, sup in index.pair_indices:
        if sub == sup:
            continue
        table = index.coarse(sub, sup)
        for x in range(len(table)):
            related = rows.row(sup, x)
            if not related:
                continue
            at_sub = rows.row(sub, table[x])
            for y in bit_list(related):
                if not at_sub >> table[y] & 1:
                    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "x": x, "y": y}
    return True, None


def _isotone_under_coarse_graining(index: PosetIndex, left: list[int]):
    for sub, sup in index.pair_indices:
        table = index.coarse(sub, sup)
        related = left[sub]
        for p in range(len(table)):
            if not related >> table[p] & 1:
                continue
            q = p
            while q < len(table):   # the masks above p, ascending
                if not related >> table[q] & 1:
                    return False, {"v1": index.ids[sup], "v2": index.ids[sub], "p": p, "q": q}
                q = (q + 1) | p
    return True, None


def _stable_under_enlargement(index: PosetIndex, left: list[int]):
    for i, cid in enumerate(index.ids):
        related = left[i]
        size = 1 << index.n_atoms[i]
        for s in range(size):
            if not related >> s & 1:
                continue
            t = s
            while t < size:   # the masks above s, ascending
                if not related >> t & 1:
                    return False, {"v1": cid, "s": s, "t": t}
                t = (t + 1) | s
    return True, None


def survey_properties_sigma(a: SubobjectSigma, rel: SetRelation) -> dict:
    """Six-property survey for the character-set schema: membership by
    relating a's character set to the restriction of the proposition's
    certain set.  Regularity (non-emptiness, tightness) is reported, not
    enforced."""
    poset = a.poset
    index = poset.index
    ids = index.ids

    def decide(j: int, m: int) -> bool:
        return bool(rel.test(ids[j], a.assignment[ids[j]], frozenset(bit_list(m))))

    alpha = MorphismSetValuation._from_bits(poset, stage_rule(index, index.below_image, decide),
                                            name=f"alpha^(a,{rel.name})_sigma")
    regularity = {
        "nonempty_everywhere": all(a.assignment[cid] for cid in ids),
        "subobject_law": a.satisfies_law,
        "tight": a.is_tight,
    }
    return {"relation": rel.name, "regularity": regularity, **_law_statuses(alpha)}


def survey_properties_o(a: dict[str, frozenset[float]], rel_name: str,
                        category: OperatorCategory) -> dict:
    """Six-property survey for the eigenvalue-set schema over an operator
    category: a stage (arrow) enters when the relation holds between a's
    eigenvalue set at the arrow's source and the image of the proposition's
    eigenvalue set.  Subsethood is the distinguished relation.

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
    ids = index.ids

    def decide(j: int, m: int) -> bool:
        return bool(rel.test(ids[j], a[ids[j]], category.objects[ids[j]].subset(m)))

    alpha = MorphismSetValuation._from_bits(category, stage_rule(index, index.below, decide),
                                            name=f"alpha^(a,{rel_name})_o")
    return {"relation": rel_name, "regularity": regularity, **_law_statuses(alpha)}
