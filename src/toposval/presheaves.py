"""Spectral and coarse-graining presheaves over a finite context poset.

Assigns each context its character set (spectrum) and its projector
lattice; the morphism actions are functional restriction and the
least-upper-coarsening map.  Sieves are downward-closed subsets of a
context's down-set and serve as the truth values; the subobject classifier
is present through `Sieve` and `pullback`, which is all the machinery the
valuations need.  `check_nat_iso` verifies that restriction of character
sets and coarse-graining of lattice elements are the same thing, stage by
stage.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .contexts import Character, ContextError, ContextPoset, LatticeElement, PosetIndex, bit_list, v_of_p


class SieveError(ValueError):
    """Not a sieve: member above the apex, or not downward closed."""


@dataclass(frozen=True)
class Sieve:
    """A downward-closed set of subcontexts of the apex, in a fixed poset."""

    apex: str
    members: frozenset[str]
    poset_version: str

    def __le__(self, other: "Sieve") -> bool:
        if self.apex != other.apex or self.poset_version != other.poset_version:
            raise SieveError("sieves on different apexes/posets are incomparable")
        return self.members <= other.members


def make_sieve(poset: ContextPoset, apex: str, members) -> Sieve:
    """Validate and build a sieve on `apex` from an iterable of context ids,
    naming the first failure in sorted id order."""
    members = frozenset(members)
    for m in sorted(members):
        if not poset.leq(m, apex):
            raise SieveError(f"{m!r} is not below the apex {apex!r}")
    for m in sorted(members):
        for below in poset.down_set(m):
            if below not in members:
                raise SieveError(
                    f"not downward closed: {below!r} <= {m!r} but missing"
                )
    return Sieve(apex, members, poset.version)


def true_sieve(poset: ContextPoset, apex: str) -> Sieve:
    """The principal sieve: every subcontext of the apex."""
    return Sieve(apex, frozenset(poset.down_set(apex)), poset.version)


def empty_sieve(poset: ContextPoset, apex: str) -> Sieve:
    return Sieve(apex, frozenset(), poset.version)


def _restrict_atom(owner: tuple[int | None, ...], atom_index: int) -> int:
    j = owner[atom_index] if 0 <= atom_index < len(owner) else None
    if j is None:
        raise ContextError("partition map does not cover the atom")  # unreachable on valid posets
    return j


def sigma_restrict(poset: ContextPoset, sub: str, sup: str, kappa: Character) -> Character:
    """Restrict a character of `sup` to `sub`: pick the sub-atom containing its atom."""
    if kappa.context_id != sup:
        raise ContextError("character does not live at the given context")
    owner = poset.index.restriction(*poset.index.pair(sub, sup))
    return Character(sub, _restrict_atom(owner, kappa.atom_index))


def coarse_grain(poset: ContextPoset, sub: str, sup: str, p: LatticeElement) -> LatticeElement:
    """The least element of the sub-context's lattice above `p`.

    Production path: a lookup in the poset index's coarse-graining table,
    where a sub-atom enters exactly when its block of sup-atoms meets the
    mask.  Agrees with the brute-force lattice infimum
    (`coarse_grain_bruteforce`), which is kept as an independent oracle.
    """
    if p.context_id != sup:
        raise ContextError("lattice element does not live at the given context")
    table = poset.index.coarse(*poset.index.pair(sub, sup))
    if not 0 <= p.mask < len(table):
        raise ContextError(f"mask {p.mask} out of range for context {sup!r}")
    return LatticeElement(sub, table[p.mask])


def coarse_grain_bruteforce(poset: ContextPoset, sub: str, sup: str, p: LatticeElement) -> LatticeElement:
    """Infimum of all sub-lattice elements dominating `p`, by full enumeration."""
    if p.context_id != sup:
        raise ContextError("lattice element does not live at the given context")
    n = poset.context(sub).n_atoms
    dominating = [
        q for q in range(1 << n)
        if poset.lift_mask(sub, sup, q) & p.mask == p.mask
    ]
    if not dominating:
        raise ContextError("no dominating element; partition map is broken")
    inf = dominating[0]
    for q in dominating[1:]:
        inf &= q
    if poset.lift_mask(sub, sup, inf) & p.mask != p.mask:
        raise ContextError("infimum does not dominate; lattice is not closed under meets")
    return LatticeElement(sub, inf)


def clo_sigma_restrict(
    poset: ContextPoset, sub: str, sup: str, chars: frozenset[Character]
) -> frozenset[Character]:
    """Image of a character set under restriction (the power-object action)."""
    owner = poset.index.restriction(*poset.index.pair(sub, sup))
    out = set()
    for k in chars:
        if k.context_id != sup:
            raise ContextError("character does not live at the given context")
        out.add(Character(sub, _restrict_atom(owner, k.atom_index)))
    return frozenset(out)


def pullback(poset: ContextPoset, sub: str, sup: str, s: Sieve) -> Sieve:
    """Pull a sieve on `sup` back to `sub`: keep the members below `sub`."""
    if s.apex != sup:
        raise SieveError("sieve apex does not match the given context")
    if s.poset_version != poset.version:
        raise SieveError("sieve was built against a different poset")
    if not poset.leq(sub, sup):
        raise ContextError(f"{sub!r} is not included in {sup!r}")
    members = frozenset(m for m in s.members if poset.leq(m, sub))
    return Sieve(sub, members, poset.version)


@dataclass(frozen=True, eq=False)
class GlobalElementG:
    """A per-context lattice element that matches up under coarse-graining.

    `enforce=False` admits a broken assignment (for witness construction);
    `satisfies_matching` records whether the matching law actually holds.
    `masks` holds the assigned masks in the order of `poset.index.ids`,
    and is the one stored form: `assignment`, the dict from context id to
    mask, is read off it on first access.
    """

    poset: ContextPoset
    satisfies_matching: bool
    masks: tuple[int, ...] = field(repr=False)

    def __init__(self, poset: ContextPoset, assignment: dict[str, int], enforce: bool = True):
        assignment = dict(assignment)
        if set(assignment) != set(poset.ids):
            raise ContextError("assignment must cover every context of the poset")
        for cid, mask in assignment.items():
            if not _is_int(mask):
                raise ContextError(f"mask {mask!r} at {cid!r} is not an int")
            if not 0 <= mask <= poset.context(cid).full_mask:
                raise ContextError(f"mask {mask} out of range at {cid!r}")
        self._settle(poset, tuple(map(assignment.__getitem__, poset.index.ids)), enforce)

    @classmethod
    def _of_masks(cls, poset: ContextPoset, masks: tuple[int, ...]) -> "GlobalElementG":
        """The unenforced assignment of masks given in index order, each
        known to lie in its context's lattice."""
        out = cls.__new__(cls)
        out._settle(poset, masks, False)
        return out

    def _settle(self, poset: ContextPoset, masks: tuple[int, ...], enforce: bool) -> None:
        ok = _first_failing_pair(poset.index, masks, "below") is None
        if enforce and not ok:
            raise ContextError("assignment violates the coarse-graining matching law")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "satisfies_matching", ok)
        object.__setattr__(self, "masks", masks)

    @cached_property
    def assignment(self) -> dict[str, int]:
        """Context id -> mask."""
        return dict(zip(self.poset.index.ids, self.masks))

    def element(self, cid: str) -> LatticeElement:
        return LatticeElement(cid, self.assignment[cid])


def _is_int(value) -> bool:
    """An int or a numpy integer, bools refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _first_failing_pair(index: PosetIndex, masks, route: str,
                        holds: Callable[[np.ndarray, np.ndarray], np.ndarray] = operator.eq
                        ) -> tuple[int, int, int] | None:
    """The pair law of a per-stage mask assignment, in one reduction: the
    first proper pair (sub, sup) of `index.pair_indices` at which
    `holds(masks[sub], mapped)` fails (both int arrays over the pairs),
    with `mapped` the mask of `sup` carried to `sub` along `route`, read
    off the route's gather at the cell (sup, masks[sup]); returned as
    (sub, sup, mapped), or None when the law holds on every pair.  Along
    "below" (coarse-graining) with equality this is the matching law of a
    global element; along "below_image" (restriction), the subobject law
    and tightness."""
    sub, sup, rank = index.proper_pairs
    if not len(sub):
        return None
    g = index.gather(route)
    m = np.array(masks, dtype=np.int64)
    mapped = g.image[g.start[index.cell_start[sup] + m[sup]] + rank]
    failing = np.flatnonzero(~holds(m[sub], mapped))
    if not len(failing):
        return None
    k = failing[0]
    return int(sub[k]), int(sup[k]), int(mapped[k])


@dataclass(frozen=True, eq=False)
class SubobjectSigma:
    """A per-context character set closed under restriction.

    The subobject law asks restriction of the finer set to land inside the
    coarser one; the `tight` variant asks for equality.  As with
    `GlobalElementG`, `enforce=False` admits broken assignments and the
    flags record what actually holds; `masks` holds each context's atom
    set as a mask, in the order of `poset.index.ids`, and is the one stored
    form: `assignment`, the dict from context id to atom indices, is read
    off it on first access.
    """

    poset: ContextPoset
    satisfies_law: bool
    is_tight: bool
    masks: tuple[int, ...] = field(repr=False)

    def __init__(self, poset: ContextPoset, assignment: dict[str, frozenset[int]], enforce: bool = True):
        assignment = {k: frozenset(v) for k, v in assignment.items()}
        if set(assignment) != set(poset.ids):
            raise ContextError("assignment must cover every context of the poset")
        masks = {}
        for cid, indices in assignment.items():
            n = poset.context(cid).n_atoms
            mask = 0
            for i in indices:
                if not _is_int(i):
                    raise ContextError(f"atom indices at {cid!r} must be ints")
                if not 0 <= i < n:
                    raise ContextError(f"atom index out of range at {cid!r}")
                mask |= 1 << int(i)
            masks[cid] = mask
        self._settle(poset, tuple(map(masks.__getitem__, poset.index.ids)), enforce)

    @classmethod
    def _of_masks(cls, poset: ContextPoset, masks: tuple[int, ...]) -> "SubobjectSigma":
        """The unenforced assignment of the atom masks given in index
        order, each known to lie in its context's lattice."""
        out = cls.__new__(cls)
        out._settle(poset, masks, False)
        return out

    def _settle(self, poset: ContextPoset, masks: tuple[int, ...], enforce: bool) -> None:
        index = poset.index
        tight = _first_failing_pair(index, masks, "below_image") is None
        law = tight or _first_failing_pair(index, masks, "below_image",
                                           lambda own, image: (image & ~own) == 0) is None
        if enforce and not law:
            raise ContextError("assignment violates the subobject law")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "satisfies_law", law)
        object.__setattr__(self, "is_tight", tight)
        object.__setattr__(self, "masks", masks)

    @cached_property
    def assignment(self) -> dict[str, frozenset[int]]:
        """Context id -> atom indices."""
        return {cid: frozenset(bit_list(m)) for cid, m in zip(self.poset.index.ids, self.masks)}

    def characters(self, cid: str) -> frozenset[Character]:
        return frozenset(Character(cid, i) for i in self.assignment[cid])


def subobject_from_global_element(gamma: GlobalElementG) -> SubobjectSigma:
    """The character sets certain of a matching family of projectors."""
    if not gamma.satisfies_matching:
        raise ContextError("not a global element: matching law violated")
    poset = gamma.poset
    assignment = {
        cid: frozenset(
            k.atom_index
            for k in v_of_p(poset.context(cid), gamma.element(cid))
        )
        for cid in poset.ids
    }
    return SubobjectSigma(poset, assignment)


def check_nat_iso(poset: ContextPoset) -> dict:
    """Verify, for every pair and every lattice element, that restricting the
    certain-character set equals the certain-character set of the
    coarse-graining; also that distinct lattice elements keep distinct
    character sets at every stage.

    Both halves are array tests on the index: the image and coarse-graining
    tables of every pair compared in one pass, and the character sets of
    every cell by `v_of_p`'s rule (atom i when bit i of the mask is set).
    A pair whose tables cannot be built raises what reading them raises,
    at the first such pair.  Failures are listed pair by pair, masks
    ascending, then context by context.

    Returns {"passed", "pairsChecked", "elementsChecked", "failures"}.
    """
    index = poset.index
    t = index.tables
    broken = np.flatnonzero(t.missing | ~t.covered)
    if len(broken):
        index.image(*index.pair_indices[broken[0]])   # raises that pair's error
    failures = []
    failing = np.flatnonzero(t.image != t.coarse)
    pair = np.searchsorted(t.table_start, failing, side="right") - 1
    for k, cell, lhs, rhs in zip(pair.tolist(), (failing - t.table_start[pair]).tolist(),
                                 t.image[failing].tolist(), t.coarse[failing].tolist()):
        sub, sup = index.pair_indices[k]
        failures.append({"v1": index.ids[sup], "v2": index.ids[sub], "mask": cell,
                         "lhs": bit_list(lhs), "rhs": bit_list(rhs)})
    # a collision is a cell whose (stage, characters) an earlier cell has;
    # it collides with the latest such cell
    stage, mask = index.cell_stage, index.cell_mask
    chars = mask & (np.diff(index.cell_start)[stage] - 1)
    key = index.cell_start[stage] + chars   # the cell of (stage, characters)
    order = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[order][1:] == key[order][:-1])
    for cell, earlier in sorted(zip(order[same + 1].tolist(), order[same].tolist())):
        found = bit_list(int(chars[cell]))
        failures.append({"v1": index.ids[stage[cell]], "v2": index.ids[stage[cell]],
                         "mask": int(mask[cell]), "lhs": found, "rhs": found,
                         "collidesWithMask": int(mask[earlier])})
    return {
        "passed": not failures,
        "pairsChecked": len(index.pair_indices),
        "elementsChecked": int(t.table_start[-1]),
        "failures": failures,
    }
