"""Global-section search for the spectral presheaf over a finite poset.

A section picks one character per context so that all restriction maps
match; for a rich enough poset in dimension > 2 no such section exists,
and the search certifies that by exhausting the tree.  The search anchors
on maximal contexts (a section is determined by its values there) and
propagates restrictions downward; verdicts of non-existence are replayed
with the maximal contexts in reverse order and must agree.

The bundled dim-4 fixture is a set of 9 four-vector bases sharing each of
its 18 rays between exactly two bases.  It is validated at load time
(orthogonality, sharing pattern), and an independent parity argument
certifies the obstruction: picking one ray per basis consistently would
make an odd number equal to a sum of even per-ray counts.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources

import numpy as np

from .contexts import Character, Context, ContextError, ContextPoset, build_poset, evaluate
from .linalg import HermitianOperator, distance_table, product_max
from .serialization import contexts_from_json
from .tolerances import DEFAULT, Tolerances


def _restriction_index(poset: ContextPoset, sub: str, sup: str, atom_index: int) -> int:
    """Index of the sub-context atom containing the given sup-context atom."""
    pmap = poset.partition_map(sub, sup)
    for j, block in enumerate(pmap):
        if block >> atom_index & 1:
            return j
    raise ContextError("partition map does not cover the atom")


def section_verify(poset: ContextPoset, assignment: dict[str, int],
                   tol: Tolerances = DEFAULT) -> bool:
    """Independent re-check of a section: the matching law on every
    comparable pair, and value-level functional composition through Gelfand
    evaluation of a generating operator of each coarser context."""
    if set(assignment) != set(poset.ids):
        return False
    for cid in poset.ids:
        if not 0 <= assignment[cid] < poset.context(cid).n_atoms:
            return False
    for sub, sup in poset.pairs(proper_only=True):
        if _restriction_index(poset, sub, sup, assignment[sup]) != assignment[sub]:
            return False
    for sub, sup in poset.pairs(proper_only=True):
        v_sub = poset.context(sub)
        gen = sum((j + 2) * a.entries for j, a in enumerate(v_sub.atoms))
        op = HermitianOperator(gen, tol=tol)
        at_sup = evaluate(poset.context(sup), Character(sup, assignment[sup]), op, tol)
        at_sub = evaluate(v_sub, Character(sub, assignment[sub]), op, tol)
        if abs(at_sup - at_sub) > tol.recon:
            return False
    return True


def global_section_search(poset: ContextPoset, tol: Tolerances = DEFAULT) -> dict:
    """Backtracking search for a global section.

    Chooses one atom per maximal context (sorted id order, ascending atom
    index, so a found witness is the lexicographically least one) and
    propagates restrictions to every lower context, pruning on conflict.
    Returns {"exists", "witness", "nodesExplored"}; a non-existence verdict
    means the tree was exhausted, and is confirmed by an order-reversed
    rerun before being reported.  A found witness is re-checked by
    `section_verify` at `tol`.
    """
    maximal = poset.maximal_ids()
    verdict = _search(poset, maximal)
    if verdict["exists"]:
        if not section_verify(poset, verdict["witness"], tol):
            raise RuntimeError("search produced a section that fails verification")
    else:
        reversed_verdict = _search(poset, list(reversed(maximal)))
        if reversed_verdict["exists"]:
            raise RuntimeError("order-reversed replay disagrees with the none verdict")
        verdict["nodesExplored"] += reversed_verdict["nodesExplored"]
    return verdict


def _search(poset: ContextPoset, maximal: list[str]) -> dict:
    if not poset.ids:
        return {"exists": True, "witness": {}, "nodesExplored": 0}
    index = poset.index
    # per maximal context, (sub id, restriction map of (sub, m)); the
    # context itself keeps its own atom, marked by a None map
    below = {
        m: tuple(
            (sub, None if sub == m else index.restriction(*index.pair(sub, m)))
            for sub in poset.down_set(m)
        )
        for m in maximal
    }
    nodes = 0
    assignment: dict[str, int] = {}   # every context, filled by propagation

    def assign(m: str, atom: int) -> list[str] | None:
        """Propagate a maximal choice downward; returns newly pinned ids or
        None on conflict."""
        new: list[str] = []
        for sub, owner in below[m]:
            j = atom if owner is None else owner[atom]
            if j is None:
                raise ContextError("partition map does not cover the atom")
            if sub in assignment:
                if assignment[sub] != j:
                    for cid in new:
                        del assignment[cid]
                    return None
            else:
                assignment[sub] = j
                new.append(sub)
        return new

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == len(maximal):
            return True
        m = maximal[i]
        for atom in range(poset.context(m).n_atoms):
            nodes += 1
            new = assign(m, atom)
            if new is None:
                continue
            if backtrack(i + 1):
                return True
            for cid in new:
                del assignment[cid]
        return False

    found = backtrack(0)
    if not found:
        return {"exists": False, "witness": None, "nodesExplored": nodes}
    # contexts below no maximal cannot exist; everything is assigned now
    return {"exists": True, "witness": dict(sorted(assignment.items())), "nodesExplored": nodes}


def validate_rank_one_cover(contexts: list[Context], tol: Tolerances = DEFAULT) -> dict:
    """Validation pass for ray-sharing fixtures: every atom rank one,
    atoms orthogonal within the fixture tolerance, and the per-ray context
    counts; the parity obstruction is certified when every count is even
    and the number of contexts is odd.

    Problems are listed per context: its atoms of rank other than one, then
    one entry per non-orthogonal pair (max|a b| > tol.ortho_fixture), in
    `itertools.combinations` order.  Each atom, in order, joins the first
    ray whose first atom is within tol.ortho_fixture in max-abs entries, or
    starts a ray.  The pair products and the atom distances are each one
    chunked broadcast over all atoms."""
    report: dict = {"ok": True, "problems": []}
    atoms = [a for c in contexts for a in c.atoms]
    stack = np.stack([a.entries for a in atoms]) if atoms else np.zeros((0, 1, 1), dtype=complex)
    starts = np.cumsum([0] + [c.n_atoms for c in contexts]).tolist()
    pairs = [p for c, start in zip(contexts, starts)
             for p in itertools.combinations(range(start, start + c.n_atoms), 2)]
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T
    skew = (product_max(stack, first, second) > tol.ortho_fixture).tolist()
    done = 0
    for c in contexts:
        for a in c.atoms:
            if a.rank != 1:
                report["ok"] = False
                report["problems"].append(f"context {c.id!r} has an atom of rank {a.rank}")
        count = c.n_atoms * (c.n_atoms - 1) // 2
        for _ in filter(None, skew[done:done + count]):
            report["ok"] = False
            report["problems"].append(f"context {c.id!r} has non-orthogonal atoms")
        done += count
    close = (distance_table(stack) < tol.ortho_fixture).tolist()
    firsts: list[int] = []   # the first atom of each ray
    counts: list[int] = []
    for k, row in enumerate(close):
        ray = next((r for r, f in enumerate(firsts) if row[f]), None)
        if ray is None:
            firsts.append(k)
            counts.append(1)
        else:
            counts[ray] += 1
    counts.sort()
    report["rayCount"] = len(firsts)
    report["contextCount"] = len(contexts)
    report["rayContextCounts"] = counts
    report["allCountsEven"] = all(n % 2 == 0 for n in counts)
    report["parityObstruction"] = report["allCountsEven"] and len(contexts) % 2 == 1
    return report


def load_bundled_ks(tol: Tolerances = DEFAULT) -> list[Context]:
    """The bundled dim-4, 9-context, 18-ray fixture; rejected at load time
    if the validation pass fails."""
    doc = json.loads(resources.files("toposval").joinpath("data/ks18_dim4.json").read_text())
    contexts, _ = contexts_from_json(doc, tol)
    report = validate_rank_one_cover(contexts, tol)
    if not report["ok"]:
        raise ContextError(f"bundled fixture failed validation: {report['problems']}")
    if report["rayCount"] != 18 or report["rayContextCounts"] != [2] * 18:
        raise ContextError("bundled fixture sharing pattern is not 18 rays, each in two contexts")
    return contexts


def bundled_ks_poset(tol: Tolerances = DEFAULT) -> ContextPoset:
    """The bundled fixture's poset, closed under meets so the shared-ray
    constraints appear as common subcontexts (plus the trivial context)."""
    contexts = load_bundled_ks(tol)
    return build_poset(contexts, add_trivial=True, close_under_meets=True, tol=tol)
