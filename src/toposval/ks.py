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

from .contexts import Context, ContextError, ContextPoset, PosetIndex, _mask_bits, _row_masks, build_poset
from .linalg import LinalgError, _hermitian_defect, product_max
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
    comparable pair, read off the partition maps, and value-level
    functional composition through Gelfand evaluation of a generating
    operator of each coarser context (`_first_value_mismatch`)."""
    if set(assignment) != set(poset.ids):
        return False
    for cid in poset.ids:
        if not 0 <= assignment[cid] < poset.context(cid).n_atoms:
            return False
    pairs = poset.pairs(proper_only=True)
    for sub, sup in pairs:
        if _restriction_index(poset, sub, sup, assignment[sup]) != assignment[sub]:
            return False
    return _first_value_mismatch(poset, assignment, pairs, tol) is None


def _first_value_mismatch(poset: ContextPoset, assignment: dict[str, int],
                          pairs: list[tuple[str, str]], tol: Tolerances) -> tuple[str, str] | None:
    """The first pair (sub, sup) at which sub's generator, the sum of
    (j + 2) times its atom j, takes `evaluate` values at the assigned atoms
    of sup and of sub more than tol.recon apart; None if no pair does.

    Each sub's generator is built once and all are validated in one
    Hermitian check; every product of an atom with a generator that
    `evaluate` takes (sup's atoms per pair, sub's atoms once) is one
    stacked product per dimension (`_evaluations`).  The first pair to
    fail, in order, decides, as evaluating pair by pair would: its
    generator not Hermitian, a dimension mismatch, the generator outside
    the algebra of sup and then of sub (each an error), then its values."""
    contexts = poset.contexts
    gens: dict[str, np.ndarray] = {}
    groups: dict[tuple[str, str], int] = {}   # (context, sub): an evaluation of sub's generator
    at_sup, at_sub = [], []
    for sub, sup in pairs:
        if sub not in gens:
            gens[sub] = sum((j + 2) * a.entries for j, a in enumerate(contexts[sub].atoms))
            groups[(sub, sub)] = len(groups)
        if contexts[sup].dim == contexts[sub].dim:
            groups[(sup, sub)] = len(groups)
        at_sup.append(groups.get((sup, sub), -1))
        at_sub.append(groups[(sub, sub)])
    if not pairs:
        return None
    hermitian = dict(zip(gens, (_hermitian_defect_each(list(gens.values())) <= tol.herm).tolist()))
    first, c, defect = _evaluations(contexts, list(groups), gens)
    outside = np.logical_or.reduceat(defect > tol.atom, first[:-1])
    value = c[first[:-1] + [assignment[cid] for cid, _ in groups]]
    at_sup, at_sub = np.array(at_sup), np.array(at_sub)
    bad_gen = np.array([not hermitian[sub] for sub, _ in pairs])
    stops = bad_gen | (at_sup < 0) | outside[at_sup] | outside[at_sub] \
        | (np.abs(value[at_sup] - value[at_sub]) > tol.recon)
    if not stops.any():
        return None
    k = int(np.argmax(stops))
    if bad_gen[k]:
        raise LinalgError("matrix is not Hermitian within tolerance")
    if at_sup[k] < 0:
        raise ContextError("dimension mismatch")
    if outside[at_sup[k]] or outside[at_sub[k]]:
        raise ContextError("operator is not in the context's algebra")
    return pairs[k]


def _hermitian_defect_each(mats: list[np.ndarray]) -> np.ndarray:
    """`HermitianOperator`'s defect of each matrix, one stack per shape."""
    out = np.zeros(len(mats))
    for shape in {m.shape for m in mats}:
        at = [k for k, m in enumerate(mats) if m.shape == shape]
        out[at] = _hermitian_defect(np.array([mats[k] for k in at]))
    return out


def _evaluations(contexts: dict[str, Context], groups: list[tuple[str, str]],
                 gens: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each (context, sub) group, rows first[g] to first[g + 1]: per
    atom of the context in order, `evaluate`'s value c of sub's generator
    there and its defect, max|atom @ gen - c atom|.  Each is the float
    `evaluate` computes, from the same product, trace and division; the
    products are one stacked matmul per dimension."""
    sizes = np.array([contexts[cid].n_atoms for cid, _ in groups], dtype=np.int64)
    first = np.concatenate([[0], np.cumsum(sizes)])
    c, defect = np.zeros(first[-1]), np.zeros(first[-1])
    by_dim: dict[int, list[int]] = {}
    for g, (cid, _) in enumerate(groups):
        by_dim.setdefault(contexts[cid].dim, []).append(g)
    for at in by_dim.values():
        owners = [contexts[groups[g][0]] for g in at]
        n = sizes[at]
        rows = np.arange(n.sum()) + np.repeat(first[at] - (np.cumsum(n) - n), n)
        stack = np.concatenate([o.stack for o in owners])
        gen = np.repeat(np.array([gens[groups[g][1]] for g in at]), n, axis=0)
        products = np.matmul(stack, gen)
        c[rows] = np.trace(products, axis1=1, axis2=2).real / [a.rank for o in owners for a in o.atoms]
        defect[rows] = np.abs(products - c[rows][:, np.newaxis, np.newaxis] * stack).max(axis=(1, 2))
    return first, c, defect


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
    index = poset.index
    levels = _levels(index, [index.pos[m] for m in poset.maximal_ids()])
    verdict = _search(index, levels)
    if verdict["exists"]:
        if not section_verify(poset, verdict["witness"], tol):
            raise RuntimeError("search produced a section that fails verification")
    else:
        reversed_verdict = _search(index, levels[::-1])
        if reversed_verdict["exists"]:
            raise RuntimeError("order-reversed replay disagrees with the none verdict")
        verdict["nodesExplored"] += reversed_verdict["nodesExplored"]
    return verdict


def _search(index: PosetIndex, levels: list[tuple[int, list[tuple[int, int | None]]]]) -> dict:
    """The backtracking search on int bitmasks over the index's cells
    (`cell_start` numbering; a context pinned to atom a holds the cell of
    its mask 1 << a), over the maximal contexts in the order of `levels`
    (see `_levels`).  Each choice of an atom at a maximal context m has
    precomputed `pins`, the cells it pins at every context below m (m
    included), and m has `span`, every cell of those contexts; a node is
    then one conflict test, `pinned & span & ~pins`, and one OR.  The
    choices are tried in the order of the per-context propagation, so the
    node count and the witness are its own.  A choice whose restriction
    misses some context below m (a partition map that does not cover the
    atom) raises when it is first tried, unless a context before that one,
    in down-set order, already conflicts: where the per-context
    propagation would stop first."""
    if not index.ids:
        return {"exists": True, "witness": {}, "nodesExplored": 0}
    nodes = 0

    def backtrack(i: int, pinned: int) -> int | None:
        nonlocal nodes
        if i == len(levels):
            return pinned
        span, choices = levels[i]
        for pins, cut in choices:
            nodes += 1
            if pinned & (span if cut is None else cut) & ~pins:
                continue
            if cut is not None:
                raise ContextError("partition map does not cover the atom")
            found = backtrack(i + 1, pinned | pins)
            if found is not None:
                return found
        return None

    found = backtrack(0, 0)
    if found is None:
        return {"exists": False, "witness": None, "nodesExplored": nodes}
    # contexts below no maximal cannot exist; every context is pinned now
    witness = {}
    for cid, first, n in zip(index.ids, index.cell_start.tolist(), index.n_atoms):
        cell = found >> first & (1 << (1 << n)) - 1   # the bit of mask 1 << atom
        if cell:
            witness[cid] = (cell.bit_length() - 1).bit_length() - 1
    return {"exists": True, "witness": witness, "nodesExplored": nodes}


def _levels(index: PosetIndex, maximal: list[int]) -> list[tuple[int, list[tuple[int, int | None]]]]:
    """Per maximal context m, in the given order: its span and, per atom
    of m in order, (pins, cut), where cut is None or, for an atom whose
    restriction misses a context below m, the span's cells before the
    first such context.  All from one gather of the owner table and one
    bit packing of the pins and of the spans."""
    t = index.tables
    start = index.cell_start
    stages = len(index.ids)
    below = _mask_bits([index.down[m] for m in maximal], stages)   # (levels, stages)
    level, sub = np.nonzero(below)   # by level, then down-set order
    sup = np.array(maximal, dtype=np.int64)[level]
    rank = index._ranks("owner", sub, sup)   # raises for a pair without a partition map
    n = np.array(index.n_atoms)[sup]
    width = int(n.max(initial=1))
    atom = np.arange(width)
    # m's own atoms stay themselves, whatever its own map says
    at = np.minimum(t.owner_start[rank][:, np.newaxis] + atom, len(t.owner) - 1)
    owner = np.where((sub == sup)[:, np.newaxis], atom, t.owner[at])
    real = atom < n[:, np.newaxis]
    past = real & (owner >= np.array(index.n_atoms)[sub][:, np.newaxis])
    if past.any():
        r = int(np.flatnonzero(past.any(axis=1))[0])
        raise ContextError(f"partition map of {index.ids[sub[r]]!r} in {index.ids[sup[r]]!r} has a "
                           f"block past the {index.n_atoms[sub[r]]} atoms of {index.ids[sub[r]]!r}")
    r, a = np.nonzero(real & (owner >= 0))
    pinned = np.zeros((len(maximal) * width, int(start[-1])), dtype=bool)
    pinned[level[r] * width + a, start[sub[r]] + (1 << owner[r, a])] = True
    pins = _row_masks(pinned)
    spans = _row_masks(below[:, index.cell_stage])
    first_miss: dict[tuple[int, int], int] = {}   # (level, atom) -> first context missed
    for r, a in zip(*np.nonzero(real & (owner < 0))):
        first_miss.setdefault((int(level[r]), int(a)), int(start[sub[r]]))
    out = []
    for lv, m in enumerate(maximal):
        choices = []
        for a in range(index.n_atoms[m]):
            miss = first_miss.get((lv, a))
            choices.append((pins[lv * width + a], None if miss is None else spans[lv] & (1 << miss) - 1))
        out.append((spans[lv], choices))
    return out


def validate_rank_one_cover(contexts: list[Context], tol: Tolerances = DEFAULT) -> dict:
    """Validation pass for ray-sharing fixtures: every atom rank one,
    atoms orthogonal within the fixture tolerance, and the per-ray context
    counts; the parity obstruction is certified when every count is even
    and the number of contexts is odd.

    Problems are listed per context: its atoms of rank other than one, then
    one entry per non-orthogonal pair (max|a b| > tol.ortho_fixture), in
    `itertools.combinations` order.  Each atom, in order, joins the first
    ray whose first atom is within tol.ortho_fixture in max-abs entries, or
    starts a ray.  The pair products are one chunked broadcast over all
    atoms.  The rays are then found one at a time: the first atom in no ray
    yet starts one, which takes every atom in no ray within the tolerance
    of it, by one max-abs test.  Those are the atoms the first-fit rule
    puts in that ray: near no earlier ray's first atom, and near this one;
    and each test is the float that rule compares."""
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
    counts = []
    free = np.arange(len(stack))   # the atoms in no ray yet, ascending
    while free.size:
        joins = np.abs(stack[free] - stack[free[0]]).max(axis=(1, 2)) < tol.ortho_fixture
        joins[0] = True
        counts.append(int(joins.sum()))
        free = free[~joins]
    counts.sort()
    report["rayCount"] = len(counts)
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
