"""Differential tests for the exact valuation kernel.

`ContextPoset` answers down-sets, up-sets, maximal ids and cover pairs from
an index of int bitmasks, coarse-grains and restricts through per-pair
tables, and the state valuations decide each (context, mask) once, keep
member sets as bitmasks and memoise truth sets, supports and intervals.
The scanning accessors, the partition-map coarse-graining and restriction,
the per-(stage, mask, subcontext) projector rules of `nu_rho`/`nu_rho_r`,
and the frozenset checkers they fed are kept here as oracles.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from toposval.contexts import (
    Character,
    Context,
    ContextError,
    ContextPoset,
    LatticeElement,
    PosetIndex,
    _check_partial_order,
    bit_list,
    build_poset,
    trivial_context,
)
from toposval.ks import global_section_search, load_bundled_ks
from toposval.linalg import DensityMatrix, LinalgError, Projector, certain, certain_each, probability_each
from toposval.presheaves import check_nat_iso, clo_sigma_restrict, coarse_grain, sigma_restrict
from toposval.sampling import fix_a, random_category, random_density, random_poset, random_unitary
from toposval.serialization import contexts_from_json
from toposval.tolerances import DEFAULT
from toposval.valuations import (
    MorphismSetValuation,
    _characterization as matrix_characterization,
    _condition_i,
    _exclusivity_witness,
    _func_witness,
    _intervals_subobject,
    _monotonicity_witness,
    _null_witness,
    _unit_witness,
    alpha_from_global_element,
    alpha_from_subobject,
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    from_table,
    interval,
    nu_rho,
    nu_rho_r,
    random_table_valuation,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    support,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
    unclosed_cells,
    valuations_equal,
)

from conftest import (
    bits_valuation,
    coarse_oracle,
    flat_pair_row,
    gather_rows,
    image_oracle,
    index_below,
    restriction_oracle,
    route_rows,
    route_table,
    stage_bits,
    unclosed_cells_oracle,
    up_set,
)


# --------------------------------------------------------------------------
# scanning oracles for the poset accessors

def scan_ids(poset):
    return sorted(poset.contexts)


def scan_down_set(poset, cid):
    return [x for x in scan_ids(poset) if (x, cid) in poset.order]


def scan_up_set(poset, cid):
    return [x for x in scan_ids(poset) if (cid, x) in poset.order]


def scan_maximal_ids(poset):
    ids = scan_ids(poset)
    return [x for x in ids if not any((x, y) in poset.order and x != y for y in ids)]


def scan_cover_pairs(poset):
    ids = scan_ids(poset)
    out = []
    for sub, sup in sorted(p for p in poset.order if p[0] != p[1]):
        if not any((sub, mid) in poset.order and (mid, sup) in poset.order
                   and mid not in (sub, sup) for mid in ids):
            out.append((sub, sup))
    return out


def pmap_coarse_grain(poset, sub, sup, mask):
    """A sub-atom enters when its block of super-atoms meets the mask."""
    out = 0
    for j, block in enumerate(poset.partition_maps[(sub, sup)]):
        if block & mask:
            out |= 1 << j
    return out


def pmap_restrict(poset, sub, sup, indices):
    """Each super-atom goes to the first sub-atom whose block holds it."""
    pmap = poset.partition_maps[(sub, sup)]
    return frozenset(next(j for j, block in enumerate(pmap) if block >> k & 1) for k in indices)


def mask_indices(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


# --------------------------------------------------------------------------
# projector-rule valuations and frozenset checkers

def lattice_projector(ctx, mask):
    if mask == 0:
        return Projector(np.zeros((ctx.dim, ctx.dim)))
    return Projector(sum(ctx.atoms[i].entries for i in range(ctx.n_atoms) if mask >> i & 1))


def oracle_valuation(rho, poset, r=None, tol=DEFAULT):
    """`nu_rho` (r None or within r_slack of 1) or `nu_rho_r`, one projector
    per (stage, mask, subcontext)."""
    exact = r is None or abs(r - 1.0) < tol.r_slack

    def rule(cid, mask):
        out = []
        for sub in scan_down_set(poset, cid):
            p = lattice_projector(poset.context(sub), pmap_coarse_grain(poset, sub, cid, mask))
            if exact:
                hit = certain(rho, p, tol)
            else:
                hit = float(np.trace(rho.entries @ p.entries).real) >= r - tol.r_slack
            if hit:
                out.append(sub)
        return frozenset(out)

    return MorphismSetValuation(poset, rule, name="oracle")


def n_masks(poset, cid):
    return range(1 << poset.context(cid).n_atoms)


def o_is_true(alpha, cid, mask):
    return alpha.members(cid, mask) == frozenset(scan_down_set(alpha.poset, cid))


def o_support(alpha, cid):
    truths = [m for m in n_masks(alpha.poset, cid) if o_is_true(alpha, cid, m)]
    if not truths:
        return None
    mask = alpha.poset.context(cid).full_mask
    for m in truths:
        mask &= m
    return mask


def o_interval(alpha, cid):
    s = o_support(alpha, cid)
    return mask_indices(alpha.poset.context(cid).full_mask if s is None else s)


def o_pairs(poset, proper_only=False):
    return sorted(p for p in poset.order if not proper_only or p[0] != p[1])


def o_sieve(alpha):
    poset = alpha.poset
    for cid in scan_ids(poset):
        for mask in n_masks(poset, cid):
            members = alpha.members(cid, mask)
            if not all(b in members for m in members for b in scan_down_set(poset, m)):
                return False, {"v1": cid, "mask": mask, "members": sorted(members)}
    return True, None


def o_func(alpha):
    poset = alpha.poset
    for sub, sup in o_pairs(poset):
        for mask in n_masks(poset, sup):
            lhs = alpha.members(sub, pmap_coarse_grain(poset, sub, sup, mask))
            rhs = frozenset(m for m in alpha.members(sup, mask) if (m, sub) in poset.order)
            if lhs != rhs:
                return False, {"v1": sup, "v2": sub, "mask": mask,
                               "lhs": sorted(lhs), "rhs": sorted(rhs)}
    return True, None


def _status(ok, witness):
    return {"status": "pass" if ok else "fail", "witness": witness}


def o_definition3(alpha):
    poset = alpha.poset
    ids = scan_ids(poset)
    report = {"sievehood": _status(*o_sieve(alpha)), "func": _status(*o_func(alpha))}
    w = next(({"v1": c, "members": sorted(alpha.members(c, 0))}
              for c in ids if alpha.members(c, 0)), None)
    report["null"] = _status(w is None, w)
    w = next(({"v1": c, "p": p, "q": q} for c in ids for p in n_masks(poset, c)
              for q in n_masks(poset, c)
              if p & q == p and not alpha.members(c, p) <= alpha.members(c, q)), None)
    report["monotonicity"] = _status(w is None, w)
    w = next(({"v1": c, "p": p, "q": q} for c in ids for p in n_masks(poset, c)
              if o_is_true(alpha, c, p) for q in n_masks(poset, c)
              if p & q == 0 and o_is_true(alpha, c, q)), None)
    report["exclusivity"] = _status(w is None, w)
    w = next(({"v1": c} for c in ids
              if not o_is_true(alpha, c, poset.context(c).full_mask)), None)
    report["unit"] = _status(w is None, w)
    report["passed"] = all(v["status"] == "pass" for v in report.values())
    return report


def o_degenerate(alpha):
    return [c for c in scan_ids(alpha.poset) if o_support(alpha, c) is None]


def o_subobject_condition(alpha):
    poset = alpha.poset
    if o_degenerate(alpha):
        return {"status": "degenerate", "witness": None, "degenerate": o_degenerate(alpha)}
    for sub, sup in o_pairs(poset, proper_only=True):
        s_sub, s_sup = o_support(alpha, sub), o_support(alpha, sup)
        lifted = 0
        for j, block in enumerate(poset.partition_maps[(sub, sup)]):
            if s_sub >> j & 1:
                lifted |= block
        if lifted & s_sup != s_sup:
            return {"status": "fail", "witness": {"v1": sup, "v2": sub, "s1": s_sup, "s2": s_sub},
                    "degenerate": []}
    return {"status": "pass", "witness": None, "degenerate": []}


def o_global_element_condition(alpha):
    poset = alpha.poset
    if o_degenerate(alpha):
        return {"status": "degenerate", "witness": None, "degenerate": o_degenerate(alpha)}
    for sub, sup in o_pairs(poset, proper_only=True):
        cg = pmap_coarse_grain(poset, sub, sup, o_support(alpha, sup))
        if o_support(alpha, sub) != cg:
            return {"status": "fail",
                    "witness": {"v1": sup, "v2": sub, "support_v2": o_support(alpha, sub),
                                "coarse_grained_support_v1": cg},
                    "degenerate": []}
    return {"status": "pass", "witness": None, "degenerate": []}


def o_supports_report(alpha):
    ids = scan_ids(alpha.poset)
    return {
        "supports": {c: o_support(alpha, c) for c in ids},
        "intervals": {c: sorted(o_interval(alpha, c)) for c in ids},
        "subobjectCondition": o_subobject_condition(alpha),
        "globalElementCondition": o_global_element_condition(alpha),
    }


def supports_report(alpha):
    ids = alpha.poset.ids
    return {
        "supports": {c: None if support(alpha, c) is None else support(alpha, c).mask for c in ids},
        "intervals": {c: sorted(k.atom_index for k in interval(alpha, c)) for c in ids},
        "subobjectCondition": check_subobject_condition(alpha),
        "globalElementCondition": check_global_element_condition(alpha),
    }


def o_equal(a, b):
    poset = a.poset
    for cid in scan_ids(poset):
        for mask in n_masks(poset, cid):
            if a.members(cid, mask) != b.members(cid, mask):
                return False, {"v1": cid, "mask": mask, "lhs": sorted(a.members(cid, mask)),
                               "rhs": sorted(b.members(cid, mask))}
    return True, None


def o_condition_i_supports(alpha):
    poset = alpha.poset
    for sup in scan_ids(poset):
        for mask in n_masks(poset, sup):
            members = alpha.members(sup, mask)
            for sub in scan_down_set(poset, sup):
                s = o_support(alpha, sub)
                if s is None:
                    return False, {"degenerate": sub}
                below = s & pmap_coarse_grain(poset, sub, sup, mask) == s
                if below != (sub in members):
                    return False, {"v1": sup, "v2": sub, "mask": mask,
                                   "support_below": below, "member": sub in members}
    return True, None


def o_condition_i_intervals(alpha):
    poset = alpha.poset
    for sup in scan_ids(poset):
        for mask in n_masks(poset, sup):
            members = alpha.members(sup, mask)
            for sub in scan_down_set(poset, sup):
                inside = o_interval(alpha, sub) <= pmap_restrict(poset, sub, sup, mask_indices(mask))
                if inside != (sub in members):
                    return False, {"v1": sup, "v2": sub, "mask": mask,
                                   "interval_inside": inside, "member": sub in members}
    return True, None


def o_reconstruct_from_supports(alpha):
    poset = alpha.poset
    if o_degenerate(alpha):
        return {"degenerate": o_degenerate(alpha), "skipped": True}

    def rule(cid, mask):
        return frozenset(
            sub for sub in scan_down_set(poset, cid)
            if o_support(alpha, sub) & pmap_coarse_grain(poset, sub, cid, mask) == o_support(alpha, sub)
        )

    equal, witness = o_equal(alpha, MorphismSetValuation(poset, rule))
    cond_i, cond_witness = o_condition_i_supports(alpha)
    return {"equal": equal, "witness": witness, "condition_i": cond_i,
            "condition_i_witness": cond_witness, "iff_consistent": equal == cond_i}


def o_reconstruct_from_intervals(alpha):
    poset = alpha.poset

    def rule(cid, mask):
        return frozenset(
            sub for sub in scan_down_set(poset, cid)
            if o_interval(alpha, sub) <= pmap_restrict(poset, sub, cid, mask_indices(mask))
        )

    equal, witness = o_equal(alpha, MorphismSetValuation(poset, rule))
    cond_i, cond_witness = o_condition_i_intervals(alpha)
    return {"equal": equal, "witness": witness, "condition_i": cond_i,
            "condition_i_witness": cond_witness, "iff_consistent": equal == cond_i}


def _characterization(alpha, expected_of):
    poset = alpha.poset
    for sup in scan_ids(poset):
        expected = expected_of(sup)
        if expected is None:
            return False, {"degenerate": sup}
        for mask in n_masks(poset, sup):
            members = alpha.members(sup, mask)
            want = frozenset(sub for sub in scan_down_set(poset, sup) if expected(sub, mask))
            if members != want:
                return False, {"v1": sup, "mask": mask, "lhs": sorted(members), "rhs": sorted(want)}
    return True, None


def _contract(report, cond_i, cond_ii, sieve, func, charac):
    conditions_hold = cond_i[0] and cond_ii[0]
    report.update({
        "conclusion_sieve": {"holds": sieve[0], "witness": sieve[1]},
        "conclusion_func": {"holds": func[0], "witness": func[1]},
        "conclusion_characterization": {"holds": charac[0], "witness": charac[1]},
        "conditions_hold": conditions_hold,
        "contract_ok": (not conditions_hold) or (sieve[0] and func[0] and charac[0]),
        "func_given_i_ok": (not cond_i[0]) or func[0],
    })
    return report


def o_theorem1(alpha):
    poset = alpha.poset
    if o_degenerate(alpha):
        return {"degenerate": o_degenerate(alpha), "skipped": True}
    cond_i = o_condition_i_supports(alpha)
    ge = o_global_element_condition(alpha)
    cond_ii = (ge["status"] == "pass", ge["witness"])

    def expected_of(sup):
        s1 = o_support(alpha, sup)
        if s1 is None:
            return None

        def expected(sub, mask):
            c1 = pmap_coarse_grain(poset, sub, sup, s1)
            return c1 & pmap_coarse_grain(poset, sub, sup, mask) == c1
        return expected

    report = {"degenerate": [], "skipped": False,
              "condition_i": {"holds": cond_i[0], "witness": cond_i[1]},
              "condition_ii": {"holds": cond_ii[0], "witness": cond_ii[1]}}
    return _contract(report, cond_i, cond_ii, o_sieve(alpha), o_func(alpha),
                     _characterization(alpha, expected_of))


def o_theorem2(alpha):
    poset = alpha.poset
    cond_i = o_condition_i_intervals(alpha)
    cond_ii = (True, None)
    law = True
    for sub, sup in o_pairs(poset, proper_only=True):
        restricted = pmap_restrict(poset, sub, sup, o_interval(alpha, sup))
        if not restricted <= o_interval(alpha, sub):
            law = False
        if restricted != o_interval(alpha, sub) and cond_ii[0]:
            cond_ii = (False, {"v1": sup, "v2": sub, "restricted": sorted(restricted),
                               "interval": sorted(o_interval(alpha, sub))})
    iso = (True, None)
    for sup in scan_ids(poset):
        for mask in n_masks(poset, sup):
            members = alpha.members(sup, mask)
            for sub in scan_down_set(poset, sup):
                target = mask_indices(pmap_coarse_grain(poset, sub, sup, mask))
                if iso[0] and (o_interval(alpha, sub) <= target) != (sub in members):
                    iso = (False, {"v1": sup, "v2": sub, "mask": mask})

    def expected_of(sup):
        def expected(sub, mask):
            return (pmap_restrict(poset, sub, sup, o_interval(alpha, sup))
                    <= pmap_restrict(poset, sub, sup, mask_indices(mask)))
        return expected

    report = {"condition_i": {"holds": cond_i[0], "witness": cond_i[1]},
              "condition_ii": {"holds": cond_ii[0], "witness": cond_ii[1]},
              "condition_i_iso_route": {"holds": iso[0], "witness": iso[1]},
              "routes_agree": cond_i[0] == iso[0],
              "subobject_law": law}
    return _contract(report, cond_i, cond_ii, o_sieve(alpha), o_func(alpha),
                     _characterization(alpha, expected_of))


def assert_same_verdicts(fast, oracle):
    """Every report of the fast valuation equals the oracle's."""
    assert fast.dump() == oracle.dump()
    assert supports_report(fast) == o_supports_report(oracle)
    assert check_definition3(fast) == o_definition3(oracle)
    assert theorem1_verify(fast) == o_theorem1(oracle)
    assert theorem2_verify(fast) == o_theorem2(oracle)
    assert reconstruct_from_supports(fast)[1] == o_reconstruct_from_supports(oracle)
    assert reconstruct_from_intervals(fast)[1] == o_reconstruct_from_intervals(oracle)


def state_valuation(rho, poset, r):
    return nu_rho(rho, poset) if r == 1 else nu_rho_r(rho, r, poset)


def atom_mixture(rng, poset):
    """A state supported on a random lattice element of a random context,
    so that certainty holds below the full proposition."""
    ctx = poset.context(poset.ids[int(rng.integers(len(poset.ids)))])
    mask = int(rng.integers(1, 1 << ctx.n_atoms))
    weights = [rng.random() if mask >> i & 1 else 0.0 for i in range(ctx.n_atoms)]
    m = sum(w * a.entries / a.rank for w, a in zip(weights, ctx.atoms))
    return DensityMatrix(m / np.trace(m).real)


R_VALUES = (1, 0.8, 0.6, 0.3)


@pytest.mark.parametrize("r", R_VALUES)
def test_state_valuations_match_projector_oracle_on_random_posets(r):
    for seed in range(100):
        rng = np.random.default_rng([seed, 3])
        dim = int(rng.integers(2, 6))
        poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
        for rho in (random_density(rng, dim), atom_mixture(rng, poset)):
            fast = state_valuation(rho, poset, r)
            assert_same_verdicts(fast, oracle_valuation(rho, poset, r))


def test_table_valuations_match_frozenset_checkers():
    # arbitrary member sets break every clause, so the witnesses are exercised
    for seed in range(60):
        rng = np.random.default_rng([seed, 4])
        poset = random_poset(rng, dim=int(rng.integers(2, 5)), max_contexts=5, max_atoms=3)
        alpha = random_table_valuation(rng, poset, sieve_valued=bool(seed % 2))
        assert_same_verdicts(alpha, alpha)


def _peres_bases():
    """The 24 orthogonal bases of Peres' 24 rays in dimension 4."""
    rays = set()
    for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for signs in itertools.product((1, -1), repeat=4):
            for ray in itertools.permutations([s * x for s, x in zip(signs, pattern)]):
                lead = next(x for x in ray if x)
                rays.add(tuple(x * lead for x in ray))
    return [quad for quad in itertools.combinations(sorted(rays), 4)
            if all(np.dot(p, q) == 0 for p, q in itertools.combinations(quad, 2))]


@pytest.mark.parametrize("r", R_VALUES)
def test_state_valuations_match_projector_oracle_on_rotated_peres_subset(r):
    rng = np.random.default_rng(24)
    u = random_unitary(rng, 4)
    bases = _peres_bases()
    chosen = [bases[int(i)] for i in rng.choice(len(bases), size=6, replace=False)]
    contexts = []
    for k, basis in enumerate(chosen):
        vecs = [u @ (np.asarray(ray, dtype=float) / np.linalg.norm(ray)) for ray in basis]
        contexts.append(Context(f"P{k}", [Projector(np.outer(v, v.conj())) for v in vecs]))
    poset = build_poset(contexts, add_trivial=True, close_under_meets=True)
    assert any(cid.startswith("meet") for cid in poset.ids)
    ray = contexts[0].atoms[0].entries
    states = (DensityMatrix(ray), DensityMatrix(0.3 * ray + 0.7 * contexts[1].atoms[2].entries),
              random_density(rng, 4))
    for rho in states:
        assert_same_verdicts(state_valuation(rho, poset, r), oracle_valuation(rho, poset, r))


# --------------------------------------------------------------------------
# the per-law scans the member matrix replaced, kept as oracles
#
# These are the scans that decided each law before the laws became array
# reductions: member rules built through `stage_rule`, and one Python loop
# per law over int bitmask rows, in the order that defines each witness.

def stage_rule(index, below, decide):
    """The member rule "stage j enters (context i, mask) when `decide`
    holds for j and the image of the mask at j", with `below(i)` giving
    (j, table of images) for the stages below i.  `decide` is called at
    most once per (stage index, stage mask)."""
    decided = [None] * len(index.ids)

    def rule(i, mask):
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


def scan_row(alpha, i):
    return [alpha._bits(i, m) for m in range(1 << alpha._index.n_atoms[i])]


def scan_sieve(alpha):
    index = alpha._index
    for i, cid in enumerate(index.ids):
        for mask, bits in enumerate(scan_row(alpha, i)):
            closure = 0
            for j in bit_list(bits):
                closure |= index.down[j]
            if closure & ~bits:
                return False, {"v1": cid, "mask": mask, "members": list(index.names(bits))}
    return True, None


def scan_func(alpha):
    index = alpha._index
    for sub, sup in index.pair_indices:
        table = index.coarse(sub, sup)
        sub_row = scan_row(alpha, sub)
        for mask, bits in enumerate(scan_row(alpha, sup)):
            lhs = sub_row[table[mask]]
            rhs = bits & index.down[sub]
            if lhs != rhs:
                return {"v1": index.ids[sup], "v2": index.ids[sub], "mask": mask,
                        "lhs": list(index.names(lhs)), "rhs": list(index.names(rhs))}
    return None


def scan_null(alpha):
    index = alpha._index
    for i, cid in enumerate(index.ids):
        bits = alpha._bits(i, 0)
        if bits:
            return {"v1": cid, "members": list(index.names(bits))}
    return None


def scan_monotonicity(alpha):
    for i, cid in enumerate(alpha._index.ids):
        row = scan_row(alpha, i)
        for p, bits in enumerate(row):
            q = p
            while q < len(row):   # the masks above p, ascending
                if bits & ~row[q]:
                    return {"v1": cid, "p": p, "q": q}
                q = (q + 1) | p
    return None


def scan_truth(alpha, i):
    top = alpha._index.down[i]
    return tuple(m for m, bits in enumerate(scan_row(alpha, i)) if bits == top)


def scan_supports(alpha):
    out = []
    for i, n in enumerate(alpha._index.n_atoms):
        truths = scan_truth(alpha, i)
        mask = (1 << n) - 1
        for m in truths:
            mask &= m
        out.append(mask if truths else None)
    return out


def scan_intervals(alpha):
    return [(1 << n) - 1 if s is None else s
            for s, n in zip(scan_supports(alpha), alpha._index.n_atoms)]


def scan_exclusivity(alpha):
    for i, cid in enumerate(alpha._index.ids):
        truths = scan_truth(alpha, i)
        for p in truths:
            for q in truths:
                if p & q == 0:
                    return {"v1": cid, "p": p, "q": q}
    return None


def scan_unit(alpha):
    index = alpha._index
    for i, cid in enumerate(index.ids):
        if alpha._bits(i, (1 << index.n_atoms[i]) - 1) != index.down[i]:
            return {"v1": cid}
    return None


def scan_condition_i(alpha, below, chosen, inside_key):
    index = alpha._index
    for sup, cid in enumerate(index.ids):
        rows = below(sup)
        for mask, bits in enumerate(scan_row(alpha, sup)):
            for sub, table in rows:
                inside = not chosen[sub] & ~table[mask]
                if inside != bool(bits >> sub & 1):
                    witness = {"v1": cid, "v2": index.ids[sub], "mask": mask}
                    if inside_key is not None:
                        witness.update({inside_key: inside, "member": not inside})
                    return False, witness
    return True, None


def scan_characterization(alpha, below, chosen):
    index = alpha._index
    for sup, cid in enumerate(index.ids):
        rows = [(sub, table, table[chosen[sup]]) for sub, table in below(sup)]
        for mask, bits in enumerate(scan_row(alpha, sup)):
            expected = 0
            for sub, table, c1 in rows:
                if not c1 & ~table[mask]:
                    expected |= 1 << sub
            if bits != expected:
                return False, {"v1": cid, "mask": mask,
                               "lhs": list(index.names(bits)), "rhs": list(index.names(expected))}
    return True, None


def scan_equal(a, b):
    index = a._index
    for i, cid in enumerate(index.ids):
        for mask, (x, y) in enumerate(zip(scan_row(a, i), scan_row(b, i))):
            if x != y:
                return False, {"v1": cid, "mask": mask,
                               "lhs": list(index.names(x)), "rhs": list(index.names(y))}
    return True, None


def scan_valuation(poset, below, decide, name="scan"):
    """A rule-backed valuation whose rule is `stage_rule` over `below`."""
    return bits_valuation(poset, stage_rule(poset.index, below, decide), name)


def chosen_valuation(poset, route, chosen):
    """The valuation rebuilt from per-stage masks by `stage_rule`: a stage
    enters when its mask lies inside the image of the proposition."""
    index = poset.index
    return scan_valuation(poset, route_rows(index, route), lambda j, m: not chosen[j] & ~m)


def assert_laws_match_scans(alpha):
    """Every law's verdict and witness, from the member matrix, equals the
    scan's; the rebuilt valuations equal `stage_rule`'s rebuilds."""
    index = alpha._index
    assert alpha.is_sieve_valued() == scan_sieve(alpha)
    for law, scan in ((_func_witness, scan_func), (_null_witness, scan_null),
                      (_monotonicity_witness, scan_monotonicity),
                      (_exclusivity_witness, scan_exclusivity), (_unit_witness, scan_unit)):
        assert law(alpha) == scan(alpha), law.__name__
    supports, intervals = scan_supports(alpha), scan_intervals(alpha)
    assert [alpha._support(i) for i in range(len(index.ids))] == supports
    assert [alpha._truth(i) for i in range(len(index.ids))] == \
        [scan_truth(alpha, i) for i in range(len(index.ids))]
    routes = [("below_image", intervals, "interval_inside"), ("below", intervals, None)]
    if None not in supports:
        routes.append(("below", supports, "support_below"))
    for route, chosen, key in routes:
        below = route_rows(index, route)
        assert _condition_i(alpha, route, tuple(chosen), key) == \
            scan_condition_i(alpha, below, chosen, key), (route, key)
        assert matrix_characterization(alpha, route, tuple(chosen)) == \
            scan_characterization(alpha, below, chosen), (route, key)
        if key is not None:
            rebuilt = (alpha_from_subobject(_intervals_subobject(alpha)) if route == "below_image"
                       else alpha_from_global_element(supports_global_element(alpha)))
            scanned = chosen_valuation(alpha.poset, route, chosen)
            assert rebuilt.dump() == scanned.dump()
            assert valuations_equal(alpha, rebuilt) == scan_equal(alpha, scanned)
    assert check_definition3(alpha) == check_definition3(table_copy(alpha))


def table_copy(alpha):
    """The same member sets behind a rule, so the laws see the matrix filled
    from a rule."""
    return bits_valuation(alpha.poset, lambda i, m: alpha._bits(i, m), "copy")


def decide_at_cells(poset, decided):
    first = poset.index.cell_start
    return lambda j, m: bool(decided[first[j] + m])


@pytest.mark.parametrize("r", (1, 0.7, 0.3))
def test_laws_match_scans_on_random_posets(r):
    for seed in range(100):
        rng = np.random.default_rng([seed, 12])
        dim = int(rng.integers(2, 6))
        poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
        for rho in (random_density(rng, dim), atom_mixture(rng, poset)):
            alpha = state_valuation(rho, poset, r)
            # the gathered member matrix is `stage_rule`'s over the same cells
            if r == 1:
                decided = certain_each(rho, poset.lattice.entries)
            else:
                decided = probability_each(rho, poset.lattice.entries) >= r - DEFAULT.r_slack
            scanned = scan_valuation(poset, lambda sup: index_below(poset.index, sup), decide_at_cells(poset, decided))
            assert alpha.dump() == scanned.dump(), seed
            assert_laws_match_scans(alpha)


def plant(rng, poset, table):
    """One planted fault in a member table: a member toggled, a cell made
    the principal sieve, or a cell emptied, at a random (context, mask)."""
    cid = poset.ids[int(rng.integers(len(poset.ids)))]
    mask = int(rng.integers(1 << poset.context(cid).n_atoms))
    down = poset.down_set(cid)
    kind = int(rng.integers(3))
    if kind == 0:
        table[cid, mask] = table[cid, mask] ^ {down[int(rng.integers(len(down)))]}
    elif kind == 1:
        table[cid, mask] = frozenset(down)
    else:
        table[cid, mask] = frozenset()


def test_laws_match_scans_on_planted_failures():
    # valid state valuations as tables, with one to three planted faults:
    # each law first fails at many different places
    witnesses = {law: set() for law in ("sievehood", "func", "null", "monotonicity",
                                        "exclusivity", "unit")}
    reordered = 0
    for seed in range(200):
        rng = np.random.default_rng([seed, 13])
        dim = int(rng.integers(2, 5))
        poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
        rho = random_density(rng, dim) if seed % 2 else atom_mixture(rng, poset)
        nu = nu_rho(rho, poset)
        table = {(cid, m): nu.members(cid, m) for cid in poset.ids for m in n_masks(poset, cid)}
        for _ in range(int(rng.integers(1, 4))):
            plant(rng, poset, table)
        alpha = from_table(poset, table)
        assert_laws_match_scans(alpha)
        for law, status in check_definition3(alpha).items():
            if law != "passed" and status["witness"] is not None:
                witnesses[law].add(repr(sorted(status["witness"].items())))
        # the matrix's flat order (stage, mask, sub) is not the scan's
        # (pair, mask): the first failure differs in some draws
        w = scan_func(alpha)
        if w is not None and w != first_func_failure_by_stage(alpha):
            reordered += 1
    counts = {law: len(found) for law, found in witnesses.items()}
    assert all(n >= 5 for n in counts.values()), counts
    assert reordered > 0


def first_func_failure_by_stage(alpha):
    index = alpha._index
    for sup in range(len(index.ids)):
        for mask, bits in enumerate(scan_row(alpha, sup)):
            for sub, table in index_below(index, sup):
                if alpha._bits(sub, table[mask]) != bits & index.down[sub]:
                    return {"v1": index.ids[sup], "v2": index.ids[sub], "mask": mask,
                            "lhs": list(index.names(alpha._bits(sub, table[mask]))),
                            "rhs": list(index.names(bits & index.down[sub]))}
    return None


def test_gathered_matrix_matches_stage_rule_on_closed_peres24(closed_peres24):
    poset = closed_peres24
    index = poset.index
    assert len(index.gather("below").cell) == len(index.gather("below_image").cell) == 5738
    rho = random_density(np.random.default_rng(24), 4, rank=2)
    for r in (0.8, 0.6, 0.3):
        decided = probability_each(rho, poset.lattice.entries) >= r - DEFAULT.r_slack
        alpha = nu_rho_r(rho, r, poset)
        scanned = scan_valuation(poset, lambda sup: index_below(index, sup), decide_at_cells(poset, decided))
        assert alpha.dump() == scanned.dump()
        assert _func_witness(alpha) == scan_func(scanned)


def test_each_stage_mask_is_decided_once(monkeypatch):
    # every (stage, mask) is decided in the one batched decision of its
    # valuation, certainty at r = 1 and a stacked trace below, made over
    # the poset's distinct lattice matrices; the table, the clauses and
    # both theorems decide nothing more
    import toposval.valuations as valuations

    batches = []
    real_certain, real_trace = valuations.certain_each, valuations.probability_each

    def certain_spy(rho, stack, tol=DEFAULT):
        batches.append(("certain", stack.shape))
        return real_certain(rho, stack, tol)

    def trace_spy(rho, stack):
        batches.append(("trace", stack.shape))
        return real_trace(rho, stack)

    monkeypatch.setattr(valuations, "certain_each", certain_spy)
    monkeypatch.setattr(valuations, "probability_each", trace_spy)
    repeated = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 5])
        poset = random_poset(rng, dim=4, max_contexts=6, max_atoms=4)
        rho = random_density(rng, 4)
        distinct = len(poset.lattice.distinct[0])
        repeated += distinct < sum(1 << poset.context(c).n_atoms for c in poset.ids)
        for r, kind in ((1, "certain"), (0.7, "trace")):
            batches.clear()
            alpha = state_valuation(rho, poset, r)
            alpha.dump()   # every row of every context
            check_definition3(alpha)
            theorem1_verify(alpha)
            theorem2_verify(alpha)
            assert batches == [(kind, (distinct, 4, 4))], (seed, r)
    assert repeated >= 10, repeated


def test_law_results_are_kept_per_valuation(monkeypatch):
    # `verify-theorems` asks for sievehood, functional composition and
    # condition (i) more than once; each is reduced once per valuation
    import toposval.valuations as valuations

    calls = []

    def counting(real):
        def spy(*args):
            calls.append(real.__name__)
            return real(*args)
        return spy

    # every law's reduction ends in one of these
    for name in ("_first", "nonzero_rows"):
        monkeypatch.setattr(valuations, name, counting(getattr(valuations, name)))
    rng = np.random.default_rng(14)
    poset = random_poset(rng, dim=3, max_contexts=5, max_atoms=3)
    alpha = nu_rho(random_density(rng, 3), poset)
    check_definition3(alpha)
    theorem1_verify(alpha)
    theorem2_verify(alpha)
    reconstruct_from_supports(alpha)
    reconstruct_from_intervals(alpha)
    first_round = len(calls)
    check_definition3(alpha)
    theorem1_verify(alpha)
    theorem2_verify(alpha)
    assert first_round and len(calls) == first_round


def test_state_valuation_decides_every_cell_in_one_batch(monkeypatch):
    import toposval.valuations as valuations

    shapes = []

    def spy(rho, stack, tol=DEFAULT):
        shapes.append(stack.shape)
        return certain_each(rho, stack, tol)

    monkeypatch.setattr(valuations, "certain_each", spy)
    rng = np.random.default_rng(5)
    poset = random_poset(rng, dim=4, max_contexts=6, max_atoms=4)
    # one batch over the distinct lattice matrices, gathered back to cells
    distinct = len(poset.lattice.distinct[0])
    for k in range(1, 4):
        alpha = nu_rho(random_density(rng, 4), poset) if k < 3 \
            else nu_rho_r(random_density(rng, 4), 1.0, poset)
        alpha.dump()
        check_definition3(alpha)
        theorem1_verify(alpha)
        assert shapes == [(distinct, 4, 4)] * k


# --------------------------------------------------------------------------
# the packed member kernel against its take/reduceat form

@pytest.fixture(scope="module")
def closed_peres24_doc():
    """Closed Peres-24 from a basis-form document: its lattice sums repeat
    fewer matrices by bytes than the projector form's."""
    doc = {"dim": 4, "contexts": [
        {"id": f"P{k:02d}", "dim": 4, "basis": [list(ray) for ray in basis],
         "partition": [[0], [1], [2], [3]]} for k, basis in enumerate(_peres_bases())]}
    contexts, dim = contexts_from_json(doc)
    return build_poset(contexts, add_trivial=True, close_under_meets=True, dim=dim)


def kernel_posets(closed_peres24, closed_peres24_doc):
    """Both routes of closed Peres-24 (two packed words per row), the
    closed 18-ray fixture and seeded random posets."""
    yield "peres24", closed_peres24
    yield "peres24-doc", closed_peres24_doc
    yield "ks18", build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True)
    for seed in range(30):
        rng = np.random.default_rng([seed, 21])
        dim = int(rng.integers(2, 6))
        yield f"random{seed}", random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)


def test_packed_rows_and_unclosed_cells_match_the_reduceat_oracle(closed_peres24, closed_peres24_doc):
    planted = 0
    for name, poset in kernel_posets(closed_peres24, closed_peres24_doc):
        index = poset.index
        rng = np.random.default_rng(len(index.ids))
        for route in ("below", "below_image"):
            g = index.gather(route)
            members = [rng.random(len(g.cell)) < p for p in (0.1, 0.5, 0.9)]
            members += [np.ones(len(g.cell), dtype=bool), np.zeros(len(g.cell), dtype=bool)]
            for member in members:
                rows = g.pack(member)
                assert rows.dtype == np.uint64 and rows.shape == (len(g.start) - 1, index.words)
                assert np.array_equal(rows, gather_rows(g, member, stage_bits(index))), (name, route)
                if route == "below":
                    assert np.array_equal(unclosed_cells(index, member, rows),
                                          unclosed_cells_oracle(index, member)), name
        # every member but one stage strictly below its cell's own: that
        # cell alone is unclosed, as its own stage is a member
        g = index.gather("below")
        gaps = np.flatnonzero(g.stage != index.cell_stage[g.cell])
        for e in rng.choice(gaps, size=min(5, len(gaps)), replace=False).tolist():
            member = np.ones(len(g.cell), dtype=bool)
            member[e] = False
            got = unclosed_cells(index, member, g.pack(member))
            assert np.flatnonzero(got).tolist() == [g.cell[e]], name
            assert np.array_equal(got, unclosed_cells_oracle(index, member)), name
            planted += 1
    assert planted >= 60, planted


def test_a_passing_verify_theorems_pass_converts_no_full_matrix(monkeypatch, closed_peres24):
    # the member matrix stays packed: rows become ints or names only for a
    # report that names members, and `dump` names the whole matrix once
    import toposval.valuations as valuations
    from toposval.contexts import PosetIndex

    converted = []
    real, real_names = valuations.row_ints, PosetIndex.row_names

    def spy(packed):
        converted.append(len(packed))
        return real(packed)

    def spy_names(index, packed):
        converted.append(len(packed))
        return real_names(index, packed)

    monkeypatch.setattr(valuations, "row_ints", spy)
    monkeypatch.setattr(PosetIndex, "row_names", spy_names)
    poset = closed_peres24
    rng = np.random.default_rng(21)
    for rho in (random_density(rng, 4, rank=1), random_density(rng, 4, rank=2)):
        converted.clear()
        alpha = nu_rho(rho, poset)
        d3 = check_definition3(alpha)
        t1, t2 = theorem1_verify(alpha), theorem2_verify(alpha)
        rs, ri = reconstruct_from_supports(alpha)[1], reconstruct_from_intervals(alpha)[1]
        assert d3["passed"] and t1["conditions_hold"] and t2["conditions_hold"]
        assert rs["equal"] and ri["equal"]
        assert converted == []
        alpha.dump()
        assert converted == [len(poset.lattice.entries)]


# SHA-256 of the sorted-key JSON of every verify-theorems report and both
# support conditions of `nu_rho_r` at r = 0.6 on closed Peres-24, for the
# states random_density(default_rng(seed), 4, rank): each fails both
# theorems' conditions, so the witnesses read member rows one at a time
R06_REPORT_DIGESTS = {
    (1, 1): "01161a53be1c3c66c34b27b9eab80648fecfe9e625f3f0b0c459a07e724347ca",
    (1, 2): "1a36f0704906314b48a1da0563e74de5e6e73ef1d1b9a13c68cfe9d79a42dd6e",
    (2, 2): "5f75ab7f21853548766b9a7be66e7ad51dee79ca5010d1c8a8e0dbc9dabec79c",
}


def test_witnesses_of_failing_valuations_are_pinned(closed_peres24):
    for (seed, rank), digest in R06_REPORT_DIGESTS.items():
        rho = random_density(np.random.default_rng(seed), 4, rank=rank)
        alpha = nu_rho_r(rho, 0.6, closed_peres24)
        report = {"d3": check_definition3(alpha), "t1": theorem1_verify(alpha),
                  "t2": theorem2_verify(alpha), "rs": reconstruct_from_supports(alpha)[1],
                  "ri": reconstruct_from_intervals(alpha)[1],
                  "sub": check_subobject_condition(alpha), "ge": check_global_element_condition(alpha)}
        assert not (report["t1"]["conditions_hold"] or report["t2"]["conditions_hold"])
        assert not (report["rs"]["equal"] or report["ri"]["equal"])
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, rank)
        if (seed, rank) == (1, 2):
            assert report["rs"]["witness"] == {"v1": "P00", "mask": 0, "lhs": [],
                                               "rhs": ["P00", "meet(P00,P09)"]}


def test_decisions_over_distinct_matrices_equal_the_full_stack(closed_peres24, closed_peres24_doc):
    # equal bytes give equal floats, so deciding each distinct lattice
    # matrix once and gathering back to cells moves no decision bit
    shares = {}
    for name, poset in kernel_posets(closed_peres24, closed_peres24_doc):
        lattice = poset.lattice
        matrices, which = lattice.distinct
        shares[name] = (len(matrices), len(lattice.entries))
        assert matrices[which].tobytes() == lattice.entries.tobytes()
        assert len({m.tobytes() for m in matrices}) == len(matrices)
        assert not matrices.flags.writeable
        dim = lattice.entries.shape[1]
        rng = np.random.default_rng(len(matrices))
        for rho in (random_density(rng, dim), random_density(rng, dim, rank=1)):
            assert np.array_equal(certain_each(rho, matrices)[which], certain_each(rho, lattice.entries))
            p_distinct = probability_each(rho, matrices)[which]
            p_full = probability_each(rho, lattice.entries)
            assert p_distinct.tobytes() == p_full.tobytes(), name
            for r in (0.8, 0.6, 0.5):
                assert np.array_equal(p_distinct >= r - DEFAULT.r_slack, p_full >= r - DEFAULT.r_slack)
    assert (shares["peres24"], shares["peres24-doc"], shares["ks18"]) == ((140, 806), (249, 806), (119, 218))
    assert sum(d < c for d, c in shares.values()) >= 20


# --------------------------------------------------------------------------
# the batched cell decisions against per-cell expressions

CERTAIN_TOLS = tuple(DEFAULT.overridden(certain=c) for c in (DEFAULT.certain, 10.0, 1e-15, 0.0))


def per_cell_certain(rho, p, tol):
    s = rho.support_projector.entries
    return bool(np.max(np.abs(p @ s - s)) < tol.certain)


def per_cell_probability(rho, p):
    return float(np.trace(rho.entries @ p).real)


def tie_threshold(rho, poset, tol=DEFAULT):
    """An r at which some cell's probability p meets the threshold exactly:
    r = p + r_slack with (p + r_slack) - r_slack == p in floats; None if
    no cell has such a p strictly between 0.05 and 0.95."""
    for cid in poset.ids:
        ctx = poset.context(cid)
        for m in n_masks(poset, cid):
            p = per_cell_probability(rho, ctx.projector(m).entries)
            r = p + tol.r_slack
            if 0.05 < p < 0.95 and r - tol.r_slack == p:
                return r
    return None


def assert_cells_match_per_cell_oracles(rho, poset, rs=()):
    """The lattice stack holds every projector in index order, and every
    (context, mask) decision of `nu_rho` at each `certain` width and of
    `nu_rho_r` at each r equals the per-cell expression.  A context lies
    below itself with the identity table, so its own bit in a cell's
    member set is that cell's decision; the other bits must be the
    decisions of the coarse-grained cells."""
    index = poset.index
    lattice = poset.lattice
    cells = {}
    for i, cid in enumerate(index.ids):
        ctx = poset.context(cid)
        for m in n_masks(poset, cid):
            cells[cid, m] = ctx.projector(m).entries
            assert np.array_equal(lattice.entries[lattice.offsets[i] + m], cells[cid, m])
    assert lattice.entries.shape == (len(cells), rho.dim, rho.dim)
    rules = [(nu_rho(rho, poset, tol), lambda p, tol=tol: per_cell_certain(rho, p, tol))
             for tol in CERTAIN_TOLS]
    rules += [(nu_rho_r(rho, r, poset),
               lambda p, r=r: per_cell_probability(rho, p) >= r - DEFAULT.r_slack) for r in rs]
    for alpha, oracle in rules:
        decided = {cell: oracle(p) for cell, p in cells.items()}
        for (cid, m), hit in decided.items():
            expected = frozenset(sub for sub in scan_down_set(poset, cid)
                                 if decided[sub, pmap_coarse_grain(poset, sub, cid, m)])
            assert alpha.members(cid, m) == expected
            assert (cid in expected) == hit


def test_batched_decisions_match_per_cell_oracles_on_random_posets():
    ties = 0
    for seed in range(100):
        rng = np.random.default_rng([seed, 8])
        dim = int(rng.integers(2, 6))
        poset = random_poset(rng, dim=dim, max_contexts=6, max_atoms=dim)
        for rho in (random_density(rng, dim), atom_mixture(rng, poset)):
            tie = tie_threshold(rho, poset)
            ties += tie is not None
            rs = (0.8, 0.6, 0.3) if tie is None else (0.8, 0.6, 0.3, tie)
            assert_cells_match_per_cell_oracles(rho, poset, rs)
    assert ties >= 100, ties


@pytest.fixture(scope="module")
def closed_peres24():
    contexts = [Context(f"P{k:02d}", [Projector(np.outer(ray, ray) / np.dot(ray, ray))
                                      for ray in basis])
                for k, basis in enumerate(_peres_bases())]
    return build_poset(contexts, add_trivial=True, close_under_meets=True)


def test_batched_decisions_match_per_cell_oracles_on_closed_peres24(closed_peres24):
    poset = closed_peres24
    assert len(poset.ids) == 94 and len(poset.lattice.entries) == 806
    rng = np.random.default_rng(806)
    ray, other = (a.entries for a in poset.context("P00").atoms[:2])
    states = [DensityMatrix(ray), DensityMatrix(0.3 * ray + 0.7 * other)]
    states += [random_density(rng, 4, rank=k) for k in (1, 2, 4)]
    hits_at_default = 0
    for rho in states:
        tie = tie_threshold(rho, poset)
        assert tie is not None
        assert_cells_match_per_cell_oracles(rho, poset, (0.8, 0.6, 0.3, tie))
        alpha = nu_rho(rho, poset)
        hits_at_default += sum(cid in alpha.members(cid, m)
                               for cid in poset.ids for m in n_masks(poset, cid))
    # the ray and pair states are certain of more than the unit propositions
    assert hits_at_default > 5 * 94


def test_lattice_stack_follows_its_poset():
    # the stack is kept on the poset object: the bundled fixture and its
    # rotated image take turns, each poset freed by `del` right before the
    # next is made, so a later one most likely reuses an earlier one's
    # address (a cache keyed by id() fails here)
    u = random_unitary(np.random.default_rng(18), 4)
    rho = random_density(np.random.default_rng(19), 4, rank=2)
    rotated = [Context(c.id, [Projector(u @ a.entries @ u.conj().T) for a in c.atoms])
               for c in load_bundled_ks()]
    built = [build_poset(contexts, add_trivial=True, close_under_meets=True)
             for contexts in (load_bundled_ks(), rotated)]
    for k in range(4):
        source = built[k % 2]
        poset = ContextPoset(source.contexts, source.order, source.partition_maps)
        assert_cells_match_per_cell_oracles(rho, poset, (0.6,))
        del poset


def test_invalid_mask_projector_raises_when_the_valuation_is_built():
    # two rays at 2e-5 from orthogonal pass as atoms at atom=1e-4, but
    # their sum is not idempotent at the context's proj_idem
    t = 2e-5
    v, w = np.array([1.0, 0.0]), np.array([t, 1.0]) / np.hypot(t, 1.0)
    tol = DEFAULT.overridden(atom=1e-4)
    atoms = [Projector(np.outer(v, v)), Projector(np.outer(w, w))]
    poset = build_poset([Context("A", atoms, tol=tol)], tol=tol)
    rho = DensityMatrix(np.outer(v, v))
    with pytest.raises(LinalgError, match="idempotent"):
        nu_rho(rho, poset, tol)
    with pytest.raises(LinalgError, match="idempotent"):
        nu_rho_r(rho, 0.5, poset, tol)


def test_state_valuation_edge_posets():
    rho = random_density(np.random.default_rng(3), 3)
    with pytest.raises(ContextError, match="state dimension"):
        nu_rho(rho, build_poset([], add_trivial=True, dim=2))
    assert nu_rho_r(rho, 0.5, build_poset([])).dump() == {}
    mixed = ContextPoset(contexts={"a": trivial_context(2, "a"), "b": trivial_context(3, "b")},
                         order=frozenset({("a", "a"), ("b", "b")}),
                         partition_maps={("a", "a"): (1,), ("b", "b"): (1,)})
    with pytest.raises(ContextError, match="mixed dimension"):
        nu_rho(rho, mixed)


# --------------------------------------------------------------------------
# the poset index

def assert_index_matches_scans(poset):
    assert poset.ids == scan_ids(poset)
    for cid in set(scan_ids(poset)) | {x for pair in poset.order for x in pair}:
        assert poset.down_set(cid) == scan_down_set(poset, cid)
        assert up_set(poset, cid) == scan_up_set(poset, cid)
    assert poset.maximal_ids() == scan_maximal_ids(poset)
    assert poset.cover_pairs() == scan_cover_pairs(poset)
    assert poset.pairs() == o_pairs(poset)
    assert poset.pairs(proper_only=True) == o_pairs(poset, proper_only=True)


def test_index_matches_scanning_oracles_on_random_posets():
    for seed in range(150):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=6, max_atoms=4)
        assert_index_matches_scans(poset)
        for sub, sup in poset.pairs():
            for mask in n_masks(poset, sup):
                assert coarse_grain(poset, sub, sup, LatticeElement(sup, mask)).mask \
                    == pmap_coarse_grain(poset, sub, sup, mask)
                chars = frozenset(Character(sup, i) for i in mask_indices(mask))
                assert frozenset(k.atom_index for k in clo_sigma_restrict(poset, sub, sup, chars)) \
                    == pmap_restrict(poset, sub, sup, mask_indices(mask))
            for k in range(poset.context(sup).n_atoms):
                assert sigma_restrict(poset, sub, sup, Character(sup, k)).atom_index \
                    == next(iter(pmap_restrict(poset, sub, sup, {k})))


REFLEXIVE = {(x, x) for x in "abc"}


@pytest.mark.parametrize("order,message", [
    (REFLEXIVE | {("a", "b"), ("b", "c"), ("a", "c"), ("z", "a")}, None),
    (REFLEXIVE | {("z", "y"), ("b", "z")}, None),
    (REFLEXIVE - {("b", "b")}, "inclusion is not reflexive"),
    (REFLEXIVE | {("a", "c"), ("c", "a")}, "distinct contexts 'a', 'c' are mutually included"),
    (REFLEXIVE | {("a", "b"), ("b", "c")}, "inclusion is not transitive"),
])
def test_index_tolerates_hand_broken_orders(order, message):
    poset = ContextPoset(contexts={x: trivial_context(2, x) for x in "abc"},
                         order=frozenset(order), partition_maps={})
    assert_index_matches_scans(poset)
    if message is None:
        _check_partial_order(poset)
    else:
        with pytest.raises(ContextError, match=message):
            _check_partial_order(poset)


def test_coarse_grain_without_a_partition_map_raises():
    poset = ContextPoset(contexts={x: trivial_context(2, x) for x in "ab"},
                         order=frozenset({("a", "a"), ("b", "b"), ("a", "b")}), partition_maps={})
    with pytest.raises(ContextError, match="'a' is not included in 'b'"):
        coarse_grain(poset, "a", "b", LatticeElement("b", 1))
    with pytest.raises(ContextError, match="'z' is not included in 'b'"):
        sigma_restrict(poset, "z", "b", Character("b", 0))
    # the flat readers of the pair tables raise the same, not a zero row
    alpha = from_table(poset, {(x, 1): frozenset(poset.down_set(x)) for x in "ab"})
    with pytest.raises(ContextError, match="'a' is not included in 'b'"):
        check_subobject_condition(alpha)
    with pytest.raises(ContextError, match="'a' is not included in 'b'"):
        poset.index.coarse_squares


def test_gather_tables_follow_the_index_on_random_posets():
    for seed in range(60):
        rng = np.random.default_rng([seed, 15])
        poset = random_poset(rng, max_contexts=6, max_atoms=4)
        index = poset.index
        first = index.cell_start.tolist()
        assert tuple(first[:-1]) == poset.lattice.offsets
        assert first[-1] == len(poset.lattice.entries)
        rank = {pair: k for k, pair in enumerate(index.pair_indices)}
        for route in ("below", "below_image"):
            g = index.gather(route)
            got = list(zip(g.cell.tolist(), g.stage.tolist(), g.image.tolist(),
                           g.target.tolist(), g.pair.tolist()))
            assert got == [(first[i] + mask, j, table[mask], first[j] + table[mask], rank[(j, i)])
                           for i in range(len(index.ids)) for mask in n_masks(poset, index.ids[i])
                           for j, table in route_rows(index, route)(i)]
            assert [c for c in range(first[-1]) for _ in range(g.start[c], g.start[c + 1])] \
                == g.cell.tolist()
        cells = [(first[i], index.n_atoms[i]) for i in range(len(index.ids))]
        assert [a.tolist() for a in index.mask_covers] == [list(x) for x in zip(*[
            (f + p, f + (p | 1 << b)) for f, n in cells for p in range(1 << n) for b in range(n)
            if not p >> b & 1])]
        assert [a.tolist() for a in index.disjoint_cells] == [list(x) for x in zip(*[
            (f + p, f + q) for f, n in cells for p in range(1 << n) for q in range(1 << n)
            if not p & q])]
        square = np.cumsum([0] + [1 << 2 * n for n in index.n_atoms]).tolist()
        pairs, starts, target, source = index.coarse_squares
        assert pairs == tuple(p for p in index.pair_indices if p[0] != p[1])
        expected = []
        for sub, sup in pairs:
            cg = index.coarse(sub, sup)
            expected += [square[sub] + (cg[x] << index.n_atoms[sub]) + cg[y]
                         for x in range(len(cg)) for y in range(len(cg))]
        assert target.tolist() == expected
        assert source.tolist() == [square[sup] + (x << index.n_atoms[sup]) + y for _, sup in pairs
                                   for x in range(1 << index.n_atoms[sup])
                                   for y in range(1 << index.n_atoms[sup])]
        assert np.diff(starts).tolist() == [1 << 2 * index.n_atoms[sup] for _, sup in pairs]


def _table_rows(index):
    """Every pair's three rows as the index reads them, an error as its text."""
    out = {}
    for sub, sup in index.pair_indices:
        for name in ("coarse", "restriction", "image"):
            try:
                out[(sub, sup, name)] = getattr(index, name)(sub, sup)
            except ContextError as exc:
                out[(sub, sup, name)] = str(exc)
    return out


def _oracle_rows(index):
    out = {}
    for sub, sup in index.pair_indices:
        for name, oracle in (("coarse", coarse_oracle), ("restriction", restriction_oracle),
                             ("image", image_oracle)):
            try:
                row = oracle(index, sub, sup)
                out[(sub, sup, name)] = "partition map does not cover the atom" if row is None else row
            except ContextError as exc:
                out[(sub, sup, name)] = str(exc)
    return out


def _pair_table_indices():
    """Fresh indices of 30 seeded posets, the closed 18-ray poset, 10
    random categories and 8 hand-broken partition maps."""
    indices = [random_poset(np.random.default_rng([seed, 21]), max_contexts=8, max_atoms=6).index
               for seed in range(30)]
    indices.append(build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True).index)
    for seed in range(10):
        cat, _ = random_category(np.random.default_rng([seed, 22]), 2 + seed % 5)
        indices.append(cat.index)
    # hand-broken maps on fix_a (V1: 3 atoms, V2: 2, Vtriv: 1): overlapping,
    # uncovering, too long, too short, bits past the atoms, missing, and an
    # uncovering identity map beside a missing map (the first failing pair
    # differs between (sub, sup) and (sup, sub) order)
    for changes in ({("V2", "V1"): (0b011, 0b110)}, {("V2", "V1"): (0b010, 0b100)},
                    {("V2", "V1"): (0b001, 0b010, 0b100)}, {("V2", "V1"): (0b111,)},
                    {("V2", "V1"): (0b1001, 0b0110), ("Vtriv", "V2"): (0b111,)},
                    {("V2", "V1"): ()}, {("Vtriv", "V1"): None},
                    {("V2", "V2"): (0b01,), ("Vtriv", "V1"): None}):
        poset = fix_a()
        maps = {**poset.partition_maps, **changes}
        maps = {k: v for k, v in maps.items() if v is not None}
        indices.append(ContextPoset(contexts=poset.contexts, order=poset.order, partition_maps=maps).index)
    return indices


def test_pair_tables_match_the_one_pair_loops():
    for index in _pair_table_indices():
        assert _table_rows(index) == _oracle_rows(index)


def test_pair_rows_are_read_off_the_flat_tables_on_each_call():
    # `coarse`, `restriction` and `image` copy one pair's slice of the flat
    # arrays on every call and keep nothing per pair; a pair without a
    # table, or one whose map leaves an atom uncovered, raises the same
    # error on every call, as the one-pair oracles say
    for index in _pair_table_indices():
        want = _oracle_rows(index)
        t = index.tables
        kept = set(vars(index))
        for _ in range(2):
            assert _table_rows(index) == want
        assert set(vars(index)) == kept
        for sub, sup in index.pair_indices:
            coarse = flat_pair_row(index, "coarse", sub, sup)
            if coarse is None:
                continue
            assert index.coarse(sub, sup) == tuple(coarse)
            assert index.restriction(sub, sup) == tuple(None if j < 0 else j
                                                        for j in flat_pair_row(index, "owner", sub, sup))
            if t.covered[t.rank[(sub, sup)]]:
                assert index.image(sub, sup) == tuple(flat_pair_row(index, "image", sub, sup))


def _gather_oracle(index, route):
    """(cell, stage, image, target, pair) and start of a route's gather,
    built stage by stage from the one-pair oracles; or the error text and
    the (sub, sup) pair that raised it, the first in (sup, sub) order."""
    rank = {pair: k for k, pair in enumerate(index.pair_indices)}
    first = index.cell_start.tolist()
    entries, start = [], [0]
    for i, n in enumerate(index.n_atoms):
        rows = []
        for j in bit_list(index.down[i]):
            try:
                rows.append((j, route_table(index, route, j, i)))
            except ContextError as exc:
                return str(exc), (j, i)
        for mask in range(1 << n):
            entries += [(first[i] + mask, j, table[mask], first[j] + table[mask], rank[(j, i)])
                        for j, table in rows]
            start.append(len(entries))
    return [list(column) for column in zip(*entries)] or [[]] * 5, start


def _gather_or_error(index, route):
    """The same from `index.gather`: its arrays, or its error text and the
    pair whose row `PosetIndex._row` was last asked for."""
    asked = []

    def row(name, sub, sup):
        asked.append((sub, sup))
        return PosetIndex._row(index, name, sub, sup)

    index._row = row
    try:
        g = index.gather(route)
    except ContextError as exc:
        return str(exc), asked[-1]
    finally:
        del index._row
    columns = (g.cell, g.stage, g.image, g.target, g.pair)
    assert {a.dtype for a in columns + (g.start,)} == {np.dtype(np.intp)}
    return [a.tolist() for a in columns], g.start.tolist()


def test_gathers_match_the_per_stage_oracle():
    # both routes, sorted from the flat pair tables, against a gather built
    # one stage and one pair at a time; a broken map raises the oracle's
    # error at the oracle's pair: the uncovering and the empty map fail to
    # restrict, and the two with a missing map fail on both routes
    errors = 0
    for index in _pair_table_indices():
        for route in ("below", "below_image"):
            want = _gather_oracle(index, route)
            assert _gather_or_error(index, route) == want, route
            errors += isinstance(want[0], str)
    assert errors == 6, errors


def test_gather_tables_are_built_on_first_use():
    # building a poset, the section search and the iso check never pay for
    # the valuation tables, only for the pair tables and the cell numbering
    # they share; a state valuation builds only its route's
    poset = build_poset(load_bundled_ks(), add_trivial=True, close_under_meets=True)
    global_section_search(poset)
    check_nat_iso(poset)
    index = poset.index
    lazy = {"down_words", "mask_covers", "disjoint_cells", "coarse_squares"}
    assert not index._gathers and not lazy & set(vars(index))
    assert {"tables", "cell_start"} <= set(vars(index))
    nu_rho(random_density(np.random.default_rng(18), 4), poset)
    assert set(index._gathers) == {"below"}
    assert "coarse_squares" not in vars(index)
