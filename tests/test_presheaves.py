import numpy as np
import pytest

from toposval.contexts import (
    Character,
    ContextError,
    ContextPoset,
    LatticeElement,
    bit_list,
    build_poset,
    v_of_p,
)
from toposval.presheaves import (
    GlobalElementG,
    SieveError,
    SubobjectSigma,
    check_nat_iso,
    clo_sigma_restrict,
    coarse_grain,
    empty_sieve,
    make_sieve,
    pullback,
    sigma_restrict,
    subobject_from_global_element,
    true_sieve,
)
from toposval.ks import bundled_ks_poset
from toposval.sampling import fix_a, random_poset

from conftest import coarse_grain_bruteforce, coarse_oracle, image_oracle, outputs_under_hash_seeds, pmap_oracle
from test_closure import _peres_subset


def all_masks(poset, cid):
    return range(1 << poset.context(cid).n_atoms)


def test_sigma_restrict(fixa):
    k2 = Character("V1", 2)
    assert sigma_restrict(fixa, "V2", "V1", k2) == Character("V2", 1)
    assert sigma_restrict(fixa, "V1", "V1", k2) == k2
    assert sigma_restrict(fixa, "Vtriv", "V1", k2) == Character("Vtriv", 0)


def test_coarse_grain_examples(fixa):
    full = LatticeElement("V1", 0b111)
    assert coarse_grain(fixa, "V2", "V1", full).mask == 0b11
    assert coarse_grain(fixa, "V2", "V1", LatticeElement("V1", 0)).mask == 0
    # P1 at V1 is not in the coarse lattice; the least element above it is P1+P2
    assert coarse_grain(fixa, "V2", "V1", LatticeElement("V1", 0b010)).mask == 0b10
    # P0 is already coarse
    assert coarse_grain(fixa, "V2", "V1", LatticeElement("V1", 0b001)).mask == 0b01


@pytest.mark.parametrize("mask", [8, 9, -1])
def test_coarse_grain_rejects_a_mask_out_of_range(fixa, mask):
    # V1 has three atoms, so its masks are 0..7; none may wrap round
    with pytest.raises(ContextError, match=f"mask {mask} out of range for context 'V1'"):
        coarse_grain(fixa, "V2", "V1", LatticeElement("V1", mask))


def test_coarse_grain_agrees_with_bruteforce(fixa):
    for sub, sup in fixa.pairs():
        for mask in all_masks(fixa, sup):
            p = LatticeElement(sup, mask)
            assert coarse_grain(fixa, sub, sup, p) == coarse_grain_bruteforce(fixa, sub, sup, p)


def test_coarse_grain_functorial_and_monotone():
    for seed in range(30):
        poset = random_poset(np.random.default_rng(seed), max_contexts=6, max_atoms=5)
        for sub, sup in poset.pairs():
            for mask in all_masks(poset, sup):
                p = LatticeElement(sup, mask)
                # oracle agreement on every instance
                assert coarse_grain(poset, sub, sup, p) == \
                    coarse_grain_bruteforce(poset, sub, sup, p)
                # growth: p <= lift(coarse_grain(p))
                cg = coarse_grain(poset, sub, sup, p)
                assert poset.lift_mask(sub, sup, cg.mask) & mask == mask
                # monotonicity
                for other in all_masks(poset, sup):
                    if mask & other == mask:
                        cq = coarse_grain(poset, sub, sup, LatticeElement(sup, other))
                        assert cg.mask & cq.mask == cg.mask
        # functoriality along chains
        for v3, v2 in poset.pairs():
            for v2b, v1 in poset.pairs():
                if v2b != v2:
                    continue
                for mask in all_masks(poset, v1):
                    p = LatticeElement(v1, mask)
                    via = coarse_grain(poset, v3, v2, coarse_grain(poset, v2, v1, p))
                    direct = coarse_grain(poset, v3, v1, p)
                    assert via == direct


def test_clo_sigma_restrict(fixa):
    v1 = fixa.context("V1")
    all_chars = frozenset(Character("V1", i) for i in range(3))
    assert clo_sigma_restrict(fixa, "V2", "V1", all_chars) == frozenset(
        {Character("V2", 0), Character("V2", 1)})
    assert clo_sigma_restrict(fixa, "V2", "V1", frozenset()) == frozenset()
    k12 = frozenset({Character("V1", 1), Character("V1", 2)})
    assert clo_sigma_restrict(fixa, "V2", "V1", k12) == frozenset({Character("V2", 1)})


def test_sieve_validation(fixa):
    with pytest.raises(SieveError):
        make_sieve(fixa, "V2", {"V1"})          # member above the apex
    with pytest.raises(SieveError):
        make_sieve(fixa, "V1", {"V2"})          # not downward closed (misses Vtriv)
    s = make_sieve(fixa, "V1", {"V2", "Vtriv"})
    assert s.members == frozenset({"V2", "Vtriv"})
    assert true_sieve(fixa, "V1").members == frozenset({"V1", "V2", "Vtriv"})
    assert empty_sieve(fixa, "V2").members == frozenset()


def test_sieve_poset_stamp(fixa, dim2_poset):
    s = true_sieve(fixa, "V1")
    with pytest.raises(SieveError):
        pullback(dim2_poset, "Vtriv", "V1", s)


def test_sieve_ordering(fixa):
    lesser = make_sieve(fixa, "V1", {"Vtriv"})
    greater = make_sieve(fixa, "V1", {"V2", "Vtriv"})
    assert lesser <= greater
    assert not greater <= lesser
    with pytest.raises(SieveError):
        lesser <= true_sieve(fixa, "V2")   # different apex


def test_pullback_examples(fixa):
    assert pullback(fixa, "V2", "V1", true_sieve(fixa, "V1")) == true_sieve(fixa, "V2")
    assert pullback(fixa, "V2", "V1", empty_sieve(fixa, "V1")) == empty_sieve(fixa, "V2")
    s = make_sieve(fixa, "V1", {"V2", "Vtriv"})
    assert pullback(fixa, "V2", "V1", s) == true_sieve(fixa, "V2")


def test_pullback_functorial():
    for seed in range(20):
        poset = random_poset(np.random.default_rng(seed), max_contexts=6, max_atoms=4)
        rng = np.random.default_rng(seed + 1000)
        for v3, v2 in poset.pairs():
            for v2b, v1 in poset.pairs():
                if v2b != v2:
                    continue
                down = poset.down_set(v1)
                picked = {d for d in down if rng.random() < 0.5}
                closed = set()
                for m in picked:
                    closed.update(poset.down_set(m))
                s = make_sieve(poset, v1, closed)
                via = pullback(poset, v3, v2, pullback(poset, v2, v1, s))
                assert via == pullback(poset, v3, v1, s)


def test_check_nat_iso_fixa(fixa):
    report = check_nat_iso(fixa)
    assert report["passed"]
    assert report["failures"] == []
    assert report["pairsChecked"] == 6  # 3 identity + 3 proper


def test_check_nat_iso_single_context():
    poset = random_poset(np.random.default_rng(0), dim=2, max_contexts=1, max_atoms=2)
    report = check_nat_iso(poset)
    assert report["passed"]


def test_check_nat_iso_random_posets():
    for seed in range(10):
        poset = random_poset(np.random.default_rng(seed), max_contexts=8, max_atoms=6)
        assert check_nat_iso(poset)["passed"]


def check_nat_iso_oracle(poset):
    """`check_nat_iso` one pair and one mask at a time, on the one-pair
    table oracles, then one context and one mask at a time through
    `v_of_p`."""
    failures = []
    pairs_checked = elements_checked = 0
    index = poset.index
    for sub, sup in index.pair_indices:
        pairs_checked += 1
        pmap_oracle(index, sub, sup)
        image = image_oracle(index, sub, sup)
        if image is None:
            raise ContextError("partition map does not cover the atom")
        coarse = coarse_oracle(index, sub, sup)
        elements_checked += len(coarse)
        for mask, rhs in enumerate(coarse):
            if image[mask] != rhs:
                failures.append({"v1": index.ids[sup], "v2": index.ids[sub], "mask": mask,
                                 "lhs": bit_list(image[mask]), "rhs": bit_list(rhs)})
    for cid in poset.ids:
        v = poset.context(cid)
        seen = {}
        for mask in range(1 << v.n_atoms):
            chars = frozenset(k.atom_index for k in v_of_p(v, LatticeElement(cid, mask)))
            if chars in seen:
                failures.append({"v1": cid, "v2": cid, "mask": mask, "lhs": sorted(chars),
                                 "rhs": sorted(chars), "collidesWithMask": seen[chars]})
            seen[chars] = mask
    return {"passed": not failures, "pairsChecked": pairs_checked,
            "elementsChecked": elements_checked, "failures": failures}


def _outcome(f, *args):
    try:
        return f(*args)
    except ContextError as exc:
        return str(exc)


def _with_maps(poset, **changes):
    """The poset with some partition maps replaced (None drops one)."""
    maps = dict(poset.partition_maps)
    for key, pmap in changes.items():
        pair = tuple(key.split("_"))
        if pmap is None:
            del maps[pair]
        else:
            maps[pair] = pmap
    return ContextPoset(contexts=poset.contexts, order=poset.order, partition_maps=maps)


def test_check_nat_iso_matches_the_pair_loop_on_seeded_posets():
    posets = [random_poset(np.random.default_rng([seed, 3]), max_contexts=8, max_atoms=5)
              for seed in range(20)]
    posets += [bundled_ks_poset(),
               build_poset(_peres_subset(7, 13), add_trivial=True, close_under_meets=True)]
    for poset in posets:
        report = check_nat_iso(poset)
        assert report == check_nat_iso_oracle(poset)
        assert report["passed"]


def test_check_nat_iso_lists_a_broken_map_like_the_pair_loop():
    # fix_a: V1 has 3 atoms, V2 has 2 and Vtriv 1.  An atom of V1 in two
    # blocks restricts to the first but coarse-grains to both
    poset = _with_maps(fix_a(), V2_V1=(0b011, 0b110), V1_V1=(0b011, 0b010, 0b100))
    report = check_nat_iso(poset)
    assert report == check_nat_iso_oracle(poset)
    assert not report["passed"]
    assert report["failures"] == [
        {"v1": "V1", "v2": "V1", "mask": 2, "lhs": [0], "rhs": [0, 1]},
        {"v1": "V1", "v2": "V1", "mask": 3, "lhs": [0], "rhs": [0, 1]},
        {"v1": "V1", "v2": "V1", "mask": 6, "lhs": [0, 2], "rhs": [0, 1, 2]},
        {"v1": "V1", "v2": "V1", "mask": 7, "lhs": [0, 2], "rhs": [0, 1, 2]},
        {"v1": "V1", "v2": "V2", "mask": 2, "lhs": [0], "rhs": [0, 1]},
        {"v1": "V1", "v2": "V2", "mask": 3, "lhs": [0], "rhs": [0, 1]},
    ]
    assert (report["pairsChecked"], report["elementsChecked"]) == (6, 8 + 8 + 8 + 4 + 4 + 2)
    # longer and shorter maps, and bits past the super-context's atoms
    for changes in ({"V2_V1": (0b001, 0b010, 0b100)}, {"V2_V1": (0b111,)},
                    {"V2_V1": (0b1001, 0b0110)}, {"Vtriv_V2": (0b11, 0b01)}):
        poset = _with_maps(fix_a(), **changes)
        assert check_nat_iso(poset) == check_nat_iso_oracle(poset), changes


def test_check_nat_iso_raises_like_the_pair_loop():
    # the first pair, in order, whose tables cannot be built decides
    for changes, message in (({"V2_V1": (0b010, 0b100)}, "does not cover"),
                             ({"Vtriv_V2": None}, "'Vtriv' is not included in 'V2'"),
                             ({"V2_V1": (0b010, 0b100), "Vtriv_V2": None}, "does not cover"),
                             ({"V1_V1": None, "V2_V1": (0b010, 0b100)}, "'V1' is not included in 'V1'")):
        poset = _with_maps(fix_a(), **changes)
        got = _outcome(check_nat_iso, poset)
        assert got == _outcome(check_nat_iso_oracle, poset)
        assert message in got, changes


def test_global_element_matching(fixa):
    ge = GlobalElementG(fixa, {"V1": 0b001, "V2": 0b01, "Vtriv": 0b1})
    assert ge.satisfies_matching
    with pytest.raises(ContextError):
        GlobalElementG(fixa, {"V1": 0b001, "V2": 0b11, "Vtriv": 0b1})
    broken = GlobalElementG(fixa, {"V1": 0b001, "V2": 0b11, "Vtriv": 0b1}, enforce=False)
    assert not broken.satisfies_matching
    with pytest.raises(ContextError):
        GlobalElementG(fixa, {"V1": 0b1000, "V2": 0b01, "Vtriv": 0b1}, enforce=False)
    with pytest.raises(ContextError):
        SubobjectSigma(fixa, {"V1": frozenset({5}), "V2": frozenset(), "Vtriv": frozenset()},
                       enforce=False)


def test_subobject_from_global_element(fixa):
    full = GlobalElementG(fixa, {"V1": 0b111, "V2": 0b11, "Vtriv": 0b1})
    sub = subobject_from_global_element(full)
    assert sub.assignment == {"V1": frozenset({0, 1, 2}), "V2": frozenset({0, 1}),
                              "Vtriv": frozenset({0})}

    ge = GlobalElementG(fixa, {"V1": 0b001, "V2": 0b01, "Vtriv": 0b1})
    sub = subobject_from_global_element(ge)
    assert sub.assignment["V1"] == frozenset({0})
    assert sub.assignment["V2"] == frozenset({0})
    assert sub.assignment["Vtriv"] == frozenset({0})
    assert sub.satisfies_law

    broken = GlobalElementG(fixa, {"V1": 0b001, "V2": 0b11, "Vtriv": 0b1}, enforce=False)
    with pytest.raises(ContextError):
        subobject_from_global_element(broken)


def test_assignments_are_read_off_the_masks():
    # `assignment` is derived from `masks` on first access and equals the
    # dict each construction once stored: the caller's dict through the
    # constructor, the index-order masks through `_of_masks`
    for seed in range(30):
        rng = np.random.default_rng([seed, 41])
        poset = random_poset(rng, max_contexts=8, max_atoms=5)
        ids = poset.index.ids
        order = [ids[k] for k in rng.permutation(len(ids))]
        masks = {cid: int(rng.integers(0, 1 << poset.context(cid).n_atoms)) for cid in order}
        atoms = {cid: frozenset(bit_list(masks[cid])) for cid in order}
        in_order = tuple(masks[cid] for cid in ids)
        built = (
            (GlobalElementG(poset, masks, enforce=False), masks),
            (GlobalElementG._of_masks(poset, in_order), dict(zip(ids, in_order))),
            (SubobjectSigma(poset, atoms, enforce=False), atoms),
            (SubobjectSigma._of_masks(poset, in_order),
             {cid: frozenset(bit_list(m)) for cid, m in zip(ids, in_order)}),
        )
        for element, eager in built:
            assert element.masks == in_order
            assert "assignment" not in vars(element)
            assert element.assignment == eager
            assert element.assignment is element.assignment
        for element, eager in built[:2]:
            assert [element.element(cid) for cid in ids] == [
                LatticeElement(cid, eager[cid]) for cid in ids]
        for element, eager in built[2:]:
            assert [element.characters(cid) for cid in ids] == [
                frozenset(Character(cid, i) for i in eager[cid]) for cid in ids]


def test_subobject_from_state_supports(fixa):
    # cross-module: state supports form a global element whose certain
    # characters obey the subobject law
    from toposval.linalg import DensityMatrix
    from toposval.valuations import nu_rho, supports_global_element
    import numpy as np

    ge = supports_global_element(nu_rho(DensityMatrix(np.diag([1.0, 0, 0])), fixa))
    assert ge.satisfies_matching
    sub = subobject_from_global_element(ge)
    assert sub.satisfies_law and sub.is_tight


def test_subobject_law_flags(fixa):
    loose = SubobjectSigma(
        fixa,
        {"V1": frozenset({0}), "V2": frozenset({0, 1}), "Vtriv": frozenset({0})},
    )
    assert loose.satisfies_law and not loose.is_tight
    with pytest.raises(ContextError):
        SubobjectSigma(
            fixa,
            {"V1": frozenset({0, 1}), "V2": frozenset(), "Vtriv": frozenset({0})},
        )


def test_make_sieve_names_the_same_failure_under_every_hash_seed():
    # the members were once walked in frozenset order, so the error named
    # 'C2' or 'C1' by the interpreter's hash seed
    code = """
import numpy as np
from toposval.presheaves import SieveError, make_sieve
from toposval.sampling import random_poset
p = random_poset(np.random.default_rng(13), dim=4, max_contexts=6, max_atoms=4)
try:
    make_sieve(p, "C0", ["C1", "C2"])
except SieveError as exc:
    print(exc)
"""
    assert outputs_under_hash_seeds(code) == {"not downward closed: 'C4' <= 'C1' but missing\n"}
