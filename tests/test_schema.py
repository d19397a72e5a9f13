import numpy as np
import pytest

from toposval.contexts import ContextError
from toposval.linalg import DensityMatrix, HermitianOperator, StateVector
from toposval.ocat import ODecomposition, OperatorCategory, elementary_support
from toposval.presheaves import GlobalElementG, SubobjectSigma, subobject_from_global_element
from toposval.sampling import fix_a, random_density, random_poset
from toposval.schema import (
    BUILTIN_RELATIONS,
    BUILTIN_SET_RELATIONS,
    alpha_a_R,
    random_relation,
    survey_properties,
    survey_properties_o,
    survey_properties_sigma,
)
from toposval.valuations import (
    alpha_from_global_element,
    nu_rho,
    supports_global_element,
    valuations_equal,
)

HOLDS = "holds-exhaustively"
FAILS = "witness-of-failure"


def strictly_positive_a(poset, seed=0):
    """Supports of a full-rank state: a global element with no zero stage."""
    rng = np.random.default_rng(seed)
    dim = poset.context(poset.ids[0]).dim
    a = supports_global_element(nu_rho(random_density(rng, dim, rank=dim), poset))
    assert all(mask != 0 for mask in a.assignment.values())
    return a


def test_alpha_a_R_le_is_alpha_from_global_element(fixa):
    a = strictly_positive_a(fixa)
    assert valuations_equal(
        alpha_a_R(a, BUILTIN_RELATIONS["le"]), alpha_from_global_element(a))[0]


def test_alpha_a_R_requires_matching(fixa):
    broken = GlobalElementG(fixa, {"V1": 0b010, "V2": 0b01, "Vtriv": 0b1}, enforce=False)
    with pytest.raises(ContextError):
        alpha_a_R(broken, BUILTIN_RELATIONS["le"])


def test_alpha_a_R_equality_membership(fixa):
    # supports of e1: membership exactly where the assignment equals the
    # coarse-grained proposition
    nu = nu_rho(DensityMatrix(np.diag([0.0, 1, 0])), fixa)
    a = supports_global_element(nu)
    assert a.assignment == {"V1": 0b010, "V2": 0b10, "Vtriv": 0b1}
    alpha = alpha_a_R(a, BUILTIN_RELATIONS["eq"])
    assert alpha.members("V1", 0b010) == frozenset({"V1", "V2", "Vtriv"})
    assert alpha.members("V1", 0b011) == frozenset({"Vtriv"})
    assert alpha.members("V1", 0b110) == frozenset({"V2", "Vtriv"})


def test_alpha_a_R_always_true_is_principal(fixa):
    a = strictly_positive_a(fixa)
    alpha = alpha_a_R(a, BUILTIN_RELATIONS["always-true"])
    for cid in fixa.ids:
        for mask in range(1 << fixa.context(cid).n_atoms):
            assert alpha.members(cid, mask) == frozenset(fixa.down_set(cid))
    # the degenerate relation cannot keep the null-proposition law
    rep = survey_properties(a, BUILTIN_RELATIONS["always-true"])
    assert rep["properties"]["null"]["status"] == FAILS


def test_survey_le_strictly_positive_all_hold(fixa):
    rep = survey_properties(strictly_positive_a(fixa), BUILTIN_RELATIONS["le"])
    assert rep["all_hold"], rep
    assert rep["analyses"]["sievehood_paths_agree"]
    assert rep["analyses"]["null_paths_agree"]
    assert rep["analyses"]["monotonicity_paths_agree"]
    assert rep["analyses"]["coarse_graining_preserves_relation"]["status"] == HOLDS
    assert rep["analyses"]["stable_under_enlargement"]["status"] == HOLDS


def test_survey_le_zero_assignment_null_fails(fixa):
    zero = GlobalElementG(fixa, {cid: 0 for cid in fixa.ids})
    rep = survey_properties(zero, BUILTIN_RELATIONS["le"])
    assert rep["properties"]["null"]["status"] == FAILS
    assert rep["analyses"]["null_paths_agree"]


def test_survey_equality_global_element_is_stable(fixa):
    # coarse-graining is a function, so equality propagates down whenever
    # the assignment itself matches up: no witness can exist here
    rep = survey_properties(strictly_positive_a(fixa), BUILTIN_RELATIONS["eq"])
    assert rep["properties"]["sievehood"]["status"] == HOLDS
    assert rep["properties"]["func"]["status"] == HOLDS
    assert rep["analyses"]["sievehood_paths_agree"]


def test_survey_equality_broken_assignment_sievehood_witness(fixa):
    broken = GlobalElementG(fixa, {"V1": 0b010, "V2": 0b11, "Vtriv": 0b1}, enforce=False)
    rep = survey_properties(broken, BUILTIN_RELATIONS["eq"])
    assert not rep["a_is_global_element"]
    assert rep["properties"]["sievehood"]["status"] == FAILS
    assert rep["properties"]["func"]["status"] == HOLDS   # any relation whatsoever
    assert rep["analyses"]["sievehood_paths_agree"]
    # the witness re-verifies on replay: that member set is not a sieve
    from toposval.presheaves import is_downward_closed
    from toposval.schema import _schema_valuation
    w = rep["properties"]["sievehood"]["witness"]
    alpha = _schema_valuation(broken, BUILTIN_RELATIONS["eq"])
    members = alpha.members(w["v1"], w["mask"])
    assert sorted(members) == w["members"]
    assert not is_downward_closed(fixa, w["v1"], members)


def test_survey_func_builtin_and_random_relations(fixa):
    a = strictly_positive_a(fixa)
    for rel in BUILTIN_RELATIONS.values():
        rep = survey_properties(a, rel)
        assert rep["properties"]["func"]["status"] == HOLDS, rel.name
        assert rep["analyses"]["sievehood_paths_agree"]
        assert rep["analyses"]["null_paths_agree"]
        assert rep["analyses"]["monotonicity_paths_agree"]
    rng = np.random.default_rng(101)
    for i in range(10):
        rel = random_relation(rng, fixa, name=f"r{i}")
        rep = survey_properties(a, rel)
        assert rep["properties"]["func"]["status"] == HOLDS


def test_survey_random_relations_on_random_posets():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=4, max_atoms=3)
        dim = poset.context(poset.ids[0]).dim
        a = supports_global_element(nu_rho(random_density(rng, dim), poset))
        for i in range(4):
            rel = random_relation(rng, poset, name=f"r{i}")
            rep = survey_properties(a, rel)
            assert rep["properties"]["func"]["status"] == HOLDS
            assert rep["analyses"]["sievehood_paths_agree"]


def test_survey_le_random_draws_all_pass():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, max_contexts=5, max_atoms=4)
        dim = poset.context(poset.ids[0]).dim
        a = supports_global_element(nu_rho(random_density(rng, dim, rank=dim), poset))
        if any(mask == 0 for mask in a.assignment.values()):
            continue
        rep = survey_properties(a, BUILTIN_RELATIONS["le"])
        assert rep["all_hold"]


def test_survey_sigma_subset_tight(fixa):
    a = subobject_from_global_element(strictly_positive_a(fixa))
    rep = survey_properties_sigma(a, BUILTIN_SET_RELATIONS["subset"])
    assert rep["all_hold"]
    assert rep["regularity"]["tight"] and rep["regularity"]["nonempty_everywhere"]


def test_survey_sigma_empty_stage_null_fails(fixa):
    a = SubobjectSigma(
        fixa,
        {"V1": frozenset(), "V2": frozenset(), "Vtriv": frozenset()},
    )
    rep = survey_properties_sigma(a, BUILTIN_SET_RELATIONS["subset"])
    assert rep["properties"]["null"]["status"] == FAILS
    assert not rep["regularity"]["nonempty_everywhere"]


def test_survey_o_subset_on_discrete_fixture():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 1, 2])), "A")
    sq = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 1, 4])), "Asq")
    one = ODecomposition.from_operator(HermitianOperator(np.eye(3)), "one")
    cat = OperatorCategory([a_op, sq, one])
    psi = StateVector(np.array([1, 0, 1]) / np.sqrt(2))
    a = {oid: elementary_support(psi, cat.objects[oid]) for oid in cat.ids}
    rep = survey_properties_o(a, "subset", cat)
    assert rep["all_hold"], rep
    assert rep["regularity"]["nonempty_everywhere"]


def test_survey_o_always_true_fails_null():
    a_op = ODecomposition.from_operator(HermitianOperator(np.diag([1.0, 2])), "A")
    cat = OperatorCategory([a_op])
    a = {"A": frozenset({1.0})}
    rep = survey_properties_o(a, "always-true", cat)
    assert rep["properties"]["null"]["status"] == FAILS


def scalar_relation_table(rng, poset):
    """One scalar draw per (context, left mask, right mask): the reference
    order of the stream behind `random_relation`."""
    table = {}
    for cid in poset.ids:
        n = poset.context(cid).n_atoms
        for l in range(1 << n):
            for r in range(1 << n):
                table[(cid, l, r)] = bool(rng.random() < 0.5)
    return table


@pytest.mark.parametrize("seed", range(6))
def test_random_relation_matches_scalar_draws(seed):
    poset = fix_a() if seed == 0 else random_poset(np.random.default_rng(seed), max_contexts=5)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rel = random_relation(rng, poset)
    table = scalar_relation_table(ref, poset)
    assert {key: rel.test(*key) for key in table} == table
    assert rng.bit_generator.state == ref.bit_generator.state
