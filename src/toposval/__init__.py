"""Sieve-valued and interval valuations over finite context posets.

Finite-dimensional contexts (commutative algebras as resolutions of the
identity), their spectral and coarse-graining presheaves, state-induced
sieve valuations with their supports and intervals, a relation-survey for
schema-defined valuations, a discrete-spectrum operator category, and a
global-section searcher that exhibits the Kochen-Specker obstruction on a
bundled 18-ray fixture.
"""

__version__ = "0.1.0"

from .contexts import (
    Context,
    ContextPoset,
    build_poset,
    context_from_operators,
    evaluate,
    inclusion,
    lattice_elements,
    trivial_context,
    v_of_p,
)
from .index import Character, ContextError, LatticeElement
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    LinalgError,
    Projector,
    StateVector,
    certain,
    commutes,
    eig_hermitian,
    projector_from_span,
)
from .ks import (
    bundled_ks_poset,
    global_section_search,
    load_bundled_ks,
    section_verify,
    validate_rank_one_cover,
)
from .ocat import (
    EigenvalueMap,
    Morphism,
    ODecomposition,
    OperatorCategory,
    apply_map,
    characterize_check,
    discover_morphism,
    elementary_support,
    func_subset_check,
    nu_psi_o,
    o_coarse_grain,
    support_subobject_check,
)
from .presheaves import (
    GlobalElementG,
    Sieve,
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
from .schema import (
    BUILTIN_RELATIONS,
    BUILTIN_SET_RELATIONS,
    Relation,
    alpha_a_R,
    random_relation,
    survey_properties,
    survey_properties_o,
    survey_properties_sigma,
)
from .tolerances import DEFAULT, Tolerances
from .valuations import (
    MorphismSetValuation,
    TruthSet,
    Valuation,
    ValuationParams,
    alpha_from_global_element,
    alpha_from_subobject,
    check_definition3,
    check_global_element_condition,
    check_subobject_condition,
    from_table,
    interval,
    nu_rho,
    nu_rho_r,
    reconstruct_from_intervals,
    reconstruct_from_supports,
    search_supportsmatch_violation,
    support,
    supports_global_element,
    theorem1_verify,
    theorem2_verify,
    truth_set,
    valuations_equal,
)
