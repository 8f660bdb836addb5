"""finadj: exact decision procedures for adjoint-functor criteria at desk scale.

The engine works with three tiers of finite data:

* plain finite categories with total composition tables (`fincat`, `limits`,
  `adjoint`, `brown`),
* finite groupoid-enriched categories, used as strict models of 2-truncated
  higher categories (`enriched`),
* simplicial sets truncated at dimension 3 (`simplicial`).

Every verdict is computed by exhaustive quantification and is backed either by
a machine-checkable certificate or by an independent brute-force oracle.
"""

__version__ = "0.1.0"

from .fincat import (
    FinCategory,
    FinFunctor,
    FunctorProfile,
    Morphism,
    functor_profile,
    opposite,
    validate_category,
    validate_functor,
)
from .limits import (
    has_finite_limits,
    initial_objects,
    limit,
    preserves_limits,
    terminal_objects,
    weakly_initial_sets,
)
from .adjoint import (
    brute_force_left_adjoint,
    comma_over,
    comma_under,
    construct_left_adjoint,
    gaft_decide,
    solution_set_condition,
    verify_adjunction,
)
from .enriched import (
    GpdCategory,
    classify_object,
    comparison_functor,
    enriched_comma_under,
    gaft_fin_decide,
    homotopy_adjoint_compare,
    homotopy_category,
    initial_reflection_check,
    mapping_invariants,
    validate_gcat,
)
from .simplicial import (
    TruncSSet,
    initial_by_lifting,
    join_point,
    nerve,
    tau1,
    vertex_slice,
)
from .brown import (
    SetFunctor,
    check_B1,
    check_B1p_B2p,
    check_B2,
    representability_search,
    weak_generators,
)
