"""superbracket: consistency checks for two-momentum su(1|1)^2 boost algebras.

The package verifies, numerically and (where exactness matters) symbolically:

* graded Jacobi identities of the six consistent bracket tables,
* the classification of the cross-handed Jacobian functions,
* first-order differential-operator representations of the boosts,
* braided and unbraided coproducts, and the braided coproduct of the boost,
  including the exact cancellation of the outer-automorphism tails.

Everything is driven by seeded sampling; reports record their seed.
"""

from .algebra import (
    AlgebraParams,
    AlgebraSpec,
    DMinusOne,
    DPlusOne,
    DZero,
    Gen,
    LeftSeparable,
    LinComb,
    Ratio,
    RightSeparable,
    bracket,
    build_algebra,
    jacobi_check,
)
from .errors import (
    AmbiguousFamily,
    DimensionMismatch,
    DomainError,
    GradeError,
    IncompatibleCentrals,
    InconsistentParams,
    InvalidParams,
    NormalFormDivergence,
    PoleError,
    SuperbracketError,
    UnsupportedFamily,
    UnsupportedTransform,
)
from .coproducts import (
    CoproductMap,
    build_boost_coproduct,
    build_coproduct,
    cocommutativity_check,
    homomorphism_check,
    short_rep_reduction_check,
)
from .expressions import Expr, const, convective_diff, diff, var
from .families import (
    Rejection,
    classify_family,
    cross_jacobian_report,
    family_transform,
    product_constraint_check,
)
from .representations import (
    MomentumMap,
    Representation,
    boost_commutator_zero,
    build_representation,
    ode_solution_check,
    shortening_identities,
    transformed_representation,
    verify_relations,
)
from .runner import CheckSuiteConfig, ReportRecord, emit_report, run_suite
from .sampling import Sampler, is_zero
from .suite import parse_suite
from .symbolic import (
    SymbolicElement,
    short_rep_reduction_symbolic,
    tail_cancellation_check,
)
from .tensorops import graded_flip, graded_kron

__version__ = "0.1.0"
