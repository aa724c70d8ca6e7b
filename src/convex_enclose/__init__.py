"""Certified two-sided bounds for convex functions.

Pointwise enclosures of the Ostrowski difference, composite quadrature
with certified remainders, integral-mean comparisons, CDF bounds for
monotone densities, and sandwiched divergences of discrete
distributions, plus an expression-parsing CLI.
"""

from . import catalog
from .convex_core import (
    ConvexFunction,
    ConvexityReport,
    Interval,
    check_convexity,
    require_convex,
)
from .divergence import (
    KERNELS,
    DiscreteDistribution,
    HHSandwich,
    csiszar_divergence,
    hh_divergence,
    hh_gap_bounds,
    hh_sandwich,
    kernel_by_name,
    lin_wong_divergence,
)
from .errors import (
    BudgetExceededError,
    ConvexEncloseError,
    DomainError,
    ExpressionError,
    ExtendedArithmeticError,
    InconsistentModelError,
    InternalInconsistencyError,
    InvalidDistributionError,
    InvalidInputError,
    NonConvexError,
    NumericalFailureError,
    OracleFailureError,
    PartitionError,
    UnboundedSlopeError,
    UndefinedSideError,
)
from .expressions import (
    convex_function_from_expression,
    parse_expression,
)
from .means import (
    MeanComparison,
    SpecialMeans,
    mean_comparison,
    special_means,
    verify_mean_inequalities,
)
from .oracle import (
    ADAPTIVE_SIMPSON,
    CLOSED_FORM,
    OracleResult,
    brute_force_hh,
    reference_integral,
)
from .pointwise import (
    Enclosure,
    classical_ostrowski_bound,
    hh_refinement,
    ostrowski_enclosure,
    ostrowski_lower,
    ostrowski_upper,
)
from .probability import (
    RandomVariableModel,
    cdf_enclosure,
    cdf_gap_enclosure,
    exponential_density_model,
    median_point_probability,
    model_from_density,
    power_density_model,
    step_density_model,
    uniform_model,
)
from .quadrature import (
    DEFAULT_MAX_CELLS,
    Partition,
    QuadratureResult,
    integrate_adaptive,
    midpoint_rule,
    remainder_enclosure,
    riemann_sum,
)

__version__ = "0.1.0"
