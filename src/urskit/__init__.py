"""urskit: exact arithmetic for S-unit sharing, heights, truncated counting
functions, and unique-range-set experiments over the rationals."""

from ._kernel import BACKEND as KERNEL_BACKEND
from .arith import (
    FactoringBudgetError,
    Factorization,
    SContext,
    UrskitError,
    factor,
    is_s_integer,
    is_s_unit,
    ord_at,
    parse_rational,
    rational_str,
    unit_equation_solutions,
)
from .heights import (
    EQUAL,
    GREATER,
    LESS,
    Magnitude,
    ScaledLog,
    cmp_scaled,
    counting,
    counting_trunc,
    display_log,
    height,
)
from .polys import (
    RatPoly,
    TrinomialFamily,
    ValidationReport,
    build_from_roots,
    discriminant,
    resultant,
    validate_family,
)
from .sharing import (
    SearchBudgetError,
    SharePoint,
    ord_profile_equal,
    s_integer_box,
    search_shared_pairs,
    share_check,
)
from .subspace import (
    CorollaryRow,
    DefectReport,
    LinearFormSystem,
    corollary_eval,
    evaluate_conjecture,
    general_position_check,
    normalize_point,
)
from .trace import (
    DependenceResult,
    TraceRow,
    aux_build,
    build_trace_rows,
    case_classify,
    dependence_detect,
    identity_check,
    main_inequality_report,
    roth_chain_report,
    strong_uniqueness_search,
    trunc_bound_check,
    unit_height_check,
)

__version__ = "0.1.0"
