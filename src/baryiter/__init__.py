"""Full-memory root finding and univariate optimisation on barycentric interpolants."""

from .analysis import (
    ErrorFactorSpec,
    empirical_order,
    order_limit,
    predicted_error_factor,
    theoretical_order,
    verify_error_factor,
)
from .corpus import Problem, get_problem, list_problems, reference_root
from .errors import (
    BaryiterError,
    DegenerateNodes,
    DomainError,
    InsufficientData,
    NonConvergence,
    ParseError,
    SingularDenominator,
    SingularStep,
    UnsupportedCell,
    ZeroDerivative,
)
from .expressions import parse_expression
from .interpolants import Sample, eval_hermite, eval_plain
from .numerics import (
    get_precision,
    precision,
    real,
    set_precision,
    to_decimal,
)
from .optimise import ObjectiveSample, optimize
from .root_search import IterationTrace, SolverConfig, StepRecord, solve
from .weights import (
    HermiteWeights,
    derivative_scaled_weights,
    product_weights,
    shifted_product_weights,
    squared_product_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BaryiterError",
    "DegenerateNodes",
    "DomainError",
    "ErrorFactorSpec",
    "HermiteWeights",
    "InsufficientData",
    "IterationTrace",
    "NonConvergence",
    "ObjectiveSample",
    "ParseError",
    "Problem",
    "Sample",
    "SingularDenominator",
    "SingularStep",
    "SolverConfig",
    "StepRecord",
    "UnsupportedCell",
    "ZeroDerivative",
    "derivative_scaled_weights",
    "empirical_order",
    "eval_hermite",
    "eval_plain",
    "get_precision",
    "get_problem",
    "list_problems",
    "optimize",
    "order_limit",
    "parse_expression",
    "precision",
    "predicted_error_factor",
    "product_weights",
    "real",
    "reference_root",
    "set_precision",
    "shifted_product_weights",
    "solve",
    "squared_product_weights",
    "theoretical_order",
    "to_decimal",
    "verify_error_factor",
]
