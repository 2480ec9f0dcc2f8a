"""Information calculus for possibility distributions.

Discrete and continuous possibility assignments, U-uncertainty and its
deformed family, the information distances g/G/H/K, descending
rearrangement and the continuous information integral, discrete
convergence, and maximum-uncertainty inference under linear constraints.
"""

from .approximation import ConvergenceEntry, ConvergenceSeries
from .approximation import approx_info, convergence_series, discretize
from .continuous import (
    LevelMeasure,
    PiecewisePossibility,
    big_g_cont,
    big_h_cont,
    big_k_cont,
    g_cont,
    info,
    info_from_level,
    join_pw,
    level_measure,
    meet_pw,
    product_level,
    rearrange,
    sample_function,
)
from .discrete import (
    DiscreteDistribution,
    JointDistribution,
    extend,
    invert_permutation,
    join,
    marginals,
    meet,
    min_product,
    permute,
    possibility_of_subset,
)
from .documents import (
    emit_csv,
    parse_distribution,
    parse_problem,
    parse_tau,
    serialize_distribution,
    serialize_tau,
)
from .errors import (
    DivergenceError,
    InfeasibleProblemError,
    OrderViolationError,
    PossibilityError,
    SchemaError,
)
from .inference import (
    InferenceProblem,
    InferenceSolution,
    LinearConstraint,
    MaxU,
    MinDistance,
    brute_force_oracle,
    solve_max_u,
    solve_min_distance,
)
from .measures import (
    Tau,
    big_g,
    big_h,
    big_k,
    g_distance,
    info_tau,
    max_uncertain,
    u_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceEntry",
    "ConvergenceSeries",
    "DiscreteDistribution",
    "DivergenceError",
    "InfeasibleProblemError",
    "InferenceProblem",
    "InferenceSolution",
    "JointDistribution",
    "LevelMeasure",
    "LinearConstraint",
    "MaxU",
    "MinDistance",
    "OrderViolationError",
    "PiecewisePossibility",
    "PossibilityError",
    "SchemaError",
    "Tau",
    "approx_info",
    "big_g",
    "big_g_cont",
    "big_h",
    "big_h_cont",
    "big_k",
    "big_k_cont",
    "brute_force_oracle",
    "convergence_series",
    "discretize",
    "emit_csv",
    "extend",
    "g_cont",
    "g_distance",
    "info",
    "info_from_level",
    "info_tau",
    "invert_permutation",
    "join",
    "join_pw",
    "level_measure",
    "marginals",
    "max_uncertain",
    "meet",
    "meet_pw",
    "min_product",
    "parse_distribution",
    "parse_problem",
    "parse_tau",
    "permute",
    "possibility_of_subset",
    "product_level",
    "rearrange",
    "sample_function",
    "serialize_distribution",
    "serialize_tau",
    "solve_max_u",
    "solve_min_distance",
    "u_uncertainty",
]
