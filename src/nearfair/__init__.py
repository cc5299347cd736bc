"""Near-feasible fair allocations in two-sided markets.

Exact-rational iterative LP rounding with deviation budgets, plus pipelines
for group-fair assignment, group envy-freeness, stable allocation with
couples, and multidimensional apportionment, all verifiable against
brute-force oracles at desk scale.
"""

from .errors import (
    BudgetError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvariantViolation,
    NearFairError,
    NoDominatingVertexError,
    ScaleExceededError,
    SchemaError,
)
from .model import (
    AgentSpec,
    Allocation,
    Bundle,
    Instance,
    UtilityModel,
    enumerate_bundles,
    group_utilities,
    pair_universe,
)
from .exactlp import LinearProgram, VertexSolution, feasible_vertex, solve_vertex
from .rounding import (
    Certificate,
    DeviationBudget,
    check_condition,
    iterative_round,
    min_Delta,
    verify_approximation,
)
from .fairness import (
    FairObjective,
    FairResult,
    approx_fair_allocation,
    check_proportionality,
    delta_plus_bound,
    gen_lower_bound_instance,
    refine_to_vertex,
    solve_fair_fractional,
)
from .envyfree import (
    HomogeneousInstance,
    check_ef_deviation,
    check_fractional_ef,
    ef_round,
    greedy_fractional_ef,
)
from .couples import (
    BlockReport,
    CouplesInstance,
    fair_stable_allocation,
    realized_capacities,
    stability_check,
)
from .apportionment import (
    ApportionmentResult,
    MAInstance,
    SignpostMethod,
    approx_apportionment,
    delta_bound_ma,
    divisor_certified,
    highest_averages,
    rounding_set,
    solve_lp_ma,
)
from .oracle import best_deviation, enumerate_integral, enumerate_roundings, vertex_enumerate

__version__ = "0.1.0"
