"""Slab-pricing engine.

Consumer demand under convex, mixed, and non-convex price domains; the
price-response function with its analytic properties; expected revenue over
slab ladders with an exhaustive structure optimizer; a seeded Monte Carlo
oracle; and supply-demand equilibrium. Driven from scenario files via the
``slabprice`` command.
"""

from .demand import (
    Consumer,
    DomainKind,
    Offer,
    PairDemand,
    Slab,
    TwoStageDemand,
    aggregate_demand,
    budget_exhausting_qty,
    classify_domain,
    demand_convex_pair,
    demand_mixed_pair,
    demand_nonconvex_pair,
    pooled_consumer,
)
from .equilibrium import (
    EquilibriumPoint,
    FitMethod,
    SupplyLine,
    fit_supply_line,
    solve_equilibrium,
)
from .errors import (
    BracketError,
    InfeasibleError,
    InvalidParameterError,
    NumericalError,
    PricingError,
    SchemaError,
)
from .price_response import (
    WTP_REFERENCE_PRICES,
    ResponseContext,
    ResponsePoint,
    arc_elasticity,
    hazard_rate,
    point_elasticity,
    price_response,
    response_slope,
    willingness_to_pay,
)
from .revenue import (
    PlanSlab,
    RevenueReport,
    SlabContribution,
    SlabPlan,
    best_by_slab_count,
    discount_ladder_plans,
    expected_revenue,
    plan_for_consumer,
)
from .scenario import (
    BUNDLED_SCENARIOS,
    Scenario,
    bundled_scenario_path,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from .simulate import MCEstimate, SimConfig, estimate_expected_revenue_mc, simulate_consumer

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "BUNDLED_SCENARIOS",
    "Consumer",
    "DomainKind",
    "EquilibriumPoint",
    "FitMethod",
    "InfeasibleError",
    "InvalidParameterError",
    "MCEstimate",
    "NumericalError",
    "Offer",
    "PairDemand",
    "PlanSlab",
    "PricingError",
    "ResponseContext",
    "ResponsePoint",
    "RevenueReport",
    "Scenario",
    "SchemaError",
    "SimConfig",
    "Slab",
    "SlabContribution",
    "SlabPlan",
    "SupplyLine",
    "TwoStageDemand",
    "WTP_REFERENCE_PRICES",
    "aggregate_demand",
    "arc_elasticity",
    "best_by_slab_count",
    "budget_exhausting_qty",
    "bundled_scenario_path",
    "classify_domain",
    "demand_convex_pair",
    "demand_mixed_pair",
    "demand_nonconvex_pair",
    "discount_ladder_plans",
    "estimate_expected_revenue_mc",
    "expected_revenue",
    "fit_supply_line",
    "hazard_rate",
    "parse_scenario",
    "plan_for_consumer",
    "point_elasticity",
    "pooled_consumer",
    "price_response",
    "response_slope",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
    "simulate_consumer",
    "solve_equilibrium",
    "willingness_to_pay",
]
