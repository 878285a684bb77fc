"""Supply-line fits and the bisection equilibrium solver.

The closed-form cross-check: for demand x(p) = A + B/p on a supply line
p = s*q + c, the equilibrium quantity solves s*q**2 + (c - A*s)*q - (A*c + B)
= 0, so bisection can be scored against the quadratic root.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slabpricing import (
    BracketError,
    EquilibriumPoint,
    FitMethod,
    InfeasibleError,
    InvalidParameterError,
    NumericalError,
    SupplyLine,
    fit_supply_line,
    solve_equilibrium,
)

S1_PAIRS = ((35.0, 200.0), (70.0, 400.0), (105.0, 600.0))
S2_PAIRS = ((38.9, 200.0), (76.98, 400.0), (115.47, 600.0))
BRACKET = (1.0, 4000.0)


def quadratic_root(a: float, b: float, s: float, c: float) -> float:
    # positive root of s*q**2 + (c - a*s)*q - (a*c + b) = 0
    disc = (c - a * s) ** 2 + 4.0 * s * (a * c + b)
    return ((a * s - c) + math.sqrt(disc)) / (2.0 * s)


def hyperbolic_demand(a: float, b: float):
    return lambda price: a + b / price


# ---------------------------------------------------------------------------
# supply fits


def test_two_point_fit_passes_through_the_first_two_pairs():
    line = fit_supply_line(S1_PAIRS)
    assert line.slope == 0.175
    assert line.intercept == 0.0
    assert line.fit_method is FitMethod.TWO_POINT
    assert line.price_at(400.0) == 70.0


def test_two_point_fit_ignores_trailing_pairs():
    bent = fit_supply_line(((35.0, 200.0), (70.0, 400.0), (1000.0, 600.0)))
    assert bent.slope == 0.175
    assert bent.intercept == 0.0


def test_second_supply_fits():
    two_point = fit_supply_line(S2_PAIRS, FitMethod.TWO_POINT)
    assert two_point.slope == pytest.approx(0.1904, abs=1e-12)
    assert two_point.intercept == pytest.approx(0.82, abs=1e-9)
    ls = fit_supply_line(S2_PAIRS, FitMethod.LEAST_SQUARES)
    assert ls.slope == 0.191425
    assert ls.intercept == 0.5466666666666526


def test_least_squares_matches_the_normal_equations():
    pairs = ((10.0, 100.0), (19.0, 200.0), (33.0, 300.0), (38.0, 400.0))
    line = fit_supply_line(pairs, FitMethod.LEAST_SQUARES)
    n = len(pairs)
    q_bar = sum(q for _, q in pairs) / n
    p_bar = sum(p for p, _ in pairs) / n
    slope = sum((q - q_bar) * (p - p_bar) for p, q in pairs) / sum(
        (q - q_bar) ** 2 for _, q in pairs
    )
    assert line.slope == slope
    assert line.intercept == p_bar - slope * q_bar


def test_least_squares_overflow_is_numerical():
    pairs = ((35.0, 200.0), (70.0, 400.0), (105.0, 1e200))
    assert fit_supply_line(pairs).slope == 0.175  # the two-point fit never squares
    with pytest.raises(NumericalError, match="least-squares fit overflows"):
        fit_supply_line(pairs, FitMethod.LEAST_SQUARES)


def test_fit_validation():
    with pytest.raises(InvalidParameterError):
        fit_supply_line(((35.0, 200.0),))
    with pytest.raises(InvalidParameterError, match="got 200.0 twice"):
        fit_supply_line(((35.0, 200.0), (70.0, 200.0)))
    with pytest.raises(InvalidParameterError, match="distinct quantities"):
        fit_supply_line(((35.0, 200.0), (70.0, 200.0)), FitMethod.LEAST_SQUARES)
    with pytest.raises(InvalidParameterError):
        # downward-sloping supply is rejected at construction
        fit_supply_line(((70.0, 200.0), (35.0, 400.0)))
    with pytest.raises(InvalidParameterError):
        SupplyLine(slope=0.0, intercept=0.0, fit_method=FitMethod.TWO_POINT)


# ---------------------------------------------------------------------------
# bisection solver


def test_equilibrium_matches_the_quadratic_root():
    # motive 0.5, budget 1000, cross price 0.19, minimums 200/200
    a, b = 100.0, 481.0
    supply = fit_supply_line(S1_PAIRS)
    point = solve_equilibrium(hyperbolic_demand(a, b), supply, BRACKET)
    assert point.qty == 122.44702498077844
    assert point.price == 21.428229371636224
    exact = quadratic_root(a, b, supply.slope, supply.intercept)
    assert abs(point.qty - exact) <= 1e-9 * exact
    assert abs(point.price - supply.price_at(exact)) <= 1e-9 * point.price
    assert abs(point.residual) < 1e-9 * BRACKET[1]
    assert point.iterations <= 60


def test_equilibrium_second_commodity():
    supply = fit_supply_line(S2_PAIRS)
    point = solve_equilibrium(hyperbolic_demand(100.0, 482.5), supply, BRACKET)
    assert point.qty == 120.33189063814235
    assert point.price == 23.7311919775023
    exact = quadratic_root(100.0, 482.5, supply.slope, supply.intercept)
    assert abs(point.qty - exact) <= 1e-9 * exact


def test_minimum_requirements_raise_the_equilibrium_price():
    s1 = fit_supply_line(S1_PAIRS)
    s2 = fit_supply_line(S2_PAIRS)
    # baseline variant: both minimums collapse to 1 unit
    constrained_1 = solve_equilibrium(hyperbolic_demand(100.0, 481.0), s1, BRACKET)
    baseline_1 = solve_equilibrium(hyperbolic_demand(0.5, 499.905), s1, BRACKET)
    constrained_2 = solve_equilibrium(hyperbolic_demand(100.0, 482.5), s2, BRACKET)
    baseline_2 = solve_equilibrium(hyperbolic_demand(0.5, 499.9125), s2, BRACKET)
    assert baseline_1.qty == 53.697754863973174
    assert baseline_1.price == 9.397107101195305
    assert constrained_1.price > baseline_1.price
    assert constrained_2.price > baseline_2.price


def test_constant_demand_fixed_point():
    supply = fit_supply_line(S1_PAIRS)
    point = solve_equilibrium(lambda price: 250.0, supply, BRACKET)
    assert abs(point.qty - 250.0) < 1e-9 * BRACKET[1]
    assert abs(point.residual) < 1e-9 * BRACKET[1]


def test_exact_zero_at_an_endpoint_returns_immediately():
    supply = fit_supply_line(S1_PAIRS)
    point = solve_equilibrium(lambda price: 200.0, supply, (200.0, 4000.0))
    assert point == EquilibriumPoint(price=35.0, qty=200.0, iterations=0, residual=0.0)


def test_bracket_without_a_sign_change():
    supply = fit_supply_line(S1_PAIRS)
    with pytest.raises(BracketError, match=r"no sign change on bracket \(200\.0, 4000\.0\)"):
        solve_equilibrium(lambda price: 100.0, supply, (200.0, 4000.0))


def test_bracket_must_be_ordered():
    supply = fit_supply_line(S1_PAIRS)
    with pytest.raises(InvalidParameterError):
        solve_equilibrium(lambda price: 250.0, supply, (4000.0, 1.0))
    with pytest.raises(InvalidParameterError):
        solve_equilibrium(lambda price: 250.0, supply, (5.0, 5.0))


def test_demand_errors_propagate():
    supply = fit_supply_line(S1_PAIRS)

    def starved(price: float) -> float:
        raise InfeasibleError("demand is 0 at every price")

    with pytest.raises(InfeasibleError):
        solve_equilibrium(starved, supply, BRACKET)


@pytest.mark.parametrize("where", ["low end", "high end"])
def test_non_finite_demand_at_the_bracket_fails_at_once(where):
    supply = fit_supply_line(S1_PAIRS)
    bad_price = supply.price_at(BRACKET[0] if where == "low end" else BRACKET[1])
    calls = []

    def demand(price: float) -> float:
        calls.append(price)
        return math.nan if price == bad_price else 250.0

    with pytest.raises(NumericalError, match=f"demand at price {bad_price:.6g} .*not finite"):
        solve_equilibrium(demand, supply, BRACKET)
    assert len(calls) <= 2


def test_non_finite_demand_at_a_midpoint_names_it():
    # finite and straddling at both ends, NaN strictly inside the bracket
    supply = SupplyLine(1.0, 0.0, FitMethod.TWO_POINT)
    calls = []

    def demand(price: float) -> float:
        calls.append(price)
        return math.nan if 100.0 < price < 3000.0 else 1000.0

    with pytest.raises(NumericalError, match="quantity 2000.5\\) is not finite"):
        solve_equilibrium(demand, supply, (1.0, 4000.0))
    assert len(calls) == 3


def test_jump_discontinuity_is_an_honest_failure():
    # demand drops from 1000 to 0 across the crossing, so no midpoint can
    # ever meet the residual bound and the solver must say so
    supply = SupplyLine(1.0, 0.0, FitMethod.TWO_POINT)
    with pytest.raises(NumericalError):
        solve_equilibrium(lambda price: 0.0 if price > 500.5 else 1000.0, supply, (1.0, 2000.0))


@given(
    a=st.floats(1.0, 500.0),
    b=st.floats(100.0, 5000.0),
    s=st.floats(0.01, 2.0),
    c=st.floats(0.0, 10.0),
)
def test_solver_agrees_with_the_closed_form_on_hyperbolic_demand(a, b, s, c):
    supply = SupplyLine(s, c, FitMethod.TWO_POINT)
    q_lo = 1e-3
    q_hi = a + b / supply.price_at(q_lo) + 1.0
    point = solve_equilibrium(hyperbolic_demand(a, b), supply, (q_lo, q_hi))
    exact = quadratic_root(a, b, s, c)
    assert abs(point.qty - exact) <= 1e-9 * exact
    assert abs(point.residual) < 1e-9 * q_hi
    assert point.price == supply.price_at(point.qty)
