"""Response curve analytics: slope, hazard, elasticities, willingness to pay.

The reference context (motive 0.5, budget 1000, cross price 0.19, minimums
200/200) gives x(p) = 100 + 481/p, which makes every frozen value below a
short hand computation.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slabpricing import (
    InfeasibleError,
    InvalidParameterError,
    NumericalError,
    ResponseContext,
    WTP_REFERENCE_PRICES,
    arc_elasticity,
    hazard_rate,
    point_elasticity,
    price_response,
    response_slope,
    willingness_to_pay,
)

GRID = [0.05 * 1.15**k for k in range(40)]  # log-ish sweep through 0.05..11.6


def ctx_for(motive: float = 0.5) -> ResponseContext:
    return ResponseContext(
        motive=motive,
        budget=1000.0,
        cross_price=0.19,
        own_min_qty=200.0,
        cross_min_qty=200.0,
    )


def test_context_validation():
    with pytest.raises(InvalidParameterError):
        ctx_for(motive=1.2)
    with pytest.raises(InvalidParameterError):
        ResponseContext(0.5, 0.0, 0.19, 200.0, 200.0)
    with pytest.raises(InvalidParameterError):
        ResponseContext(0.5, 1000.0, -0.19, 200.0, 200.0)
    with pytest.raises(InvalidParameterError):
        ResponseContext(0.5, 1000.0, 0.19, 0.0, 200.0)


def test_response_frozen_value():
    point = price_response(ctx_for(), 0.175)
    assert point.qty == 2848.571428571429  # 100 + 481/0.175
    assert not point.infeasible
    assert point.raw == point.qty


def test_response_clamps_when_cross_minimum_eats_the_budget():
    starved = ResponseContext(0.9, 50.0, 0.19, 1.0, 600.0)
    point = price_response(starved, 1.0)
    assert point.raw < 0.0
    assert point.qty == 0.0
    assert point.infeasible


def test_slope_frozen_value():
    # x'(p) = 0.5 * (0.19 * 200 - 1000) / p**2 = -481 / p**2
    assert response_slope(ctx_for(), 0.175) == -15706.122448979593


def test_slope_refuses_a_price_whose_square_underflows():
    # 1e-150 squared is still a non-zero float; 1e-200 squared is 0
    assert response_slope(ctx_for(), 1e-150) == -481 / (1e-150 * 1e-150)
    with pytest.raises(NumericalError, match="at price 1e-200 is not finite"):
        response_slope(ctx_for(), 1e-200)


def test_hazard_and_elasticity_frozen_values():
    assert hazard_rate(ctx_for(), 0.175) == 5.513683908869465
    assert point_elasticity(ctx_for(), 0.175) == 0.9648946840521563


def test_wtp_frozen_value():
    assert WTP_REFERENCE_PRICES == (0.01, 0.001)
    assert willingness_to_pay(ctx_for(), 0.175, 0.01) == 0.32585316284190025


def test_arc_elasticity_frozen_value():
    # doubling the price from 0.175: arc = -(dx/x) / (dp/p) with dp/p = 1
    assert arc_elasticity(ctx_for(), 0.175, 0.35) == 0.48244734202607825


def test_elasticity_equals_price_times_hazard():
    for motive in (0.1, 0.5, 0.9):
        ctx = ctx_for(motive)
        for p in GRID:
            eps = point_elasticity(ctx, p)
            assert eps == pytest.approx(p * hazard_rate(ctx, p), rel=1e-12)


def test_slope_matches_central_finite_difference():
    for motive in (0.2, 0.5, 0.8):
        ctx = ctx_for(motive)
        for p in GRID:
            h = 1e-6 * p
            fd = (price_response(ctx, p + h).qty - price_response(ctx, p - h).qty) / (2 * h)
            assert response_slope(ctx, p) == pytest.approx(fd, rel=1e-6)


def test_arc_converges_to_point_elasticity():
    ctx = ctx_for()
    for p in (0.1, 0.5, 2.0, 20.0):
        point = point_elasticity(ctx, p)
        for step in (1e-2, 1e-4, 1e-6):
            arc = arc_elasticity(ctx, p, p * (1.0 + step))
            assert abs(arc - point) <= 2.0 * step  # first-order convergence
        assert abs(arc_elasticity(ctx, p, p * (1.0 + 1e-6)) - point) <= 1e-6


def test_response_diverges_as_price_vanishes():
    ctx = ctx_for()
    assert price_response(ctx, 1e-9).qty > price_response(ctx, 1e-6).qty > 1e8


def test_degree_zero_homogeneity():
    """Scaling budget, cross price, and own price together leaves the
    response unchanged: only relative prices matter beyond the minimum."""
    base = price_response(ctx_for(), 0.175).qty
    scaled_ctx = ResponseContext(0.5, 3000.0, 0.57, 200.0, 200.0)
    assert price_response(scaled_ctx, 0.525).qty == pytest.approx(base, rel=1e-12)


def test_wtp_falls_in_price_and_rises_in_reference():
    ctx = ctx_for()
    prices = (0.1, 0.5, 1.0, 5.0)
    wtps = [willingness_to_pay(ctx, p, 0.01) for p in prices]
    assert all(a > b for a, b in zip(wtps, wtps[1:]))
    assert willingness_to_pay(ctx, 0.175, 0.01) > willingness_to_pay(ctx, 0.175, 0.001)


def test_undefined_ratios_raise_infeasible():
    starved = ResponseContext(0.9, 50.0, 0.19, 1.0, 600.0)
    with pytest.raises(InfeasibleError):
        hazard_rate(starved, 1.0)
    with pytest.raises(InfeasibleError):
        point_elasticity(starved, 1.0)
    with pytest.raises(InfeasibleError):
        arc_elasticity(starved, 1.0, 2.0)
    with pytest.raises(InfeasibleError):
        willingness_to_pay(starved, 1.0, 1.0)


def test_price_validation():
    with pytest.raises(InvalidParameterError):
        price_response(ctx_for(), 0.0)
    with pytest.raises(InvalidParameterError):
        response_slope(ctx_for(), -1.0)
    with pytest.raises(InvalidParameterError):
        arc_elasticity(ctx_for(), 0.175, 0.175)


@given(
    motive=st.floats(0.01, 1.0),
    budget=st.floats(100.0, 5000.0),
    p_lo=st.floats(0.01, 10.0),
    factor=st.floats(1.001, 10.0),
)
def test_raw_response_strictly_decreasing_when_budget_dominates(
    motive, budget, p_lo, factor
):
    # cross cost is 38 here, so any budget above it gives a negative slope
    ctx = ResponseContext(motive, budget, 0.19, 200.0, 200.0)
    lo = price_response(ctx, p_lo).raw
    hi = price_response(ctx, p_lo * factor).raw
    assert hi < lo
    assert response_slope(ctx, p_lo) < 0.0


@given(p=st.floats(0.01, 100.0))
def test_slope_sign_tracks_the_discretionary_budget(p):
    rich = ResponseContext(0.5, 1000.0, 0.19, 200.0, 200.0)
    poor = ResponseContext(0.5, 10.0, 0.19, 200.0, 200.0)  # cross cost 38 > 10
    assert response_slope(rich, p) < 0.0
    assert response_slope(poor, p) > 0.0
