"""Monte Carlo revenue oracle: determinism, exact cases, agreement with the
closed form."""

import math

import numpy as np
import pytest

from slabpricing import (
    InvalidParameterError,
    MCEstimate,
    NumericalError,
    PlanSlab,
    ResponseContext,
    SimConfig,
    SlabPlan,
    estimate_expected_revenue_mc,
    expected_revenue,
    simulate_consumer,
)

CTX = ResponseContext(
    motive=0.5, budget=1000.0, cross_price=0.19, own_min_qty=200.0, cross_min_qty=200.0
)


def ladder(prices, lambdas, span=2):
    return SlabPlan(
        slabs=tuple(PlanSlab(price=p, context=CTX) for p in prices),
        acceptance_probs=tuple(lambdas),
        attention_span=span,
    )

SURE_PLAN = ladder((0.175,), (1.0,), span=1)
HALF_PLAN = ladder((0.175, 0.17), (0.5, 0.5), span=2)


def test_certain_acceptance_is_exact():
    estimate = estimate_expected_revenue_mc(SimConfig(100000, 1, SURE_PLAN))
    assert estimate.mean == expected_revenue(SURE_PLAN).total
    assert estimate.standard_error == 0.0
    assert estimate.slab_counts == (100000,)
    assert estimate.no_purchase_count == 0
    assert estimate.trials == 100000


def test_half_plan_frozen_run():
    estimate = estimate_expected_revenue_mc(SimConfig(200000, 42, HALF_PLAN))
    assert estimate.mean == 373.98951500000004
    assert estimate.standard_error == 0.4822018013557291
    assert estimate.slab_counts == (100190, 49906)
    assert estimate.no_purchase_count == 49904


def test_reruns_are_bit_identical_and_seeds_matter():
    config = SimConfig(200000, 42, HALF_PLAN)
    assert estimate_expected_revenue_mc(config) == estimate_expected_revenue_mc(config)
    other = estimate_expected_revenue_mc(SimConfig(200000, 43, HALF_PLAN))
    assert other.slab_counts != (100190, 49906)


def test_estimate_brackets_the_closed_form():
    estimate = estimate_expected_revenue_mc(SimConfig(200000, 42, HALF_PLAN))
    closed = expected_revenue(HALF_PLAN).total
    assert abs(estimate.mean - closed) <= 3.0 * estimate.standard_error


def test_slab_frequencies_match_the_walk_probabilities():
    estimate = estimate_expected_revenue_mc(SimConfig(200000, 42, HALF_PLAN))
    n = estimate.trials
    # second rung buys with probability 0.5 * 0.5 = 0.25
    freq = estimate.slab_counts[1] / n
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(freq - 0.25) <= 3.0 * se
    assert sum(estimate.slab_counts) + estimate.no_purchase_count == n


def test_walk_consumes_one_draw_per_visited_rung():
    # reject (0.7 >= 0.5) then accept (0.2 < 0.5): buys rung 2
    slab, revenue = simulate_consumer(HALF_PLAN, [0.7, 0.2])
    assert slab == 2
    assert revenue == 498.0  # 0.17 * (100 + 481 / 0.17) = 17 + 481
    # two rejections exhaust the attention span
    assert simulate_consumer(HALF_PLAN, [0.7, 0.9]) == (None, 0.0)
    # immediate acceptance never looks at the second draw
    slab, revenue = simulate_consumer(HALF_PLAN, [0.1, 0.9])
    assert slab == 1
    assert revenue == 0.175 * 2848.571428571429


def test_walk_accepts_a_generator_source():
    slab, revenue = simulate_consumer(HALF_PLAN, np.random.default_rng(7))
    assert slab in (1, 2, None)
    if slab is None:
        assert revenue == 0.0
    else:
        assert revenue > 0.0


def test_rungs_past_the_attention_span_never_sell():
    wide = ladder((10.0, 9.5, 9.0), (0.5, 0.5, 0.5), span=2)
    estimate = estimate_expected_revenue_mc(SimConfig(50000, 3, wide))
    assert len(estimate.slab_counts) == 3
    assert estimate.slab_counts[2] == 0


def test_single_trial_has_no_spread():
    estimate = estimate_expected_revenue_mc(SimConfig(1, 5, HALF_PLAN))
    assert estimate.standard_error == 0.0
    assert estimate.trials == 1
    assert sum(estimate.slab_counts) + estimate.no_purchase_count == 1


def test_non_finite_slab_revenue_is_refused():
    def overflowing(k, price):
        return math.inf if k == 1 else 100.0

    with pytest.raises(NumericalError, match="slab 2 revenue is non-finite"):
        estimate_expected_revenue_mc(SimConfig(100, 1, HALF_PLAN, demand_fn=overflowing))
    # a rung past the attention span is never visited, so it may not count
    wide = ladder((10.0, 9.5, 9.0), (0.5, 0.5, 0.5), span=1)
    estimate = estimate_expected_revenue_mc(SimConfig(100, 1, wide, demand_fn=overflowing))
    assert estimate.slab_counts[1:] == (0, 0)


def test_overflowing_spread_is_refused():
    # finite revenues whose squares overflow: the spread cannot be formed
    with pytest.raises(NumericalError, match="standard error overflows"):
        estimate_expected_revenue_mc(SimConfig(100, 1, HALF_PLAN, demand_fn=lambda k, p: 1e200))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        SimConfig(0, 1, HALF_PLAN)
    with pytest.raises(InvalidParameterError):
        SimConfig(100, -1, HALF_PLAN)
    with pytest.raises(InvalidParameterError):
        SimConfig(100, 2**64, HALF_PLAN)


def test_battery_of_random_plans_stays_within_three_sigma():
    rng = np.random.default_rng(4242)
    hits = 0
    for i in range(10):
        n_slabs = int(rng.integers(1, 4))
        base = float(rng.uniform(1.0, 20.0))
        prices = sorted((float(rng.uniform(1.0, 20.0)) for _ in range(n_slabs)), reverse=True)
        ctx = ResponseContext(
            motive=float(rng.uniform(0.2, 0.8)),
            budget=float(rng.uniform(600.0, 1500.0)),
            cross_price=float(rng.uniform(0.1, 0.4)),
            own_min_qty=float(rng.uniform(5.0, 200.0)),
            cross_min_qty=float(rng.uniform(5.0, 200.0)),
        )
        lambdas = tuple(float(rng.uniform(0.1, 0.9)) for _ in range(n_slabs))
        span = int(rng.integers(1, 4))
        plan = SlabPlan(
            slabs=tuple(PlanSlab(price=p, context=ctx) for p in prices),
            acceptance_probs=lambdas,
            attention_span=span,
        )
        closed = expected_revenue(plan).total
        estimate = estimate_expected_revenue_mc(SimConfig(50000, 100 + i, plan))
        margin = 3.0 * estimate.standard_error
        if margin == 0.0:
            margin = 1e-9 * max(1.0, abs(closed))
        if abs(estimate.mean - closed) <= margin:
            hits += 1
    assert hits == 10
