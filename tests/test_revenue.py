"""Expected revenue across a slab ladder, plan builders, and the optimizer."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fixed_context, make_consumer
from slabpricing import (
    Consumer,
    InvalidParameterError,
    Offer,
    PlanSlab,
    ResponseContext,
    Slab,
    SlabPlan,
    best_by_slab_count,
    bundled_scenario_path,
    discount_ladder_plans,
    expected_revenue,
    parse_scenario,
    plan_for_consumer,
    pooled_consumer,
)
from slabpricing.demand import own_and_cross
from slabpricing.revenue import best_of

CTX = ResponseContext(
    motive=0.5, budget=1000.0, cross_price=0.19, own_min_qty=200.0, cross_min_qty=200.0
)


def ladder(prices, lambdas, span=2):
    return SlabPlan(
        slabs=tuple(PlanSlab(price=p, context=CTX) for p in prices),
        acceptance_probs=tuple(lambdas),
        attention_span=span,
    )


def fixed_ladder(prices, lambdas, demands, span=2):
    """A ladder whose slab k demands demands[k] at any price."""
    return SlabPlan(
        slabs=tuple(
            PlanSlab(price=p, context=fixed_context(q)) for p, q in zip(prices, demands)
        ),
        acceptance_probs=tuple(lambdas),
        attention_span=span,
    )


# ---------------------------------------------------------------------------
# purchase probability


def purchase_probabilities(lams):
    """Probability that a walk over every slab buys at each one, read from
    the revenue report lines as reach_prob * acceptance_prob."""
    report = expected_revenue(ladder((10.0,) * len(lams), lams, span=len(lams)))
    return [line.reach_prob * line.acceptance_prob for line in report.per_slab]


def test_purchase_probability_dyadic_walk():
    assert purchase_probabilities((0.5, 0.5, 0.5)) == [0.5, 0.25, 0.125]


def test_purchase_probability_general_walk():
    # 0.5 * 0.2 * 0.6; not exactly 0.06 in binary floats
    assert purchase_probabilities((0.5, 0.8, 0.6))[2] == pytest.approx(0.06, rel=1e-12)


def test_certain_acceptance_blocks_later_slabs():
    assert purchase_probabilities((1.0, 0.5)) == [1.0, 0.0]


@given(
    lams=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(tuple),
)
def test_buy_probabilities_complement_the_all_reject_path(lams):
    total = sum(purchase_probabilities(lams))
    reject_all = math.prod(1.0 - lam for lam in lams)
    assert total == pytest.approx(1.0 - reject_all, abs=1e-12)


# ---------------------------------------------------------------------------
# expected revenue


def test_expected_revenue_fixed_demand_breakdown():
    plan = fixed_ladder((10.0, 9.5, 9.0), (0.5, 0.4, 0.3), (50.0, 40.0, 30.0), span=2)
    report = expected_revenue(plan)
    assert report.total == 326.0
    assert [line.reach_prob for line in report.per_slab] == [1.0, 0.5, 0.0]
    assert [line.demand for line in report.per_slab] == [50.0, 40.0, 30.0]
    assert report.per_slab[0].contribution == 250.0
    assert report.per_slab[1].contribution == 76.0
    assert report.per_slab[2].contribution == 0.0
    assert report.per_slab[0].index == 1


def test_rung_past_the_span_contributes_nothing_even_at_infinite_demand():
    # slab 2's demand overflows to inf at its price, but a span-1 walk never
    # reaches it; 0 * inf would make the total nan
    flood = ResponseContext(
        motive=1.0, budget=1e308, cross_price=0.2, own_min_qty=20.0, cross_min_qty=200.0
    )
    plan = SlabPlan(
        slabs=(
            PlanSlab(price=10.0, context=ResponseContext(0.5, 1000.0, 0.2, 20.0, 200.0)),
            PlanSlab(price=0.5, context=flood),
        ),
        acceptance_probs=(0.5, 0.5),
        attention_span=1,
    )
    report = expected_revenue(plan)
    assert math.isinf(report.per_slab[1].demand)
    assert report.per_slab[1].contribution == 0.0
    assert report.total == 290.0


def test_default_demand_fn_is_the_context_response():
    plan = ladder((0.175,), (1.0,), span=1)
    report = expected_revenue(plan)
    assert report.per_slab[0].demand == 2848.571428571429
    assert report.total == 0.175 * 2848.571428571429


def test_dead_plan_reports_a_diagnostic():
    # the report's lines show why the total is 0: no slab has demand
    plan = fixed_ladder((10.0, 9.0), (0.5, 0.5), (0.0, -5.0))
    report = expected_revenue(plan)
    assert report.total == 0.0
    assert [line.demand for line in report.per_slab] == [0.0, 0.0]  # slab 2 clamped


def test_revenue_monotone_in_attention_span():
    prices = (10.0, 9.5, 9.0, 8.5)
    lams = (0.3, 0.3, 0.3, 0.3)
    demands = (50.0, 40.0, 30.0, 20.0)
    totals = [
        expected_revenue(fixed_ladder(prices, lams, demands, span=s)).total
        for s in (1, 2, 3, 4, 5)
    ]
    assert all(a <= b for a, b in zip(totals, totals[1:]))
    assert totals[3] == totals[4]  # span beyond the ladder adds nothing


@given(t=st.floats(0.0, 1.0), slot=st.integers(0, 2))
def test_revenue_is_affine_in_each_acceptance_probability(t, slot):
    prices = (10.0, 9.5, 9.0)
    demands = (50.0, 40.0, 30.0)

    def total(lam):
        lams = [0.4, 0.4, 0.4]
        lams[slot] = lam
        return expected_revenue(fixed_ladder(prices, lams, demands, span=3)).total

    interpolated = (1.0 - t) * total(0.0) + t * total(1.0)
    assert total(t) == pytest.approx(interpolated, rel=1e-12, abs=1e-12)


def test_plan_validation():
    with pytest.raises(InvalidParameterError):
        ladder((), ())
    with pytest.raises(InvalidParameterError):
        ladder((10.0,), (0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        ladder((10.0,), (1.5,))
    with pytest.raises(InvalidParameterError):
        ladder((10.0,), (0.5,), span=0)
    with pytest.raises(InvalidParameterError):
        PlanSlab(price=0.0, context=CTX)


# ---------------------------------------------------------------------------
# optimizer


def test_optimizer_picks_the_exhaustive_maximum():
    demands = (50.0, 40.0)
    plans = [
        fixed_ladder((10.0,), (0.5,), demands),
        fixed_ladder((10.0, 9.5), (0.5, 0.5), demands),
        fixed_ladder((12.0, 11.4), (0.5, 0.5), demands),
    ]
    best_plan, best_report = best_of(best_by_slab_count(plans).values())
    totals = [expected_revenue(p).total for p in plans]
    assert best_report.total == max(totals)
    assert best_plan is plans[totals.index(max(totals))]


def test_optimizer_tie_breaks_by_count_then_first_price():
    # all-zero acceptance makes every total 0, forcing the tie-break
    demands = (50.0, 40.0)
    dead = [
        fixed_ladder((10.0, 9.5), (0.0, 0.0), demands),
        fixed_ladder((12.0,), (0.0,), demands),
        fixed_ladder((8.0,), (0.0,), demands),
    ]
    best_plan, best_report = best_of(best_by_slab_count(dead).values())
    assert best_report.total == 0.0
    assert best_plan.n_slabs == 1
    assert best_plan.slabs[0].price == 8.0


def test_optimizer_single_candidate_and_empty_input():
    only = fixed_ladder((10.0,), (0.5,), (50.0,))
    plan, report = best_of(best_by_slab_count([only]).values())
    assert plan is only
    with pytest.raises(InvalidParameterError):
        best_of([])
    with pytest.raises(InvalidParameterError):
        best_by_slab_count([])


def test_discount_ladder_family_shape():
    plans = list(
        discount_ladder_plans(CTX, base_prices=(8.0, 10.0, 12.0), slab_counts=(1, 2, 3, 4))
    )
    assert len(plans) == 12
    for plan in plans:
        p0 = plan.slabs[0].price
        assert plan.acceptance_probs == (0.5,) * plan.n_slabs
        assert plan.attention_span == 2
        for k, slab in enumerate(plan.slabs):
            assert slab.price == pytest.approx(p0 * 0.95**k, rel=1e-15)
            assert slab.context is CTX


def test_discount_ladder_validation():
    with pytest.raises(InvalidParameterError):
        list(discount_ladder_plans(CTX, (10.0,), (1,), discount=0.0))
    with pytest.raises(InvalidParameterError):
        list(discount_ladder_plans(CTX, (10.0,), (1,), discount=1.0))
    with pytest.raises(InvalidParameterError):
        list(discount_ladder_plans(CTX, (10.0,), (0,)))


def test_slab_count_study_on_the_documented_family():
    """On the bundled study setup, adding a second rung helps and further
    rungs change nothing (the attention span is two)."""
    ctx = ResponseContext(
        motive=0.5, budget=1000.0, cross_price=0.19, own_min_qty=20.0, cross_min_qty=200.0
    )
    plans = list(discount_ladder_plans(ctx, (8.0, 10.0, 12.0), (1, 2, 3, 4)))
    winners = best_by_slab_count(plans)
    totals = {count: report.total for count, (plan, report) in winners.items()}
    assert totals[1] == pytest.approx(300.5, rel=1e-12)
    assert totals[2] == pytest.approx(449.25, rel=1e-12)
    assert totals[3] == pytest.approx(449.25, rel=1e-12)
    assert totals[4] == pytest.approx(449.25, rel=1e-12)
    assert totals[2] >= totals[3] >= totals[4]
    for count, (plan, report) in winners.items():
        assert plan.slabs[0].price == 12.0
    overall_plan, overall_report = best_of(winners.values())
    assert overall_plan.n_slabs == 2  # ties resolve toward fewer slabs


# ---------------------------------------------------------------------------
# plan builders


def test_plan_for_consumer_pairs_rungs_by_rank(stepped_offer2, linear_offer1):
    consumer = Consumer(
        budget=1000.0,
        motives1=(0.5,),
        motives2=(0.3, 0.7),
        min_qty1=200.0,
        min_qty2=100.0,
        max_qty1=6200.0,
        max_qty2=6100.0,
        attention_span=2,
        acceptance_probs=(0.5,),
    )
    plan = plan_for_consumer(consumer, stepped_offer2, linear_offer1, commodity=2)
    assert plan.n_slabs == 2
    assert [s.price for s in plan.slabs] == [0.2, 0.19]
    # the other offer has one rung, so both slabs clamp to its 0.175 price
    assert [s.context.cross_price for s in plan.slabs] == [0.175, 0.175]
    assert [s.context.motive for s in plan.slabs] == [0.3, 0.7]
    assert plan.slabs[0].context.own_min_qty == 100.0
    assert plan.slabs[0].context.cross_min_qty == 200.0
    # a single acceptance probability stretches across both rungs
    assert plan.acceptance_probs == (0.5, 0.5)
    assert plan.attention_span == 2


def test_plan_for_consumer_rejects_unknown_commodity(linear_offer1, linear_offer2):
    with pytest.raises(InvalidParameterError):
        plan_for_consumer(make_consumer(), linear_offer1, linear_offer2, commodity=3)


def test_plan_for_market_pools_and_takes_the_strongest_motive(stepped_offer1, stepped_offer2):
    """A market's plan is the plan of its pooled consumer."""
    a = Consumer(1000.0, (0.2, 0.8), (0.5,), 250.0, 200.0, 6250.0, 6200.0, 2, (0.4,))
    b = Consumer(500.0, (0.6, 0.3), (0.5,), 100.0, 50.0, 6100.0, 6050.0, 3, (0.7, 0.1))
    plan = plan_for_consumer(pooled_consumer([a, b]), stepped_offer1, stepped_offer2, commodity=1)
    assert [s.context.budget for s in plan.slabs] == [1500.0, 1500.0]
    assert plan.slabs[0].context.own_min_qty == 350.0
    assert plan.slabs[0].context.cross_min_qty == 250.0
    assert [s.context.motive for s in plan.slabs] == [0.6, 0.8]
    assert [s.context.cross_price for s in plan.slabs] == [0.2, 0.19]
    # walk parameters follow the first consumer
    assert plan.acceptance_probs == (0.4, 0.4)
    assert plan.attention_span == 2
    with pytest.raises(InvalidParameterError):
        pooled_consumer([])


MOTIVES = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3)


@st.composite
def consumers(draw):
    min1, min2 = draw(st.floats(1.0, 500.0)), draw(st.floats(1.0, 500.0))
    return Consumer(
        budget=draw(st.floats(1.0, 5000.0)),
        motives1=tuple(draw(MOTIVES)),
        motives2=tuple(draw(MOTIVES)),
        min_qty1=min1,
        min_qty2=min2,
        max_qty1=min1 + draw(st.floats(1.0, 6000.0)),
        max_qty2=min2 + draw(st.floats(1.0, 6000.0)),
        attention_span=draw(st.integers(1, 4)),
        acceptance_probs=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))),
    )


THREE_RUNGS = Offer("c1", (Slab(0.3, 100.0), Slab(0.25, 200.0), Slab(0.2, 400.0)), "g")
TWO_RUNGS = Offer("c2", (Slab(0.2, 100.0), Slab(0.19, 200.0)), "g")


@given(market=st.lists(consumers(), min_size=1, max_size=4), commodity=st.sampled_from([1, 2]))
def test_pooling_commutes_with_orientation(market, commodity):
    pooled = pooled_consumer(market)
    assert pooled.oriented(commodity) == pooled_consumer([c.oriented(commodity) for c in market])
    own, other = own_and_cross(commodity, THREE_RUNGS, TWO_RUNGS)
    single = market[0]
    assert plan_for_consumer(pooled_consumer([single]), own, other, commodity) == plan_for_consumer(
        single, own, other, commodity
    )


# ---------------------------------------------------------------------------
# bundled plans


@pytest.mark.parametrize(
    "name,total",
    [
        ("paper_convex", 249.25),
        ("paper_mixed", 370.0),
        ("paper_nonconvex", 365.296875),
        ("paper_beans", 300.14782499999995),
        ("slab_study", 290.5),
    ],
)
def test_bundled_plan_totals(name, total):
    scenario = parse_scenario(bundled_scenario_path(name))
    request = scenario.revenue
    consumer = scenario.consumers[request.consumer]
    own, other = own_and_cross(request.commodity, scenario.offer1, scenario.offer2)
    plan = plan_for_consumer(consumer, own, other, request.commodity)
    assert expected_revenue(plan).total == pytest.approx(total, rel=1e-12)
