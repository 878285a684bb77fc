"""Demand rules for the three domain classes plus market aggregation.

Frozen values were computed by hand from the written-out formulas before
they were asserted here; comments carry the arithmetic.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slabpricing import (
    Consumer,
    DomainKind,
    DomainSpec,
    InfeasibleError,
    InvalidParameterError,
    Offer,
    Slab,
    affordable,
    aggregate_demand,
    budget_exhausting_qty,
    classify_domain,
    demand_convex_pair,
    demand_mixed_pair,
    demand_nonconvex_pair,
    make_domain,
)
from conftest import make_consumer


# ---------------------------------------------------------------------------
# structure


def test_offer_requires_strictly_increasing_rungs():
    with pytest.raises(InvalidParameterError):
        Offer("c", (Slab(0.2, 100.0), Slab(0.25, 100.0)), "g")
    with pytest.raises(InvalidParameterError):
        Offer("c", (), "g")
    with pytest.raises(InvalidParameterError):
        Slab(0.0, 100.0)
    with pytest.raises(InvalidParameterError):
        Slab(0.2, 0.0)


def test_domain_classification(linear_offer1, linear_offer2, rung_offer2, stepped_offer1):
    assert classify_domain(linear_offer1, linear_offer2) is DomainKind.CONVEX
    assert classify_domain(linear_offer1, rung_offer2) is DomainKind.MIXED
    assert classify_domain(rung_offer2, linear_offer1) is DomainKind.MIXED
    assert classify_domain(stepped_offer1, rung_offer2) is DomainKind.NON_CONVEX


def test_domain_spec_rejects_wrong_classification(linear_offer1, linear_offer2):
    with pytest.raises(InvalidParameterError):
        DomainSpec(linear_offer1, linear_offer2, DomainKind.MIXED)
    spec = make_domain(linear_offer1, linear_offer2)
    assert spec.kind is DomainKind.CONVEX


def test_consumer_invariants():
    with pytest.raises(InvalidParameterError):
        make_consumer(budget=-1.0)
    with pytest.raises(InvalidParameterError):
        make_consumer(mu=1.5)
    with pytest.raises(InvalidParameterError):
        make_consumer(span=0)
    with pytest.raises(InvalidParameterError):
        Consumer(
            budget=10.0,
            motives1=(0.5,),
            motives2=(0.5,),
            min_qty1=5.0,
            min_qty2=5.0,
            max_qty1=5.0,  # must exceed the minimum
            max_qty2=10.0,
            attention_span=1,
            acceptance_probs=(0.5,),
        )


def test_per_slab_motive_lookup_repeats_the_last_entry():
    c = Consumer(
        budget=100.0,
        motives1=(0.3, 0.5),
        motives2=(0.4,),
        min_qty1=1.0,
        min_qty2=1.0,
        max_qty1=10.0,
        max_qty2=10.0,
        attention_span=1,
        acceptance_probs=(0.5,),
    )
    assert c.motive1(0) == 0.3
    assert c.motive1(1) == 0.5
    assert c.motive1(7) == 0.5
    assert c.motive2(3) == 0.4


def test_affordability_uses_first_slab_prices(linear_offer1, rung_offer2):
    # 0.175 * 200 + 0.2 * 100 = 55
    assert affordable(make_consumer(budget=55.0, min2=100.0), linear_offer1, rung_offer2)
    assert not affordable(make_consumer(budget=54.0, min2=100.0), linear_offer1, rung_offer2)


# ---------------------------------------------------------------------------
# convex pair


def test_convex_pair_frozen_values():
    # x1 = 0.5*200 + 0.5*1000/0.175 - 0.5*(0.19/0.175)*200
    pair = demand_convex_pair(make_consumer(), 0.175, 0.19)
    assert pair.x1 == 2848.571428571429
    assert pair.x2 == 2639.4736842105262
    assert not pair.infeasible
    assert pair.raw_x1 == pair.x1


def test_convex_pair_clamps_negative_raw_and_flags():
    tight = make_consumer(mu=0.9, phi=0.1, budget=100.0, min1=10.0, min2=600.0)
    pair = demand_convex_pair(tight, 0.175, 0.19)
    # raw = 0.1*10 + 0.9*100/0.175 - 0.9*(0.19/0.175)*600 = -71
    assert pair.raw_x1 == -71.0
    assert pair.x1 == 0.0
    assert pair.infeasible


def test_convex_pair_rejects_nonpositive_prices():
    with pytest.raises(InvalidParameterError):
        demand_convex_pair(make_consumer(), 0.0, 0.19)
    with pytest.raises(InvalidParameterError):
        demand_convex_pair(make_consumer(), 0.175, -1.0)


def test_zero_motive_pins_demand_to_the_minimum():
    pair = demand_convex_pair(make_consumer(mu=0.0, phi=0.0), 0.175, 0.19)
    assert pair.x1 == 200.0
    assert pair.x2 == 200.0


def test_full_motive_exhausts_the_budget():
    pair = demand_convex_pair(make_consumer(mu=1.0, phi=1.0), 0.175, 0.19)
    assert 0.175 * pair.x1 + 0.19 * 200.0 == pytest.approx(1000.0, rel=1e-12)
    assert 0.19 * pair.x2 + 0.175 * 200.0 == pytest.approx(1000.0, rel=1e-12)


@given(
    mu=st.floats(0.0, 1.0),
    p1=st.floats(0.01, 100.0),
    p2=st.floats(0.01, 100.0),
)
def test_convex_demand_never_negative_and_flag_matches_raw(mu, p1, p2):
    pair = demand_convex_pair(make_consumer(mu=mu, phi=mu), p1, p2)
    assert pair.x1 >= 0.0 and pair.x2 >= 0.0
    assert pair.infeasible == (pair.raw_x1 < 0 or pair.raw_x2 < 0)


# ---------------------------------------------------------------------------
# mixed pair


def test_mixed_pair_frozen_values(linear_offer1, rung_offer2):
    c = make_consumer(min2=100.0)
    got = demand_mixed_pair(c, linear_offer1, rung_offer2)
    assert got.chosen_slab == 0
    assert got.unit_price2 == 0.2
    # x1 = (0.5/0.175)*((1000 - 0.2*100) - 0.175*200) + 200 = 2900
    assert got.x1 == 2900.0
    assert got.x2 == 2462.5


def test_mixed_pair_needs_linear_then_slabbed(linear_offer1, linear_offer2, rung_offer2):
    with pytest.raises(InvalidParameterError):
        demand_mixed_pair(make_consumer(), rung_offer2, linear_offer1)
    with pytest.raises(InvalidParameterError):
        demand_mixed_pair(make_consumer(), linear_offer1, linear_offer2)


def test_mixed_pair_picks_cheapest_affordable_rung(linear_offer1):
    cheaper_top = Offer("c2", (Slab(0.25, 100.0), Slab(0.2, 250.0)), "g")
    got = demand_mixed_pair(make_consumer(min2=100.0), linear_offer1, cheaper_top)
    assert got.chosen_slab == 1
    assert got.unit_price2 == 0.2


def test_mixed_pair_price_tie_goes_to_smaller_minimum(linear_offer1):
    tied = Offer("c2", (Slab(0.2, 100.0), Slab(0.2, 250.0)), "g")
    got = demand_mixed_pair(make_consumer(min2=100.0), linear_offer1, tied)
    assert got.chosen_slab == 0


def test_mixed_pair_unaffordable_everywhere_raises(linear_offer1, rung_offer2):
    poor = make_consumer(budget=10.0, min2=100.0)
    with pytest.raises(InfeasibleError):
        demand_mixed_pair(poor, linear_offer1, rung_offer2)


def test_mixed_full_motive_exhausts_the_budget(linear_offer1, rung_offer2):
    c = make_consumer(mu=1.0, phi=1.0, min2=100.0)
    got = demand_mixed_pair(c, linear_offer1, rung_offer2)
    assert 0.175 * got.x1 + got.unit_price2 * 100.0 == pytest.approx(1000.0, rel=1e-12)
    assert got.unit_price2 * got.x2 + 0.175 * 200.0 == pytest.approx(1000.0, rel=1e-12)


# ---------------------------------------------------------------------------
# non-convex pair


def test_nonconvex_frozen_values(stepped_offer1, stepped_offer2):
    c = make_consumer(min1=250.0, min2=200.0)
    got = demand_nonconvex_pair(c, stepped_offer1, stepped_offer2)
    # stage 1: x1 = 0.5*(1000 - 0.19*200)/0.0535 - 0.5*250 + 250
    assert got.x1_initial == 9115.654205607478
    assert got.x2_initial == 2566.25
    # stage 2 spends what stage 1 left over
    assert got.x1_refined == 9013.888888888889
    assert got.x2_refined == 2696.3815789473683


def test_nonconvex_needs_two_rungs_each(linear_offer1, stepped_offer2):
    with pytest.raises(InvalidParameterError):
        demand_nonconvex_pair(make_consumer(), linear_offer1, stepped_offer2)


def test_budget_exhausting_qty_frozen():
    assert budget_exhausting_qty(1000.0, 0.2, 100.0, 0.054) == 18148.14814814815
    with pytest.raises(InvalidParameterError):
        budget_exhausting_qty(1000.0, 0.2, 100.0, 0.0)


def nonconvex_initial_composite(consumer: Consumer, offer1: Offer, offer2: Offer) -> tuple[float, float]:
    """Stage-1 quantities computed through the literal composite substitutions.

    The source derivation routes stage 1 through composite symbols
    q1 = m - (p1_1 * x1min) * p1_2 and q2 = (m - p2_2 * x2min) * p2_1 that
    cancel algebraically. This evaluates that long form verbatim as a
    cross-check on the simplified arithmetic in demand_nonconvex_pair.
    """
    p1_1, p1_2 = offer1.slabs[0].unit_price, offer1.slabs[1].unit_price
    p2_1, p2_2 = offer2.slabs[0].unit_price, offer2.slabs[1].unit_price
    mu = consumer.motive1(0)
    phi = consumer.motive2(0)
    m = consumer.budget
    q1 = m - (p1_1 * consumer.min_qty1) * p1_2
    q2 = (m - p2_2 * consumer.min_qty2) * p2_1
    x1 = (mu / q1) * ((q1 / p1_2) * (m - p2_2 * consumer.min_qty2) - q1 * consumer.min_qty1) + consumer.min_qty1
    x2 = (phi / q2) * ((q2 / p2_1) * (m - p1_1 * consumer.min_qty1) - q2 * consumer.min_qty2) + consumer.min_qty2
    return x1, x2


def test_composite_form_agrees_with_the_simplified_one(stepped_offer1, stepped_offer2):
    """The long substitution form cancels to the simplified stage-1
    arithmetic; both paths must agree to float precision."""
    c = make_consumer(mu=0.35, phi=0.65, min1=250.0, min2=200.0)
    staged = demand_nonconvex_pair(c, stepped_offer1, stepped_offer2)
    x1, x2 = nonconvex_initial_composite(c, stepped_offer1, stepped_offer2)
    assert x1 == pytest.approx(staged.x1_initial, rel=1e-12)
    assert x2 == pytest.approx(staged.x2_initial, rel=1e-12)


def test_refinement_couples_the_commodities(stepped_offer1, stepped_offer2):
    """More stage-1 appetite for one commodity strictly shrinks the other's
    stage-2 refinement: the two quantities compete for the same budget."""
    lo = demand_nonconvex_pair(
        make_consumer(phi=0.3, min1=250.0), stepped_offer1, stepped_offer2
    )
    hi = demand_nonconvex_pair(
        make_consumer(phi=0.6, min1=250.0), stepped_offer1, stepped_offer2
    )
    assert hi.x2_initial > lo.x2_initial
    assert hi.x1_refined < lo.x1_refined


# ---------------------------------------------------------------------------
# dominance of the constrained curve


def test_constrained_exceeds_unconstrained_exactly_above_the_threshold():
    """With minimums at 200 versus a baseline of 1, the constrained demand
    dominates iff p > cross_price * mu / (1 - mu). Checked on both sides of
    the threshold for each motive."""
    cross = 0.19
    for mu in [k / 10 for k in range(1, 10)]:
        threshold = cross * mu / (1.0 - mu)
        for p in (0.5 * threshold, 0.999 * threshold, 1.001 * threshold,
                  2.0 * threshold, 1.0, 10.0, 50.0):
            if p <= 0:
                continue
            constrained = demand_convex_pair(make_consumer(mu=mu, phi=mu), p, cross)
            unconstrained = demand_convex_pair(
                make_consumer(mu=mu, phi=mu, min1=1.0, min2=1.0), p, cross
            )
            diff = constrained.raw_x1 - unconstrained.raw_x1
            assert (diff > 0) == (p > threshold), (mu, p, diff)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_convex_pools_budgets_and_takes_the_top_motive(
    linear_offer1, linear_offer2
):
    a = make_consumer(mu=0.3, phi=0.3, budget=500.0)
    b = make_consumer(mu=0.6, phi=0.6, budget=500.0)
    dom = make_domain(linear_offer1, linear_offer2)
    agg = aggregate_demand([a, b], dom)
    # pooled: m=1000, mins 400, motive 0.6
    # x1 = 0.4*400 + 0.6*1000/0.175 - 0.6*(0.19/0.175)*400 = 3328
    assert agg.x1 == pytest.approx(3328.0, rel=1e-12)
    assert agg.kind is DomainKind.CONVEX
    assert agg.chosen_slab2 is None


def test_aggregate_mixed_matches_the_order_statistic_form(linear_offer1, rung_offer2):
    a = make_consumer(mu=0.3, phi=0.4, budget=500.0, min1=150.0, min2=80.0)
    b = make_consumer(mu=0.6, phi=0.2, budget=700.0, min1=100.0, min2=120.0)
    agg = aggregate_demand([a, b], make_domain(linear_offer1, rung_offer2))
    assert agg.chosen_slab2 == 0
    p1, p2k = 0.175, 0.2
    # top motive holder's own minimum at the top motive, the rest at the
    # runner-up, total minimums at (1 - top)
    x1 = (0.3 * 1200.0 / p1 - 0.6 * (p2k / p1) * 120.0
          - 0.3 * (p2k / p1) * 80.0 + 0.4 * 250.0)
    x2 = (0.2 * 1200.0 / p2k - 0.4 * (p1 / p2k) * 150.0
          - 0.2 * (p1 / p2k) * 100.0 + 0.6 * 200.0)
    assert agg.x1 == x1
    assert agg.x2 == x2


def test_aggregate_mixed_swapped_orientation(linear_offer1, rung_offer2):
    """With the slabbed offer first, quantities come back crosswise from the
    same computation run on swapped commodities."""
    a = make_consumer(mu=0.4, phi=0.3, budget=500.0, min1=80.0, min2=150.0)
    b = make_consumer(mu=0.2, phi=0.6, budget=700.0, min1=120.0, min2=100.0)
    swapped = aggregate_demand([a, b], make_domain(rung_offer2, linear_offer1))
    mirrored = aggregate_demand(
        [make_consumer(mu=0.3, phi=0.4, budget=500.0, min1=150.0, min2=80.0),
         make_consumer(mu=0.6, phi=0.2, budget=700.0, min1=100.0, min2=120.0)],
        make_domain(linear_offer1, rung_offer2),
    )
    assert swapped.raw_x1 == mirrored.raw_x2
    assert swapped.raw_x2 == mirrored.raw_x1


def test_single_consumer_aggregate_equals_the_individual_formula(
    linear_offer1, rung_offer2
):
    c = make_consumer(mu=0.3, phi=0.4, budget=500.0, min1=150.0, min2=80.0)
    agg = aggregate_demand([c], make_domain(linear_offer1, rung_offer2))
    ind = demand_mixed_pair(c, linear_offer1, rung_offer2)
    assert agg.raw_x1 == pytest.approx(ind.raw_x1, rel=1e-12)
    assert agg.raw_x2 == pytest.approx(ind.raw_x2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_clone_markets_scale_linearly(
    n, linear_offer1, linear_offer2, rung_offer2, stepped_offer1, stepped_offer2
):
    """A market of n identical consumers demands exactly n times one
    consumer's demand, in every domain class."""
    c = make_consumer(mu=0.45, phi=0.35, budget=400.0, min1=50.0, min2=60.0)
    for dom in (
        make_domain(linear_offer1, linear_offer2),
        make_domain(linear_offer1, rung_offer2),
        make_domain(stepped_offer1, stepped_offer2),
    ):
        one = aggregate_demand([c], dom)
        many = aggregate_demand([c] * n, dom)
        assert many.raw_x1 == pytest.approx(n * one.raw_x1, rel=1e-12)
        assert many.raw_x2 == pytest.approx(n * one.raw_x2, rel=1e-12)


def test_neutral_consumer_leaves_the_aggregate_unchanged(linear_offer1, rung_offer2):
    """Zero budget, zero minimums, zero motives: adding such a consumer must
    not move market demand. The Consumer type allows budget 0 for exactly
    this algebraic role."""
    a = make_consumer(mu=0.3, phi=0.4, budget=500.0, min1=150.0, min2=80.0)
    b = make_consumer(mu=0.6, phi=0.2, budget=700.0, min1=100.0, min2=120.0)
    neutral = Consumer(
        budget=0.0,
        motives1=(0.0,),
        motives2=(0.0,),
        min_qty1=0.0,
        min_qty2=0.0,
        max_qty1=1.0,
        max_qty2=1.0,
        attention_span=1,
        acceptance_probs=(0.0,),
    )
    dom = make_domain(linear_offer1, rung_offer2)
    base = aggregate_demand([a, b], dom)
    padded = aggregate_demand([a, b, neutral], dom)
    assert padded.raw_x1 == pytest.approx(base.raw_x1, rel=1e-12)
    assert padded.raw_x2 == pytest.approx(base.raw_x2, rel=1e-12)


def test_tied_top_motives_make_the_order_irrelevant(linear_offer1, rung_offer2):
    """When the two largest motives coincide, both order statistics equal
    that motive and the formula becomes symmetric in the minimums, so the
    market order cannot move the answer."""
    a = make_consumer(mu=0.6, phi=0.2, budget=500.0, min1=150.0, min2=80.0)
    b = make_consumer(mu=0.6, phi=0.2, budget=700.0, min1=100.0, min2=120.0)
    agg = aggregate_demand([a, b], make_domain(linear_offer1, rung_offer2))
    flipped = aggregate_demand([b, a], make_domain(linear_offer1, rung_offer2))
    p1, p2k = 0.175, 0.2
    x1_hand = (0.6 * 1200.0 / p1 - 0.6 * (p2k / p1) * 80.0
               - 0.6 * (p2k / p1) * 120.0 + 0.4 * 250.0)
    assert agg.x1 == x1_hand
    assert flipped.x1 == agg.x1
    assert flipped.x2 == agg.x2


def test_price_override_only_for_convex(linear_offer1, linear_offer2, rung_offer2):
    dom = make_domain(linear_offer1, linear_offer2)
    swept = aggregate_demand([make_consumer()], dom, prices=(1.0, 2.0))
    direct = demand_convex_pair(make_consumer(), 1.0, 2.0)
    assert swept.raw_x1 == direct.raw_x1
    with pytest.raises(InvalidParameterError):
        aggregate_demand(
            [make_consumer()], make_domain(linear_offer1, rung_offer2), prices=(1.0, 2.0)
        )


def test_aggregate_rejects_empty_market(linear_offer1, linear_offer2):
    with pytest.raises(InvalidParameterError):
        aggregate_demand([], make_domain(linear_offer1, linear_offer2))


def test_aggregate_nonconvex_uses_stage_one(stepped_offer1, stepped_offer2):
    c = make_consumer(min1=250.0, min2=200.0)
    agg = aggregate_demand([c], make_domain(stepped_offer1, stepped_offer2))
    staged = demand_nonconvex_pair(c, stepped_offer1, stepped_offer2)
    assert agg.x1 == staged.x1_initial
    assert agg.x2 == staged.x2_initial
