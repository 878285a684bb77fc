"""Shared builders for the test suite.

The recurring fixture is a two-commodity setup with unit prices 0.175 and
0.19, minimum orders of 200 each, and a budget of 1000. Many frozen oracle
values in the tests were computed by hand from these numbers.
"""

from __future__ import annotations

import time

import pytest

from slabpricing import Consumer, Offer, ResponseContext, Slab

# set at collection time, before any test runs; the acceptance module uses it
# to bound the wall-clock cost of whatever suite slice is running
SESSION_T0 = time.perf_counter()


def make_consumer(
    mu: float = 0.5,
    phi: float = 0.5,
    budget: float = 1000.0,
    min1: float = 200.0,
    min2: float = 200.0,
    span: int = 2,
    acceptance: tuple[float, ...] = (0.5,),
) -> Consumer:
    return Consumer(
        budget=budget,
        motives1=(mu,),
        motives2=(phi,),
        min_qty1=min1,
        min_qty2=min2,
        max_qty1=min1 + 6000.0,
        max_qty2=min2 + 6000.0,
        attention_span=span,
        acceptance_probs=acceptance,
    )


def fixed_context(qty: float) -> ResponseContext:
    """A context whose demand is qty at any price. With motive 0 the
    response is exactly the own minimum; qty <= 0 starves a motive-1
    context (budget below the cross minimum's cost), which clamps to 0."""
    if qty > 0:
        return ResponseContext(
            motive=0.0, budget=1000.0, cross_price=0.19, own_min_qty=qty, cross_min_qty=200.0
        )
    return ResponseContext(
        motive=1.0, budget=10.0, cross_price=0.19, own_min_qty=200.0, cross_min_qty=200.0
    )


@pytest.fixture
def linear_offer1() -> Offer:
    return Offer("c1", (Slab(0.175, 200.0),), "g")


@pytest.fixture
def linear_offer2() -> Offer:
    return Offer("c2", (Slab(0.19, 200.0),), "g")


@pytest.fixture
def rung_offer2() -> Offer:
    # two rungs, second one pricier: the cheapest affordable rung is the first
    return Offer("c2", (Slab(0.2, 100.0), Slab(0.25, 250.0)), "g")


@pytest.fixture
def stepped_offer1() -> Offer:
    return Offer("c1", (Slab(0.054, 250.0), Slab(0.0535, 1000.0)), "g")


@pytest.fixture
def stepped_offer2() -> Offer:
    return Offer("c2", (Slab(0.2, 100.0), Slab(0.19, 200.0)), "g")


@pytest.fixture
def base_context() -> ResponseContext:
    return ResponseContext(
        motive=0.5,
        budget=1000.0,
        cross_price=0.19,
        own_min_qty=200.0,
        cross_min_qty=200.0,
    )
