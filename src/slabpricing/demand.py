"""Two-commodity demand under linear and slab price schedules.

An offer prices one commodity, either at a single unit price (linear price)
or as a ladder of slabs where larger minimum quantities unlock different unit
prices. A pair of offers spans one of three decision domains:

    convex      both offers linear-price
    mixed       exactly one offer has multiple slabs
    non_convex  both offers have multiple slabs

One demand rule, ``demand_convex_pair``'s, serves all three: it interpolates
between the minimum requirement (motive 0) and the budget-exhausting quantity
(motive 1) at one price per commodity, and each domain picks those prices.
Aggregation over a market sums budgets and minimums and takes the strongest
motive.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

from .errors import InfeasibleError, InvalidParameterError, NumericalError

T = TypeVar("T")


def _require_finite(owner: object, *fields: str) -> None:
    for field in fields:
        value = getattr(owner, field)
        if not math.isfinite(value):
            raise InvalidParameterError(f"{field} must be finite: {value}")


@dataclass(frozen=True)
class Slab:
    """One rung of a price schedule: a unit price unlocked at a minimum order."""

    unit_price: float
    min_qty: float

    def __post_init__(self) -> None:
        _require_finite(self, "unit_price", "min_qty")
        if not self.unit_price > 0:
            raise InvalidParameterError(f"unit_price must be positive: {self.unit_price}")
        if not self.min_qty > 0:
            raise InvalidParameterError(f"min_qty must be positive: {self.min_qty}")


@dataclass(frozen=True)
class Offer:
    """A commodity's full price schedule.

    Attributes:
        commodity_id: free-form label for the commodity.
        slabs: rungs ordered by strictly increasing min_qty.
        unit_label: the base unit the prices and quantities refer to
            (e.g. "g"). Units are labels only; no conversion ever happens.
    """

    commodity_id: str
    slabs: tuple[Slab, ...]
    unit_label: str

    def __post_init__(self) -> None:
        if not self.slabs:
            raise InvalidParameterError("offer needs at least one slab")
        object.__setattr__(self, "slabs", tuple(self.slabs))
        qtys = [s.min_qty for s in self.slabs]
        if any(b <= a for a, b in zip(qtys, qtys[1:])):
            raise InvalidParameterError(
                f"slab min_qty must be strictly increasing: {qtys}"
            )

    @property
    def n_slabs(self) -> int:
        return len(self.slabs)

    @property
    def is_linear_price(self) -> bool:
        """True when a single unit price applies at every quantity."""
        return len(self.slabs) == 1


def _check_unit_interval(values: Sequence[float], label: str) -> None:
    if not values:
        raise InvalidParameterError(f"{label} must have at least one entry")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{label} entry {v} outside [0, 1]")


@dataclass(frozen=True)
class Consumer:
    """One consumer's budget, requirements, and attitudes.

    Attributes:
        budget: money available for the two commodities together.
        motives1: per-slab desire for commodity 1, each in [0, 1]. A length-1
            tuple applies to every slab.
        motives2: per-slab desire for commodity 2, same convention.
        min_qty1, min_qty2: quantities the consumer must buy at minimum.
        max_qty1, max_qty2: upper anchors for the desire scale; must exceed
            the corresponding minimum. They are inert: validated and pooled,
            but no demand, revenue or CLI output reads them.
        attention_span: how many slabs the consumer will consider before
            walking away.
        acceptance_probs: per-slab probability of accepting that slab's
            terms when reached.
    """

    budget: float
    motives1: tuple[float, ...]
    motives2: tuple[float, ...]
    min_qty1: float
    min_qty2: float
    max_qty1: float
    max_qty2: float
    attention_span: int
    acceptance_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        # budget 0 is allowed so a neutral consumer (no money, no minimums)
        # can be expressed; scenario files reject it at load time.
        _require_finite(self, "budget", "min_qty1", "min_qty2", "max_qty1", "max_qty2")
        if self.budget < 0:
            raise InvalidParameterError(f"budget must be non-negative: {self.budget}")
        object.__setattr__(self, "motives1", tuple(self.motives1))
        object.__setattr__(self, "motives2", tuple(self.motives2))
        object.__setattr__(self, "acceptance_probs", tuple(self.acceptance_probs))
        _check_unit_interval(self.motives1, "motives1")
        _check_unit_interval(self.motives2, "motives2")
        _check_unit_interval(self.acceptance_probs, "acceptance_probs")
        if self.min_qty1 < 0 or self.min_qty2 < 0:
            raise InvalidParameterError("minimum quantities must be non-negative")
        if not self.min_qty1 < self.max_qty1:
            raise InvalidParameterError(
                f"max_qty1 must exceed min_qty1: {self.max_qty1} <= {self.min_qty1}"
            )
        if not self.min_qty2 < self.max_qty2:
            raise InvalidParameterError(
                f"max_qty2 must exceed min_qty2: {self.max_qty2} <= {self.min_qty2}"
            )
        if self.attention_span < 1:
            raise InvalidParameterError(
                f"attention_span must be at least 1: {self.attention_span}"
            )

    def motive1(self, k: int) -> float:
        """Motive for slab index k (0-based) of commodity 1."""
        return self.motives1[k] if len(self.motives1) > k else self.motives1[-1]

    def motive2(self, k: int) -> float:
        return self.motives2[k] if len(self.motives2) > k else self.motives2[-1]

    def oriented(self, commodity: int) -> Consumer:
        """This consumer with the requested commodity in the commodity-1 slot.

        Motives, minimums and maximums of the two commodities trade places
        for commodity 2, so code written for commodity 1 serves either one.
        """
        motives1, motives2 = own_and_cross(commodity, self.motives1, self.motives2)
        min_qty1, min_qty2 = own_and_cross(commodity, self.min_qty1, self.min_qty2)
        max_qty1, max_qty2 = own_and_cross(commodity, self.max_qty1, self.max_qty2)
        return dataclasses.replace(
            self,
            motives1=motives1,
            motives2=motives2,
            min_qty1=min_qty1,
            min_qty2=min_qty2,
            max_qty1=max_qty1,
            max_qty2=max_qty2,
        )


def own_and_cross(commodity: int, first: T, second: T) -> tuple[T, T]:
    """A per-commodity pair ordered as (requested commodity, the other one).

    ``first`` and ``second`` belong to commodities 1 and 2. This is the one
    place that decides which commodity is "own": offers, motives and
    minimums are all oriented through it.
    """
    if commodity == 1:
        return first, second
    if commodity == 2:
        return second, first
    raise InvalidParameterError(f"commodity must be 1 or 2: {commodity}")


class DomainKind(enum.Enum):
    CONVEX = "convex"
    MIXED = "mixed"
    NON_CONVEX = "non_convex"


def classify_domain(offer1: Offer, offer2: Offer) -> DomainKind:
    """Convexity class of the decision space spanned by two offers."""
    linear1, linear2 = offer1.is_linear_price, offer2.is_linear_price
    if linear1 and linear2:
        return DomainKind.CONVEX
    if linear1 or linear2:
        return DomainKind.MIXED
    return DomainKind.NON_CONVEX


@dataclass(frozen=True)
class PairDemand:
    """Demand for both commodities at posted prices.

    raw_x1/raw_x2 keep the unclamped values; when either is negative the
    published quantity is clamped to 0 and ``infeasible`` is set so callers
    can tell structural infeasibility from a true zero. In a mixed domain
    ``chosen_slab`` is the 0-based rung of the multi-slab offer the demand
    buys at; it is None in the other domains.
    """

    x1: float
    x2: float
    infeasible: bool
    raw_x1: float
    raw_x2: float
    chosen_slab: int | None = None


def _pair(raw_x1: float, raw_x2: float, chosen_slab: int | None = None) -> PairDemand:
    """Clamp negative raw quantities to 0 and flag them; NaN raises NumericalError."""
    if raw_x1 != raw_x1 or raw_x2 != raw_x2:
        raise NumericalError(f"demand is not a number: raw x1 {raw_x1}, raw x2 {raw_x2}")
    return PairDemand(
        x1=max(0.0, raw_x1),
        x2=max(0.0, raw_x2),
        infeasible=raw_x1 < 0 or raw_x2 < 0,
        raw_x1=raw_x1,
        raw_x2=raw_x2,
        chosen_slab=chosen_slab,
    )


def _require_positive_price(value: float, label: str) -> None:
    if not value > 0:
        raise InvalidParameterError(f"{label} must be positive: {value}")


def _convex_qty(view: Consumer, p_own: float, p_cross: float) -> float:
    """The demand rule for the commodity in ``view``'s commodity-1 slot."""
    mu = view.motive1(0)
    return (
        (1.0 - mu) * view.min_qty1
        + mu * (view.budget / p_own)
        - mu * (p_cross / p_own) * view.min_qty2
    )


def demand_convex_pair(consumer: Consumer, p1: float, p2: float) -> PairDemand:
    """Demand under linear prices for both commodities: the one demand rule.

    Each quantity blends the minimum requirement and the budget-exhausting
    bundle, weighted by the base (first-slab) motive in every domain:

        x1 = (1 - mu) * x1min + mu * m / p1 - mu * (p2 / p1) * x2min

    and x2 is the same on ``consumer.oriented(2)`` at (p2, p1). Negative raw
    values are clamped to 0 with the infeasible flag raised.
    """
    _require_positive_price(p1, "p1")
    _require_positive_price(p2, "p2")
    return _pair(_convex_qty(consumer, p1, p2), _convex_qty(consumer.oriented(2), p2, p1))


def _select_slab(consumer: Consumer, linear_price: float, slabbed: Offer) -> int:
    """Cheapest affordable rung; price ties go to the smaller min_qty.

    A rung is affordable when the minimum orders fit the budget at its price.
    """
    best: int | None = None
    for k, slab in enumerate(slabbed.slabs):
        cost = linear_price * consumer.min_qty1 + slab.unit_price * consumer.min_qty2
        if cost > consumer.budget:
            continue
        if best is None or slab.unit_price < slabbed.slabs[best].unit_price:
            best = k
    if best is None:
        raise InfeasibleError(
            "no slab is affordable: minimum orders exceed the budget at every rung"
        )
    return best


def demand_mixed_pair(consumer: Consumer, offer1: Offer, offer2: Offer) -> PairDemand:
    """Demand when offer1 is linear-price and offer2 is slab-priced.

    The demand is ``demand_convex_pair`` at offer1's price and the price of
    offer2's cheapest affordable rung ``chosen_slab`` (ties to the smaller
    min_qty). For swapped structure (offer1 slab-priced, offer2 linear) swap
    the arguments and read x1/x2 crosswise.
    """
    if classify_domain(offer1, offer2) is not DomainKind.MIXED or not offer1.is_linear_price:
        raise InvalidParameterError(
            "mixed demand needs a linear-price offer1 and a multi-slab offer2"
        )
    p1 = offer1.slabs[0].unit_price
    k = _select_slab(consumer, p1, offer2)
    pair = demand_convex_pair(consumer, p1, offer2.slabs[k].unit_price)
    return dataclasses.replace(pair, chosen_slab=k)


@dataclass(frozen=True)
class TwoStageDemand:
    """Demand when both commodities are slab-priced.

    Stage 1 evaluates each commodity against the other's opposite rung
    (commodity 1 against the second-rung prices, commodity 2 against the
    first-rung prices). Stage 2 refines each quantity by exhausting the
    budget against the other commodity's stage-1 quantity, expressing the
    two-way complementarity between the commodities.
    """

    x1_initial: float
    x2_initial: float
    x1_refined: float
    x2_refined: float


def budget_exhausting_qty(budget: float, other_price: float, other_qty: float, own_price: float) -> float:
    """Quantity of one commodity that spends the budget left by the other."""
    _require_positive_price(own_price, "own_price")
    return (budget - other_price * other_qty) / own_price


def demand_nonconvex_pair(consumer: Consumer, offer1: Offer, offer2: Offer) -> TwoStageDemand:
    """Two-stage demand when both offers have at least two rungs.

    Writing p1_1/p1_2 for offer1's first and second rung prices (and p2_1/
    p2_2 for offer2):

        stage 1: x1 = raw_x1 of demand_convex_pair at (p1_2, p2_2)
                 x2 = raw_x2 of demand_convex_pair at (p1_1, p2_1)
        stage 2: x1* = (m - p2_1 * x2) / p1_1
                 x2* = (m - p1_2 * x1) / p2_2

    Stage 2 may exceed stand-alone feasibility for extreme inputs; no
    projection is applied, the caller sees the raw refinement.
    """
    if offer1.n_slabs < 2 or offer2.n_slabs < 2:
        raise InvalidParameterError("non-convex demand needs two rungs on both offers")
    p1_1, p1_2 = offer1.slabs[0].unit_price, offer1.slabs[1].unit_price
    p2_1, p2_2 = offer2.slabs[0].unit_price, offer2.slabs[1].unit_price
    x1 = demand_convex_pair(consumer, p1_2, p2_2).raw_x1
    x2 = demand_convex_pair(consumer, p1_1, p2_1).raw_x2
    return TwoStageDemand(
        x1_initial=x1,
        x2_initial=x2,
        x1_refined=budget_exhausting_qty(consumer.budget, p2_1, x2, p1_1),
        x2_refined=budget_exhausting_qty(consumer.budget, p1_2, x1, p2_2),
    )


def pooled_consumer(market: Sequence[Consumer]) -> Consumer:
    """One consumer standing for a whole market.

    Budgets, minimums and maximums add; each slab's motive is the strongest
    in the market, up to the longest motive tuple. The walk parameters
    (attention span, acceptance probabilities) are the first consumer's,
    who shops for the pooled demand. This is the one place a market pools.
    """
    market = list(market)
    if not market:
        raise InvalidParameterError("market must contain at least one consumer")
    slabs1 = range(max(len(c.motives1) for c in market))
    slabs2 = range(max(len(c.motives2) for c in market))
    return Consumer(
        budget=sum(c.budget for c in market),
        motives1=tuple(max(c.motive1(k) for c in market) for k in slabs1),
        motives2=tuple(max(c.motive2(k) for c in market) for k in slabs2),
        min_qty1=sum(c.min_qty1 for c in market),
        min_qty2=sum(c.min_qty2 for c in market),
        max_qty1=sum(c.max_qty1 for c in market),
        max_qty2=sum(c.max_qty2 for c in market),
        attention_span=market[0].attention_span,
        acceptance_probs=market[0].acceptance_probs,
    )


def _top_two(values: Sequence[float]) -> tuple[int, float, float]:
    """Index of the maximum (ties to lowest index), the maximum, and the
    second-largest value (equal to the maximum for a singleton)."""
    k = max(range(len(values)), key=lambda i: (values[i], -i))
    top = values[k]
    rest = [v for i, v in enumerate(values) if i != k]
    return k, top, (max(rest) if rest else top)


def _aggregate_mixed(market: Sequence[Consumer], pooled: Consumer, p1: float, p2: float) -> float:
    """Market demand for commodity 1 at prices (p1, p2) in a mixed domain;
    ``pooled`` is the market's pooled_consumer.

    The strongest motive holder dominates the market the way the strongest
    degree dominates a fuzzy union, so their own minimum enters at the top
    motive while everyone else's rides on the runner-up motive:

        X1 = mu2nd * (sum m) / p1
             - mu_top * (p2 / p1) * x2min[k]
             - mu2nd * (p2 / p1) * sum of the others' x2min
             + (1 - mu_top) * sum x1min

    For a single consumer both order statistics coincide and this is the
    demand rule of ``demand_convex_pair``, up to rounding.
    """
    k, mu_top, mu_2nd = _top_two([c.motive1(0) for c in market])
    others_min2 = pooled.min_qty2 - market[k].min_qty2
    return (
        mu_2nd * pooled.budget / p1
        - mu_top * (p2 / p1) * market[k].min_qty2
        - mu_2nd * (p2 / p1) * others_min2
        + (1.0 - mu_top) * pooled.min_qty1
    )


def aggregate_demand(market: Sequence[Consumer], offer1: Offer, offer2: Offer) -> PairDemand:
    """Demand of a whole market at the posted prices of the two offers.

    A convex domain is ``demand_convex_pair`` of the pooled consumer, a
    non-convex one stage 1 of its ``demand_nonconvex_pair``. A mixed one
    prices the slabbed commodity at the pooled consumer's chosen rung and
    takes ``_aggregate_mixed`` of each commodity, oriented into slot 1.
    """
    market = list(market)
    pooled = pooled_consumer(market)
    kind = classify_domain(offer1, offer2)
    if kind is DomainKind.CONVEX:
        return demand_convex_pair(pooled, offer1.slabs[0].unit_price, offer2.slabs[0].unit_price)
    if kind is DomainKind.NON_CONVEX:
        staged = demand_nonconvex_pair(pooled, offer1, offer2)
        return _pair(staged.x1_initial, staged.x2_initial)
    # orient the market so the linear-price commodity sits in slot 1
    linear = 1 if offer1.is_linear_price else 2
    linear_offer, slabbed = own_and_cross(linear, offer1, offer2)
    views = [c.oriented(linear) for c in market]
    pooled = pooled.oriented(linear)
    p1 = linear_offer.slabs[0].unit_price
    chosen = _select_slab(pooled, p1, slabbed)
    p2 = slabbed.slabs[chosen].unit_price
    x_linear = _aggregate_mixed(views, pooled, p1, p2)
    x_slabbed = _aggregate_mixed([c.oriented(2) for c in views], pooled.oriented(2), p2, p1)
    return _pair(*own_and_cross(linear, x_linear, x_slabbed), chosen)
