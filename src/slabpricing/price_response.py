"""Own-price response of demand at one slab, with its analytic properties.

Fixing everything about a slab except the own unit price gives a response
curve

    x(p) = (1 - mu) * own_min + mu * (m - cross_price * cross_min) / p

written below in its expanded form. The slope, hazard rate, elasticities,
and willingness to pay all derive from this curve. Hazard and elasticity are
computed from their defining ratios -x'/x and -x'p/x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleError, InvalidParameterError, NumericalError

# reference prices at which willingness to pay is conventionally quoted
WTP_REFERENCE_PRICES: tuple[float, float] = (0.01, 0.001)


@dataclass(frozen=True)
class ResponseContext:
    """Everything about a slab except its own unit price.

    Attributes:
        motive: desire for the commodity at this slab, in [0, 1].
        budget: money available.
        cross_price: unit price of the other commodity at this slab.
        own_min_qty: minimum quantity of the responding commodity.
        cross_min_qty: minimum quantity of the other commodity.
    """

    motive: float
    budget: float
    cross_price: float
    own_min_qty: float
    cross_min_qty: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.motive <= 1.0:
            raise InvalidParameterError(f"motive {self.motive} outside [0, 1]")
        if not self.budget > 0:
            raise InvalidParameterError(f"budget must be positive: {self.budget}")
        if not self.cross_price > 0:
            raise InvalidParameterError(f"cross_price must be positive: {self.cross_price}")
        if not self.own_min_qty > 0 or not self.cross_min_qty > 0:
            raise InvalidParameterError("minimum quantities must be positive")


@dataclass(frozen=True)
class ResponsePoint:
    """Response at one price; raw keeps the unclamped value."""

    qty: float
    infeasible: bool
    raw: float


def _check_price(p: float) -> None:
    if not p > 0:
        raise InvalidParameterError(f"price must be positive: {p}")


def price_response(ctx: ResponseContext, p: float) -> ResponsePoint:
    """Quantity demanded at own price p.

        x(p) = (1 - motive) * own_min + motive * m / p
               - motive * (cross_price / p) * cross_min

    Negative raw values clamp to 0 with the infeasible flag set.
    """
    _check_price(p)
    raw = (
        (1.0 - ctx.motive) * ctx.own_min_qty
        + ctx.motive * (ctx.budget / p)
        - ctx.motive * (ctx.cross_price / p) * ctx.cross_min_qty
    )
    return ResponsePoint(qty=max(0.0, raw), infeasible=raw < 0, raw=raw)


def response_slope(ctx: ResponseContext, p: float) -> float:
    """Analytic derivative of the unclamped response.

        x'(p) = motive * (cross_price * cross_min - m) / p**2

    Negative whenever the budget exceeds the cross minimum's cost. A price
    so small that p**2 underflows to 0 raises NumericalError.
    """
    _check_price(p)
    p_squared = p * p
    if p_squared == 0.0:
        raise NumericalError(f"response slope at price {p:.6g} is not finite: p * p underflows to 0")
    return ctx.motive * (ctx.cross_price * ctx.cross_min_qty - ctx.budget) / p_squared


def hazard_rate(ctx: ResponseContext, p: float) -> float:
    """h(p) = -x'(p) / x(p). Requires positive demand at p."""
    point = price_response(ctx, p)
    if point.qty <= 0.0:
        raise InfeasibleError(f"hazard rate undefined: demand is 0 at price {p}")
    return -response_slope(ctx, p) / point.qty


def point_elasticity(ctx: ResponseContext, p: float) -> float:
    """eps(p) = -x'(p) * p / x(p); identically equal to p * h(p)."""
    point = price_response(ctx, p)
    if point.qty <= 0.0:
        raise InfeasibleError(f"elasticity undefined: demand is 0 at price {p}")
    return -response_slope(ctx, p) * p / point.qty


def arc_elasticity(ctx: ResponseContext, p_from: float, p_to: float) -> float:
    """Percentage demand change per percentage price change from p_from to p_to."""
    _check_price(p_from)
    _check_price(p_to)
    if p_from == p_to:
        raise InvalidParameterError("arc elasticity needs two distinct prices")
    base = price_response(ctx, p_from)
    if base.qty <= 0.0:
        raise InfeasibleError(f"arc elasticity undefined: demand is 0 at price {p_from}")
    shifted = price_response(ctx, p_to)
    return -((shifted.qty - base.qty) / base.qty) / ((p_to - p_from) / p_from)


def willingness_to_pay(ctx: ResponseContext, p: float, ref_price: float) -> float:
    """w(p; ref) = -x'(p) / x(ref_price).

    The response diverges as the reference price falls to 0, so w -> 0 there;
    quoting conventions use the presets in WTP_REFERENCE_PRICES. w falls in
    the evaluation price p and rises in ref_price.
    """
    _check_price(p)
    reference = price_response(ctx, ref_price)
    if reference.qty <= 0.0:
        raise InfeasibleError(
            f"willingness to pay undefined: demand is 0 at reference price {ref_price}"
        )
    return -response_slope(ctx, p) / reference.qty
