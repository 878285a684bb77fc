"""Supply-line fitting and demand-supply equilibrium.

The platform's supply side is a straight line price = slope * qty +
intercept, fitted from observed (price, qty) offer pairs. Equilibrium is the
quantity q* at which demand evaluated at the supply price reproduces q*,
found by bisection so that any demand shape (convex, mixed, staged) plugs
into the same solver.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .errors import BracketError, InvalidParameterError, NumericalError

_MAX_BISECTION_STEPS = 200


class FitMethod(enum.Enum):
    TWO_POINT = "two_point"
    LEAST_SQUARES = "least_squares"


@dataclass(frozen=True)
class SupplyLine:
    """price = slope * qty + intercept, with the pairs it was fitted from."""

    slope: float
    intercept: float
    fit_method: FitMethod
    source_pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.slope > 0:
            raise InvalidParameterError(f"supply slope must be positive: {self.slope}")
        if len(self.source_pairs) < 2:
            raise InvalidParameterError("supply line needs at least two source pairs")

    def price_at(self, qty: float) -> float:
        return self.slope * qty + self.intercept


def fit_supply_line(
    pairs: Sequence[tuple[float, float]],
    method: FitMethod = FitMethod.TWO_POINT,
) -> SupplyLine:
    """Fit the supply line from (price, qty) pairs.

    TWO_POINT passes the line through the first two pairs exactly;
    LEAST_SQUARES minimizes squared price residuals over all pairs, and
    raises NumericalError when a squared deviation overflows.
    """
    pairs = tuple((float(p), float(q)) for p, q in pairs)
    if len(pairs) < 2:
        raise InvalidParameterError("need at least two (price, qty) pairs")
    if method is FitMethod.TWO_POINT:
        (p_a, q_a), (p_b, q_b) = pairs[0], pairs[1]
        if q_a == q_b:
            raise InvalidParameterError(
                f"two-point fit needs distinct quantities, got {q_a} twice"
            )
        slope = (p_b - p_a) / (q_b - q_a)
        intercept = p_a - slope * q_a
    else:
        n = len(pairs)
        q_bar = sum(q for _, q in pairs) / n
        p_bar = sum(p for p, _ in pairs) / n
        try:
            sqq = sum((q - q_bar) ** 2 for _, q in pairs)
        except OverflowError:
            raise NumericalError(
                "least-squares fit overflows: quantities too far apart to square"
            ) from None
        if sqq == 0.0:
            raise InvalidParameterError("least-squares fit needs distinct quantities")
        slope = sum((q - q_bar) * (p - p_bar) for p, q in pairs) / sqq
        intercept = p_bar - slope * q_bar
    return SupplyLine(slope=slope, intercept=intercept, fit_method=method, source_pairs=pairs)


@dataclass(frozen=True)
class EquilibriumPoint:
    price: float
    qty: float
    iterations: int
    residual: float


def solve_equilibrium(
    demand_fn: Callable[[float], float],
    supply: SupplyLine,
    bracket: tuple[float, float],
) -> EquilibriumPoint:
    """Bisection on g(q) = demand_fn(supply price at q) - q.

    The bracket (q_lo, q_hi) must straddle a sign change of g. The residual
    guarantee is |g| < 1e-9 * q_hi, but halving continues until the bracket
    itself collapses to relative width 1e-12, so the returned quantity is
    far more precise than the residual bound alone would imply (closed-form
    cross-checks hold to better than 1e-9 relative). Infeasible-demand
    errors raised by demand_fn propagate unchanged; a non-finite demand
    raises NumericalError at the first quantity that produces it.
    """
    q_lo, q_hi = bracket
    if not q_lo < q_hi:
        raise InvalidParameterError(f"bracket must satisfy q_lo < q_hi: {bracket}")
    residual_tol = 1e-9 * q_hi

    def gap(q: float) -> float:
        price = supply.price_at(q)
        g = demand_fn(price) - q
        if not math.isfinite(g):
            raise NumericalError(
                f"demand at price {price:.6g} (quantity {q:.6g}) is not finite: gap {g}"
            )
        return g

    g_lo, g_hi = gap(q_lo), gap(q_hi)
    if g_lo == 0.0:
        return EquilibriumPoint(supply.price_at(q_lo), q_lo, 0, g_lo)
    if g_hi == 0.0:
        return EquilibriumPoint(supply.price_at(q_hi), q_hi, 0, g_hi)
    if g_lo * g_hi > 0:
        raise BracketError(
            f"no sign change on bracket {bracket}: g({q_lo})={g_lo:.6g}, "
            f"g({q_hi})={g_hi:.6g}"
        )
    for step in range(1, _MAX_BISECTION_STEPS + 1):
        q_mid = 0.5 * (q_lo + q_hi)
        g_mid = gap(q_mid)
        converged = abs(g_mid) < residual_tol and (
            q_hi - q_lo <= 1e-12 * max(1.0, abs(q_mid))
        )
        stalled = q_mid == q_lo or q_mid == q_hi
        if g_mid == 0.0 or converged or (stalled and abs(g_mid) < residual_tol):
            return EquilibriumPoint(supply.price_at(q_mid), q_mid, step, g_mid)
        if stalled:
            break
        if g_lo * g_mid < 0:
            q_hi = q_mid
        else:
            q_lo, g_lo = q_mid, g_mid
    raise NumericalError(
        f"bisection did not reach |g| < {residual_tol:.3g} within a collapsed "
        f"bracket in {_MAX_BISECTION_STEPS} steps"
    )
