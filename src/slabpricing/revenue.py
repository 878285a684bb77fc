"""Expected revenue over a slab ladder and slab-structure search.

A consumer walks the slabs in order. Reaching slab k requires rejecting
slabs 1..k-1; slab k is then accepted with its acceptance probability. The
walk stops at the first acceptance or when the attention span runs out.
Expected revenue weights each slab's revenue (demand times price) by the
probability the walk buys there:

    total = sum over k = 1..min(span, slabs) of
            reach(k) * accept(k) * demand(k) * price(k)

where reach(k) is the product of the rejection probabilities before k.

The optimizer is one exhaustive pass over finite candidate plans that keeps
the best plan of each slab count; the overall best is the best of those.
Results are independent of evaluation order via a deterministic tie-break
(fewer slabs, then lower first-slab price).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .demand import Consumer, Offer
from .errors import InvalidParameterError
from .price_response import ResponseContext, price_response


@dataclass(frozen=True)
class PlanSlab:
    """One rung of a plan: its unit price and the demand context behind it."""

    price: float
    context: ResponseContext

    def __post_init__(self) -> None:
        if not self.price > 0:
            raise InvalidParameterError(f"slab price must be positive: {self.price}")


@dataclass(frozen=True)
class SlabPlan:
    """A slab ladder offered to a consumer population.

    acceptance_probs pairs with slabs index by index; attention_span bounds
    how many rungs a walk may visit.
    """

    slabs: tuple[PlanSlab, ...]
    acceptance_probs: tuple[float, ...]
    attention_span: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "slabs", tuple(self.slabs))
        object.__setattr__(self, "acceptance_probs", tuple(self.acceptance_probs))
        if not self.slabs:
            raise InvalidParameterError("plan needs at least one slab")
        if len(self.acceptance_probs) != len(self.slabs):
            raise InvalidParameterError(
                "need exactly one acceptance probability per slab: "
                f"{len(self.acceptance_probs)} for {len(self.slabs)} slabs"
            )
        for lam in self.acceptance_probs:
            if not 0.0 <= lam <= 1.0:
                raise InvalidParameterError(
                    f"acceptance probability {lam} outside [0, 1]"
                )
        if self.attention_span < 1:
            raise InvalidParameterError(
                f"attention_span must be at least 1: {self.attention_span}"
            )

    @property
    def n_slabs(self) -> int:
        return len(self.slabs)

    @property
    def reachable_slabs(self) -> int:
        return min(self.attention_span, len(self.slabs))


@dataclass(frozen=True)
class SlabContribution:
    """One slab's line in a revenue report. index is 1-based.

    reach_prob is attention-aware: 0 for rungs past the attention span.
    """

    index: int
    reach_prob: float
    acceptance_prob: float
    demand: float
    price: float
    contribution: float


@dataclass(frozen=True)
class RevenueReport:
    per_slab: tuple[SlabContribution, ...]
    total: float
    plan: SlabPlan


def expected_revenue(plan: SlabPlan) -> RevenueReport:
    """Expected revenue of a plan, with a per-slab breakdown.

    A slab's demand is the price response of its own context at its price.
    Every slab gets a report line; rungs beyond the attention span carry
    reach probability 0 and contribute exactly 0, even where their demand is
    not finite, since no walk reaches them. A line's reach_prob times its
    acceptance_prob is the probability that the walk buys at that slab.
    """
    lines = []
    total = 0.0
    reach = 1.0
    for k, slab in enumerate(plan.slabs, start=1):
        reachable = k <= plan.reachable_slabs
        point = price_response(slab.context, slab.price)
        lam = plan.acceptance_probs[k - 1]
        reach_k = reach if reachable else 0.0
        contribution = reach_k * lam * point.qty * slab.price if reachable else 0.0
        lines.append(
            SlabContribution(
                index=k,
                reach_prob=reach_k,
                acceptance_prob=lam,
                demand=point.qty,
                price=slab.price,
                contribution=contribution,
            )
        )
        total += contribution
        if reachable:
            reach *= 1.0 - lam
    return RevenueReport(per_slab=tuple(lines), total=total, plan=plan)


Evaluated = tuple[SlabPlan, RevenueReport]


def _preference(entry: Evaluated) -> tuple[float, int, float]:
    """Sort key of an evaluated plan, best first: the higher total, then
    fewer slabs, then the lower first-slab price. Equal keys keep the
    earlier entry, so a winner does not depend on candidate order."""
    plan, report = entry
    return (-report.total, plan.n_slabs, plan.slabs[0].price)


def best_of(entries: Iterable[Evaluated]) -> Evaluated:
    """The preferred entry among already evaluated plans."""
    entries = list(entries)
    if not entries:
        raise InvalidParameterError("no candidate plans supplied")
    return min(entries, key=_preference)


def best_by_slab_count(candidate_plans: Iterable[SlabPlan]) -> dict[int, Evaluated]:
    """Revenue maximizer among candidates of each slab count."""
    winners: dict[int, Evaluated] = {}
    for plan in candidate_plans:
        entry = (plan, expected_revenue(plan))
        held = winners.get(plan.n_slabs)
        if held is None or _preference(entry) < _preference(held):
            winners[plan.n_slabs] = entry
    if not winners:
        raise InvalidParameterError("no candidate plans supplied")
    return winners


def discount_ladder_plans(
    context: ResponseContext,
    base_prices: Sequence[float],
    slab_counts: Sequence[int],
    discount: float = 0.05,
    acceptance: float = 0.5,
    attention_span: int = 2,
) -> Iterator[SlabPlan]:
    """Candidate family: unit price falls by a fixed fraction per rung.

    For each base price p0 and slab count S the ladder prices are
    p0 * (1 - discount)**k for k = 0..S-1 (strictly decreasing per unit as
    rungs ascend), with one shared context and a constant acceptance
    probability per rung.
    """
    if not 0.0 < discount < 1.0:
        raise InvalidParameterError(f"discount must be in (0, 1): {discount}")
    for count in slab_counts:
        if count < 1:
            raise InvalidParameterError(f"slab count must be at least 1: {count}")
        for p0 in base_prices:
            prices = [p0 * (1.0 - discount) ** k for k in range(count)]
            yield SlabPlan(
                slabs=tuple(PlanSlab(price=p, context=context) for p in prices),
                acceptance_probs=(acceptance,) * count,
                attention_span=attention_span,
            )


def _fit_length(values: Sequence[float], n: int) -> tuple[float, ...]:
    vals = tuple(values)
    if len(vals) >= n:
        return vals[:n]
    return vals + (vals[-1],) * (n - len(vals))


def plan_for_consumer(
    consumer: Consumer,
    own_offer: Offer,
    other_offer: Offer,
    commodity: int,
) -> SlabPlan:
    """Plan a consumer faces on one commodity's slab ladder.

    Slab k pairs with the other offer's rung of the same rank (clamped to
    its last rung), carries the consumer's motive for slab k, and keeps the
    consumer's budget and minimums. Acceptance probabilities stretch to the
    slab count by repeating the last entry. A market is planned as its
    pooled_consumer.
    """
    view = consumer.oriented(commodity)
    slabs = tuple(
        PlanSlab(
            price=slab.unit_price,
            context=ResponseContext(
                motive=view.motive1(k),
                budget=view.budget,
                cross_price=other_offer.slabs[min(k, other_offer.n_slabs - 1)].unit_price,
                own_min_qty=view.min_qty1,
                cross_min_qty=view.min_qty2,
            ),
        )
        for k, slab in enumerate(own_offer.slabs)
    )
    return SlabPlan(
        slabs=slabs,
        acceptance_probs=_fit_length(consumer.acceptance_probs, len(slabs)),
        attention_span=consumer.attention_span,
    )
