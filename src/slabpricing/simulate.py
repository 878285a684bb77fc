"""Monte Carlo oracle for expected slab revenue.

Each trial walks the slabs of a plan exactly as the revenue formula assumes:
visit rungs in order up to the attention span, accept each with its
acceptance probability, realize demand times price at the first acceptance,
0 if the walk ends empty-handed.

Randomness comes from numpy's PCG64 generator, whose streams are documented,
seedable, and identical across platforms. Trials run in fixed batches of
65536; batch i draws from SeedSequence(seed, spawn_key=(i,)), which is
child i of SeedSequence(seed).spawn(...) derived on demand, so memory does
not grow with the trial count and a future parallel executor can hand
batches to workers without changing a single draw. Sample statistics are
computed from integer outcome counts, which makes them independent of
reduction order and bit-identical run to run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .revenue import DemandFn, SlabPlan, as_response_point, slab_demand_fn

_BATCH_TRIALS = 65536


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation request.

    Identical configs produce bit-identical estimates. demand_fn must be
    deterministic per slab; it is evaluated once per slab, not per trial.
    """

    trials: int
    seed: int
    plan: SlabPlan
    demand_fn: DemandFn | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be at least 1: {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must fit in 64 bits: {self.seed}")


@dataclass(frozen=True)
class MCEstimate:
    """Simulation outcome. slab_counts[k] is purchases at slab k+1."""

    mean: float
    standard_error: float
    slab_counts: tuple[int, ...]
    no_purchase_count: int
    trials: int


def _slab_revenues(plan: SlabPlan, demand_fn: DemandFn | None) -> list[float]:
    evaluate = slab_demand_fn(plan) if demand_fn is None else demand_fn
    return [
        as_response_point(evaluate(k, slab.price)).qty * slab.price
        for k, slab in enumerate(plan.slabs)
    ]


def simulate_consumer(
    plan: SlabPlan,
    random_draws: np.random.Generator | Iterable[float],
    demand_fn: DemandFn | None = None,
) -> tuple[int | None, float]:
    """One walk down the slabs. Returns (1-based slab bought, revenue).

    Draws one uniform per visited rung; a rung is accepted when its draw
    falls below the acceptance probability. (None, 0.0) when no rung within
    the attention span is accepted.
    """
    if isinstance(random_draws, np.random.Generator):
        source: Iterator[float] = iter(lambda: float(random_draws.random()), None)
    else:
        source = iter(random_draws)
    revenues = _slab_revenues(plan, demand_fn)
    for k in range(plan.reachable_slabs):
        if next(source) < plan.acceptance_probs[k]:
            return k + 1, revenues[k]
    return None, 0.0


def estimate_expected_revenue_mc(config: SimConfig) -> MCEstimate:
    """Sample mean and standard error of the walk revenue over many trials.

    The trial loop is vectorized: a batch draws a (trials x reachable slabs)
    uniform matrix, accepts where a draw undercuts its rung's probability,
    and buys at the first accepting rung, which consumes draws exactly like
    simulate_consumer does. Statistics come from the per-rung purchase
    counts, so a degenerate plan (single rung, acceptance 1) reports the
    closed-form revenue with standard error exactly 0. A non-finite slab
    revenue raises NumericalError before any trial runs.
    """
    plan = config.plan
    k_eff = plan.reachable_slabs
    lambdas = np.asarray(plan.acceptance_probs[:k_eff], dtype=np.float64)
    slab_revenues = _slab_revenues(plan, config.demand_fn)[:k_eff]
    for k, revenue in enumerate(slab_revenues, start=1):
        if not math.isfinite(revenue):
            raise NumericalError(f"slab {k} revenue is non-finite: {revenue}")
    revenues = np.asarray(slab_revenues, dtype=np.float64)

    counts = np.zeros(k_eff, dtype=np.int64)
    n_batches = -(-config.trials // _BATCH_TRIALS)
    remaining = config.trials
    for i in range(n_batches):
        batch = min(_BATCH_TRIALS, remaining)
        remaining -= batch
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        accept = rng.random((batch, k_eff)) < lambdas[np.newaxis, :]
        bought = accept.any(axis=1)
        first = np.argmax(accept, axis=1)
        counts += np.bincount(first[bought], minlength=k_eff)

    n = config.trials
    no_purchase = n - int(counts.sum())
    weights = counts / n
    mean = float(weights @ revenues)
    if n > 1:
        try:
            with np.errstate(over="raise"):
                spread = float(counts @ (revenues - mean) ** 2) + no_purchase * mean**2
        except (OverflowError, FloatingPointError):
            raise NumericalError("standard error overflows: slab revenues are too large") from None
        standard_error = math.sqrt(spread / (n - 1) / n)
    else:
        standard_error = 0.0

    full_counts = tuple(int(c) for c in counts) + (0,) * (plan.n_slabs - k_eff)
    return MCEstimate(
        mean=mean,
        standard_error=standard_error,
        slab_counts=full_counts,
        no_purchase_count=no_purchase,
        trials=n,
    )
