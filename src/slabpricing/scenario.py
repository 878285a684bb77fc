"""Scenario files: a complete experiment description in one JSON document.

A scenario pins two offers, a consumer population, and optional analysis
requests (curve grids, a response grid, revenue/optimizer/equilibrium/
simulation settings). Files use the extension ``.scn`` and plain JSON.
Validation is strict: unknown fields are rejected, every error names the
field path that caused it, and all offer/consumer invariants are enforced
at load time. Parsing, serializing, and re-parsing yields an equivalent
scenario.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .demand import Consumer, DomainSpec, Offer, Slab, make_domain
from .equilibrium import FitMethod
from .errors import PricingError, SchemaError

SCENARIO_VERSION = 1

# the largest curve or response grid, trial count and optimizer search (slab
# rungs over all candidate ladders) a scenario may request; larger values are
# schema errors, not out-of-memory or hour-long runs
MAX_GRID_POINTS = 100_000
MAX_TRIALS = 10**9
MAX_LADDER_RUNGS = 1_000_000

BUNDLED_SCENARIOS = (
    "paper_convex",
    "paper_mixed",
    "paper_nonconvex",
    "paper_beans",
    "slab_study",
)


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise SchemaError(f"unknown bundled scenario {name!r}; have {BUNDLED_SCENARIOS}")
    return Path(str(resources.files("slabpricing") / "scenarios" / f"{name}.scn"))


# ---------------------------------------------------------------------------
# strict node readers


def _expect_mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError(f"expected an object, got {type(node).__name__}", path)
    return node


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise SchemaError(f"expected an array, got {type(node).__name__}", path)
    return node


def _expect_number(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise SchemaError(f"expected a number, got {type(node).__name__}", path)
    # JSON integers are unbounded and json.loads accepts Infinity and NaN
    try:
        value = float(node)
    except OverflowError:
        raise SchemaError("number out of range", path) from None
    if not math.isfinite(value):
        raise SchemaError(f"expected a finite number, got {value}", path)
    return value


def _expect_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError(f"expected an integer, got {type(node).__name__}", path)
    return node


def _expect_str(node: Any, path: str) -> str:
    if not isinstance(node, str):
        raise SchemaError(f"expected a string, got {type(node).__name__}", path)
    return node


class _Fields:
    """Tracks which keys of one object were consumed; rejects leftovers."""

    def __init__(self, node: Any, path: str) -> None:
        self.mapping = _expect_mapping(node, path)
        self.path = path
        self.seen: set[str] = set()

    def _join(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def require(self, key: str) -> tuple[Any, str]:
        if key not in self.mapping:
            raise SchemaError("required field missing", self._join(key))
        self.seen.add(key)
        return self.mapping[key], self._join(key)

    def optional(self, key: str) -> tuple[Any, str] | None:
        if key not in self.mapping:
            return None
        self.seen.add(key)
        return self.mapping[key], self._join(key)

    def finish(self) -> None:
        unknown = sorted(set(self.mapping) - self.seen)
        if unknown:
            raise SchemaError("unknown field", self._join(unknown[0]))


def _number_list(node: Any, path: str) -> tuple[float, ...]:
    return tuple(
        _expect_number(item, f"{path}[{i}]") for i, item in enumerate(_expect_list(node, path))
    )


def _pair_list(node: Any, path: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for i, item in enumerate(_expect_list(node, path)):
        row = _expect_list(item, f"{path}[{i}]")
        if len(row) != 2:
            raise SchemaError(f"expected a [price, qty] pair, got {len(row)} entries", f"{path}[{i}]")
        pairs.append(
            (_expect_number(row[0], f"{path}[{i}][0]"), _expect_number(row[1], f"{path}[{i}][1]"))
        )
    return tuple(pairs)


# ---------------------------------------------------------------------------
# analysis requests


@dataclass(frozen=True)
class CurveRequest:
    """Demand-curve family grid: one curve per consumer motive, both
    commodities, with a minimum-free baseline variant at baseline_min_qty."""

    price_start: float
    price_stop: float
    price_step: float
    baseline_min_qty: float = 1.0

    def n_points(self) -> float:
        """Number of prices in grid(); inf when the step is too small for
        the span over the step to be a finite number."""
        ratio = (self.price_stop - self.price_start) / self.price_step + 1e-9
        return int(ratio) + 1 if math.isfinite(ratio) else math.inf

    def grid(self) -> list[float]:
        return [self.price_start + i * self.price_step for i in range(int(self.n_points()))]


@dataclass(frozen=True)
class ResponseRequest:
    """Price grid on which the response properties table is evaluated."""

    consumer: int
    commodity: int
    price_start: float
    price_stop: float
    points: int
    spacing: str = "log"


@dataclass(frozen=True)
class RevenueRequest:
    consumer: int
    commodity: int


@dataclass(frozen=True)
class OptimizerRequest:
    base_prices: tuple[float, ...]
    max_slabs: int
    discount: float
    acceptance: float
    attention_span: int
    consumer: int
    commodity: int


@dataclass(frozen=True)
class EquilibriumRequest:
    supply1: tuple[tuple[float, float], ...]
    supply2: tuple[tuple[float, float], ...]
    method: FitMethod
    bracket: tuple[float, float]
    consumer: int
    baseline_min_qty: float = 1.0


@dataclass(frozen=True)
class SimulationRequest:
    trials: int
    seed: int


@dataclass(frozen=True)
class Scenario:
    version: int
    name: str
    currency: str
    offer1: Offer
    offer2: Offer
    consumers: tuple[Consumer, ...]
    curves: CurveRequest | None = None
    response: ResponseRequest | None = None
    revenue: RevenueRequest | None = None
    optimizer: OptimizerRequest | None = None
    equilibrium: EquilibriumRequest | None = None
    simulation: SimulationRequest | None = None

    @property
    def domain(self) -> DomainSpec:
        return make_domain(self.offer1, self.offer2)


# ---------------------------------------------------------------------------
# parsing


def _parse_slab(node: Any, path: str) -> Slab:
    fields = _Fields(node, path)
    price, p_path = fields.require("unit_price")
    qty, q_path = fields.require("min_qty")
    fields.finish()
    price_v = _expect_number(price, p_path)
    qty_v = _expect_number(qty, q_path)
    try:
        return Slab(unit_price=price_v, min_qty=qty_v)
    except PricingError as exc:
        raise SchemaError(str(exc), path) from exc


def _parse_offer(node: Any, path: str) -> Offer:
    fields = _Fields(node, path)
    ident, id_path = fields.require("id")
    unit, unit_path = fields.require("unit")
    slabs_node, slabs_path = fields.require("slabs")
    fields.finish()
    slabs = tuple(
        _parse_slab(item, f"{slabs_path}[{i}]")
        for i, item in enumerate(_expect_list(slabs_node, slabs_path))
    )
    try:
        return Offer(
            commodity_id=_expect_str(ident, id_path),
            slabs=slabs,
            unit_label=_expect_str(unit, unit_path),
        )
    except PricingError as exc:
        raise SchemaError(str(exc), path) from exc


def _parse_consumer(node: Any, path: str, offer1: Offer, offer2: Offer) -> Consumer:
    fields = _Fields(node, path)
    budget, budget_path = fields.require("budget")
    motives1, m1_path = fields.require("motives1")
    motives2, m2_path = fields.require("motives2")
    min1, min1_path = fields.require("min_qty1")
    min2, min2_path = fields.require("min_qty2")
    max1, _ = fields.require("max_qty1")
    max2, _ = fields.require("max_qty2")
    span, span_path = fields.require("attention_span")
    acceptance, acc_path = fields.require("acceptance")
    fields.finish()

    budget_v = _expect_number(budget, budget_path)
    if not budget_v > 0:
        raise SchemaError("budget must be positive", budget_path)
    m1 = _number_list(motives1, m1_path)
    m2 = _number_list(motives2, m2_path)
    acc = _number_list(acceptance, acc_path)
    if len(m1) not in (1, offer1.n_slabs):
        raise SchemaError(
            f"needs 1 or {offer1.n_slabs} entries (one per slab of the first offer), got {len(m1)}",
            m1_path,
        )
    if len(m2) not in (1, offer2.n_slabs):
        raise SchemaError(
            f"needs 1 or {offer2.n_slabs} entries (one per slab of the second offer), got {len(m2)}",
            m2_path,
        )
    if len(acc) not in {1, offer1.n_slabs, offer2.n_slabs}:
        raise SchemaError(
            f"needs 1 entry or one per slab of either offer, got {len(acc)}", acc_path
        )
    min1_v = _expect_number(min1, min1_path)
    if not min1_v > 0:
        raise SchemaError("min_qty1 must be positive", min1_path)
    min2_v = _expect_number(min2, min2_path)
    if not min2_v > 0:
        raise SchemaError("min_qty2 must be positive", min2_path)
    try:
        return Consumer(
            budget=budget_v,
            motives1=m1,
            motives2=m2,
            min_qty1=min1_v,
            min_qty2=min2_v,
            max_qty1=_expect_number(max1, f"{path}.max_qty1"),
            max_qty2=_expect_number(max2, f"{path}.max_qty2"),
            attention_span=_expect_int(span, span_path),
            acceptance_probs=acc,
        )
    except PricingError as exc:
        raise SchemaError(str(exc), path) from exc


def _parse_curves(node: Any, path: str, n_consumers: int) -> CurveRequest:
    fields = _Fields(node, path)
    start, start_path = fields.require("price_start")
    stop, stop_path = fields.require("price_stop")
    step, step_path = fields.require("price_step")
    baseline = fields.optional("baseline_min_qty")
    fields.finish()
    start_v = _expect_number(start, start_path)
    stop_v = _expect_number(stop, stop_path)
    step_v = _expect_number(step, step_path)
    if not start_v > 0:
        raise SchemaError("price_start must be positive", start_path)
    if not stop_v >= start_v:
        raise SchemaError("price_stop must be at least price_start", stop_path)
    if not step_v > 0:
        raise SchemaError("price_step must be positive", step_path)
    request = CurveRequest(start_v, stop_v, step_v)
    if not request.n_points() <= MAX_GRID_POINTS:
        raise SchemaError(
            f"price_step is too small: the grid would exceed {MAX_GRID_POINTS} points", step_path
        )
    baseline_v = _expect_number(*baseline) if baseline else 1.0
    if not baseline_v > 0:
        raise SchemaError("baseline_min_qty must be positive", baseline[1])  # type: ignore[index]
    return dataclasses.replace(request, baseline_min_qty=baseline_v)


def _parse_response(node: Any, path: str, n_consumers: int) -> ResponseRequest:
    fields = _Fields(node, path)
    consumer, consumer_path = fields.require("consumer")
    commodity, commodity_path = fields.require("commodity")
    start, start_path = fields.require("price_start")
    stop, stop_path = fields.require("price_stop")
    points, points_path = fields.require("points")
    spacing = fields.optional("spacing")
    fields.finish()
    consumer_v = _consumer_index(consumer, consumer_path, n_consumers)
    commodity_v = _commodity_index(commodity, commodity_path)
    start_v = _expect_number(start, start_path)
    stop_v = _expect_number(stop, stop_path)
    if not 0 < start_v < stop_v:
        raise SchemaError("need 0 < price_start < price_stop", start_path)
    points_v = _expect_int(points, points_path)
    if points_v < 2:
        raise SchemaError("points must be at least 2", points_path)
    if points_v > MAX_GRID_POINTS:
        raise SchemaError(f"points must be at most {MAX_GRID_POINTS}", points_path)
    spacing_v = _expect_str(*spacing) if spacing else "log"
    if spacing_v not in ("log", "linear"):
        raise SchemaError("spacing must be 'log' or 'linear'", spacing[1])  # type: ignore[index]
    return ResponseRequest(consumer_v, commodity_v, start_v, stop_v, points_v, spacing_v)


def _consumer_index(node: Any, path: str, n_consumers: int) -> int:
    value = _expect_int(node, path)
    if not 0 <= value < n_consumers:
        raise SchemaError(f"consumer index out of range 0..{n_consumers - 1}", path)
    return value


def _commodity_index(node: Any, path: str) -> int:
    value = _expect_int(node, path)
    if value not in (1, 2):
        raise SchemaError("commodity must be 1 or 2", path)
    return value


def _parse_revenue(node: Any, path: str, n_consumers: int) -> RevenueRequest:
    fields = _Fields(node, path)
    consumer, consumer_path = fields.require("consumer")
    commodity, commodity_path = fields.require("commodity")
    fields.finish()
    return RevenueRequest(
        consumer=_consumer_index(consumer, consumer_path, n_consumers),
        commodity=_commodity_index(commodity, commodity_path),
    )


def _parse_optimizer(node: Any, path: str, n_consumers: int) -> OptimizerRequest:
    fields = _Fields(node, path)
    prices, prices_path = fields.require("base_prices")
    max_slabs, max_path = fields.require("max_slabs")
    discount, discount_path = fields.require("discount")
    acceptance, acc_path = fields.require("acceptance")
    span, span_path = fields.require("attention_span")
    consumer, consumer_path = fields.require("consumer")
    commodity, commodity_path = fields.require("commodity")
    fields.finish()
    prices_v = _number_list(prices, prices_path)
    if not prices_v:
        raise SchemaError("base_prices must be non-empty", prices_path)
    if any(p <= 0 for p in prices_v):
        raise SchemaError("base_prices must be positive", prices_path)
    max_v = _expect_int(max_slabs, max_path)
    if max_v < 1:
        raise SchemaError("max_slabs must be at least 1", max_path)
    if len(prices_v) * max_v * (max_v + 1) // 2 > MAX_LADDER_RUNGS:
        raise SchemaError(
            f"max_slabs is too large: {len(prices_v)} base prices would search "
            f"more than {MAX_LADDER_RUNGS} ladder rungs",
            max_path,
        )
    discount_v = _expect_number(discount, discount_path)
    if not 0.0 < discount_v < 1.0:
        raise SchemaError("discount must be strictly between 0 and 1", discount_path)
    acceptance_v = _expect_number(acceptance, acc_path)
    if not 0.0 <= acceptance_v <= 1.0:
        raise SchemaError("acceptance probability must lie in [0, 1]", acc_path)
    span_v = _expect_int(span, span_path)
    if span_v < 1:
        raise SchemaError("attention_span must be at least 1", span_path)
    return OptimizerRequest(
        base_prices=prices_v,
        max_slabs=max_v,
        discount=discount_v,
        acceptance=acceptance_v,
        attention_span=span_v,
        consumer=_consumer_index(consumer, consumer_path, n_consumers),
        commodity=_commodity_index(commodity, commodity_path),
    )


def _parse_equilibrium(node: Any, path: str, n_consumers: int) -> EquilibriumRequest:
    fields = _Fields(node, path)
    supply1, supply1_path = fields.require("supply1")
    supply2, supply2_path = fields.require("supply2")
    method = fields.optional("method")
    bracket, bracket_path = fields.require("bracket")
    consumer, consumer_path = fields.require("consumer")
    baseline = fields.optional("baseline_min_qty")
    fields.finish()
    supply1_v = _pair_list(supply1, supply1_path)
    supply2_v = _pair_list(supply2, supply2_path)
    if len(supply1_v) < 2:
        raise SchemaError("need at least two (price, qty) pairs", supply1_path)
    if len(supply2_v) < 2:
        raise SchemaError("need at least two (price, qty) pairs", supply2_path)
    if method is None:
        method_v = FitMethod.TWO_POINT
    else:
        name = _expect_str(*method)
        try:
            method_v = FitMethod(name)
        except ValueError:
            choices = ", ".join(m.value for m in FitMethod)
            raise SchemaError(f"method must be one of: {choices}", method[1]) from None
    bracket_v = _number_list(bracket, bracket_path)
    if len(bracket_v) != 2 or not 0 < bracket_v[0] < bracket_v[1]:
        raise SchemaError("bracket must be [q_lo, q_hi] with 0 < q_lo < q_hi", bracket_path)
    baseline_v = _expect_number(*baseline) if baseline else 1.0
    if not baseline_v > 0:
        raise SchemaError("baseline_min_qty must be positive", baseline[1])  # type: ignore[index]
    return EquilibriumRequest(
        supply1=supply1_v,
        supply2=supply2_v,
        method=method_v,
        bracket=(bracket_v[0], bracket_v[1]),
        consumer=_consumer_index(consumer, consumer_path, n_consumers),
        baseline_min_qty=baseline_v,
    )


def _parse_simulation(node: Any, path: str, n_consumers: int) -> SimulationRequest:
    fields = _Fields(node, path)
    trials, trials_path = fields.require("trials")
    seed, seed_path = fields.require("seed")
    fields.finish()
    trials_v = _expect_int(trials, trials_path)
    if trials_v < 1:
        raise SchemaError("trials must be at least 1", trials_path)
    if trials_v > MAX_TRIALS:
        raise SchemaError(f"trials must be at most {MAX_TRIALS}", trials_path)
    seed_v = _expect_int(seed, seed_path)
    if not 0 <= seed_v < 2**64:
        raise SchemaError("seed must fit in 64 bits", seed_path)
    return SimulationRequest(trials=trials_v, seed=seed_v)


# analysis key -> parser(node, path, number of consumers), in reading order;
# each key is also the Scenario attribute that holds the parsed request
_REQUEST_PARSERS = {
    "curves": _parse_curves,
    "response": _parse_response,
    "revenue": _parse_revenue,
    "optimizer": _parse_optimizer,
    "equilibrium": _parse_equilibrium,
    "simulation": _parse_simulation,
}


def scenario_from_dict(root: Any) -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    fields = _Fields(root, "")
    version, version_path = fields.require("version")
    name = fields.optional("name")
    currency = fields.optional("currency")
    offers, offers_path = fields.require("offers")
    consumers, consumers_path = fields.require("consumers")
    analysis = fields.optional("analysis")
    fields.finish()

    version_v = _expect_int(version, version_path)
    if version_v != SCENARIO_VERSION:
        raise SchemaError(f"unsupported version {version_v}; this build reads {SCENARIO_VERSION}", version_path)
    name_v = _expect_str(*name) if name else "unnamed"
    currency_v = _expect_str(*currency) if currency else "INR"

    offers_list = _expect_list(offers, offers_path)
    if len(offers_list) != 2:
        raise SchemaError(f"exactly two offers required, got {len(offers_list)}", offers_path)
    offer1 = _parse_offer(offers_list[0], f"{offers_path}[0]")
    offer2 = _parse_offer(offers_list[1], f"{offers_path}[1]")

    consumer_nodes = _expect_list(consumers, consumers_path)
    if not consumer_nodes:
        raise SchemaError("at least one consumer required", consumers_path)
    parsed_consumers = tuple(
        _parse_consumer(node, f"{consumers_path}[{i}]", offer1, offer2)
        for i, node in enumerate(consumer_nodes)
    )

    requests = {}
    if analysis is not None:
        analysis_fields = _Fields(*analysis)
        for key, parse in _REQUEST_PARSERS.items():
            node = analysis_fields.optional(key)
            if node:
                requests[key] = parse(*node, len(parsed_consumers))
        analysis_fields.finish()

    return Scenario(
        version=version_v,
        name=name_v,
        currency=currency_v,
        offer1=offer1,
        offer2=offer2,
        consumers=parsed_consumers,
        **requests,
    )


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", str(path)) from exc
    return scenario_from_dict(root)


# ---------------------------------------------------------------------------
# serialization


def _offer_to_dict(offer: Offer) -> dict:
    return {
        "id": offer.commodity_id,
        "unit": offer.unit_label,
        "slabs": [{"unit_price": s.unit_price, "min_qty": s.min_qty} for s in offer.slabs],
    }


def _consumer_to_dict(consumer: Consumer) -> dict:
    return {
        "budget": consumer.budget,
        "motives1": list(consumer.motives1),
        "motives2": list(consumer.motives2),
        "min_qty1": consumer.min_qty1,
        "min_qty2": consumer.min_qty2,
        "max_qty1": consumer.max_qty1,
        "max_qty2": consumer.max_qty2,
        "attention_span": consumer.attention_span,
        "acceptance": list(consumer.acceptance_probs),
    }


def _plain(value: Any) -> Any:
    """A request field as JSON: tuples become lists, enums their value."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, FitMethod):
        return value.value
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario as the plain-JSON structure parse_scenario reads."""
    analysis = {}
    for key in _REQUEST_PARSERS:
        request = getattr(scenario, key)
        if request is not None:
            fields = dataclasses.fields(request)
            analysis[key] = {field.name: _plain(getattr(request, field.name)) for field in fields}
    document: dict[str, Any] = {
        "version": scenario.version,
        "name": scenario.name,
        "currency": scenario.currency,
        "offers": [_offer_to_dict(scenario.offer1), _offer_to_dict(scenario.offer2)],
        "consumers": [_consumer_to_dict(c) for c in scenario.consumers],
    }
    if analysis:
        document["analysis"] = analysis
    return document


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
