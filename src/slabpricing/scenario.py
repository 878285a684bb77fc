"""Scenario files: a complete experiment description in one JSON document.

A scenario pins two offers, a consumer population, and optional analysis
requests (curve grids, a response grid, revenue/optimizer/equilibrium/
simulation settings). Files use the extension ``.scn`` and plain JSON.

Each kind of object is described once, as a table of rows in document
order; one function reads any object from its rows and ``scenario_to_dict``
writes it back from the same rows. Validation is strict and runs in three
phases per object: every required key is looked up in row order, then
unknown keys are refused (the alphabetically first is named), then each
value is read and checked in row order, a nested object in full before the
next row. The checks that compare fields (a curve grid's stop against its
start and the grid cap, a response grid's bounds, the optimizer search cap)
run last. Every error is one SchemaError naming the one JSON path at fault.
Parsing, serializing, and re-parsing yields an equivalent scenario.
"""

from __future__ import annotations

import json
import math
from collections import ChainMap
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Any, NamedTuple

from .demand import Consumer, Offer, Slab
from .equilibrium import FitMethod
from .errors import InvalidParameterError, SchemaError

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
# strict node readers; a field reader's scope (see the field tables) is
# unused at the leaves


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise SchemaError(f"expected an array, got {type(node).__name__}", path)
    return node


def _number(node: Any, path: str, scope: object = None) -> float:
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


def _integer(node: Any, path: str, scope: object = None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise SchemaError(f"expected an integer, got {type(node).__name__}", path)
    return node


def _string(node: Any, path: str, scope: object = None) -> str:
    if not isinstance(node, str):
        raise SchemaError(f"expected a string, got {type(node).__name__}", path)
    return node


def _numbers(node: Any, path: str, scope: object = None) -> tuple[float, ...]:
    return tuple(_number(item, f"{path}[{i}]") for i, item in enumerate(_expect_list(node, path)))


def _pairs(node: Any, path: str, scope: object = None) -> tuple[tuple[float, float], ...]:
    pairs = []
    for i, item in enumerate(_expect_list(node, path)):
        row = _expect_list(item, f"{path}[{i}]")
        if len(row) != 2:
            raise SchemaError(
                f"expected a [price, qty] pair, got {len(row)} entries", f"{path}[{i}]"
            )
        pairs.append((_number(row[0], f"{path}[{i}][0]"), _number(row[1], f"{path}[{i}][1]")))
    return tuple(pairs)


def _method(node: Any, path: str, scope: object = None) -> FitMethod:
    try:
        return FitMethod(_string(node, path))
    except ValueError:
        choices = ", ".join(m.value for m in FitMethod)
        raise SchemaError(f"method must be one of: {choices}", path) from None


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


# ---------------------------------------------------------------------------
# field tables
#
# A row names a JSON key, the reader that turns its node into a value, the
# checks on that value, the default of an optional key (_REQUIRED when there
# is none) and the attribute that holds the value when it is not named like
# the key. Readers take (node, path, scope) and checks (value, scope); scope
# maps every field read so far in this object and the objects around it, so a
# consumer's checks see the offers. A check returns an error message or None.

_Reader = Callable[[Any, str, Mapping[str, Any]], Any]
_Check = Callable[[Any, Mapping[str, Any]], "str | None"]
_CrossCheck = Callable[[Any, str], None]

_REQUIRED = object()


class _Row(NamedTuple):
    key: str
    read: _Reader
    checks: tuple[_Check, ...] = ()
    default: Any = _REQUIRED
    attr: str = ""


class _Object:
    """One object kind: build(**fields) makes it from its rows' values, and
    check(obj, path), when given, runs the checks that compare fields."""

    def __init__(self, build: Callable[..., Any], *rows: _Row, check: _CrossCheck | None = None):
        self.build = build
        self.rows = rows
        self.check = check
        self.keys = frozenset(row.key for row in rows)
        self.required = tuple(row.key for row in rows if row.default is _REQUIRED)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read_object(kind: _Object, node: Any, path: str, scope: Mapping[str, Any]) -> Any:
    """Read one object from its rows in the three phases the module
    docstring lists, then build it and run its cross-field checks."""
    if not isinstance(node, dict):
        raise SchemaError(f"expected an object, got {type(node).__name__}", path)
    for key in kind.required:
        if key not in node:
            raise SchemaError("required field missing", _join(path, key))
    unknown = sorted(node.keys() - kind.keys)
    if unknown:
        raise SchemaError("unknown field", _join(path, unknown[0]))
    values: dict[str, Any] = {}
    scope = ChainMap(values, scope)
    for key, read, checks, default, attr in kind.rows:
        if key not in node:
            values[attr or key] = default
            continue
        field_path = _join(path, key)
        value = read(node[key], field_path, scope)
        for check in checks:
            message = check(value, scope)
            if message is not None:
                raise SchemaError(message, field_path)
        values[attr or key] = value
    try:
        built = kind.build(**values)
    except InvalidParameterError as exc:
        raise SchemaError(str(exc), path) from exc
    if kind.check is not None:
        kind.check(built, path)
    return built


def _objects(kind: _Object, *checks: _Check) -> _Reader:
    """Reader of an array of objects; checks see the array before any of
    its items is read."""

    def read(node: Any, path: str, scope: Mapping[str, Any]) -> tuple:
        items = _expect_list(node, path)
        for check in checks:
            message = check(items, scope)
            if message is not None:
                raise SchemaError(message, path)
        return tuple(
            _read_object(kind, item, f"{path}[{i}]", scope) for i, item in enumerate(items)
        )

    return read


def _check(ok: Callable[[Any], bool], message: str) -> _Check:
    """A check that fails with message when ok(value) is false."""
    return lambda value, scope: None if ok(value) else message


def _positive(name: str) -> _Check:
    return _check(lambda value: value > 0, f"{name} must be positive")


def _at_least(low: int, name: str) -> _Check:
    return _check(lambda value: value >= low, f"{name} must be at least {low}")


def _at_most(high: int, name: str) -> _Check:
    return _check(lambda value: value <= high, f"{name} must be at most {high}")


def _supported(version: int, scope: Mapping[str, Any]) -> str | None:
    if version == SCENARIO_VERSION:
        return None
    return f"unsupported version {version}; this build reads {SCENARIO_VERSION}"


def _two_offers(offers: list, scope: Mapping[str, Any]) -> str | None:
    return None if len(offers) == 2 else f"exactly two offers required, got {len(offers)}"


def _per_slab(offer: int, which: str) -> _Check:
    """A motive list holds one entry or one per slab of its offer."""

    def check(motives: tuple, scope: Mapping[str, Any]) -> str | None:
        n_slabs = scope["offers"][offer].n_slabs
        if len(motives) in (1, n_slabs):
            return None
        return (
            f"needs 1 or {n_slabs} entries (one per slab of the {which} offer), "
            f"got {len(motives)}"
        )

    return check


def _per_slab_of_either(probs: tuple, scope: Mapping[str, Any]) -> str | None:
    if len(probs) in {1, *(offer.n_slabs for offer in scope["offers"])}:
        return None
    return f"needs 1 entry or one per slab of either offer, got {len(probs)}"


def _consumer_index(index: int, scope: Mapping[str, Any]) -> str | None:
    n_consumers = len(scope["consumers"])
    if 0 <= index < n_consumers:
        return None
    return f"consumer index out of range 0..{n_consumers - 1}"


def _check_curves(request: CurveRequest, path: str) -> None:
    if not request.price_stop >= request.price_start:
        raise SchemaError("price_stop must be at least price_start", f"{path}.price_stop")
    if not request.n_points() <= MAX_GRID_POINTS:
        raise SchemaError(
            f"price_step is too small: the grid would exceed {MAX_GRID_POINTS} points",
            f"{path}.price_step",
        )


def _check_response(request: ResponseRequest, path: str) -> None:
    if not 0 < request.price_start < request.price_stop:
        raise SchemaError("need 0 < price_start < price_stop", f"{path}.price_start")


def _check_optimizer(request: OptimizerRequest, path: str) -> None:
    n_prices, n_slabs = len(request.base_prices), request.max_slabs
    if n_prices * n_slabs * (n_slabs + 1) // 2 > MAX_LADDER_RUNGS:
        raise SchemaError(
            f"max_slabs is too large: {n_prices} base prices would search "
            f"more than {MAX_LADDER_RUNGS} ladder rungs",
            f"{path}.max_slabs",
        )


def _scenario(offers: tuple[Offer, Offer], analysis: dict | None, **fields: Any) -> Scenario:
    offer1, offer2 = offers
    return Scenario(offer1=offer1, offer2=offer2, **fields, **(analysis or {}))


_SLAB = _Object(Slab, _Row("unit_price", _number), _Row("min_qty", _number))
_OFFER = _Object(
    Offer,
    _Row("id", _string, attr="commodity_id"),
    _Row("unit", _string, attr="unit_label"),
    _Row("slabs", _objects(_SLAB)),
)
_CONSUMER = _Object(
    Consumer,
    _Row("budget", _number, (_positive("budget"),)),
    _Row("motives1", _numbers, (_per_slab(0, "first"),)),
    _Row("motives2", _numbers, (_per_slab(1, "second"),)),
    _Row("min_qty1", _number, (_positive("min_qty1"),)),
    _Row("min_qty2", _number, (_positive("min_qty2"),)),
    _Row("max_qty1", _number),
    _Row("max_qty2", _number),
    _Row("attention_span", _integer),
    _Row("acceptance", _numbers, (_per_slab_of_either,), attr="acceptance_probs"),
)

_BASELINE = (_positive("baseline_min_qty"),)
_CONSUMER_ROW = _Row("consumer", _integer, (_consumer_index,))
_COMMODITY_ROW = _Row(
    "commodity", _integer, (_check(lambda c: c in (1, 2), "commodity must be 1 or 2"),)
)
_CURVES = _Object(
    CurveRequest,
    _Row("price_start", _number, (_positive("price_start"),)),
    _Row("price_stop", _number),
    _Row("price_step", _number, (_positive("price_step"),)),
    _Row("baseline_min_qty", _number, _BASELINE, default=CurveRequest.baseline_min_qty),
    check=_check_curves,
)
_SPACING = _check(lambda s: s in ("log", "linear"), "spacing must be 'log' or 'linear'")
_RESPONSE = _Object(
    ResponseRequest,
    _CONSUMER_ROW,
    _COMMODITY_ROW,
    _Row("price_start", _number),
    _Row("price_stop", _number),
    _Row("points", _integer, (_at_least(2, "points"), _at_most(MAX_GRID_POINTS, "points"))),
    _Row("spacing", _string, (_SPACING,), default=ResponseRequest.spacing),
    check=_check_response,
)
_REVENUE = _Object(RevenueRequest, _CONSUMER_ROW, _COMMODITY_ROW)
_PRICES = (
    _check(bool, "base_prices must be non-empty"),
    _check(lambda prices: all(p > 0 for p in prices), "base_prices must be positive"),
)
_DISCOUNT = _check(lambda d: 0.0 < d < 1.0, "discount must be strictly between 0 and 1")
_PROBABILITY = _check(lambda a: 0.0 <= a <= 1.0, "acceptance probability must lie in [0, 1]")
_OPTIMIZER = _Object(
    OptimizerRequest,
    _Row("base_prices", _numbers, _PRICES),
    _Row("max_slabs", _integer, (_at_least(1, "max_slabs"),)),
    _Row("discount", _number, (_DISCOUNT,)),
    _Row("acceptance", _number, (_PROBABILITY,)),
    _Row("attention_span", _integer, (_at_least(1, "attention_span"),)),
    _CONSUMER_ROW,
    _COMMODITY_ROW,
    check=_check_optimizer,
)
_PAIRS = (_check(lambda pairs: len(pairs) >= 2, "need at least two (price, qty) pairs"),)
_BRACKET = _check(
    lambda b: len(b) == 2 and 0 < b[0] < b[1], "bracket must be [q_lo, q_hi] with 0 < q_lo < q_hi"
)
_EQUILIBRIUM = _Object(
    EquilibriumRequest,
    _Row("supply1", _pairs, _PAIRS),
    _Row("supply2", _pairs, _PAIRS),
    _Row("method", _method, default=FitMethod.TWO_POINT),
    _Row("bracket", _numbers, (_BRACKET,)),
    _CONSUMER_ROW,
    _Row("baseline_min_qty", _number, _BASELINE, default=EquilibriumRequest.baseline_min_qty),
)
_SIMULATION = _Object(
    SimulationRequest,
    _Row("trials", _integer, (_at_least(1, "trials"), _at_most(MAX_TRIALS, "trials"))),
    _Row("seed", _integer, (_check(lambda s: 0 <= s < 2**64, "seed must fit in 64 bits"),)),
)
# each analysis key is also the Scenario attribute that holds its request
_ANALYSIS = _Object(
    dict,
    _Row("curves", partial(_read_object, _CURVES), default=None),
    _Row("response", partial(_read_object, _RESPONSE), default=None),
    _Row("revenue", partial(_read_object, _REVENUE), default=None),
    _Row("optimizer", partial(_read_object, _OPTIMIZER), default=None),
    _Row("equilibrium", partial(_read_object, _EQUILIBRIUM), default=None),
    _Row("simulation", partial(_read_object, _SIMULATION), default=None),
)
_SCENARIO = _Object(
    _scenario,
    _Row("version", _integer, (_supported,)),
    _Row("name", _string, default="unnamed"),
    _Row("currency", _string, default="INR"),
    _Row("offers", _objects(_OFFER, _two_offers)),
    _Row("consumers", _objects(_CONSUMER, _check(bool, "at least one consumer required"))),
    _Row("analysis", partial(_read_object, _ANALYSIS), default=None),
)

# the kinds scenario_to_dict writes by their rows, by the type they build
_KINDS = {
    kind.build: kind
    for kind in (_SLAB, _OFFER, _CONSUMER, _CURVES, _RESPONSE, _REVENUE, _OPTIMIZER)
    + (_EQUILIBRIUM, _SIMULATION)
}


# ---------------------------------------------------------------------------
# parsing


def scenario_from_dict(root: Any) -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    return _read_object(_SCENARIO, root, "", {})


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    try:
        root = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}", str(path)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", str(path)) from exc
    return scenario_from_dict(root)


# ---------------------------------------------------------------------------
# serialization


def _write_fields(fields: Mapping[str, Any], kind: _Object) -> dict:
    """An object's fields as JSON, by its rows; absent requests are left out."""
    document = {}
    for row in kind.rows:
        value = _plain(fields[row.attr or row.key])
        if value is not None and value != {}:
            document[row.key] = value
    return document


def _plain(value: Any) -> Any:
    """A field as JSON: objects by their rows, tuples as lists, enums by value."""
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, FitMethod):
        return value.value
    if type(value) in _KINDS:
        return _write_fields(vars(value), _KINDS[type(value)])
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Scenario as the plain-JSON structure parse_scenario reads."""
    fields = {**vars(scenario), "offers": (scenario.offer1, scenario.offer2)}
    # the requests are Scenario attributes, written under one analysis key
    fields["analysis"] = _write_fields(fields, _ANALYSIS)
    return _write_fields(fields, _SCENARIO)


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
