"""Scenario files: bundled content, round-tripping, and strict schema checks."""

import copy
import hashlib
import json

import pytest

from slabpricing import (
    BUNDLED_SCENARIOS,
    DomainKind,
    FitMethod,
    SchemaError,
    affordable,
    bundled_scenario_path,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from slabpricing.scenario import MAX_GRID_POINTS, MAX_LADDER_RUNGS, MAX_TRIALS


def load_dict(name: str) -> dict:
    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def test_bundled_listing():
    assert BUNDLED_SCENARIOS == (
        "paper_convex",
        "paper_mixed",
        "paper_nonconvex",
        "paper_beans",
        "slab_study",
    )
    for name in BUNDLED_SCENARIOS:
        assert bundled_scenario_path(name).is_file()
    with pytest.raises(SchemaError):
        bundled_scenario_path("nope")


def test_bundled_domain_kinds():
    kinds = {
        name: parse_scenario(bundled_scenario_path(name)).domain.kind
        for name in BUNDLED_SCENARIOS
    }
    assert kinds == {
        "paper_convex": DomainKind.CONVEX,
        "paper_mixed": DomainKind.MIXED,
        "paper_nonconvex": DomainKind.NON_CONVEX,
        "paper_beans": DomainKind.NON_CONVEX,
        "slab_study": DomainKind.CONVEX,
    }


def test_motive_ladder_scenario_contents():
    scenario = parse_scenario(bundled_scenario_path("paper_convex"))
    assert scenario.version == 1
    assert scenario.name == "paper_convex"
    assert scenario.currency == "INR"
    assert len(scenario.consumers) == 9
    assert [c.motives1[0] for c in scenario.consumers] == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    ]
    assert all(c.budget == 1000.0 for c in scenario.consumers)
    assert all(affordable(c, scenario.offer1, scenario.offer2) for c in scenario.consumers)
    assert scenario.consumers[4].motives1 == (0.5,)

    assert scenario.curves.price_start == 1.0
    assert scenario.curves.price_stop == 50.0
    assert scenario.curves.price_step == 1.0
    assert scenario.curves.baseline_min_qty == 1.0
    assert len(scenario.curves.grid()) == 50

    assert scenario.response.consumer == 4
    assert scenario.response.commodity == 1
    assert scenario.response.points == 100
    assert scenario.response.spacing == "log"

    assert scenario.revenue.consumer == 4
    assert scenario.revenue.commodity == 1
    assert scenario.optimizer is None

    eq = scenario.equilibrium
    assert eq.supply1 == ((35.0, 200.0), (70.0, 400.0), (105.0, 600.0))
    assert eq.supply2 == ((38.9, 200.0), (76.98, 400.0), (115.47, 600.0))
    assert eq.method is FitMethod.TWO_POINT
    assert eq.bracket == (1.0, 4000.0)
    assert eq.consumer == 4
    assert eq.baseline_min_qty == 1.0

    assert scenario.simulation.trials == 1000000
    assert scenario.simulation.seed == 7001


def test_study_scenario_has_an_optimizer():
    scenario = parse_scenario(bundled_scenario_path("slab_study"))
    opt = scenario.optimizer
    assert opt.base_prices == (8.0, 10.0, 12.0)
    assert opt.max_slabs == 4
    assert opt.discount == 0.05
    assert opt.acceptance == 0.5
    assert opt.attention_span == 2
    assert (opt.consumer, opt.commodity) == (0, 1)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_serialization_round_trip(name):
    scenario = parse_scenario(bundled_scenario_path(name))
    assert scenario_from_dict(json.loads(serialize_scenario(scenario))) == scenario
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


# sha256 of serialize_scenario's text, frozen when the serializer was
# written out field by field; re-parsing equality alone would not see a
# change of key order or number text
SERIALIZED_SHA256 = {
    "paper_convex": "d932444e55d4869d64038fc09115cb7d9191c125a33e22fc2f89e58ea148b621",
    "paper_mixed": "8a3d29b9995b909360de1558865586c9a1373e054747388b57dae3dce6810d34",
    "paper_nonconvex": "389d8e6d41ffa90ad3d668649ac7cc85ae5a34a8f090fc56adb74cf68afa2e98",
    "paper_beans": "138590d7a370fa7c2e2bb39c198fb62655cfaeb02aa7ad2c93b8baae045d64f9",
    "slab_study": "7ad314b72ed100de80fbf6f07388dacf84ada35a4b30df12a2a8e5c94f0297b0",
}


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_serialized_text_is_frozen(name):
    text = serialize_scenario(parse_scenario(bundled_scenario_path(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256[name]


def test_defaults_for_name_and_currency():
    doc = load_dict("paper_mixed")
    del doc["name"]
    del doc["currency"]
    scenario = scenario_from_dict(doc)
    assert scenario.name == "unnamed"
    assert scenario.currency == "INR"


def test_analysis_block_is_optional():
    doc = load_dict("paper_mixed")
    del doc["analysis"]
    scenario = scenario_from_dict(doc)
    assert scenario.revenue is None
    assert scenario.simulation is None


def test_invalid_json_is_a_schema_error(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_scenario(path)


def _set(doc, dotted, value):
    node = doc
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[int(part)] if part.isdigit() else node[part]
    last = parts[-1]
    if last.isdigit():
        node[int(last)] = value
    else:
        node[last] = value


BAD_EDITS = [
    ("paper_convex", ("version", 2), "version: unsupported version 2"),
    ("paper_convex", ("offers", []), "exactly two offers required, got 0"),
    (
        "paper_convex",
        ("offers.0.slabs.0.flavor", "salted"),
        "offers[0].slabs[0].flavor: unknown field",
    ),
    ("paper_convex", ("surprise", 1), "surprise: unknown field"),
    ("paper_convex", ("consumers", []), "at least one consumer required"),
    ("paper_convex", ("consumers.0.budget", 0), "consumers[0].budget: budget must be positive"),
    ("paper_convex", ("consumers.0.budget", True), "expected a number, got bool"),
    ("paper_convex", ("consumers.0.attention_span", 2.5), "expected an integer, got float"),
    ("paper_convex", ("consumers.0.acceptance", [1.2]), "outside [0, 1]"),
    (
        "paper_convex",
        ("consumers.0.acceptance", [0.5, 0.5, 0.5]),
        "needs 1 entry or one per slab of either offer, got 3",
    ),
    (
        "paper_convex",
        ("consumers.0.motives1", [0.5, 0.5]),
        "needs 1 or 1 entries (one per slab of the first offer), got 2",
    ),
    ("paper_convex", ("analysis.response.consumer", 99), "consumer index out of range 0..8"),
    ("paper_convex", ("analysis.response.points", 1), "points must be at least 2"),
    ("paper_convex", ("analysis.response.spacing", "cubic"), "spacing must be 'log' or 'linear'"),
    (
        "paper_convex",
        ("analysis.equilibrium.bracket", [5]),
        "bracket must be [q_lo, q_hi] with 0 < q_lo < q_hi",
    ),
    (
        "paper_convex",
        ("analysis.equilibrium.method", "quadratic"),
        "method must be one of: two_point, least_squares",
    ),
    (
        "paper_convex",
        ("analysis.equilibrium.supply1", [[35], [70, 400]]),
        "expected a [price, qty] pair, got 1 entries",
    ),
    ("paper_convex", ("analysis.simulation.trials", 0), "trials must be at least 1"),
    ("paper_convex", ("analysis.simulation.seed", -1), "seed must fit in 64 bits"),
    (
        "slab_study",
        ("analysis.optimizer.discount", 1.5),
        "discount must be strictly between 0 and 1",
    ),
    ("slab_study", ("analysis.optimizer.base_prices", []), "base_prices must be non-empty"),
    (
        "paper_mixed",
        ("consumers.0.budget", float("inf")),
        "consumers[0].budget: expected a finite number, got inf",
    ),
    (
        "paper_mixed",
        ("consumers.0.budget", float("nan")),
        "consumers[0].budget: expected a finite number, got nan",
    ),
    (
        "paper_convex",
        ("analysis.equilibrium.bracket", [1, float("-inf")]),
        "analysis.equilibrium.bracket[1]: expected a finite number, got -inf",
    ),
    ("paper_convex", ("consumers.0.budget", 10**400), "consumers[0].budget: number out of range"),
    ("paper_mixed", ("consumers.0.min_qty1", 0), "consumers[0].min_qty1: min_qty1 must be positive"),
    ("paper_mixed", ("consumers.0.min_qty2", -5), "consumers[0].min_qty2: min_qty2 must be positive"),
    (
        "paper_convex",
        ("analysis.curves", {"price_start": 1, "price_stop": 1e300, "price_step": 1e-300}),
        "analysis.curves.price_step: price_step is too small",
    ),
    (
        "paper_convex",
        ("analysis.curves.price_step", 1e-9),
        "analysis.curves.price_step: price_step is too small: the grid would exceed 100000 points",
    ),
    (
        "paper_convex",
        ("analysis.response.points", 10**12),
        "analysis.response.points: points must be at most 100000",
    ),
    (
        "paper_convex",
        ("analysis.simulation.trials", 10**9 + 1),
        "analysis.simulation.trials: trials must be at most 1000000000",
    ),
]


@pytest.mark.parametrize("name,edit,fragment", BAD_EDITS)
def test_schema_violations_carry_their_path(name, edit, fragment):
    doc = copy.deepcopy(load_dict(name))
    _set(doc, *edit)
    with pytest.raises(SchemaError) as failure:
        scenario_from_dict(doc)
    assert fragment in str(failure.value)


def test_caps_admit_their_limits():
    """A request exactly at a cap parses; one past it is rejected (see
    BAD_EDITS). Only the validators run: no grid is built."""
    doc = load_dict("paper_convex")
    doc["analysis"]["curves"].update(price_start=1, price_stop=MAX_GRID_POINTS, price_step=1)
    doc["analysis"]["response"]["points"] = MAX_GRID_POINTS
    doc["analysis"]["simulation"]["trials"] = MAX_TRIALS
    scenario = scenario_from_dict(doc)
    assert scenario.curves.n_points() == MAX_GRID_POINTS
    doc["analysis"]["curves"]["price_stop"] = MAX_GRID_POINTS + 1
    with pytest.raises(SchemaError, match="analysis.curves.price_step: price_step is too small"):
        scenario_from_dict(doc)


def test_ladder_cap_admits_its_limit():
    """The largest max_slabs whose search fits MAX_LADDER_RUNGS parses and
    the next is rejected; 1000 base prices admit at least the 16 slabs the
    ladder benchmark searches. Only the validator runs: no plan is built."""
    doc = load_dict("slab_study")
    optimizer = doc["analysis"]["optimizer"]
    optimizer["base_prices"] = [10.0] * 1000
    limit = 1
    while 1000 * (limit + 1) * (limit + 2) // 2 <= MAX_LADDER_RUNGS:
        limit += 1
    assert limit >= 16
    optimizer["max_slabs"] = limit
    assert scenario_from_dict(doc).optimizer.max_slabs == limit
    optimizer["max_slabs"] = limit + 1
    with pytest.raises(SchemaError, match="analysis.optimizer.max_slabs: max_slabs is too large"):
        scenario_from_dict(doc)


def test_missing_required_field():
    doc = load_dict("paper_convex")
    del doc["consumers"][0]["budget"]
    with pytest.raises(SchemaError, match="consumers\\[0\\].budget: required field missing"):
        scenario_from_dict(doc)
