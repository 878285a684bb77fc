"""Command line interface: scenario-driven analyses emitted as CSV.

Subcommands:

    demand       demand-curve families over a price grid
    respond      price-response properties table (slope, hazard, elasticity, wtp)
    revenue      expected-revenue report for one slab plan
    optimize     exhaustive slab-structure search
    equilibrium  supply fits and demand-supply equilibria
    simulate     Monte Carlo check of the revenue report
    reproduce    full battery over the bundled scenarios

Global flags: --scenario <path> (every command but reproduce), --out <dir>,
--seed <u64> (simulate and reproduce only), --overwrite; passing a flag the
command does not read is a usage error.
Each command returns its CSV tables and ``write_tables`` writes all of them
or none, so a failing command writes no file (unless the operating system
fails partway through the writes). Numbers are written with 10 significant
digits; reruns with identical inputs produce byte-identical files. Exit
codes: 0 success, 2 usage or OS error, 3 schema, 4 infeasible, 5 numerical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .demand import classify_domain, own_and_cross
from .equilibrium import FitMethod, fit_supply_line, solve_equilibrium
from .errors import InvalidParameterError, NumericalError, PricingError
from .price_response import (
    WTP_REFERENCE_PRICES,
    ResponseContext,
    hazard_rate,
    point_elasticity,
    price_response,
    response_slope,
    willingness_to_pay,
)
from .revenue import (
    RevenueReport,
    SlabPlan,
    best_by_slab_count,
    best_of,
    discount_ladder_plans,
    expected_revenue,
    plan_for_consumer,
)
from .scenario import BUNDLED_SCENARIOS, Scenario, bundled_scenario_path, parse_scenario
from .simulate import MCEstimate, SimConfig, estimate_expected_revenue_mc


class UsageError(Exception):
    """Command/flag/scenario mismatch; maps to exit code 2."""


def format_number(value: float) -> str:
    """10-significant-digit text form; -0 is normalized to 0 (-0.0 + 0.0 is 0.0)."""
    return f"{value + 0.0:.10g}"


Table = tuple[str, Sequence[str], Sequence[Sequence[Any]]]  # file name, header, rows


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> Path:
    """Write one CSV file, formatting each row as it is written."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [format_number(v) if isinstance(v, float) else v for v in row] for row in rows
        )
    return path


def write_tables(out: Path, tables: Sequence[Table], overwrite: bool) -> None:
    """Write every table into ``out``, or none: existing targets are refused
    (unless ``overwrite``) and every float cell is checked finite before
    ``out`` is created and the first file opened."""
    paths = [out / name for name, _, _ in tables]
    for path in paths:
        if path.exists() and not overwrite:
            raise UsageError(f"{path} exists; pass --overwrite to replace it")
    for path, (_, header, rows) in zip(paths, tables):
        for row in rows:
            for column, value in zip(header, row, strict=True):
                if isinstance(value, float) and not math.isfinite(value):
                    raise NumericalError(f"{path}: non-finite value {value} in column {column!r}")
    out.mkdir(parents=True, exist_ok=True)
    for path, (_, header, rows) in zip(paths, tables):
        print(f"wrote {write_csv(path, header, rows)}")


# ---------------------------------------------------------------------------
# shared scenario plumbing


def _request(scenario: Scenario, kind: str) -> Any:
    """The scenario's analysis request of one kind (a Scenario attribute)."""
    request = getattr(scenario, kind)
    if request is None:
        raise UsageError(f"scenario {scenario.name!r} has no analysis.{kind} request")
    return request


def _consumer_plan(scenario: Scenario, consumer_index: int, commodity: int) -> SlabPlan:
    own, cross = own_and_cross(commodity, scenario.offer1, scenario.offer2)
    return plan_for_consumer(scenario.consumers[consumer_index], own, cross, commodity)


def _context_for(
    scenario: Scenario,
    consumer_index: int,
    commodity: int,
    baseline_min_qty: float | None = None,
) -> ResponseContext:
    """Demand context at the first slab of the consumer's plan; a baseline
    replaces both minimums."""
    ctx = _consumer_plan(scenario, consumer_index, commodity).slabs[0].context
    if baseline_min_qty is None:
        return ctx
    return dataclasses.replace(ctx, own_min_qty=baseline_min_qty, cross_min_qty=baseline_min_qty)


def _price_grid(start: float, stop: float, points: int, spacing: str) -> list[float]:
    if spacing == "log":
        return [float(p) for p in np.logspace(math.log10(start), math.log10(stop), points)]
    return [float(p) for p in np.linspace(start, stop, points)]


# ---------------------------------------------------------------------------
# commands: each returns its tables, in the order they are written


def _demand(scenario: Scenario) -> list[Table]:
    """Demand-curve families, one file per commodity.

    Columns: price, one constrained column per consumer (their own
    minimums), then one unconstrained column per consumer (both minimums
    replaced by the request's baseline). Prices sweep the own price with the
    other commodity held at its first-slab price.
    """
    request = _request(scenario, "curves")
    grid = request.grid()
    if not grid:
        raise UsageError("empty price grid")
    consumers = range(len(scenario.consumers))
    tables = []
    for commodity, tag in ((1, "mu"), (2, "phi")):
        constrained = [_context_for(scenario, i, commodity) for i in consumers]
        header = ["price"]
        header += [f"{tag}_{format_number(ctx.motive)}_constrained" for ctx in constrained]
        header += [f"{tag}_{format_number(ctx.motive)}_unconstrained" for ctx in constrained]
        contexts = constrained + [
            _context_for(scenario, i, commodity, request.baseline_min_qty) for i in consumers
        ]
        rows = [[price] + [price_response(ctx, price).qty for ctx in contexts] for price in grid]
        tables.append((f"demand_x{commodity}.csv", header, rows))
    return tables


def _respond(scenario: Scenario) -> list[Table]:
    """Response properties table on the requested price grid."""
    request = _request(scenario, "response")
    ctx = _context_for(scenario, request.consumer, request.commodity)
    grid = _price_grid(request.price_start, request.price_stop, request.points, request.spacing)
    header = ["price", "response", "slope", "hazard", "elasticity"] + [
        f"wtp_ref_{format_number(ref)}" for ref in WTP_REFERENCE_PRICES
    ]
    rows = []
    for price in grid:
        point = price_response(ctx, price)
        rows.append(
            [
                price,
                point.qty,
                response_slope(ctx, price),
                hazard_rate(ctx, price),
                point_elasticity(ctx, price),
            ]
            + [willingness_to_pay(ctx, price, ref) for ref in WTP_REFERENCE_PRICES]
        )
    return [("response.csv", header, rows)]


_REVENUE_HEADER = [
    "scenario",
    "slab",
    "reach_prob",
    "acceptance_prob",
    "demand",
    "price",
    "contribution",
]


def _revenue_rows(name: str, report: RevenueReport) -> list[list[Any]]:
    rows: list[list[Any]] = [
        [
            name,
            line.index,
            line.reach_prob,
            line.acceptance_prob,
            line.demand,
            line.price,
            line.contribution,
        ]
        for line in report.per_slab
    ]
    rows.append([name, "total", "", "", "", "", report.total])
    return rows


def _revenue_report(scenario: Scenario) -> RevenueReport:
    """Expected revenue of the plan the revenue request names; the report
    carries that plan."""
    request = _request(scenario, "revenue")
    return expected_revenue(_consumer_plan(scenario, request.consumer, request.commodity))


def _revenue(scenario: Scenario) -> list[Table]:
    report = _revenue_report(scenario)
    return [("revenue.csv", _REVENUE_HEADER, _revenue_rows(scenario.name, report))]


def _optimize(scenario: Scenario) -> list[Table]:
    """Best plan per slab count for the scenario's ladder family."""
    request = _request(scenario, "optimizer")
    ctx = _context_for(scenario, request.consumer, request.commodity)
    counts = range(1, request.max_slabs + 1)

    ladder = discount_ladder_plans(
        ctx,
        request.base_prices,
        counts,
        discount=request.discount,
        acceptance=request.acceptance,
        attention_span=request.attention_span,
    )
    by_count = best_by_slab_count(ladder)
    best_plan, _ = best_of(by_count.values())
    header = ["slab_count", "first_slab_price", "expected_revenue", "overall_best"]
    rows = []
    for count in counts:
        plan, report = by_count[count]
        rows.append([count, plan.slabs[0].price, report.total, int(plan == best_plan)])
    return [("slab_study.csv", header, rows)]


def _supply_error(commodity: int, exc: PricingError) -> PricingError:
    """The same error, naming the commodity's supply pairs as its cause."""
    return type(exc)(f"analysis.equilibrium.supply{commodity}: {exc}")


def _equilibrium(scenario: Scenario) -> list[Table]:
    """Each commodity's supply line fitted once per method, then the
    equilibria of the requested method's lines."""
    request = _request(scenario, "equilibrium")
    lines = {}
    for commodity, pairs in ((1, request.supply1), (2, request.supply2)):
        for method in FitMethod:
            try:
                lines[commodity, method] = fit_supply_line(pairs, method)
            except (InvalidParameterError, NumericalError) as exc:
                raise _supply_error(commodity, exc) from None
    fit_header = ["commodity", "fit_method", "slope", "intercept"]
    fit_rows = [
        [commodity, method.value, line.slope, line.intercept]
        for (commodity, method), line in lines.items()
    ]
    header = [
        "commodity",
        "variant",
        "fit_method",
        "slope",
        "intercept",
        "q_star",
        "p_star",
        "iterations",
        "residual",
    ]
    rows = []
    for commodity in (1, 2):
        supply = lines[commodity, request.method]
        for variant, baseline in (("constrained", None), ("unconstrained", request.baseline_min_qty)):
            ctx = _context_for(scenario, request.consumer, commodity, baseline)
            try:
                point = solve_equilibrium(
                    lambda price: price_response(ctx, price).qty, supply, request.bracket
                )
            except InvalidParameterError as exc:  # a supply price at or below 0
                raise _supply_error(commodity, exc) from None
            rows.append(
                [
                    commodity,
                    variant,
                    supply.fit_method.value,
                    supply.slope,
                    supply.intercept,
                    point.qty,
                    point.price,
                    point.iterations,
                    point.residual,
                ]
            )
    return [("supply_fit.csv", fit_header, fit_rows), ("equilibrium.csv", header, rows)]


_MC_HEADER = [
    "scenario",
    "trials",
    "seed",
    "closed_form",
    "mc_mean",
    "mc_stderr",
    "gap",
    "within_3se",
]


def _monte_carlo(
    scenario: Scenario, seed_flag: int | None
) -> tuple[RevenueReport, MCEstimate, list[Any]]:
    """The revenue report, its Monte Carlo estimate and the mc.csv row
    comparing the two; --seed overrides the scenario's seed."""
    report = _revenue_report(scenario)
    request = _request(scenario, "simulation")
    seed = request.seed if seed_flag is None else seed_flag
    estimate = estimate_expected_revenue_mc(SimConfig(trials=request.trials, seed=seed, plan=report.plan))
    gap = estimate.mean - report.total
    row = [
        scenario.name,
        request.trials,
        seed,
        report.total,
        estimate.mean,
        estimate.standard_error,
        gap,
        int(abs(gap) <= 3.0 * estimate.standard_error),
    ]
    return report, estimate, row


def _simulate(scenario: Scenario, seed_flag: int | None) -> list[Table]:
    report, estimate, row = _monte_carlo(scenario, seed_flag)
    slab_header = ["slab", "purchases", "frequency", "purchase_probability"]
    slab_rows = [
        [line.index, count, count / estimate.trials, line.reach_prob * line.acceptance_prob]
        for line, count in zip(report.per_slab, estimate.slab_counts)
    ]
    return [("mc.csv", _MC_HEADER, [row]), ("mc_slabs.csv", slab_header, slab_rows)]


def _reproduce(seed_flag: int | None) -> list[Table]:
    """The full bundled-scenario battery; the acceptance artifacts."""
    scenarios = {name: parse_scenario(bundled_scenario_path(name)) for name in BUNDLED_SCENARIOS}
    convex = scenarios["paper_convex"]
    supply_fit, equilibrium = _equilibrium(convex)
    tables = [supply_fit, *_demand(convex), *_respond(convex), equilibrium]
    tables += _optimize(scenarios["slab_study"])

    revenue_rows: list[list[Any]] = []
    mc_rows: list[list[Any]] = []
    reports: dict[str, RevenueReport] = {}
    for name, scenario in scenarios.items():
        report, _, mc_row = _monte_carlo(scenario, seed_flag)
        reports[name] = report
        revenue_rows.extend(_revenue_rows(name, report))
        mc_rows.append(mc_row)
    tables.append(("revenue_reports.csv", _REVENUE_HEADER, revenue_rows))
    tables.append(("mc_validation.csv", _MC_HEADER, mc_rows))

    # best first; the stable sort keeps this order on equal totals
    ranked = sorted(
        ("paper_convex", "paper_mixed", "paper_nonconvex"), key=lambda name: -reports[name].total
    )
    rank_header = ["rank", "scenario", "domain_kind", "expected_revenue"]
    rank_rows = []
    for rank, name in enumerate(ranked, start=1):
        kind = classify_domain(scenarios[name].offer1, scenarios[name].offer2)
        rank_rows.append([rank, name, kind.value, reports[name].total])
    tables.append(("domain_ranking.csv", rank_header, rank_rows))
    return tables


# ---------------------------------------------------------------------------
# dispatch

# name -> (tables function, help); simulate also takes --seed, and reproduce
# takes only --seed
_COMMANDS = {
    "demand": (_demand, "emit demand-curve families"),
    "respond": (_respond, "emit the price-response properties table"),
    "revenue": (_revenue, "emit the expected-revenue report"),
    "optimize": (_optimize, "emit the slab-count study"),
    "equilibrium": (_equilibrium, "emit supply fits and equilibria"),
    "simulate": (_simulate, "emit the Monte Carlo check"),
    "reproduce": (_reproduce, "emit the full bundled-scenario battery"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabprice",
        description="Slab-pricing analyses driven by scenario files; output is CSV.",
    )
    parser.add_argument("--scenario", help="path to a .scn scenario file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario's simulation seed")
    parser.add_argument("--overwrite", action="store_true", help="replace existing output files")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        commands.add_parser(name, help=help_text)
    return parser


def _tables(args: argparse.Namespace) -> list[Table]:
    """The tables of the command the arguments name."""
    tables_of, _ = _COMMANDS[args.command]
    if args.seed is not None and args.command not in ("simulate", "reproduce"):
        raise UsageError(f"{args.command} does not read --seed")
    if args.command == "reproduce":
        if args.scenario is not None:
            raise UsageError("reproduce does not read --scenario: it runs the bundled scenarios")
        return tables_of(args.seed)
    if not args.scenario:
        raise UsageError("--scenario is required for this command")
    scenario = parse_scenario(args.scenario)
    if args.command == "simulate":
        return tables_of(scenario, args.seed)
    return tables_of(scenario)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print(f"error[usage]: --seed must fit in 64 bits: {args.seed}", file=sys.stderr)
        return 2
    try:
        write_tables(Path(args.out), _tables(args), args.overwrite)
    except (UsageError, OSError) as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
