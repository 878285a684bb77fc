"""Command line interface: scenario-driven analyses emitted as CSV.

Subcommands:

    demand       demand-curve families over a price grid
    respond      price-response properties table (slope, hazard, elasticity, wtp)
    revenue      expected-revenue report for one slab plan
    optimize     exhaustive slab-structure search
    equilibrium  supply fits and demand-supply equilibria
    simulate     Monte Carlo check of the revenue report
    reproduce    full battery over the bundled scenarios

Global flags: --scenario <path>, --out <dir>, --seed <u64>, --overwrite.
Numbers are written with 10 significant digits; reruns with identical inputs
produce byte-identical files. Exit codes: 0 success, 2 usage, 3 schema,
4 infeasible, 5 numerical failure.
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

from .demand import own_and_cross
from .equilibrium import EquilibriumPoint, FitMethod, SupplyLine, fit_supply_line, solve_equilibrium
from .errors import NumericalError, PricingError
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
    compare_domains,
    discount_ladder_plans,
    expected_revenue,
    plan_for_consumer,
)
from .scenario import BUNDLED_SCENARIOS, Scenario, bundled_scenario_path, parse_scenario
from .simulate import MCEstimate, SimConfig, estimate_expected_revenue_mc


class UsageError(Exception):
    """Command/flag/scenario mismatch; maps to exit code 2."""


def format_number(value: float) -> str:
    """10-significant-digit text form; -0 is normalized to 0."""
    if value == 0:
        value = 0.0
    return f"{value:.10g}"


def _cells(path: Path, header: Sequence[str], row: Sequence[Any]) -> list[str]:
    cells = []
    for column, value in zip(header, row, strict=True):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise NumericalError(f"{path}: non-finite value {value} in column {column!r}")
            cells.append(format_number(value))
        else:
            cells.append(str(value))
    return cells


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]], overwrite: bool) -> Path:
    """Write one CSV file; every row is formatted (and checked finite)
    before the file is opened, so a failure leaves no file behind."""
    if path.exists() and not overwrite:
        raise UsageError(f"{path} exists; pass --overwrite to replace it")
    lines = [_cells(path, header, row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(lines)
    print(f"wrote {path}")
    return path


# ---------------------------------------------------------------------------
# shared scenario plumbing


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if not args.scenario:
        raise UsageError("--scenario is required for this command")
    return parse_scenario(args.scenario)


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
# emission blocks (shared between single commands and reproduce)


def emit_curves_csv(scenario: Scenario, out: Path, overwrite: bool) -> list[Path]:
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
    written = []
    for commodity, tag in ((1, "mu"), (2, "phi")):
        constrained = [_context_for(scenario, i, commodity) for i in consumers]
        header = ["price"]
        header += [f"{tag}_{format_number(ctx.motive)}_constrained" for ctx in constrained]
        header += [f"{tag}_{format_number(ctx.motive)}_unconstrained" for ctx in constrained]
        contexts = constrained + [
            _context_for(scenario, i, commodity, request.baseline_min_qty) for i in consumers
        ]
        rows = [[price] + [price_response(ctx, price).qty for ctx in contexts] for price in grid]
        written.append(
            write_csv(out / f"demand_x{commodity}.csv", header, rows, overwrite)
        )
    return written


def emit_response_csv(scenario: Scenario, out: Path, overwrite: bool) -> Path:
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
    return write_csv(out / "response.csv", header, rows, overwrite)


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


def emit_revenue_csv(scenario: Scenario, out: Path, overwrite: bool) -> Path:
    report = _revenue_report(scenario)
    return write_csv(
        out / "revenue.csv", _REVENUE_HEADER, _revenue_rows(scenario.name, report), overwrite
    )


def emit_slab_study_csv(scenario: Scenario, out: Path, overwrite: bool) -> Path:
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
        rows.append(
            [
                count,
                plan.slabs[0].price,
                report.total,
                int(plan == best_plan),
            ]
        )
    return write_csv(out / "slab_study.csv", header, rows, overwrite)


def _solve_equilibria(
    scenario: Scenario,
) -> list[tuple[int, str, SupplyLine, EquilibriumPoint]]:
    request = _request(scenario, "equilibrium")
    results = []
    for commodity, pairs in ((1, request.supply1), (2, request.supply2)):
        supply = fit_supply_line(pairs, request.method)
        for variant, baseline in (("constrained", None), ("unconstrained", request.baseline_min_qty)):
            ctx = _context_for(scenario, request.consumer, commodity, baseline)
            point = solve_equilibrium(lambda price: price_response(ctx, price).qty, supply, request.bracket)
            results.append((commodity, variant, supply, point))
    return results


def emit_equilibrium_csv(scenario: Scenario, out: Path, overwrite: bool) -> Path:
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
    rows = [
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
        for commodity, variant, supply, point in _solve_equilibria(scenario)
    ]
    return write_csv(out / "equilibrium.csv", header, rows, overwrite)


def emit_supply_fit_csv(scenario: Scenario, out: Path, overwrite: bool) -> Path:
    request = _request(scenario, "equilibrium")
    header = ["commodity", "fit_method", "slope", "intercept"]
    rows = []
    for commodity, pairs in ((1, request.supply1), (2, request.supply2)):
        for method in (FitMethod.TWO_POINT, FitMethod.LEAST_SQUARES):
            line = fit_supply_line(pairs, method)
            rows.append([commodity, method.value, line.slope, line.intercept])
    return write_csv(out / "supply_fit.csv", header, rows, overwrite)


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


def emit_simulation_csv(scenario: Scenario, out: Path, overwrite: bool, seed_flag: int | None) -> list[Path]:
    report, estimate, row = _monte_carlo(scenario, seed_flag)
    written = [write_csv(out / "mc.csv", _MC_HEADER, [row], overwrite)]
    slab_header = ["slab", "purchases", "frequency", "purchase_probability"]
    slab_rows = [
        [line.index, count, count / estimate.trials, line.reach_prob * line.acceptance_prob]
        for line, count in zip(report.per_slab, estimate.slab_counts)
    ]
    written.append(write_csv(out / "mc_slabs.csv", slab_header, slab_rows, overwrite))
    return written


def emit_reproduce_battery(out: Path, overwrite: bool, seed_flag: int | None) -> list[Path]:
    """The full bundled-scenario battery; the acceptance artifacts."""
    scenarios = {name: parse_scenario(bundled_scenario_path(name)) for name in BUNDLED_SCENARIOS}
    written: list[Path] = []

    convex = scenarios["paper_convex"]
    written.append(emit_supply_fit_csv(convex, out, overwrite))
    written.extend(emit_curves_csv(convex, out, overwrite))
    written.append(emit_response_csv(convex, out, overwrite))
    written.append(emit_equilibrium_csv(convex, out, overwrite))
    written.append(emit_slab_study_csv(scenarios["slab_study"], out, overwrite))

    revenue_rows: list[list[Any]] = []
    mc_rows: list[list[Any]] = []
    plans: dict[str, SlabPlan] = {}
    for name, scenario in scenarios.items():
        report, _, mc_row = _monte_carlo(scenario, seed_flag)
        plans[name] = report.plan
        revenue_rows.extend(_revenue_rows(name, report))
        mc_rows.append(mc_row)
    written.append(write_csv(out / "revenue_reports.csv", _REVENUE_HEADER, revenue_rows, overwrite))
    written.append(write_csv(out / "mc_validation.csv", _MC_HEADER, mc_rows, overwrite))

    ranking_sources = ("paper_convex", "paper_mixed", "paper_nonconvex")
    comparison = compare_domains(
        [scenarios[name].domain for name in ranking_sources],
        market=list(convex.consumers),
        plans=[plans[name] for name in ranking_sources],
        labels=list(ranking_sources),
    )
    rank_header = ["rank", "scenario", "domain_kind", "expected_revenue"]
    rank_rows = [
        [rank, entry.label, entry.domain.kind.value, entry.report.total]
        for rank, entry in enumerate(comparison.ranked, start=1)
    ]
    written.append(write_csv(out / "domain_ranking.csv", rank_header, rank_rows, overwrite))
    return written


# ---------------------------------------------------------------------------
# dispatch


def _cmd_demand(args: argparse.Namespace) -> None:
    emit_curves_csv(_load_scenario(args), Path(args.out), args.overwrite)


def _cmd_respond(args: argparse.Namespace) -> None:
    emit_response_csv(_load_scenario(args), Path(args.out), args.overwrite)


def _cmd_revenue(args: argparse.Namespace) -> None:
    emit_revenue_csv(_load_scenario(args), Path(args.out), args.overwrite)


def _cmd_optimize(args: argparse.Namespace) -> None:
    emit_slab_study_csv(_load_scenario(args), Path(args.out), args.overwrite)


def _cmd_equilibrium(args: argparse.Namespace) -> None:
    scenario = _load_scenario(args)
    out = Path(args.out)
    emit_supply_fit_csv(scenario, out, args.overwrite)
    emit_equilibrium_csv(scenario, out, args.overwrite)


def _cmd_simulate(args: argparse.Namespace) -> None:
    emit_simulation_csv(_load_scenario(args), Path(args.out), args.overwrite, args.seed)


def _cmd_reproduce(args: argparse.Namespace) -> None:
    emit_reproduce_battery(Path(args.out), args.overwrite, args.seed)


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
    handlers = {
        "demand": (_cmd_demand, "emit demand-curve families"),
        "respond": (_cmd_respond, "emit the price-response properties table"),
        "revenue": (_cmd_revenue, "emit the expected-revenue report"),
        "optimize": (_cmd_optimize, "emit the slab-count study"),
        "equilibrium": (_cmd_equilibrium, "emit supply fits and equilibria"),
        "simulate": (_cmd_simulate, "emit the Monte Carlo check"),
        "reproduce": (_cmd_reproduce, "emit the full bundled-scenario battery"),
    }
    for name, (handler, help_text) in handlers.items():
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print(f"error[usage]: --seed must fit in 64 bits: {args.seed}", file=sys.stderr)
        return 2
    try:
        args.handler(args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2
    except PricingError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
