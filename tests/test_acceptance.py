"""End-to-end acceptance battery.

Eight numbered criteria, each printing one verdict line (run with -s to see
them on success):

    [criterion N] label: PASS (0.42s)

Every tolerance is pinned in the assertion that enforces it. The battery
fixture runs the full `reproduce` command once; criteria that score emitted
artifacts read from it, criteria with their own runtime budget time their
own work. A last test pins the sha256 of every battery file.
"""

import csv
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from slabpricing import (
    Consumer,
    Offer,
    PlanSlab,
    ResponseContext,
    SimConfig,
    Slab,
    SlabPlan,
    arc_elasticity,
    bundled_scenario_path,
    demand_convex_pair,
    demand_mixed_pair,
    estimate_expected_revenue_mc,
    expected_revenue,
    fit_supply_line,
    hazard_rate,
    make_domain,
    parse_scenario,
    point_elasticity,
    price_response,
    response_slope,
    solve_equilibrium,
)
from slabpricing.cli import run

MOTIVES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
BATTERY_FILES = (
    "demand_x1.csv",
    "demand_x2.csv",
    "domain_ranking.csv",
    "equilibrium.csv",
    "mc_validation.csv",
    "response.csv",
    "revenue_reports.csv",
    "slab_study.csv",
    "supply_fit.csv",
)

# sha256 of each battery file, frozen from the commit that first wrote the
# battery in this form; any change to a battery byte must update these
BATTERY_SHA256 = {
    "demand_x1.csv": "86001b73c54b9a0a7c465e8277f850e4f0c82a739351073b5d25d2e988dd0ab3",
    "demand_x2.csv": "1f84304ebfc257c0155f26f3c05f682497a6c12a5f2e547ded1a4ab5ce72fb0e",
    "domain_ranking.csv": "da221b3dcdec446c90db5b550faffd76883d007643eb9dcf9989a88b95199977",
    "equilibrium.csv": "2021e88e22052ac85912c4e7d3bc52cf228f489794aa690770905543fef96fba",
    "mc_validation.csv": "3dcb67167500c185d96e709d461eff6cc9a9ce38cfa690abfcdeaf4130e0168e",
    "response.csv": "198e1577a12ad0bcaec436dac6ee05f46c56efcfbfe8f5bcd343ee9ad8a2fbf4",
    "revenue_reports.csv": "1eb956d8e9fbbda10c5eb66db933683897e3377c8776a83eb9e26fffb1a5a4de",
    "slab_study.csv": "1cc22de60de8df244383eef060488e70cd5d474d05ae48f4c03c07cd4d34f28b",
    "supply_fit.csv": "5b02bdbdde7ae5d6c9e0a9ac477077d84fe9f0810a252e04e588fbef1a609c72",
}


def _verdict(number: int, label: str, failures: list[str], elapsed: float) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {label}: {status} ({elapsed:.2f}s)", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _read(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _columns(rows: list[list[str]]) -> dict[str, list[float]]:
    names = rows[0]
    return {
        name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(names)
    }


@pytest.fixture(scope="module")
def battery(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("acceptance") / "battery"
    assert run(["--out", str(out), "reproduce"]) == 0
    return out


def context_for_motive(motive: float) -> ResponseContext:
    return ResponseContext(
        motive=motive,
        budget=1000.0,
        cross_price=0.19,
        own_min_qty=200.0,
        cross_min_qty=200.0,
    )


def test_criterion_1_supply_fits(battery):
    failures: list[str] = []
    t0 = time.perf_counter()
    line1 = fit_supply_line(((35.0, 200.0), (70.0, 400.0), (105.0, 600.0)))
    line2 = fit_supply_line(((38.9, 200.0), (76.98, 400.0), (115.47, 600.0)))
    elapsed = time.perf_counter() - t0
    if line1.slope != 0.175:
        failures.append(f"first supply slope {line1.slope!r} != 0.175")
    if line1.intercept != 0.0:
        failures.append(f"first supply intercept {line1.intercept!r} != 0")
    if abs(line2.slope - 0.1904) > 1e-3:
        failures.append(f"second supply slope {line2.slope!r} not within 1e-3 of 0.1904")
    if abs(line2.intercept - 0.82) > 1e-3:
        failures.append(f"second supply intercept {line2.intercept!r} not within 1e-3 of 0.82")
    fits = _read(battery / "supply_fit.csv")
    if ["1", "two_point", "0.175", "0"] not in fits:
        failures.append("battery supply_fit.csv is missing the first two-point row")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _verdict(1, "supply line fits", failures, elapsed)


def test_criterion_2_demand_curve_families(battery, tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()
    code = run(
        ["--scenario", str(bundled_scenario_path("paper_convex")), "--out", str(tmp_path), "demand"]
    )
    elapsed = time.perf_counter() - t0
    if code != 0:
        failures.append(f"demand command exited {code}")
    for commodity, tag, cross in ((1, "mu", 0.19), (2, "phi", 0.175)):
        fresh = tmp_path / f"demand_x{commodity}.csv"
        emitted = battery / f"demand_x{commodity}.csv"
        if fresh.read_bytes() != emitted.read_bytes():
            failures.append(f"{fresh.name}: fresh emission differs from the battery copy")
        cols = _columns(_read(emitted))
        prices = cols["price"]
        if prices != [float(p) for p in range(1, 51)]:
            failures.append(f"{emitted.name}: price grid is not 1..50")
        for motive in MOTIVES:
            for variant in ("constrained", "unconstrained"):
                curve = cols[f"{tag}_{motive:g}_{variant}"]
                if not all(a > b for a, b in zip(curve, curve[1:])):
                    failures.append(f"{tag}={motive:g} {variant} curve is not strictly decreasing")
            constrained = cols[f"{tag}_{motive:g}_constrained"]
            baseline = cols[f"{tag}_{motive:g}_unconstrained"]
            threshold = cross * motive / (1.0 - motive)
            for p, with_mins, without in zip(prices, constrained, baseline):
                if p > threshold and not with_mins > without:
                    failures.append(
                        f"{tag}={motive:g}: constrained {with_mins!r} <= unconstrained "
                        f"{without!r} at price {p:g} above threshold {threshold:.4f}"
                    )
                    break
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.3f}s, budget 5s")
    _verdict(2, "demand curve families", failures, elapsed)


def test_criterion_3_analytics_match_finite_differences():
    failures: list[str] = []
    t0 = time.perf_counter()
    grid = [float(p) for p in np.logspace(math.log10(0.05), math.log10(50.0), 100)]
    worst = 0.0
    for motive in MOTIVES:
        ctx = context_for_motive(motive)
        for p in grid:
            h = 1e-6 * p
            qty = price_response(ctx, p).qty
            fd_slope = (price_response(ctx, p + h).qty - price_response(ctx, p - h).qty) / (2.0 * h)
            checks = (
                ("slope", response_slope(ctx, p), fd_slope),
                ("hazard", hazard_rate(ctx, p), -fd_slope / qty),
                ("elasticity", point_elasticity(ctx, p), -p * fd_slope / qty),
            )
            for label, analytic, numeric in checks:
                rel = abs(analytic - numeric) / abs(numeric)
                worst = max(worst, rel)
                if rel > 1e-6:
                    failures.append(
                        f"{label} at motive {motive:g}, price {p:.6g}: analytic "
                        f"{analytic!r} vs central difference {numeric!r} (rel {rel:.2e})"
                    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.3f}s, budget 5s")
    _verdict(3, f"analytic properties vs finite differences (worst rel {worst:.1e})", failures, elapsed)


def test_criterion_4_elasticity_identities_and_limits():
    failures: list[str] = []
    t0 = time.perf_counter()
    grid = [float(p) for p in np.logspace(math.log10(0.05), math.log10(50.0), 100)]
    for motive in MOTIVES:
        ctx = context_for_motive(motive)
        for p in grid:
            eps = point_elasticity(ctx, p)
            via_hazard = p * hazard_rate(ctx, p)
            if abs(eps - via_hazard) > 1e-12 * abs(via_hazard):
                failures.append(
                    f"elasticity {eps!r} != price*hazard {via_hazard!r} at "
                    f"motive {motive:g}, price {p:.6g}"
                )

    # a consumer who cares only about the own commodity spends everything
    offer1 = Offer("c1", (Slab(0.175, 200.0),), "g")
    offer2 = Offer("c2", (Slab(0.19, 200.0),), "g")
    devoted = Consumer(1000.0, (1.0,), (0.5,), 200.0, 200.0, 6200.0, 6200.0, 2, (0.5,))
    pair = demand_convex_pair(devoted, 0.175, 0.19)
    spend = 0.175 * pair.x1 + 0.19 * devoted.min_qty2
    if abs(spend - 1000.0) > 1e-9 * 1000.0:
        failures.append(f"convex budget not exhausted at motive 1: spend {spend!r}")

    rungs = Offer("c2", (Slab(0.2, 100.0), Slab(0.25, 250.0)), "g")
    keen = Consumer(1000.0, (1.0,), (0.5,), 200.0, 100.0, 6200.0, 6100.0, 2, (0.5,))
    mixed = demand_mixed_pair(keen, offer1, rungs)
    rung_price = rungs.slabs[mixed.chosen_slab].unit_price
    spend = 0.175 * mixed.x1 + rung_price * keen.min_qty2
    if abs(spend - 1000.0) > 1e-9 * 1000.0:
        failures.append(f"mixed budget not exhausted at motive 1: spend {spend!r}")

    for motive in MOTIVES:
        ctx = context_for_motive(motive)
        for p in (0.1, 0.5, 2.0, 20.0):
            point = point_elasticity(ctx, p)
            gaps = [
                abs(arc_elasticity(ctx, p, p * (1.0 + step)) - point)
                for step in (1e-2, 1e-4, 1e-6)
            ]
            if not (gaps[0] > gaps[1] > gaps[2]):
                failures.append(f"arc gap not shrinking at motive {motive:g}, price {p:g}: {gaps}")
            if gaps[2] > 1e-6:
                failures.append(
                    f"arc at relative step 1e-6 misses the point value by {gaps[2]:.2e} "
                    f"at motive {motive:g}, price {p:g}"
                )
    elapsed = time.perf_counter() - t0
    _verdict(4, "elasticity identities and limits", failures, elapsed)


def test_criterion_5_monte_carlo_agreement(battery):
    failures: list[str] = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    hits = 0
    for i in range(100):
        n_slabs = int(rng.integers(1, 5))
        base = float(rng.uniform(5.0, 20.0))
        prices = [base * 0.95**k for k in range(n_slabs)]
        lambdas = tuple(float(rng.uniform(0.05, 0.95)) for _ in range(n_slabs))
        span = int(rng.integers(1, 6))
        ctx = ResponseContext(
            motive=float(rng.uniform(0.1, 0.9)),
            budget=float(rng.uniform(500.0, 2000.0)),
            cross_price=float(rng.uniform(0.1, 0.5)),
            own_min_qty=float(rng.uniform(1.0, 300.0)),
            cross_min_qty=float(rng.uniform(1.0, 300.0)),
        )
        plan = SlabPlan(
            slabs=tuple(PlanSlab(price=p, context=ctx) for p in prices),
            acceptance_probs=lambdas,
            attention_span=span,
        )
        closed = expected_revenue(plan).total
        estimate = estimate_expected_revenue_mc(SimConfig(10**6, 9000 + i, plan))
        if abs(estimate.mean - closed) <= 3.0 * estimate.standard_error:
            hits += 1
    if hits < 99:
        failures.append(f"only {hits}/100 randomized plans within 3 standard errors")

    mc_rows = _read(battery / "mc_validation.csv")[1:]
    if len(mc_rows) != 5:
        failures.append(f"expected 5 bundled simulation rows, got {len(mc_rows)}")
    for row in mc_rows:
        if row[1] != "1000000":
            failures.append(f"{row[0]}: ran {row[1]} trials instead of 1000000")
        if row[7] != "1":
            failures.append(f"{row[0]}: Monte Carlo mean {row[4]} strayed beyond 3 standard errors")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.3f}s, budget 60s")
    _verdict(5, f"Monte Carlo vs closed form ({hits}/100 randomized)", failures, elapsed)


def test_criterion_6_equilibrium_precision(battery):
    failures: list[str] = []
    t0 = time.perf_counter()
    supply = fit_supply_line(((35.0, 200.0), (70.0, 400.0), (105.0, 600.0)))
    # motive 0.5 on the two-linear-offer scenario: x(p) = 100 + 481/p
    point = solve_equilibrium(lambda p: 100.0 + 481.0 / p, supply, (1.0, 4000.0))
    disc = (supply.intercept - 100.0 * supply.slope) ** 2 + 4.0 * supply.slope * (
        100.0 * supply.intercept + 481.0
    )
    q_exact = ((100.0 * supply.slope - supply.intercept) + math.sqrt(disc)) / (2.0 * supply.slope)
    p_exact = supply.price_at(q_exact)
    if abs(point.qty - q_exact) > 1e-9 * q_exact:
        failures.append(f"bisection quantity {point.qty!r} vs closed form {q_exact!r}")
    if abs(point.price - p_exact) > 1e-9 * p_exact:
        failures.append(f"bisection price {point.price!r} vs closed form {p_exact!r}")
    if abs(point.qty - 122.45) > 0.01:
        failures.append(f"equilibrium quantity {point.qty!r} is not near 122.45")
    if abs(point.price - 21.43) > 0.01:
        failures.append(f"equilibrium price {point.price!r} is not near 21.43")

    baseline = solve_equilibrium(lambda p: 0.5 + 499.905 / p, supply, (1.0, 4000.0))
    if not point.price > baseline.price:
        failures.append(
            f"constrained price {point.price!r} does not exceed unconstrained {baseline.price!r}"
        )
    rows = _read(battery / "equilibrium.csv")[1:]
    price_of = {(row[0], row[1]): float(row[6]) for row in rows}
    for commodity in ("1", "2"):
        if not price_of[(commodity, "constrained")] > price_of[(commodity, "unconstrained")]:
            failures.append(f"battery commodity {commodity}: constrained price not higher")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _verdict(6, "equilibrium solver precision", failures, elapsed)


def test_criterion_7_slab_count_study(battery, tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()
    code = run(
        ["--scenario", str(bundled_scenario_path("slab_study")), "--out", str(tmp_path), "optimize"]
    )
    elapsed = time.perf_counter() - t0
    if code != 0:
        failures.append(f"optimize command exited {code}")
    report = tmp_path / "slab_study.csv"
    if not report.is_file():
        failures.append("no slab_study.csv emitted")
    else:
        if report.read_bytes() != (battery / "slab_study.csv").read_bytes():
            failures.append("fresh study differs from the battery copy")
        rows = _read(report)[1:]
        total = {int(row[0]): float(row[2]) for row in rows}
        if sorted(total) != [1, 2, 3, 4]:
            failures.append(f"study covers slab counts {sorted(total)}, wanted 1..4")
        elif not total[2] >= total[3] >= total[4]:
            failures.append(
                f"two/three/four-slab revenues {total[2]!r}, {total[3]!r}, {total[4]!r} "
                "are not weakly decreasing"
            )
        best = [int(row[0]) for row in rows if row[3] == "1"]
        if best != [2]:
            failures.append(f"overall best marked at counts {best}, wanted the two-slab plan")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.3f}s, budget 10s")
    _verdict(7, "slab count study", failures, elapsed)


def test_criterion_8_byte_identical_reruns(battery, tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()
    code = run(["--out", str(tmp_path / "again"), "reproduce"])
    if code != 0:
        failures.append(f"second reproduce run exited {code}")
    for name in BATTERY_FILES:
        first = (battery / name).read_bytes()
        second = (tmp_path / "again" / name).read_bytes()
        if first != second:
            failures.append(f"{name} differs between reruns")
    elapsed = time.perf_counter() - t0
    suite_elapsed = time.perf_counter() - conftest.SESSION_T0
    if suite_elapsed >= 120.0:
        failures.append(f"suite has been running {suite_elapsed:.1f}s, budget 120s")
    print(f"[suite] {suite_elapsed:.1f}s elapsed since collection", flush=True)
    _verdict(8, "byte-identical reruns", failures, elapsed)


def test_battery_bytes_are_frozen(battery):
    assert sorted(BATTERY_SHA256) == list(BATTERY_FILES)
    digests = {name: hashlib.sha256((battery / name).read_bytes()).hexdigest() for name in BATTERY_FILES}
    assert digests == BATTERY_SHA256
