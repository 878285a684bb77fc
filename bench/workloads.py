"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop in one process and one thread: the next
operation starts when the previous one has returned. Inputs are generated
from the workload seed before the first operation; the program sees only
those inputs, through ``slabpricing.cli.run`` or the public API. Every
operation writes into a directory that does not exist yet, so no workload
overwrites a file (on ext4, truncating or replacing an existing file forces
writeback and makes a run's timing depend on the disk).

Each workload provides

* ``setup()``: generate or parse the inputs (this is what ``setup_s`` times,
  together with the imports);
* ``prepare()``: compute what the checks compare against (not timed);
* ``operation(i)``: the timed call; returns what ``check`` needs;
* ``check(i, result)``: raises ``CheckFailed`` when an output is wrong, and
  returns the units of work the operation did;
* ``summary()``: check values to print, which are not timings.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
from pathlib import Path
from typing import Any

import slabpricing
import slabpricing.cli

MC_TRIALS = 1_000_000

# sha256 of the nine battery files written by ``slabprice reproduce``,
# frozen from the commit that introduced this benchmark
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


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _run_cli(argv: list[str]) -> None:
    """``slabpricing.cli.run`` with its ``wrote`` lines and error messages
    captured; a non-zero exit code is a failed operation."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = slabpricing.cli.run(argv)
    if code != 0:
        raise CheckFailed(f"slabprice {' '.join(argv)} exited {code}: {sink.getvalue().strip()[-300:]}")


def _files(directory: Path) -> list[Path]:
    return sorted(path for path in directory.rglob("*") if path.is_file())


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in _files(directory)
    }


def _data_cells(directory: Path) -> int:
    """CSV cells below the header row, over every file under the directory."""
    cells = 0
    for path in _files(directory):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        cells += sum(len(row) for row in rows[1:])
    return cells


def _format(value: float) -> str:
    # the CLI's documented number format: 10 significant digits, -0 as 0
    return f"{(0.0 if value == 0 else value):.10g}"


class Workload:
    name = ""
    unit = ""  # the unit of work that work_per_s counts

    def __init__(self, workdir: Path, seed: int, small: bool = False) -> None:
        self.workdir = workdir
        self.seed = seed
        self.small = small
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Generate or parse the inputs."""

    def prepare(self) -> None:
        """Compute check references."""

    def operation(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> float:
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        return {}

    def out_dir(self, i: int) -> Path:
        return self.workdir / "ops" / f"op{i:06d}"

    def discard(self, i: int) -> None:
        shutil.rmtree(self.out_dir(i), ignore_errors=True)


class Battery(Workload):
    """``slabprice reproduce`` into a fresh directory: the canonical user run.

    The inputs are the bundled scenarios, so the seed changes nothing."""

    name = "battery"
    unit = "trial_rungs"

    def __init__(self, workdir: Path, seed: int, small: bool = False, frozen: dict | None = None) -> None:
        super().__init__(workdir, seed, small)
        self.frozen = dict(BATTERY_SHA256 if frozen is None else frozen)

    def setup(self) -> None:
        self.scenarios = [
            slabpricing.parse_scenario(slabpricing.bundled_scenario_path(name))
            for name in slabpricing.BUNDLED_SCENARIOS
        ]

    def prepare(self) -> None:
        self.trial_rungs = 0
        for scenario in self.scenarios:
            request = scenario.revenue
            if request is None or scenario.simulation is None:
                continue
            consumer = scenario.consumers[request.consumer]
            own, other = (
                (scenario.offer1, scenario.offer2)
                if request.commodity == 1
                else (scenario.offer2, scenario.offer1)
            )
            plan = slabpricing.plan_for_consumer(consumer, own, other, request.commodity)
            self.trial_rungs += scenario.simulation.trials * plan.reachable_slabs
        self.cells = 0

    def operation(self, i: int, overwrite: bool = False) -> None:
        _run_cli(["--out", str(self.out_dir(i))] + (["--overwrite"] if overwrite else []) + ["reproduce"])

    def check(self, i: int, result: Any) -> float:
        out = self.out_dir(i)
        digests = _digests(out)
        if set(digests) != set(self.frozen):
            raise CheckFailed(f"battery wrote {sorted(digests)}, expected {sorted(self.frozen)}")
        wrong = sorted(name for name, digest in digests.items() if digest != self.frozen[name])
        if wrong:
            raise CheckFailed(f"battery files differ from their frozen sha256: {wrong}")
        if not self.cells:
            self.cells = _data_cells(out)
        return self.trial_rungs

    def summary(self) -> dict[str, Any]:
        return {"trial_rungs_per_op": self.trial_rungs, "cells_per_op": self.cells}


class McDeep(Workload):
    """Monte Carlo oracle plus closed form on deep ladders, via the API.

    One operation runs ``estimate_expected_revenue_mc`` (10^6 trials) and
    ``expected_revenue`` on each of eleven seeded plans, one per reachable
    depth 6..16, all rungs reachable. The kernel's cost depends on the
    acceptance probabilities (an early acceptance ends a walk), so they are
    drawn stratified: at each rung position the plans that have that rung
    get one value from each of as many equal strata of 0.05..0.95, in a
    seeded order. Every seed then gives the same mix of depths and of
    acceptance levels. Every operation after the first replays all eleven
    estimates, which must match the first bit for bit."""

    name = "mc_deep"
    unit = "trial_rungs"
    DEPTHS = range(6, 17)

    def setup(self) -> None:
        rng = self.rng
        trials = MC_TRIALS // 10 if self.small else MC_TRIALS
        acceptance = {depth: [0.0] * depth for depth in self.DEPTHS}
        for rung in range(max(self.DEPTHS)):
            holders = [depth for depth in self.DEPTHS if depth > rung]
            levels = [0.05 + 0.9 * (s + rng.random()) / len(holders) for s in range(len(holders))]
            rng.shuffle(levels)
            for depth, level in zip(holders, levels):
                acceptance[depth][rung] = level
        self.configs = []
        for depth in self.DEPTHS:
            context = slabpricing.ResponseContext(
                motive=rng.uniform(0.2, 0.8),
                budget=rng.uniform(800.0, 1200.0),
                cross_price=rng.uniform(0.15, 0.25),
                own_min_qty=rng.uniform(10.0, 30.0),
                cross_min_qty=rng.uniform(100.0, 300.0),
            )
            first = rng.uniform(5.0, 15.0)
            discount = rng.uniform(0.01, 0.08)
            plan = slabpricing.SlabPlan(
                slabs=tuple(
                    slabpricing.PlanSlab(price=first * (1.0 - discount) ** k, context=context)
                    for k in range(depth)
                ),
                acceptance_probs=tuple(acceptance[depth]),
                attention_span=depth,
            )
            self.configs.append(slabpricing.SimConfig(trials=trials, seed=rng.getrandbits(63), plan=plan))
        self.trial_rungs = sum(c.trials * c.plan.reachable_slabs for c in self.configs)

    def prepare(self) -> None:
        self.first: list | None = None
        self.within_3se = 0

    def operation(self, i: int) -> Any:
        return [
            (slabpricing.estimate_expected_revenue_mc(config), slabpricing.expected_revenue(config.plan))
            for config in self.configs
        ]

    def check(self, i: int, result: Any) -> float:
        estimates = [estimate for estimate, _ in result]
        if self.first is None:
            self.first = estimates
            self.within_3se = sum(
                abs(estimate.mean - report.total) <= 3.0 * estimate.standard_error
                for estimate, report in result
            )
        else:
            replayed = [e == f for e, f in zip(estimates, self.first)]
            if not all(replayed):
                depths = [c.plan.n_slabs for c, ok in zip(self.configs, replayed) if not ok]
                raise CheckFailed(f"estimates at depths {depths} did not replay bit-identically")
        return self.trial_rungs

    def summary(self) -> dict[str, Any]:
        return {
            "plans_within_3se": self.within_3se,
            "plans_checked": len(self.configs),
            "trial_rungs_per_op": self.trial_rungs,
        }


def _write_scenario(workdir: Path, document: dict) -> Path:
    path = workdir / "inputs" / f"{document['name']}.scn"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    slabpricing.parse_scenario(path)
    return path


def _offer(ident: str, price: float, min_qty: float) -> dict:
    return {"id": ident, "unit": "g", "slabs": [{"unit_price": price, "min_qty": min_qty}]}


class LadderSearch(Workload):
    """``slabprice optimize`` on a generated discount-ladder family:
    ~1000 seeded base prices x slab counts 1..16, attention span 8."""

    name = "ladder_search"
    unit = "plans"
    MAX_SLABS = 16
    SPAN = 8

    def setup(self) -> None:
        rng = self.rng
        n_prices = 60 if self.small else 1000
        min1, min2 = round(rng.uniform(10.0, 30.0), 3), round(rng.uniform(100.0, 300.0), 3)
        acceptance = round(rng.uniform(0.3, 0.7), 4)
        document = {
            "version": 1,
            "name": f"ladder_{self.seed}",
            "currency": "INR",
            "offers": [
                _offer("commodity1", round(rng.uniform(8.0, 12.0), 4), 20),
                _offer("commodity2", round(rng.uniform(0.15, 0.25), 4), 200),
            ],
            "consumers": [
                {
                    "budget": round(rng.uniform(800.0, 1200.0), 2),
                    "motives1": [round(rng.uniform(0.2, 0.8), 4)],
                    "motives2": [round(rng.uniform(0.2, 0.8), 4)],
                    "min_qty1": min1,
                    "min_qty2": min2,
                    "max_qty1": 200 + min1,
                    "max_qty2": 6000 + min2,
                    "attention_span": self.SPAN,
                    "acceptance": [acceptance],
                }
            ],
            "analysis": {
                "optimizer": {
                    "base_prices": [round(rng.uniform(4.0, 16.0), 4) for _ in range(n_prices)],
                    "max_slabs": self.MAX_SLABS,
                    "discount": round(rng.uniform(0.02, 0.08), 4),
                    "acceptance": acceptance,
                    "attention_span": self.SPAN,
                    "consumer": 0,
                    "commodity": 1,
                }
            },
        }
        self.path = _write_scenario(self.workdir, document)

    def prepare(self) -> None:
        """Brute-force maximum per slab count over expected_revenue totals,
        tie-broken to the lower first-slab price, built without the CLI's
        plan generator or optimizer."""
        scenario = slabpricing.parse_scenario(self.path)
        request = scenario.optimizer
        consumer = scenario.consumers[request.consumer]
        context = slabpricing.ResponseContext(
            motive=consumer.motives1[0],
            budget=consumer.budget,
            cross_price=scenario.offer2.slabs[0].unit_price,
            own_min_qty=consumer.min_qty1,
            cross_min_qty=consumer.min_qty2,
        )
        winners = []
        for count in range(1, request.max_slabs + 1):
            best = None
            for p0 in request.base_prices:
                plan = slabpricing.SlabPlan(
                    slabs=tuple(
                        slabpricing.PlanSlab(price=p0 * (1.0 - request.discount) ** k, context=context)
                        for k in range(count)
                    ),
                    acceptance_probs=(request.acceptance,) * count,
                    attention_span=request.attention_span,
                )
                total = slabpricing.expected_revenue(plan).total
                if best is None or total > best[0] or (total == best[0] and p0 < best[1]):
                    best = (total, p0)
            winners.append((count, best[1], best[0]))
        overall = max(winners, key=lambda w: (w[2], -w[0], -w[1]))
        lines = ["slab_count,first_slab_price,expected_revenue,overall_best"]
        for count, p0, total in winners:
            lines.append(f"{count},{_format(p0)},{_format(total)},{int(count == overall[0])}")
        self.expected = ("\n".join(lines) + "\n").encode()
        self.family = len(request.base_prices) * request.max_slabs

    def operation(self, i: int) -> None:
        _run_cli(["--scenario", str(self.path), "--out", str(self.out_dir(i)), "optimize"])

    def check(self, i: int, result: Any) -> float:
        written = (self.out_dir(i) / "slab_study.csv").read_bytes()
        if written != self.expected:
            raise CheckFailed("slab_study.csv disagrees with the brute-force maximum per slab count")
        return self.family


class ScenarioSweep(Workload):
    """``slabprice demand``, ``respond`` and ``equilibrium`` over four
    generated scenarios, each with 30 seeded consumers, a 0.1-step curve
    grid and a 2000-point response grid, each scenario's three commands into
    one fresh directory. Four scenarios per operation rather than one: with
    operations of 0.1-0.2 s, a second or two of interference from other
    processes (this workload writes about 0.9 MB per scenario) reached the
    tail statistic."""

    name = "scenario_sweep"
    unit = "cells"
    COMMANDS = ("demand", "respond", "equilibrium")
    SCENARIOS = 4

    def setup(self) -> None:
        self.paths = [
            _write_scenario(self.workdir, self._document(f"sweep_{self.seed}_{j}"))
            for j in range(self.SCENARIOS)
        ]

    def _document(self, name: str) -> dict:
        rng = self.rng
        n_consumers = 6 if self.small else 30
        consumers = [
            {
                "budget": round(rng.uniform(800.0, 1200.0), 2),
                "motives1": [round(rng.uniform(0.05, 0.95), 4)],
                "motives2": [round(rng.uniform(0.05, 0.95), 4)],
                "min_qty1": round(rng.uniform(100.0, 300.0), 2),
                "min_qty2": round(rng.uniform(100.0, 300.0), 2),
                "max_qty1": 6000,
                "max_qty2": 6000,
                "attention_span": 2,
                "acceptance": [0.5],
            }
            for _ in range(n_consumers)
        ]

        def supply(slope: float) -> list[list[float]]:
            # (price, qty) pairs scattered about price = intercept + slope * qty;
            # the intercept keeps the supply price positive over the bracket
            intercept = rng.uniform(2.0, 6.0)
            return [
                [round(intercept + slope * q + rng.uniform(-0.5, 0.5), 4), q]
                for q in (200, 400, 600, 800)
            ]

        return {
            "version": 1,
            "name": name,
            "currency": "INR",
            "offers": [
                _offer("commodity1", round(rng.uniform(0.15, 0.2), 4), 200),
                _offer("commodity2", round(rng.uniform(0.17, 0.21), 4), 200),
            ],
            "consumers": consumers,
            "analysis": {
                "curves": {
                    "price_start": 1.0,
                    "price_stop": 10.0 if self.small else 50.0,
                    "price_step": 0.1,
                    "baseline_min_qty": 1.0,
                },
                "response": {
                    "consumer": rng.randrange(n_consumers),
                    "commodity": rng.choice((1, 2)),
                    "price_start": 0.05,
                    "price_stop": 50.0,
                    "points": 200 if self.small else 2000,
                    "spacing": "log",
                },
                "equilibrium": {
                    "supply1": supply(rng.uniform(0.15, 0.2)),
                    "supply2": supply(rng.uniform(0.17, 0.21)),
                    "method": rng.choice(("two_point", "least_squares")),
                    "bracket": [1.0, 4000.0],
                    "consumer": rng.randrange(n_consumers),
                    "baseline_min_qty": 1.0,
                },
            },
        }

    def prepare(self) -> None:
        self.reference: dict[str, str] | None = None
        self.cells = 0

    def operation(self, i: int) -> None:
        for j, path in enumerate(self.paths):
            out = str(self.out_dir(i) / f"scenario{j}")
            for command in self.COMMANDS:
                _run_cli(["--scenario", str(path), "--out", out, command])

    def check(self, i: int, result: Any) -> float:
        out = self.out_dir(i)
        digests = _digests(out)
        if self.reference is None:
            self.reference = digests
            self.cells = _data_cells(out)
        elif digests != self.reference:
            raise CheckFailed("scenario_sweep output differs from the first repetition")
        return self.cells

    def summary(self) -> dict[str, Any]:
        return {"cells_per_op": self.cells}


WORKLOADS = {w.name: w for w in (Battery, McDeep, LadderSearch, ScenarioSweep)}
