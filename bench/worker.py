"""One workload in one fresh interpreter; started by ``bench/run.py``.

    worker.py setup   --workload W --seed N --workdir D
    worker.py measure --workload W --seed N --workdir D --seconds S --trace 0|1 --result F

``setup`` times the imports and input generation, prints ``{"setup_s": x}``
and exits. ``measure`` does the same set-up, then runs the closed loop for S
seconds and writes the raw samples (and, with ``--trace 1``, the per-layer
numbers) to F as JSON. With ``--trace 1`` untraced and traced operations
alternate, so the trace overhead is measured in the same run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import slabpricing  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

MIN_SAMPLES = 21  # the tail statistic needs more than 10 samples
RNG_REF_REPEATS = 15


def _imported_from_checkout() -> bool:
    return Path(slabpricing.__file__).resolve().is_relative_to((ROOT / "src").resolve())


def _one(wl: workloads.Workload, i: int, tracer: Tracer | None, record: dict, keep: bool = False, operation=None):
    """Run and check operation i; return (seconds, units) or None if it failed."""
    operation = operation or wl.operation
    record["attempted"] += 1
    gc.collect()  # every operation starts from a collected heap
    try:
        if tracer is not None:
            with tracer.operation():
                result = operation(i)
            seconds = tracer.op_seconds[-1]
        else:
            t0 = time.perf_counter()
            result = operation(i)
            seconds = time.perf_counter() - t0
        units = wl.check(i, result)
    except Exception as exc:  # any failure of the program or its output is a failed operation
        record["failed"] += 1
        if len(record["errors"]) < 5:
            record["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
        return None
    finally:
        if not keep:
            wl.discard(i)
    return seconds, units


def _rng_fill_ns_per_draw(draws_by_k: dict[int, float]) -> float:
    """numpy PCG64 ``random((65536, k))`` in ns per draw, weighted by the
    draws the workload made at each k: the fill alone, as a floor. A
    workload without Monte Carlo gets depths 1..16 weighted equally, as a
    reading of the machine's speed in that run."""
    draws_by_k = draws_by_k or {k: 1.0 for k in range(1, 17)}
    total = sum(draws_by_k.values())
    weighted = 0.0
    for k, draws in draws_by_k.items():
        generator = np.random.default_rng(k)
        samples = []
        for _ in range(RNG_REF_REPEATS):
            t0 = time.perf_counter()
            block = generator.random((65536, k))
            samples.append(time.perf_counter() - t0)
        del block
        weighted += statistics.median(samples) / (65536 * k) * 1e9 * draws / total
    return weighted


def _battery_overwrite_write_csv_s(wl: workloads.Battery, i: int, record: dict) -> float:
    """write_csv seconds of one traced ``reproduce --overwrite`` into the
    directory of the repetition just before it."""
    if _one(wl, i, None, record, keep=True) is None:
        return 0.0
    tracer = Tracer(keep_spans=0)
    if _one(wl, i, tracer, record, operation=lambda i: wl.operation(i, overwrite=True)) is None:
        return 0.0
    return tracer.stats["cli.write_csv"][1]


def layer_metrics(tracer: Tracer, untraced: list[float]) -> dict[str, float]:
    """Per-layer numbers per traced operation (counts and seconds are
    averages over the traced operations)."""
    n = max(tracer.ops, 1)
    c = tracer.counters

    def calls(name: str) -> float:
        return tracer.stats[name][0] / n if name in tracer.stats else 0.0

    def inclusive(name: str) -> float:
        return tracer.stats[name][1] / n if name in tracer.stats else 0.0

    def own(name: str) -> float:
        return tracer.stats[name][2] / n if name in tracer.stats else 0.0

    def layer_sum(layer: str, column: int) -> float:
        return sum(v[column] for k, v in tracer.stats.items() if k.startswith(layer + ".")) / n

    mc = "simulate.estimate_expected_revenue_mc"
    draws = c["simulate.draws"]
    ns_per_draw = tracer.stats[mc][1] / draws * 1e9 if draws else 0.0
    draws_by_k = {
        int(key.rpartition(".")[2]): value
        for key, value in c.items()
        if key.startswith("simulate.draws_at_k.")
    }
    rng_ref = _rng_fill_ns_per_draw(draws_by_k)
    search = ("revenue.optimize_slab_structure", "revenue.best_by_slab_count")
    op_total = sum(tracer.op_seconds)
    self_by_layer = tracer.layer_self_seconds()
    metrics = {
        "simulate.calls": calls(mc),
        "simulate.s": inclusive(mc),
        "simulate.trials": c["simulate.trials"] / n,
        "simulate.draws": draws / n,
        "simulate.ns_per_draw": ns_per_draw,
        "simulate.useful_draw_ratio": c["simulate.visited_rungs"] / draws if draws else 0.0,
        "simulate.batch_bytes_computed": c["simulate.batch_bytes_computed"],
        "simulate.rng_fill_ns_per_draw_ref": rng_ref,
        "simulate.rng_bound_ratio": rng_ref / ns_per_draw if ns_per_draw else 0.0,
        "revenue.expected_revenue_calls": calls("revenue.expected_revenue"),
        "revenue.expected_revenue_s": inclusive("revenue.expected_revenue"),
        "revenue.slabs_evaluated": c["revenue.slabs_evaluated"] / n,
        "revenue.plans_built": c["revenue.discount_ladder_plans.items"] / n,
        "revenue.plan_build_s": inclusive("revenue.discount_ladder_plans"),
        "revenue.optimizer_passes": sum(calls(name) for name in search),
        "revenue.search_s": sum(own(name) for name in search),
        "demand.convex_pair_calls": calls("demand.demand_convex_pair"),
        "demand.convex_pair_s": inclusive("demand.demand_convex_pair"),
        "price_response.calls": layer_sum("price_response", 0),
        "price_response.s": layer_sum("price_response", 1),
        "cli.write_csv_calls": calls("cli.write_csv"),
        "cli.write_csv_s": inclusive("cli.write_csv"),
        "cli.rows_written": c["cli.rows_written"] / n,
        "cli.bytes_written": c["cli.bytes_written"] / n,
        "cli.self_s": own("cli.run"),
        "scenario.parse_calls": calls("scenario.parse_scenario"),
        "scenario.parse_s": inclusive("scenario.parse_scenario"),
        "scenario.bytes_parsed": c["scenario.bytes_parsed"] / n,
        "equilibrium.fits": calls("equilibrium.fit_supply_line"),
        "equilibrium.solves": calls("equilibrium.solve_equilibrium"),
        "equilibrium.solve_s": inclusive("equilibrium.solve_equilibrium"),
        "equilibrium.bisection_steps": c["equilibrium.bisection_steps"] / n,
        "trace.overhead_ratio": statistics.median(tracer.op_seconds) / statistics.median(untraced),
        "trace.layer_self_coverage": sum(self_by_layer[layer] for layer in LAYERS) / op_total,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_by_layer[layer] / op_total
    return metrics


def measure(wl: workloads.Workload, seconds: float, trace: bool, setup_s: float, spans_path: Path | None) -> dict:
    wl.prepare()
    record: dict = {"attempted": 0, "failed": 0, "errors": []}
    tracer = Tracer() if trace else None
    _one(wl, 0, None, record)  # warm-up: checked, not timed
    untraced: list[float] = []
    units: list[float] = []
    i = 1
    deadline = time.perf_counter() + seconds
    hard_stop = deadline + max(2 * seconds, 30.0)
    while time.perf_counter() < deadline or (len(untraced) < MIN_SAMPLES and time.perf_counter() < hard_stop):
        traced_op = tracer is not None and i % 2 == 0
        outcome = _one(wl, i, tracer if traced_op else None, record)
        if outcome is not None and not traced_op:
            untraced.append(outcome[0])
            units.append(outcome[1])
        i += 1
    result = {
        "setup_s": setup_s,
        "op_seconds": untraced,
        "op_units": units,
        "unit": wl.unit,
        "summary": wl.summary(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None and tracer.ops:
        layers = layer_metrics(tracer, untraced)
        layers["cli.overwrite_write_csv_s"] = (
            _battery_overwrite_write_csv_s(wl, i, record) if isinstance(wl, workloads.Battery) else 0.0
        )
        result["layers"] = layers
        result["traced_ops"] = tracer.ops
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_path)
            result["spans_path"] = str(spans_path)
    result.update(record)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--small", action="store_true", help="reduced input sizes, for the self-test")
    args = parser.parse_args(argv)
    if not _imported_from_checkout():
        print(f"slabpricing was imported from {slabpricing.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    wl = workloads.WORKLOADS[args.workload](args.workdir, args.seed, small=args.small)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure(wl, args.seconds, bool(args.trace), setup_s, args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
