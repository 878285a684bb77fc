"""Benchmark for the slabpricing engine.

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` four in turn) in fresh child processes with
one thread each, checks every output, and prints the metrics. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, from a run in which traced and untraced operations
alternate. The metric names and units are read from ``BENCHMARK.json``.

Run from the root of a source checkout: the program is imported from
``src/``. See ``bench/README.md`` for the workloads and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("battery", "mc_deep", "ladder_search", "scenario_sweep")
SETUP_SAMPLES = 10  # fresh interpreters that only set up; the measuring child adds one


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER)] + args,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} did not finish in {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    return done


def environment(workdir: Path) -> dict[str, str]:
    """Python and CPU facts, and the filesystem type of the output directory."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if str(workdir).startswith(mount) and len(mount) > len(best):
                    fs, best = fields[2], mount
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "cpu": cpu,
        "nproc": str(os.cpu_count()),
        "affinity": str(len(os.sched_getaffinity(0))),
        "fs": fs,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample. Returns (value, percentile)."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(raw: dict, setup_samples: list[float]) -> dict[str, float]:
    times = raw["op_seconds"]
    rates = [units / seconds for units, seconds in zip(raw["op_units"], times)]
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up and measure one workload; returns the raw result plus metrics."""
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    try:
        setup_samples = []
        for n in range(SETUP_SAMPLES):
            out = _child(["setup"] + common + ["--workdir", str(workdir / f"setup{n}")], timeout=30)
            setup_samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        result_file = workdir / "result.json"
        spans = ROOT / ".bench_work" / "traces" / f"{workload}.tsv"
        _child(
            ["measure"] + common + [
                "--workdir", str(workdir / "measure"),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
                "--result", str(result_file),
                "--spans", str(spans),
            ],
            timeout=3 * seconds + 60,
        )
        raw = json.loads(result_file.read_text(encoding="utf-8"))
        env = environment(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples.append(raw["setup_s"])
    raw["env"] = env
    raw["setup_samples"] = setup_samples
    if len(raw["op_seconds"]) < 11:
        raise BenchError(f"{workload}: only {len(raw['op_seconds'])} untraced operations succeeded")
    raw["end_to_end"] = end_to_end(raw, setup_samples)
    return raw


def _report(workload: str, seed: int, raw: dict, trace: bool) -> None:
    env = raw["env"]
    print(
        f"[{workload}] seed={seed} python={raw['python']} numpy={raw['numpy']} cpu={env['cpu']!r} "
        f"nproc={env['nproc']} affinity={env['affinity']} fs={env['fs']}"
    )
    times = raw["op_seconds"]
    value, pct = tail(times)
    e2e = raw["end_to_end"]
    unit = raw["unit"]
    print(f"[{workload}] {len(times)} timed operations, {raw['attempted']} attempted, {raw['failed']} failed")
    print(f"[{workload}]   setup_s           {e2e['setup_s']:.6f} s  (median of {len(raw['setup_samples'])} fresh interpreters)")
    print(f"[{workload}]   op_p50_s          {e2e['op_p50_s']:.6f} s")
    print(f"[{workload}]   op_tail_s         {value:.6f} s  (p{pct:.1f}, 10 of {len(times)} samples beyond it)")
    print(f"[{workload}]   work_per_s        {e2e['work_per_s']:.6g} 1/s  ({unit}_per_s)")
    for key, per_op in sorted(raw["summary"].items()):
        if key.endswith("_per_op") and key != f"{unit}_per_op":
            rate = per_op / e2e["op_p50_s"]
            print(f"[{workload}]   {key[:-7]}_per_s{'':<{max(1, 12 - len(key[:-7]))}}{rate:.6g} 1/s  (at the median operation)")
    print(f"[{workload}]   peak_rss_mb       {e2e['peak_rss_mb']:.3f} MB")
    print(f"[{workload}]   failed_ops_ratio  {raw['failed'] / raw['attempted']:.6g}  ({raw['failed']}/{raw['attempted']})")
    checks = ", ".join(f"{k}={v}" for k, v in sorted(raw["summary"].items()))
    print(f"[{workload}]   checks: {checks}")
    for error in raw["errors"]:
        print(f"[{workload}]   failure: {error}")
    if trace:
        print(f"[{workload}] traced operations: {raw.get('traced_ops', 0)}; spans in {raw.get('spans_path')}")
        for name, value in raw["layers"].items():
            print(f"[{workload}]   {name:<36} {value:.6g}")


def _metrics(raw: dict, trace: bool, catalogue: dict) -> dict:
    values = raw["layers"] if trace else raw["end_to_end"]
    wanted = catalogue["per_layer"] if trace else catalogue["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise BenchError(f"the run produced no value for {entry['name']}")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="slabpricing benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slabpricing" / "__init__.py").is_file():
        print(f"error: no slabpricing source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        catalogue = _catalogue()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, trace)
            _report(name, args.seed, raw, trace)
            results[name] = raw
        if len(names) == 1:
            metrics = _metrics(results[names[0]], trace, catalogue)
        else:
            metrics = {
                f"{name}.{key}": value
                for name in names
                for key, value in _metrics(results[name], trace, catalogue).items()
            }
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
