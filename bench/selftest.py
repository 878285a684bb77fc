"""Self-test of the benchmark at reduced input sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload runs
without a failed operation and prints every metric with its unit in both
modes, that a wrong frozen battery hash is counted as a failed operation,
that a different seed changes the generated inputs but not the metric set,
that the traced layers account for the traced time, and that the benchmark
refuses to run, without printing a result, where there is no source tree.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

# the layers expected to carry most of each workload's traced time
DOMINANT = {
    "battery": ("simulate",),
    "mc_deep": ("simulate",),
    "ladder_search": ("revenue",),
    "scenario_sweep": ("demand", "price_response", "cli"),
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_catalogue() -> dict:
    catalogue = run._catalogue()
    expect(
        set(catalogue) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the six keys",
    )
    expect([w["name"] for w in catalogue["workloads"]] == list(run.WORKLOADS), "workloads match the harness")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in catalogue["workloads"]), "each workload has a one-line why")
    names = [m["name"] for m in catalogue["end_to_end"] + catalogue["per_layer"]] + [w["name"] for w in catalogue["workloads"]]
    expect(len(names) == len(set(names)), "every name is used once")
    expect(all(NAME.fullmatch(n) for n in names), "every name keeps to the name format")
    metrics = catalogue["end_to_end"] + catalogue["per_layer"]
    expect(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics), "units and directions are valid")
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "end-to-end bounds are within (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    expect(all(set(m) == {"name", "unit", "better"} for m in catalogue["per_layer"]), "per-layer metrics carry no bound")
    return catalogue


def check_workload(name: str, seed: int, trace: bool, catalogue: dict) -> set[str]:
    raw = run.run_workload(name, seed, seconds=1.0, trace=trace, small=True)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run._report(name, seed, raw, trace)
    metrics = run._metrics(raw, trace, catalogue)
    mode = "traced" if trace else "untraced"
    expect(raw["failed"] == 0 and raw["attempted"] > 0, f"{name} seed {seed} {mode}: {raw['attempted']} operations, none failed")
    expect(
        all(key in printed.getvalue() and metrics[key]["unit"] for key in metrics),
        f"{name} seed {seed} {mode}: every metric is printed with a unit",
    )
    if trace:
        layers = raw["layers"]
        coverage = layers["trace.layer_self_coverage"]
        expect(0.98 <= coverage <= 1.0 + 1e-9, f"{name}: layer self times cover {coverage:.4f} of the traced time")
        share = sum(layers[f"{layer}.self_share"] for layer in DOMINANT[name])
        expect(share > 0.5, f"{name}: {'+'.join(DOMINANT[name])} carry {share:.2f} of the traced time")
    else:
        expect(all(v["value"] > 0 for v in metrics.values()), f"{name} seed {seed}: no end-to-end metric is 0")
    return set(metrics)


def check_wrong_hash() -> None:
    import worker
    import workloads

    frozen = dict(workloads.BATTERY_SHA256)
    frozen["slab_study.csv"] = "0" * 64
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        battery = workloads.Battery(Path(tmp), seed=1, frozen=frozen)
        battery.setup()
        raw = worker.measure(battery, seconds=0.5, trace=False, setup_s=0.0, spans_path=None)
    expect(raw["failed"] > 0 and raw["failed"] == raw["attempted"], f"a wrong frozen hash fails {raw['failed']}/{raw['attempted']} operations")


def check_seeded_inputs() -> None:
    import workloads

    def fingerprint(cls: type, seed: int) -> str:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            workload = cls(Path(tmp), seed, small=True)
            workload.setup()
            if isinstance(workload, workloads.McDeep):
                return repr(workload.configs)
            paths = getattr(workload, "paths", None) or [workload.path]
            return "".join(path.read_text(encoding="utf-8") for path in paths)

    for cls in (workloads.McDeep, workloads.LadderSearch, workloads.ScenarioSweep):
        same = fingerprint(cls, 3) == fingerprint(cls, 3)
        different = fingerprint(cls, 3) != fingerprint(cls, 4)
        expect(same and different, f"{cls.name}: the seed alone fixes the generated inputs")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=120,
        )
    expect(done.returncode != 0 and "{" not in done.stdout, f"without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    catalogue = check_catalogue()
    for name in run.WORKLOADS:
        sets = [check_workload(name, seed, False, catalogue) for seed in (1, 2)]
        expect(sets[0] == sets[1], f"{name}: seeds 1 and 2 print the same end-to-end metric set")
        check_workload(name, 1, True, catalogue)
    check_wrong_hash()
    check_seeded_inputs()
    check_refuses_without_source()
    print(json.dumps({"selftest_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
