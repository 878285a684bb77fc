"""Outside-in layer trace for the slabpricing benchmark.

Spans are recorded from the benchmark's own files: every public function of
one slabpricing module that another module (or the benchmark) reaches by
name is replaced, at that caller's binding, with a timing wrapper for the
duration of one traced operation, then restored. The program itself carries
no instrumentation.

Bindings patched:

* every function a module imported by name from another slabpricing module
  (``cli.expected_revenue``, ``revenue.price_response``,
  ``simulate.slab_demand_fn`` ...), and every function the package
  re-exports, which is how the benchmark itself calls the library;
* the intra-module bindings a caller resolves through its own globals:
  ``revenue.expected_revenue`` (called by both optimizer passes) and
  ``cli.write_csv``; plus ``cli.run``, the entry point.

Calls inside one module that are not listed above stay inside their
caller's span, so a layer's self time covers them.

A span is (operation id, span id, parent span id, name, start, end); its
self time is its duration minus the durations of its direct children.
Totals per span name are kept for every traced operation; full span records
are kept in memory for the first traced operation and then until
``keep_spans`` records, and written out by ``write_spans``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

PACKAGE = "slabpricing"
LAYERS = ("scenario", "demand", "price_response", "revenue", "simulate", "equilibrium", "cli")

# functions called through their own module's globals, which the
# cross-module scan below cannot see
_INTRA_MODULE = {
    "revenue": ("expected_revenue",),
    "cli": ("write_csv", "run"),
}

_BATCH_TRIALS = 65536  # simulate's batch size; batch bytes are computed from it
_BYTES_PER_DRAW = 9  # one float64 uniform plus one bool acceptance flag


def _layer_of(fn: Callable) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    head, _, tail = module.rpartition(".")
    return tail if head == PACKAGE and tail in LAYERS else None


def _on_estimate(counters: dict, args: tuple, result: Any) -> None:
    config = args[0]
    k = config.plan.reachable_slabs
    counters["simulate.trials"] += result.trials
    counters["simulate.draws"] += result.trials * k
    counters[f"simulate.draws_at_k.{k}"] += result.trials * k
    visited = sum((j + 1) * c for j, c in enumerate(result.slab_counts[:k]))
    counters["simulate.visited_rungs"] += visited + result.no_purchase_count * k
    batch = min(result.trials, _BATCH_TRIALS) * k * _BYTES_PER_DRAW
    counters["simulate.batch_bytes_computed"] = max(counters["simulate.batch_bytes_computed"], batch)


def _on_expected_revenue(counters: dict, args: tuple, result: Any) -> None:
    counters["revenue.slabs_evaluated"] += args[0].n_slabs


def _on_write_csv(counters: dict, args: tuple, result: Any) -> None:
    counters["cli.rows_written"] += len(args[2])
    counters["cli.bytes_written"] += os.stat(result).st_size


def _on_parse(counters: dict, args: tuple, result: Any) -> None:
    counters["scenario.bytes_parsed"] += os.stat(args[0]).st_size


def _on_solve(counters: dict, args: tuple, result: Any) -> None:
    counters["equilibrium.bisection_steps"] += result.iterations


_HOOKS = {
    "simulate.estimate_expected_revenue_mc": _on_estimate,
    "revenue.expected_revenue": _on_expected_revenue,
    "cli.write_csv": _on_write_csv,
    "scenario.parse_scenario": _on_parse,
    "equilibrium.solve_equilibrium": _on_solve,
}


class Tracer:
    """Span recorder. Install around one operation with ``operation()``."""

    def __init__(self, keep_spans: int = 200_000) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.ops = 0
        self.op_seconds: list[float] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._record = True
        self._patches = self._find_bindings()

    # -- bindings -----------------------------------------------------------

    def _find_bindings(self) -> list[tuple[Any, str, Callable, Callable]]:
        wrappers: dict[int, Callable] = {}
        patches = []
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        for module in modules:
            own = module.__name__.rpartition(".")[2]
            intra = _INTRA_MODULE.get(own, ())
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if module.__name__ != PACKAGE and layer == own and attr not in intra:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(f"{layer}.{value.__name__}", value)
                patches.append((module, attr, value, wrappers[id(value)]))
        return patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- spans --------------------------------------------------------------

    def _enter(self) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, stats: list, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        duration = t1 - t0
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if self._record:
            self.spans.append((self.ops, frame[1], frame[2], name, t0, t1))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        hook = _HOOKS.get(name)
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, stats)

        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, stats, frame, t0, perf_counter())
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable, stats: list) -> Callable:
        """Each ``__next__`` of the generator is one span."""
        counters = self.counters

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(name, stats, frame, t0, perf_counter())
                counters[f"{name}.items"] += 1
                yield item

        return traced

    @contextlib.contextmanager
    def operation(self) -> Iterator[None]:
        """Install the wrappers and time one operation as the root span
        ``bench.operation``."""
        self.install()
        frame = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._exit("bench.operation", self.stats["bench.operation"], frame, t0, t1)
            self.uninstall()
            self.op_seconds.append(t1 - t0)
            self.ops += 1
            self._next_id = 0
            self._record = len(self.spans) < self.keep_spans

    def write_spans(self, path: os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, span, parent, name, t0, t1 in self.spans:
                handle.write(f"{op}\t{span}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer over all traced operations; the key
        ``bench`` holds the root spans' self time (harness glue)."""
        totals: dict[str, float] = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            totals[name.partition(".")[0]] += self_s
        return totals
