"""Per-layer tracing of one rotorkick command, from outside the package.

install() wraps every public function of each package module, and the
methods listed in METHODS, in a span recorder.  A name is patched in every
module that imported it (global_max is looked up through rotorkick.dynamics
and rotorkick.target, kick_unitary through rotorkick.dynamics), so no call
escapes the trace.  Spans stay in memory; summarize() folds them into
per-name call counts, total times and self times, where a span's self time
is its duration minus the durations of its direct child spans.

layer_metrics() turns a summary into the per-layer metrics of the
benchmark, named after the modules.  A metric ending in `_self_s` is a self
time; any other `_s` metric is the total time of the named call, children
included.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "basis", "operators", "evolution", "target", "dynamics", "controllability", "output")

# output.fmt runs once per CSV cell; its cost stays in the self time of write_csv.
SKIP = frozenset({"output.fmt"})

METHODS = (
    ("evolution", "TraceSeries", ("__init__", "values", "value", "derivative")),
    ("operators", "DensityMatrix", ("__post_init__",)),
)

COMPLEX_BYTES = 16  # one complex128 sample of a series evaluation


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Counters read off arguments and results, keyed by span name.
def _kick_unitary(rec, args, kwargs, result):
    rec.kick_keys.add((id(_arg(args, kwargs, 0, "op")), float(_arg(args, kwargs, 1, "amplitude"))))


def _series_init(rec, args, kwargs, result):
    rec.counters["trace_series_terms"] += _arg(args, kwargs, 1, "rho_matrix").size


def _series_values(rec, args, kwargs, result):
    rec.counters["values_points"] += args[0].freqs.size * _arg(args, kwargs, 1, "ts").size


def _run_strategy(rec, args, kwargs, result):
    rec.counters["kicks_fired"] += result[0].n_kicks


def _lie_closure(rec, args, kwargs, result):
    rec.counters["lie_closure_dim_total"] += result[0]


def _build_target(rec, args, kwargs, result, duration):
    rec.counters[f"build_target_{result.scope}_s"] += duration


def _atomic_write(rec, args, kwargs, result):
    rec.counters["bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


HOOKS = {
    "operators.kick_unitary": _kick_unitary,
    "evolution.TraceSeries.__init__": _series_init,
    "evolution.TraceSeries.values": _series_values,
    "dynamics.run_strategy": _run_strategy,
    "controllability.lie_closure": _lie_closure,
    "output.atomic_write_text": _atomic_write,
}
TIMED_HOOKS = {"target.build_target": _build_target}


class Recorder:
    """In-memory spans (name, start, end, parent index) plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.kick_keys: set = set()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        hook, timed_hook = HOOKS.get(name), TIMED_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            if timed_hook is not None:
                timed_hook(self, args, kwargs, result, end - start)
            return result

        return traced

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["kick_unitary_distinct"] = len(self.kick_keys)
        return {"names": summarize(self.spans), "counters": counters, "spans": len(self.spans)}


def summarize(spans) -> dict:
    """Per span name: call count, total time and self time (total minus direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_time[index]
    return out


def install(recorder: Recorder):
    """Patch the package in place; returns a function that undoes every patch."""
    homes = {layer: importlib.import_module(f"rotorkick.{layer}") for layer in LAYERS}
    modules = [m for key, m in sys.modules.items() if key == "rotorkick" or key.startswith("rotorkick.")]
    undo = []
    for layer, home in homes.items():
        for attr, fn in list(vars(home).items()):
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in SKIP or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                continue
            wrapped = recorder.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
                        undo.append((module, key, fn))
    for layer, cls_name, methods in METHODS:
        cls = getattr(homes[layer], cls_name)
        for method in methods:
            original = cls.__dict__[method]
            setattr(cls, method, recorder.wrap(f"{layer}.{cls_name}.{method}", original))
            undo.append((cls, method, original))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def merge(summaries) -> dict:
    """Sum the summaries of several commands (one pass of a workload)."""
    names: dict[str, dict] = {}
    counters: defaultdict[str, float] = defaultdict(float)
    for summary in summaries:
        for name, agg in summary["names"].items():
            into = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                into[key] += value
        for key, value in summary["counters"].items():
            counters[key] += value
    return {"names": names, "counters": dict(counters)}


def _calls(name):
    return lambda s: s["names"].get(name, {}).get("calls", 0)


def _total(name):
    return lambda s: s["names"].get(name, {}).get("total_s", 0.0)


def _self(name):
    return lambda s: s["names"].get(name, {}).get("self_s", 0.0)


def _counter(key):
    return lambda s: s["counters"].get(key, 0)


def _layer_self(layer):
    return lambda s: sum(agg["self_s"] for name, agg in s["names"].items() if name.split(".", 1)[0] == layer)


def _kick_yield(s):
    calls = _calls("dynamics.apply_kick")(s)
    return _counter("kicks_fired")(s) / calls if calls else 0.0


# (metric, unit, better, value from a merged summary); the order of BENCHMARK.json.
PER_LAYER = (
    ("cli.self_s", "s", "lower", _layer_self("cli")),
    ("config.load_config_s", "s", "lower", _total("config.load_config")),
    ("basis.build_basis_calls", "count", "lower", _calls("basis.build_basis")),
    ("basis.build_basis_s", "s", "lower", _total("basis.build_basis")),
    ("operators.kick_unitary_calls", "count", "lower", _calls("operators.kick_unitary")),
    ("operators.kick_unitary_distinct", "count", "lower", _counter("kick_unitary_distinct")),
    ("operators.kick_unitary_s", "s", "lower", _total("operators.kick_unitary")),
    ("operators.observable_matrix_calls", "count", "lower", _calls("operators.observable_matrix")),
    ("operators.observable_matrix_s", "s", "lower", _total("operators.observable_matrix")),
    ("operators.thermal_state_s", "s", "lower", _total("operators.thermal_state")),
    ("operators.density_matrix_builds", "count", "lower", _calls("operators.DensityMatrix.__post_init__")),
    ("operators.density_matrix_s", "s", "lower", _total("operators.DensityMatrix.__post_init__")),
    ("dynamics.run_strategy_self_s", "s", "lower", _self("dynamics.run_strategy")),
    ("dynamics.apply_kick_calls", "count", "lower", _calls("dynamics.apply_kick")),
    ("dynamics.apply_kick_self_s", "s", "lower", _self("dynamics.apply_kick")),
    ("dynamics.free_propagate_calls", "count", "lower", _calls("dynamics.free_propagate")),
    ("dynamics.free_propagate_s", "s", "lower", _total("dynamics.free_propagate")),
    ("dynamics.kicks_fired", "count", "higher", _counter("kicks_fired")),
    ("dynamics.kick_yield", "frac", "higher", _kick_yield),
    ("evolution.trace_series_builds", "count", "lower", _calls("evolution.TraceSeries.__init__")),
    ("evolution.trace_series_build_s", "s", "lower", _total("evolution.TraceSeries.__init__")),
    ("evolution.trace_series_terms", "count", "lower", _counter("trace_series_terms")),
    ("evolution.values_calls", "count", "lower", _calls("evolution.TraceSeries.values")),
    ("evolution.values_points", "count", "lower", _counter("values_points")),
    ("evolution.values_bytes_computed", "bytes", "lower", lambda s: COMPLEX_BYTES * _counter("values_points")(s)),
    ("evolution.values_s", "s", "lower", _total("evolution.TraceSeries.values")),
    ("evolution.value_calls", "count", "lower", _calls("evolution.TraceSeries.value")),
    ("evolution.value_s", "s", "lower", _total("evolution.TraceSeries.value")),
    ("evolution.derivative_calls", "count", "lower", _calls("evolution.TraceSeries.derivative")),
    ("evolution.global_max_calls", "count", "lower", _calls("evolution.global_max")),
    ("evolution.global_max_self_s", "s", "lower", _self("evolution.global_max")),
    ("evolution.golden_max_calls", "count", "lower", _calls("evolution.golden_max")),
    ("evolution.golden_max_s", "s", "lower", _total("evolution.golden_max")),
    ("evolution.measure_above_calls", "count", "lower", _calls("evolution.measure_above")),
    ("evolution.measure_above_self_s", "s", "lower", _self("evolution.measure_above")),
    ("target.build_target_calls", "count", "lower", _calls("target.build_target")),
    ("target.build_target_global_s", "s", "lower", _counter("build_target_global_s")),
    ("target.build_target_blockwise_s", "s", "lower", _counter("build_target_blockwise_s")),
    ("target.duration_above_self_s", "s", "lower", _self("target.duration_above")),
    ("target.bound_sweep_self_s", "s", "lower", _self("target.bound_sweep")),
    ("controllability.lie_closure_calls", "count", "lower", _calls("controllability.lie_closure")),
    ("controllability.lie_closure_s", "s", "lower", _total("controllability.lie_closure")),
    ("controllability.lie_closure_dim_total", "count", "higher", _counter("lie_closure_dim_total")),
    ("controllability.block_trace_rank_s", "s", "lower", _total("controllability.block_trace_rank")),
    ("controllability.fixed_point_analysis_s", "s", "lower", _total("controllability.fixed_point_analysis")),
    ("controllability.is_kick_stationary_s", "s", "lower", _total("controllability.is_kick_stationary")),
    ("output.files_written", "count", "lower", _calls("output.atomic_write_text")),
    ("output.bytes_written", "bytes", "lower", _counter("bytes_written")),
    ("output.write_csv_s", "s", "lower", _total("output.write_csv")),
    ("output.write_json_s", "s", "lower", _total("output.write_json")),
)
OVERHEAD_METRIC = ("trace.overhead_frac", "frac", "lower")


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one merged summary (trace.overhead_frac excluded)."""
    return {name: value(summary) for name, _, _, value in PER_LAYER}


def self_time_total(summary: dict) -> float:
    """Sum of all self times: equals the time spent inside the outermost spans."""
    return sum(agg["self_s"] for agg in summary["names"].values())
