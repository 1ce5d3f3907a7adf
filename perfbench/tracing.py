"""Per-layer tracing from outside the package.

`Tracer.install` replaces public functions at the name their caller looks
up (``scenario.solve_power_min``, ``cli.simulate``, ...) with wrappers
that record one span per call: ``(id, parent id, name, start, end)``.
Spans stay in memory and are written out when the traced process ends;
`layer_metrics` turns them, plus the counters the wrappers keep, into the
per-layer metrics of BENCHMARK.json.  A name that a later version of the
package no longer has is skipped, so its metrics read 0.
"""

import functools
import json
import math
import os
import statistics
import time
import weakref

# (module, attribute, span name).  The module is the caller's namespace:
# wrapping `scenario.solve_power_min` catches the calls `scenario` makes.
TARGETS = (
    ("cli", "simulate", "scenario.simulate"),
    ("cli", "sweep_guard_bands", "scenario.sweep_guard_bands"),
    ("cli", "load_bundled_counties", "deployment.load_bundled_counties"),
    ("cli", "emit_report", "reports.emit"),
    ("cli", "emit_guard_sweep", "reports.emit"),
    ("reports", "emit_report", "reports.emit"),
    ("scenario", "simulate", "scenario.simulate"),
    ("scenario", "sweep_guard_bands", "scenario.sweep_guard_bands"),
    ("scenario", "max_feasible_rate", "scenario.max_feasible_rate"),
    ("scenario", "mean_bs_power", "scenario.mean_bs_power"),
    ("scenario", "solve_power_min", "precoder.solve_power_min"),
    ("scenario", "generate_channel", "airlink.generate_channel"),
    ("scenario", "leakage_fraction", "filterbank.leakage_fraction"),
    ("scenario", "build_snapshot", "deployment.build_snapshot"),
    ("scenario", "worst_case_footprint", "deployment.worst_case_footprint"),
    ("scenario", "load_bundled_counties", "deployment.load_bundled_counties"),
    ("scenario", "load_sensor_catalog", "linkbudget.load_sensor_catalog"),
    ("scenario", "net_gain_db", "linkbudget.net_gain_db"),
    ("scenario", "scenario_penetration", "adoption.scenario_penetration"),
)


def _array_bytes(obj) -> int:
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return sum(getattr(v, "nbytes", 0) for v in fields)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._next_id = 1
        self._installed = []
        self.counts = {
            "precoder.iterations": [],
            "precoder.unconverged": 0,
            "precoder.infeasible": 0,
            "filterbank.grid_points": 0,
            "reports.bytes_written": 0,
            "airlink.channel_bytes_held": 0,
        }
        self._channels = set()
        self._leakage_inputs = set()
        self._live_channel_bytes = 0

    def span(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span named `name` and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def install(self, modules: dict):
        """Wrap every target found in `modules` ({short name: module})."""
        hooks = {
            "precoder.solve_power_min": self._on_solve,
            "airlink.generate_channel": self._on_channel,
            "filterbank.leakage_fraction": self._on_leakage,
            "reports.emit": self._on_emit,
        }
        for mod_name, attr, name in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hooks.get(name)))
        filterbank = modules["filterbank"]
        response = getattr(filterbank, "power_response", None)
        if response is not None:
            self._installed.append((filterbank, "power_response", response))
            filterbank.power_response = self._count_grid(response)

    def restore(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _count_grid(self, fn):
        @functools.wraps(fn)
        def wrapper(f_ghz, *args, **kwargs):
            result = fn(f_ghz, *args, **kwargs)
            self.counts["filterbank.grid_points"] += int(getattr(result, "size", 1))
            return result
        return wrapper

    def _on_solve(self, args, kwargs, sol):
        h = args[0] if args else kwargs.get("h")
        g = args[1] if len(args) > 1 else kwargs.get("g")
        # A realization is identified by its gains and leading fading taps.
        self._channels.add(g.tobytes() + h.ravel()[:4].tobytes())
        self.counts["precoder.iterations"].append(sol.iterations)
        self.counts["precoder.unconverged"] += not sol.converged
        self.counts["precoder.infeasible"] += not sol.feasible

    def _on_channel(self, args, kwargs, channel):
        size = _array_bytes(channel)
        self._live_channel_bytes += size
        held = self.counts["airlink.channel_bytes_held"]
        self.counts["airlink.channel_bytes_held"] = max(held, self._live_channel_bytes)
        try:
            weakref.finalize(channel, self._release_channel, size)
        except TypeError:  # not weak-referenceable: count it as held for good
            pass

    def _release_channel(self, size):
        self._live_channel_bytes -= size

    def _on_leakage(self, args, kwargs, profile):
        self._leakage_inputs.add(repr((args, sorted(kwargs.items()))))

    def _on_emit(self, args, kwargs, paths):
        self.counts["reports.bytes_written"] += sum(os.path.getsize(p) for p in paths.values())

    def dump(self, path):
        """Write spans and counters as JSON (called once, at process end)."""
        counts = dict(self.counts)
        counts["precoder.distinct_channels"] = len(self._channels)
        counts["filterbank.distinct_inputs"] = len(self._leakage_inputs)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def percentile(values, q):
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict) -> dict:
    """Per-layer values from one dumped trace of a single timed run.

    Returns {metric name: value}; the caller attaches units.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    child_time = {}
    for sid, parent, name, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    durations = {}
    self_time = {}
    for sid, parent, name, start, end in spans:
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)

    def calls(name):
        return len(durations.get(name, ()))

    def total(name):
        return math.fsum(durations.get(name, ()))

    solve = "precoder.solve_power_min"
    solve_us = [d * 1e6 for d in durations.get(solve, ())]
    iterations = counts["precoder.iterations"]
    leak = "filterbank.leakage_fraction"
    out = {
        f"{solve}.calls": calls(solve),
        f"{solve}.total_s": total(solve),
        f"{solve}.us_p50": percentile(solve_us, 50),
        f"{solve}.us_p99": percentile(solve_us, 99),
        "precoder.iterations_total": sum(iterations),
        "precoder.iterations_mean": sum(iterations) / len(iterations) if iterations else 0.0,
        "precoder.iterations_max": max(iterations, default=0),
        "precoder.unconverged": counts["precoder.unconverged"],
        "precoder.infeasible": counts["precoder.infeasible"],
        "precoder.distinct_channel_share": (counts["precoder.distinct_channels"] / calls(solve)
                                            if calls(solve) else 0.0),
        "airlink.generate_channel.calls": calls("airlink.generate_channel"),
        "airlink.generate_channel.total_s": total("airlink.generate_channel"),
        "airlink.channel_bytes_held": counts["airlink.channel_bytes_held"],
        "scenario.mean_bs_power.self_s": self_time.get("scenario.mean_bs_power", 0.0),
        "scenario.simulate.calls": calls("scenario.simulate"),
        "scenario.simulate.self_s": self_time.get("scenario.simulate", 0.0),
        "scenario.max_feasible_rate.calls": calls("scenario.max_feasible_rate"),
        "scenario.sweep_guard_bands.self_s": self_time.get("scenario.sweep_guard_bands", 0.0),
        f"{leak}.calls": calls(leak),
        f"{leak}.total_s": total(leak),
        f"{leak}.distinct_share": (counts["filterbank.distinct_inputs"] / calls(leak)
                                   if calls(leak) else 0.0),
        "filterbank.grid_points": counts["filterbank.grid_points"],
        "deployment.build_snapshot.calls": calls("deployment.build_snapshot"),
        "deployment.build_snapshot.total_s": total("deployment.build_snapshot"),
        "deployment.worst_case_footprint.calls": calls("deployment.worst_case_footprint"),
        "deployment.worst_case_footprint.total_s": total("deployment.worst_case_footprint"),
        "deployment.load_bundled_counties.total_s": total("deployment.load_bundled_counties"),
        "linkbudget.load_sensor_catalog.total_s": total("linkbudget.load_sensor_catalog"),
        "linkbudget.net_gain_db.calls": calls("linkbudget.net_gain_db"),
        "adoption.scenario_penetration.calls": calls("adoption.scenario_penetration"),
        "reports.emit.total_s": total("reports.emit"),
        "reports.bytes_written": counts["reports.bytes_written"],
        "cli.main.self_s": self_time.get("cli.main", 0.0),
        "trace.run_s": total("run"),
    }
    return out
