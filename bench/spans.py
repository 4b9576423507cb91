"""Span tracing of the package's layers, installed from outside the package.

Every public function of the seven modules is wrapped, and the wrapper is
bound on every package module attribute that refers to the function, so a
call reaches the wrapper however the caller imported the name (``exact``
imports ``germ_f`` from ``qfunc``, ``airy`` and ``bose`` import
``piece_nodes`` from ``quad``, ``cli`` imports the evaluators).  A span is
``[name, start, end, parent, job]``; spans stay in memory until the pass
ends.  Spans assume one thread: the benchmark pins ``ASEP_EXACT_THREADS=1``.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the layer's spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time

LAYERS = ("cli", "qfunc", "quad", "exact", "sim", "bose", "airy")

# Metric group -> the wrapped functions whose spans it sums.
GROUPS = {
    "qfunc.poch_inf": ("qfunc.poch_inf",),
    "qfunc.germ": ("qfunc.germ_f", "qfunc.germ_g", "qfunc.germ_h", "qfunc.germ_h0"),
    "exact.halfflat_moment": ("exact.halfflat_moment",),
    "exact.nested_moment": ("exact.nested_moment",),
    "exact.partition_moment": ("exact.partition_moment",),
    "exact.tau_laplace_series": ("exact.tau_laplace_series",),
    "exact.tau_laplace_mb": ("exact.tau_laplace_mb",),
    "sim.mc": ("sim.mc_expectation",),
    "sim.ctmc": ("sim.ctmc_exact_expectation",),
    "airy.cdf": ("airy.halfflat_limit_cdf",),
    "airy.airy_ai": ("airy.airy_ai",),
    "airy.oracles": ("airy.airy_oracles",),
}

# Per-layer metrics of a traced pass: name -> (unit, better).  BENCHMARK.json
# lists the same names under "per_layer".
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.jobs": ("count", "higher"),
    "qfunc.self_s": ("s", "lower"),
    "qfunc.poch_inf.calls": ("count", "lower"),
    "qfunc.poch_inf.elems": ("count", "lower"),
    "qfunc.poch_inf.self_s": ("s", "lower"),
    "qfunc.germ.calls": ("count", "lower"),
    "qfunc.germ.self_s": ("s", "lower"),
    "quad.calls": ("count", "lower"),
    "quad.self_s": ("s", "lower"),
    "exact.self_s": ("s", "lower"),
    "exact.halfflat_moment.self_s": ("s", "lower"),
    "exact.nested_moment.self_s": ("s", "lower"),
    "exact.partition_moment.self_s": ("s", "lower"),
    "exact.tau_laplace_series.self_s": ("s", "lower"),
    "exact.tau_laplace_mb.self_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.mc.self_s": ("s", "lower"),
    "sim.mc.replicas": ("count", "higher"),
    "sim.mc.events_computed": ("count", "higher"),
    "sim.ctmc.self_s": ("s", "lower"),
    "sim.ctmc.states": ("count", "lower"),
    "sim.ctmc.terms_computed": ("count", "lower"),
    "bose.calls": ("count", "lower"),
    "bose.self_s": ("s", "lower"),
    "airy.self_s": ("s", "lower"),
    "airy.cdf.calls": ("count", "lower"),
    "airy.airy_ai.calls": ("count", "lower"),
    "airy.airy_ai.points": ("count", "lower"),
    "airy.airy_ai.self_s": ("s", "lower"),
    "airy.oracles.calls": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

# Reported node_counts that are not one node count per integration axis are
# recorded as reported and flagged, never corrected here.
ORDERS_FLAG = "holds the expansion orders (0..m), not node counts"
PARTITION_FLAG = "holds one axis size per partition"


class Tracer:
    """Records a span around each wrapped call, plus work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.node_counts: list[dict] = []
        self.job: int | None = None
        self._open: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            if count is not None:
                count(self, args, kwargs)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if parent >= 0 and spans[parent][0].startswith("cli."):
                reported = getattr(result, "node_counts", None)
                if reported is not None:
                    self._record_node_counts(name, reported)
            return result

        return wrapper

    def _record_node_counts(self, name: str, reported) -> None:
        counts = [int(n) for n in reported]
        entry = {"job": self.job, "route": name, "node_counts": counts}
        if name == "exact.halfflat_moment" and counts == list(range(len(counts))):
            entry["flag"] = ORDERS_FLAG
        elif name == "exact.partition_moment":
            entry["flag"] = PARTITION_FLAG
        self.node_counts.append(entry)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _work_counters(originals: dict[str, object]) -> dict[str, object]:
    """Counter callbacks keyed by wrapped name; they call only originals.

    A counter whose functions are gone from the package is left out, so its
    metric reads 0 instead of the traced pass failing.
    """
    import numpy as np

    def poch_inf(tracer, args, kwargs):
        tracer.add("qfunc.poch_inf.elems", np.size(args[0] if args else kwargs["a"]))

    def airy_ai(tracer, args, kwargs):
        tracer.add("airy.airy_ai.points", np.size(args[0] if args else kwargs["s"]))

    def mc(tracer, args, kwargs):
        bound = inspect.signature(originals["sim.mc_expectation"]).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        window = a["window"]
        if window is None:
            window = originals["sim.default_window"](a["obs"], a["t"])
        tracer.add("sim.mc.replicas", a["samples"])
        # Expected jump attempts: every particle rings at total rate p + q = 1.
        tracer.add("sim.mc.events_computed", a["samples"] * _particles(window) * a["t"])

    def ctmc(tracer, args, kwargs):
        a = inspect.signature(originals["sim.ctmc_exact_expectation"]).bind(*args, **kwargs)
        left, right = a.arguments["window"]
        n_part = _particles((left, right))
        tracer.add("sim.ctmc.states", math.comb(right - left + 1, n_part))
        tracer.add("sim.ctmc.terms_computed", poisson_terms(n_part * a.arguments["t"]))

    counters = {"qfunc.poch_inf": poch_inf, "airy.airy_ai": airy_ai,
                "sim.ctmc_exact_expectation": ctmc}
    if "sim.default_window" in originals:
        counters["sim.mc_expectation"] = mc
    return counters


def _particles(window) -> int:
    """Half-flat data: one particle on each positive even site of the window."""
    return max(0, int(window[1]) // 2)


def poisson_terms(mu: float) -> int:
    """Terms of the uniformized series until the Poisson(mu) mass reaches 1 - 1e-12."""
    if mu == 0.0:
        return 0
    weight = math.exp(-mu)
    cum, n = weight, 0
    while cum < 1.0 - 1e-12:
        n += 1
        weight *= mu / n
        cum += weight
    return n


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layers on every module that holds it."""
    modules = [importlib.import_module("asep_exact." + layer) for layer in LAYERS]
    originals: dict[str, object] = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                originals[f"{layer}.{attr}"] = obj
    counters = _work_counters(originals)
    wrappers = {id(fn): tracer.wrap(name, fn, counters.get(name))
                for name, fn in originals.items()}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace.overhead_s is added later)."""
    own = self_times(tracer.spans)
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    for span, t_self in zip(tracer.spans, own):
        self_by_name[span[0]] = self_by_name.get(span[0], 0.0) + t_self
        calls_by_name[span[0]] = calls_by_name.get(span[0], 0) + 1

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_sum(self_by_name, layer)
        out[f"{layer}.calls"] = layer_sum(calls_by_name, layer)
    for group, names in GROUPS.items():
        out[f"{group}.self_s"] = sum(self_by_name.get(n, 0.0) for n in names)
        out[f"{group}.calls"] = sum(calls_by_name.get(n, 0) for n in names)
    out["cli.jobs"] = out["cli.calls"]
    for key in ("qfunc.poch_inf.elems", "airy.airy_ai.points", "sim.mc.replicas",
                "sim.mc.events_computed", "sim.ctmc.states", "sim.ctmc.terms_computed"):
        out[key] = tracer.counts.get(key, 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(own)
    return {k: v for k, v in out.items() if k in LAYER_METRICS}
