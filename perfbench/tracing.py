"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's side: every public callable of the
``qsum`` layer modules is replaced, in every module namespace that holds it,
by a wrapper that times and counts the call.  Nothing inside the package is
edited.  Wrappers are installed only for a traced pass and removed after it,
so untraced passes run the unmodified code.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` names the benchmark operation that
caused it.  Self time is a span's duration minus the durations of its direct
children; calls are strictly nested in this single-threaded process, so that
equals the duration minus the time covered by child spans.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("qcore", "series", "fourier", "geometry", "solver", "transforms", "cli")

# Methods are wrapped only for the evaluator and quadrature classes of
# ``transforms``: the per-layer metrics count their calls, while the value
# classes elsewhere (covering points, grids) have accessors called so often
# that wrapping them would measure the tracer rather than the program.
METHOD_LAYERS = ("transforms",)


def _fourier_macs(args, kwargs, result):
    # convolve_values(space, h, g): a direct convolution of two G-point rows
    return {"fourier.convolve_mac": len(args[1]) * len(args[2])}


def _bytes_written(args, kwargs, result):
    return {"cli.bytes_written": os.path.getsize(args[0])}


def _beyond_r0(args, kwargs, result):
    omega, u = args[0], args[1]
    return {"transforms.omega_values_beyond_r0": int(u.r > omega.r0)}


# computed counters attached to single spans: name -> fn(args, kwargs, result)
HOOKS = {
    "fourier.convolve_values": _fourier_macs,
    "cli.write_json": _bytes_written,
    "cli.write_csv": _bytes_written,
    "transforms.ContinuedOmega.values": _beyond_r0,
}


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.op = ""
        self.installed: set[str] = set()
        self._stack: list[list] = []
        self._depth: Counter = Counter()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                dur = end - start
                tracer.spans[idx] = (tracer._name_id(name), start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer._depth[name] -= 1
                if tracer._depth[name] == 0:
                    # inclusive time counts only the outermost of nested calls
                    tracer.incl_s[name] += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if hook is not None:
                tracer.extra.update(hook(args, kwargs, result))
            return result

        return traced

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "extra": dict(self.extra),
        }

    def dump(self, path, **extra) -> None:
        """Write spans and counters (gzip JSON) once the pass is over."""
        payload = {
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "installed": sorted(self.installed),
            **self.stats(),
            **extra,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _targets(mod, layer):
    """Public callables defined in ``mod``: (qualified name, owner, attr, fn)."""
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", mod, attr, obj
        elif (
            inspect.isclass(obj)
            and layer in METHOD_LAYERS
            and not issubclass(obj, BaseException)
        ):
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield f"{layer}.{attr}.{mname}", obj, mname, meth


def install(tracer: Tracer):
    """Wrap every public callable at every layer module that imports it.

    Returns the list of ``(owner, attr, original)`` to pass to `uninstall`.
    """
    mods = {layer: importlib.import_module(f"qsum.{layer}") for layer in LAYERS}
    namespaces = list(mods.values()) + [importlib.import_module("qsum")]
    wrapped = {}
    patches = []
    for layer, mod in mods.items():
        for name, owner, attr, fn in _targets(mod, layer):
            w = tracer.wrap(name, fn)
            tracer.installed.add(name)
            wrapped[id(fn)] = w
            patches.append((owner, attr, fn))
            setattr(owner, attr, w)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            w = wrapped.get(id(obj))
            if w is not None and obj is not w:
                patches.append((ns, attr, obj))
                setattr(ns, attr, w)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def merge(stats_list) -> dict:
    """Sum the counters of several passes or processes."""
    out = {"calls": Counter(), "self_s": Counter(), "incl_s": Counter(), "extra": Counter()}
    for st in stats_list:
        for key in out:
            out[key].update(st.get(key, {}))
    return {k: dict(v) for k, v in out.items()}


def _sum(table, patterns):
    return sum(v for k, v in table.items() if any(fnmatch.fnmatchcase(k, p) for p in patterns))


def _hit_ratio(st):
    beyond = st["extra"].get("transforms.omega_values_beyond_r0", 0)
    rungs = _sum(st["calls"], ("transforms.ContinuedOmega.rhs_at",))
    return 1.0 - rungs / beyond if beyond else 0.0


def _metric(name, unit, better, kind, *patterns):
    if kind == "extra":
        key, patterns = patterns[0], patterns[1:]
        fn = lambda st: st["extra"].get(key, 0)
    else:
        fn = lambda st: _sum(st[kind], patterns)
    return name, unit, better, fn, patterns


# Per-layer metrics of a traced pass.  ``*_s`` is inclusive time of the
# outermost calls, ``*_self_s`` self time; for leaf functions (convolution,
# inverse transform, kernels) the two agree.  The last field lists the span
# names a metric reads, so a renamed or deleted function shows as missing.
LAYER_METRICS = [
    _metric("fourier.convolve_values_calls", "count", "lower", "calls", "fourier.convolve_values"),
    _metric("fourier.convolve_values_s", "s", "lower", "self_s", "fourier.convolve_values"),
    _metric("fourier.convolve_mac", "mac_computed", "lower", "extra",
            "fourier.convolve_mac", "fourier.convolve_values"),
    _metric("fourier.inverse_fourier_calls", "count", "lower", "calls",
            "fourier.inverse_fourier_eval", "fourier.inverse_fourier_table"),
    _metric("fourier.inverse_fourier_s", "s", "lower", "self_s",
            "fourier.inverse_fourier_eval", "fourier.inverse_fourier_table"),
    _metric("solver.apply_H1_calls", "count", "lower", "calls", "solver.apply_H1"),
    _metric("solver.apply_H1_self_s", "s", "lower", "self_s", "solver.apply_H1"),
    _metric("solver.main_equation_residual_s", "s", "lower", "incl_s",
            "solver.main_equation_residual"),
    _metric("series.calls", "count", "lower", "calls", "series.*"),
    _metric("series.self_s", "s", "lower", "self_s", "series.*"),
    _metric("qcore.recip_kernel_log_calls", "count", "lower", "calls", "qcore.recip_kernel_log"),
    _metric("transforms.values_batch_calls", "count", "lower", "calls",
            "transforms.*.values_batch"),
    _metric("qcore.exp_q_calls", "count", "lower", "calls", "qcore.exp_q"),
    _metric("qcore.exp_q_s", "s", "lower", "incl_s", "qcore.exp_q"),
    _metric("qcore.kernel_calls", "count", "lower", "calls",
            "qcore.theta_kernel", "qcore.theta_kernel_log"),
    _metric("qcore.kernel_s", "s", "lower", "self_s",
            "qcore.theta_kernel", "qcore.theta_kernel_log"),
    _metric("transforms.omega_values_calls", "count", "lower", "calls",
            "transforms.ContinuedOmega.values"),
    _metric("transforms.ladder_rungs", "count", "lower", "calls",
            "transforms.ContinuedOmega.rhs_at"),
    ("transforms.ladder_hit_ratio", "ratio", "higher", _hit_ratio,
     ("transforms.ContinuedOmega.values", "transforms.ContinuedOmega.rhs_at")),
    _metric("transforms.gq_sum_s", "s", "lower", "incl_s", "transforms.gq_sum"),
    _metric("transforms.theorem2_residual_s", "s", "lower", "incl_s",
            "transforms.theorem2_residual"),
    _metric("transforms.quad_refinements", "count", "lower", "calls",
            "transforms.RayQuadrature.refined"),
    _metric("geometry.validate_spec_s", "s", "lower", "incl_s", "geometry.validate_spec"),
    _metric("geometry.select_sector_s", "s", "lower", "incl_s", "geometry.select_sector"),
    _metric("geometry.inv_pm_taylor_s", "s", "lower", "incl_s", "geometry.inv_pm_taylor"),
    _metric("geometry.pm_lower_bound_s", "s", "lower", "incl_s",
            "geometry.pm_lower_bound_report"),
    _metric("cli.load_problem_s", "s", "lower", "incl_s", "cli.load_problem"),
    _metric("cli.write_s", "s", "lower", "incl_s", "cli.write_json", "cli.write_csv"),
    _metric("cli.bytes_written", "bytes", "lower", "extra",
            "cli.bytes_written", "cli.write_json", "cli.write_csv"),
]


def layer_metrics(stats: dict, installed) -> tuple[dict, list]:
    """Evaluate `LAYER_METRICS` on merged stats; returns (values, missing)."""
    values, missing = {}, []
    for name, unit, _, fn, patterns in LAYER_METRICS:
        for p in patterns:
            if not any(fnmatch.fnmatchcase(n, p) for n in installed):
                missing.append(p)
        values[name] = {"value": fn(stats), "unit": unit}
    return values, sorted(set(missing))
