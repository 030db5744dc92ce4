"""qsum benchmark runner.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Runs one workload (see README.md) from the repository root, against the
source tree in ``src/``.  With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it repeats unit 0 of the workload, alternating
untraced and traced passes, and reports per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Details of the run (environment, every latency, failures, trace files) go
to ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools are capped through the environment before numpy loads;
# children inherit the caps.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

# metric name -> unit, in the order of BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER_METRICS = {
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.missing_names": "count",
}
# the end-to-end metrics named per workload, printed for humans
NAMED_METRICS = (
    ("setup_s", "s"), ("solve_s", "s"), ("sum_points_per_s", "1/s"),
    ("sum_point_p50_s", "s"), ("sum_point_p90_s", "s"), ("certify_s", "s"),
    ("cli_validate_s", "s"), ("cli_solve_s", "s"), ("cli_sum_s", "s"),
    ("cli_verify_s", "s"), ("peak_rss_mb", "MB"), ("ops_failed_frac", "ratio"),
)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "git_commit": git_commit(),
        "loadavg_before": list(os.getloadavg()),
        "thread_caps": {
            **THREAD_CAPS,
            "cli_threads_flag": {
                "requested": workloads.CLI_THREADS,
                "applied": importlib.util.find_spec("threadpoolctl") is not None,
            },
        },
    }


class SetupProbes:
    """Fresh interpreters timing import + load + validate + select.

    One probe runs before each of the first ``SETUP_REPEATS`` units, so the
    probes sample the same stretch of machine time as the workload does.
    """

    def __init__(self, problem: Path, env: dict):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(problem)]
        self.env = env
        self.results: list[dict] = []

    def take(self) -> None:
        if len(self.results) >= SETUP_REPEATS:
            return
        proc = subprocess.run(self.cmd, capture_output=True, text=True, env=self.env,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def finish(self) -> list[dict]:
        while len(self.results) < SETUP_REPEATS:
            self.take()
        return self.results


def main_phase(wl, rec, seconds: float, probes: SetupProbes) -> None:
    t0 = time.perf_counter()
    unit = 0
    while True:
        probes.take()
        wl.unit(rec, unit)
        unit += 1
        if time.perf_counter() - t0 >= seconds:
            break


def traced_phase(wl, rec, seconds: float, run_dir: Path, probes: SetupProbes):
    """Alternate untraced and traced passes of unit 0 until time is up."""
    untraced, traced, passes = [], [], []
    t0 = time.perf_counter()
    while True:
        probes.take()
        t = time.perf_counter()
        wl.unit(rec, 0)
        untraced.append(time.perf_counter() - t)

        k = len(traced)
        if isinstance(wl, workloads.CliWorkload):
            wl.trace_dir = run_dir / f"trace_pass{k}"
            wl.trace_dir.mkdir()
            t = time.perf_counter()
            wl.unit(rec, 0)
            traced.append(time.perf_counter() - t)
            dumps = [_read_dump(p) for p in sorted(wl.trace_dir.glob("*.json.gz"))]
            wl.trace_dir = None
            stats = tracing.merge(dumps)
            installed = set().union(*(d["installed"] for d in dumps)) if dumps else set()
            n_spans = sum(len(d["spans"]) for d in dumps)
        else:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                t = time.perf_counter()
                wl.unit(rec, 0)
                traced.append(time.perf_counter() - t)
            finally:
                tracing.uninstall(patches)
            if k == 0:
                tracer.dump(run_dir / "trace.json.gz")
            stats, installed, n_spans = tracer.stats(), tracer.installed, len(tracer.spans)
        passes.append((stats, installed, n_spans))
        if time.perf_counter() - t0 >= seconds:
            break
    return untraced, traced, passes


def _read_dump(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def layer_results(untraced, traced, passes, probes):
    per_pass = [tracing.layer_metrics(st, inst) for st, inst, _ in passes]
    metrics = {}
    for name, unit, *_ in tracing.LAYER_METRICS:
        metrics[name] = {
            "value": statistics.median(vals[name]["value"] for vals, _ in per_pass),
            "unit": unit,
        }
    missing = per_pass[0][1]
    counts_repeat = all(st["calls"] == passes[0][0]["calls"] for st, _, _ in passes)
    extra = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.spans": passes[0][2],
        "trace.missing_names": len(missing),
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": EXTRA_LAYER_METRICS[name]}
    top_self = sorted(passes[0][0]["self_s"].items(), key=lambda kv: -kv[1])[:5]
    return metrics, missing, counts_repeat, top_self


def end_to_end(wl, rec, probes) -> tuple[dict, dict]:
    """The JSON metrics and the per-workload named metrics."""
    lat = rec.latency.get(wl.primary, [])
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-forcing" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setup = statistics.median(p["setup_s"] for p in probes)
    # a run without a single timed operation is not correct; its zeros
    # keep the JSON valid
    metrics = {
        "setup_s": setup,
        "op_p50_s": quantile(lat, 0.5) if lat else 0.0,
        "op_p90_s": quantile(lat, 0.9) if lat else 0.0,
        "ops_per_s": len(lat) / rec.busy_s if lat else 0.0,
        "peak_rss_mb": rss_mb,
    }

    def med(kind):
        vals = rec.latency.get(kind)
        return (statistics.median(vals), len(vals)) if vals else None

    named = {
        "setup_s": (setup, len(probes)),
        "solve_s": med("solve"),
        "certify_s": med("certify_set"),
        "cli_validate_s": med("cli_validate"),
        "cli_solve_s": med("cli_solve"),
        "cli_sum_s": med("cli_sum"),
        "cli_verify_s": med("cli_verify"),
        "peak_rss_mb": (rss_mb, 1),
        "ops_failed_frac": (len(rec.failures) / max(rec.attempted, 1), rec.attempted),
    }
    if wl.name == "sum-g601" and lat:
        named["sum_points_per_s"] = (metrics["ops_per_s"], len(lat))
        named["sum_point_p50_s"] = (metrics["op_p50_s"], len(lat))
        named["sum_point_p90_s"] = (metrics["op_p90_s"], len(lat))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, named


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    child_env = workloads.child_env()
    run_dir = BENCH / "_runs" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads((BENCH / "reference.json").read_text()).get(name)
    wl = workloads.WORKLOADS[name](seed, run_dir, reference)
    rec = workloads.Record()

    setup = SetupProbes(wl.setup_problem(), child_env)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    if trace:
        untraced, traced, passes = traced_phase(wl, rec, seconds, run_dir, setup)
        probes = setup.finish()
        metrics, missing, counts_repeat, top_self = layer_results(untraced, traced, passes, probes)
        lines.append(f"traced passes {len(traced)}; unit 0 untraced "
                     f"{statistics.median(untraced):.4f} s, traced {statistics.median(traced):.4f} s")
        lines.append("largest self times: " + ", ".join(f"{k} {v:.4f} s" for k, v in top_self))
        if missing:
            lines.append("missing span names: " + ", ".join(missing))
        if not counts_repeat:
            rec.failures.append("trace: call counts differ between traced passes of unit 0")
        named = {}
    else:
        main_phase(wl, rec, seconds, setup)
        probes = setup.finish()
        metrics, named = end_to_end(wl, rec, probes)
    env["loadavg_after"] = list(os.getloadavg())

    lines.append("env " + json.dumps(env))
    if not trace:
        for key, unit in NAMED_METRICS:
            got = named.get(key)
            if got is None:
                lines.append(f"{key:<18} n/a  (not exercised by {name})")
            else:
                lines.append(f"{key:<18} {got[0]:.6g} {unit}  (n={got[1]})")
    for key, m in metrics.items():
        lines.append(f"metric {key} = {m['value']:.6g} {m['unit']}")
    for f in rec.failures[:20]:
        lines.append(f"FAILED {f}")
    failed = len(rec.failures)
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps({
        **result, "env": env, "named": named, "latency": rec.latency,
        "failures": rec.failures, "values": rec.values, "setup_probes": probes,
    }, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own runner process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qsum" / "__init__.py").is_file():
        print(f"error: no qsum source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    os.environ.update(THREAD_CAPS)
    sys.path[:0] = [str(SRC)]
    sys.exit(main())
