"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The short runs use ``--seconds 0``, which runs one unit of each workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def workdir(request):
    path = BENCH / "_runs" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_runner():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    layer.update(run.EXTRA_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.NAMED_METRICS:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    proc = run_bench(workload, 1)
    result = last_json(proc)
    assert result["correct"], proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["trace.missing_names"]["value"] == 0
    if workload == "cli-forcing":
        # no coupling terms: no convolution and no Mahler contour
        assert metrics["fourier.convolve_values_calls"]["value"] == 0
        assert metrics["transforms.values_batch_calls"]["value"] == 0
        assert metrics["cli.bytes_written"]["value"] > 0
    if workload == "solve-g2001":
        top = next(line for line in proc.stdout.splitlines()
                   if line.startswith("largest self times: "))
        assert top.startswith("largest self times: fourier.convolve_values ")


def test_traced_counts_repeat_exactly():
    def counts(proc):
        return {k: v["value"] for k, v in last_json(proc)["metrics"].items()
                if v["unit"] in ("count", "mac_computed", "bytes")}

    assert counts(run_bench("sum-g601", 1, seed=3)) == counts(run_bench("sum-g601", 1, seed=3))


def test_corrupted_reference_is_a_failure(workdir):
    recorded = json.loads((BENCH / "reference.json").read_text())["sum-g601"]

    rec = workloads.Record()
    workloads.SumWorkload(workloads.DEFAULT_SEED, workdir, recorded).unit(rec, 0)
    assert rec.failures == [] and rec.attempted == 1 + len(recorded["0"])

    corrupted = json.loads(json.dumps(recorded))
    row = corrupted["0"][5]
    row[4] += 10.0 * (row[6] + row[6])  # ten times the combined budget
    rec = workloads.Record()
    workloads.SumWorkload(workloads.DEFAULT_SEED, workdir, corrupted).unit(rec, 0)
    assert len(rec.failures) == 1 and "row 5" in rec.failures[0]


def test_reference_tolerance_is_the_combined_budget():
    ref = (0.1, 0.0, 0.2, 0.0, 1.0, 0.0, 1e-9)
    assert workloads.within_reference((0.1, 0.0, 0.2, 0.0, 1.0 + 1.5e-9, 0.0, 1e-9), ref)
    assert not workloads.within_reference((0.1, 0.0, 0.2, 0.0, 1.0 + 2.5e-9, 0.0, 1e-9), ref)
    assert not workloads.within_reference((0.1, 0.0, 0.3, 0.0, 1.0, 0.0, 1e-9), ref)


GENERATORS = {
    "solve": workloads.solve_problem,
    "sum": lambda seed, unit: workloads.sum_points(seed, unit, 1.06),
    "certify": lambda seed, unit: workloads.certify_points(seed, unit, 1.06),
    "cli": workloads.cli_rows,
}


@pytest.mark.parametrize("name", GENERATORS)
def test_generators_are_deterministic_and_seeded(name):
    gen = GENERATORS[name]
    assert gen(5, 0) == gen(5, 0)
    assert gen(5, 0) != gen(6, 0)
    assert gen(5, 0) != gen(5, 1)


def test_tracer_self_time_and_restore():
    import qsum.fourier
    import qsum.solver

    original = qsum.fourier.convolve_values
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert qsum.solver.convolve_values is qsum.fourier.convolve_values
        assert qsum.fourier.convolve_values is not original
        space = qsum.fourier.make_space(1.0, 3.0, half_width=4.0, n_points=41)
        f = qsum.fourier.FourierFn(space, space.m * 0 + 1.0)
        qsum.fourier.convolve(f, f)
    finally:
        tracing.uninstall(patches)
    assert qsum.fourier.convolve_values is original
    assert qsum.solver.convolve_values is original
    assert tracer.calls["fourier.convolve"] == 1
    assert tracer.calls["fourier.convolve_values"] == 1
    assert tracer.extra["fourier.convolve_mac"] == 41 * 41
    outer = tracer.incl_s["fourier.convolve"]
    inner = tracer.incl_s["fourier.convolve_values"]
    assert tracer.self_s["fourier.convolve"] == pytest.approx(outer - inner)
    names = [tracer.names[s[0]] for s in tracer.spans]
    child = names.index("fourier.convolve_values")
    assert tracer.spans[child][3] == names.index("fourier.convolve")


def test_missing_span_name_is_reported_not_raised():
    stats = tracing.merge([])
    installed = {"fourier.convolve_values"}
    values, missing = tracing.layer_metrics(stats, installed)
    assert values["fourier.convolve_values_calls"]["value"] == 0
    assert "solver.apply_H1" in missing and "fourier.convolve_values" not in missing


def test_fails_without_the_source_tree(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    shutil.copytree(BENCH, workdir / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run_bench("sum-g601", 0, cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
