"""Seeded input generators, workload runners and output checks.

Every workload is a closed loop: the runner starts the next unit of work
only after the previous one has finished, one workload at a time, with at
most one child process alive besides the runner.  A unit is the smallest
piece of work that repeats (one solve, one point batch, one certification
set, one CLI cycle); the main phase runs whole units until ``--seconds``
have passed, and a traced run repeats unit 0 so that its counts repeat
exactly for a given seed.

The program receives only what the generators write: problem files, point
CSVs and the points passed to the library calls.  Library calls go through
module attributes (``solver.solve_fixed_point``, not an imported name) so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "qsum" / "fixtures"
BENCH = Path(__file__).resolve().parent

DEFAULT_SEED = 1
# reference values are recorded for this many units of the default seed
REFERENCE_UNITS = 4

SOLVE_ORDER = 32
SUM_ORDER = 12
CLI_ORDER = 16
T_PER_BATCH = 8
Z_PER_T = 4
CERTIFY_POINTS = 4
CLI_ROWS = 4
CHILD_TIMEOUT_S = 150
# --threads for CLI commands; without threadpoolctl it is only recorded
CLI_THREADS = 1

# CLI defaults that `sum` applies; the in-process batch uses the same ones
SUM_TAIL = 1e-11
SUM_EPS_REL = 1e-8
# c07 rule: relative per-order defect of the assembled series
SOLVE_REL_TOL = 1e-10
# `verify theorem2` rule for problems with coupling terms
CERTIFY_BUDGET_FACTOR = 100.0


def rng_for(workload: str, seed: int, unit: int) -> random.Random:
    """Independent stream per (workload, seed, unit); stable across Pythons."""
    return random.Random(f"{workload}:{seed}:{unit}")


def stratum(rng: random.Random, lo: float, hi: float, j: int, n: int) -> float:
    """A uniform draw from the j-th of n equal slices of [lo, hi].

    Drawing one value per slice gives every batch the same spread of depths,
    so the cost of a batch depends little on the seed while the values
    still do.
    """
    return lo + (hi - lo) * (j + rng.random()) / n


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


# ---------------------------------------------------------------------------
# generators


def solve_problem(seed: int, unit: int) -> dict:
    """A variant of ``basic.json`` on the library default grid (G=2001, M=40).

    Coupling and forcing amplitudes move by up to about 25% around the
    fixture's, which keeps the Picard iteration contracting in six sweeps.
    """
    rng = rng_for("solve-g2001", seed, unit)
    raw = load_fixture("basic.json")
    raw["space"] = {"beta": raw["space"]["beta"], "mu": raw["space"]["mu"]}
    for term in raw["terms"]:
        term["A"]["scale"] = round(rng.uniform(0.015, 0.025), 6)
    scale = rng.uniform(0.08, 0.12)
    raw["forcing"][0]["F"]["scale"] = round(scale, 6)
    raw["forcing"][1]["F"]["scale"] = round(0.5 * scale, 6)
    raw["forcing"][1]["F"]["center"] = round(rng.uniform(0.8, 1.2), 6)
    return raw


def sum_points(seed: int, unit: int, radius: float) -> list[tuple]:
    """``T_PER_BATCH`` values of t, each with ``Z_PER_T`` values of z.

    ``t_r`` lies in [0.05, 0.5] of the certified radius, one value per
    slice, and ``|Im z|`` in the inner 40% of the strip ``beta' = 0.5``.
    """
    rng = rng_for("sum-g601", seed, unit)
    pts = []
    for j in range(T_PER_BATCH):
        t_r = radius * stratum(rng, 0.05, 0.5, j, T_PER_BATCH)
        t_theta = rng.uniform(-0.3, 0.3)
        for _ in range(Z_PER_T):
            pts.append((t_r, t_theta, rng.uniform(-1.0, 1.0), 0.5 * rng.uniform(-0.4, 0.4)))
    return pts


def certify_points(seed: int, unit: int, radius: float) -> list[tuple]:
    """``CERTIFY_POINTS`` points, each with its own t: |t| in [R/16, 0.4 R],
    one value per slice."""
    rng = rng_for("certify-g601", seed, unit)
    return [
        (radius * stratum(rng, 1.0 / 16.0, 0.4, j, CERTIFY_POINTS), rng.uniform(-0.3, 0.3),
         rng.uniform(-0.5, 0.5), 0.5 * rng.uniform(-0.4, 0.4))
        for j in range(CERTIFY_POINTS)
    ]


def cli_rows(seed: int, unit: int) -> list[tuple]:
    """Rows for ``qsum sum``, each with its own t.

    ``t_r`` in [0.05, 0.5], one value per slice, stays inside the certified
    radius of ``forcing_only.json`` (R = 1.06), so every row should come
    back ``ok``.
    """
    rng = rng_for("cli-forcing", seed, unit)
    return [
        (round(stratum(rng, 0.05, 0.5, j, CLI_ROWS), 6), round(rng.uniform(-0.3, 0.3), 6),
         round(rng.uniform(-1.0, 1.0), 6), round(0.5 * rng.uniform(-0.4, 0.4), 6))
        for j in range(CLI_ROWS)
    ]


def write_problem(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=1) + "\n")
    return path


def write_points(path: Path, rows) -> Path:
    lines = ["t_r,t_theta,z_re,z_im"] + [",".join(repr(float(c)) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# bookkeeping


class Record:
    """Operations attempted in one run, their latencies and failures."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.busy_s = 0.0
        self.values: dict[str, list] = {}  # unit -> summed value rows

    def op(self, kind: str, seconds: float | None, problem: str | None = None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.latency.setdefault(kind, []).append(seconds)
        if problem is not None:
            self.failures.append(f"{kind}: {problem}")

    def fail(self, kind: str, exc: BaseException) -> None:
        self.op(kind, None, f"{type(exc).__name__}: {exc}")


def within_reference(row, ref) -> bool:
    """A summed value matches its recorded value within both rows' budgets.

    Rows are ``(t_r, t_theta, z_re, z_im, value_re, value_im, budget)``.
    """
    if tuple(row[:4]) != tuple(ref[:4]):
        return False
    diff = abs(complex(row[4], row[5]) - complex(ref[4], ref[5]))
    return diff <= row[6] + ref[6]


def reference_problem(row, ref_rows, i: int) -> str | None:
    """Why row ``i`` disagrees with the recorded rows, if they exist."""
    if ref_rows is None:
        return None
    if i >= len(ref_rows) or not within_reference(row, ref_rows[i]):
        ref = ref_rows[i] if i < len(ref_rows) else None
        return f"row {i} {tuple(row)} is off the recorded {ref}"
    return None


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    """Common set-up for the workloads that call the library directly."""

    name = ""

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        import numpy as np

        from qsum import cli, geometry, qcore, solver, transforms

        self.np = np
        self.cli, self.geometry, self.qcore = cli, geometry, qcore
        self.solver, self.transforms = solver, transforms
        self.seed = seed
        self.workdir = workdir
        self.reference = reference or {}

    def setup_problem(self) -> Path:
        """``basic.json`` at its fixture grid, written once per run."""
        path = self.workdir / "basic.json"
        if not path.exists():
            write_problem(path, load_fixture("basic.json"))
        return path

    def prepare(self, path: Path):
        """What every command pays first: load, validate, select a sector."""
        _, spec, _ = self.cli.load_problem(str(path))
        report = self.geometry.validate_spec(spec)
        if not report.ok:
            raise ValueError(f"problem fails validation: {[c.name for c in report.failures()]}")
        return spec, self.geometry.select_sector(spec, 0.0)

    def solve(self, rec: Record, spec, cfg, order: int):
        """Spec to checked truncated solution; the solve is one operation.

        Returns the solution and the solve's wall time.
        """
        t0 = time.perf_counter()
        sol = self.solver.solve_fixed_point(spec, cfg, order)
        U = self.solver.assemble_U_hat(sol, spec.params)
        norms = self.solver.main_equation_residual(U, spec, cfg, order)
        dt = time.perf_counter() - t0
        rec.op("solve", dt, self.residual_problem(spec, U, norms, order))
        return sol, dt

    def solve_fixture(self, rec: Record):
        """``basic.json`` at its fixture grid, solved at ``SUM_ORDER``."""
        try:
            spec, cfg = self.prepare(self.setup_problem())
            sol, _ = self.solve(rec, spec, cfg, SUM_ORDER)
        except Exception as exc:  # one failed operation; the run goes on
            rec.fail("solve", exc)
            return None
        return spec, cfg, sol

    def residual_problem(self, spec, U, norms, order) -> str | None:
        """The c07 rule, computed without library calls so that a traced
        pass counts only the program's own work."""
        np = self.np
        weight = spec.space.decay_weight()
        qv = np.polynomial.polynomial.polyval(1j * spec.space.m, np.asarray(spec.Q))
        scale = np.max(weight * np.abs(qv[None, :] * U.coeffs), axis=1)
        top = order - max((t.l0 for t in spec.terms), default=0)
        rel = norms[:top] / np.maximum(scale[:top], 1e-300)
        worst = float(np.max(rel))
        if not math.isfinite(worst) or worst > SOLVE_REL_TOL:
            return f"relative equation residual {worst:.3e} above {SOLVE_REL_TOL:g}"
        return None


class SolveWorkload(InProcess):
    name = "solve-g2001"
    primary = "solve"

    def setup_problem(self) -> Path:
        return write_problem(self.workdir / "problem_0.json", solve_problem(self.seed, 0))

    def unit(self, rec: Record, unit: int) -> None:
        path = write_problem(self.workdir / f"problem_{unit}.json", solve_problem(self.seed, unit))
        try:
            spec, cfg = self.prepare(path)
            rec.busy_s += self.solve(rec, spec, cfg, SOLVE_ORDER)[1]
        except Exception as exc:  # one failed operation; the run goes on
            rec.fail("solve", exc)


class SumWorkload(InProcess):
    name = "sum-g601"
    primary = "sum_point"

    def unit(self, rec: Record, unit: int) -> None:
        solved = self.solve_fixture(rec)
        if solved is None:
            return
        spec, cfg, sol = solved
        pts = sum_points(self.seed, unit, cfg.R)
        rows = self.batch(rec, spec, cfg, sol, pts, self.reference.get(str(unit)))
        rec.values[str(unit)] = rows

    def batch(self, rec: Record, spec, cfg, sol, pts, ref_rows) -> list:
        """A fresh continuation, as `qsum sum` builds, then every point."""
        tr = self.transforms
        beta_prime = 0.5 * spec.space.beta
        t0 = time.perf_counter()
        om = tr.ContinuedOmega(sol, spec, cfg)
        rec.busy_s += time.perf_counter() - t0
        rows = []
        for i, (t_r, t_theta, z_re, z_im) in enumerate(pts):
            try:
                t0 = time.perf_counter()
                v = tr.gq_sum(om, self.qcore.CoveringPoint(t_r, t_theta), complex(z_re, z_im),
                              cfg, spec, beta_prime=beta_prime, tail=SUM_TAIL, eps_rel=SUM_EPS_REL)
                dt = time.perf_counter() - t0
            except Exception as exc:
                rec.fail("sum_point", exc)
                rows.append((t_r, t_theta, z_re, z_im, math.nan, math.nan, 0.0))
                continue
            rec.busy_s += dt
            budget = om.floor_estimate() + SUM_EPS_REL * abs(v)
            row = (t_r, t_theta, z_re, z_im, v.real, v.imag, budget)
            rows.append(row)
            problem = None if math.isfinite(abs(v)) else "non-finite value"
            rec.op("sum_point", dt, problem or reference_problem(row, ref_rows, i))
        return rows


class CertifyWorkload(InProcess):
    name = "certify-g601"
    primary = "certify_point"

    def unit(self, rec: Record, unit: int) -> None:
        solved = self.solve_fixture(rec)
        if solved is None:
            return
        spec, cfg, sol = solved
        t_set = time.perf_counter()
        try:
            t0 = time.perf_counter()
            bound = self.geometry.pm_lower_bound_report(spec, cfg)
            dt = time.perf_counter() - t0
            rec.op("pm_report", dt, self.pm_problem(bound))
        except Exception as exc:
            rec.fail("pm_report", exc)
        beta_prime = 0.5 * spec.space.beta
        for t_r, t_theta, z_re, z_im in certify_points(self.seed, unit, cfg.R):
            pt = [(self.qcore.CoveringPoint(t_r, t_theta), complex(z_re, z_im))]
            try:
                t0 = time.perf_counter()
                rep = self.transforms.theorem2_residual(sol, spec, cfg, pt, beta_prime=beta_prime)
                dt = time.perf_counter() - t0
            except Exception as exc:
                rec.fail("certify_point", exc)
                continue
            row = rep.rows[0]
            problem = None
            if not row["residual"] <= CERTIFY_BUDGET_FACTOR * row["budget"]:
                problem = (f"residual {row['residual']:.3e} above "
                           f"{CERTIFY_BUDGET_FACTOR:g} x budget {row['budget']:.3e}")
            rec.op("certify_point", dt, problem)
        set_s = time.perf_counter() - t_set
        rec.busy_s += set_s
        rec.latency.setdefault("certify_set", []).append(set_s)

    @staticmethod
    def pm_problem(bound) -> str | None:
        if bound.min_margin < 1.0:
            return f"min margin {bound.min_margin:.4g} below 1"
        if not bound.gap_ok:
            return f"corridor gap fails: {bound.gap_detail}"
        if not math.isfinite(bound.far_field_constant):
            return "far-field constant is not finite"
        return None


# ---------------------------------------------------------------------------
# command-line workload


SOLVE_ARTIFACTS = ("omega.json", "U_hat.json", "u_hat.csv", "report.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliWorkload:
    """``forcing_only.json`` through ``python -m qsum.cli`` subprocesses."""

    name = "cli-forcing"
    primary = "cli"

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference or {}
        self.problem = write_problem(workdir / "forcing_only.json", load_fixture("forcing_only.json"))
        # set by a traced pass: every command then writes its trace here
        self.trace_dir: Path | None = None

    def setup_problem(self) -> Path:
        return self.problem

    def command(self, argv: list[str], trace_file: Path | None) -> list[str]:
        if trace_file is None:
            return [sys.executable, "-m", "qsum.cli", *argv]
        return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *argv]

    def run_cli(self, rec: Record, argv: list[str], step: int):
        trace_file = None if self.trace_dir is None else self.trace_dir / f"{step}.json.gz"
        full = ["--threads", str(CLI_THREADS), "--seed", str(self.seed), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(full, trace_file), cwd=self.workdir, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        rec.busy_s += dt
        problem = None
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elif "FAIL" in proc.stdout:
            problem = "output has FAIL rows"
        return dt, problem

    def unit(self, rec: Record, unit: int) -> None:
        out = self.workdir / f"cycle_{unit}"
        points = write_points(self.workdir / f"rows_{unit}.csv", cli_rows(self.seed, unit))
        prob = self.problem.name
        plan = [
            ("cli_validate", ["validate", prob]),
            ("cli_solve", ["solve", prob, "--order", str(CLI_ORDER), "--out", f"{out.name}/solve_a"]),
            ("cli_solve", ["solve", prob, "--order", str(CLI_ORDER), "--out", f"{out.name}/solve_b"]),
            ("cli_sum", ["sum", prob, "--points", points.name, "--out", f"{out.name}/sum"]),
            ("cli_verify", ["verify", prob, "--suite", "identities", "--out", f"{out.name}/verify"]),
        ]
        for step, (label, argv) in enumerate(plan):
            try:
                dt, problem = self.run_cli(rec, argv, step)
            except Exception as exc:
                rec.fail("cli", exc)
                continue
            if problem is None and label == "cli_sum":
                problem = self.sum_problem(rec, unit, out / "sum" / "u_values.csv")
            if problem is None and step == 2:
                problem = self.rerun_problem(out / "solve_a", out / "solve_b")
            rec.op("cli", dt, problem)
            rec.latency.setdefault(label, []).append(dt)
        shutil.rmtree(out, ignore_errors=True)

    def sum_problem(self, rec: Record, unit: int, csv_path: Path) -> str | None:
        rows = []
        for line in csv_path.read_text().splitlines()[2:]:
            cells = line.split(",")
            if cells[-1] != "ok":
                return f"row flagged {cells[-1]!r}: {line}"
            rows.append(tuple(float(c) for c in cells[:7]))
        rec.values[str(unit)] = rows
        ref_rows = self.reference.get(str(unit))
        if ref_rows is not None and len(rows) != len(ref_rows):
            return f"{len(rows)} rows against {len(ref_rows)} recorded"
        for i, row in enumerate(rows):
            problem = reference_problem(row, ref_rows, i)
            if problem is not None:
                return problem
        return None

    @staticmethod
    def rerun_problem(a: Path, b: Path) -> str | None:
        for name in SOLVE_ARTIFACTS:
            if not filecmp.cmp(a / name, b / name, shallow=False):
                return f"rerun of solve changed {name}"
        ids = [json.loads((d / "manifest.json").read_text())["manifest_id"] for d in (a, b)]
        if ids[0] != ids[1]:
            return f"rerun of solve changed manifest_id {ids[0]} -> {ids[1]}"
        return None


WORKLOADS = {
    cls.name: cls for cls in (SolveWorkload, SumWorkload, CertifyWorkload, CliWorkload)
}
