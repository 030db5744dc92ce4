#!/usr/bin/env python3
"""Mutation check: how many tier-1 tests each hand-written mutant fails.

Copies ``src/`` to a temporary directory, applies one single-line text
mutation to that copy (never to the working tree), and runs the tier-1
suite against the copy through ``PYTHONPATH``.  A mutant that fails no test
survives: the suite cannot see that error.  The unmutated copy runs first,
so a broken baseline shows before any mutant does.  With ``--verify`` each
copy also runs ``qsum verify basic.json`` for every suite, and the table
lists the suites that fail (exit code other than 0); a mutant that fails
no suite survives ``qsum verify``.

    python tools/mutants.py              # baseline, then every mutant
    python tools/mutants.py NAME ...     # baseline, then the named mutants
    python tools/mutants.py --verify     # also run every verify suite

Each run is the whole tier-1 suite, about 20 s on two cores, plus about
4 s for the verify suites.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str  # occurs exactly once in that file
    new: str


MUTANTS = [
    # the decelerated bracket's log magnitudes, off by 1e-6 relative
    Mutant(
        "decel-logmag",
        "qsum/transforms.py",
        "    logmag = params.log_q * np.array(",
        "    logmag = 1e-6 + params.log_q * np.array(",
    ),
    # the coupling terms of the summed equation lose their exp_q division
    Mutant(
        "coupling-no-expq",
        "qsum/transforms.py",
        'jobs.append((f"coupling{i}", omega, term, expq, None))',
        'jobs.append((f"coupling{i}", omega, term, None, None))',
    ),
    # the m-multiplier (the lhs and dominant symbols) is ignored in _profile
    Mutant(
        "profile-no-m-mult",
        "qsum/transforms.py",
        "        rows *= m_mult[None, :]",
        "        rows = rows",
    ),
    # every coupling bracket's q^{-e(l0)} at the wrong order: the ray rows,
    # the continuation's rungs and the contour rows share it
    Mutant(
        "shift-borel-exponent",
        "qsum/transforms.py",
        "params.q ** float(borel_exponent(l0, params.k))",
        "params.q ** float(borel_exponent(l0 + 1, params.k))",
    ),
    # the continuation's convolved Mahler rows lose the coupling's symbol R(im)
    Mutant(
        "ladder-mahler-rows",
        "qsum/transforms.py",
        "rows = term.symbol * self.series.coeffs",
        "rows = self.series.coeffs",
    ),
    # the continuation's forcing term, off by 1e-6 relative
    Mutant(
        "continuation-forcing",
        "qsum/transforms.py",
        "out.append(_power_sum(*self._forcing,",
        "out.append((1.0 + 1e-6) * _power_sum(*self._forcing,",
    ),
    # the polynomial evaluator sums 16 powers per piece, where a row's last
    # bits depend on the other rows of its batch
    Mutant(
        "power-rows-piece",
        "qsum/transforms.py",
        "_PIECE = 15\n",
        "_PIECE = 16\n",
    ),
    # the series inside r0 (and its Mahler bracket) starts at u^0, not u^1
    Mutant(
        "series-powers",
        "qsum/transforms.py",
        "return np.arange(1, self.series.coeffs.shape[0] + 1), self.series.coeffs",
        "return np.arange(0, self.series.coeffs.shape[0]), self.series.coeffs",
    ),
    # a ladder wave reads the node rows (Mahler, forcing, denominator) one rung off
    Mutant(
        "ladder-node-slice",
        "qsum/transforms.py",
        "[x[a - lo : e - lo] for x in node]",
        "[x[a - lo + 1 : e - lo + 1] for x in node]",
    ),
    # a lattice rung's name keeps the request's own log radius, so the rung
    # is computed at the radius of the request, not at the radius its name
    # gives, and one node gets a rung per float that asks for it
    Mutant(
        "lattice-key",
        "qsum/transforms.py",
        "np.where(on, 0.0, s).tolist()",
        "np.where(on, s - j * self._key_step, s).tolist()",
    ),
    # a ladder wave spans one lattice step more than the smallest drop, so
    # its top rung reads a rung of its own wave
    Mutant(
        "ladder-wave-width",
        "qsum/transforms.py",
        "min(self._drops, default=math.inf)",
        "min(self._drops, default=math.inf) + 1",
    ),
    # a request that extends a half-lattice run stops one rung short of the
    # run's memoised part, so it skips the lowest missing rung
    Mutant(
        "ladder-fill",
        "qsum/transforms.py",
        "and (theta, 0.0, j) not in memo:",
        "and (theta, 0.0, j - 2) not in memo:",
    ),
    # the ray sum kept for the next z forgets which tail sized its window
    Mutant(
        "profile-key",
        "qsum/transforms.py",
        "    key = (t, tail, id(spec))",
        "    key = (t, id(spec))",
    ),
    # the ray probe's lower side starts from a fresh peak, not the one the
    # upper side left, so a peak away from the seed no longer sets its tail
    Mutant(
        "probe-peak",
        "qsum/transforms.py",
        "        peak = next(levels) if peak is None else peak\n",
        "        peak = next(levels) if peak is None else 0.0\n",
    ),
    # every coupling term of the summed equation, off by 1e-6 relative
    Mutant(
        "term-coupling",
        "qsum/transforms.py",
        "        profs = INV_SQRT_2PI * convolve_values(space, ell.band, ell.symbol * profs)",
        "        profs = INV_SQRT_2PI * convolve_values(space, ell.band, ell.symbol * profs)"
        " * (1.0 + 1e-6)",
    ),
    # the Borel-type contour prefactor, off by 1e-6 relative
    Mutant(
        "decel-prefactor",
        "qsum/transforms.py",
        "    pref = -1j * params.q ** (1.0 / (8.0 * k)) * math.sqrt(k)\n",
        "    pref = -1j * params.q ** (1.0 / (8.0 * k)) * math.sqrt(k) * (1.0 + 1e-6)\n",
    ),
    # the deceleration contour's argument shift q^{-k''} at a slightly wrong order
    Mutant(
        "decel-shift",
        "qsum/transforms.py",
        "    shift = params.q ** (-k_dd)",
        "    shift = params.q ** (-k_dd * (1 + 1e-6))",
    ),
    # the sector claims a separation delta1 1% above the one it measured
    Mutant(
        "geometry-delta1",
        "qsum/geometry.py",
        "        delta1=delta1,",
        "        delta1=1.01 * delta1,",
    ),
    # the separation scan keeps the last chunk that attains the minimum, not
    # the first, so equal minima report another nearest pair
    Mutant(
        "scan-tie",
        "qsum/geometry.py",
        "(d[i, j] == best and c < bc)",
        "(d[i, j] == best and c > bc)",
    ),
    # each step of the q-exponential's term recurrence, off by 1e-9 relative,
    # so the series is exp_q(z (1 + 1e-9)) and its zeros move by 1e-9 relative
    Mutant(
        "expq-scale",
        "qsum/qcore.py",
        "        term = term * work / q_number(n, params.q)\n",
        "        term = term * work / q_number(n, params.q) * (1.0 + 1e-9)\n",
    ),
    # the Laplace kernel's Gaussian width, off by 1e-9 relative
    Mutant(
        "kernel-kappa",
        "qsum/qcore.py",
        "    kappa = params.k / (2.0 * params.log_q)\n    return np.exp(-kappa",
        "    kappa = params.k / (2.0 * params.log_q) * (1 + 1e-9)\n    return np.exp(-kappa",
    ),
    # the scalar q-Laplace quadrature, off by 1e-6 relative
    Mutant(
        "laplace-prefactor",
        "qsum/transforms.py",
        "        return complex(pi_qk(params) * _contract(qd.weights() * kern, vals))",
        "        return complex(pi_qk(params) * _contract(qd.weights() * kern, vals) * (1 + 1e-6))",
    ),
    # the quadrature sum drops its last, partial block of nodes
    Mutant(
        "contract-last-block",
        "qsum/fourier.py",
        "    acc = x[:, n:] @ e[n:]",
        "    acc = 0.0 * (x[:, n:] @ e[n:])",
    ),
    # every coupling's Borel-plane exponent E(p), off by 1e-6: the solver's
    # coupling map and the Mahler bracket share it
    Mutant(
        "coupling-exponent",
        "qsum/series.py",
        "    return borel_exponent(p, k) + l1 * p - borel_exponent(l2 * (p + l0), k)\n",
        "    return borel_exponent(p, k) + l1 * p - borel_exponent(l2 * (p + l0), k) + 1e-6\n",
    ),
    # the problem schema walker lets a file carry keys its schema forbids
    Mutant(
        "schema-additional",
        "qsum/cli.py",
        'props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)',
        'props, extra = schema.get("properties", {}), True',
    ),
    # the problem schema walker reads exclusiveMinimum as minimum, so q = 1 passes
    Mutant(
        "schema-exclusive",
        "qsum/cli.py",
        'inst <= schema.get("exclusiveMinimum", math.nan)',
        'inst < schema.get("exclusiveMinimum", math.nan)',
    ),
    # the formal q-Laplace grows at 3/2 of the q-Gevrey rate
    Mutant(
        "formal-laplace-rate",
        "qsum/series.py",
        "W, [borel_exponent(n, k) for n in range(1, W.order + 1)], params.q",
        "W, [borel_exponent(n, k) * 3 / 2 for n in range(1, W.order + 1)], params.q",
    ),
    # a forward wave spans one order more than the smallest drop, so its top
    # order reads a source of its own wave before that source is filled
    Mutant(
        "wave-width",
        "qsum/solver.py",
        "    width = _smallest_drop(ctx)",
        "    width = _smallest_drop(ctx) + 1",
    ),
    # the Picard sweeps stop at a small step instead of a zero one, short of
    # the fixed point's bits in the far tails of the top orders
    Mutant(
        "picard-early-stop",
        "qsum/solver.py",
        "        if delta == 0.0:",
        "        if delta < 1e-12:",
    ),
    # the confirming sweep takes the forward pass's image of a row even where
    # the row it convolves has changed since
    Mutant(
        "sweep-reuse",
        "qsum/solver.py",
        "if k not in seen or not np.array_equal(seen[k][0], rows[j])]",
        "if k not in seen or not True]",
    ),
    # the contraction bound 1e-3 of its value: below the measured step ratio
    Mutant(
        "bound-scale",
        "qsum/solver.py",
        "    return float(np.max(cols, initial=0.0))",
        "    return 1e-3 * float(np.max(cols, initial=0.0))",
    ),
]


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} is not exactly once in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_suite(src: Path) -> tuple[int, int]:
    """Run tier-1 on ``src``; returns (failed or errored, passed)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    counts = dict.fromkeys(("passed", "failed", "error"), 0)
    for n, kind in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts[kind] = int(n)
    if not any(counts.values()):
        raise SystemExit(f"could not read the pytest summary:\n{proc.stdout}{proc.stderr}")
    return counts["failed"] + counts["error"], counts["passed"]


SUITES = ("identities", "geometry", "theorem2", "asymptotics")


def _run_verify(src: Path) -> list[str]:
    """Run every ``qsum verify basic.json`` suite on ``src``; returns the failing ones."""
    env = dict(os.environ, PYTHONPATH=str(src))
    failing = []
    for suite in SUITES:
        proc = subprocess.run(
            [sys.executable, "-m", "qsum.cli", "verify", "basic.json", "--suite", suite],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            failing.append(suite if proc.returncode == 1 else f"{suite}(exit {proc.returncode})")
    return failing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--verify", action="store_true",
                    help="also run every qsum verify suite on basic.json")
    args = ap.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

    survivors, verify_survivors = [], []
    with tempfile.TemporaryDirectory(prefix="qsum-mutants-") as tmp:
        head = f"{'mutant':24s} {'failed':>6s} {'passed':>6s}"
        print(head + ("  verify fails" if args.verify else ""), flush=True)
        for mutant in [None, *chosen]:
            src = Path(tmp) / (mutant.name if mutant else "baseline") / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if mutant:
                _apply(src, mutant)
            failed, passed = _run_suite(src)
            name = mutant.name if mutant else "(baseline)"
            line = f"{name:24s} {failed:6d} {passed:6d}"
            if args.verify:
                failing = _run_verify(src)
                line += "  " + (", ".join(failing) or "-")
                if mutant and not failing:
                    verify_survivors.append(mutant.name)
            print(line, flush=True)
            if mutant and failed == 0:
                survivors.append(mutant.name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
    if verify_survivors:
        print(f"survived qsum verify: {', '.join(verify_survivors)}")
    return 1 if survivors or verify_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
