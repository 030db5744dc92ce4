"""Every function in ``src/qsum`` is reached by a command or kept for a reason.

Runs the commands of `_commands` in process under ``sys.setprofile`` and
collects every ``src/qsum`` function they enter: ``validate``, ``solve``,
``sum`` and each ``verify`` suite on ``basic.json`` and ``forcing_only.json``,
the three ``transform`` ops, and ``validate`` and ``solve`` on
``divergent.json``.  The functions never entered must be exactly the keys
of `KEPT`, each with the reason it stays.  So a new function that no
command reaches fails here, and so does a `KEPT` entry that a command now
reaches or that is gone.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import qsum
from qsum import cli

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

PERFBENCH = "perfbench/tracing.py reads its span"

KEPT = {
    "checks.borel_monomials": "acceptance c02 runs it",
    "cli._Parser.error": "error path: a usage error",
    "cli._json_path": "error path: names the node of a schema violation",
    "fourier.FourierSpace.__hash__": "keeps a FourierSpace hashable beside its __eq__; "
                                     "a class that defines __eq__ alone is unhashable",
    "fourier.KernelBand.__len__": "perfbench/tracing.py's convolve_mac hook takes len() of "
                                  "a band",
    "fourier.convolve": "perfbench/tests calls it; acceptance c11's closed form",
    "fourier.inverse_fourier_eval": f"{PERFBENCH}; acceptance c08 and c11",
    "qcore.CoveringPoint.log": "theta_kernel's logarithm",
    "qcore.theta_kernel": f"{PERFBENCH}; test_qcore's kernel values",
    "series.TruncatedSeries.max_abs": "borel_commutation_check's scale; acceptance c03",
    "series.TruncatedSeries.truncated": "apply_H1 and main_equation_residual cut a series "
                                        "longer than N; no command passes one",
    "series.apply_t_sigma": "borel_commutation_check's operator; acceptance c03",
    "series.borel_commutation_check": "acceptance c03",
    "series.deceleration_exponent": "acceptance c03",
    "series.formal_deceleration": "acceptance c03",
    "series.formal_q_borel": "acceptance c03",
    "series.mahler": "acceptance c03",
    "solver._expq_operator_rows": "main_equation_residual's operator rows; acceptance c07",
    "solver.main_equation_residual": f"{PERFBENCH}; acceptance c07",
    "solver.pm_taylor_rows": "test_borel_plane_agreement's symbol product",
    "transforms.ContinuedOmega.rhs_at": f"{PERFBENCH}; eaux2_sector_residual",
    "transforms.ContinuedOmega.values": f"{PERFBENCH}; eaux2_sector_residual",
    "transforms.PolynomialOmega.polynomial": "a polynomial's closed-form Mahler rows; "
                                             "test_transforms' Mahler term",
    "transforms.SeparableOmega.__init__": "acceptance c08's evaluator",
    "transforms.SeparableOmega.ray_values": "acceptance c08's evaluator",
    "transforms.SeparableOmega.values_batch": "acceptance c08's evaluator",
    "transforms.eaux2_sector_residual": "the sector check of ROADMAP item 4",
}

POINTS = ("t_r,t_theta,z_re,z_im\n0.1,0.0,0.3,0.1\n0.05,0.2,-0.4,0.2\n"
          "0.0,1.3,0.3,0.1\n0.1,0.0,0.0,9.5\n99.0,0.0,0.0,0.0\n")


def _commands(tmp: Path) -> list:
    points = tmp / "points.csv"
    points.write_text(POINTS)
    out = []
    for problem in ("basic.json", "forcing_only.json"):
        stem = problem.split(".")[0]
        out += [["validate", problem],
                ["solve", problem, "--out", str(tmp / f"solve-{stem}")],
                ["sum", problem, "--points", str(points), "--out", str(tmp / f"sum-{stem}")]]
        out += [["verify", problem, "--suite", suite, "--out", str(tmp / f"verify-{stem}")]
                for suite in cli.SUITES]
    out += [["transform", "basic.json", "--op", op, "--coeffs", "1,0.5", "--at", "0.3,0.1"]
            for op in ("laplace", "borel", "decelerate")]
    out += [["validate", "divergent.json"],
            ["solve", "divergent.json", "--order", "8", "--direction", "0",
             "--out", str(tmp / "solve-divergent")]]
    return out


def _functions(src: Path) -> set:
    """``module.qualname`` of every named function and method in ``src``."""

    def walk(code):
        yield code
        for c in code.co_consts:
            if inspect.iscode(c):
                yield from walk(c)

    return {f"{path.stem}.{code.co_qualname}"
            for path in src.glob("*.py")
            for code in walk(compile(path.read_text(), str(path), "exec"))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")}


def test_commands_reach_all_but_the_kept(tmp_path, capsys):
    src = Path(qsum.__file__).parent
    # a cached function is entered only on its first call
    for info in pkgutil.iter_modules(qsum.__path__):
        for obj in vars(importlib.import_module(f"qsum.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = _commands(tmp_path)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * (len(commands) - 1) + [cli.EXIT_REGIME]

    reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}"
               for c in entered if Path(c.co_filename).parent == src}
    unreached = _functions(src) - reached
    unkept, stale = sorted(unreached - KEPT.keys()), sorted(KEPT.keys() - unreached)
    assert not unkept, f"reached by no command and not in KEPT: {unkept}"
    assert not stale, f"in KEPT, but reached by a command or gone: {stale}"
