"""Every function and keyword in ``src/qsum`` is used by a command or kept for a reason.

Runs the commands of `_commands` in process under ``sys.setprofile`` and
collects every ``src/qsum`` function they enter: ``validate``, ``solve``,
``sum`` and each ``verify`` suite on ``basic.json`` and ``forcing_only.json``,
the three ``transform`` ops and a ``--p 3`` deceleration, and ``validate``
and ``solve`` on ``divergent.json``.  The functions never entered must be
exactly the keys of `KEPT`, each with the reason it stays.  So a new
function that no command reaches fails here, and so does a `KEPT` entry
that a command now reaches or that is gone.

The same run records, at each entry, which parameters with a default are
bound to something else (`_differs`).  The parameters of entered functions
that no command ever sets must be exactly the keys of `KEPT_KEYWORDS`: a
keyword only tests set is a knob with no caller.  The defaults come from the
functions and methods (a cached one unwrapped) that each module and its
classes define, dataclass ``__init__`` included; closures are out of scope,
and a generator is read at every resume, so a parameter it rebinds counts
as set.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import pytest

import qsum
from qsum import cli

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

PERFBENCH = "perfbench/tracing.py reads its span"

KEPT_KEYWORDS = {
    "checks._identity(p)": "laplace and borel never read p, and the identities suite "
                           "decelerates at p = 2",
    "errors.QsumError.__init__(witness)": "error path: a witness comes with a failure "
                                          "that no command here provokes",
    "qcore.QParams.__init__(k)": "every fixture has k = 1; tests set other orders",
    "transforms.deceleration_integral(f_disc_radius)": "every transform input is an "
                                                       "entire polynomial, with no disc",
}

KEPT = {
    "checks.borel_monomials": "acceptance c02 runs it",
    "cli._Parser.error": "error path: a usage error",
    "cli._json_path": "error path: names the node of a schema violation",
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
    out += [["transform", "basic.json", "--op", "decelerate", "--p", "3", "--coeffs", "1,0.5",
             "--at", "0.3,0.1"]]
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


def _keyword_defaults() -> dict:
    """Code object -> ``(module.qualname, {parameter: default})`` of every
    function and method defined in ``src/qsum`` that has a defaulted parameter."""
    out = {}
    for info in pkgutil.iter_modules(qsum.__path__):
        module = importlib.import_module(f"qsum.{info.name}")
        objs = [o for o in vars(module).values() if getattr(o, "__module__", None) == module.__name__]
        objs += [m for c in objs if inspect.isclass(c) for m in vars(c).values()]
        for obj in objs:
            fn = inspect.unwrap(getattr(obj, "__func__", obj))
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            defaults = {name: p.default for name, p in inspect.signature(fn).parameters.items()
                        if p.default is not p.empty}
            if defaults:
                out[fn.__code__] = (f"{info.name}.{fn.__qualname__}", defaults)
    return out


def _differs(value, default) -> bool:
    """Not the default: not it, nor, for int/float/str/bool, equal to it."""
    scalar = (int, float, str, bool)
    return value is not default and not (
        isinstance(default, scalar) and isinstance(value, scalar) and value == default)


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The codes the commands enter and the ``(code, parameter)`` pairs they
    set off their defaults."""
    # a cached function is entered only on its first call
    for info in pkgutil.iter_modules(qsum.__path__):
        for obj in vars(importlib.import_module(f"qsum.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    defaults, entered, set_off = _keyword_defaults(), set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add(code)
            if code in defaults:
                bound = frame.f_locals
                set_off.update((code, name) for name, default in defaults[code][1].items()
                               if _differs(bound[name], default))

    commands = _commands(tmp_path_factory.mktemp("reach"))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [cli.EXIT_OK] * (len(commands) - 1) + [cli.EXIT_REGIME]
    return entered, set_off, defaults


def test_commands_reach_all_but_the_kept(traffic):
    entered = traffic[0]
    src = Path(qsum.__file__).parent
    reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}"
               for c in entered if Path(c.co_filename).parent == src}
    unreached = _functions(src) - reached
    unkept, stale = sorted(unreached - KEPT.keys()), sorted(KEPT.keys() - unreached)
    assert not unkept, f"reached by no command and not in KEPT: {unkept}"
    assert not stale, f"in KEPT, but reached by a command or gone: {stale}"


def test_commands_set_every_keyword_but_the_kept(traffic):
    entered, set_off, defaults = traffic
    never = {f"{name}({param})"
             for code, (name, params) in defaults.items() if code in entered
             for param in params if (code, param) not in set_off}
    unkept, stale = sorted(never - KEPT_KEYWORDS.keys()), sorted(KEPT_KEYWORDS.keys() - never)
    assert not unkept, f"set by no command and not in KEPT_KEYWORDS: {unkept}"
    assert not stale, f"in KEPT_KEYWORDS, but set by a command or gone: {stale}"
