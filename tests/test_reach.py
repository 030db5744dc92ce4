"""Every function, keyword and statement in ``src/qsum`` is used by a command or kept for a reason.

Runs the commands of `_commands` in process under ``sys.settrace`` and
collects every ``src/qsum`` function they enter and every line they run.
The commands are ``validate``, ``solve``, ``sum`` and each ``verify`` suite
on ``basic.json`` and ``forcing_only.json``, the three ``transform`` ops and
a ``--p 3`` deceleration, ``validate`` and ``solve`` on ``divergent.json``,
a usage error, and the inputs the CLI accepts but no shipped fixture gives:
the refused ``violating.json``, a zero problem, a vanishing ``R_D``, a
``values`` profile, one schema-invalid file per schema keyword, ``--format
json``, ``--beta-prime``, a commented points file, a ``QSUM_DATA_DIR``
lookup and an ``--eps-rel`` that takes ``_stabilise`` to its third level.  Each
command's exit code is checked.  ``--threads`` is left out: where
threadpoolctl is installed it would change this process's BLAS pools.

Three levels, each against a reviewed table:

* Functions.  Those never entered must be exactly the keys of `KEPT`.
* Keywords.  At each entry the tracer records which parameters with a
  default are bound to something else (`_differs`).  The parameters of
  entered functions that no command ever sets must be exactly the keys of
  `KEPT_KEYWORDS`: a keyword only tests set is a knob with no caller.  The
  defaults come from the functions and methods (a cached one unwrapped)
  that each module and its classes define, dataclass ``__init__``
  included; closures are out of scope, and a generator is read at every
  resume, so a parameter it rebinds counts as set.
* Statements.  The simple statements of each entered function, nested
  functions included, that no command runs must be exactly the keys of
  `KEPT_STATEMENTS`, ``module.qualname: <first source line, stripped>``.
  Docstrings, ``raise`` statements, blocks that end in a ``raise`` and
  ``except`` bodies are not counted: error paths are safety code.  A
  statement runs if any of its lines does.

So a new function, keyword or branch that no command reaches fails here,
and so does a table entry that a command now reaches or that is gone.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import qsum
from qsum import cli

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")

SRC = Path(qsum.__file__).parent

# perfbench/tests/test_bench.py::test_traced_run_emits_every_layer_metric asserts
# trace.missing_names == 0, so a traced name stays until the benchmark stops tracing it
PERFBENCH = "perfbench traces it by name, and perfbench/tests fails on a missing name"

KEPT_KEYWORDS = {
    "checks._identity(p)": "laplace and borel never read p, and the identities suite "
                           "decelerates at p = 2",
    "qcore.QParams.__init__(k)": "every fixture has k = 1; tests set other orders",
}

KEPT = {
    "checks.borel_monomials": "acceptance c02 runs it",
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
    "transforms.PolynomialOmega.polynomial": "a polynomial's closed-form Mahler rows; "
                                             "test_transforms' Mahler term",
    "transforms.SeparableOmega.__init__": "acceptance c08's evaluator",
    "transforms.SeparableOmega.ray_values": "acceptance c08's evaluator",
    "transforms.SeparableOmega.values_batch": "acceptance c08's evaluator",
}

THREADS = "--threads: threadpoolctl would change this process's BLAS pools"
PAD = "apply_H1 and main_equation_residual pad a shorter series; no command passes one"
PIECES = "a factor past the double range, orders beyond any fixture's; test_series"

KEPT_STATEMENTS = {
    "cli._apply_threads: import threadpoolctl": THREADS,
    "cli._apply_threads: threadpoolctl.threadpool_limits(args.threads)": THREADS,
    'cli._apply_threads: info["applied"] = True': THREADS,
    "geometry.ProblemSpec._symbols: return poly_eval_im(self.Q, m), poly_eval_im(self.R_D, m)":
        "eval_Pm and inv_pm_taylor at m off the spec's grid; test_geometry",
    "qcore._reduce_angle: out += 2.0 * math.pi": "a sector edge below -pi; every command "
                                                 "here asks for direction 0",
    "series.TruncatedSeries.__add__: return NotImplemented": "Python's protocol for a "
                                                             "foreign operand",
    "series.TruncatedSeries.__mul__: return NotImplemented": "Python's protocol: a series "
                                                             "times a series is not defined",
    "series.TruncatedSeries.pad_to: extra = np.zeros((n - self.order,) + self.coeffs.shape[1:], "
    "dtype=complex)": PAD,
    "series.TruncatedSeries.pad_to: return TruncatedSeries(np.concatenate([self.coeffs, extra]), "
    "self.space)": PAD,
    "series._scale_by_exponents: piece = step if rest > 0 else -step": PIECES,
    "series._scale_by_exponents: out[n - 1] *= q ** float(piece)": PIECES,
    "series._scale_by_exponents: rest -= piece": PIECES,
    "transforms._term_sum: quad = quad.refined()": "_T2_NODE_FACTOR is 1; acceptance c09 "
                                                   "doubles the nodes",
}

POINTS = ("t_r,t_theta,z_re,z_im\n0.1,0.0,0.3,0.1\n0.05,0.2,-0.4,0.2\n"
          "0.0,1.3,0.3,0.1\n0.1,0.0,0.0,9.5\n99.0,0.0,0.0,0.0\n")

# one problem file per schema keyword, each failing first on that keyword
SCHEMA_BREAKS = {
    "type": {"alpha_D": "one"},
    "required": {"d_D": None},
    "additionalProperties": {"extra": 1},
    "minimum": {"d_D": 0},
    "exclusiveMinimum": {"params": {"q": 1.0, "k": 1}},
    "minItems": {"Q": []},
    "oneOf": {"forcing": [{"j": 1, "F": {"kind": "gaussian"}}]},
    "const": {"forcing": [{"j": 1, "F": {"kind": "values", "scale": 0.1}}]},
}


def _problems(data: Path) -> None:
    """Write the problem files no fixture gives into ``data``, variations of
    ``forcing_only.json``: a zero problem, one whose ``R_D`` vanishes at
    ``m = 0``, one whose shift coupling has a complex ``values`` profile, and
    the schema breaks."""
    base = json.loads(cli.resolve_input("forcing_only.json").read_text())
    m = cli.load_problem("forcing_only.json")[1].space.m
    gauss = 0.02 * np.exp(-m * m / 2.0)
    values = {"kind": "values", "re": gauss.tolist(), "im": (0.5 * m * gauss).tolist()}
    variants = {"zero": {"forcing": []}, "vanishing": {"R_D": [0.0, 1.0]},
                "values": {"terms": [{"l0": 2, "l1": 1, "l2": 1, "R": [1.0, 0.25], "A": values}]}}
    variants.update((f"schema-{k}", v) for k, v in SCHEMA_BREAKS.items())
    for name, change in variants.items():
        raw = {**base, **change}
        (data / f"{name}.json").write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))


def _commands(tmp: Path) -> list:
    """``(argv, exit code)`` of every command the reach run makes; problem
    files that `_problems` writes are found through ``QSUM_DATA_DIR``."""
    points, listed = tmp / "points.csv", tmp / "listed.csv"
    points.write_text(POINTS)
    listed.write_text("# t_r,t_theta,z_re,z_im\n\n0.1,0.0,0.3,0.1\n0.05,0.2,-0.4,0.2\n")
    ok, out = cli.EXIT_OK, []
    for problem in ("basic.json", "forcing_only.json"):
        stem = problem.split(".")[0]
        out += [(["validate", problem], ok),
                (["solve", problem, "--out", str(tmp / f"solve-{stem}")], ok),
                (["sum", problem, "--points", str(points), "--out", str(tmp / f"sum-{stem}")], ok)]
        out += [(["verify", problem, "--suite", suite, "--out", str(tmp / f"verify-{stem}")], ok)
                for suite in cli.SUITES]
    out += [(["transform", "basic.json", "--op", op, "--coeffs", "1,0.5", "--at", "0.3,0.1"], ok)
            for op in ("laplace", "borel", "decelerate")]
    out += [(["transform", "basic.json", "--op", "decelerate", "--p", "3", "--coeffs", "1,0.5",
              "--at", "0.3,0.1"], ok)]
    out += [(["validate", "divergent.json"], ok),
            (["solve", "divergent.json", "--order", "8", "--direction", "0",
              "--out", str(tmp / "solve-divergent")], cli.EXIT_REGIME),
            (["solve", "basic.json", "--order", "0", "--out", str(tmp / "unused")], cli.EXIT_USAGE)]
    # the options and inputs no command above gives
    out += [(["--format", "json", "sum", "forcing_only.json", "--points", str(listed),
              "--beta-prime", "0.4", "--out", str(tmp / "sum-json")], ok),
            (["solve", "values.json", "--order", "4", "--z-points", "3",
              "--out", str(tmp / "solve-values")], ok),
            (["sum", "basic.json", "--points", str(points), "--eps-rel", "3e-14",
              "--out", str(tmp / "sum-eps")], ok),
            (["validate", "vanishing.json"], cli.EXIT_SPEC)]
    out += [(["validate", f"schema-{k}.json"], cli.EXIT_SPEC) for k in SCHEMA_BREAKS]
    out += [(["solve", "violating.json", "--out", str(tmp / "unused")], cli.EXIT_SPEC),
            (["sum", "violating.json", "--points", str(points)], cli.EXIT_SPEC),
            (["verify", "violating.json", "--suite", "theorem2"], cli.EXIT_SPEC),
            (["verify", "violating.json", "--suite", "geometry"], cli.EXIT_VERIFY)]
    out += [(["verify", "zero.json", "--suite", suite], ok) for suite in ("theorem2", "asymptotics")]
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


def _checked(body: list, qualname: str):
    """``(qualname, statement)`` for each simple statement of ``body`` that a
    command must run, nested functions' included: not a docstring or a
    ``raise``, nor in an ``except`` body or a block that ends in a ``raise``."""
    for stmt in body:
        if isinstance(stmt, ast.Raise) or (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        if isinstance(stmt, ast.FunctionDef):
            yield from _checked(stmt.body, f"{qualname}.<locals>.{stmt.name}")
            continue
        blocks = [getattr(stmt, f, None) for f in ("body", "orelse", "finalbody")]
        if not any(b is not None for b in blocks):
            yield qualname, stmt
        for block in filter(None, blocks):
            if not isinstance(block[-1], ast.Raise):
                yield from _checked(block, qualname)


def _statements(src: Path) -> dict:
    """Top-level ``module.qualname`` -> ``(path, key, first line, last line)``
    of each statement `_checked` finds in that function or method of ``src``."""
    out = {}
    for path in src.glob("*.py"):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{d.name}", d) for d in node.body
                        if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for name, fn in defs:
                out[f"{path.stem}.{name}"] = [
                    (str(path), f"{path.stem}.{qual}: {lines[s.lineno - 1].strip()}",
                     s.lineno, s.end_lineno)
                    for qual, s in _checked(fn.body, name)]
    return out


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The codes the commands enter, the ``(code, parameter)`` pairs they set
    off their defaults, and the ``(file, line)`` pairs of ``src/qsum`` they run."""
    defaults, entered, set_off, ran = _keyword_defaults(), set(), set(), set()
    src = str(SRC)

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        entered.add(code)
        if code in defaults:
            bound = frame.f_locals
            set_off.update((code, name) for name, default in defaults[code][1].items()
                           if _differs(bound[name], default))
        return lines if code.co_filename.startswith(src) else None

    tmp = tmp_path_factory.mktemp("reach")
    data = tmp / "data"
    data.mkdir()
    _problems(data)
    commands = _commands(tmp)
    # a cached function is entered only on its first call
    for info in pkgutil.iter_modules(qsum.__path__):
        for obj in vars(importlib.import_module(f"qsum.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    previous = sys.gettrace()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QSUM_DATA_DIR", str(data))
        sys.settrace(calls)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [cli.main(argv) for argv, _ in commands]
        finally:
            sys.settrace(previous)
    assert codes == [code for _, code in commands]
    return entered, set_off, defaults, ran


def test_commands_reach_all_but_the_kept(traffic):
    entered = traffic[0]
    reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}"
               for c in entered if Path(c.co_filename).parent == SRC}
    unreached = _functions(SRC) - reached
    unkept, stale = sorted(unreached - KEPT.keys()), sorted(KEPT.keys() - unreached)
    assert not unkept, f"reached by no command and not in KEPT: {unkept}"
    assert not stale, f"in KEPT, but reached by a command or gone: {stale}"


def test_commands_set_every_keyword_but_the_kept(traffic):
    entered, set_off, defaults, _ = traffic
    never = {f"{name}({param})"
             for code, (name, params) in defaults.items() if code in entered
             for param in params if (code, param) not in set_off}
    unkept, stale = sorted(never - KEPT_KEYWORDS.keys()), sorted(KEPT_KEYWORDS.keys() - never)
    assert not unkept, f"set by no command and not in KEPT_KEYWORDS: {unkept}"
    assert not stale, f"in KEPT_KEYWORDS, but set by a command or gone: {stale}"


def test_commands_run_every_statement_but_the_kept(traffic):
    entered, ran = traffic[0], traffic[3]
    functions = {f"{Path(c.co_filename).stem}.{c.co_qualname.split('.<locals>.')[0]}"
                 for c in entered if Path(c.co_filename).parent == SRC}
    never = {key for name, stmts in _statements(SRC).items() if name in functions
             for path, key, first, last in stmts
             if not any((path, n) in ran for n in range(first, last + 1))}
    unkept = sorted(never - KEPT_STATEMENTS.keys())
    stale = sorted(KEPT_STATEMENTS.keys() - never)
    assert not unkept, f"run by no command and not in KEPT_STATEMENTS: {unkept}"
    assert not stale, f"in KEPT_STATEMENTS, but run by a command or gone: {stale}"
