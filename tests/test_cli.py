"""End-to-end coverage of the command line front end.

Runs commands in process through ``main(argv)`` so exit codes and artifact
bytes are asserted directly; one test goes through ``python -m`` to cover
the installed entry point.
"""

import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator
from jsonschema import validate as schema_validate

from qsum import cli, transforms
from qsum.cli import (
    EXIT_OK,
    EXIT_REGIME,
    EXIT_SPEC,
    EXIT_USAGE,
    EXIT_VERIFY,
    load_problem,
    main,
    resolve_input,
    schema_errors,
)
from qsum.errors import BoundViolation, ValidationError
from qsum.fourier import enorm_values
from qsum.geometry import pm_lower_bound_report, poly_eval_im, select_sector
from qsum.series import TruncatedSeries
from qsum.solver import main_equation_residual


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# resolution and validation


def test_validate_basic_passes(capsys):
    assert run("validate", "basic.json") == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio corridor" in out
    assert "FAIL" not in out


def test_validate_violating_fixture_fails(capsys):
    assert run("validate", "violating.json") == EXIT_SPEC
    assert "FAIL" in capsys.readouterr().out


def test_validate_missing_file():
    assert run("validate", "no_such_file.json") == EXIT_SPEC


def test_schema_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"params": {"q": 2.0, "k": 1}}))
    assert run("validate", str(p)) == EXIT_SPEC
    p.write_text("{not json")
    assert run("validate", str(p)) == EXIT_SPEC


# ---------------------------------------------------------------------------
# the problem schema walker, against jsonschema as the oracle

PROBLEM_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/qsum/schemas/problem_spec.schema.json").read_text()
)
FIXTURES = ("basic.json", "divergent.json", "forcing_only.json", "violating.json")
# every property name the schema knows, so added keys reach both profile kinds
SCHEMA_KEYS = sorted(
    {"params", "space", "Q", "R_D", "alpha_D", "d_D", "terms", "forcing", "q", "k", "beta",
     "mu", "half_width", "n_points", "l0", "l1", "l2", "R", "A", "j", "F", "kind", "scale",
     "center", "re", "im", "extra"}
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.sampled_from(["gaussian", "values", "x"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS), kids, max_size=3),
    max_leaves=6,
)


def _node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, (*path, key))


def _number_variants(v):
    out = [-v, 0, 0.0, v - 1, v + 0.5, float(v), str(v), True, False, None, [v]]
    return out + ([int(v)] if isinstance(v, float) and math.isfinite(v) else [])


def _mutate(doc, data):
    """Replace, delete or add one key or item, or change one number."""
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    op = data.draw(st.sampled_from(["replace", "delete", "add", "number"]))
    if op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(SCHEMA_KEYS))] = data.draw(json_values)
        return doc
    if op == "add" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(json_values))
        return doc
    if op == "delete" and path:
        del parent[path[-1]]
        return doc
    if op == "number" and isinstance(node, (int, float)):
        new = data.draw(st.sampled_from(_number_variants(node)))
    else:
        new = data.draw(json_values)
    if not path:
        return new
    parent[path[-1]] = new
    return doc


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_schema_walker_agrees_with_jsonschema(data):
    doc = copy.deepcopy(json.loads(resolve_input(data.draw(st.sampled_from(FIXTURES))).read_text()))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    walker = next(schema_errors(doc, PROBLEM_SCHEMA), None) is None
    assert walker == Draft7Validator(PROBLEM_SCHEMA).is_valid(doc)


def test_schema_walker_accepts_fixtures_and_draft07_integers():
    # 1.0 is an integer in draft-07; True is neither an integer nor a number
    for name in FIXTURES:
        assert next(schema_errors(json.loads(resolve_input(name).read_text()),
                                  PROBLEM_SCHEMA), None) is None
    spec = json.loads(resolve_input("basic.json").read_text())
    spec["params"]["k"] = 1.0
    # -inf is a number, and Q's items have no exclusiveMinimum to be above
    spec["Q"] = [-math.inf, *spec["Q"]]
    assert next(schema_errors(spec, PROBLEM_SCHEMA), None) is None
    for key in ("k", "q"):
        bad = copy.deepcopy(spec)
        bad["params"][key] = True
        assert [p for p, _ in schema_errors(bad, PROBLEM_SCHEMA)] == [("params", key)]


def _set(path, value):
    def edit(spec):
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(path):
    def edit(spec):
        node = spec
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


@pytest.mark.parametrize("edit, where", [
    (_set(("terms", 0, "A", "scale"), "x"), "terms/0/A/scale"),
    (_set(("terms", 0, "A", "kind"), "values"), "terms/0/A/re"),
    (_set(("terms", 1, "l2"), 0), "terms/1/l2"),
    (_set(("params", "q"), 1), "params/q"),
    (_set(("params", "k"), True), "params/k"),
    (_set(("space", "extra"), 1), "space/extra"),
    (_set(("space", "n_points"), 2.5), "space/n_points"),
    (_set(("R_D",), []), "R_D"),
    (_set(("Q", 1), None), "Q/1"),
    (_set(("forcing", 1, "F"), 3), "forcing/1/F"),
    (_drop(("alpha_D",)), "alpha_D"),
    (_drop(("forcing", 0, "j")), "forcing/0/j"),
    (_set(("d_D",), 0), "d_D"),
])
def test_schema_rejection_names_its_json_path(tmp_path, capsys, edit, where):
    spec = json.loads(resolve_input("basic.json").read_text())
    edit(spec)
    assert not Draft7Validator(PROBLEM_SCHEMA).is_valid(spec)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    assert run("validate", str(p)) == EXIT_SPEC
    assert f" {where}: " in capsys.readouterr().err


def test_schema_with_unknown_keyword_is_refused(capsys, monkeypatch):
    # a keyword the walker does not implement refuses the schema, even inside
    # a oneOf branch and even where the file would pass it
    schema = copy.deepcopy(PROBLEM_SCHEMA)
    schema["definitions"]["profile"]["oneOf"][0]["properties"]["kind"]["pattern"] = "^g"
    spec = json.loads(resolve_input("basic.json").read_text())
    with pytest.raises(ValidationError, match="pattern"):
        list(schema_errors(spec, schema))
    assert cli._load_schema("problem_spec.schema.json") is cli._load_schema(
        "problem_spec.schema.json")
    monkeypatch.setattr(cli, "_load_schema", lambda name: schema)
    assert run("validate", "basic.json") == EXIT_SPEC
    assert "schema not supported: ['pattern']" in capsys.readouterr().err


def test_data_dir_resolution(tmp_path, monkeypatch):
    src = resolve_input("basic.json").read_text()
    (tmp_path / "local_name.json").write_text(src)
    monkeypatch.setenv("QSUM_DATA_DIR", str(tmp_path))
    assert run("validate", "local_name.json") == EXIT_OK
    monkeypatch.delenv("QSUM_DATA_DIR")
    with pytest.raises(ValidationError):
        resolve_input("local_name.json")


def test_values_profile_roundtrip(tmp_path):
    spec = json.loads(resolve_input("basic.json").read_text())
    n = spec["space"]["n_points"]
    m = np.linspace(-12.0, 12.0, n)
    spec["forcing"][0]["F"] = {
        "kind": "values",
        "re": (0.1 * np.exp(-(m**2) / 2.0)).tolist(),
        "im": [0.0] * n,
    }
    p = tmp_path / "values.json"
    p.write_text(json.dumps(spec))
    assert run("validate", str(p)) == EXIT_OK


def test_loaded_problems_compare_by_identity():
    # grid-valued fields make field-wise equality ambiguous, so a problem,
    # its terms and its series compare and hash as objects
    a, b = load_problem("basic.json")[1], load_problem("basic.json")[1]
    assert a != b and a == a and b == b
    assert a.terms[0] != b.terms[0] and a.terms[0] == a.terms[0]
    assert len({a, b, a}) == 2
    assert hash(a.terms[0]) == hash(a.terms[0])


def test_even_grid_size_refused(tmp_path, capsys):
    # an even n_points is refused, not silently raised to the next odd count
    spec = json.loads(resolve_input("basic.json").read_text())
    spec["space"]["n_points"] = 600
    p = tmp_path / "even.json"
    p.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", str(p), "--order", "4", "--out", str(out)) == EXIT_SPEC
    assert "n_points must be odd, got 600" in capsys.readouterr().err
    assert not out.exists()
    assert run("validate", str(p)) == EXIT_SPEC


def test_usage_errors(capsys, tmp_path):
    assert run("frobnicate") == EXIT_USAGE
    assert run("verify", "basic.json", "--suite", "bogus") == EXIT_USAGE
    # out-of-range options are refused at parse time, before any solve,
    # with a message naming the option
    pts = tmp_path / "pts.csv"
    pts.write_text("0.01,0.0,0.1,0.0\n")
    for option, argv in (
        ("--order", ["solve", "basic.json", "--order", "0", "--out", str(tmp_path)]),
        ("--order", ["verify", "basic.json", "--suite", "theorem2", "--order", "0"]),
        ("--order", ["sum", "basic.json", "--points", str(pts), "--order", "0"]),
        ("--p", ["transform", "basic.json", "--op", "decelerate",
                 "--coeffs", "1,2", "--at", "0.3,0.1", "--p", "1"]),
        ("--tail", ["sum", "basic.json", "--points", str(pts), "--tail", "0"]),
        ("--eps-rel", ["sum", "basic.json", "--points", str(pts), "--eps-rel", "-1"]),
        ("--threads", ["--threads", "0", "validate", "basic.json"]),
        ("--z-points", ["solve", "basic.json", "--z-points", "0", "--out", str(tmp_path)]),
        ("--direction", ["verify", "basic.json", "--suite", "identities", "--direction", "inf"]),
        ("--direction", ["solve", "basic.json", "--direction", "nan", "--out", str(tmp_path)]),
        ("--beta-prime", ["sum", "basic.json", "--points", str(pts), "--beta-prime", "-1"]),
        ("--beta-prime", ["solve", "basic.json", "--beta-prime", "0", "--out", str(tmp_path)]),
        # checked by the command itself, still before any solve or transform
        ("--beta-prime", ["solve", "basic.json", "--beta-prime", "1", "--out", str(tmp_path)]),
        ("--beta-prime", ["sum", "basic.json", "--points", str(pts), "--beta-prime", "1.5"]),
        ("--at", ["transform", "basic.json", "--op", "laplace", "--coeffs", "1", "--at", "0,0"]),
        ("--coeffs", ["transform", "basic.json", "--op", "laplace",
                      "--coeffs", "nan", "--at", "0.1,0"]),
    ):
        capsys.readouterr()
        assert run(*argv) == EXIT_USAGE
        assert f"argument {option}:" in capsys.readouterr().err
    # every solve ends on the exact fixed point, so no command takes a tolerance
    capsys.readouterr()
    assert run("solve", "basic.json", "--tol", "1e-12", "--out", str(tmp_path)) == EXIT_USAGE
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert run("solve", "forcing_only.json", "--order", "1", "--out", str(tmp_path)) == EXIT_OK
    assert run("transform", "basic.json", "--op", "laplace",
               "--coeffs", "nope", "--at", "0.1,0") == EXIT_USAGE
    assert run("transform", "basic.json", "--op", "laplace",
               "--coeffs", "1.0", "--at", "zzz") == EXIT_USAGE


# ---------------------------------------------------------------------------
# solve artifacts


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve_run")
    code = run("solve", "forcing_only.json", "--order", "8", "--out", str(out))
    assert code == EXIT_OK
    return out


def test_solve_writes_artifacts(solve_run):
    names = {p.name for p in solve_run.iterdir()}
    assert names == {"omega.json", "U_hat.json", "u_hat.csv", "report.json", "manifest.json"}
    manifest = json.loads((solve_run / "manifest.json").read_text())
    mid = manifest["manifest_id"]
    for name in ("omega.json", "U_hat.json", "report.json"):
        assert json.loads((solve_run / name).read_text())["manifest"] == mid
    first = (solve_run / "u_hat.csv").read_text().splitlines()[0]
    assert first == f"# manifest: {mid}"


def test_solve_report_content(solve_run):
    report = json.loads((solve_run / "report.json").read_text())
    assert report["mode"] == "contraction"
    assert report["iterations"] >= 1
    assert report["residual_1R"] <= 1e-10
    omega = json.loads((solve_run / "omega.json").read_text())
    assert omega["order"] == 8
    assert len(omega["coeffs"]["re"]) == 8


def test_manifest_matches_schema(solve_run):
    schema = json.loads(
        (Path(__file__).parent.parent / "src/qsum/schemas/manifest.schema.json").read_text()
    )
    manifest = json.loads((solve_run / "manifest.json").read_text())
    schema_validate(manifest, schema)


def test_solve_rerun_is_byte_identical(solve_run, tmp_path):
    out2 = tmp_path / "again"
    assert run("solve", "forcing_only.json", "--order", "8", "--out", str(out2)) == EXIT_OK
    for name in ("omega.json", "U_hat.json", "u_hat.csv", "report.json"):
        assert (solve_run / name).read_bytes() == (out2 / name).read_bytes()
    a = json.loads((solve_run / "manifest.json").read_text())
    b = json.loads((out2 / "manifest.json").read_text())
    assert a["manifest_id"] == b["manifest_id"]


def test_solve_divergent_exits_regime(tmp_path):
    out = tmp_path / "div"
    assert run("solve", "divergent.json", "--out", str(out)) == EXIT_REGIME
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("order, code", [("2", EXIT_OK)] + [
    (n, EXIT_REGIME) for n in ("3", "4", "6", "8", "10", "12", "16", "32")])
def test_solve_divergent_exits_regime_at_every_order(tmp_path, order, code, capsys):
    # the truncated update is nilpotent, so from order 3 to 10 the Picard
    # sweeps reach a fixed point before three ratios rise; a ratio above 1
    # still refuses it.  At order 2 no coupling reaches the truncation
    out = tmp_path / "div"
    assert run("solve", "divergent.json", "--order", order, "--out", str(out)) == code
    assert (out / "report.json").exists() == (code == EXIT_OK)
    if code == EXIT_REGIME:
        assert "numeric regime failure: NoContraction: " in capsys.readouterr().err


def test_solve_divergent_forced_triangular(tmp_path):
    out = tmp_path / "div"
    code = run("solve", "divergent.json", "--force-triangular", "--out", str(out))
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "triangular" and report["path"] == "forward"
    assert report["residual_1R"] == 0.0


def test_solve_high_order(tmp_path, capsys):
    # order 45 used to hit a q-factorial overflow; it now solves and the
    # assembled series meets the c07 rule, while order 64 stops at the first
    # order whose U_n leaves the double range
    out = tmp_path / "o45"
    assert run("solve", "basic.json", "--order", "45", "--out", str(out)) == EXIT_OK
    _, spec, _ = load_problem("basic.json")
    cfg = select_sector(spec, 0.0)
    coeffs = json.loads((out / "U_hat.json").read_text())["coeffs"]
    U = TruncatedSeries(np.array(coeffs["re"]) + 1j * np.array(coeffs["im"]), spec.space)
    norms = main_equation_residual(U, spec, cfg, 45)
    qv = poly_eval_im(spec.Q, spec.space.m)
    scale = np.array([enorm_values(spec.space, qv * row) for row in U.coeffs])
    top = 45 - max(t.l0 for t in spec.terms)
    assert np.max(norms[:top] / scale[:top]) <= 1e-10
    capsys.readouterr()
    assert run("solve", "basic.json", "--order", "64", "--out", str(tmp_path / "o64")) == EXIT_REGIME
    assert "OverflowFailure: order 47 " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify suites


def test_verify_identities(tmp_path, capsys):
    out = tmp_path / "wit"
    assert run("verify", "basic.json", "--suite", "identities",
               "--out", str(out)) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    lines = (out / "verify_identities.csv").read_text().splitlines()
    assert lines[1].split(",")[:2] == ["check", "detail"]
    assert all(line.endswith("pass") for line in lines[2:])


def test_verify_geometry(capsys):
    assert run("verify", "basic.json", "--suite", "geometry") == EXIT_OK
    out = capsys.readouterr().out
    assert "pm-lower-bound" in out


def test_verify_geometry_bad_spec_exits_verify(capsys):
    assert run("verify", "violating.json", "--suite", "geometry") == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("verify", "violating.json", "--suite", "theorem2"),
    ("verify", "violating.json", "--suite", "asymptotics"),
    ("solve", "violating.json", "--out", "unused"),
    ("sum", "violating.json", "--points", "unused.csv"),
])
def test_solving_commands_refuse_bad_spec(capsys, argv):
    # the shift factor of violating.json is 1, so its continuation ladder
    # would never reach the disc: refused before any work, with the conditions
    assert run(*argv) == EXIT_SPEC
    assert "FAIL  shift-order bound term[0]" in capsys.readouterr().err


def test_verify_theorem2(capsys):
    assert run("verify", "basic.json", "--suite", "theorem2",
               "--order", "12") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass  theorem2-residual") == 3
    # two points at 0.8 R, on the continuation and on the contour bracket
    assert out.count("pass  theorem2-term-gate") == 4
    # points in two orders, on fresh continuations, one t at two tails, ray
    # nodes in one request and one at a time, and one node by two floats
    assert out.count("pass  sum-determinism") == 5
    # c06: the Picard ratio, residual and bound, the forward pass against it
    for name in ("contraction-ratio", "contraction-residual", "contraction-bound",
                 "forward-vs-picard", "forward-waves"):
        assert out.count(f"pass  {name}:") == 1
    # the sector at 1.05, 1.4, 1.9 and 2.5 R: only 1.05 R lies inside the
    # series' 5% radius, and one growth fit over all four
    assert out.count("pass  sector-overlap") == 1
    assert out.count("pass  sector-growth") == 1
    assert "FAIL" not in out


def test_verify_theorem2_sees_bracket_error(capsys, monkeypatch):
    # the closed-form Mahler bracket off by 1e-6 in its log magnitudes: the
    # budget gate at R/8 cannot see it, the term gate on the contour path does
    exact = transforms._decel_logmag
    monkeypatch.setattr(transforms, "_decel_logmag",
                        lambda *args: (exact(*args)[0], exact(*args)[1] + 1e-6))
    assert run("verify", "basic.json", "--suite", "theorem2") == EXIT_VERIFY
    assert "FAIL  theorem2-term-gate: contour" in capsys.readouterr().out


def test_verify_asymptotics(capsys):
    assert run("verify", "basic.json", "--suite", "asymptotics") == EXIT_OK
    assert "gevrey-rate" in capsys.readouterr().out


def _zero_problem(tmp_path) -> str:
    """A schema-valid problem with no terms and no forcing: its solution is 0."""
    raw = json.loads(resolve_input("forcing_only.json").read_text())
    raw["forcing"] = []
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_verify_theorem2_on_the_zero_problem(tmp_path, capsys):
    # every sum is 0: the determinism rows compare zeros, not 0/0
    assert run("verify", _zero_problem(tmp_path), "--suite", "theorem2") == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass  sum-determinism") == 5
    assert "FAIL" not in out and "nan" not in out
    # no coupling or forcing term to gate, and no growth to fit
    assert "theorem2-term-gate" not in out
    assert "sector-growth" not in out


def test_verify_asymptotics_on_the_zero_problem(tmp_path, capsys):
    # every partial sum is exact, so there is no error to fit: no rows
    assert run("verify", _zero_problem(tmp_path), "--suite", "asymptotics") == EXIT_OK
    captured = capsys.readouterr()
    assert "gevrey-rate" not in captured.out
    assert "Traceback" not in captured.err


def test_verify_seed_changes_samples(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run("verify", "basic.json", "--suite", "identities", "--out", str(out1))
    run("--seed", "7", "verify", "basic.json", "--suite", "identities", "--out", str(out2))
    rows1 = (out1 / "verify_identities.csv").read_text().splitlines()[2:]
    rows2 = (out2 / "verify_identities.csv").read_text().splitlines()[2:]
    assert rows1 != rows2
    assert all(r.endswith("pass") for r in rows1 + rows2)


# ---------------------------------------------------------------------------
# sum


def test_sum_flags_and_values(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(
        "t_r,t_theta,z_re,z_im\n"
        "0.1,0.0,0.3,0.1\n"
        "0.0,1.3,0.3,0.1\n"
        "0.1,0.0,0.0,9.5\n"
        "99.0,0.0,0.0,0.0\n"
    )
    out = tmp_path / "sum"
    assert run("sum", "basic.json", "--points", str(pts), "--out", str(out)) == EXIT_OK
    lines = (out / "u_values.csv").read_text().splitlines()
    flags = [line.split(",")[-1] for line in lines[2:]]
    assert flags == ["ok", "ok", "strip", "domain"]
    zero_row = lines[3].split(",")
    assert float(zero_row[4]) == 0.0 and float(zero_row[5]) == 0.0
    ok_row = lines[2].split(",")
    assert abs(float(ok_row[4])) > 1e-6
    assert 0.0 < float(ok_row[6]) < 1e-6


def test_sum_deterministic(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.08,0.1,0.2,0.0\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("sum", "basic.json", "--points", str(pts), "--out", str(out1))
    run("sum", "basic.json", "--points", str(pts), "--out", str(out2))
    assert (out1 / "u_values.csv").read_bytes() == (out2 / "u_values.csv").read_bytes()


def test_sum_without_out_writes_no_file(tmp_path, monkeypatch, capsys):
    # like validate, verify and transform: the rows go to stdout only
    pts = tmp_path / "pts.csv"
    pts.write_text("0.08,0.1,0.2,0.0\n")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run("sum", "basic.json", "--points", str(pts)) == EXIT_OK
    assert capsys.readouterr().out.startswith("0.08,0.1,0.2,0.0,")
    assert list(cwd.iterdir()) == []


def _sum_cells(spec, rows, out):
    """``qsum sum`` on ``rows`` of points: the cells it writes per point."""
    pts = out.with_suffix(".csv")
    pts.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    assert run("sum", spec, "--points", str(pts), "--out", str(out)) == EXIT_OK
    lines = (out / "u_values.csv").read_text().splitlines()[2:]
    cells = {tuple(c[:4]): c[4:] for c in (line.split(",") for line in lines)}
    assert len(cells) == len(rows)
    return cells


@pytest.mark.parametrize("problem", ["basic.json", "forcing_only.json", "shift only",
                                     "mahler only"])
def test_sum_cells_do_not_depend_on_point_order(tmp_path, problem):
    # a summed value is a function of its point: the same cells whichever
    # points come before it, in order, reversed or shuffled.  Eight t on one
    # direction share ladders; four more t carry two z each
    spec = problem
    if " " in problem:
        raw = json.loads(resolve_input("basic.json").read_text())
        raw["terms"] = [t for t in raw["terms"] if (t["l2"] == 1) == (problem == "shift only")]
        spec = str(tmp_path / "spec.json")
        Path(spec).write_text(json.dumps(raw))
    rng = np.random.default_rng(3)
    rows = [(float(t_r), 0.1, 0.2, 0.05) for t_r in np.linspace(0.01, 0.15, 8)]
    for _ in range(4):
        t_r, t_theta = float(rng.uniform(0.05, 0.5)), float(rng.uniform(-0.3, 0.3))
        rows += [(t_r, t_theta, float(rng.uniform(-1, 1)), float(rng.uniform(-0.2, 0.2)))
                 for _ in range(2)]
    orders = {"given": rows, "reversed": rows[::-1],
              "shuffled": [rows[i] for i in rng.permutation(len(rows))]}
    cells = {name: _sum_cells(spec, pts, tmp_path / name) for name, pts in orders.items()}
    assert cells["reversed"] == cells["given"]
    assert cells["shuffled"] == cells["given"]


def test_sum_empty_points_rejected(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("t_r,t_theta\n")
    assert run("sum", "basic.json", "--points", str(pts)) == EXIT_SPEC


def test_sum_stalled_quadrature_is_a_regime_failure(tmp_path, capsys):
    # node doubling cannot settle to 1e-300: exit 3, named as every regime failure is
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.0,0.3,0.1\n")
    assert run("sum", "basic.json", "--points", str(pts), "--eps-rel", "1e-300") == EXIT_REGIME
    assert "numeric regime failure: QuadratureStall: gq_sum: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("O.2,0.0,0.3,0.1", "t_r = 'O.2' is not a number"),
        ("0.1,0.0,0.3,nan", "z_im = 'nan' is not finite"),
        ("-0.1,0.0,0.3,0.1", "t_r = '-0.1' is negative"),
        ("0.1,0.0", "a point needs 4 columns"),
    ],
    ids=["typo", "nan_z", "negative_t_r", "short_row"],
)
def test_sum_bad_row_is_a_usage_error(tmp_path, capsys, row, message):
    # every row is checked before the solve: the bad one is named by line
    # and cell, and nothing is written
    pts = tmp_path / "pts.csv"
    pts.write_text("t_r,t_theta,z_re,z_im\n# comment\n0.1,0.0,0.3,0.1\n" + row + "\n")
    out = tmp_path / "sum"
    code = run("sum", "forcing_only.json", "--points", str(pts), "--out", str(out))
    assert code == EXIT_USAGE
    assert f"line 4: {message}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# transform


def test_transform_ops_match_reference(tmp_path):
    for op, extra in (("laplace", []), ("borel", []), ("decelerate", ["--p", "2"])):
        out = tmp_path / op
        code = run("transform", "basic.json", "--op", op,
                   "--coeffs", "1.0,0.5", "--at", "0.2,0.3", *extra, "--out", str(out))
        assert code == EXIT_OK
        lines = (out / f"transform_{op}.csv").read_text().splitlines()
        row = lines[2].split(",")
        assert float(row[-1]) < 1e-8  # quadrature vs formal reference


def test_transform_json_format(tmp_path):
    out = tmp_path / "t"
    code = run("--format", "json", "transform", "basic.json", "--op", "laplace",
               "--coeffs", "2.0", "--at", "0.1,0.0", "--out", str(out))
    assert code == EXIT_OK
    payload = json.loads((out / "transform_laplace.json").read_text())
    row = payload["rows"][0]
    # first-power monomial factor is q^0, so the value is just 2T
    assert abs(float(row["value_re"]) - 0.2) < 1e-10


# ---------------------------------------------------------------------------
# separation bound witness


def test_bound_violation_carries_witness():
    _, spec, _ = load_problem("basic.json")
    cfg = select_sector(spec, 0.0)
    doctored = dataclasses.replace(cfg, delta1=1e3 * cfg.delta1)
    with pytest.raises(BoundViolation) as err:
        pm_lower_bound_report(spec, doctored)
    tau, m = err.value.witness
    assert np.isfinite(m)
    assert abs(tau) > 0


# ---------------------------------------------------------------------------
# entry point


def test_no_file_imports_scipy():
    # numpy is the one runtime dependency; the q-exponential's zeros are
    # checked against their closed form, with no root finder
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == ["numpy>=1.24"]
    files = [p for d in ("src", "tests") for p in (root / d).rglob("*.py")]
    importers = [str(p.relative_to(root)) for p in files
                 if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(), re.M)]
    assert importers == []


def test_cli_import_loads_no_scipy():
    # no module of the package imports scipy, and a dependency that did would
    # dominate the start-up of every command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsum.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_loads_no_jsonschema():
    # the problem schema is checked by `schema_errors`; jsonschema, with
    # referencing, rpds and attrs behind it, would add ~70 ms to every command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsum.cli; rc = qsum.cli.main(['validate', 'basic.json']); "
         "print(rc, [m for m in sys.modules if m.split('.')[0] in "
         "('jsonschema', 'referencing', 'rpds', 'attrs')])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_solve_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # every grid reduction runs in fixed chunks short enough that OpenBLAS
    # sums them the same way on one thread or on two
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "qsum.cli", "solve", "basic.json",
             "--order", "32", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("omega.json", "U_hat.json", "u_hat.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_sum_and_verify_do_not_depend_on_blas_threads(tmp_path):
    # every ray, contour and inverse-Fourier sum goes through the same
    # fixed-block reduction as the convolution
    rng = np.random.default_rng(1)
    pts = tmp_path / "pts.csv"
    lines = ["t_r,t_theta,z_re,z_im"]
    for j in range(8):  # 8 t in [0.05 R, 0.5 R] of basic.json (R = 1.06), 4 z each
        t_r, t_theta = 1.06 * (0.05 + 0.45 * (j + rng.uniform()) / 8), rng.uniform(-0.3, 0.3)
        for _ in range(4):
            lines.append(f"{t_r:.6f},{t_theta:.6f},{rng.uniform(-1, 1):.6f},"
                         f"{0.5 * rng.uniform(-0.4, 0.4):.6f}")
    pts.write_text("\n".join(lines) + "\n")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run_out = {}
        for cmd in (["sum", "basic.json", "--points", str(pts)],
                    ["verify", "basic.json", "--suite", "theorem2"]):
            out = tmp_path / f"{cmd[0]}{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "qsum.cli", *cmd, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            run_out[cmd[0]] = proc.stdout
            for path in sorted(out.iterdir()):
                data = path.read_text()
                if path.name == "manifest.json":
                    manifest = json.loads(data)
                    manifest.pop("timestamp")
                    data = json.dumps(manifest, sort_keys=True)
                run_out[f"{cmd[0]}/{path.name}"] = data
        runs.append(run_out)
    assert runs[0].keys() == runs[1].keys()
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], name


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsum.cli", "validate", "basic.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ratio corridor" in proc.stdout
