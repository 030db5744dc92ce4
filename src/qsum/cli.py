"""Batch front end: problem ingestion, pipeline driving, artifact emission.

Commands: ``validate``, ``solve``, ``verify``, ``sum``, ``transform``.  Exit
codes are fixed for CI use: 0 ok, 1 verification failure, 2 invalid problem
file, 3 numeric regime failure (no contraction, bad direction, stalled
quadrature), 64 usage error.

Problem files are JSON validated against the shipped schema; bare names are
resolved against ``QSUM_DATA_DIR`` and then the packaged fixtures.  Every
output file references the run manifest by id; the id hashes the manifest
with its timestamp removed, so reruns on identical inputs give identical
ids and byte-identical numeric artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import hashlib
import importlib.resources
import json
import math
import os
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks
from .errors import DomainTooLarge, QsumError, ValidationError
from .fourier import FourierFn, inverse_fourier_table, make_space
from .geometry import (
    ForcingTerm,
    MahlerTerm,
    ProblemSpec,
    select_sector,
    validate_spec,
)
from .qcore import CoveringPoint, QParams
from .solver import assemble_U_hat, assemble_u_hat, solve_fixed_point
from .transforms import ContinuedOmega, gq_sum

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SPEC = 2
EXIT_REGIME = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the invalid-spec
    # code; the CI contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# problem files


def _package_file(*parts) -> Path | None:
    node = importlib.resources.files("qsum")
    for p in parts:
        node = node / p
    return node if node.is_file() else None


def resolve_input(name: str) -> Path:
    p = Path(name)
    if p.is_file():
        return p
    root = os.environ.get("QSUM_DATA_DIR")
    if root:
        cand = Path(root) / name
        if cand.is_file():
            return cand
    pk = _package_file("fixtures", name)
    if pk is not None:
        return pk
    raise ValidationError(f"cannot resolve input file {name!r}")


@functools.cache
def _load_schema(name: str) -> dict:
    pk = _package_file("schemas", name)
    if pk is None:
        raise ValidationError(f"missing packaged schema {name!r}")
    return json.loads(pk.read_text())


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None), "number": (int, float), "integer": int}
_SCHEMA_KEYWORDS = {"type", "required", "additionalProperties", "properties", "minimum",
                    "exclusiveMinimum", "minItems", "items", "$ref", "oneOf", "const",
                    "$schema", "title", "description", "definitions"}  # the last 4 annotate


def _is_type(v, name: str) -> bool:
    # draft-07: True is not a number, and 1.0 is an integer
    fits = isinstance(v, _JSON_TYPES[name]) and isinstance(v, bool) == (name == "boolean")
    return fits or (name == "integer" and isinstance(v, float) and v.is_integer())


def _json_path(path: tuple) -> str:
    return "/".join(map(str, path)) or "(root)"


def schema_errors(inst, schema, root: dict | None = None, path: tuple = ()):
    """Yield ``(path, reason)``, ``path`` a tuple of JSON keys, for each way
    ``inst`` breaks a draft-07 ``schema`` that uses only the keywords of the
    problem schema.  Raises `ValidationError` on any other keyword."""
    root = schema if root is None else root
    if isinstance(schema, bool):
        yield from () if schema else [(path, "is not allowed here")]
        return
    unknown = set(schema) - _SCHEMA_KEYWORDS
    if unknown or not schema.get("$ref", "#").startswith("#"):
        raise ValidationError(f"schema not supported: {sorted(unknown) or schema['$ref']}")
    if "$ref" in schema:  # draft-07 ignores a $ref's siblings
        target = functools.reduce(dict.__getitem__, schema["$ref"].split("/")[1:], root)
        yield from schema_errors(inst, target, root, path)
        return
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(inst, t) for t in types):
        yield path, f"{reprlib.repr(inst)} is not of type {' or '.join(types)}"
    const = schema.get("const", inst)
    if "const" in schema and (inst != const or isinstance(inst, bool) != isinstance(const, bool)):
        yield path, f"{reprlib.repr(inst)} is not {const!r}"
    if _is_type(inst, "number") and inst < schema.get("minimum", -math.inf):
        yield path, f"{inst!r} is below the minimum {schema['minimum']}"
    if _is_type(inst, "number") and inst <= schema.get("exclusiveMinimum", math.nan):
        yield path, f"{inst!r} is not above {schema['exclusiveMinimum']}"
    if isinstance(inst, list):
        if len(inst) < schema.get("minItems", 0):
            yield path, f"has fewer than {schema['minItems']} items"
        for i, item in enumerate(inst):
            yield from schema_errors(item, schema.get("items", True), root, (*path, i))
    if isinstance(inst, dict):
        yield from (((*path, key), "is required but missing")
                    for key in schema.get("required", ()) if key not in inst)
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        for key, value in inst.items():
            yield from schema_errors(value, props.get(key, extra), root, (*path, key))
    if "oneOf" in schema:
        errs = [next(schema_errors(inst, sub, root, path), None) for sub in schema["oneOf"]]
        if errs.count(None) != 1:
            yield path, f"matches {errs.count(None)} of its oneOf schemas, not one; " + "; ".join(
                f"{_json_path(p)}: {r}" for p, r in filter(None, errs))


def _parse_profile(node: dict, space) -> FourierFn:
    if node["kind"] == "gaussian":
        scale = float(node["scale"])
        center = float(node.get("center", 0.0))
        return FourierFn.from_callable(
            space, lambda m: scale * np.exp(-((m - center) ** 2) / 2.0)
        )
    re = np.asarray(node["re"], dtype=float)
    im = np.asarray(node.get("im", np.zeros_like(re)), dtype=float)
    if re.size != space.size:
        raise ValidationError(
            f"profile has {re.size} samples for a grid of {space.size}"
        )
    return FourierFn(space, re + 1j * im)


def load_problem(name: str) -> tuple[dict, ProblemSpec, str]:
    """Resolve, parse, schema-check and construct; returns (raw, spec, hash)."""
    path = resolve_input(name)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    for where, reason in schema_errors(raw, _load_schema("problem_spec.schema.json")):
        raise ValidationError(f"{path}: schema violation: {_json_path(where)}: {reason}", where)

    sp = raw["space"]
    space = make_space(
        float(sp["beta"]),
        float(sp["mu"]),
        half_width=sp.get("half_width"),
        n_points=sp.get("n_points"),
    )
    params = QParams(q=float(raw["params"]["q"]), k=int(raw["params"]["k"]))
    terms = tuple(
        MahlerTerm(
            l0=t["l0"], l1=t["l1"], l2=t["l2"], R=t["R"], A=_parse_profile(t["A"], space)
        )
        for t in raw.get("terms", [])
    )
    forcing = tuple(
        ForcingTerm(j=f["j"], F=_parse_profile(f["F"], space))
        for f in raw.get("forcing", [])
    )
    spec = ProblemSpec(
        Q=raw["Q"],
        R_D=raw["R_D"],
        alpha_D=float(raw["alpha_D"]),
        d_D=int(raw["d_D"]),
        terms=terms,
        forcing=forcing,
        params=params,
        space=space,
    )
    return raw, spec, _canonical_hash(raw)


# ---------------------------------------------------------------------------
# manifests and artifact writers


def _canonical_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def make_manifest(command: str, spec_hash: str, args, config=None, outcome=None) -> dict:
    quad = {
        "tail": getattr(args, "tail", None),
        "eps_rel": getattr(args, "eps_rel", None),
        "refinement": "ray nodes j*step for integers j; each level halves the step and "
                      "widens the window by a quarter, snapped outward",
        "contour_orientation": "covering angle increasing; sign fixed by the monomial oracle",
    }
    manifest = {
        "tool": "qsum",
        "version": __version__,
        "command": command,
        "spec_hash": spec_hash,
        "config": dataclasses.asdict(config) if config is not None else None,
        "quadrature": quad,
        "threads": getattr(args, "_thread_info", None),
        "seed": getattr(args, "seed", None),
        "outcome": outcome or {},
    }
    manifest["manifest_id"] = _canonical_hash(manifest)[:16]
    manifest["timestamp"] = (
        datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    )
    return manifest


def _complex_rows(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n")


def write_csv(path: Path, manifest_id: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {manifest_id}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(c) for c in row])


def _cell(c):
    if isinstance(c, float):
        return repr(c)
    return c


def _emit_rows(args, out: Path | None, manifest: dict, header, rows, stem: str):
    """Witness/value table in the chosen format, plus the manifest file."""
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        payload = {
            "manifest": manifest["manifest_id"],
            "rows": [dict(zip(header, [_cell(c) for c in row])) for row in rows],
        }
        write_json(out / f"{stem}.json", payload)
    else:
        write_csv(out / f"{stem}.csv", manifest["manifest_id"], header, rows)
    write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    _, spec, digest = load_problem(args.spec_file)
    report = validate_spec(spec)
    manifest = make_manifest(
        "validate",
        digest,
        args,
        outcome={"ok": report.ok, "failures": len(report.failures())},
    )
    header = ["condition", "status", "detail"]
    rows = [(c.name, "pass" if c.ok else "FAIL", c.detail) for c in report.conditions]
    for name, status, detail in rows:
        print(f"{status:>4}  {name}: {detail}")
    print(f"ratio corridor [{report.ratio_min:.6g}, {report.ratio_max:.6g}]")
    _emit_rows(args, args.out, manifest, header, rows, "validation")
    return EXIT_OK if report.ok else EXIT_SPEC


# ---------------------------------------------------------------------------
# solve


def _beta_prime(args, spec) -> float:
    """The evaluation strip half-width: ``--beta-prime``, below the problem's
    ``beta``, or by default half of it."""
    if args.beta_prime is None:
        return 0.5 * spec.space.beta
    if args.beta_prime >= spec.space.beta:
        raise UsageError(f"argument --beta-prime: must be below the problem's beta "
                         f"{spec.space.beta:g}, got {args.beta_prime:g}")
    return args.beta_prime


def _refuse_invalid(spec) -> bool:
    """Print a ``FAIL`` line on stderr for each structural condition ``spec``
    fails; true if there is one, and a command that solves must exit 2."""
    failures = validate_spec(spec).failures()
    for c in failures:
        print(f"FAIL  {c.name}: {c.detail}", file=sys.stderr)
    return bool(failures)


def cmd_solve(args) -> int:
    _, spec, digest = load_problem(args.spec_file)
    if _refuse_invalid(spec):
        return EXIT_SPEC
    beta_prime = _beta_prime(args, spec)
    cfg = select_sector(spec, args.direction)
    mode = "triangular" if args.force_triangular else "contraction"
    sol = solve_fixed_point(spec, cfg, args.order, mode=mode)

    U = assemble_U_hat(sol, spec.params)
    z_pts = np.linspace(-1.0, 1.0, args.z_points) + 0.0j
    table = assemble_u_hat(U, z_pts, beta_prime)

    outcome = {
        "mode": mode,
        "iterations": sol.iterations,
        "residual_1R": sol.residual_1R,
        "contraction_max": max(sol.contraction_history, default=0.0),
    }
    manifest = make_manifest("solve", digest, args, config=cfg, outcome=outcome)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    mid = manifest["manifest_id"]

    write_json(out / "omega.json", {
        "manifest": mid,
        "order": sol.omega.order,
        "grid_size": spec.space.size,
        "coeffs": _complex_rows(sol.omega.coeffs),
    })
    write_json(out / "U_hat.json", {
        "manifest": mid,
        "order": U.order,
        "grid_size": spec.space.size,
        "coeffs": _complex_rows(U.coeffs),
    })
    rows = []
    for n in range(table.shape[0]):
        for j, z in enumerate(z_pts):
            rows.append((n + 1, float(z.real), float(z.imag),
                         float(table[n, j].real), float(table[n, j].imag)))
    write_csv(out / "u_hat.csv", mid, ["order", "z_re", "z_im", "re", "im"], rows)
    write_json(out / "report.json", {
        "manifest": mid,
        "mode": mode,
        "path": sol.path,
        "contraction_bound": sol.contraction_bound,
        "iterations": sol.iterations,
        "contraction_history": list(sol.contraction_history),
        "residual_1R": sol.residual_1R,
        "dropped_mass_1R": sol.dropped_mass_1R,
        "R": sol.R,
    })
    write_json(out / "manifest.json", manifest)
    print(f"solved order {sol.omega.order} in {sol.iterations} iterations ({mode}, {sol.path} "
          f"path, bound {sol.contraction_bound:.3g}); residual {sol.residual_1R:.3e}; artifacts in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites: seeded or fixed points for the shared checks


def _suite_identities(spec, cfg, rng, args):
    P = spec.params

    def pt(r_lo, r_hi):
        return CoveringPoint(float(rng.uniform(r_lo, r_hi)), float(rng.uniform(-1.5, 1.5)))

    rows = checks.laplace_monomials(P, [(n, pt(0.05, 0.15)) for n in range(1, 5)])
    rows += checks.borel_roundtrip(P, [pt(0.6, 2.0) for _ in range(2)])
    rows += checks.deceleration_polynomials(P, 2, [((1.0,), pt(0.2, 0.6)),
                                                   ((0.0, 1.0), pt(0.2, 0.6))])
    return rows + checks.kernel_modulus(
        P, [(float(rng.uniform(-2, 2)), float(rng.uniform(-5, 5))) for _ in range(5)]
    )


def _suite_theorem2(spec, cfg, rng, args):
    sol = solve_fixed_point(spec, cfg, args.order)
    zs = (0.3 + 0.1j, -0.2 + 0.05j, 0.1 - 0.2j)
    pts = [(CoveringPoint(cfg.R / 8.0, th), z) for th, z in zip((0.02, -0.15, 0.3), zs)]
    # at 0.8 R every term of the equation is material
    gate = [(CoveringPoint(0.8 * cfg.R, th), z) for th, z in zip((0.1, -0.2), zs)]
    # t sharing ladders
    ray = [(CoveringPoint(f * cfg.R, 0.1), z) for f, z in zip((0.1, 0.2, 0.4, 0.6, 0.8), zs + zs)]
    # c06, the determinism and the sector rows at order 16 or more: the series
    # fills a `_power_sum` piece, a Picard sweep stopped early is not exact,
    # and at order 12 the series overlaps the right-hand side only to 2e-2
    order = max(args.order, 16)
    det = solve_fixed_point(spec, cfg, order)
    beta_prime = 0.5 * spec.space.beta
    taus = [CoveringPoint(f * cfg.R, 0.03) for f in (1.05, 1.4, 1.9, 2.5)]
    return (checks.contraction(spec, cfg, order)
            + checks.summed_equation(sol, spec, cfg, pts, beta_prime=beta_prime)
            + checks.term_gate(sol, spec, cfg, gate, beta_prime=beta_prime)
            + checks.summation_determinism(det, spec, cfg, ray, beta_prime=beta_prime)
            + checks.sector(det, spec, cfg, taus))


def _suite_asymptotics(spec, cfg, rng, args):
    sol = solve_fixed_point(spec, cfg, max(args.order, 10))
    z, beta_prime = 0.2 + 0.1j, 0.5 * spec.space.beta
    U = assemble_U_hat(sol, spec.params)
    u_n = inverse_fourier_table(U.coeffs, spec.space, [z], beta_prime)[:, 0]
    pts = [CoveringPoint(frac * cfg.R, 0.03) for frac in (0.25, 0.125)]
    return checks.gevrey_rate(ContinuedOmega(sol, spec, cfg), u_n, z, pts, cfg, spec,
                              beta_prime=beta_prime)


SUITES = {
    "identities": _suite_identities,
    "geometry": lambda spec, cfg, rng, args: checks.geometry(spec, cfg),
    "theorem2": _suite_theorem2,
    "asymptotics": _suite_asymptotics,
}


def cmd_verify(args) -> int:
    _, spec, digest = load_problem(args.spec_file)
    rng = np.random.default_rng(args.seed)
    # a problem failing its structural conditions gets only those rows from
    # the geometry suite, as its witnesses; the suites that solve refuse it
    if args.suite in ("theorem2", "asymptotics") and _refuse_invalid(spec):
        return EXIT_SPEC
    cfg = None
    if args.suite != "geometry" or validate_spec(spec).ok:
        cfg = select_sector(spec, args.direction)
    try:
        rows4 = SUITES[args.suite](spec, cfg, rng, args)
    except QsumError as exc:
        rows4 = [(args.suite + "-exception", f"{type(exc).__name__}: {exc}", 1.0, 0.5)]

    header = ["check", "detail", "error", "tolerance", "status"]
    rows = []
    for check, detail, err, tol in rows4:
        ok = bool(err <= tol)
        rows.append((check, detail, float(err), float(tol), "pass" if ok else "FAIL"))
        print(f"{'pass' if ok else 'FAIL':>4}  {check}: {detail} (err {err:.3e} tol {tol:g})")
    status_ok = all(row[-1] == "pass" for row in rows)
    manifest = make_manifest(
        "verify", digest, args,
        config=cfg,
        outcome={"suite": args.suite, "ok": status_ok, "checks": len(rows)},
    )
    _emit_rows(args, args.out, manifest, header, rows, f"verify_{args.suite}")
    return EXIT_OK if status_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# sum


POINT_COLUMNS = ("t_r", "t_theta", "z_re", "z_im")


def _read_points(path: Path):
    """Rows ``t_r,t_theta,z_re,z_im``, each checked before any work starts.

    Blank lines and ``#`` comments are skipped, and so is a header: the
    first other line, if none of its cells is a number.  Any other bad row
    raises `UsageError` naming its line and cell.
    """
    pts = []
    header_allowed = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not any(c.strip() for c in row) or row[0].lstrip().startswith("#"):
                continue
            if header_allowed:
                header_allowed = False
                if not any(_is_number(c) for c in row):
                    continue
            where = f"{path}, line {reader.line_num}"
            if len(row) < len(POINT_COLUMNS):
                raise UsageError(f"{where}: a point needs 4 columns "
                                 f"{','.join(POINT_COLUMNS)}, got {len(row)}")
            vals = []
            for name, cell in zip(POINT_COLUMNS, row):
                if not _is_number(cell):
                    raise UsageError(f"{where}: {name} = {cell!r} is not a number")
                v = float(cell)
                if not math.isfinite(v):
                    raise UsageError(f"{where}: {name} = {cell!r} is not finite")
                vals.append(v)
            if vals[0] < 0.0:
                raise UsageError(f"{where}: t_r = {row[0]!r} is negative")
            pts.append(tuple(vals))
    if not pts:
        raise ValidationError(f"no usable points in {path}")
    return pts


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def cmd_sum(args) -> int:
    _, spec, digest = load_problem(args.spec_file)
    if _refuse_invalid(spec):
        return EXIT_SPEC
    pts = _read_points(resolve_input(args.points))
    beta_prime = _beta_prime(args, spec)
    cfg = select_sector(spec, args.direction)
    sol = solve_fixed_point(spec, cfg, args.order)
    om = ContinuedOmega(sol, spec, cfg)

    rows = []
    for t_r, t_theta, z_re, z_im in pts:
        z = complex(z_re, z_im)
        if t_r == 0.0:
            rows.append((t_r, t_theta, z_re, z_im, 0.0, 0.0, 0.0, "ok"))
            continue
        if abs(z_im) > beta_prime:
            rows.append((t_r, t_theta, z_re, z_im, "", "", "", "strip"))
            continue
        try:
            v = gq_sum(om, CoveringPoint(t_r, t_theta), z, cfg, spec,
                       beta_prime=beta_prime, tail=args.tail, eps_rel=args.eps_rel)
        except DomainTooLarge:
            rows.append((t_r, t_theta, z_re, z_im, "", "", "", "domain"))
            continue
        budget = om.floor_estimate() + args.eps_rel * abs(v)
        rows.append((t_r, t_theta, z_re, z_im, float(v.real), float(v.imag),
                     float(budget), "ok"))

    manifest = make_manifest(
        "sum", digest, args, config=cfg,
        outcome={"points": len(rows), "flagged": sum(1 for r in rows if r[-1] != "ok")},
    )
    header = [*POINT_COLUMNS, "value_re", "value_im", "budget", "flag"]
    _emit_rows(args, args.out, manifest, header, rows, "u_values")
    for row in rows:
        print(",".join(str(_cell(c)) for c in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform


def _parse_coeffs(text: str) -> np.ndarray:
    try:
        c = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"argument --coeffs: bad coefficient list {text!r}") from exc
    if c.size == 0:
        raise UsageError("argument --coeffs: need at least one coefficient")
    if not np.all(np.isfinite(c)):
        raise UsageError(f"argument --coeffs: coefficients must be finite, got {text!r}")
    return c


def _parse_point(text: str) -> CoveringPoint:
    try:
        r, theta = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"argument --at: bad point {text!r}; expected r,theta") from exc
    try:
        return CoveringPoint(r, theta)
    except ValidationError as exc:
        raise UsageError(f"argument --at: {exc}") from exc


def cmd_transform(args) -> int:
    _, spec, digest = load_problem(args.spec_file)
    P = spec.params
    c = _parse_coeffs(args.coeffs)
    pt = _parse_point(args.at)
    value = checks.transform(args.op, c, pt, P, args.p)
    reference = checks.monomial_image(args.op, c, pt.to_complex(), P, args.p)

    manifest = make_manifest(
        "transform", digest, args,
        outcome={"op": args.op, "abs_error": abs(value - reference)},
    )
    header = ["op", "at_r", "at_theta", "value_re", "value_im",
              "reference_re", "reference_im", "abs_error"]
    row = (args.op, pt.r, pt.theta, float(value.real), float(value.imag),
           float(reference.real), float(reference.imag), float(abs(value - reference)))
    print(f"{args.op} at ({pt.r:g},{pt.theta:g}): value {value:.12g}, "
          f"reference {reference:.12g}, |diff| {abs(value - reference):.3e}")
    _emit_rows(args, args.out, manifest, header, [row], f"transform_{args.op}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class UsageError(Exception):
    pass


def _apply_threads(args):
    info = {"requested": args.threads}
    if args.threads is not None:
        try:
            import threadpoolctl
        except ImportError:  # missing controller: record, do not fail the run
            info["applied"] = False
        else:
            threadpoolctl.threadpool_limits(args.threads)
            info["applied"] = True
    args._thread_info = info


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value

    return parse


def _float_between(lo: float, hi: float):
    """argparse type: a number strictly between ``lo`` and ``hi``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must lie in ({lo:g}, {hi:g}), got {text}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="qsum", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=_int_at_least(1), default=None,
                        help="cap BLAS thread pools (recorded in the manifest)")
    parser.add_argument("--seed", type=int, default=20260822,
                        help="seed for randomized verification samples")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output table format for --out artifacts")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check the structural conditions of a problem file")
    p.add_argument("spec_file")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the fixed point and write solution artifacts")
    p.add_argument("spec_file")
    p.add_argument("--order", type=_int_at_least(1), default=16)
    p.add_argument("--direction", type=_float_between(-math.inf, math.inf), default=0.0)
    p.add_argument("--beta-prime", type=_float_between(0.0, math.inf), default=None)
    p.add_argument("--z-points", type=_int_at_least(1), default=21)
    p.add_argument("--force-triangular", action="store_true",
                   help="solve by the forward pass whatever the contraction bound")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run an invariant suite against a problem file")
    p.add_argument("spec_file")
    p.add_argument("--suite", required=True,
                   choices=tuple(SUITES))
    p.add_argument("--order", type=_int_at_least(1), default=12)
    p.add_argument("--direction", type=_float_between(-math.inf, math.inf), default=0.0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sum", help="evaluate the summed solution at listed points")
    p.add_argument("spec_file")
    p.add_argument("--points", required=True,
                   help="CSV of t_r,t_theta,z_re,z_im rows")
    p.add_argument("--order", type=_int_at_least(1), default=12)
    p.add_argument("--direction", type=_float_between(-math.inf, math.inf), default=0.0)
    p.add_argument("--beta-prime", type=_float_between(0.0, math.inf), default=None)
    p.add_argument("--tail", type=_float_between(0.0, 1.0), default=1e-11)
    p.add_argument("--eps-rel", type=_float_between(0.0, math.inf), default=1e-8)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("transform", help="one-off transform of a polynomial input")
    p.add_argument("spec_file", help="problem file supplying q and k")
    p.add_argument("--op", required=True, choices=("laplace", "borel", "decelerate"))
    p.add_argument("--coeffs", required=True,
                   help="comma list c1,c2,... of series coefficients from power 1")
    p.add_argument("--at", required=True, help="evaluation point r,theta on the covering")
    p.add_argument("--p", type=_int_at_least(2), default=2, help="deceleration order")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    _apply_threads(args)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"invalid problem file: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except QsumError as exc:
        print(f"numeric regime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
