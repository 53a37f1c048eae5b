"""Command-line interface: deterministic, scriptable, machine-readable output.

Exit codes: 0 success, 1 property violation (e.g. a crosscheck disagreement or
sweep violation), 2 input error.  All rationals cross this boundary as 'p/q'
strings; a fixed seed fully determines every randomized choice, so reports are
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from fractions import Fraction

# let argparse read every single-dash token that is not a declared option, such as
# '-3/5', '-1/2,0' or '-x1*x2', as a value; '-h' is declared, '--bogus' stays an error
_VALUE_TOKEN = re.compile(r"^-[^-]")

from . import __version__
from . import catalog as cat
from . import expr as ex
from . import extension as xt
from . import geometry as geo
from . import projective as pj
from . import qe_solver as qs
from .expr import AffineQEError


def _load_manifold(path: str) -> geo.AffineManifold:
    with open(path, "r", encoding="utf-8") as handle:
        return geo.load_manifold(json.load(handle))


def _parse_basepoint(text: str | None, manifold: geo.AffineManifold):
    if text is None:
        return cat.default_basepoint(manifold)
    values = tuple(ex.parse_rational(part) for part in text.split(","))
    if len(values) != manifold.dim:
        raise ValueError(f"basepoint needs {manifold.dim} coordinates")
    return values


def _parse_params(text: str | None) -> dict | None:
    if not text:
        return None
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("--params must be a JSON object of model parameters")
    return {key: ex.parse_rational(str(value)) for key, value in raw.items()}


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {text!r}")
    return value


def _emit(args, report: dict, text: str) -> None:
    print(text)
    if args.json:
        payload = dict(report)
        payload["tool"] = {"name": "affineqe", "version": __version__}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")


def _sampled(checks: dict) -> dict:
    """The report entry naming the checks whose verdicts are only sampled, if any."""
    sampled = [name for name, value in checks.items() if value is ex.Verdict.NUMERIC_ONLY]
    return {"numeric_only": sampled} if sampled else {}


# --------------------------------------------------------------------------
# handlers


def _cmd_curvature(args) -> tuple:
    manifold = _load_manifold(args.manifold)
    parts = manifold.ricci_parts
    curvature_zero = geo.tensor_zero_verdict(geo.curvature(manifold))
    lines = [f"dim {manifold.dim}, curvature {curvature_zero.value}"]
    components = {}
    for j in range(manifold.dim):
        for k in range(manifold.dim):
            value = parts.full.comp(j, k)
            if value != ex.ZERO:
                key = f"rho_{j + 1}{k + 1}"
                rendered = ex.format_expr(value, manifold.coords)
                components[key] = rendered
                lines.append(f"  {key} = {rendered}")
    verdicts = {"flat": curvature_zero,
                "alternating_part_zero": geo.tensor_zero_verdict(parts.alt)}
    report = {"dim": manifold.dim, "ricci": components}
    report.update((name, bool(verdict)) for name, verdict in verdicts.items())
    report.update(_sampled(verdicts))
    return report, True, "\n".join(lines)


def _cmd_qe_dim(args) -> tuple:
    manifold = _load_manifold(args.manifold)
    basepoint = _parse_basepoint(args.basepoint, manifold)
    results = []
    lines = []
    for mu_text in args.mu:
        mu = ex.parse_rational(mu_text)
        space = qs.solution_dimension(manifold, mu, basepoint)
        results.append(qs.solution_report(space))
        flag = "" if space.stabilized else "  [not stabilized]"
        lines.append(f"mu = {mu}: dim = {space.dim}{flag}")
    ok = all(r["stabilized"] for r in results)
    return {"basepoint": [str(c) for c in basepoint], "results": results}, ok, \
        "\n".join(lines)


def _cmd_classify(args) -> tuple:
    params = _parse_params(args.params)
    lines = []
    reports = []
    ok = True
    mus = [ex.parse_rational(mu_text) for mu_text in args.mu]
    for report in cat.crosschecks(args.kind, params, mus):
        reports.append({
            "kind": report.kind,
            "params": {k: str(v) for k, v in report.params.items()},
            "mu": str(report.mu),
            "predicted": str(report.predicted),
            "computed": report.computed,
            "agree": report.agree,
        })
        ok = ok and report.agree
        lines.append(f"mu = {report.mu}: predicted {report.predicted}, "
                     f"computed {report.computed}, "
                     f"{'agree' if report.agree else 'DISAGREE'}")
    return {"crosschecks": reports}, ok, "\n".join(lines)


_FAMILY3D_GRID = [{"x": x, "y": 0, "z": z, "w": w}
                  for x in (0, 1) for z in (0, 1, 2)
                  for w in (0, Fraction(1, 4))]


def _cmd_sweep(args) -> tuple:
    rng = random.Random(args.seed)
    mus = [ex.parse_rational(m) for m in args.mu]
    if args.family in ("typeA", "typeB"):
        draw = cat.random_type_a if args.family == "typeA" else cat.random_type_b
        grid = [draw(rng).constants_dict() for _ in range(args.n)]
    elif args.family == "family3d":
        grid = _FAMILY3D_GRID
    else:
        raise ValueError(f"unknown sweep family {args.family!r}")
    result = cat.sweep(args.family, grid, mus)
    dims = sorted(result.dims)
    lines = [f"{len(result.rows)} cells, dims seen: {dims}"]
    lines.extend(f"VIOLATION: {v}" for v in result.violations)
    rows = [{"params": {k: str(v) for k, v in row["params"].items()},
             "mu": row["mu"], "dim": row["dim"]} for row in result.rows]
    report = {
        "family": args.family,
        "seed": args.seed,
        "mus": [str(m) for m in mus],
        "rows": rows,
        "dims_seen": dims,
        "violations": result.violations,
    }
    return report, not result.violations, "\n".join(lines)


def _parse_omega(args, manifold):
    if args.potential:
        g = ex.parse_scalar(args.potential, manifold.coords)
        return pj.ProjectiveChange.from_potential(g, manifold.dim)
    if args.omega:
        entries = [ex.parse_scalar(part, manifold.coords)
                   for part in args.omega.split(",")]
        if len(entries) != manifold.dim:
            raise ValueError(f"omega needs {manifold.dim} components")
        return pj.ProjectiveChange(tuple(entries))
    raise ValueError("deform needs --omega or --potential")


def _cmd_deform(args) -> tuple:
    manifold = _load_manifold(args.manifold)
    change = _parse_omega(args, manifold)
    strong = pj.is_strong(change)
    deformed = pj.deform(manifold, change)
    document = geo.manifold_document(deformed)
    lines = [f"strong (closed 1-form): {strong.value}",
             json.dumps(document, sort_keys=True, indent=2)]
    return {"strong": strong.value, "manifold": document}, True, "\n".join(lines)


def _parse_grid_spec(text: str | None):
    """--grid 'radius[:per_axis]'; None means automatic sizing."""
    if not text:
        return None, 1
    radius, _, per_axis = text.partition(":")
    radius, per_axis = float(radius), int(per_axis) if per_axis else 1
    if not (math.isfinite(radius) and radius > 0) or per_axis < 1:
        raise ValueError(f"bad --grid {text!r}; expected a finite radius > 0 "
                         "and per_axis >= 1")
    return radius, per_axis


def _cmd_flatten(args) -> tuple:
    radius, per_axis = _parse_grid_spec(args.grid)
    manifold = _load_manifold(args.manifold)
    basepoint = _parse_basepoint(args.basepoint, manifold)
    flatness = pj.strong_flatness_test(manifold, basepoint)
    lines = [f"dim at -1/(m-1): {flatness.dim} of {manifold.dim + 1}; "
             f"strongly projectively flat: {flatness.flat}"]
    report = {
        "flat": flatness.flat,
        "dim": flatness.dim,
        "criteria_agree": flatness.criteria_agree,
    }
    ok = flatness.criteria_agree is not False
    if flatness.flat:
        if radius is None:
            radius = pj.chart_radius(manifold, basepoint)
        grid = pj.box_grid(basepoint, radius, per_axis=per_axis)
        chart = pj.flat_chart(manifold, basepoint, grid)
        z_err, jac_err = pj.base_invariant_errors(chart)
        deviation = pj.geodesic_straightness(
            manifold, chart, args.geodesics, random.Random(args.seed))
        report["chart"] = {
            "points": [list(p) for p in chart.grid_points],
            "z": [list(z) for z in chart.z_values],
            "base_z_error": z_err,
            "base_jacobian_error": jac_err,
            "geodesic_deviation": deviation,
        }
        lines.append(f"chart on {len(grid)} points, base errors "
                     f"{z_err:.2e} / {jac_err:.2e}, "
                     f"geodesic deviation {deviation:.2e}")
    return report, ok, "\n".join(lines)


def _parse_phi(entries, manifold):
    m = manifold.dim
    grid = [[ex.ZERO] * m for _ in range(m)]
    given = {}  # unordered slot -> the entry that set it
    for item in entries or []:
        try:
            key, text = item.split("=", 1)
            i, j = (int(part) - 1 for part in key.split(","))
        except ValueError:
            raise ValueError(f"bad --phi entry {item!r}; expected 'i,j=expr'") from None
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"bad --phi entry {item!r}; indices run from 1 to {m}")
        value = ex.parse_scalar(text, manifold.coords)
        first = given.setdefault((min(i, j), max(i, j)), item)
        if first is not item and grid[i][j] != value:
            raise ValueError(f"conflicting --phi entries {first!r} and {item!r}")
        grid[i][j] = grid[j][i] = value
    return grid


def _cmd_extend(args) -> tuple:
    manifold = _load_manifold(args.manifold)
    phi = _parse_phi(args.phi, manifold)
    f = ex.parse_scalar(args.f, manifold.coords) if args.f else ex.coord(0)
    residuals = xt.extension_identities_residuals(manifold, phi, f)
    verdicts = {
        "hessian_pullback": geo.tensor_zero_verdict(residuals.hessian_defect).value,
        "ricci_factor_two": geo.tensor_zero_verdict(residuals.ricci_defect).value,
        "null_gradient": ex.is_identically_zero(residuals.null_gradient).value,
    }
    lines = [f"{name}: {verdict}" for name, verdict in verdicts.items()]
    report = {"identities": verdicts}
    ok = all(v != "nonzero" for v in verdicts.values())
    if args.mu:
        mu = ex.parse_rational(args.mu)
        psi, qe_mu = xt.soliton_potential(f, mu)
        metric = xt.deformed_extension(manifold, phi)
        residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
        verdict = geo.tensor_zero_verdict(residual)
        report["quasi_einstein"] = {
            "eigenvalue": str(mu),
            "metric_parameter": str(qe_mu),
            "residual": verdict.value,
        }
        ok = ok and bool(verdict)
        lines.append(f"quasi-einstein residual at metric parameter {qe_mu}: "
                     f"{verdict.value}")
    return report, ok, "\n".join(lines)


def _cmd_verify(args) -> tuple:
    manifold = _load_manifold(args.manifold)
    basepoint = _parse_basepoint(args.basepoint, manifold)
    checks = {}

    parts = manifold.ricci_parts
    split = geo.tensor_map(lambda s, a, f: s + a - f, parts.sym, parts.alt, parts.full)
    checks["ricci_split"] = geo.tensor_zero_verdict(split)

    curvature = geo.curvature(manifold)
    checks["curvature_trace"] = ex.combine_verdicts(
        ex.is_identically_zero(ex.add(*[curvature.comp(i, j, k, i) for i in range(manifold.dim)])
                               - parts.full.comp(j, k))
        for j in range(manifold.dim) for k in range(manifold.dim))

    stabilized = True
    bound = True
    for mu_text in args.mu or ["0", "-1"]:
        mu = ex.parse_rational(mu_text)
        space = qs.solution_dimension(manifold, mu, basepoint)
        stabilized = stabilized and space.stabilized
        bound = bound and space.dim <= manifold.dim + 1
    checks["solver_stabilized"] = stabilized
    checks["dimension_bound"] = bound

    residuals = xt.extension_identities_residuals(manifold, None, ex.coord(0))
    checks["extension_identities"] = ex.combine_verdicts(
        geo.tensor_zero_verdict(defect)
        for defect in (residuals.ricci_defect, residuals.hessian_defect))

    lines = [f"{name}: " + ("numeric-only" if value is ex.Verdict.NUMERIC_ONLY
                            else "ok" if value else "FAIL") for name, value in checks.items()]
    report = {"checks": {name: bool(value) for name, value in checks.items()}, **_sampled(checks)}
    return report, all(checks.values()), "\n".join(lines)


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineqe",
        description="Affine connections: curvature, eigen-solution spaces, "
                    "projective flatness, cotangent extensions.")
    parser._negative_number_matcher = _VALUE_TOKEN
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifold=True,
               seed_help="not read by this command; sampled zero-tests use a fixed seed"):
        p._negative_number_matcher = _VALUE_TOKEN
        if manifold:
            p.add_argument("manifold", help="manifold document (JSON)")
        p.add_argument("--json", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0, help=seed_help)

    p = sub.add_parser("curvature", help="curvature and Ricci components")
    common(p)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("qe-dim", help="solution-space dimensions at eigenvalues")
    common(p)
    p.add_argument("--mu", action="append", required=True, help="eigenvalue p/q")
    p.add_argument("--basepoint", help="comma-separated rational coordinates")
    p.set_defaults(handler=_cmd_qe_dim)

    p = sub.add_parser("classify", help="catalog prediction vs solver")
    common(p, manifold=False)
    p.add_argument("--kind", required=True, choices=cat.MODEL_KINDS)
    p.add_argument("--params", help="JSON object of model parameters")
    p.add_argument("--mu", action="append", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sweep", help="dimension sweep with property audit")
    common(p, manifold=False, seed_help="seed for the random typeA/typeB parameter draws")
    p.add_argument("--family", required=True,
                   choices=("typeA", "typeB", "family3d"))
    p.add_argument("--mu", action="append", required=True)
    p.add_argument("--n", type=_count, default=100, help="random draws per family")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("deform", help="projective deformation of a connection")
    common(p)
    p.add_argument("--omega", help="comma-separated 1-form components")
    p.add_argument("--potential", help="potential g with omega = dg")
    p.set_defaults(handler=_cmd_deform)

    p = sub.add_parser("flatten", help="strong flatness test and flat chart")
    common(p, seed_help="seed for the random geodesic directions")
    p.add_argument("--basepoint")
    p.add_argument("--grid", help="chart grid 'radius[:per_axis]' (default: auto)")
    p.add_argument("--geodesics", type=_count, default=5)
    p.set_defaults(handler=_cmd_flatten)

    p = sub.add_parser("extend", help="cotangent extension residual report")
    common(p)
    p.add_argument("--phi", action="append", help="deformation entry 'i,j=expr'")
    p.add_argument("--f", help="function on the base (default x1)")
    p.add_argument("--mu", help="eigenvalue of f, enables the metric check")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("verify", help="internal consistency audit of a manifold")
    common(p)
    p.add_argument("--mu", action="append")
    p.add_argument("--basepoint")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, ok, text = args.handler(args)
    except (AffineQEError, OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(args, report, text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
