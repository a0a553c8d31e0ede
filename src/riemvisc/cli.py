"""Batch driver: every check and solver as a subcommand.

Each subcommand reads an optional JSON config (validated against a
schema), runs its suite deterministically for the given seed, and writes
a JSON report plus CSV data files into the output directory.  The exit
code is 0 when every check passed, 1 on any FAIL, and 2 on usage or
schema errors.  Reports embed the resolved config for provenance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator

from . import manifolds
from .errors import RiemviscError
from .grids import GridFunction, build_grid
from .jacobi import (
    check_curvature_bound,
    check_sign_condition,
    hessian_distance_sq,
    parallel_pair_sweep,
)
from .jets import (
    canonical_epsilon,
    doubling_diagnostic,
    generate_star_candidates,
    transported_order_margins,
)
from .manifolds import TangentVector, from_config as model_from_config
from .operators import from_config as operator_from_config
from .solver import solve_fixed_point, yamabe_solve

_INT = {"type": "integer"}
_COUNT = {"type": "integer", "minimum": 1}
_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": _NUMBER}
_FIELD = {"anyOf": [_NUMBER, {"type": "string", "pattern": (
    r"^(zero|coord:[0-9]+|const:[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?)$")}]}
_MODEL = {"$ref": "#/definitions/model"}
_OPERATOR = {"$ref": "#/definitions/operator"}


def _object(keys: dict, required=()) -> dict:
    """Schema of a JSON object that allows only ``keys``."""
    return {"type": "object", "properties": keys, "required": list(required),
            "additionalProperties": False}


def _tagged(tag: str, kinds: dict) -> dict:
    """Schema of a description whose ``tag`` names one of ``kinds``; each kind
    maps to its keys and the keys it requires."""
    return {
        "type": "object",
        "required": [tag],
        "properties": {tag: {"enum": list(kinds)}},
        "allOf": [
            {"if": {"properties": {tag: {"const": kind}}, "required": [tag]},
             "then": _object({tag: True, **keys}, required)}
            for kind, (keys, required) in kinds.items()
        ],
    }


_MODEL_KINDS = {
    "euclidean": ({"dim": _COUNT}, ["dim"]),
    "sphere": ({"dim": _COUNT, "radius": _POSITIVE}, ["dim"]),
    "hyperbolic": ({"dim": _COUNT, "curvature": _POSITIVE}, ["dim"]),
    "flat_torus": ({"periods": {"type": "array", "minItems": 1, "items": _POSITIVE}}, ["periods"]),
    "product": ({"factors": {"type": "array", "minItems": 1, "items": _MODEL}}, ["factors"]),
}
_TERMS = {"type": "array", "minItems": 1, "items": _OPERATOR}
_OPERATOR_KINDS = {
    "neg_trace": ({}, []),
    "neg_detplus": ({}, []),
    "neg_min_eigenvalue": ({}, []),
    "const": ({"value": _NUMBER}, ["value"]),
    "scalar_term": ({"coeff": _FIELD}, []),
    "source": ({"field": _FIELD}, ["field"]),
    "sum": ({"terms": _TERMS, "weights": _NUMBERS}, ["terms"]),
    "max": ({"terms": _TERMS}, ["terms"]),
    "min": ({"terms": _TERMS}, ["terms"]),
    "example_5_3": ({"f": _FIELD, "g": _FIELD, "p": _INT, "q": _INT, "r_exp": _INT, "k": _INT}, []),
    "yamabe": ({"n": {"type": "integer", "minimum": 3}, "S": _FIELD, "S_prime": _NUMBER},
               ["n", "S", "S_prime"]),
}
_GRID = _object({"model": _MODEL, "resolution": _COUNT, "h": {"anyOf": [_POSITIVE, {"type": "null"}]}})

SCHEMAS = {
    "geometry-check": _object({
        "model": _MODEL, "n_samples": _COUNT, "seed": _INT,
        "tolerances": _object(
            {key: _NUMBER for key in ("transport", "exp_log", "additivity", "curvature")}),
    }),
    "hessian-sign": _object({
        "model": _MODEL, "n_samples": _COUNT, "seed": _INT,
        "ell_range": {**_NUMBERS, "minItems": 2, "maxItems": 2},
        "k0": {"type": "number", "minimum": 0},
    }),
    "comparison-demo": _object({
        "resolution": _COUNT, "alphas": _NUMBERS, "n_pairs": _COUNT, "star_pairs": _COUNT,
        "candidates_per_pair": _COUNT, "alpha_star": _NUMBER, "seed": _INT,
    }),
    "solve": _object({
        "grid": _GRID, "operator": _OPERATOR, "u0": _NUMBER, "tol": _NUMBER,
        "theta": {"type": ["number", "null"]}, "max_iter": _INT, "seed": _INT,
    }),
    "yamabe": _object({
        "grid": _GRID, "n": {"type": "integer", "minimum": 3}, "S": _FIELD,
        "S_prime": _NUMBER, "u0": _NUMBER, "tol": _NUMBER, "seed": _INT,
    }),
}
# report runs every suite above, each configured under its name with "_" for "-"
_REPORT_SUITES = list(SCHEMAS)
SCHEMAS["report"] = _object(
    {"seed": _INT, **{name.replace("-", "_"): SCHEMAS[name] for name in _REPORT_SUITES}}
)
_DEFINITIONS = {"model": _tagged("model", _MODEL_KINDS), "operator": _tagged("op", _OPERATOR_KINDS)}
for _schema in SCHEMAS.values():
    _schema["definitions"] = _DEFINITIONS


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict):
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _write_csv(path: Path, header, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _grid_from_config(cfg: dict):
    model = model_from_config(cfg.get("model", {"model": "sphere", "dim": 2, "radius": 1.0}))
    return build_grid(model, int(cfg.get("resolution", 3)), cfg.get("h"))


# --------------------------------------------------------------------- #
# geometry-check
# --------------------------------------------------------------------- #

def _geometry_suite(model, n_samples, seed, tolerances):
    rng = np.random.default_rng(seed)
    tol_transport = tolerances.get("transport", 1e-10)
    tol_explog = tolerances.get("exp_log", 1e-9)
    tol_additivity = tolerances.get("additivity", 1e-9)
    tol_curvature = tolerances.get("curvature", 1e-10)

    def random_pair():
        x = model.random_point(rng)
        cap = model.injectivity_radius(x)
        hi = 0.9 * cap if math.isfinite(cap) else 2.5
        d = model.random_tangent(rng, x)
        nd = model.norm(x, d)
        ell = rng.uniform(0.05, hi)
        return x, model.exp(x, TangentVector(x, d.components * (ell / nd)))

    worst_transport = 0.0
    for _ in range(n_samples):
        x, y = random_pair()
        v = model.random_tangent(rng, x)
        w = model.random_tangent(rng, x)
        lv = model.parallel_transport(x, y, v)
        lw = model.parallel_transport(x, y, w)
        worst_transport = max(
            worst_transport, abs(model.metric(y, lv, lw) - model.metric(x, v, w))
        )

    worst_explog = 0.0
    for _ in range(max(1, n_samples // 4)):
        x = model.random_point(rng)
        cap = model.injectivity_radius(x)
        radius = 0.9 * cap if math.isfinite(cap) else 2.5
        v = model.random_tangent(rng, x)
        nv = model.norm(x, v)
        if nv < 1e-12:
            continue
        v = TangentVector(x, v.components * (rng.uniform(0.01, 1.0) * radius / nv))
        back = model.log(x, model.exp(x, v))
        worst_explog = max(
            worst_explog, float(np.linalg.norm(back.components - v.components))
        )

    worst_additivity = 0.0
    for _ in range(max(1, n_samples // 20)):
        x, y = random_pair()
        seg = model.geodesic_segment(x, y)
        for t in np.linspace(0.0, seg.length, 5):
            worst_additivity = max(
                worst_additivity, abs(model.distance(x, seg.point_at(float(t))) - t)
            )

    k = model.constant_sectional()
    worst_curvature = 0.0
    curvature_checked = k is not None
    if curvature_checked:
        for _ in range(max(1, n_samples // 4)):
            x = model.random_point(rng)
            u = model.random_tangent(rng, x)
            v = model.random_tangent(rng, x)
            uu, vv = model.metric(x, u, u), model.metric(x, v, v)
            uv = model.metric(x, u, v)
            if uu * vv - uv * uv < 1e-6:
                continue
            worst_curvature = max(
                worst_curvature, abs(model.sectional_curvature(x, u, v) - k)
            )

    def check(worst, tol):
        return {"max_violation": worst, "tolerance": tol, "pass": worst <= tol}

    checks = {
        "transport_isometry": check(worst_transport, tol_transport),
        "exp_log_inversion": check(worst_explog, tol_explog),
        "distance_additivity": check(worst_additivity, tol_additivity),
    }
    if curvature_checked:
        checks["curvature_constancy"] = check(worst_curvature, tol_curvature)
    else:
        checks["curvature_constancy"] = {"skipped": "product model has no constant"}
    return checks


def cmd_geometry_check(config, out: Path, seed: int) -> dict:
    model = model_from_config(config.get("model", {"model": "sphere", "dim": 2, "radius": 1.0}))
    n_samples = int(config.get("n_samples", 1000))
    checks = _geometry_suite(model, n_samples, seed, config.get("tolerances", {}))
    passed = all(c.get("pass", True) for c in checks.values())
    return {"checks": checks, "model": model.config(), "pass": passed}


# --------------------------------------------------------------------- #
# hessian-sign
# --------------------------------------------------------------------- #

def cmd_hessian_sign(config, out: Path, seed: int) -> dict:
    model = model_from_config(config.get("model", {"model": "sphere", "dim": 2, "radius": 1.0}))
    n_samples = int(config.get("n_samples", 10_000))
    k = model.constant_sectional()
    default_hi = 0.9 * model.injectivity_radius() if k and k > 0 else 3.0
    ell_range = tuple(config.get("ell_range", (0.05, default_hi)))
    k0 = float(config.get("k0", max(0.0, -(k or 0.0))))

    ells, values, vnorms = parallel_pair_sweep(model, n_samples, seed, ell_range)
    bounds = 2.0 * k0 * ells**2 * vnorms
    _write_csv(out / "hessian_sign_samples.csv", ["ell", "value", "bound"],
               zip(ells.tolist(), values.tolist(), bounds.tolist()))

    results = {
        "model": model.config(),
        "samples": n_samples,
        "max_value": float(values.max()),
        "min_value": float(values.min()),
        "k0": k0,
        "max_bound_violation": float(np.max(values - bounds)),
    }
    sign_report = check_sign_condition(model, min(n_samples, 2000), seed + 1, ell_range)
    results["sign_condition"] = sign_report.to_dict()
    passed = sign_report.passed
    if k is not None and k < 0:
        bound_report = check_curvature_bound(model, k0, min(n_samples, 2000), seed + 2, ell_range)
        results["curvature_bound"] = bound_report.to_dict()
        passed = passed and bound_report.passed and results["max_bound_violation"] <= 1e-8
    if k:
        s = math.sqrt(abs(k))
        if k > 0:
            closed = -4.0 * ells * s * (1.0 - np.cos(s * ells)) / np.sin(s * ells) * vnorms
        else:
            closed = 4.0 * ells * s * (np.cosh(s * ells) - 1.0) / np.sinh(s * ells) * vnorms
        rel = np.max(np.abs(values - closed) / np.abs(closed))
        results["closed_form_max_rel_error"] = float(rel)
        passed = passed and rel <= 1e-6
    results["pass"] = passed
    return results


# --------------------------------------------------------------------- #
# comparison-demo
# --------------------------------------------------------------------- #

def cmd_comparison_demo(config, out: Path, seed: int) -> dict:
    resolution = int(config.get("resolution", 3))
    alphas = [float(a) for a in config.get("alphas", [2.0**k for k in range(2, 13)])]
    n_pairs = int(config.get("n_pairs", 3))
    rng = np.random.default_rng(seed)
    sphere = manifolds.Sphere(2, 1.0)
    grid = build_grid(sphere, resolution)

    rows = []
    doubling_pass = True
    for pair_idx in range(n_pairs):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        u = GridFunction(grid, grid.coords @ a)
        v = GridFunction(grid, grid.coords @ b)
        trace = doubling_diagnostic(sphere, u, v, alphas)
        gap = u.values - v.values
        modulus = grid.modulus_at_spacing(gap, grid.h)
        final = trace.final()
        doubling_pass = doubling_pass and (
            abs(final.m_alpha - float(np.max(gap))) <= modulus + 1e-12
        )
        for rec in trace.records:
            rows.append(
                (pair_idx, rec.alpha, rec.m_alpha, rec.distance, rec.alpha_d_sq,
                 rec.x_idx, rec.y_idx)
            )
    _write_csv(out / "doubling_trace.csv",
               ["pair", "alpha", "m_alpha", "d", "alpha_d_sq", "x_idx", "y_idx"], rows)

    star_pairs = int(config.get("star_pairs", 50))
    per_pair = int(config.get("candidates_per_pair", 10))
    alpha_star = float(config.get("alpha_star", 4.0))
    hyper = manifolds.Hyperbolic(2, 1.0)
    results = {}
    for offset, (name, model, slack_fn) in enumerate([
        ("sphere", sphere, lambda al, d: 0.0),
        ("hyperbolic", hyper, lambda al, d: 1.5 * 1.0 * al * d * d),
    ]):
        total = passed_count = 0
        sub_rng = np.random.default_rng(seed + 101 * (offset + 1))
        for _ in range(star_pairs):
            x = model.random_point(sub_rng)
            direction = model.random_tangent(sub_rng, x)
            ell = sub_rng.uniform(0.2, 1.2)
            y = model.exp(x, TangentVector(
                x, direction.components * (ell / model.norm(x, direction))))
            a_alpha = hessian_distance_sq(model, x, y).scaled(alpha_star / 2.0)
            eps = canonical_epsilon(a_alpha)
            pairs = generate_star_candidates(
                a_alpha, eps, per_pair, seed=int(sub_rng.integers(2**31)))
            slack = slack_fn(alpha_star, model.distance(x, y))
            if pairs:
                margins = transported_order_margins(
                    model, x, y, np.array([p.matrix for p, _ in pairs]),
                    np.array([q.matrix for _, q in pairs]), slack_rhs=slack)
                total += len(pairs)
                passed_count += int(np.count_nonzero(margins >= -1e-9))
        results[name] = {
            "candidates": total, "passed": passed_count,
            "pass_rate": passed_count / max(total, 1),
        }
    star_pass = all(r["passed"] == r["candidates"] and r["candidates"] > 0
                    for r in results.values())
    return {
        "doubling": {"pairs": n_pairs, "alphas": alphas, "pass": doubling_pass},
        "star_candidates": results,
        "pass": doubling_pass and star_pass,
    }


# --------------------------------------------------------------------- #
# solve / yamabe
# --------------------------------------------------------------------- #

def _write_solution(out: Path, name: str, grid, values):
    width = grid.coords.shape[1]
    header = ["node"] + [f"x{i}" for i in range(width)] + ["value"]
    rows = [
        (i, *[float(c) for c in grid.coords[i]], float(values[i]))
        for i in range(grid.n_nodes)
    ]
    _write_csv(out / f"{name}_solution.csv", header, rows)


def cmd_solve(config, out: Path, seed: int) -> dict:
    grid = _grid_from_config(config.get("grid", {}))
    operator = operator_from_config(
        config.get("operator", {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "const", "value": -2.0}]})
    )
    u0 = GridFunction.constant(grid, float(config.get("u0", 0.0)))
    u, report = solve_fixed_point(
        operator, grid, u0,
        theta=config.get("theta"),
        tol=float(config.get("tol", 1e-8)),
        max_iter=int(config.get("max_iter", 100_000)),
    )
    _write_solution(out, "solve", grid, u.values)
    return {
        "grid": {"model": grid.model.config(), "resolution": grid.resolution,
                 "h": grid.h, "nodes": grid.n_nodes},
        "operator": operator.name,
        "report": report.to_dict(),
        "pass": report.converged,
    }


def cmd_yamabe(config, out: Path, seed: int) -> dict:
    grid = _grid_from_config(config.get("grid", {}))
    u0 = GridFunction.constant(grid, float(config.get("u0", 1.0)))
    u, report = yamabe_solve(
        grid,
        config.get("S", "const:6"),
        float(config.get("S_prime", -1.0)),
        n=int(config.get("n", 3)),
        u0=u0,
        tol=float(config.get("tol", 1e-8)),
    )
    _write_solution(out, "yamabe", grid, u.values)
    return {
        "grid": {"model": grid.model.config(), "resolution": grid.resolution,
                 "h": grid.h, "nodes": grid.n_nodes},
        "report": report.to_dict(),
        "sup_norm": float(np.max(np.abs(u.values))),
        "pass": report.converged,
    }


def cmd_report(config, out: Path, seed: int) -> dict:
    summary = {}
    all_pass = True
    for name in _REPORT_SUITES:
        sub_cfg = config.get(name.replace("-", "_"), {})
        results = COMMANDS[name](sub_cfg, out, seed)
        _write_json(out / f"{name}.json", {
            "command": name, "seed": seed, "config": sub_cfg, "results": results,
            "pass": results["pass"],
        })
        summary[name] = results["pass"]
        all_pass = all_pass and results["pass"]
    return {"suites": summary, "pass": all_pass}


COMMANDS = {
    "geometry-check": cmd_geometry_check,
    "hessian-sign": cmd_hessian_sign,
    "comparison-demo": cmd_comparison_demo,
    "solve": cmd_solve,
    "yamabe": cmd_yamabe,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemvisc",
        description="Geometry checks and monotone PDE solvers on model manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON job config")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"riemvisc: cannot read config: {exc}", file=sys.stderr)
            return 2
    validator = Draft7Validator(SCHEMAS[args.command])
    errors = sorted(validator.iter_errors(config), key=str)
    if errors:
        for err in errors:
            print(f"riemvisc: config error: {err.message}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = COMMANDS[args.command](config, out, seed)
    except RiemviscError as exc:
        print(f"riemvisc: {exc}", file=sys.stderr)
        return 1
    payload = {
        "command": args.command,
        "seed": seed,
        "config": config,
        "results": results,
        "pass": results["pass"],
    }
    _write_json(out / f"{args.command}.json", payload)
    print(f"{args.command}: {'PASS' if results['pass'] else 'FAIL'}")
    return 0 if results["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
