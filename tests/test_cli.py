"""CLI driver: schemas, exit codes, determinism, report files."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riemvisc
from riemvisc import Euclidean, FlatTorus, Hyperbolic, Product, Sphere, TangentVector
from riemvisc.cli import (
    SCHEMAS, _geometry_suite, _star_check, _star_suite, _write_csv,
    cmd_geometry_check, main,
)
from riemvisc.jacobi import hessian_distance_sq
from riemvisc.jets import canonical_epsilon, star_candidates_stack, transported_order_margins

from generator_doubles import Recording, Recordings, Replay, replays, rows_of


def run(args):
    return main([str(a) for a in args])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_geometry_check_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"model": "sphere", "dim": 2, "radius": 1.0},
                               "n_samples": 200}))
    assert run(["geometry-check", "--config", cfg, "--out", out1, "--seed", 7]) == 0
    assert run(["geometry-check", "--config", cfg, "--out", out2, "--seed", 7]) == 0
    assert digest(out1 / "geometry-check.json") == digest(out2 / "geometry-check.json")


def test_geometry_check_torus_and_product(tmp_path):
    for model in [
        {"model": "flat_torus", "periods": [1.0, 1.0]},
        {"model": "product", "factors": [
            {"model": "sphere", "dim": 2, "radius": 1.0},
            {"model": "euclidean", "dim": 2},
        ]},
    ]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "n_samples": 150}))
        assert run(["geometry-check", "--config", cfg, "--out", tmp_path]) == 0


def _reference_geometry_suite(model, n_samples, seed, tolerances):
    """The geometry suite's blocks, each sample's row drawn by the one-sample
    methods and checked one pair at a time: the oracle of the stacked suite."""
    rng = np.random.default_rng(seed)
    tol_transport = tolerances.get("transport", 1e-10)
    tol_explog = tolerances.get("exp_log", 1e-9)
    tol_additivity = tolerances.get("additivity", 1e-9)
    tol_curvature = tolerances.get("curvature", 1e-10)

    cap = model.injectivity_radius()
    reach = 0.9 * cap if math.isfinite(cap) else 2.5
    tangent, length = ("normal", model.ambient_dim), ("uniform", 0.05, reach)

    worst_transport = 0.0
    for row in replays(model, rng, n_samples, tangent, length, tangent, tangent):
        x, y, _ = model.random_pair(row, 0.05, reach)
        v = model.random_tangent(row, x)
        w = model.random_tangent(row, x)
        lv = model.parallel_transport(x, y, v)
        lw = model.parallel_transport(x, y, w)
        worst_transport = max(
            worst_transport, abs(model.metric(y, lv, lw) - model.metric(x, v, w))
        )

    worst_explog = 0.0
    for row in replays(model, rng, max(1, n_samples // 4), tangent, ("uniform", 0.01, 1.0)):
        x = model.random_point(row)
        v = model.random_tangent(row, x)
        nv = model.norm(x, v)
        if nv < 1e-12:
            continue
        v = TangentVector(x, v.components * (row.uniform(0.01, 1.0) * reach / nv))
        back = model.log(x, model.exp(x, v))
        worst_explog = max(
            worst_explog, float(np.linalg.norm(back.components - v.components))
        )

    worst_additivity = 0.0
    for row in replays(model, rng, max(1, n_samples // 20), tangent, length):
        x, y, _ = model.random_pair(row, 0.05, reach)
        seg = model.geodesic_segment(x, y)
        for t in np.linspace(0.0, seg.length, 5):
            worst_additivity = max(
                worst_additivity, abs(model.distance(x, seg.point_at(float(t))) - t)
            )

    k = model.constant_sectional()
    worst_curvature = 0.0
    curvature_checked = k is not None
    if curvature_checked:
        for row in replays(model, rng, max(1, n_samples // 4), tangent, tangent):
            x = model.random_point(row)
            u = model.random_tangent(row, x)
            v = model.random_tangent(row, x)
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


GEOMETRY_MODELS = [
    Sphere(2, 1.0), Sphere(2, 2.0), Hyperbolic(2, 1.0), Hyperbolic(3, 4.0),
    FlatTorus([1.0, 1.0]), Euclidean(3), Product([Sphere(2, 1.0), Hyperbolic(2, 1.0)]),
]


@pytest.mark.parametrize("seed,n_samples", [(3, 1000), (0, 300), (11, 41)])
@pytest.mark.parametrize("model", GEOMETRY_MODELS, ids=lambda m: json.dumps(m.config()))
def test_geometry_suite_is_the_per_row_oracle(model, seed, n_samples):
    # repr compares every value bit for bit and every type (float, not np.float64)
    assert repr(_geometry_suite(model, n_samples, seed, {})) == repr(
        _reference_geometry_suite(model, n_samples, seed, {}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geometry_suite_drops_short_exp_log_rows(monkeypatch, seed):
    # the exp/log block's tangents (call 6, after the transport check's five
    # blocks and its own points) are rigged to norm < 1e-12 at rows 0, 3, 59
    model, n = Euclidean(2), 240
    short = np.isin(np.arange(n // 4), [0, 3, 59])[:, None]
    rig = {6: lambda out, _: np.where(short, out * 1e-14, out)}
    recordings, logged = Recordings(rig), []
    monkeypatch.setattr(np.random, "default_rng", recordings)
    log_stack = model.log_stack
    monkeypatch.setattr(model, "log_stack",
                        lambda xs, ys: logged.append(len(xs)) or log_stack(xs, ys))
    got = _geometry_suite(model, n, seed, {})
    assert recordings.made[0].calls[5:8] == [
        ("standard_normal", (60, 2)), ("standard_normal", (60, 2)), ("uniform", (60,))]
    assert logged[0] == n // 4 - 3  # the exp/log check's stack; the segments' follow
    assert repr(got) == repr(_reference_geometry_suite(model, n, seed, {}))


def _reference_star_results(config, seed):
    """comparison-demo's star check as a per-pair loop over its blocks, one
    Hessian, one candidate set and one margin stack at a time: the oracle of
    the stacked check."""
    star_pairs = int(config.get("star_pairs", 50))
    per_pair = int(config.get("candidates_per_pair", 10))
    alpha_star = float(config.get("alpha_star", 4.0))
    results = {}
    for offset, (name, model, slack_fn) in enumerate([
        ("sphere", Sphere(2, 1.0), lambda al, d: 0.0),
        ("hyperbolic", Hyperbolic(2, 1.0), lambda al, d: 1.5 * 1.0 * al * d * d),
    ]):
        total = passed_count = 0
        sub_rng = np.random.default_rng(seed + 101 * (offset + 1))
        pairs = rows_of(model.draw_samples(
            sub_rng, star_pairs, ("normal", model.ambient_dim), ("uniform", 0.2, 1.2)))
        uniforms = sub_rng.uniform(0.0, 1.0, (star_pairs, per_pair))
        for row, drawn in zip(pairs, uniforms):
            x, y, _ = model.random_pair(Replay(row), 0.2, 1.2)
            a_alpha = hessian_distance_sq(model, x, y).scaled(alpha_star / 2.0)
            eps = canonical_epsilon(a_alpha)
            p_mats, q_mats, kept = star_candidates_stack(
                a_alpha.matrix[None], np.array([eps]), drawn[None])
            slack = slack_fn(alpha_star, model.distance(x, y))
            if kept.any():
                margins = transported_order_margins(
                    model, x, y, p_mats[kept], q_mats[kept], slack_rhs=slack)
                total += len(margins)
                passed_count += int(np.count_nonzero(margins >= -1e-9))
        results[name] = {
            "candidates": total, "passed": passed_count,
            "pass_rate": passed_count / max(total, 1),
        }
    return results


WIDE_STAR = {"star_pairs": 200, "candidates_per_pair": 25, "alpha_star": 64.0}


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("config", [{}, WIDE_STAR], ids=["default", "wide"])
def test_star_suite_is_the_per_pair_oracle(config, seed):
    got = _star_suite(config, seed)
    assert repr(got) == repr(_reference_star_results(config, seed))
    assert all(r["candidates"] > 0 for r in got.values())


@pytest.mark.parametrize("n_pairs", [1, 10, 1000])
def test_star_check_draws_two_blocks(n_pairs):
    # the pairs' block (a point, a direction, a length) and the candidates'
    # (n_pairs, per_pair) uniforms, whatever the number of pairs
    rng = Recording(5)
    _star_check(Sphere(2, 1.0), rng, n_pairs, 7, 4.0, lambda al, d: 0.0 * d)
    assert rng.calls == [("standard_normal", (n_pairs, 3)), ("standard_normal", (n_pairs, 3)),
                         ("uniform", (n_pairs,)), ("uniform", (n_pairs, 7))]


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_star_check_needs_its_curvature_slack_on_a_curved_plane(seed):
    # the check's pairs are 0.2 to 1.2 long; on H^2 of curvature -4 that is up
    # to 2.4 curvature radii, where P <= L_yx Q fails for some candidates
    # without the slack 1.5 K0 alpha d^2 and holds for all with it (on the
    # report's curvature -1 plane no candidate needs it)
    model, k0 = Hyperbolic(2, 4.0), 4.0
    bare = _star_check(model, np.random.default_rng(seed), 50, 10, 4.0, lambda al, d: 0.0 * d)
    slack = _star_check(model, np.random.default_rng(seed), 50, 10, 4.0,
                        lambda al, d: 1.5 * k0 * al * d * d)
    assert bare["candidates"] == slack["candidates"] > 0
    assert bare["passed"] < bare["candidates"]
    assert slack["passed"] == slack["candidates"]


@pytest.mark.parametrize("n_rows", [0, 1, 12])
def test_csv_columns_are_the_csv_writer_bytes(tmp_path, n_rows):
    floats = [0.0, -0.0, 1.5, -2.25e-300, 5e-324, 1e300, math.inf, -math.inf, math.nan,
              0.1 + 0.2, 123456789.0, -1e-7][:n_rows]
    columns = [range(n_rows), floats, floats[::-1], [2**70 + i for i in range(n_rows)]]
    header = ["node", "x0", "value", "big"]
    _write_csv(tmp_path / "got.csv", header, columns)
    # the per-row writer the column writer replaced
    with (tmp_path / "ref.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_default_config_is_valid_against_every_schema():
    # so main validates only a given config, and {} behaves as before
    from jsonschema import Draft7Validator

    for name, schema in SCHEMAS.items():
        Draft7Validator.check_schema(schema)
        assert list(Draft7Validator(schema).iter_errors({})) == [], name


def test_malformed_json_is_usage_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["geometry-check", "--config", cfg, "--out", tmp_path]) == 2
    cfg.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert run(["geometry-check", "--config", cfg, "--out", tmp_path]) == 2


def test_schema_violation_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"model": "sphere", "dim": 2},
                               "unexpected_field": 1}))
    assert run(["geometry-check", "--config", cfg, "--out", tmp_path]) == 2


BAD_SOLVE = {"grid": {"resolution": 2}, "operator": {"op": "sum"}}


@pytest.mark.parametrize(
    "command,config,message",
    [
        ("solve", {"operator": {"op": "bogus"}}, "'bogus' is not one of"),
        ("solve", {"operator": {"op": "sum"}}, "'terms' is a required property"),
        ("solve", {"operator": {"op": "sum", "terms": [{"op": "const"}]}},
         "'value' is a required property"),
        ("solve", {"operator": {"op": "source", "field": "coord:x"}}, "coord:x"),
        ("geometry-check", {"model": {"model": "blob"}}, "'blob' is not one of"),
        ("hessian-sign", {"model": {"model": "product", "factors": [
            {"model": "sphere", "dim": 2, "radus": 2.0}]}}, "'radus' was unexpected"),
        ("solve", {"grid": {"resolution": "x"}}, "'x' is not of type 'integer'"),
        ("yamabe", {"grid": {"model": {"model": "sphere"}}}, "'dim' is a required property"),
        ("report", {"solve": BAD_SOLVE}, "'terms' is a required property"),
        ("report", {"solv": BAD_SOLVE}, "'solv' was unexpected"),
        ("report", {"geometry_check": {"model": {"model": "blob"}}}, "'blob' is not one of"),
        # a suite under report runs at report's seed, so it takes no seed of its own
        ("report", {"geometry_check": {"seed": 5}}, "'seed' was unexpected"),
        # the sweep's damping is probed, never given
        ("solve", {"theta": 0.04}, "'theta' was unexpected"),
        ("report", {"solve": {"theta": 0.04}}, "'theta' was unexpected"),
        # Python's json reads these as non-finite floats, which "number" admits
        ("solve", {"operator": {"op": "source", "field": float("nan")}}, "non-finite number NaN"),
        ("solve", {"operator": {"op": "const", "value": float("nan")}}, "non-finite number NaN"),
        ("solve", {"operator": {"op": "scalar_term", "coeff": float("inf")}},
         "non-finite number Infinity"),
        ("solve", '{"operator": {"op": "const", "value": -1e999}}', "non-finite number -1e999"),
        ("solve", {"grid": {"resolution": 2}, "operator": {
            "op": "example_5_3", "f": 1.0, "g": 0.5, "p": -1}},
         "-1 is less than the minimum of 0"),
    ],
    ids=[
        "unknown-op", "sum-without-terms", "const-without-value", "bad-field",
        "unknown-model", "misspelt-model-key", "string-resolution", "sphere-without-dim",
        "report-bad-solve", "report-misspelt-suite", "report-unknown-model",
        "report-suite-seed", "solve-theta", "report-solve-theta",
        "nan-field", "nan-const", "infinite-coeff", "overflowing-const",
        "negative-exponent",
    ],
)
def test_malformed_description_is_usage_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("riemvisc: config error: ")
    assert message in err
    assert not out.exists()  # rejected before any suite ran


def test_report_suites_take_every_key_of_their_command_but_seed():
    for name in ("geometry-check", "hessian-sign", "comparison-demo", "solve", "yamabe"):
        embedded = SCHEMAS["report"]["properties"][name.replace("-", "_")]
        assert set(embedded["properties"]) == set(SCHEMAS[name]["properties"]) - {"seed"}, name
        assert embedded["additionalProperties"] is False


def test_geometry_check_seed_208_curvature_constancy(tmp_path):
    # seed 208 draws a nearly dependent (u, v) pair for the curvature check
    results = cmd_geometry_check({}, tmp_path, 208)
    assert results["checks"]["curvature_constancy"]["max_violation"] <= 1e-13
    assert results["pass"]


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["geometry-check", "--out", tmp_path, "--threads", 2])
    assert exc.value.code == 2


def test_hessian_sign_sphere_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 400}))
    assert run(["hessian-sign", "--config", cfg, "--out", tmp_path, "--seed", 1]) == 0
    rows = (tmp_path / "hessian_sign_samples.csv").read_text().splitlines()
    assert rows[0] == "ell,value,bound"
    assert len(rows) == 401
    report = json.loads((tmp_path / "hessian-sign.json").read_text())
    assert report["results"]["max_value"] <= 1e-8
    assert report["results"]["closed_form_max_rel_error"] <= 1e-6


def test_hessian_sign_hyperbolic_bound(tmp_path):
    for curvature in (1.0, 0.25):
        out = tmp_path / str(curvature)
        out.mkdir()
        cfg = out / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"model": "hyperbolic", "dim": 2, "curvature": curvature},
            "n_samples": 400, "k0": 1.0, "ell_range": [0.05, 3.0],
        }))
        assert run(["hessian-sign", "--config", cfg, "--out", out, "--seed", 2]) == 0
        report = json.loads((out / "hessian-sign.json").read_text())
        assert report["results"]["min_value"] >= -1e-8
        assert report["results"]["max_bound_violation"] <= 1e-8
        # the negative-curvature closed form 4 l s (cosh sl - 1) / sinh sl |v|^2
        assert report["results"]["closed_form_max_rel_error"] <= 1e-12
        assert report["results"]["curvature_bound"]["pass"]
        assert report["pass"]


def test_hessian_sign_flat_model(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"model": "euclidean", "dim": 2},
        "n_samples": 300, "ell_range": [0.05, 2.0],
    }))
    assert run(["hessian-sign", "--config", cfg, "--out", tmp_path, "--seed", 4]) == 0
    report = json.loads((tmp_path / "hessian-sign.json").read_text())
    assert abs(report["results"]["max_value"]) <= 1e-8
    assert abs(report["results"]["min_value"]) <= 1e-8


def test_hessian_sign_product_with_a_hyperbolic_factor(tmp_path, capsys):
    # hyperboloid roundoff once made a constancy check refuse some of these segments
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"model": "product", "factors": [
            {"model": "euclidean", "dim": 1},
            {"model": "hyperbolic", "dim": 3, "curvature": 4.0},
        ]},
        "n_samples": 2000,
    }))
    assert run(["hessian-sign", "--config", cfg, "--out", tmp_path, "--seed", 3]) == 0
    assert "hessian-sign: PASS" in capsys.readouterr().out
    report = json.loads((tmp_path / "hessian-sign.json").read_text())
    assert report["results"]["sign_condition"]["pass"]
    assert report["results"]["min_value"] >= -1e-8
    # the default K0 is the hyperbolic factor's, and the bound is checked at it
    assert report["results"]["k0"] == 4.0
    assert report["results"]["max_bound_violation"] <= 1e-8
    bound = report["results"]["curvature_bound"]
    assert (bound["k0"], bound["samples"], bound["pass"]) == (4.0, 2000, True)


def test_comparison_demo_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 2, "n_pairs": 2,
                               "star_pairs": 10, "candidates_per_pair": 5}))
    assert run(["comparison-demo", "--config", cfg, "--out", tmp_path, "--seed", 3]) == 0
    rows = (tmp_path / "doubling_trace.csv").read_text().splitlines()
    assert rows[0] == "pair,alpha,m_alpha,d,alpha_d_sq,x_idx,y_idx"
    report = json.loads((tmp_path / "comparison-demo.json").read_text())
    star = report["results"]["star_candidates"]
    for name in ("sphere", "hyperbolic"):
        assert star[name]["pass_rate"] == 1.0


def test_solve_constant_problem(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"model": {"model": "sphere", "dim": 2, "radius": 1.0},
                 "resolution": 2},
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "const", "value": -2.0}]},
        "tol": 1e-8,
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 0
    rows = (tmp_path / "solve_solution.csv").read_text().splitlines()
    assert rows[0] == "node,x0,x1,x2,value"
    values = [float(line.split(",")[-1]) for line in rows[1:]]
    assert max(abs(v - 2.0) for v in values) <= 1e-6


def test_solve_torus_grid(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"model": {"model": "flat_torus", "periods": [1.0, 1.0]},
                 "resolution": 16},
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "const", "value": -1.0}]},
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 0


def test_solve_failure_exit_code(tmp_path):
    # no iteration allowed: Newton takes no step, nor does the sweep it hands
    # the unsolved problem to (one Newton step solves this res-2 problem)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"model": {"model": "sphere", "dim": 2, "radius": 1.0},
                 "resolution": 2},
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "source", "field": "coord:2"}]},
        "max_iter": 0,
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    report = json.loads((tmp_path / "solve.json").read_text())
    assert report["pass"] is False


def test_coordinate_past_the_model_is_a_typed_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "source", "field": "coord:7"}]},
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("riemvisc: coord:7: axis 7 is past the 3 coordinates")
    assert "Traceback" not in err


def test_start_outside_the_r_domain_is_a_typed_error(tmp_path, capsys):
    # yamabe(5) needs r >= 0; the engine refuses the start before any solve
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"resolution": 3}, "u0": -1.0,
        "operator": {"op": "yamabe", "n": 5, "S": "const:6", "S_prime": -1.0},
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("riemvisc: u0 -1.0 at node 0 is outside the r-domain [0.0, inf]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("weights", [[1.0], [1.0, -1.0]])
def test_refused_sum_weights_are_a_typed_error(tmp_path, capsys, weights):
    # the schema admits any list of numbers; sum_of needs one finite
    # nonnegative weight per term
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"resolution": 2},
        "operator": {"op": "sum", "weights": weights, "terms": [
            {"op": "neg_trace"}, {"op": "source", "field": "coord:2"}]},
    }))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err == "riemvisc: sum combinator needs one finite nonnegative weight per term\n"


def test_yamabe_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"resolution": 2}, "S": "const:6", "S_prime": -1.0, "n": 3,
        "tol": 1e-8,
    }))
    assert run(["yamabe", "--config", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "yamabe.json").read_text())
    assert report["results"]["sup_norm"] <= 1e-6


def test_report_runs_all_suites(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry_check": {"n_samples": 150},
        "hessian_sign": {"n_samples": 300},
        "comparison_demo": {"resolution": 2, "n_pairs": 1,
                            "star_pairs": 5, "candidates_per_pair": 4},
        "solve": {"grid": {"resolution": 2}},
        "yamabe": {"grid": {"resolution": 2}},
    }))
    assert run(["report", "--config", cfg, "--out", tmp_path, "--seed", 5]) == 0
    summary = json.loads((tmp_path / "report.json").read_text())
    assert set(summary["results"]["suites"]) == {
        "geometry-check", "hessian-sign", "comparison-demo", "solve", "yamabe",
    }
    for name in summary["results"]["suites"]:
        assert (tmp_path / f"{name}.json").exists()


def test_solve_deterministic_hash(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"resolution": 2},
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "source", "field": "coord:2"}]},
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["solve", "--config", cfg, "--out", out1, "--seed", 9]) == 0
    assert run(["solve", "--config", cfg, "--out", out2, "--seed", 9]) == 0
    assert digest(out1 / "solve_solution.csv") == digest(out2 / "solve_solution.csv")
    assert digest(out1 / "solve.json") == digest(out2 / "solve.json")


def _loaded(code, prefixes, out_dir):
    """Run `code` in a fresh interpreter; map each module prefix to whether it got loaded."""
    src = str(Path(riemvisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (f"import sys\nOUT = {str(out_dir)!r}\n{code}\n"
             f"print({{p: any(m.startswith(p) for m in sys.modules) for p in {prefixes!r}}})")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1]


def test_cli_import_leaves_scipy_spatial_out(tmp_path):
    # nothing on the CLI's import path needs a k-d tree (0.23 s of its import)
    assert _loaded("import riemvisc.cli", ("scipy.spatial",), tmp_path) == "{'scipy.spatial': False}"


def test_cli_import_leaves_jsonschema_out(tmp_path):
    # jsonschema loads only to validate a given --config
    assert _loaded("import riemvisc.cli", ("jsonschema",), tmp_path) == "{'jsonschema': False}"


@pytest.mark.parametrize("code, loaded", [
    # scipy.sparse loads only with the first grid
    ("import riemvisc.cli", False),
    ("import riemvisc", False),
    ("from riemvisc.cli import main\n"
     "assert main(['geometry-check', '--out', OUT, '--seed', '3']) == 0", False),
    ("from riemvisc.cli import main\n"
     "assert main(['hessian-sign', '--out', OUT, '--seed', '3']) == 0", False),
    # a grid build does load it, so no row passes because a module was renamed
    ("from riemvisc import Sphere, build_grid\nbuild_grid(Sphere(2, 1.0), 2)", True),
], ids=["cli-import", "package-import", "geometry-check", "hessian-sign", "grid-build"])
def test_module_loading(code, loaded, tmp_path):
    assert _loaded(code, ("scipy.sparse",), tmp_path) == str({"scipy.sparse": loaded})
