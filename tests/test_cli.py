"""CLI driver: schemas, exit codes, determinism, report files."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riemvisc
from riemvisc.cli import cmd_geometry_check, main


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


def test_malformed_json_is_usage_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
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
    ],
    ids=[
        "unknown-op", "sum-without-terms", "const-without-value", "bad-field",
        "unknown-model", "misspelt-model-key", "string-resolution", "sphere-without-dim",
        "report-bad-solve", "report-misspelt-suite", "report-unknown-model",
    ],
)
def test_malformed_description_is_usage_error(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("riemvisc: config error: ")
    assert message in err
    assert not out.exists()  # rejected before any suite ran


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"model": {"model": "sphere", "dim": 2, "radius": 1.0},
                 "resolution": 2},
        "operator": {"op": "sum", "terms": [
            {"op": "neg_trace"}, {"op": "source", "field": "coord:2"}]},
        "max_iter": 3,
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


def test_cli_import_leaves_scipy_spatial_out():
    # nothing on the CLI's import path needs a k-d tree (0.23 s of its import)
    src = str(Path(riemvisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, riemvisc.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
