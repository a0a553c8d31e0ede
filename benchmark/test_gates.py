"""The benchmark's own tests: every oracle gate rejects a perturbed output.

    python3 -m pytest benchmark/test_gates.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from riemvisc import build_grid, doubling_diagnostic, GridFunction, solve_fixed_point  # noqa: E402
from riemvisc.jacobi import parallel_pair_sweep  # noqa: E402
from riemvisc.operators import neg_trace, source, sum_of  # noqa: E402
from tracing import Tracer, layer_self_times  # noqa: E402


@pytest.fixture(scope="module")
def grid3():
    return build_grid(W.SPHERE, 3)


@pytest.fixture(scope="module")
def ladder_res3(grid3):
    inp = W.make_inputs(7)
    G = sum_of(neg_trace(), source(W.linear_field(inp.a)))
    u, rep = solve_fixed_point(G, grid3, tol=W.SOLVE_TOL)
    return u.values, grid3.coords @ inp.a / 3.0


def test_ladder_gate_rejects_shifted_solution(ladder_res3):
    u, exact = ladder_res3
    errors = {3: oracles.sup_error(u, exact), 4: 1e-3, 5: 5e-4}
    assert oracles.ladder_ok(errors)[0]
    errors[3] = oracles.sup_error(u + 1e-2, exact)
    assert not oracles.ladder_ok(errors)[0]


def test_ladder_gate_rejects_error_that_does_not_shrink():
    assert not oracles.ladder_ok({3: 1e-3, 4: 1e-3, 5: 5e-4})[0]


def test_max_of_gate_rejects_shifted_solution(ladder_res3):
    u, exact = ladder_res3
    capped, bound = np.minimum(u, 0.1), oracles.LADDER_ERR_BOUND[3]
    assert oracles.max_of_excess(capped, exact, bound) <= 1e-7
    assert oracles.max_of_excess(capped + 1e-2, exact, bound) > 1e-7


@pytest.mark.parametrize("model, ell_range", [
    (W.SPHERE, (0.05, 2.8)), (W.HYPERBOLIC, (0.05, 3.0)), (W.PRODUCT, (0.05, 3.0)),
])
def test_hessian_sign_gate_rejects_flipped_sign(model, ell_range):
    ells, values, vnorms = parallel_pair_sweep(model, 40 if model is not W.PRODUCT else 4,
                                               3, ell_range)
    curvature = model.constant_sectional() or 0.0
    assert oracles.hessian_sign_ok(curvature, ells, values, vnorms)[0]
    assert not oracles.hessian_sign_ok(curvature, ells, -values, vnorms)[0]


def test_hessian_closed_form_gate_rejects_relative_error():
    ells, values, vnorms = parallel_pair_sweep(W.SPHERE, 40, 3, (0.05, 2.8))
    assert not oracles.hessian_sign_ok(1.0, ells, values * (1 + 1e-4), vnorms)[0]


def test_sample_loop_oracles_hold_and_bound_is_tight():
    rng = np.random.default_rng(0)
    assert W.roundtrip_error(W.HYPERBOLIC, 50, rng) <= oracles.ROUNDTRIP_TOL
    assert W.bvp_index_gap(W.SPHERE, 20, rng) <= oracles.INDEX_GAP_TOL
    requested, accepted, margin = W.star_sweep(
        W.SPHERE, W.STAR_SLACK["sphere"], 2, 5, rng)
    assert accepted == requested and margin >= oracles.STAR_MARGIN_TOL


def test_doubling_gate_rejects_shifted_maximum(grid3):
    rng = np.random.default_rng(1)
    u = GridFunction(grid3, grid3.coords @ rng.standard_normal(3))
    v = GridFunction(grid3, grid3.coords @ rng.standard_normal(3))
    final = doubling_diagnostic(W.SPHERE, u, v, W.DOUBLING_ALPHAS).final()
    gap = u.values - v.values
    floor = grid3.modulus_at_spacing(gap, grid3.h)
    assert oracles.doubling_ok(final, gap, floor)
    shifted = dataclasses.replace(final, m_alpha=final.m_alpha + 2 * floor + 1e-2)
    assert not oracles.doubling_ok(shifted, gap, floor)


def test_min_eig_outcomes():
    exact, cap = np.linspace(-0.5, 0.5, 11), W.STALL_CAP
    outcome = oracles.min_eig_outcome
    assert outcome(True, 300, cap, [1.0, 1e-9], exact, exact) == "converged"
    assert outcome(True, 300, cap, [1.0, 1e-9], exact + 1e-2, exact) == "failed"
    # the measured stall (3.1e-3 to 6.7e-3 after the cap) is the known defect ...
    assert outcome(False, cap, cap, [1.0, 5.5e-3], exact, exact) == "known_defect"
    # ... a worse stall, an early stop or a non-finite residual is not
    assert outcome(False, cap, cap, [1.0, 2e-2], exact, exact) == "failed"
    assert outcome(False, cap // 2, cap, [1.0, 5.5e-3], exact, exact) == "failed"
    assert outcome(False, cap, cap, [1.0, np.nan, 5.5e-3], exact, exact) == "failed"


def _fake_report(out: Path, failing: str | None = None, curvature: float = 1e-12):
    out.mkdir()
    for name in oracles.REPORT_SUITES + ("report",):
        payload = {"command": name, "pass": failing is None or name not in (failing, "report")}
        if name == "geometry-check":
            payload["results"] = {"checks": {
                "curvature_constancy": {"max_violation": curvature,
                                        "pass": curvature <= 1e-10},
                "transport_isometry": {"max_violation": 0.0, "pass": True},
            }}
        (out / f"{name}.json").write_text(json.dumps(payload))


def test_cli_gate_rejects_failed_suite_exit_code_and_missing_file(tmp_path):
    _fake_report(tmp_path / "ok")
    assert oracles.cli_report_outcome(0, "report: PASS\n", tmp_path / "ok")[0] == "pass"
    assert oracles.cli_report_outcome(1, "report: PASS\n", tmp_path / "ok")[0] == "failed"
    assert oracles.cli_report_outcome(0, "report: FAIL\n", tmp_path / "ok")[0] == "failed"
    _fake_report(tmp_path / "bad", failing="yamabe")
    assert oracles.cli_report_outcome(1, "report: FAIL\n", tmp_path / "bad")[0] == "failed"
    (tmp_path / "ok" / "solve.json").unlink()
    assert oracles.cli_report_outcome(0, "report: PASS\n", tmp_path / "ok")[0] == "failed"


def test_cli_curvature_defect_is_known_only_within_its_limit(tmp_path):
    _fake_report(tmp_path / "near", failing="geometry-check", curvature=1.7e-10)
    assert oracles.cli_report_outcome(
        1, "report: FAIL\n", tmp_path / "near")[0] == "known_defect"
    _fake_report(tmp_path / "far", failing="geometry-check", curvature=1e-6)
    assert oracles.cli_report_outcome(1, "report: FAIL\n", tmp_path / "far")[0] == "failed"


def test_cli_byte_identity_rejects_altered_output(tmp_path):
    _fake_report(tmp_path / "a")
    before = oracles.file_digests(tmp_path / "a")
    assert oracles.file_digests(tmp_path / "a") == before
    path = tmp_path / "a" / "solve.json"
    path.write_bytes(path.read_bytes() + b" ")
    assert oracles.file_digests(tmp_path / "a") != before


def test_determinism_gate_rejects_changing_counts(tmp_path):
    calls = []

    def flaky(inp, p):
        calls.append(1)
        p.counts["iterations"] = len(calls)
        p.check("op", True)

    stub = SimpleNamespace(Pass=W.Pass, flaky=flaky)
    passes = run.run_passes(stub, "flaky", None, 0.0, False, tmp_path, tmp_path)
    assert len(passes) == 2
    assert passes[1].failed == 1 and "determinism" in passes[1].failures[0]


def test_raising_operation_counts_as_failed(tmp_path):
    def broken(inp, p):
        raise ArithmeticError("diverged")

    stub = SimpleNamespace(Pass=W.Pass, broken=broken)
    passes = run.run_passes(stub, "broken", None, 0.0, False, tmp_path, tmp_path)
    assert all(p.failed == 1 and p.attempted >= 1 for p in passes)


def test_self_time_subtracts_children():
    tracer = Tracer(enabled=True, run_id="t")
    with tracer.span("solver.outer"):
        with tracer.span("operators.inner"):
            sum(range(10_000))
    outer, inner = tracer.spans
    layers = layer_self_times(tracer.spans)
    assert inner.parent == outer.index
    assert layers["solver"] == pytest.approx(outer.duration - inner.duration)
    assert layers["operators"] == pytest.approx(inner.duration)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "solve_ladder", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(tmp_path):
    passes = []
    for traced in (False, True):
        p = W.Pass(Tracer(enabled=traced, run_id=f"t:{traced}"),
                   kernel_s=speed.REFERENCE_S)
        with p.tracer.span("bench.pass"):
            p.counts["iterations.r3"] = 1
        passes.append(p)
    probe, probe_out = probes.probe_layers("solve_ladder", passes[-1], 0, HERE.parent, tmp_path)
    metrics, summary = run.per_layer_metrics("solve_ladder", passes, probe, probe_out)
    assert set(metrics) == set(run.declared_units(HERE.parent, trace=True))
    assert all(v > 0 for v in probe_out.values())
    assert summary["probe_spans"] and probe.failed == 0
    # self times are the pass's own: the probes' solver and grid calls
    # do not show up in the layers
    assert metrics["trace.spans"] == 1 and metrics["bench.self_s"] > 0
    assert metrics["solver.self_s"] == 0 and metrics["grids.build_s"] == 0


def test_per_sample_metrics_come_from_the_workloads_own_spans(tmp_path):
    p = W.Pass(Tracer(enabled=True, run_id="t"))
    for span, samples in W.PER_SAMPLE["oracle_sweeps"].values():
        p.tracer.totals[span] = 0.5 * samples
    p.tracer.totals["cli.import"] = 0.75
    p.keep_for_probes(build_grid(W.SPHERE, 2), W.CHECKED_OPERATORS[7],
                      np.zeros(10 * 4**2 + 2))
    _, out = probes.probe_layers("oracle_sweeps", p, 0, HERE.parent, tmp_path)
    for metric in W.PER_SAMPLE["oracle_sweeps"]:
        assert out[metric] == pytest.approx(500.0)
    assert out["cli.import_s"] == 0.75


def test_sampled_subprocess_hands_back_its_samples_and_exit_code(tmp_path):
    out = tmp_path / "samples.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "sampled.py"), str(out), "-c",
         "total = sum(i * i for i in range(3_000_000)); raise SystemExit(3)"],
        check=False)
    assert proc.returncode == 3
    sampler = speed.Sampler()
    sampler.absorb(out)
    assert sampler.samples and sampler.spent >= sum(sampler.samples)
