"""Single timed calls into every layer, made once at the end of a traced run.

They measure the per-iteration split from outside the solver (gather,
residual, operator evaluation, context build) on the workload's own grid
and operator.  The per-sample metrics (sphere round trip, BVP plus index
form, star candidates, CLI import) come from the traced pass's own spans
where the workload does that work, and from one small probe elsewhere,
because every per-layer metric is reported on every workload.  The probes'
spans are kept apart from the pass's, so the layers' self times are the
workload's alone.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from riemvisc import GridFunction, discrete_residual
from riemvisc.operators import constant, neg_trace, scalar_term, sum_of

import speed
import workloads as W
from tracing import Tracer

ROUNDTRIP_SAMPLES, BVP_SAMPLES, STAR_PAIRS = 100, 20, 5


def _fastest_call(tracer, name: str, fn, reps: int) -> float:
    """Fastest of ``reps`` calls, in seconds, each in its own span."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        with tracer.span(name):
            fn()
        times.append(time.perf_counter() - start)
    return min(times)


def probe_layers(workload: str, last: W.Pass, seed: int, root: Path,
                 work: Path) -> tuple[W.Pass, dict[str, float]]:
    """Probe every layer on the objects ``last`` kept; returns the traced
    probe pass (its spans, counts and checks) and the probe metrics."""
    tr = Tracer(enabled=True, run_id=f"{last.tracer.run_id}:probe", clock=speed.clock)
    p = W.Pass(tr)
    grid, F, u = last.probe_grid, last.probe_operator, last.probe_u
    if grid is None:
        # cli_report runs in a subprocess: probe the CLI's default solve
        # (res 3, u - lap u = 2, solution 2) in process
        grid = W.build_sphere(p, 3)
        F = sum_of(scalar_term(1.0), neg_trace(), constant(-2.0))
        u = np.full(grid.n_nodes, 2.0)
        p.keep_for_probes(grid, F, u)
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    zetas = rng.standard_normal((n, 2))
    raw = rng.standard_normal((n, 2, 2))
    amats = 0.5 * (raw + raw.transpose(0, 2, 1))
    gf = GridFunction(grid, u)
    ctx = F.make_context(grid.nodes)

    out = {
        "grids.gather_ms": 1e3 * _fastest_call(
            tr, "grids.gather", lambda: [s @ u for s in grid.stencils], 20),
        "solver.residual_ms": 1e3 * _fastest_call(
            tr, "solver.discrete_residual", lambda: discrete_residual(F, grid, gf), 5),
        "operators.context_ms": 1e3 * _fastest_call(
            tr, "operators.make_context", lambda: F.make_context(grid.nodes), 3),
        "operators.eval_ms": 1e3 * _fastest_call(
            tr, "operators.eval_batch", lambda: F.eval_batch(ctx, u, zetas, amats), 5),
    }
    own = W.PER_SAMPLE.get(workload, {})
    for metric, (span, samples) in own.items():
        out[metric] = 1e3 * last.tracer.totals[span] / samples
    if "manifolds.roundtrip_ms" not in own:
        with tr.span("manifolds.roundtrip.probe"):
            start = time.perf_counter()
            W.roundtrip_error(W.SPHERE, ROUNDTRIP_SAMPLES, rng)
            out["manifolds.roundtrip_ms"] = (
                1e3 * (time.perf_counter() - start) / ROUNDTRIP_SAMPLES)
    if "jacobi.bvp_index_ms" not in own:
        with tr.span("jacobi.bvp_index.probe"):
            start = time.perf_counter()
            W.bvp_index_gap(W.SPHERE, BVP_SAMPLES, rng)
            out["jacobi.bvp_index_ms"] = 1e3 * (time.perf_counter() - start) / BVP_SAMPLES
    if "jets.star_ms" not in own:
        with tr.span("jets.star_candidates.probe"):
            start = time.perf_counter()
            requested, accepted, _ = W.star_sweep(
                W.SPHERE, W.STAR_SLACK["sphere"], STAR_PAIRS, W.STAR_PER_PAIR, rng)
            out["jets.star_ms"] = 1e3 * (time.perf_counter() - start) / STAR_PAIRS
        p.counts["star.requested.probe"] = requested
        p.counts["star.accepted.probe"] = accepted
    if "cli.import" in last.tracer.totals:
        out["cli.import_s"] = last.tracer.totals["cli.import"]
    else:
        W.cli_setup(p, root, work)
        out["cli.import_s"] = p.tracer.totals["cli.import"]
    return p, out
