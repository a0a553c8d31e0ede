"""The four workloads, each one pass of seeded work through riemvisc's API.

A pass builds what it needs (the set-up), runs its operations, and checks
every output against its closed form or PASS criterion.  ``Pass.check``
counts each checked operation as attempted, and as failed when the check
misses; an operation that raises counts as one failure.  ``Pass.counts``
holds every count the pass produced (iterations, sweeps, candidates,
stencil nonzeros, oracle errors); the runner requires them to repeat
exactly from pass to pass of one seed.

Inputs come from the seed only: the source is ``f = a.x`` with ``a`` a
seeded unit vector, so the closed-form solution of ``u - lap u = f`` on the
unit sphere is ``a.x / 3``.  ``a`` is normalised so that the work a seed
asks for (iterations grow with log |a| / tol) does not vary with the seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riemvisc import (
    GridFunction,
    Hyperbolic,
    Product,
    Euclidean,
    Sphere,
    TangentVector,
    build_grid,
    check_P_leq_LQ,
    doubling_diagnostic,
    ellipticity_check,
    generate_star_candidates,
    index_form,
    intrinsic_modulus_estimate,
    invariance_check,
    perron_iterate,
    solve_fixed_point,
    solve_jacobi_bvp,
    verify_viscosity_residual,
    yamabe_solve,
)
from riemvisc.jacobi import hessian_distance_sq, parallel_pair_sweep
from riemvisc.jets import canonical_epsilon
from riemvisc.operators import (
    ScalarField,
    constant,
    example_5_3,
    max_of,
    neg_detplus,
    neg_min_eigenvalue,
    neg_trace,
    scalar_term,
    source,
    sum_of,
    yamabe,
)

import oracles
import speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent

SPHERE = Sphere(2, 1.0)
HYPERBOLIC = Hyperbolic(2, 1.0)
PRODUCT = Product([Sphere(2, 1.0), Euclidean(2)])
LADDER = (3, 4, 5)
NONLINEAR_RES = 4
SOLVE_TOL = 1e-8
PERRON_TOL = 1e-6
# The neg_min_eigenvalue solve converges at res 3 (138 iterations) but
# stalls at res 5: the residual rises from its early minimum and sits at
# 3e-3 to 7e-3 after 1000 iterations (4e-3 after 3000).  At res 4 it stalls for some sources
# and converges for others, so the timed pass solves it at res 3, and the
# res-5 solve runs once per run, capped, as a known defect while it stalls
# as measured (see oracles.min_eig_outcome).
MIN_EIG_RES, STALL_RES, STALL_CAP = 3, 5, 1000


@dataclass
class Pass:
    """What one pass did: checks, counts, and the objects the probes reuse."""

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    took: float = 0.0  # seconds from the pass's start to its checked result
    kernel_s: float = 0.0  # median calibration-kernel time during the pass
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    probe_grid: object = None
    probe_operator: object = None
    probe_u: np.ndarray | None = None

    def check(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def release(self):
        self.probe_grid = self.probe_operator = self.probe_u = None

    def keep_for_probes(self, grid, operator, u):
        self.probe_grid, self.probe_operator, self.probe_u = grid, operator, u
        self.counts["grid.nodes"] = grid.n_nodes
        self.counts["grid.stencil_nnz"] = sum(int(s.nnz) for s in grid.stencils)


@dataclass(frozen=True)
class Inputs:
    seed: int
    a: np.ndarray          # unit vector, f = a.x
    yamabe_u0: np.ndarray  # conformal-solve start, one value in [0.5, 2) per res-4 node
    pairs: np.ndarray      # doubling pair (1, 2, 3): u = a.x, v = b.x
    sample_seed: int       # seed handed to the sampled sweeps


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(3)
    return Inputs(
        seed=seed,
        a=a / np.linalg.norm(a),
        yamabe_u0=rng.uniform(0.5, 2.0, size=10 * 4**NONLINEAR_RES + 2),
        pairs=rng.standard_normal((1, 2, 3)),
        sample_seed=int(rng.integers(2**31)),
    )


def linear_field(a: np.ndarray) -> ScalarField:
    return ScalarField(lambda p: float(a @ p.coords), name="linear")


def build_sphere(p: Pass, resolution: int):
    with p.tracer.span(f"grids.build_grid.r{resolution}"):
        return build_grid(SPHERE, resolution)


# --------------------------------------------------------------------- #
# solve_ladder
# --------------------------------------------------------------------- #

def solve_ladder(inp: Inputs, p: Pass):
    tr = p.tracer
    G = sum_of(neg_trace(), source(linear_field(inp.a)))
    errors = {}
    for r in LADDER:
        grid = build_sphere(p, r)
        with tr.span(f"solver.solve_fixed_point.r{r}"):
            u, rep = solve_fixed_point(G, grid, tol=SOLVE_TOL)
        with tr.span("bench.oracle"):
            errors[r] = oracles.sup_error(u.values, grid.coords @ inp.a / 3.0)
            p.check(f"solve.r{r}", rep.converged, f"residual {rep.final_residual:.3e}")
        p.counts[f"iterations.r{r}"] = rep.iterations
        p.counts[f"oracle_err.r{r}"] = errors[r]
    with tr.span("bench.oracle"):
        ok, detail = oracles.ladder_ok(errors)
        p.check("ladder", ok, detail)
    F = sum_of(scalar_term(1.0), neg_trace(), source(linear_field(inp.a)))
    with tr.span(f"solver.verify_viscosity_residual.r{LADDER[-1]}"):
        vr = verify_viscosity_residual(F, grid, u)
    p.check("verify", vr.passed, f"violations {vr.max_sub_violation:.3e} "
            f"{vr.max_super_violation:.3e}")
    p.keep_for_probes(grid, F, u.values)


# --------------------------------------------------------------------- #
# nonlinear
# --------------------------------------------------------------------- #

def nonlinear(inp: Inputs, p: Pass):
    tr = p.tracer
    grid = build_sphere(p, NONLINEAR_RES)
    small = build_sphere(p, MIN_EIG_RES)
    f = linear_field(inp.a)
    exact = grid.coords @ inp.a / 3.0
    bound = oracles.LADDER_ERR_BOUND[NONLINEAR_RES]

    F = sum_of(scalar_term(1.0), neg_trace(), source(f))
    with tr.span("solver.perron_iterate"):
        res = perron_iterate(
            F, grid, GridFunction.constant(grid, -1.0),
            GridFunction.constant(grid, 1.0), tol=PERRON_TOL,
        )
    with tr.span("bench.oracle"):
        err = oracles.sup_error(res.solution.values, exact)
        p.check("perron", res.converged and res.ordering_ok
                and res.min_increment >= -1e-12 and err <= bound,
                f"converged={res.converged} ordering={res.ordering_ok} err={err:.3e}")
    p.counts["perron.sweeps"] = res.sweeps
    p.counts["perron.oracle_err"] = err

    u0 = GridFunction(grid, inp.yamabe_u0.copy())
    with tr.span("solver.yamabe_solve"):
        uy, rep = yamabe_solve(grid, "const:6", -1.0, n=3, u0=u0, tol=SOLVE_TOL)
    with tr.span("bench.oracle"):
        sup = float(np.max(np.abs(uy.values)))
        p.check("yamabe", rep.converged and sup <= 1e-6, f"sup={sup:.3e}")
    p.counts["yamabe.iterations"] = rep.iterations
    p.counts["yamabe.sup"] = sup

    # u + max(-lap u - f, -0.1) = 0 lies below both of its supersolutions
    G_max = max_of(sum_of(neg_trace(), source(f)), constant(-0.1))
    with tr.span("solver.solve_fixed_point.max_of"):
        um, rep = solve_fixed_point(G_max, grid, tol=SOLVE_TOL)
    with tr.span("bench.oracle"):
        excess = oracles.max_of_excess(um.values, exact, bound)
        p.check("max_of", rep.converged and excess <= 1e-7, f"excess={excess:.3e}")
    p.counts["max_of.iterations"] = rep.iterations

    G_eig = sum_of(neg_min_eigenvalue(), source(f))
    with tr.span("solver.solve_fixed_point.min_eig"):
        ue, rep = solve_fixed_point(G_eig, small, tol=SOLVE_TOL, max_iter=STALL_CAP)
    with tr.span("bench.oracle"):
        err = oracles.sup_error(ue.values, small.coords @ inp.a / 2.0)
        p.check("min_eig", rep.converged and err <= oracles.MIN_EIG_ERR_BOUND[MIN_EIG_RES],
                f"converged={rep.converged} err={err:.3e}")
    p.counts["min_eig.iterations"] = rep.iterations
    p.counts["min_eig.oracle_err"] = err
    p.keep_for_probes(grid, sum_of(scalar_term(1.0), G_eig), res.solution.values)


def min_eig_stall(inp: Inputs, p: Pass):
    """The known defect: the capped res-5 neg_min_eigenvalue solve."""
    grid = build_sphere(p, STALL_RES)
    G_eig = sum_of(neg_min_eigenvalue(), source(linear_field(inp.a)))
    with p.tracer.span(f"solver.solve_fixed_point.min_eig.r{STALL_RES}"):
        ue, rep = solve_fixed_point(G_eig, grid, tol=SOLVE_TOL, max_iter=STALL_CAP)
    with p.tracer.span("bench.oracle"):
        outcome = oracles.min_eig_outcome(
            rep.converged, rep.iterations, STALL_CAP, rep.residual_history,
            ue.values, grid.coords @ inp.a / 2.0)
        p.check("min_eig_stall", outcome != "failed", f"residual {rep.final_residual:.3e}")
    p.known_defects += outcome == "known_defect"
    p.counts["min_eig_stall.iterations"] = rep.iterations
    p.counts["min_eig_stall.final_residual"] = rep.final_residual


# --------------------------------------------------------------------- #
# oracle_sweeps
# --------------------------------------------------------------------- #

MODELS = {"sphere": SPHERE, "hyperbolic": HYPERBOLIC, "product": PRODUCT}
ROUNDTRIPS = {"sphere": 300, "hyperbolic": 300, "product": 60}
PAIR_SAMPLES = {"sphere": 800, "hyperbolic": 800, "product": 16}
BVP_SEGMENTS = {"sphere": 150, "hyperbolic": 150, "product": 8}
STAR_PAIRS, STAR_PER_PAIR = 16, 20
STAR_SLACK = {
    "sphere": lambda alpha, d: 0.0,
    "hyperbolic": lambda alpha, d: 1.5 * alpha * d * d,
}
DOUBLING_ALPHAS = [float(2**k) for k in range(2, 13)]
CHECK_SAMPLES = 300
CHECKED_OPERATORS = (
    neg_trace(), neg_detplus(), neg_min_eigenvalue(), constant(-2.0),
    scalar_term(1.0), yamabe(3, 6.0, -1.0), example_5_3(0.5, 0.0),
    sum_of(scalar_term(1.0), neg_trace()), max_of(neg_trace(), constant(-1.0)),
)


def _random_segment(model, rng, lo=0.1):
    x = model.random_point(rng)
    cap = model.injectivity_radius(x)
    hi = 0.85 * cap if math.isfinite(cap) else 2.5
    d = model.random_tangent(rng, x)
    ell = rng.uniform(lo, hi)
    y = model.exp(x, TangentVector(x, d.components * (ell / model.norm(x, d))))
    return x, y


def roundtrip_error(model, n: int, rng) -> float:
    """Worst exp/log, there-and-back transport and transport isometry error
    over n samples, each relative to its conditioning: the square of the
    largest ambient coordinate (hyperboloid coordinates grow like cosh of
    the distance from its origin) times the size of the vector involved."""
    worst = 0.0
    for _ in range(n):
        x, y = _random_segment(model, rng, lo=0.05)
        v = model.log(x, y)
        back = model.log(x, model.exp(x, v))
        w = model.random_tangent(rng, x)
        there = model.parallel_transport(x, y, w)
        again = model.parallel_transport(y, x, there)
        cond = max(1.0, float(np.max(np.abs(x.coords))), float(np.max(np.abs(y.coords))))**2
        size_v = max(1.0, float(np.max(np.abs(v.components))))
        size_w = max(1.0, float(np.max(np.abs(w.components))))
        worst = max(
            worst,
            float(np.max(np.abs(back.components - v.components))) / (cond * size_v),
            float(np.max(np.abs(again.components - w.components))) / (cond * size_w),
            abs(model.metric(y, there, there) - model.metric(x, w, w)) / (cond * size_w**2),
        )
    return worst


def bvp_index_gap(model, n: int, rng) -> float:
    """Worst |I(J, J) - <J, J'>|_0^l| over n Jacobi boundary value problems."""
    worst = 0.0
    for _ in range(n):
        x, y = _random_segment(model, rng)
        seg = model.geodesic_segment(x, y)
        jf = solve_jacobi_bvp(seg, model.random_tangent(rng, x), model.random_tangent(rng, y))
        worst = max(worst, abs(index_form(seg, jf) - jf.endpoint_pairing()))
    return worst


def star_sweep(model, slack_fn, n_pairs: int, per_pair: int, rng):
    """Candidates requested, accepted, and their worst P <= L Q margin."""
    alphas = (1.0, 4.0, 16.0, 64.0)
    accepted, worst = 0, math.inf
    for k in range(n_pairs):
        alpha = alphas[k % len(alphas)]
        x = model.random_point(rng)
        direction = model.random_tangent(rng, x)
        ell = rng.uniform(0.15, 1.4)
        y = model.exp(x, TangentVector(
            x, direction.components * (ell / model.norm(x, direction))))
        a_alpha = hessian_distance_sq(model, x, y).scaled(alpha / 2.0)
        pairs = generate_star_candidates(
            a_alpha, canonical_epsilon(a_alpha), per_pair, seed=int(rng.integers(2**31)))
        slack = slack_fn(alpha, model.distance(x, y))
        for pm, qm in pairs:
            _, margin = check_P_leq_LQ(model, x, y, pm, qm, slack_rhs=slack)
            worst = min(worst, margin)
        accepted += len(pairs)
    return n_pairs * per_pair, accepted, worst


def oracle_sweeps(inp: Inputs, p: Pass):
    tr = p.tracer
    seed = inp.sample_seed
    for k, (name, model) in enumerate(MODELS.items()):
        rng = np.random.default_rng(seed + k)
        with tr.span(f"manifolds.roundtrip.{name}"):
            worst = roundtrip_error(model, ROUNDTRIPS[name], rng)
        p.check(f"roundtrip.{name}", worst <= oracles.ROUNDTRIP_TOL, f"{worst:.3e}")
        p.counts[f"roundtrip.{name}"] = worst

        with tr.span(f"jacobi.parallel_pair_sweep.{name}"):
            ells, values, vnorms = parallel_pair_sweep(
                model, PAIR_SAMPLES[name], seed + 10 + k,
                (0.05, 0.9 * math.pi) if name == "sphere" else (0.05, 3.0))
        with tr.span("bench.oracle"):
            curvature = model.constant_sectional() or 0.0
            ok, rel = oracles.hessian_sign_ok(curvature, ells, values, vnorms)
            p.check(f"hessian_sign.{name}", ok, f"rel={rel:.3e}")
        p.counts[f"hessian_rel.{name}"] = rel

        with tr.span(f"jacobi.bvp_index.{name}"):
            gap = bvp_index_gap(model, BVP_SEGMENTS[name], rng)
        p.check(f"index_identity.{name}", gap <= oracles.INDEX_GAP_TOL, f"{gap:.3e}")
        p.counts[f"index_gap.{name}"] = gap

        if name in STAR_SLACK:
            with tr.span(f"jets.star_candidates.{name}"):
                requested, accepted, margin = star_sweep(
                    model, STAR_SLACK[name], STAR_PAIRS, STAR_PER_PAIR, rng)
            p.check(f"star.{name}", accepted > 0 and margin >= oracles.STAR_MARGIN_TOL,
                    f"accepted={accepted} margin={margin:.3e}")
            p.counts[f"star.requested.{name}"] = requested
            p.counts[f"star.accepted.{name}"] = accepted

    grid = build_sphere(p, 4)
    for i, (a, b) in enumerate(inp.pairs):
        u = GridFunction(grid, grid.coords @ a)
        v = GridFunction(grid, grid.coords @ b)
        with tr.span("jets.doubling_diagnostic"):
            trace = doubling_diagnostic(SPHERE, u, v, DOUBLING_ALPHAS)
        gap = u.values - v.values
        with tr.span("grids.modulus_at_spacing"):
            floor = grid.modulus_at_spacing(gap, grid.h)
        p.check(f"doubling.{i}", oracles.doubling_ok(trace.final(), gap, floor),
                f"alpha d^2={trace.final().alpha_d_sq:.3e} floor={floor:.3e}")
        p.counts[f"doubling.{i}.x_idx"] = trace.final().x_idx

    for k, F in enumerate(CHECKED_OPERATORS):
        with tr.span("operators.ellipticity_check"):
            rep = ellipticity_check(F, CHECK_SAMPLES, model=SPHERE, r_range=(0.0, 2.0),
                                    seed=seed + 100 + k)
        p.check(f"ellipticity.{F.name}", rep.passed, f"{rep.max_violation:.3e}")
    for k, F in enumerate((neg_trace(), neg_detplus())):
        with tr.span("operators.invariance_check"):
            rep = invariance_check(F, SPHERE, CHECK_SAMPLES, seed=seed + 200 + k,
                                   tolerance=1e-10)
        p.check(f"invariance.{F.name}", rep.passed, f"{rep.max_violation:.3e}")
    with tr.span("operators.intrinsic_modulus_estimate"):
        table = intrinsic_modulus_estimate(neg_trace(), SPHERE, n_samples=CHECK_SAMPLES,
                                           seed=seed + 300)
    p.check("intrinsic_modulus.neg_trace", table.passed, f"{table.values[0]:.3e}")

    F = sum_of(scalar_term(1.0), neg_trace())
    p.keep_for_probes(grid, F, grid.coords @ inp.pairs[0, 0])


# --------------------------------------------------------------------- #
# cli_report
# --------------------------------------------------------------------- #

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(args: list[str], root: Path, work: Path) -> subprocess.CompletedProcess:
    """``python <args>`` under the speed sampler (see sampled.py); its
    samples and the time they took join this process's sampler."""
    out = work / "speed-samples.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "sampled.py"), str(out), *args], cwd=root,
        env=cli_env(root), capture_output=True, text=True, timeout=150, check=False,
    )
    if out.is_file():
        speed.SAMPLER.absorb(out)
    return proc


def cli_setup(p: Pass, root: Path, work: Path):
    """Interpreter start plus ``import riemvisc.cli``, which every CLI call
    pays; timed on its own, outside the pass, as the workload's set-up."""
    with p.tracer.span("cli.import"):
        proc = run_cli(["-c", "import riemvisc.cli"], root, work)
    p.check("cli.import", proc.returncode == 0, proc.stderr[-200:])


def cli_report(inp: Inputs, p: Pass, root: Path, work: Path, reference: dict):
    """One ``riemvisc report`` subprocess; ``reference`` holds the digests of
    the first pass's output files, which every later pass must reproduce."""
    tr = p.tracer
    out = work / f"report-{len(reference.get('passes', []))}"
    with tr.span("cli.report"):
        proc = run_cli(["-m", "riemvisc.cli", "report", "--seed", str(inp.seed),
                        "--out", str(out)], root, work)
    with tr.span("bench.oracle"):
        outcome, detail = oracles.cli_report_outcome(proc.returncode, proc.stdout, out)
        p.check("cli.report", outcome != "failed", f"{detail} {proc.stderr[-200:]}")
        p.known_defects += outcome == "known_defect"
        digests = oracles.file_digests(out) if out.is_dir() else {}
        reference.setdefault("digests", digests)
        p.check("cli.byte_identical", digests == reference["digests"],
                "output files differ from the first pass of this seed")
        reference.setdefault("passes", []).append(out)
    p.counts["cli.files"] = len(digests)
    p.counts["cli.bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
    for name in ("solve", "yamabe"):
        report = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        p.counts[f"cli.{name}.iterations"] = report["results"]["report"]["iterations"]


# per-sample layer metrics a workload measures in its own pass:
# metric -> (span, samples in that span); the probes time the others
PER_SAMPLE = {
    "oracle_sweeps": {
        "manifolds.roundtrip_ms": ("manifolds.roundtrip.sphere", ROUNDTRIPS["sphere"]),
        "jacobi.bvp_index_ms": ("jacobi.bvp_index.sphere", BVP_SEGMENTS["sphere"]),
        "jets.star_ms": ("jets.star_candidates.sphere", STAR_PAIRS),
    },
}

# spans whose summed time is the pass's set-up
SETUP_SPANS = {
    "solve_ladder": "grids.build_grid",
    "nonlinear": "grids.build_grid",
    "oracle_sweeps": "grids.build_grid",
    "cli_report": "cli.import",
}

# set-up timed on its own before each pass, outside the pass's wall time
SETUP_OUTSIDE = {"cli_report": cli_setup}

# checks made once per run, before the timed passes and inside the run's time
ONCE = {"nonlinear": min_eig_stall}
