"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Run the whole gate with::

    python3 -m pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest

from riemvisc import Euclidean, FlatTorus, Hyperbolic, Product, Sphere, TangentVector
from riemvisc.grids import GridFunction, build_grid
from riemvisc.jacobi import (
    hessian_distance_sq,
    index_form,
    index_minimality_check,
    parallel_pair_sweep,
    solve_jacobi_bvp,
)
from riemvisc.jets import (
    canonical_epsilon,
    doubling_diagnostic,
    generate_star_candidates,
    transported_order_margins,
)
from riemvisc.operators import (
    constant,
    ellipticity_check,
    example_5_3,
    invariance_check,
    max_of,
    monotonicity_estimate,
    neg_detplus,
    neg_min_eigenvalue,
    neg_trace,
    scalar_term,
    source,
    sum_of,
    yamabe,
)
from riemvisc.solver import (
    discrete_residual,
    perron_iterate,
    solve_fixed_point,
    yamabe_solve,
)

SPHERE = Sphere(2, 1.0)
HYPERBOLIC = Hyperbolic(2, 1.0)

ALL_MODELS = [
    Euclidean(2),
    SPHERE,
    HYPERBOLIC,
    FlatTorus([1.0, 1.0]),
    Product([Sphere(2, 1.0), Euclidean(2)]),
]


def verdict(tag: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def grid3():
    return build_grid(SPHERE, 3)


@pytest.fixture(scope="module")
def grid4():
    return build_grid(SPHERE, 4)


def laplace_rhs_2():
    return sum_of(neg_trace(), constant(-2.0))


def laplace_rhs_z():
    return sum_of(neg_trace(), source("coord:2"))


def full_equation_2():
    return sum_of(scalar_term(1.0), neg_trace(), constant(-2.0))


def random_segment(model, rng, lo=0.1, hi=None):
    x = model.random_point(rng)
    cap = model.injectivity_radius(x)
    hi = hi if hi is not None else (0.85 * cap if math.isfinite(cap) else 2.5)
    ell = rng.uniform(lo, hi)
    d = model.random_tangent(rng, x)
    d = model.tangent(x, d.components * (ell / model.norm(x, d)))
    return model.geodesic_segment(x, model.exp(x, d))


# --------------------------------------------------------------------- #
# 1. Hessian sign on positive curvature + closed form, < 10 s
# --------------------------------------------------------------------- #

def test_criterion_01_hessian_sign_positive_curvature():
    start = time.perf_counter()
    ells, values, vnorms = parallel_pair_sweep(
        SPHERE, 10_000, seed=101, ell_range=(0.05, 0.9 * math.pi)
    )
    elapsed = time.perf_counter() - start
    closed = -4.0 * ells * (1.0 - np.cos(ells)) / np.sin(ells) * vnorms
    max_value = float(values.max())
    rel = float(np.max(np.abs(values - closed) / np.abs(closed)))
    ok = max_value <= 1e-8 and rel <= 1e-6 and elapsed < 10.0
    assert verdict(
        "01 hessian-sign-positive-curvature", ok,
        f"max={max_value:.2e} rel={rel:.2e} time={elapsed:.1f}s",
    )


# --------------------------------------------------------------------- #
# 2. Hessian sign + curvature bound on negative curvature, < 10 s
# --------------------------------------------------------------------- #

def test_criterion_02_hessian_sign_negative_curvature():
    start = time.perf_counter()
    ells, values, vnorms = parallel_pair_sweep(
        HYPERBOLIC, 10_000, seed=102, ell_range=(0.05, 3.0)
    )
    elapsed = time.perf_counter() - start
    closed = 4.0 * ells * (np.cosh(ells) - 1.0) / np.sinh(ells) * vnorms
    min_value = float(values.min())
    rel = float(np.max(np.abs(values - closed) / np.abs(closed)))
    bound_violation = float(np.max(values - 2.0 * ells**2 * vnorms))
    ok = (
        min_value >= -1e-8 and rel <= 1e-6 and bound_violation <= 1e-8
        and elapsed < 10.0
    )
    assert verdict(
        "02 hessian-sign-negative-curvature", ok,
        f"min={min_value:.2e} rel={rel:.2e} bound={bound_violation:.2e} "
        f"time={elapsed:.1f}s",
    )


# --------------------------------------------------------------------- #
# 3. Index form equals the endpoint pairing for 1000 Jacobi fields
# --------------------------------------------------------------------- #

def test_criterion_03_index_form_endpoint_identity():
    rng = np.random.default_rng(103)
    per_model = 1000 // len(ALL_MODELS)
    worst = 0.0
    for model in ALL_MODELS:
        for _ in range(per_model):
            seg = random_segment(model, rng)
            v = model.random_tangent(rng, seg.start)
            w = model.random_tangent(rng, seg.end)
            jf = solve_jacobi_bvp(seg, v, w)
            worst = max(worst, abs(index_form(seg, jf) - jf.endpoint_pairing()))
    ok = worst <= 1e-8
    assert verdict("03 index-form-endpoint-identity", ok, f"max gap={worst:.2e}")


# --------------------------------------------------------------------- #
# 4. Jacobi fields minimize the index form
# --------------------------------------------------------------------- #

def test_criterion_04_index_minimality():
    rng = np.random.default_rng(104)
    worst = math.inf
    for model in ALL_MODELS:
        segments = 20
        for s in range(segments):
            seg = random_segment(model, rng)
            v = model.random_tangent(rng, seg.start)
            w = model.random_tangent(rng, seg.end)
            report = index_minimality_check(seg, v, w, n_trials=50, seed=1000 + s)
            worst = min(worst, report.extra["min_margin"])
    ok = worst >= -1e-8
    assert verdict("04 index-minimality", ok, f"min margin={worst:.2e}")


# --------------------------------------------------------------------- #
# 5. Transported-order consequences of the block condition
# --------------------------------------------------------------------- #

def _star_margin_sweep(model, slack_fn, n_pairs, per_pair, seed):
    rng = np.random.default_rng(seed)
    total = 0
    worst = math.inf
    alphas = [1.0, 4.0, 16.0, 64.0]
    while total < n_pairs * per_pair:
        alpha = alphas[total % len(alphas)]
        x = model.random_point(rng)
        direction = model.random_tangent(rng, x)
        ell = rng.uniform(0.15, 1.4)
        y = model.exp(x, TangentVector(
            x, direction.components * (ell / model.norm(x, direction))))
        a_alpha = hessian_distance_sq(model, x, y).scaled(alpha / 2.0)
        eps = canonical_epsilon(a_alpha)
        pairs = generate_star_candidates(
            a_alpha, eps, per_pair, seed=int(rng.integers(2**31)))
        slack = slack_fn(alpha, model.distance(x, y))
        if pairs:
            margins = transported_order_margins(
                model, x, y, np.array([p.matrix for p, _ in pairs]),
                np.array([q.matrix for _, q in pairs]), slack_rhs=slack)
            worst = min(worst, float(np.min(margins)))
            total += len(pairs)
    return total, worst


def test_criterion_05_transported_order_candidates():
    n_sphere, worst_sphere = _star_margin_sweep(
        SPHERE, lambda alpha, d: 0.0, 250, 20, seed=105
    )
    n_hyper, worst_hyper = _star_margin_sweep(
        HYPERBOLIC, lambda alpha, d: 1.5 * 1.0 * alpha * d * d, 250, 20, seed=106
    )
    ok = (
        n_sphere + n_hyper >= 10_000
        and worst_sphere >= -1e-9
        and worst_hyper >= -1e-9
    )
    assert verdict(
        "05 transported-order-candidates", ok,
        f"candidates={n_sphere + n_hyper} margins=({worst_sphere:.2e}, "
        f"{worst_hyper:.2e})",
    )


# --------------------------------------------------------------------- #
# 6. Doubling-of-variables diagnostic on the res-4 sphere grid
# --------------------------------------------------------------------- #

def test_criterion_06_doubling_diagnostic(grid4):
    rng = np.random.default_rng(107)
    alphas = [float(2**k) for k in range(2, 13)]
    ok = True
    details = []
    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        u = GridFunction(grid4, grid4.coords @ a)
        v = GridFunction(grid4, grid4.coords @ b)
        trace = doubling_diagnostic(SPHERE, u, v, alphas)
        gap = u.values - v.values
        floor = grid4.modulus_at_spacing(gap, grid4.h)
        final = trace.final()
        ok = ok and final.alpha_d_sq <= 10.0 * floor + 1e-12
        ok = ok and abs(final.m_alpha - float(np.max(gap))) <= floor + 1e-12
        details.append(final.alpha_d_sq)
    assert verdict(
        "06 doubling-diagnostic", ok,
        f"max final alpha*d^2={max(details):.2e}",
    )


# --------------------------------------------------------------------- #
# 7. Solver oracles: constants exact, eigenfunction error, refinement
# --------------------------------------------------------------------- #

def test_criterion_07_solver_oracles(grid3, grid4):
    u2, rep2 = solve_fixed_point(laplace_rhs_2(), grid3, tol=1e-8)
    const_err = float(np.max(np.abs(u2.values - 2.0)))

    errs = {}
    for res, grid in [(4, grid4), (5, None)]:
        start = time.perf_counter()
        if grid is None:
            grid = build_grid(SPHERE, 5)
        u, rep = solve_fixed_point(laplace_rhs_z(), grid, tol=1e-8)
        elapsed = time.perf_counter() - start
        z = grid.coords[:, 2]
        errs[res] = (float(np.max(np.abs(u.values - z / 3.0))), elapsed)
    ok = (
        const_err <= 1e-6
        and errs[4][0] <= 0.05
        and errs[5][0] < errs[4][0]
        and errs[5][1] < 60.0
    )
    assert verdict(
        "07 solver-oracles", ok,
        f"const={const_err:.2e} err4={errs[4][0]:.4f} err5={errs[5][0]:.4f} "
        f"time5={errs[5][1]:.1f}s",
    )


# --------------------------------------------------------------------- #
# 8. Discrete uniqueness and comparison
# --------------------------------------------------------------------- #

def test_criterion_08_discrete_comparison(grid3):
    tol = 1e-8
    hi, _ = solve_fixed_point(
        laplace_rhs_z(), grid3, u0=GridFunction.constant(grid3, 10.0), tol=tol
    )
    lo, _ = solve_fixed_point(
        laplace_rhs_z(), grid3, u0=GridFunction.constant(grid3, -10.0), tol=tol
    )
    init_gap = float(np.max(np.abs(hi.values - lo.values)))

    F = sum_of(scalar_term(1.0), neg_trace(), source("coord:2"))
    exact, _ = solve_fixed_point(laplace_rhs_z(), grid3, tol=1e-10)
    rng = np.random.default_rng(108)
    comparison_ok = True
    for _ in range(10):
        w1 = 0.3 * np.tanh(grid3.coords @ rng.standard_normal(3))
        w2 = 0.3 * np.tanh(grid3.coords @ rng.standard_normal(3))
        u = GridFunction(grid3, exact.values + w1)
        v = GridFunction(grid3, exact.values - w2)
        s1 = float(np.max(np.maximum(discrete_residual(F, grid3, u), 0.0)))
        s2 = float(np.max(np.maximum(-discrete_residual(F, grid3, v), 0.0)))
        gap = float(np.max(u.values - v.values))
        comparison_ok = comparison_ok and gap <= (s1 + s2) / 1.0 + 1e-9
    ok = init_gap <= 2.0 * tol and comparison_ok
    assert verdict(
        "08 discrete-comparison", ok,
        f"init gap={init_gap:.2e} comparison={'ok' if comparison_ok else 'violated'}",
    )


# --------------------------------------------------------------------- #
# 9. Perron iteration between the brackets
# --------------------------------------------------------------------- #

def test_criterion_09_perron(grid3):
    tol = 1e-8
    result = perron_iterate(
        full_equation_2(), grid3,
        GridFunction.constant(grid3, 0.0),
        GridFunction.constant(grid3, 10.0),
        tol=tol,
    )
    fixed, _ = solve_fixed_point(laplace_rhs_2(), grid3, tol=tol)
    gap = float(np.max(np.abs(result.solution.values - fixed.values)))
    ok = (
        result.converged
        and result.ordering_ok
        and result.min_increment >= -1e-12
        and gap <= 2.0 * tol
    )
    assert verdict(
        "09 perron-iteration", ok,
        f"gap={gap:.2e} min increment={result.min_increment:.2e} "
        f"sweeps={result.sweeps}",
    )


# --------------------------------------------------------------------- #
# 10. The conformal-curvature solve has the zero solution
# --------------------------------------------------------------------- #

def test_criterion_10_yamabe_zero_solution(grid3):
    tol = 1e-7
    sups = []
    sols = []
    for start in (0.5, 5.0):
        u, report = yamabe_solve(
            grid3, "const:6", -1.0, n=3,
            u0=GridFunction.constant(grid3, start), tol=tol,
        )
        sups.append(float(np.max(np.abs(u.values))))
        sols.append(u.values)
        if not report.converged:
            sups.append(math.inf)
    agreement = float(np.max(np.abs(sols[0] - sols[1])))
    ok = max(sups) <= 1e-6 and agreement <= 2.0 * tol
    assert verdict(
        "10 yamabe-zero-solution", ok,
        f"sup={max(sups):.2e} agreement={agreement:.2e}",
    )


# --------------------------------------------------------------------- #
# 11. Operator structure: ellipticity, invariance, monotonicity
# --------------------------------------------------------------------- #

def test_criterion_11_operator_structure():
    builders = [
        neg_trace(),
        neg_detplus(),
        neg_min_eigenvalue(),
        constant(-2.0),
        scalar_term(1.0),
        yamabe(3, 6.0, -1.0),
        example_5_3(0.5, 0.0),
        sum_of(scalar_term(1.0), neg_trace()),
        max_of(neg_trace(), constant(-1.0)),
    ]
    worst_ellipticity = 0.0
    elliptic_ok = True
    for F in builders:
        report = ellipticity_check(
            F, 10_000, model=SPHERE, r_range=(0.0, 2.0), seed=109
        )
        worst_ellipticity = max(worst_ellipticity, report.max_violation)
        elliptic_ok = elliptic_ok and report.passed

    inv_trace = invariance_check(neg_trace(), SPHERE, 2000, seed=110, tolerance=1e-10)
    inv_det = invariance_check(neg_detplus(), SPHERE, 2000, seed=111, tolerance=1e-10)

    gamma_hat, _ = monotonicity_estimate(
        yamabe(3, 6.0, -1.0), (0.0, 2.0), 3000, seed=112
    )
    ok = (
        elliptic_ok
        and inv_trace.passed
        and inv_det.passed
        and gamma_hat >= 6.0 - 1e-9
    )
    assert verdict(
        "11 operator-structure", ok,
        f"ellipticity={worst_ellipticity:.2e} invariance=({inv_trace.max_violation:.2e}, "
        f"{inv_det.max_violation:.2e}) gamma={gamma_hat:.4f}",
    )
