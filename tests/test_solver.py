"""Grid scheme, fixed point, Dirichlet, Perron, viscosity residuals."""

import math

import numpy as np
import pytest

from riemvisc import DivergenceError, Euclidean, FlatTorus, Hyperbolic, Sphere
from riemvisc.errors import PreconditionError, UnsupportedModelError
from riemvisc.grids import GridFunction, build_grid, geodesic_ball_interior
from riemvisc.operators import (
    constant,
    neg_trace,
    scalar_term,
    source,
    sum_of,
)
from riemvisc.solver import (
    derivative_proxies,
    discrete_residual,
    discretize,
    perron_iterate,
    solve_dirichlet,
    solve_fixed_point,
    verify_viscosity_residual,
    yamabe_solve,
)

SPHERE = Sphere(2, 1.0)


def z_values(grid):
    return grid.coords[:, 2].copy()


def laplace_rhs_2():
    # u - lap u = 2, i.e. G = -trace(A) - 2
    return sum_of(neg_trace(), constant(-2.0))


def laplace_rhs_z():
    return sum_of(neg_trace(), source("coord:2"))


def full_equation_rhs_2():
    # F = r - trace(A) - 2
    return sum_of(scalar_term(1.0), neg_trace(), constant(-2.0))


# --------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------- #

def test_grid_node_counts():
    assert build_grid(SPHERE, 2).n_nodes == 162
    assert build_grid(SPHERE, 3).n_nodes == 642
    assert build_grid(FlatTorus([1.0, 1.0]), 32).n_nodes == 1024


def test_grid_weights_are_interpolating():
    for grid in [build_grid(SPHERE, 2), build_grid(FlatTorus([1.0, 1.0]), 16)]:
        for mat in grid.stencils:
            assert mat.data.min() >= -1e-12
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.max(np.abs(sums - 1.0)) <= 1e-9
        assert grid.h < grid.model.injectivity_radius() / 4.0


def test_grid_unsupported_models():
    with pytest.raises(UnsupportedModelError):
        build_grid(Hyperbolic(2, 1.0), 3)
    with pytest.raises(UnsupportedModelError):
        build_grid(Euclidean(2), 3)


def test_grid_function_requires_finite_values():
    grid = build_grid(SPHERE, 1)
    with pytest.raises(ValueError):
        GridFunction(grid, np.full(grid.n_nodes, np.nan))


# --------------------------------------------------------------------- #
# the difference proxies
# --------------------------------------------------------------------- #

def test_proxies_vanish_on_constants():
    grid = build_grid(SPHERE, 2)
    u = GridFunction.constant(grid, 3.7)
    zeta, amat = derivative_proxies(grid, u, 17)
    assert np.allclose(zeta, 0.0, atol=1e-12)
    assert np.allclose(amat, 0.0, atol=1e-10)


def test_trace_proxy_converges_to_sphere_laplacian():
    # u = z has Lap u = -2 z (degree-one spherical harmonic)
    errs = []
    for res in (2, 3, 4):
        grid = build_grid(SPHERE, res)
        u = GridFunction(grid, z_values(grid))
        resid = discrete_residual(neg_trace(), grid, u)  # = -lap_h u
        errs.append(float(np.max(np.abs(-resid + 2.0 * u.values))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def test_torus_second_difference_fourier_mode():
    grid = build_grid(FlatTorus([1.0, 1.0]), 32)
    u = GridFunction(grid, np.sin(2 * math.pi * grid.coords[:, 0]))
    resid = discrete_residual(neg_trace(), grid, u)
    scale = 4.0 * math.pi**2
    assert np.max(np.abs(-resid + scale * u.values)) <= 0.005 * scale


def test_discretize_single_node_matches_batch():
    grid = build_grid(SPHERE, 2)
    u = GridFunction(grid, z_values(grid) ** 2)
    F = full_equation_rhs_2()
    resid = discrete_residual(F, grid, u)
    for node in (0, 33, 100):
        assert discretize(F, grid, u, node) == pytest.approx(resid[node], abs=1e-12)


# --------------------------------------------------------------------- #
# fixed point solves
# --------------------------------------------------------------------- #

def test_constant_problem_exact():
    grid = build_grid(SPHERE, 3)
    u, report = solve_fixed_point(laplace_rhs_2(), grid, tol=1e-8)
    assert report.converged
    assert np.max(np.abs(u.values - 2.0)) <= 1e-6


def test_eigenfunction_oracle_and_refinement():
    errs = {}
    for res in (3, 4):
        grid = build_grid(SPHERE, res)
        u, report = solve_fixed_point(laplace_rhs_z(), grid, tol=1e-8)
        assert report.converged
        errs[res] = float(np.max(np.abs(u.values - z_values(grid) / 3.0)))
    assert errs[4] <= 0.05
    assert errs[4] < errs[3]


def test_initialization_independence():
    grid = build_grid(SPHERE, 3)
    tol = 1e-8
    hi, _ = solve_fixed_point(
        laplace_rhs_z(), grid, u0=GridFunction.constant(grid, 10.0), tol=tol
    )
    lo, _ = solve_fixed_point(
        laplace_rhs_z(), grid, u0=GridFunction.constant(grid, -10.0), tol=tol
    )
    assert np.max(np.abs(hi.values - lo.values)) <= 2.0 * tol


def test_solver_requires_elliptic_flag():
    from riemvisc.operators import OperatorSpec

    bad = OperatorSpec("unflagged", lambda ctx, rs, zs, As: -np.einsum("nii->n", As))
    grid = build_grid(SPHERE, 1)
    with pytest.raises(PreconditionError):
        solve_fixed_point(bad, grid)


def test_divergence_raises_with_report():
    grid = build_grid(SPHERE, 2)
    with pytest.raises(DivergenceError) as info:
        solve_fixed_point(laplace_rhs_z(), grid, theta=1.0, max_iter=2000)
    assert info.value.report is not None
    assert not info.value.report.converged


def test_residual_history_monotone_after_burn_in():
    grid = build_grid(SPHERE, 3)
    _, report = solve_fixed_point(laplace_rhs_z(), grid, tol=1e-8)
    hist = report.residual_history[5:]
    assert np.all(np.diff(hist) <= 1e-12)


def test_scheme_monotonicity_probes():
    # raising any neighbor value must not raise the node residual
    grid = build_grid(SPHERE, 3)
    rng = np.random.default_rng(7)
    F = sum_of(scalar_term(1.0), neg_trace(), source("coord:2"))
    u = GridFunction(grid, 0.3 * z_values(grid))
    base = discrete_residual(F, grid, u)
    support = set()
    for _ in range(100):
        i = int(rng.integers(grid.n_nodes))
        row_cols = np.concatenate([s.getrow(i).indices for s in grid.stencils])
        js = [j for j in row_cols if j != i]
        j = js[int(rng.integers(len(js)))]
        bumped = u.values.copy()
        bumped[j] += 0.5
        new = discrete_residual(F, grid, GridFunction(grid, bumped))
        assert new[i] <= base[i] + 1e-10


def test_discrete_comparison_bound():
    # residual slack controls the sup difference for the monotone scheme
    grid = build_grid(SPHERE, 3)
    F = sum_of(scalar_term(1.0), neg_trace(), source("coord:2"))
    exact, _ = solve_fixed_point(laplace_rhs_z(), grid, tol=1e-10)
    rng = np.random.default_rng(11)
    for _ in range(5):
        w1 = 0.2 * np.tanh(grid.coords @ rng.standard_normal(3))
        w2 = 0.2 * np.tanh(grid.coords @ rng.standard_normal(3))
        u = GridFunction(grid, exact.values + w1)
        v = GridFunction(grid, exact.values - w2)
        s1 = float(np.max(np.maximum(discrete_residual(F, grid, u), 0.0)))
        s2 = float(np.max(np.maximum(-discrete_residual(F, grid, v), 0.0)))
        gamma_hat = 1.0
        assert float(np.max(u.values - v.values)) <= (s1 + s2) / gamma_hat + 1e-9


# --------------------------------------------------------------------- #
# Dirichlet problems on geodesic caps
# --------------------------------------------------------------------- #

def test_dirichlet_constant_boundary():
    grid = build_grid(SPHERE, 3)
    interior = geodesic_ball_interior(grid, 0, 1.0)
    boundary = ~interior
    c = 1.3
    u, report = solve_dirichlet(
        full_equation_rhs_2() , grid, boundary, np.full(grid.n_nodes, c), tol=1e-8
    )
    # boundary pinned exactly; interior solves u - lap u = 2 with barrier c
    assert np.all(u.values[boundary] == c)
    assert report.converged
    lo, hi = min(c, 2.0) - 1e-6, max(c, 2.0) + 1e-6
    assert np.all(u.values >= lo) and np.all(u.values <= hi)


def test_dirichlet_harmonic_cap_is_constant():
    # lap u = 0 with constant boundary value c -> u == c (the discrete
    # maximum principle pins the interior to the boundary constant)
    grid = build_grid(SPHERE, 3)
    interior = geodesic_ball_interior(grid, 5, 0.9)
    c = -0.7
    u, report = solve_dirichlet(neg_trace(), grid, ~interior, c, tol=1e-9)
    assert report.converged
    assert np.max(np.abs(u.values - c)) <= 1e-6


def test_dirichlet_max_principle_with_field_boundary():
    grid = build_grid(SPHERE, 3)
    interior = geodesic_ball_interior(grid, 0, 1.2)
    F = sum_of(scalar_term(1.0), neg_trace(), source("coord:2"))
    f = z_values(grid)
    u, report = solve_dirichlet(F, grid, ~interior, f, tol=1e-8)
    assert report.converged
    bound = max(np.max(np.abs(f)), np.max(np.abs(z_values(grid))))
    assert np.all(np.abs(u.values) <= bound + 1e-8)


def test_dirichlet_empty_interior_returns_boundary_values():
    grid = build_grid(SPHERE, 1)
    f = z_values(grid)
    u, report = solve_dirichlet(
        full_equation_rhs_2(), grid, np.ones(grid.n_nodes, bool), f
    )
    assert np.all(u.values == f)
    assert report.iterations == 0


def test_dirichlet_requires_boundary():
    grid = build_grid(SPHERE, 1)
    with pytest.raises(PreconditionError):
        solve_dirichlet(
            full_equation_rhs_2(), grid, np.zeros(grid.n_nodes, bool), 0.0
        )


# --------------------------------------------------------------------- #
# Perron iteration
# --------------------------------------------------------------------- #

def test_perron_exact_solution_unchanged():
    grid = build_grid(SPHERE, 3)
    u, _ = solve_fixed_point(laplace_rhs_2(), grid, tol=1e-10)
    result = perron_iterate(full_equation_rhs_2(), grid, u, u, tol=1e-8)
    assert result.converged
    assert np.max(np.abs(result.solution.values - u.values)) <= 1e-12


def test_perron_constant_problem_from_wide_bracket():
    grid = build_grid(SPHERE, 3)
    tol = 1e-8
    usub = GridFunction.constant(grid, 0.0)
    usuper = GridFunction.constant(grid, 10.0)
    result = perron_iterate(full_equation_rhs_2(), grid, usub, usuper, tol=tol)
    assert result.converged
    assert result.ordering_ok
    assert result.min_increment >= -1e-12
    fixed, _ = solve_fixed_point(laplace_rhs_2(), grid, tol=tol)
    assert np.max(np.abs(result.solution.values - fixed.values)) <= 2.0 * tol
    assert np.max(np.abs(result.solution.values - 2.0)) <= 1e-6


def test_perron_rejects_bad_brackets():
    grid = build_grid(SPHERE, 2)
    one = GridFunction.constant(grid, 1.0)
    zero = GridFunction.constant(grid, 0.0)
    with pytest.raises(PreconditionError):
        perron_iterate(full_equation_rhs_2(), grid, one, zero)
    five = GridFunction.constant(grid, 5.0)
    ten = GridFunction.constant(grid, 10.0)
    with pytest.raises(PreconditionError):
        # residual of 5 is +3: not a subsolution
        perron_iterate(full_equation_rhs_2(), grid, five, ten)


# --------------------------------------------------------------------- #
# viscosity residual verification
# --------------------------------------------------------------------- #

def test_viscosity_residual_on_exact_solution():
    grid = build_grid(SPHERE, 3)
    u, _ = solve_fixed_point(laplace_rhs_2(), grid, tol=1e-10)
    report = verify_viscosity_residual(full_equation_rhs_2(), grid, u)
    assert report.passed
    assert report.max_sub_violation <= 1e-6
    assert report.max_super_violation <= 1e-6


def test_viscosity_residual_flags_bump():
    grid = build_grid(SPHERE, 3)
    u, _ = solve_fixed_point(laplace_rhs_2(), grid, tol=1e-10)
    bumped = u.values.copy()
    bumped[37] += 0.5
    report = verify_viscosity_residual(
        full_equation_rhs_2(), grid, GridFunction(grid, bumped)
    )
    # gamma-hat of the operator is 1: the bump shows up as ~0.5 and is
    # attributed to the bumped node
    assert report.max_sub_violation == pytest.approx(0.5, abs=0.1)
    assert report.sub_witness == 37


def test_viscosity_residual_constant_for_plain_r():
    grid = build_grid(SPHERE, 2)
    c = 0.7
    u = GridFunction.constant(grid, c)
    report = verify_viscosity_residual(scalar_term(1.0), grid, u)
    assert report.max_sub_violation == pytest.approx(c, abs=1e-9)
    assert report.max_super_violation == pytest.approx(0.0, abs=1e-9)


# --------------------------------------------------------------------- #
# the conformal-curvature solve
# --------------------------------------------------------------------- #

def test_yamabe_zero_solution_two_starts():
    grid = build_grid(SPHERE, 3)
    tol = 1e-7
    sols = []
    for start in (0.5, 5.0):
        u, report = yamabe_solve(
            grid, "const:6", -1.0, n=3, u0=GridFunction.constant(grid, start), tol=tol
        )
        assert report.converged
        sols.append(u.values)
        assert np.max(np.abs(u.values)) <= 1e-6
    assert np.max(np.abs(sols[0] - sols[1])) <= 2.0 * tol


def test_yamabe_linear_case():
    grid = build_grid(SPHERE, 3)
    u, report = yamabe_solve(grid, "const:6", 0.0, n=3, tol=1e-8)
    assert report.converged
    assert np.max(np.abs(u.values)) <= 1e-6


def test_yamabe_preconditions():
    grid = build_grid(SPHERE, 2)
    with pytest.raises(PreconditionError):
        yamabe_solve(grid, "const:-1", -1.0)
    with pytest.raises(PreconditionError):
        yamabe_solve(grid, "const:6", 0.5)
    with pytest.raises(PreconditionError):
        yamabe_solve(grid, "const:6", -1.0, u0=GridFunction.constant(grid, -1.0))
    torus = build_grid(FlatTorus([1.0, 1.0]), 8)
    with pytest.raises(PreconditionError):
        yamabe_solve(torus, "const:6", -1.0)
