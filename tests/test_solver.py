"""Grid scheme, fixed point, Dirichlet, Perron, viscosity residuals."""

import dataclasses
import functools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st

from riemvisc import DivergenceError, Euclidean, FlatTorus, Hyperbolic, Point, Sphere
from riemvisc.errors import PreconditionError, UnsupportedModelError
from riemvisc.grids import GridFunction, build_grid, geodesic_ball_interior
from riemvisc.operators import (
    ScalarField,
    compose,
    constant,
    max_of,
    neg_detplus,
    neg_min_eigenvalue,
    neg_trace,
    scalar_term,
    source,
    sum_of,
    yamabe,
)
from riemvisc.solver import (
    _KRYLOV_CAP,
    _center_sensitivity,
    _estimate_theta,
    _gather,
    _nodewise_solve,
    _proxy_array,
    _residual,
    _sweep,
    DEFAULT_MAX_ITER,
    discrete_residual,
    perron_iterate,
    solve_dirichlet,
    solve_fixed_point,
    verify_viscosity_residual,
    yamabe_solve,
)

SPHERE = Sphere(2, 1.0)


def lift(G):
    """The full equation u + G = 0 that ``solve_fixed_point`` solves."""
    return sum_of(scalar_term(1.0), G)


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

def reference_proxies(grid, u_vals, stencil_vals, centers=None, t_vals=None):
    """The per-direction proxies the stacked form replaced, kept as the reference:
    eight stencil value arrays, and the center replaced direction by direction."""
    h = grid.h
    if t_vals is None:
        t = u_vals
        sv = stencil_vals
    else:
        t = t_vals
        sv = [
            base + diag * (t_vals - u_vals)
            for base, diag in zip(stencil_vals, centers)
        ]
    n_nodes = u_vals.shape[0]
    zetas = np.empty((n_nodes, 2))
    amats = np.empty((n_nodes, 2, 2))
    zetas[:, 0] = (sv[0] - sv[1]) / (2.0 * h)
    zetas[:, 1] = (sv[2] - sv[3]) / (2.0 * h)
    a00 = (sv[0] + sv[1] - 2.0 * t) / h**2
    a11 = (sv[2] + sv[3] - 2.0 * t) / h**2
    dplus = (sv[4] + sv[5] - 2.0 * t) / h**2
    dminus = (sv[6] + sv[7] - 2.0 * t) / h**2
    a01 = 0.5 * (dplus - dminus)
    amats[:, 0, 0] = a00
    amats[:, 1, 1] = a11
    amats[:, 0, 1] = a01
    amats[:, 1, 0] = a01
    return zetas, amats


def reference_torus_stencils(grid):
    """The torus stencils built one owned matrix per direction."""
    res = grid.resolution
    spacing = grid.model.periods / res
    mats = []
    for d in grid.dirs:
        s = (grid.coords + grid.h * d) / spacing
        base = np.floor(s)
        frac = np.where(s - base < 1e-9, 0.0, s - base)
        base = base.astype(np.int64)
        i0, j0 = np.mod(base[:, 0], res), np.mod(base[:, 1], res)
        i1, j1 = np.mod(base[:, 0] + 1, res), np.mod(base[:, 1] + 1, res)
        fx, fy = frac[:, 0], frac[:, 1]
        corners = [
            (i0, j0, (1 - fx) * (1 - fy)), (i1, j0, fx * (1 - fy)),
            (i0, j1, (1 - fx) * fy), (i1, j1, fx * fy),
        ]
        rows = np.tile(np.arange(grid.n_nodes), 4)
        cols = np.concatenate([ii * res + jj for ii, jj, _ in corners])
        vals = np.concatenate([ww for _, _, ww in corners])
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
        mat.eliminate_zeros()
        mats.append(mat)
    return mats


PROXY_GRIDS = [("sphere", 1), ("sphere", 2), ("sphere", 3),
               ("torus", 8), ("torus", 13), ("torus", 32)]


@functools.lru_cache(maxsize=None)
def proxy_grid(kind, res):
    if kind == "sphere":
        return build_grid(SPHERE, res)
    return build_grid(FlatTorus([1.0, 0.7]), res)


@pytest.mark.parametrize("kind,res", PROXY_GRIDS)
def test_stencil_views_share_the_stack(kind, res):
    grid = proxy_grid(kind, res)
    n = grid.n_nodes
    assert grid.stack.shape == (len(grid.dirs) * n, n)
    u = np.random.default_rng(res).standard_normal(n)
    stacked = grid.stack @ u
    owned = (
        reference_torus_stencils(grid) if kind == "torus"
        # the sphere's per-direction route: an owned CSR from the same triplets
        else [sparse.csr_matrix((m.data, (m.tocoo().row, m.indices)), shape=(n, n))
              for m in grid.stencils]
    )
    for k, (view, ref) in enumerate(zip(grid.stencils, owned)):
        assert np.shares_memory(view.data, grid.stack.data)
        assert np.shares_memory(view.indices, grid.stack.indices)
        assert not view.data.flags.writeable
        assert np.array_equal(view @ u, stacked[k * n:(k + 1) * n])
        assert np.array_equal(view @ u, ref @ u)
    if kind == "torus":
        for view, ref in zip(grid.stencils, owned):
            assert np.array_equal(view.indptr, ref.indptr)
            assert np.array_equal(view.indices, ref.indices)
            assert np.array_equal(view.data, ref.data)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(PROXY_GRIDS), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_proxies_match_per_direction_reference(key, scale, seed):
    grid = proxy_grid(*key)
    rng = np.random.default_rng(seed)
    u = scale * rng.standard_normal(grid.n_nodes)
    sv = _gather(grid.stack, u)
    assert sv.shape == (len(grid.dirs), grid.n_nodes)
    base = _proxy_array(sv, u, grid.h)
    ref_stencil_vals = [s @ u for s in grid.stencils]
    ref_z, ref_a = reference_proxies(grid, u, ref_stencil_vals)
    # the base proxies are bitwise the per-direction ones
    assert np.array_equal(base[:, :2], ref_z)
    assert np.array_equal(base[:, 2:].reshape(-1, 2, 2), ref_a)
    # so are the rows of the engine's proxies
    engine = _residual(neg_trace(), None, grid, u)[0]
    for node in rng.integers(grid.n_nodes, size=3):
        zeta, amat = engine[node, :2], engine[node, 2:].reshape(2, 2)
        assert np.array_equal(zeta, ref_z[node]) and np.array_equal(amat, ref_a[node])
    # the center replacement is affine in t - u
    t = u + scale * rng.uniform(-1.0, 1.0, grid.n_nodes)
    moved = base + (t - u)[:, None] * _center_sensitivity(grid)
    diags = [np.asarray(s.diagonal()).ravel() for s in grid.stencils]
    ref_z, ref_a = reference_proxies(grid, u, ref_stencil_vals, diags, t)
    bound = 1e-12 * (1.0 + np.max(np.abs(u))) / grid.h**2
    assert np.max(np.abs(moved[:, :2] - ref_z)) <= bound
    assert np.max(np.abs(moved[:, 2:].reshape(-1, 2, 2) - ref_a)) <= bound


def test_proxies_vanish_on_constants():
    grid = build_grid(SPHERE, 2)
    u = GridFunction.constant(grid, 3.7)
    p = _residual(neg_trace(), None, grid, u.values)[0]
    zeta, amat = p[17, :2], p[17, 2:].reshape(2, 2)
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
    # F at one node, on that node's row of the batch proxies
    p = _residual(F, F.make_context(grid.coords), grid, u.values)[0]
    for node in (0, 33, 100):
        one = F.point_eval(Point(grid.coords[node]), float(u.values[node]),
                           p[node, :2], p[node, 2:].reshape(2, 2))
        assert one == pytest.approx(resid[node], abs=1e-12)


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


def test_divergence_raises_with_report(monkeypatch):
    # with no hierarchy Newton takes no step, and the sweep it hands over to
    # diverges on neg_detplus (the probe reads slope 0 at u0 = 0, so theta ~ 1;
    # see test_newton_solves_what_the_sweep_cannot)
    import riemvisc.solver as solver

    monkeypatch.setattr(solver, "_hierarchy", lambda grid: None)
    grid = build_grid(SPHERE, 3)
    G = sum_of(neg_detplus(), source(ScalarField(lambda p: float(LINEAR_A @ p.coords))))
    with pytest.raises(DivergenceError) as info:
        solve_fixed_point(G, grid, tol=1e-8)
    report = info.value.report
    assert report is not None and not report.converged
    assert report.method == "sweep" and report.theta == pytest.approx(1.0)
    assert report.krylov_iterations == 0 and report.wall_time > 0.0


def sweep_solve(F, grid, u0, tol=1e-8, max_iter=DEFAULT_MAX_ITER, fixed=None):
    """The damped sweep alone, as the engine runs it when Newton hands over."""
    return _sweep(F, F.make_context(grid.coords), grid, np.array(u0, dtype=float),
                  tol, max_iter, fixed, time.perf_counter(), 0)


def test_residual_history_monotone_after_burn_in():
    grid = build_grid(SPHERE, 3)
    _, report = sweep_solve(lift(laplace_rhs_z()), grid, np.zeros(grid.n_nodes))
    assert report.method == "sweep" and report.iterations > 100
    hist = report.residual_history[5:]
    assert hist.size > 0
    assert np.all(np.diff(hist) <= 1e-12)


def test_newton_residual_falls_at_every_step():
    grid = build_grid(SPHERE, 3)
    _, report = solve_fixed_point(laplace_rhs_z(), grid, tol=1e-8)
    assert report.method == "newton" and report.converged
    hist = report.residual_history
    assert hist.size == report.iterations + 1 >= 2
    assert np.all(np.diff(hist) < 0.0)


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


LINEAR_A = np.array([1.0, 2.0, 2.0]) / 3.0


@pytest.mark.parametrize("kind,sweeps,newton_steps", [("linear", 2, 1), ("max_of", 257, 0)])
def test_perron_from_unit_bracket_matches_fixed_point(kind, sweeps, newton_steps):
    # u - lap u = a.x (solution a.x/3), and u + max(-lap u - a.x, -0.1) = 0,
    # which lies below both of its supersolutions a.x/3 and 0.1; one certified
    # Newton step solves the linear problem, while max_of's first candidate
    # breaks the certificate and the sweep takes the whole call
    grid = build_grid(SPHERE, 3)
    f = ScalarField(lambda p: float(LINEAR_A @ p.coords), name="linear")
    G = sum_of(neg_trace(), source(f))
    if kind == "max_of":
        G = max_of(G, constant(-0.1))
    tol = 1e-8
    result = perron_iterate(
        sum_of(scalar_term(1.0), G), grid,
        GridFunction.constant(grid, -1.0), GridFunction.constant(grid, 1.0), tol=tol,
    )
    assert result.converged and result.ordering_ok
    assert result.min_increment >= 0.0  # the iterates never decrease
    assert result.sweeps == sweeps and result.newton_steps == newton_steps
    exact = grid.coords @ LINEAR_A / 3.0
    ladder_bound = 3.0e-3  # res 3, as in the benchmark's ladder
    if kind == "linear":
        assert np.max(np.abs(result.solution.values - exact)) <= ladder_bound
    else:
        assert np.max(result.solution.values - np.minimum(exact + ladder_bound, 0.1)) <= 1e-7
    fixed, _ = solve_fixed_point(G, grid, tol=tol)
    assert np.max(np.abs(result.solution.values - fixed.values)) <= 1e-6


def counting(F):
    """F with a counter of its batch evaluations, ``calls[0]``."""
    calls = [0]

    def batch(ctx, rs, zs, As):
        calls[0] += 1
        return F.batch(ctx, rs, zs, As)

    return dataclasses.replace(F, batch=batch), calls


@pytest.mark.parametrize("kind,sweeps,newton_steps",
                         [("center_cubic", 311, 2), ("min_eigenvalue", 195, 0)])
def test_perron_sweep_counts_of_nonaffine_operators(kind, sweeps, newton_steps):
    # r^3 + r - tr A - a.x is nonlinear in the center value, so its node
    # equations take more than one Newton step; -lambda_min(A) is piecewise
    # affine in it.  The sweep counts equal those of four nodewise Newton steps
    # every sweep.  The cubic takes two certified grid Newton steps before its
    # third candidate breaks the certificate (343 sweeps alone); the first
    # Krylov solve of lambda_min runs to its cap, so it sweeps throughout.
    grid = build_grid(SPHERE, 3)
    f = ScalarField(lambda p: float(LINEAR_A @ p.coords), name="linear")
    if kind == "center_cubic":
        F = sum_of(compose(lambda t: t**3, scalar_term(1.0)), scalar_term(1.0),
                   neg_trace(), source(f))
    else:
        F = sum_of(scalar_term(1.0), neg_min_eigenvalue(), source(f))
    result = perron_iterate(
        F, grid, GridFunction.constant(grid, -1.0), GridFunction.constant(grid, 1.0),
        tol=1e-8,
    )
    assert result.converged and result.ordering_ok
    assert result.min_increment >= 0.0
    assert result.sweeps == sweeps and result.newton_steps == newton_steps


def test_perron_sweep_evaluates_operator_three_times():
    # the problem of acceptance 09, linear: one certified Newton step solves
    # it, and the candidate's residual is the second step's converged check
    grid = build_grid(SPHERE, 3)
    F, calls = counting(full_equation_rhs_2())
    result = perron_iterate(
        F, grid, GridFunction.constant(grid, 0.0), GridFunction.constant(grid, 10.0),
        tol=1e-8,
    )
    assert result.converged and result.sweeps == 2 and result.newton_steps == 1
    # two certification evaluations, the base one, six Jacobian partials and
    # the candidate's; the sweep alone took 394 sweeps of three evaluations
    assert calls[0] == 2 + 1 + 6 + 1


def test_refused_perron_sweep_evaluates_operator_three_times():
    # 33 x 33 has no hierarchy, so the Newton step is refused before any
    # evaluation, and the node equation, affine in the center value, is
    # solved by one secant step: three evaluations per sweep, as the sweep alone
    grid = build_grid(FlatTorus([1.0, 1.0]), 33)
    F, calls = counting(full_equation_rhs_2())
    usub, usuper = GridFunction.constant(grid, 0.0), GridFunction.constant(grid, 10.0)
    result = perron_iterate(F, grid, usub, usuper, sweeps=30, tol=1e-6)
    assert not result.converged and result.sweeps == 30 and result.newton_steps == 0
    # two certification evaluations, then per sweep one base evaluation and
    # one Newton step (two evaluations)
    assert calls[0] == 2 + 3 * result.sweeps
    assert_same_result(result, perron_sweeps(full_equation_rhs_2(), grid, usub, usuper,
                                             sweeps=30, tol=1e-6))


def test_nodewise_newton_never_stops_on_nan():
    # the residual after the first step is NaN at node 0 and solved elsewhere:
    # the loop must take that as unsolved, step again, and so carry the NaN
    # into a center value that the r-domain check refuses
    grid = build_grid(SPHERE, 2)
    G = sum_of(scalar_term(1.0), neg_trace(), constant(-2.0))
    calls = [0]

    def batch(ctx, rs, zs, As):
        calls[0] += 1
        vals = G.batch(ctx, rs, zs, As)
        if calls[0] == 3:  # base, secant trial, then the stepped residual
            vals[0] = math.nan
        return vals

    F = dataclasses.replace(G, batch=batch)
    ctx = F.make_context(grid.coords)
    w = np.zeros(grid.n_nodes)
    p, f0 = _residual(F, ctx, grid, w)
    with pytest.raises(PreconditionError, match="r values escape"):
        _nodewise_solve(F, ctx, w, p, _center_sensitivity(grid), f0, 1e-8)


def perron_sweeps(F, grid, usub, usuper, sweeps=DEFAULT_MAX_ITER, tol=1e-8):
    """The nodewise Perron sweep alone, the reference of a refused call:
    ``(w, sweeps, final residual, min increment, converged)``."""
    ctx = F.make_context(grid.coords)
    centers = _center_sensitivity(grid)
    w = np.array(usub.values)
    min_increment, final_res, converged, done = math.inf, math.inf, False, 0
    for done in range(1, sweeps + 1):
        p, vals = _residual(F, ctx, grid, w)
        final_res = float(np.max(np.abs(vals)))
        if final_res <= tol:
            converged = True
            break
        t = _nodewise_solve(F, ctx, w, p, centers, vals, tol)
        w_new = np.minimum(usuper.values, np.maximum(w, t))
        min_increment = min(min_increment, float(np.min(w_new - w)))
        w = w_new
    return w, done, final_res, min_increment, converged


def assert_same_result(result, reference):
    w, sweeps, final_res, min_increment, converged = reference
    assert np.array_equal(result.solution.values, w)
    assert (result.sweeps, result.final_residual, result.min_increment,
            result.converged) == (sweeps, final_res, min_increment, converged)


@pytest.mark.parametrize("kind", ["max_of", "min_eigenvalue"])
def test_refused_perron_is_the_sweep_bit_for_bit(kind):
    # max_of's first candidate breaks the certificate, lambda_min's Krylov
    # solve runs to its cap: either way the call is the sweep alone
    grid = build_grid(SPHERE, 3)
    f = ScalarField(lambda p: float(LINEAR_A @ p.coords), name="linear")
    if kind == "max_of":
        F = sum_of(scalar_term(1.0), max_of(sum_of(neg_trace(), source(f)), constant(-0.1)))
    else:
        F = sum_of(scalar_term(1.0), neg_min_eigenvalue(), source(f))
    usub, usuper = GridFunction.constant(grid, -1.0), GridFunction.constant(grid, 1.0)
    result = perron_iterate(F, grid, usub, usuper, tol=1e-8)
    assert result.newton_steps == 0 and result.ordering_ok
    assert_same_result(result, perron_sweeps(F, grid, usub, usuper, tol=1e-8))


@pytest.mark.parametrize("excess", [1e-6, 0.0])
def test_perron_candidate_past_the_certificate_is_refused(excess):
    # an operator double whose tenth evaluation (two certifications, the
    # base, six Jacobian partials, then the candidate) reads tol + excess at
    # node 0: past tol, the step is refused and the call is the sweep's bit
    # for bit; at tol exactly, it is kept and the call converges
    grid = build_grid(SPHERE, 3)
    tol = 1e-8
    G = sum_of(scalar_term(1.0), neg_trace(), constant(-2.0))
    calls = [0]

    def batch(ctx, rs, zs, As):
        calls[0] += 1
        vals = G.batch(ctx, rs, zs, As)
        if calls[0] == 10:
            vals[0] = tol + excess
        return vals

    F = dataclasses.replace(G, batch=batch)
    usub, usuper = GridFunction.constant(grid, 0.0), GridFunction.constant(grid, 10.0)
    result = perron_iterate(F, grid, usub, usuper, tol=tol)
    assert result.converged and result.ordering_ok and result.min_increment >= 0.0
    if excess > 0.0:
        assert result.newton_steps == 0
        assert_same_result(result, perron_sweeps(G, grid, usub, usuper, tol=tol))
    else:
        assert result.newton_steps == 1 and result.sweeps == 2
        assert result.final_residual == tol


def test_perron_newton_candidate_never_falls_below_the_iterate():
    # a subsolution that is the solution 2 but at every seventh node: the
    # Newton step is zero there up to Krylov roundoff, of either sign, and
    # the clamp into [w, usuper] keeps every increment nonnegative
    grid = build_grid(SPHERE, 3)
    start = np.full(grid.n_nodes, 2.0)
    start[::7] -= 0.01
    result = perron_iterate(
        full_equation_rhs_2(), grid, GridFunction(grid, start),
        GridFunction.constant(grid, 10.0), tol=1e-8,
    )
    assert result.converged and result.newton_steps == 1
    assert result.ordering_ok and result.min_increment == 0.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    res=st.sampled_from([2, 3]),
    b=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) <= 1.0),
    c=st.floats(-1.0, 1.0),
    margins=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
# a far lower end: the first certified step leaves a node residual of -1.04e-8
# at tol 1e-8 (its forward-difference Jacobian), and a second one converges
@example(res=2, b=(0.0, 0.548828125, 0.7962633132044608), c=0.96875, margins=(1.625, 0.0))
def test_perron_newton_keeps_the_certificates(res, b, c, margins):
    # u - lap u = b.x + c has the solution b.x/3 + c; constants at or beyond
    # |b| + |c| are a sub- and a supersolution
    grid = build_grid(SPHERE, res)
    b = np.array(b)
    f = ScalarField(lambda p: float(b @ p.coords) + c, name="affine")
    G = sum_of(neg_trace(), source(f))
    bound = float(np.linalg.norm(b)) + abs(c)
    tol = 1e-8
    result = perron_iterate(
        sum_of(scalar_term(1.0), G), grid,
        GridFunction.constant(grid, -bound - margins[0]),
        GridFunction.constant(grid, bound + margins[1]), tol=tol,
    )
    assert result.converged and result.ordering_ok
    assert result.min_increment >= 0.0
    # every step is a certified Newton step: the outer steps are those and the
    # converged check, none of them a nodewise sweep
    assert result.sweeps == result.newton_steps + 1
    fixed, _ = solve_fixed_point(G, grid, tol=tol)
    assert np.max(np.abs(result.solution.values - fixed.values)) <= 2.0 * tol


def test_perron_cubic_trace_stall_is_refused_newton():
    # r + (-tr A)^3 + a.x: the first candidate breaks the certificate, and
    # the sweep stalls near residual 110 with increments 0 (an open defect)
    grid = build_grid(SPHERE, 3)
    f = ScalarField(lambda p: float(LINEAR_A @ p.coords), name="linear")
    F = sum_of(scalar_term(1.0), compose(lambda t: t**3, neg_trace()), source(f))
    with np.errstate(over="ignore", invalid="ignore"):
        result = perron_iterate(
            F, grid, GridFunction.constant(grid, -1.0), GridFunction.constant(grid, 1.0),
            sweeps=50, tol=1e-8,
        )
    assert result.converged is False and result.newton_steps == 0
    assert result.sweeps == 50 and result.final_residual > 100.0
    assert result.ordering_ok and result.min_increment == 0.0


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


# --------------------------------------------------------------------- #
# the Newton engine against the damped sweep
# --------------------------------------------------------------------- #

NEWTON_GRIDS = [("sphere", 2), ("sphere", 3), ("sphere", 4), ("torus", 8), ("torus", 16)]


@functools.lru_cache(maxsize=None)
def newton_grid(kind, res):
    if kind == "sphere":
        return build_grid(SPHERE, res)
    return build_grid(FlatTorus([1.0, 1.0]), res)


def smooth_field(kind, a):
    """a.x on the sphere; on the unit torus a periodic field of the same size."""
    if kind == "sphere":
        return ScalarField(lambda p: float(a @ p.coords), name="linear")
    return ScalarField(lambda p: float(a @ np.concatenate(
        [np.cos(2 * math.pi * p.coords), np.sin(2 * math.pi * p.coords[:1])])), name="wave")


NEWTON_CASES = [(kind, res, problem) for kind, res in NEWTON_GRIDS
                for problem in ("linear", "max_of", "dirichlet", "yamabe3", "yamabe5")
                if kind == "sphere" or not problem.startswith("yamabe")]


def newton_and_sweep(problem, kind, grid, a, tol):
    """The engine's solution of the problem, its report, and the sweep's
    solution from the same start; with the properness constant of the
    equation and its interior mask (None: every node)."""
    f = smooth_field(kind, a)
    lin = sum_of(neg_trace(), source(f))
    if problem.startswith("yamabe"):
        # n = 5 has a non-integer exponent, so both clip their iterates into
        # its r-domain, r >= 0
        n = int(problem[-1])
        u0 = 1.5 + 0.5 * (grid.coords @ a)
        u, report = yamabe_solve(grid, "const:6", -1.0, n=n, u0=GridFunction(grid, u0), tol=tol)
        ref = sweep_solve(yamabe(n, "const:6", -1.0), grid, u0, tol)
        return u, report, ref, 6.0, None
    if problem == "dirichlet":
        interior = geodesic_ball_interior(grid, 0, 1.0 if kind == "sphere" else 0.3)
        F, f_vals = sum_of(scalar_term(1.0), lin), f.values(grid.coords)
        u, report = solve_dirichlet(F, grid, ~interior, f_vals, tol=tol)
        u0 = np.where(interior, 0.0, f_vals)
        return u, report, sweep_solve(F, grid, u0, tol, fixed=~interior), 1.0, interior
    G = lin if problem == "linear" else max_of(lin, constant(-0.1))
    u, report = solve_fixed_point(G, grid, tol=tol)
    return u, report, sweep_solve(lift(G), grid, np.zeros(grid.n_nodes), tol), 1.0, None


@pytest.mark.parametrize("kind,res,problem", NEWTON_CASES)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(a=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
       .filter(lambda v: np.linalg.norm(v) > 0.1))
def test_newton_agrees_with_the_sweep(kind, res, problem, a):
    # both solutions have residuals within tol, and the discrete comparison
    # bounds their gap by the residuals over the properness constant
    grid = newton_grid(kind, res)
    tol = 1e-8
    u, report, (ref, ref_report), gamma, interior = newton_and_sweep(
        problem, kind, grid, np.asarray(a) / np.linalg.norm(a), tol)
    assert report.method == "newton" and report.converged
    assert report.iterations == report.residual_history.size - 1 >= 1
    assert ref_report.method == "sweep" and ref_report.converged
    assert np.max(np.abs(u.values - ref)) <= 2.0 * tol / gamma + 1e-14
    if interior is not None:
        assert np.array_equal(u.values[~interior], ref[~interior])


def parent_sweep(G, grid, theta, tol, max_iter):
    """The damped iteration at a fixed theta, as written before the Newton
    engine: the reference for the sweep path's values."""
    F = lift(G)
    u = np.zeros(grid.n_nodes)
    history = []
    for it in range(max_iter):
        vals = discrete_residual(F, grid, GridFunction(grid, u))
        history.append(float(np.max(np.abs(vals))))
        if history[-1] <= tol:
            return u, it, history
        u -= theta * vals
    return u, max_iter, history


@pytest.mark.parametrize("max_iter", [50, 100_000])
def test_sweep_is_the_parent_sweep_at_its_probed_theta(max_iter):
    # the sweep converges in 120 sweeps, so it probes theta once, at sweep 0
    grid = build_grid(SPHERE, 3)
    G = sum_of(neg_trace(), source(ScalarField(lambda p: float(LINEAR_A @ p.coords))))
    u, report = sweep_solve(lift(G), grid, np.zeros(grid.n_nodes), max_iter=max_iter)
    ref, iterations, history = parent_sweep(G, grid, report.theta, 1e-8, max_iter)
    assert report.method == "sweep" and report.krylov_iterations == 0
    assert report.iterations == iterations and report.converged == (max_iter > 50)
    assert np.array_equal(u, ref)
    assert np.array_equal(report.residual_history, history)


def test_sweep_probes_theta_at_sweep_0_and_every_200th():
    # the conformal operator is nonlinear in u, so the probe reads another
    # theta at sweep 200 than at sweep 0; the res-2 sweep takes 292 sweeps
    grid = build_grid(SPHERE, 2)
    F = yamabe(3, ScalarField.parse("const:6"), -1.0)
    u, report = sweep_solve(F, grid, np.ones(grid.n_nodes))
    ctx, centers = F.make_context(grid.coords), _center_sensitivity(grid)
    ref, thetas = np.ones(grid.n_nodes), []
    for it in range(report.iterations):
        p, vals = _residual(F, ctx, grid, ref)
        if it in (0, 200):
            thetas.append(_estimate_theta(F, ctx, ref, p, vals, centers, None))
        ref = np.clip(ref - thetas[-1] * vals, 0.0, None)
    assert report.converged and 200 < report.iterations < 400
    assert thetas[0] != thetas[1] == report.theta
    assert np.array_equal(u, ref)


def test_failed_newton_hands_the_original_problem_to_the_sweep():
    # -lambda_min builds a Jacobian with negative neighbor weights (the
    # scheme is not monotone), and no Krylov solve of it reaches its tolerance
    grid = build_grid(SPHERE, 3)
    G = sum_of(neg_min_eigenvalue(), source(ScalarField(lambda p: float(LINEAR_A @ p.coords))))
    u, report = solve_fixed_point(G, grid, tol=1e-8)
    ref, ref_report = sweep_solve(lift(G), grid, np.zeros(grid.n_nodes))
    assert report.method == "sweep" and report.krylov_iterations == _KRYLOV_CAP
    assert report.converged and report.iterations == ref_report.iterations == 138
    assert np.array_equal(u.values, ref)
    assert np.array_equal(report.residual_history, ref_report.residual_history)


def test_newton_converges_through_a_krylov_residual_above_b():
    # the first BiCGSTAB iteration of a res-5 neg_detplus Newton step passes
    # |b| (1.2-2.7 |b| over five sources) and that solve then converges; the
    # sweep diverges on this problem, so a BiCGSTAB stop on |r| > |b| would
    # fail the whole solve
    grid = build_grid(SPHERE, 5)
    G = sum_of(neg_detplus(), source(ScalarField(lambda p: float(LINEAR_A @ p.coords))))
    _, report = solve_fixed_point(G, grid, tol=1e-8)
    assert report.method == "newton" and report.converged


def test_report_writes_a_newton_history_whole_and_every_50th_sweep_residual():
    # Newton refuses the res-3 min-eigenvalue problem, which the sweep solves
    grid = build_grid(SPHERE, 3)
    f = source(ScalarField(lambda p: float(LINEAR_A @ p.coords)))
    _, newton = solve_fixed_point(sum_of(neg_trace(), f), grid, tol=1e-8)
    _, sweep = solve_fixed_point(sum_of(neg_min_eigenvalue(), f), grid, tol=1e-8)
    assert newton.method == "newton" and sweep.method == "sweep"
    assert newton.to_dict()["residual_history"] == newton.residual_history.tolist()
    assert len(newton.to_dict()["residual_history"]) == newton.iterations + 1 >= 2
    assert sweep.iterations > 50
    assert sweep.to_dict()["residual_history"] == sweep.residual_history[::50].tolist()


def test_odd_torus_lattice_is_left_to_the_sweep():
    # 33 x 33 cannot be halved, and its 1089 nodes are past a dense coarse solve
    grid = build_grid(FlatTorus([1.0, 1.0]), 33)
    u, report = solve_fixed_point(laplace_rhs_2(), grid, max_iter=50)
    ref, ref_report = sweep_solve(lift(laplace_rhs_2()), grid,
                                  np.zeros(grid.n_nodes), max_iter=50)
    assert report.method == "sweep" and report.krylov_iterations == 0
    assert not report.converged and report.iterations == 50
    assert np.array_equal(u.values, ref)


@pytest.mark.parametrize("res", [3, 4])
@pytest.mark.parametrize("kind", ["detplus", "cubic_trace"])
def test_newton_solves_what_the_sweep_cannot(kind, res):
    # the theta probe at u0 = 0 reads slope 0 for both (det+ and (tr A)^3
    # vanish to second order there), so theta = 1 and the sweep diverges
    grid = build_grid(SPHERE, res)
    f = ScalarField(lambda p: float(LINEAR_A @ p.coords), name="linear")
    inner = neg_detplus() if kind == "detplus" else compose(lambda t: t**3, neg_trace())
    G = sum_of(inner, source(f))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        sweep_solve(lift(G), grid, np.zeros(grid.n_nodes))
    u, report = solve_fixed_point(G, grid, tol=1e-8)
    assert report.method == "newton" and report.converged
    lifted = discrete_residual(sum_of(scalar_term(1.0), G), grid, u)
    assert np.max(np.abs(lifted)) <= 1e-8


def test_newton_clips_its_trials_into_the_r_domain():
    # yamabe(5) has the non-integer exponent 7/3, so its r-domain is r >= 0;
    # the first full Newton step from u0 = 20 leaves it, and the engine clips
    # the trial at 0 rather than handing the solve to the sweep
    grid = build_grid(SPHERE, 3)
    F = yamabe(5, "const:6", -1.0)
    assert F.r_domain[0] == 0.0
    u, report = solve_fixed_point(F, grid, u0=GridFunction.constant(grid, 20.0))
    assert report.method == "newton" and report.converged
    assert np.all(u.values >= 0.0)


def test_cli_solve_leaves_scipy_sparse_linalg_unimported():
    code = (
        "import sys\n"
        "import riemvisc.cli\n"
        "from riemvisc import Sphere, build_grid, solve_fixed_point\n"
        "from riemvisc.operators import constant, neg_trace, sum_of\n"
        "u, rep = solve_fixed_point(sum_of(neg_trace(), constant(-2.0)),\n"
        "                           build_grid(Sphere(2, 1.0), 3))\n"
        "assert rep.method == 'newton' and rep.converged, rep\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"
