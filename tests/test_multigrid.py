"""Galerkin V-cycles and preconditioned BiCGSTAB on the solver's Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sparse

from riemvisc import FlatTorus, Sphere
from riemvisc.grids import build_grid
from riemvisc.multigrid import VCycle, bicgstab
from riemvisc.operators import neg_trace, scalar_term, sum_of
from riemvisc.solver import _hierarchy, _jacobian, _jacobian_weights, _residual


def laplace_jacobian(grid):
    """J of u - lap_h u: an M-matrix with the stencil's sparsity."""
    F = sum_of(scalar_term(1.0), neg_trace())
    ctx = F.make_context(grid.coords)
    u = np.zeros(grid.n_nodes)
    p, vals = _residual(F, ctx, grid, u)
    return _jacobian(grid, _jacobian_weights(F, ctx, u, p, vals, grid.h))


@pytest.mark.parametrize("kind,res", [("sphere", 3), ("sphere", 4), ("torus", 32)])
def test_jacobian_is_the_stencil_operator(kind, res):
    grid = build_grid(Sphere(2, 1.0) if kind == "sphere" else FlatTorus([1.0, 0.7]), res)
    mat = laplace_jacobian(grid)
    n, h = grid.n_nodes, grid.h
    # u - lap_h u: the trace proxy is (sum of the four axis stencils - 4 u) / h^2
    axes = sum(grid.stencils[:4], sparse.csr_matrix((n, n)))
    ref = (1.0 + 4.0 / h**2) * sparse.identity(n) - axes / h**2
    assert abs(mat - ref).max() <= 1e-6 * (1.0 + 4.0 / h**2)


@pytest.mark.parametrize("kind,res", [("sphere", 3), ("sphere", 4), ("torus", 32)])
def test_preconditioned_bicgstab_solves_in_few_iterations(kind, res):
    grid = build_grid(Sphere(2, 1.0) if kind == "sphere" else FlatTorus([1.0, 0.7]), res)
    mat = laplace_jacobian(grid)
    prolongations, restrictions = _hierarchy(grid)
    assert len(prolongations) >= 1
    vcycle = VCycle(mat, prolongations, restrictions)
    b = np.random.default_rng(res).standard_normal(grid.n_nodes)
    target = 1e-10 * np.linalg.norm(b)
    x, its, ok = bicgstab(mat, b, vcycle, target, 20)
    assert ok and its <= 8
    assert np.linalg.norm(mat @ x - b) <= target
    # one iteration is not enough: the cap is reported as a miss
    x, its, ok = bicgstab(mat, b, vcycle, target, 1)
    assert not ok and its == 1


def test_vcycle_is_a_fixed_linear_map():
    grid = build_grid(Sphere(2, 1.0), 3)
    mat = laplace_jacobian(grid)
    vcycle = VCycle(mat, *_hierarchy(grid))
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, grid.n_nodes))
    assert np.allclose(vcycle(2.0 * a - b), 2.0 * vcycle(a) - vcycle(b), atol=1e-12)
    # and it contracts the error of the system it preconditions
    err = np.linalg.norm(b - mat @ vcycle(b)) / np.linalg.norm(b)
    assert err < 0.1
