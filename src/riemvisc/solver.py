"""Monotone semi-Lagrangian discretization and fixed-point solvers.

The discrete equation at a node x is ``F(x, u(x), du_h, d2u_h) = 0`` where
the derivative proxies come from geodesic central differences over the
grid stencils:

* gradient: ``(u(exp_x(h e_i)) - u(exp_x(-h e_i))) / 2h``
* Hessian diagonal: ``(u(exp_x(h e_i)) + u(exp_x(-h e_i)) - 2 u(x)) / h^2``
* cross terms from rotated directions ``(e_i +- e_j)/sqrt(2)``.

``solve_fixed_point`` runs the damped iteration ``u <- (1-theta) u +
theta (-G_h(x, u))`` for equations ``u + G = 0``; the default damping is
``1/(1 + L)`` with ``L`` the probed sensitivity of ``G_h`` to the center
value, which makes the update the classical (center-implicit) Jacobi
sweep.  Node updates within a sweep only read the previous iterate, so
the iteration is deterministic and order-independent.

The scheme is the grid's stencil stack (``Grid.stack``): one mat-vec
gathers the ``(8, N)`` stencil values of u, and one assembly turns them
into an ``(N, 6)`` proxy array with columns ``[zeta_0, zeta_1, a00, a01,
a01, a11]``, so ``zetas`` is its view ``[:, :2]`` and ``amats`` its view
``[:, 2:]`` reshaped to ``(N, 2, 2)``.  The proxies are linear in the
stencil values and the center value together, so replacing the center
value u(x) by t while the neighbors stay put is affine in ``t - u``:
``base + (t - u) c``, where the center sensitivity ``c`` is the same
assembly applied to the stencil diagonals with unit center values.  The
nodewise Newton step of the Perron sweep and the theta probe use that
update instead of gathering again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, PreconditionError
from .grids import Grid, GridFunction
from .manifolds import Point, Sphere
from .operators import OperatorSpec, ScalarField, yamabe

DEFAULT_MAX_ITER = 100_000
_THETA_REFRESH = 200


# --------------------------------------------------------------------- #
# derivative proxies
# --------------------------------------------------------------------- #

def _gather(stack, u: np.ndarray) -> np.ndarray:
    """Stencil values of u, one row per direction: ``(n_dirs, N)``."""
    return (stack @ u).reshape(-1, u.shape[0])


def _proxy_array(sv: np.ndarray, t: np.ndarray, h: float) -> np.ndarray:
    """``(N, 6)`` proxies ``[zeta_0, zeta_1, a00, a01, a01, a11]`` from the
    ``(8, N)`` stencil values ``sv`` and the center values ``t``."""
    p = np.empty((t.shape[0], 6))
    p[:, 0] = (sv[0] - sv[1]) / (2.0 * h)
    p[:, 1] = (sv[2] - sv[3]) / (2.0 * h)
    p[:, 2] = (sv[0] + sv[1] - 2.0 * t) / h**2
    p[:, 5] = (sv[2] + sv[3] - 2.0 * t) / h**2
    dplus = (sv[4] + sv[5] - 2.0 * t) / h**2
    dminus = (sv[6] + sv[7] - 2.0 * t) / h**2
    p[:, 3] = p[:, 4] = 0.5 * (dplus - dminus)
    return p


def _center_sensitivity(grid: Grid) -> np.ndarray:
    """``(N, 6)`` derivative of the proxies in the center value: the
    assembly applied to the stencil diagonals, with unit center values."""
    diagonals = np.stack([s.diagonal() for s in grid.stencils])
    return _proxy_array(diagonals, np.ones(grid.n_nodes), grid.h)


def _evaluate(F: OperatorSpec, ctx, rs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F on the proxy array ``p``, through its ``zetas`` and ``amats`` views."""
    return F.eval_batch(ctx, rs, p[:, :2], p[:, 2:].reshape(-1, 2, 2))


def _base_proxies(grid: Grid, u_vals: np.ndarray) -> np.ndarray:
    """The ``(N, 6)`` proxies of u: one gather, one assembly."""
    return _proxy_array(_gather(grid.stack, u_vals), u_vals, grid.h)


def _evaluate_centered(F, ctx, base, centers, u_vals, t, out=None) -> np.ndarray:
    """F with each node's center value moved from u to t, neighbors kept:
    on the proxies ``base + (t - u) centers`` (written to ``out`` if given)."""
    out = np.multiply((t - u_vals)[:, None], centers, out=out)
    np.add(out, base, out=out)
    return _evaluate(F, ctx, t, out)


def derivative_proxies(grid: Grid, u: GridFunction, node: int):
    """(zeta, A) proxies at one node, in the node's canonical frame, from
    the node's own stack rows."""
    rows = node + grid.n_nodes * np.arange(len(grid.dirs))
    sv = (grid.stack[rows] @ u.values)[:, None]
    p = _proxy_array(sv, u.values[node:node + 1], grid.h)[0]
    return p[:2], p[2:].reshape(2, 2)


def discretize(F: OperatorSpec, grid: Grid, u: GridFunction, node: int) -> float:
    """Evaluate F at one node on the difference proxies of u."""
    zeta, amat = derivative_proxies(grid, u, node)
    return F.point_eval(Point(grid.coords[node]), float(u.values[node]), zeta, amat)


def discrete_residual(F: OperatorSpec, grid: Grid, u: GridFunction) -> np.ndarray:
    """Nodewise residual F(x, u, du_h, d2u_h)."""
    ctx = F.make_context(grid.nodes)
    return _evaluate(F, ctx, u.values, _base_proxies(grid, u.values))


# --------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------- #

@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    tolerance: float
    converged: bool
    theta: float
    wall_time: float
    residual_history: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        # wall time is left out so serialized reports are byte-identical
        # across runs with the same config and seed
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "theta": self.theta,
            "residual_history": self.residual_history[::50].tolist(),
        }


# --------------------------------------------------------------------- #
# the damped fixed-point engine
# --------------------------------------------------------------------- #

def _estimate_theta(F, ctx, u_vals, base, base_vals, centers, active) -> float:
    """1 / (probed max sensitivity of the residual to the center value)."""
    delta = 1e-3 * max(1.0, float(np.max(np.abs(u_vals))))
    up_vals = _evaluate_centered(F, ctx, base, centers, u_vals, u_vals + delta)
    slopes = (up_vals - base_vals) / delta
    slope = float(np.max(np.abs(slopes[active]), initial=1.0))
    return min(1.0, 1.0 / slope)


def _lift_u_plus_g(G: OperatorSpec) -> OperatorSpec:
    """Full-equation operator r + G for the boundary-free problem u + G = 0."""
    return OperatorSpec(
        f"u+{G.name}",
        lambda ctx, rs, zs, As: rs + G.batch(ctx, rs, zs, As),
        degenerate_elliptic=G.degenerate_elliptic,
        proper=G.degenerate_elliptic,
        gamma=1.0 + G.gamma,
        x_dependent=G.x_dependent,
        r_domain=G.r_domain,
        context_builder=G.context_builder,
    )


def _run_iteration(
    F: OperatorSpec,
    grid: Grid,
    u0: np.ndarray,
    theta: float | None,
    tol: float,
    max_iter: int,
    interior: np.ndarray | None = None,
    clip_nonnegative: bool = False,
):
    ctx = F.make_context(grid.nodes)
    centers = _center_sensitivity(grid)
    u = np.array(u0, dtype=float)
    active = interior if interior is not None else np.ones(grid.n_nodes, bool)
    if not np.any(active):
        return u, SolveReport(0, 0.0, tol, True, 0.0, 0.0, np.zeros(0))
    fixed_theta = theta is not None
    history = []
    start = time.perf_counter()
    best = math.inf
    current_theta = theta if fixed_theta else None
    for it in range(max_iter):
        p = _base_proxies(grid, u)
        vals = _evaluate(F, ctx, u, p)
        if current_theta is None or (not fixed_theta and it % _THETA_REFRESH == 0):
            current_theta = _estimate_theta(F, ctx, u, p, vals, centers, active)
        res = float(np.max(np.abs(vals[active])))
        history.append(res)
        best = min(best, res)
        if res <= tol:
            report = SolveReport(
                it, res, tol, True, current_theta,
                time.perf_counter() - start, np.array(history),
            )
            return u, report
        if not math.isfinite(res) or (
            it > 100 and res > 10.0 * best and res > history[0]
        ):
            report = SolveReport(
                it, res, tol, False, current_theta,
                time.perf_counter() - start, np.array(history),
            )
            raise DivergenceError("residual grew over the monitoring window", report)
        u[active] = u[active] - current_theta * vals[active]
        if clip_nonnegative:
            np.clip(u, 0.0, None, out=u)
    report = SolveReport(
        max_iter, history[-1] if history else math.inf, tol, False,
        current_theta or 0.0, time.perf_counter() - start, np.array(history),
    )
    return u, report


def solve_fixed_point(
    G: OperatorSpec,
    grid: Grid,
    u0: GridFunction | None = None,
    theta: float | None = None,
    tol: float = 1e-8,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GridFunction, SolveReport]:
    """Solve u + G(x, du, d2u) = 0 by the damped fixed-point iteration.

    ``theta=None`` uses the probed default ``1/(1 + L)``; fixed values in
    (0, 1] are honored as given.  Raises :class:`DivergenceError` when the
    residual grows persistently.
    """
    if not G.degenerate_elliptic:
        raise PreconditionError("solve_fixed_point needs the degenerate_elliptic flag")
    if theta is not None and not 0.0 < theta <= 1.0:
        raise PreconditionError("theta must lie in (0, 1]")
    start = GridFunction.constant(grid, 0.0) if u0 is None else u0
    values, report = _run_iteration(
        _lift_u_plus_g(G), grid, start.values, theta, tol, max_iter
    )
    return GridFunction(grid, values), report


def solve_dirichlet(
    F: OperatorSpec,
    grid: Grid,
    boundary_mask: np.ndarray,
    boundary_values: np.ndarray | float,
    u0: GridFunction | None = None,
    theta: float | None = None,
    tol: float = 1e-8,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GridFunction, SolveReport]:
    """Solve F = 0 on the interior with u pinned to f on the masked nodes."""
    boundary_mask = np.asarray(boundary_mask, bool)
    if boundary_mask.shape != (grid.n_nodes,):
        raise PreconditionError("boundary mask must cover every node")
    if not np.any(boundary_mask):
        raise PreconditionError("boundary mask must be nonempty")
    f_vals = np.broadcast_to(np.asarray(boundary_values, float), (grid.n_nodes,))
    start = GridFunction.constant(grid, 0.0) if u0 is None else u0
    u_init = np.array(start.values)
    u_init[boundary_mask] = f_vals[boundary_mask]
    interior = ~boundary_mask
    values, report = _run_iteration(
        F, grid, u_init, theta, tol, max_iter, interior=interior
    )
    return GridFunction(grid, values), report


# --------------------------------------------------------------------- #
# Perron iteration between a sub- and a supersolution
# --------------------------------------------------------------------- #

@dataclass
class PerronResult:
    solution: GridFunction
    sweeps: int
    final_residual: float
    min_increment: float
    ordering_ok: bool
    converged: bool


def _nodewise_solve(F, ctx, w, base, centers, f0):
    """Per node, the value t making the residual vanish with neighbors at w
    (four Newton steps).

    ``base`` holds the proxies of w and ``f0`` the residual there; a trial
    center value t has the proxies ``base + (t - w) centers``.
    """
    trial = np.empty_like(base)
    t = np.array(w)
    dt = 1.0
    for _ in range(4):
        f1 = _evaluate_centered(F, ctx, base, centers, w, t + dt, trial)
        slope = (f1 - f0) / dt
        slope = np.where(slope > 1e-12, slope, 1.0)
        t = t - f0 / slope
        f0 = _evaluate_centered(F, ctx, base, centers, w, t, trial)
        dt = 1e-6
    return t


def perron_iterate(
    F: OperatorSpec,
    grid: Grid,
    usub: GridFunction,
    usuper: GridFunction,
    sweeps: int = DEFAULT_MAX_ITER,
    tol: float = 1e-8,
) -> PerronResult:
    """Monotone sweeps from a discrete subsolution toward the solution.

    Each sweep replaces every node value by the root of the node residual
    with neighbors frozen (clamped into [current, supersolution]), so the
    iterates increase and stay ordered; certification of the inputs uses
    the residual evaluator with thresholds +-h.
    """
    if np.any(usub.values > usuper.values + 1e-12):
        raise PreconditionError("subsolution must not exceed the supersolution")
    res_sub = discrete_residual(F, grid, usub)
    if float(np.max(res_sub)) > grid.h:
        raise PreconditionError("usub is not a discrete subsolution (residual > h)")
    res_super = discrete_residual(F, grid, usuper)
    if float(np.min(res_super)) < -grid.h:
        raise PreconditionError("usuper is not a discrete supersolution (residual < -h)")

    ctx = F.make_context(grid.nodes)
    centers = _center_sensitivity(grid)
    w = np.array(usub.values)
    ordering_ok = True
    min_increment = math.inf
    final_res = math.inf
    converged = False
    sweeps_done = 0
    for sweeps_done in range(1, sweeps + 1):
        p = _base_proxies(grid, w)
        vals = _evaluate(F, ctx, w, p)
        final_res = float(np.max(np.abs(vals)))
        if final_res <= tol:
            converged = True
            break
        t = _nodewise_solve(F, ctx, w, p, centers, vals)
        w_new = np.minimum(usuper.values, np.maximum(w, t))
        increment = w_new - w
        min_increment = min(min_increment, float(np.min(increment)))
        if np.any(w_new > usuper.values + 1e-12) or np.any(increment < -1e-12):
            ordering_ok = False
        w = w_new
    return PerronResult(
        GridFunction(grid, w), sweeps_done, final_res, min_increment,
        ordering_ok, converged,
    )


# --------------------------------------------------------------------- #
# viscosity-residual verification via local quadratic fits
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ViscosityReport:
    max_sub_violation: float
    max_super_violation: float
    sub_witness: int
    super_witness: int
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_sub_violation": self.max_sub_violation,
            "max_super_violation": self.max_super_violation,
            "sub_witness": self.sub_witness,
            "super_witness": self.super_witness,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def verify_viscosity_residual(
    F: OperatorSpec,
    grid: Grid,
    u: GridFunction,
    pass_factor: float = 10.0,
) -> ViscosityReport:
    """Fit local quadratics over the stencil and evaluate F on the jets.

    The fit ignores the center value and samples two rings (steps h and
    h/2; one ring alone cannot separate the constant from the Hessian
    trace).  Shifting the fitted Hessian up (down) by the fit misfit
    produces a candidate test function touching from above (below).
    Sub/supersolution violations are positive parts of F there; the pass
    threshold scales with the stencil step h.
    """
    h = grid.h
    dirs = np.array(grid.dirs)
    steps = (h, 0.5 * h)
    rows = []
    for step in steps:
        sd = step * dirs
        rows.append(
            np.stack(
                [
                    np.ones(len(dirs)), sd[:, 0], sd[:, 1],
                    0.5 * sd[:, 0] ** 2, 0.5 * sd[:, 1] ** 2,
                    sd[:, 0] * sd[:, 1],
                ],
                axis=1,
            )
        )
    design = np.concatenate(rows)
    pinv = np.linalg.pinv(design)
    vals = np.concatenate(
        [_gather(grid.stack_for(step), u.values) for step in steps]
    )                                                   # (16, N)
    coeffs = pinv @ vals                               # (6, N)
    misfit = np.max(np.abs(vals - design @ coeffs), axis=0)
    shift = 2.0 * misfit / h**2
    n_nodes = grid.n_nodes
    zetas = coeffs[1:3].T
    amats = np.empty((n_nodes, 2, 2))
    amats[:, 0, 0] = coeffs[3]
    amats[:, 1, 1] = coeffs[4]
    amats[:, 0, 1] = coeffs[5]
    amats[:, 1, 0] = coeffs[5]
    ctx = F.make_context(grid.nodes)
    eye_shift = shift[:, None, None] * np.eye(2)
    up_vals = F.eval_batch(ctx, u.values, zetas, amats + eye_shift)
    down_vals = F.eval_batch(ctx, u.values, zetas, amats - eye_shift)
    sub_violation = np.maximum(up_vals, 0.0)
    super_violation = np.maximum(-down_vals, 0.0)
    threshold = pass_factor * h
    max_sub = float(np.max(sub_violation))
    max_super = float(np.max(super_violation))
    return ViscosityReport(
        max_sub, max_super, int(np.argmax(sub_violation)),
        int(np.argmax(super_violation)), threshold,
        max_sub <= threshold and max_super <= threshold,
    )


# --------------------------------------------------------------------- #
# the conformal scalar-curvature equation on the sphere grid
# --------------------------------------------------------------------- #

def yamabe_solve(
    grid: Grid,
    s_field,
    s_prime: float,
    n: int = 3,
    u0: GridFunction | None = None,
    theta: float | None = None,
    tol: float = 1e-8,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GridFunction, SolveReport]:
    """Solve S(x) u - S' u^((n+2)/(n-2)) = c_n Lap u on the sphere grid.

    The 2-sphere serves as the computational domain with the conformal
    dimension n supplied as a formal parameter; this is a verification
    vehicle for the uniqueness claim, not a geometric solution.  Requires
    S > 0 at every node, S' <= 0, and a nonnegative initial iterate.
    """
    if not (isinstance(grid.model, Sphere) and grid.model.dim == 2):
        raise PreconditionError("the conformal solve runs on the 2-sphere grid")
    s_parsed = ScalarField.parse(s_field)
    s_vals = s_parsed.values(grid.nodes)
    if np.any(s_vals <= 0.0):
        raise PreconditionError("the scalar-curvature coefficient must be positive")
    if s_prime > 0.0:
        raise PreconditionError("the target curvature parameter must be <= 0")
    F = yamabe(n, s_parsed, s_prime)
    start = GridFunction.constant(grid, 1.0) if u0 is None else u0
    if np.any(start.values < 0.0):
        raise PreconditionError("initial iterate must be nonnegative")
    clip = F.r_domain[0] >= 0.0  # non-integer exponent: keep iterates feasible
    values, report = _run_iteration(
        F, grid, start.values, theta, tol, max_iter, clip_nonnegative=clip
    )
    return GridFunction(grid, values), report
