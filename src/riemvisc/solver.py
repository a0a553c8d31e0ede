"""Monotone semi-Lagrangian discretization and fixed-point solvers.

The discrete equation at a node x is ``F(x, u(x), du_h, d2u_h) = 0`` where
the derivative proxies come from geodesic central differences over the
grid stencils:

* gradient: ``(u(exp_x(h e_i)) - u(exp_x(-h e_i))) / 2h``
* Hessian diagonal: ``(u(exp_x(h e_i)) + u(exp_x(-h e_i)) - 2 u(x)) / h^2``
* cross terms from rotated directions ``(e_i +- e_j)/sqrt(2)``.

``solve_fixed_point`` (``u + G = 0``, the operator
``sum_of(scalar_term(1.0), G)``), ``solve_dirichlet`` and ``yamabe_solve``
share one engine.  It takes Newton steps ``J du = -F(u)``: the proxies
are linear in u, so ``J = diag(F_r) + sum_c diag(F_c) P_c``, with the
partial derivatives of F from forward differences of its one
``batch`` evaluator and ``P_c`` read off the stencil stack; each step is
solved by BiCGSTAB preconditioned by one Galerkin V-cycle on the grid's
hierarchy (:mod:`riemvisc.multigrid`) and shortened by halving until the
residual falls below the largest of the last few.  The discrete equation
has one solution, so the engine may hand it to the damped iteration
``u <- (1-theta) u + theta (-G_h(x, u))``, run from the original start
with the caller's ``max_iter``.  It does so when the hierarchy's coarsest
level is too large for a dense solve, and when Newton fails: a Krylov solve
misses its tolerance within ``_KRYLOV_CAP`` iterations, no halving of a
step finds a lower residual (a non-finite one included), the operator
refuses an iterate, or ``_NEWTON_MAX_STEPS`` steps pass.  Both paths clip
every Newton trial and every sweep iterate into the operator's
``r_domain`` (the conformal operator needs r >= 0 at n >= 5, where its
exponent is not an odd integer), and leave the nodes of a Dirichlet
solve's boundary mask where they start.  The sweep's damping is
``1/(1 + L)`` with ``L`` the probed sensitivity of ``G_h`` to the center
value, probed at sweep 0 and every ``_THETA_REFRESH`` sweeps, which makes
the update the classical (center-implicit) Jacobi sweep.  Node updates
within a sweep only read the previous iterate, so the iteration is
deterministic and order-independent.

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

``perron_iterate`` is Perron's method between a discrete subsolution and a
supersolution.  Each of its steps first tries one certified Newton step of
the whole grid from the current iterate w: the engine's direction, on the
same hierarchy and Krylov cap, solved until the linear residual's 2-norm is
at most ``_INNER_FLOOR`` times the tolerance, and the candidate ``w + du``
clamped into [w, supersolution].  The candidate is kept only if every node
residual there is at most the tolerance, so it is still a discrete
subsolution, above w and below the supersolution (monotone Newton,
Ortega-Rheinboldt 13.3).  The first refusal (the certificate misses, the
Krylov solve misses, the grid has no hierarchy, or the operator refuses an
evaluation) hands the rest of the call to the nodewise sweep; a refusal at
the first step leaves the call bit for bit the sweep alone.

``SolveReport``, ``PerronResult`` and ``ViscosityReport`` serialize through
the operators' one ``Verdict.to_dict``, which leaves out the wall time and
the Perron solution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DivergenceError, PreconditionError
from .grids import Grid, GridFunction
from .manifolds import Sphere
from .multigrid import VCycle, bicgstab
from .operators import (
    UNWRITTEN, OperatorSpec, ScalarField, Verdict, scalar_term, sum_of, yamabe,
)

if TYPE_CHECKING:
    import scipy.sparse as sparse

DEFAULT_MAX_ITER = 100_000
_THETA_REFRESH = 200
# the nodewise Newton of a Perron sweep stops once every node residual is at
# most this fraction of the sweep tolerance; stopping at the tolerance itself
# moves the sweep count of center-nonlinear operators (343 -> 345 sweeps,
# the sweep alone)
_NEWTON_STOP = 1e-3
# the Newton engine: steps and BiCGSTAB iterations per step before the sweep
# takes over; the forward-difference step of the Jacobian (relative); the
# inner tolerance: the linear residual's 2-norm falls to _INNER_FRACTION of
# the nonlinear one's, or to _INNER_FLOOR times the solve tolerance (a Perron
# step to the latter alone, since its candidate is certified in the max norm
# at the tolerance); and the line search: a step is halved at most
# _BACKTRACKS times until the residual falls below the largest of the last
# _MEMORY
_NEWTON_MAX_STEPS = 30
_KRYLOV_CAP = 20
_FD_STEP = 1e-7
_INNER_FRACTION = 1e-8
_INNER_FLOOR = 0.1
_BACKTRACKS = 5
_MEMORY = 5
# the hierarchy stops at its first level of at most _COARSE_NODES nodes; one
# whose coarsest level has more than _COARSEST_MAX (an odd torus lattice)
# leaves the solve to the sweep
_COARSE_NODES = 200
_COARSEST_MAX = 1024
# verify_viscosity_residual passes when both violations are at most this
# times the stencil step h
_VISCOSITY_PASS_FACTOR = 10.0


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


def _residual(F, ctx, grid: Grid, u_vals: np.ndarray, fixed=None):
    """``(proxies, values)``: the ``(N, 6)`` proxies of u (one gather, one
    assembly) and F on them, zero on the ``fixed`` nodes if a mask is given."""
    p = _proxy_array(_gather(grid.stack, u_vals), u_vals, grid.h)
    vals = _evaluate(F, ctx, u_vals, p)
    return p, vals if fixed is None else np.where(fixed, 0.0, vals)


def _evaluate_centered(F, ctx, base, centers, u_vals, t, out=None) -> np.ndarray:
    """F with each node's center value moved from u to t, neighbors kept:
    on the proxies ``base + (t - u) centers`` (written to ``out`` if given)."""
    out = np.multiply((t - u_vals)[:, None], centers, out=out)
    np.add(out, base, out=out)
    return _evaluate(F, ctx, t, out)


def discrete_residual(F: OperatorSpec, grid: Grid, u: GridFunction) -> np.ndarray:
    """Nodewise residual F(x, u, du_h, d2u_h)."""
    return _residual(F, F.make_context(grid.coords), grid, u.values)[1]


# --------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------- #

@dataclass
class SolveReport(Verdict):
    iterations: int
    final_residual: float
    tolerance: float
    converged: bool
    theta: float
    # left out of to_dict, so reports are byte-identical across equal runs
    wall_time: float = field(metadata=UNWRITTEN)
    residual_history: np.ndarray = field(repr=False)
    method: str = "sweep"  # "newton" or "sweep": the path that produced u
    krylov_iterations: int = 0  # BiCGSTAB iterations of the Newton steps taken

    def to_dict(self) -> dict:
        out = super().to_dict()  # a Newton history, at most 31 residuals, whole
        if self.method == "sweep":
            out["residual_history"] = self.residual_history[::50].tolist()
        return out


# --------------------------------------------------------------------- #
# the damped sweep
# --------------------------------------------------------------------- #

def _estimate_theta(F, ctx, u_vals, base, base_vals, centers, fixed) -> float:
    """1 / (probed max sensitivity of the residual to the center value off
    the fixed nodes)."""
    delta = 1e-3 * max(1.0, float(np.max(np.abs(u_vals))))
    up_vals = _evaluate_centered(F, ctx, base, centers, u_vals, u_vals + delta)
    slopes = (up_vals - base_vals) / delta
    if fixed is not None:
        slopes[fixed] = 0.0
    slope = float(np.max(np.abs(slopes), initial=1.0))
    return min(1.0, 1.0 / slope)


# a diverging residual overflows on its way to inf, and the non-finite test
# raises DivergenceError with the report, not numpy's overflow warning
@np.errstate(over="ignore", invalid="ignore")
def _sweep(F, ctx, grid, u0, tol, max_iter, fixed, start, krylov):
    """The damped sweep ``u <- u - theta F(u)`` off the fixed nodes, clipped
    into F's r-domain, theta probed at sweep 0 and every ``_THETA_REFRESH``
    sweeps; the report counts the wall time from ``start`` and the caller's
    ``krylov`` iterations."""
    centers = _center_sensitivity(grid)
    u = np.array(u0, dtype=float)
    history = []
    best = math.inf
    theta = 0.0

    def report(iterations, converged):
        return SolveReport(
            iterations, history[-1] if history else math.inf, tol, converged, theta,
            time.perf_counter() - start, np.array(history), "sweep", krylov,
        )

    for it in range(max_iter):
        p, vals = _residual(F, ctx, grid, u, fixed)
        if it % _THETA_REFRESH == 0:
            theta = _estimate_theta(F, ctx, u, p, vals, centers, fixed)
        res = float(np.max(np.abs(vals)))
        history.append(res)
        best = min(best, res)
        if res <= tol:
            return u, report(it, True)
        if not math.isfinite(res) or (
            it > 100 and res > 10.0 * best and res > history[0]
        ):
            raise DivergenceError("residual grew over the monitoring window", report(it, False))
        u -= theta * vals
        np.clip(u, *F.r_domain, out=u)
    return u, report(max_iter, False)


# --------------------------------------------------------------------- #
# the Newton engine
# --------------------------------------------------------------------- #

def _hierarchy(grid: Grid):
    """``(prolongations, restrictions)`` of the V-cycle on ``grid``, finest
    first, down to the first level of at most ``_COARSE_NODES`` nodes; None
    when that level has more than ``_COARSEST_MAX``."""
    chain, size = [], grid.n_nodes
    for prolongation in grid.prolongations():
        if size <= _COARSE_NODES:
            break
        chain.append(prolongation)
        size = prolongation.shape[1]
    if size > _COARSEST_MAX:
        return None
    return chain, [p.T.tocsr() for p in chain]


def _jacobian(grid: Grid, weights: np.ndarray) -> sparse.csr_matrix:
    """J from its ``(9, N)`` weights: row ``k N + i`` of the stencil stack
    goes to row i scaled by ``weights[k, i]``, duplicates summed, plus
    ``weights[8]`` on the diagonal."""
    import scipy.sparse as sparse

    n, n_dirs = grid.n_nodes, len(grid.dirs)
    select = sparse.csr_matrix(
        (weights[:n_dirs].T.ravel(),
         (n * np.arange(n_dirs) + np.arange(n)[:, None]).ravel(),
         n_dirs * np.arange(n + 1)),
        shape=(n, n_dirs * n),
    )
    return select @ grid.stack + sparse.diags(weights[n_dirs], format="csr")


def _jacobian_weights(F, ctx, u, p, vals, h) -> np.ndarray:
    """``(9, N)`` weights of J = dF/du: per node, of its stencil values in
    each direction (rows 0-7) and of its own value (row 8).

    The partial derivatives of F in r and in the five independent proxies
    (the two slots of a01 move together) are forward differences of the
    evaluator: six evaluations besides the base one.
    """
    moved_u = u + _FD_STEP * (1.0 + np.abs(u))
    d_r = (_evaluate(F, ctx, moved_u, p) - vals) / (moved_u - u)
    trial = p.copy()
    partials = []
    for cols in ((0,), (1,), (2,), (3, 4), (5,)):
        col = p[:, cols[0]]
        moved = col + _FD_STEP * (1.0 + np.abs(col))
        for c in cols:
            trial[:, c] = moved
        partials.append((_evaluate(F, ctx, u, trial) - vals) / (moved - col))
        for c in cols:
            trial[:, c] = col
    d_z0, d_z1, d_a00, d_a01, d_a11 = partials
    g0, g1 = d_z0 / (2.0 * h), d_z1 / (2.0 * h)
    c00, c11, c01 = d_a00 / h**2, d_a11 / h**2, 0.5 * d_a01 / h**2
    return np.stack([
        c00 + g0, c00 - g0, c11 + g1, c11 - g1, c01, c01, -c01, -c01,
        d_r - 2.0 * (c00 + c11),
    ])


def _newton_direction(F, ctx, grid, chain, u, p, vals, fixed, target):
    """BiCGSTAB for ``J du = -F(u)``, preconditioned by one V-cycle on J's
    hierarchy: ``(du, iterations, converged)``.  The rows of fixed nodes are
    identity rows, so their update is zero."""
    weights = _jacobian_weights(F, ctx, u, p, vals, grid.h)
    if fixed is not None:
        weights[:-1, fixed] = 0.0
        weights[-1, fixed] = 1.0
    mat = _jacobian(grid, weights)
    du, its, ok = bicgstab(mat, -vals, VCycle(mat, *chain), target, _KRYLOV_CAP)
    if fixed is not None:
        du[fixed] = 0.0
    return du, its, ok


def _newton(F, ctx, grid, u0, tol, max_iter, fixed, start):
    """Newton steps ``u <- u + alpha du``, with ``du`` from
    ``_newton_direction`` and ``alpha`` halved from 1 until the residual falls
    below ``1 - 1e-4 alpha`` times the largest of the last ``_MEMORY`` (a
    nonmonotone line search with sufficient decrease); each trial is clipped
    into F's r-domain.

    Stops unconverged when a Krylov solve misses its tolerance, when
    ``_BACKTRACKS`` halvings find no such residual, at the step cap, or on a
    domain error of the operator; the caller then sweeps.
    """
    chain = _hierarchy(grid)
    u = np.array(u0, dtype=float)
    history, krylov = [], 0

    def residual(v):
        p, vals = _residual(F, ctx, grid, v, fixed)
        return p, vals, float(np.max(np.abs(vals)))

    with np.errstate(all="ignore"):
        try:
            p, vals, res = residual(u)
            history.append(res)
            for _ in range(min(_NEWTON_MAX_STEPS, max_iter) if chain is not None else 0):
                if res <= tol or not math.isfinite(res):
                    break
                target = max(_INNER_FLOOR * tol, _INNER_FRACTION * float(np.linalg.norm(vals)))
                du, its, ok = _newton_direction(F, ctx, grid, chain, u, p, vals, fixed, target)
                krylov += its
                if not ok:
                    break
                reference, alpha = max(history[-_MEMORY:]), 1.0
                for _ in range(_BACKTRACKS + 1):
                    trial = np.clip(u + alpha * du, *F.r_domain)
                    p, vals, res = residual(trial)
                    # NaN compares False, so a non-finite residual backtracks
                    if res < (1.0 - 1e-4 * alpha) * reference:
                        break
                    alpha *= 0.5
                else:
                    break
                u = trial
                history.append(res)
        except (PreconditionError, np.linalg.LinAlgError):
            pass
    report = SolveReport(
        len(history) - 1 if history else 0, history[-1] if history else math.inf, tol,
        bool(history) and history[-1] <= tol, 0.0, time.perf_counter() - start,
        np.array(history), "newton", krylov,
    )
    return u, report


def _run_iteration(
    F: OperatorSpec,
    grid: Grid,
    u0: np.ndarray,
    tol: float,
    max_iter: int,
    fixed: np.ndarray | None = None,
):
    """Solve ``F(u) = 0`` off the fixed nodes (on every node by default):
    Newton steps, or the damped sweep from ``u0`` where they are not taken or
    fail."""
    if fixed is not None and fixed.all():
        return np.array(u0, dtype=float), SolveReport(
            0, 0.0, tol, True, 0.0, 0.0, np.zeros(0), "newton")
    start = time.perf_counter()
    ctx = F.make_context(grid.coords)
    u, report = _newton(F, ctx, grid, u0, tol, max_iter, fixed, start)
    if report.converged:
        return u, report
    return _sweep(F, ctx, grid, u0, tol, max_iter, fixed, start, report.krylov_iterations)


def solve_fixed_point(
    G: OperatorSpec,
    grid: Grid,
    u0: GridFunction | None = None,
    tol: float = 1e-8,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[GridFunction, SolveReport]:
    """Solve u + G(x, du, d2u) = 0 by Newton steps, or by the damped sweep
    where they are not taken or fail (see the module docstring).

    Raises :class:`DivergenceError` when the sweep's residual grows
    persistently.
    """
    if not G.degenerate_elliptic:
        raise PreconditionError("solve_fixed_point needs the degenerate_elliptic flag")
    start = GridFunction.constant(grid, 0.0) if u0 is None else u0
    values, report = _run_iteration(sum_of(scalar_term(1.0), G), grid, start.values, tol, max_iter)
    return GridFunction(grid, values), report


def solve_dirichlet(
    F: OperatorSpec,
    grid: Grid,
    boundary_mask: np.ndarray,
    boundary_values: np.ndarray | float,
    u0: GridFunction | None = None,
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
    values, report = _run_iteration(F, grid, u_init, tol, max_iter, fixed=boundary_mask)
    return GridFunction(grid, values), report


# --------------------------------------------------------------------- #
# Perron iteration between a sub- and a supersolution
# --------------------------------------------------------------------- #

@dataclass
class PerronResult(Verdict):
    solution: GridFunction = field(metadata=UNWRITTEN)
    sweeps: int  # outer steps, Newton steps included; the converged check counts
    final_residual: float
    min_increment: float
    ordering_ok: bool
    converged: bool
    newton_steps: int = 0  # certified Newton steps among the sweeps


def _nodewise_solve(F, ctx, w, base, centers, f0, tol):
    """Per node, the value t making the residual vanish with neighbors at w
    (up to four Newton steps, stopping once every node residual is at most
    ``_NEWTON_STOP * tol``).

    ``base`` holds the proxies of w and ``f0`` the residual there; a trial
    center value t has the proxies ``base + (t - w) centers``.  The first
    step is a secant over a unit step, which solves a node equation affine
    in the center value to roundoff, so such operators take one step.
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
        # NaN compares False here, so a non-finite residual never stops it
        if np.max(np.abs(f0)) <= _NEWTON_STOP * tol:
            break
        dt = 1e-6
    return t


def _certified_newton_step(F, ctx, grid, chain, w, p, vals, upper, tol):
    """One Newton step of the whole grid from the iterate w, clamped into
    ``[w, upper]``: ``(candidate, its proxies, its residual)`` when every
    node residual of the candidate is at most ``tol`` (it is still a
    discrete subsolution), None when it is not, when the Krylov solve misses
    its target or when the operator refuses an evaluation."""
    with np.errstate(all="ignore"):
        try:
            du, _, ok = _newton_direction(
                F, ctx, grid, chain, w, p, vals, None, _INNER_FLOOR * tol)
            if not ok:
                return None
            candidate = np.minimum(upper, np.maximum(w, w + du))
            cp, cvals = _residual(F, ctx, grid, candidate)
        except (PreconditionError, np.linalg.LinAlgError):
            return None
    # NaN compares False, so a non-finite residual refuses the candidate
    if not np.max(cvals) <= tol:
        return None
    return candidate, cp, cvals


def perron_iterate(
    F: OperatorSpec,
    grid: Grid,
    usub: GridFunction,
    usuper: GridFunction,
    sweeps: int = DEFAULT_MAX_ITER,
    tol: float = 1e-8,
) -> PerronResult:
    """Monotone steps from a discrete subsolution toward the solution.

    Each step first tries a certified Newton step: ``du`` from ``J du =
    -F(w)`` (the fixed-point engine's direction on its hierarchy, solved
    until the linear residual's 2-norm is at most ``0.1 tol``), the candidate
    ``w + du`` clamped into [w, supersolution], kept only if every node
    residual there is at most ``tol``.  The first refusal
    (the certificate misses, the Krylov solve misses, the grid has no
    hierarchy, or the operator refuses an evaluation) hands the rest of the
    call to the nodewise sweep, which replaces every node value by the root
    of the node residual with neighbors frozen (clamped into [current,
    supersolution]).  Either way the iterates increase and stay ordered, and
    a refusal at the first step leaves the sweep exactly as it runs alone.
    Certification of the inputs uses the residual evaluator with thresholds
    +-h.
    """
    if np.any(usub.values > usuper.values + 1e-12):
        raise PreconditionError("subsolution must not exceed the supersolution")
    ctx = F.make_context(grid.coords)
    if float(np.max(_residual(F, ctx, grid, usub.values)[1])) > grid.h:
        raise PreconditionError("usub is not a discrete subsolution (residual > h)")
    if float(np.min(_residual(F, ctx, grid, usuper.values)[1])) < -grid.h:
        raise PreconditionError("usuper is not a discrete supersolution (residual < -h)")

    centers = _center_sensitivity(grid)
    chain = _hierarchy(grid)
    w = np.array(usub.values)
    ordering_ok = True
    min_increment = math.inf
    final_res = math.inf
    converged = False
    sweeps_done = newton_steps = 0
    step = None  # the last accepted Newton step: its candidate, proxies, residual
    for sweeps_done in range(1, sweeps + 1):
        p, vals = _residual(F, ctx, grid, w) if step is None else step[1:]
        final_res = float(np.max(np.abs(vals)))
        if final_res <= tol:
            converged = True
            break
        if chain is not None:
            step = _certified_newton_step(F, ctx, grid, chain, w, p, vals, usuper.values, tol)
        if step is None:
            chain = None  # the sweep takes the rest of the call
            t = _nodewise_solve(F, ctx, w, p, centers, vals, tol)
            w_new = np.minimum(usuper.values, np.maximum(w, t))
        else:
            w_new = step[0]
            newton_steps += 1
        increment = w_new - w
        min_increment = min(min_increment, float(np.min(increment)))
        if np.any(w_new > usuper.values + 1e-12) or np.any(increment < -1e-12):
            ordering_ok = False
        w = w_new
    return PerronResult(
        GridFunction(grid, w), sweeps_done, final_res, min_increment,
        ordering_ok, converged, newton_steps,
    )


# --------------------------------------------------------------------- #
# viscosity-residual verification via local quadratic fits
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ViscosityReport(Verdict):
    max_sub_violation: float
    max_super_violation: float
    sub_witness: int
    super_witness: int
    threshold: float
    passed: bool


def verify_viscosity_residual(F: OperatorSpec, grid: Grid, u: GridFunction) -> ViscosityReport:
    """Fit local quadratics over the stencil and evaluate F on the jets.

    The fit ignores the center value and samples two rings (steps h and
    h/2; one ring alone cannot separate the constant from the Hessian
    trace).  Shifting the fitted Hessian up (down) by the fit misfit
    produces a candidate test function touching from above (below).
    Sub/supersolution violations are positive parts of F there; the pass
    threshold is ``_VISCOSITY_PASS_FACTOR`` times the stencil step h (10 h).
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
    ctx = F.make_context(grid.coords)
    eye_shift = shift[:, None, None] * np.eye(2)
    up_vals = F.eval_batch(ctx, u.values, zetas, amats + eye_shift)
    down_vals = F.eval_batch(ctx, u.values, zetas, amats - eye_shift)
    sub_violation = np.maximum(up_vals, 0.0)
    super_violation = np.maximum(-down_vals, 0.0)
    threshold = _VISCOSITY_PASS_FACTOR * h
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
    s_vals = s_parsed.values(grid.coords)
    if np.any(s_vals <= 0.0):
        raise PreconditionError("the scalar-curvature coefficient must be positive")
    if s_prime > 0.0:
        raise PreconditionError("the target curvature parameter must be <= 0")
    F = yamabe(n, s_parsed, s_prime)
    start = GridFunction.constant(grid, 1.0) if u0 is None else u0
    if np.any(start.values < 0.0):
        raise PreconditionError("initial iterate must be nonnegative")
    values, report = _run_iteration(F, grid, start.values, tol, max_iter)
    return GridFunction(grid, values), report
