"""Second-order jets, their exp-chart transfer, and comparison diagnostics.

A jet ``(zeta, A)`` is tested for sub/superjet membership by sampling the
Taylor defect ``f(exp_x v) - f(x) - <zeta, v> - 1/2 <A v, v>`` on spheres
of shrinking radius.  A jet of f at x has the value f(x): a value off it
by more than ``VALUE_TOL`` (relative to ``max(1, |f(x)|)``), or NaN, is
rejected first, with minus the value gap as the margin.  ACCEPT means no
violation was found at the sampled resolution (a NaN sample is a
violation); REJECT carries a concrete witness direction.  These are
testing verdicts, not certificates: the membership question is only
semidecidable numerically.  Each set of sample points (the jet test's
spheres, a difference stencil) is one ``exp_stack`` call, then one f call
per row; the chart check reads the manifold samples in exp-chart
coordinates, so its two verdicts agree by construction.

The module also houses the block-matrix condition linking candidate
second derivatives (P, Q) to the Hessian of ``(alpha/2) d^2`` (with the
canonical ``epsilon = 1 / (2 (1 + |A|))``), a generator of pairs
satisfying it, transported-order checks ``P <= L_yx Q + slack``, and the
doubling-of-variables diagnostic on grid functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GeometryDomainError, PreconditionError
from .grids import GridFunction
from .jacobi import HessianPair
from .manifolds import (
    Euclidean,
    Manifold,
    Point,
    SymBilinear,
    TangentVector,
    _rowwise_dot,
    operator_norms,
    symmetrized_forms,
)

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_DIRECTIONS = 200
TOL_PER_RADIUS = 10.0
# a jet's value against f(x), relative to max(1, |f(x)|)
VALUE_TOL = 1e-10
# the step of the fourth-order differences: gradients, chart derivatives, d exp
_FD_STEP = 1e-3
# the step of the covariant acceleration's second difference
_ACCEL_STEP = 1e-2
# fourth-order central differences: steps (units of h), weights (over 12 h^order)
_STENCILS = {
    1: (np.array([-2.0, -1.0, 1.0, 2.0]), (1.0, -8.0, 8.0, -1.0)),
    2: (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), (-1.0, 16.0, -30.0, 16.0, -1.0)),
}


@dataclass(frozen=True)
class Jet2:
    """A second-order jet: base point, function value, covector, form."""

    point: Point
    value: float
    zeta: TangentVector
    form: SymBilinear


@dataclass(frozen=True)
class JetVerdict:
    accepted: bool
    margin: float
    witness: TangentVector | None
    radius_table: list[tuple[float, float]]

    @property
    def verdict(self) -> str:
        return "ACCEPT" if self.accepted else "REJECT"


def _difference(order: int, vals, h: float):
    """The order's derivative from ``vals[k]``, the values at the stencil's
    k-th step, summed in step order."""
    weights = _STENCILS[order][1]
    acc = weights[0] * vals[0]
    for w, v in zip(weights[1:], vals[1:]):
        acc = acc + w * v
    return acc / (12.0 * h if order == 1 else 12.0 * h * h)


def _exp_from(m: Manifold, x: Point, steps: np.ndarray) -> np.ndarray:
    """``exp_x`` of every row of a (..., ambient) stack, in one ``exp_stack`` call."""
    rows = steps.reshape(-1, steps.shape[-1])
    return m.exp_stack(np.broadcast_to(x.coords, rows.shape), rows).reshape(steps.shape)


def _chart_values(f, m: Manifold, x: Point, frame: np.ndarray, chart: np.ndarray) -> np.ndarray:
    """f at ``exp_x(c . frame)`` for the (..., dim) chart points c (each step
    rounded as one vector-matrix product), then f once per row."""
    points = _exp_from(m, x, (chart[..., None, :] @ frame)[..., 0, :])
    values = [f(p) for p in Point.rows(points.reshape(-1, points.shape[-1]))]
    return np.array(values, dtype=float).reshape(chart.shape[:-1])


def _jet_samples(f, m: Manifold, x: Point, sign: str, seed: int):
    """``(frame, f(x), dirs, vals)``, ``vals[i, k] = f(exp_x(r_i d_k .
    frame))`` over the radii r_i and the seeded unit directions d_k."""
    if sign not in ("sub", "super"):
        raise ValueError("sign must be 'sub' or 'super'")
    if max(DEFAULT_RADII) >= m.injectivity_radius(x):
        raise GeometryDomainError("sampling radius exceeds the injectivity radius")
    frame = m.canonical_frame(x)
    fx = f(x)
    dirs = np.random.default_rng(seed).standard_normal((DEFAULT_DIRECTIONS, m.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    chart = np.array(DEFAULT_RADII)[:, None, None] * dirs
    return frame, fx, dirs, _chart_values(f, m, x, frame, chart)


def _jet_verdict(m: Manifold, x: Point, jet: Jet2, sign: str, frame, fx, dirs, vals) -> JetVerdict:
    """The jet's verdict on ``_jet_samples``.  A value that is not f(x)
    within ``VALUE_TOL`` REJECTs with margin minus the gap (NaN for a NaN
    value or f(x)) and the zero vector, the sample at x, as its witness.
    Otherwise the first radius with a NaN (else the smallest) margin decides;
    a REJECT's witness is its worst sample."""
    zeta_c = m.frame_components(x, jet.zeta, frame)
    quad = np.einsum("ij,jk,ik->i", dirs, jet.form.matrix, dirs)
    model = np.array([fx + r * dirs @ zeta_c + 0.5 * r * r * quad for r in DEFAULT_RADII])
    radii = np.array(DEFAULT_RADII)
    flip = -1.0 if sign == "super" else 1.0
    ratios = flip * (vals - model) / (radii * radii)[:, None]
    margins = ratios.min(axis=1) + TOL_PER_RADIUS * radii
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    table = list(zip(DEFAULT_RADII, margins.tolist()))
    gap = abs(float(jet.value) - float(fx))
    if not gap <= VALUE_TOL * max(1.0, abs(fx)):
        return JetVerdict(False, -gap, TangentVector(x, np.zeros(frame.shape[1])), table)
    witness = None
    if not margin >= 0.0:
        witness = TangentVector(x, radii[worst] * dirs[int(np.argmin(ratios[worst]))] @ frame)
    return JetVerdict(margin >= 0.0, margin, witness, table)


def quadratic_jet_test(
    f: Callable[[Point], float],
    m: Manifold,
    x: Point,
    jet: Jet2,
    sign: str,
    seed: int = 0,
) -> JetVerdict:
    """One-sided test of the sub/superjet inequality along shrinking radii.

    ``sign='sub'`` checks the defect ratio stays above ``-10 r`` on each
    sampled sphere of radius r in ``DEFAULT_RADII``, ``DEFAULT_DIRECTIONS``
    seeded directions each (superjets reversed).  A REJECT returns the worst
    sampled direction as a witness; a sample where f is NaN is a violation.
    A jet whose value is not f(x) within ``VALUE_TOL`` REJECTs first, with
    minus the value gap as its margin and the zero vector as its witness.
    """
    return _jet_verdict(m, x, jet, sign, *_jet_samples(f, m, x, sign, seed))


@dataclass(frozen=True)
class ChartTransferReport:
    verdict_manifold: JetVerdict
    verdict_chart: JetVerdict
    agree: bool
    fd_gradient: np.ndarray
    fd_hessian: np.ndarray


def chart_transfer_check(
    f: Callable[[Point], float],
    m: Manifold,
    x: Point,
    jet: Jet2,
    sign: str = "sub",
    seed: int = 0,
) -> ChartTransferReport:
    """The jet test on M and on f composed with exp_x at the origin.

    The manifold samples, read in exp-chart coordinates, are the chart
    samples, so one sample set scores the jet on M and its frame components
    on the chart: the verdicts agree by construction (the chart jet keeps
    the value, so a value that is not f(x) REJECTs on both sides alike).
    The report also carries fourth-order differences of the chart
    representative at the origin, from f(x), the steps +-h and +-2h along
    each axis and the corners (+-h, +-h) of each pair of axes.
    """
    frame, fx, dirs, samples = _jet_samples(f, m, x, sign, seed)
    flat = Euclidean(m.dim)
    origin = flat.point(np.zeros(m.dim))
    zeta_c = m.frame_components(x, jet.zeta, frame)
    form = flat.bilinear(origin, jet.form.matrix)
    chart_jet = Jet2(origin, jet.value, flat.tangent(origin, zeta_c), form)
    v_m = _jet_verdict(m, x, jet, sign, frame, fx, dirs, samples)
    flat_frame = flat.canonical_frame(origin)
    v_c = _jet_verdict(flat, origin, chart_jet, sign, flat_frame, fx, dirs, samples)

    n, h = m.dim, _FD_STEP
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    corner = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]) * h
    chart = np.concatenate([(_STENCILS[1][0] * h)[:, None, None] * eye,
                            corner[:, :1, None] * eye[i] + corner[:, 1:, None] * eye[j]], axis=1)
    vals = _chart_values(f, m, x, frame, chart)
    on_axes, c = vals[:, :n], vals[:, n:]
    hess = np.diag(_difference(2, np.insert(on_axes, 2, fx, axis=0), h))
    hess[i, j] = hess[j, i] = (c[0] - c[1] - c[2] + c[3]) / (4 * h * h)
    grad = _difference(1, on_axes, h)
    return ChartTransferReport(v_m, v_c, v_m.accepted == v_c.accepted, grad, hess)


# --------------------------------------------------------------------- #
# chart correction term for transported Hessians
# --------------------------------------------------------------------- #

def fd_gradient(m: Manifold, f, y: Point, frame=None) -> TangentVector:
    """Gradient by fourth-order geodesic central differences."""
    h = _FD_STEP
    if frame is None:
        frame = m.canonical_frame(y)
    vals = _chart_values(f, m, y, frame, (_STENCILS[1][0] * h)[:, None, None] * np.eye(m.dim))
    return TangentVector(y, _difference(1, vals, h) @ frame)


def chart_correction_term(
    m: Manifold,
    phi: Callable[[Point], float],
    x: Point,
    y: Point,
    vector_field: Callable[[Point], TangentVector],
) -> float:
    """Defect between the chart Hessian of phi o exp_x and the Hessian of phi.

    Returns ``<grad phi(y), sigma''(0)>`` where ``sigma(t) = exp_x(w_y +
    t V~(w_y))``, ``w_y = exp_x^{-1}(y)`` and ``V~`` is the pullback of the
    field through d(exp_x).  The value vanishes when y = x (sigma is then a
    geodesic) and identically on flat models (exp is affine).
    """
    if m.distance(x, y) >= m.injectivity_radius(x):
        raise GeometryDomainError("y lies outside the exp chart at x")
    w = m.log(x, y).components
    frame_x = m.canonical_frame(x)
    frame_y = m.canonical_frame(y)
    vy = vector_field(y)
    m._check_based(y, vy)
    # d(exp_x)(w) of each frame vector at x, in the frame at y
    h = _FD_STEP
    moved = _difference(1, _exp_from(m, x, w + (_STENCILS[1][0] * h)[:, None, None] * frame_x), h)
    ys = np.broadcast_to(y.coords, moved.shape)
    dexp = m.components(m.project_tangent_stack(ys, moved), frame_y).T
    v_tilde = np.linalg.solve(dexp, m.components(vy.components, frame_y)) @ frame_x
    # the covariant acceleration of sigma at 0, sigma passing through y there
    sigma = _exp_from(m, x, w + (_STENCILS[2][0] * _ACCEL_STEP)[:, None] * v_tilde)
    accel = m.project_tangent(y, _difference(2, sigma, _ACCEL_STEP))
    grad = fd_gradient(m, phi, y, frame_y)
    return m.ambient_inner(y, grad.components, accel)


# --------------------------------------------------------------------- #
# block-matrix condition on (P, Q)
# --------------------------------------------------------------------- #

def canonical_epsilons(a_mats: np.ndarray) -> np.ndarray:
    """``1 / (2 (1 + |A|))`` for each of an (..., 2n, 2n) stack of Hessian
    matrices A."""
    return 1.0 / (2.0 * (1.0 + operator_norms(a_mats)))


def canonical_epsilon(a_alpha: HessianPair) -> float:
    """``canonical_epsilons`` of the one pair's matrix."""
    return float(canonical_epsilons(a_alpha.matrix))


@dataclass(frozen=True)
class StarCondition:
    """Data of the two-sided block inequality tying (P, Q) to A_alpha."""

    a_alpha: HessianPair
    epsilon: float
    p: SymBilinear
    q: SymBilinear

    @classmethod
    def canonical(cls, a_alpha: HessianPair, p: SymBilinear, q: SymBilinear):
        return cls(a_alpha, canonical_epsilon(a_alpha), p, q)


_STAR_TOL = 1e-10


def _star_margins(b: np.ndarray, reach, p_mats, q_mats):
    """Smallest eigenvalues of ``diag(P, -Q) + reach I`` and of ``B -
    diag(P, -Q)`` for every pair of two (..., n, n) stacks of forms, all in
    one ``eigvalsh`` call; ``B = A + eps A^2`` and ``reach = 1/eps + |A|``
    broadcast against the forms' leading axes."""
    count, n = p_mats.shape[0], p_mats.shape[-1]
    blocks = np.zeros((*p_mats.shape[:-2], 2 * n, 2 * n))
    blocks[..., :n, :n] = p_mats
    blocks[..., n:, n:] = -q_mats
    lower = blocks + np.asarray(reach, dtype=float)[..., None, None] * np.eye(2 * n)
    upper = b - blocks
    margins = np.linalg.eigvalsh(np.concatenate([lower, upper])).min(axis=-1)
    return margins[:count], margins[count:]


def verify_condition_star(sc: StarCondition, tol: float = _STAR_TOL):
    """Check -(1/eps + |A|) I <= diag(P, -Q) <= A + eps A^2 by eigenvalues.

    Returns ``(ok, lower_margin, upper_margin)`` where the margins are the
    smallest eigenvalues of the two difference matrices.
    """
    n = sc.a_alpha.dim
    if sc.p.matrix.shape != (n, n) or sc.q.matrix.shape != (n, n):
        raise PreconditionError("P, Q dimensions must match the Hessian blocks")
    a = sc.a_alpha.matrix
    lower, upper = _star_margins(
        a + sc.epsilon * (a @ a), 1.0 / sc.epsilon + sc.a_alpha.operator_norm(),
        sc.p.matrix[None], sc.q.matrix[None],
    )
    lower_margin, upper_margin = float(lower[0]), float(upper[0])
    return (lower_margin >= -tol and upper_margin >= -tol, lower_margin, upper_margin)


def star_candidates_stack(
    a_mats: np.ndarray, epsilons: np.ndarray, uniforms: np.ndarray, slack_scale: float = 1.0
):
    """``(P, Q, kept)``: star candidates for N Hessians at once.

    ``a_mats`` is an (N, 2n, 2n) stack of Hessian matrices A, ``epsilons``
    their N epsilons and ``uniforms`` (N, K) draws in [0, 1), K per pair.
    With ``B = A + eps A^2`` candidate k of pair i is ``P = B_11 - s I``,
    ``Q = s I - B_22`` with shift ``s = 2 |B_12| + slack_scale u_ik (1 +
    |A|)``, so that ``B - diag(P, -Q) = [[s I, B_12], [B_21, s I]]`` meets
    the upper bound whenever s dominates the off-diagonal block.  ``kept``
    (N, K) marks the candidates that meet the block condition, its lower
    bound ``-(1/eps + |A|)`` included, tested as ``verify_condition_star``
    tests one pair.  P and Q are (N, K, n, n), and exactly symmetric for an
    exactly symmetric A: so is ``A + eps A^2``, and a shift touches only the
    diagonal.
    """
    a_mats = np.asarray(a_mats, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    n = a_mats.shape[-1] // 2
    b = a_mats + epsilons[:, None, None] * (a_mats @ a_mats)
    b11, b12, b22 = b[:, :n, :n], b[:, :n, n:], b[:, n:, n:]
    s_base = 2.0 * np.linalg.norm(b12, 2, axis=(-2, -1))
    norm_a = operator_norms(a_mats)
    shifts = (s_base[:, None] + slack_scale * np.asarray(uniforms, dtype=float)
              * (1.0 + norm_a)[:, None])[..., None, None] * np.eye(n)
    p_mats, q_mats = b11[:, None] - shifts, -(b22[:, None] - shifts)
    lower, upper = _star_margins(b[:, None], (1.0 / epsilons + norm_a)[:, None], p_mats, q_mats)
    return p_mats, q_mats, (lower >= -_STAR_TOL) & (upper >= -_STAR_TOL)


def generate_star_candidates(
    a_alpha: HessianPair,
    epsilon: float,
    n_candidates: int,
    seed: int = 0,
    slack_scale: float = 1.0,
):
    """Sample (P, Q) pairs satisfying the block condition by construction.

    The one-pair case of ``star_candidates_stack``, with the shifts' uniforms
    from one ``default_rng(seed)`` call: the kept candidates as
    ``SymBilinear`` pairs at x and y, bit for bit a per-candidate loop;
    ``PreconditionError`` unless ``n_candidates >= 0``.
    """
    if n_candidates < 0:
        raise PreconditionError(f"star candidates need n_candidates >= 0, got {n_candidates}")
    uniforms = np.random.default_rng(seed).uniform(0.0, 1.0, n_candidates)
    p_mats, q_mats, kept = star_candidates_stack(
        a_alpha.matrix[None], np.array([epsilon]), uniforms[None], slack_scale)
    return [
        (SymBilinear.of_symmetrized(a_alpha.x, p_mats[0, i]),
         SymBilinear.of_symmetrized(a_alpha.y, q_mats[0, i]))
        for i in np.flatnonzero(kept[0])
    ]


def order_margins(backs: np.ndarray, p_mats: np.ndarray, q_mats: np.ndarray, slack_rhs=0.0):
    """Smallest eigenvalue of ``L(Q) + slack I - P`` for every pair of two
    (k, n, n) stacks of forms, ``L(Q) = T Q T^T`` with ``T`` the transport
    matrix ``backs`` (one for all pairs, or one per pair) and the slack one
    number or one per pair.  The moved Q are checked and symmetrized as
    ``SymBilinear`` would (``ValueError`` unless symmetric), and one stacked
    ``eigvalsh`` gives the margins."""
    moved = symmetrized_forms(backs @ q_mats @ backs.swapaxes(-1, -2))
    slack = np.multiply.outer(slack_rhs, np.eye(p_mats.shape[-1]))
    return np.linalg.eigvalsh(moved + slack - p_mats).min(axis=-1)


def transported_order_margins(
    m: Manifold,
    x: Point,
    y: Point,
    p_mats: np.ndarray,
    q_mats: np.ndarray,
    slack_rhs: float = 0.0,
) -> np.ndarray:
    """Smallest eigenvalue of ``L_yx(Q) + slack I - P`` for every pair of two
    (k, n, n) stacks: forms P in the canonical frame at x, Q at y.

    The frame at x is transported to y once for all k pairs, and
    ``order_margins`` moves the Q and takes the margins.
    """
    return order_margins(
        m.transport_matrix(x, y), p_mats, np.asarray(q_mats, dtype=float), slack_rhs)


def check_P_leq_LQ(
    m: Manifold,
    x: Point,
    y: Point,
    p: SymBilinear,
    q: SymBilinear,
    slack_rhs: float = 0.0,
    tol: float = 1e-9,
):
    """Check P <= L_yx(Q) + slack I; returns (ok, smallest eigenvalue margin).

    The one-pair case of ``transported_order_margins``."""
    m._check_based(y, q)
    margins = transported_order_margins(m, x, y, p.matrix[None], q.matrix[None], slack_rhs)
    margin = float(margins[0])
    return margin >= -tol, margin


# --------------------------------------------------------------------- #
# doubling of variables on a grid
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class DoublingRecord:
    alpha: float
    m_alpha: float
    x_idx: int
    y_idx: int
    distance: float
    alpha_d_sq: float


@dataclass(frozen=True)
class DoublingTrace:
    records: list[DoublingRecord]

    def final(self) -> DoublingRecord:
        return self.records[-1]


def doubling_diagnostic(
    m: Manifold, u: GridFunction, v: GridFunction, alphas: Sequence[float]
) -> DoublingTrace:
    """Exact grid maximization of u(x) - v(y) - (alpha/2) d(x, y)^2 per alpha.

    The diagonal (d = 0 exactly) attains ``L = max(u - v)`` at every alpha,
    so only pairs whose objective reaches L can maximize.  Against the
    smallest alpha, row i reaches L only within ``d^2 <= 2 (u_i - min v -
    L) / alpha_1`` (plus a rounding slack); ``Grid.distances_within`` keeps
    those pairs block by block, with their exact distances.  Per alpha the
    objective is computed as on the full matrix and the pairs below L are
    dropped for the larger alphas (the objective only falls as alpha
    grows).  Survivors stay in row-major order, and a later block replaces
    the running maximum only when strictly greater, so ties resolve to the
    first maximizer in row-major order, as an argmax over the full matrix
    would.
    """
    grid = u.grid
    if grid is not v.grid:
        raise PreconditionError("u and v must live on the same grid")
    if m is not grid.model:
        raise PreconditionError("m must be the model the grid was built on")
    if grid.n_nodes == 0:
        raise PreconditionError("empty grid")
    alphas = [float(a) for a in alphas]
    if not all(math.isfinite(a) for a in alphas):
        raise PreconditionError(f"alphas must be finite, got {alphas}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise PreconditionError("alphas must be increasing")
    if not alphas:
        return DoublingTrace([])
    floor = float(np.max(u.values - v.values))
    if alphas[0] > 0.0:
        # u_i - v_j <= u_i - min v, and (alpha_1 / 2) d^2 may take only what
        # that leaves above L; the slack covers the rounding of the objective
        # and of this budget
        top = u.values - float(np.min(v.values))
        budget = (top - floor) + 1e-12 * (np.abs(top) + abs(floor))
        reach = np.sqrt(np.maximum(budget, 0.0) / (0.5 * alphas[0]))
        reach[budget < 0.0] = -1.0
    else:  # no penalty at the smallest alpha, or a reward for distance
        reach = np.full(grid.n_nodes, np.inf)
    best = [(-math.inf, 0, 0, 0.0)] * len(alphas)  # (objective, i, j, d) per alpha
    for start, stop in grid.row_blocks():
        i, j, d = grid.distances_within(start, stop, reach[start:stop])
        penalty = d * d
        gap = u.values[i] - v.values[j]
        for k, alpha in enumerate(alphas):
            if not gap.size:
                break
            objective = gap - np.multiply(0.5 * alpha, penalty)
            t = int(np.argmax(objective))
            if objective[t] > best[k][0]:
                best[k] = (float(objective[t]), int(i[t]), int(j[t]), float(d[t]))
            keep = objective >= floor
            if not keep.all():
                i, j, d, penalty, gap = i[keep], j[keep], d[keep], penalty[keep], gap[keep]
    records = [
        DoublingRecord(alpha, obj, i, j, dist, alpha * dist * dist)
        for alpha, (obj, i, j, dist) in zip(alphas, best)
    ]
    return DoublingTrace(records)


# --------------------------------------------------------------------- #
# jet convergence in the vector-field pairing sense
# --------------------------------------------------------------------- #

def _pairings(comps: np.ndarray, zeta: np.ndarray, form: np.ndarray):
    """``<zeta, c>`` and ``c^T A c`` for each row c of ``comps``, each
    rounded as ``np.dot`` and ``c @ A @ c`` of that row."""
    return _rowwise_dot(comps, zeta), _rowwise_dot((comps[:, None] @ form)[:, 0], comps)


# jet_limit_check's tolerance for a jet based at distance d from the limit's
# point is _JET_ATOL + _JET_RATE d
_JET_ATOL = 1e-8
_JET_RATE = 2.0


def jet_limit_check(m: Manifold, jets: Sequence[Jet2], limit: Jet2) -> bool:
    """Test convergence of jets against a candidate limit jet.

    Pairings are taken against a fixed spanning family of transported
    frame fields.  The tolerance for the n-th element is ``_JET_ATOL +
    _JET_RATE * d(x_n, x)`` (1e-8 + 2 d): pairings must converge at least
    linearly in the base distance; a NaN value or pairing fails.  REJECT
    verdicts are advisory; a finite family cannot certify divergence in
    every pathological case.
    """
    x = limit.point
    frame = m.canonical_frame(x)
    i, j = np.triu_indices(m.dim, 1)
    fields = np.concatenate([frame, (frame[i] + frame[j]) / math.sqrt(2.0)])
    ref_zeta, ref_form = _pairings(
        m.components(fields, frame), m.frame_components(x, limit.zeta, frame), limit.form.matrix
    )

    for jet in jets:
        xn = jet.point
        tol = _JET_ATOL + _JET_RATE * m.distance(xn, x)
        if not abs(jet.value - limit.value) <= tol:
            return False
        frame_n = m.canonical_frame(xn)
        pair_zeta, pair_form = _pairings(
            m.components(m.transport_rows(x, xn, fields), frame_n),
            m.frame_components(xn, jet.zeta, frame_n),
            jet.form.matrix,
        )
        if not (np.all(abs(pair_zeta - ref_zeta) <= tol)
                and np.all(abs(pair_form - ref_form) <= tol)):
            return False
    return True
