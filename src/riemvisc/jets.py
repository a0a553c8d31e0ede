"""Second-order jets, their exp-chart transfer, and comparison diagnostics.

A jet ``(zeta, A)`` is tested for sub/superjet membership by sampling the
Taylor defect ``f(exp_x v) - f(x) - <zeta, v> - 1/2 <A v, v>`` on spheres
of shrinking radius.  ACCEPT means no violation was found at the sampled
resolution; REJECT carries a concrete witness direction.  These are
testing verdicts, not certificates: the membership question is only
semidecidable numerically.

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
    symmetrized_forms,
)

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_DIRECTIONS = 200
TOL_PER_RADIUS = 10.0
# the step of the fourth-order differences: gradients, chart derivatives, d exp
_FD_STEP = 1e-3


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


def _direction_set(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


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
    sampled direction as a witness.
    """
    if sign not in ("sub", "super"):
        raise ValueError("sign must be 'sub' or 'super'")
    if max(DEFAULT_RADII) >= m.injectivity_radius(x):
        raise GeometryDomainError("sampling radius exceeds the injectivity radius")
    frame = m.canonical_frame(x)
    zeta_c = m.frame_components(x, jet.zeta, frame)
    a_mat = jet.form.matrix
    fx = f(x)
    dirs = _direction_set(m.dim, DEFAULT_DIRECTIONS, seed)
    flip = -1.0 if sign == "super" else 1.0

    table = []
    worst = math.inf
    witness = None
    for r in DEFAULT_RADII:
        model_vals = fx + r * dirs @ zeta_c + 0.5 * r * r * np.einsum(
            "ij,jk,ik->i", dirs, a_mat, dirs
        )
        samples = np.array(
            [f(m.exp(x, TangentVector(x, r * d @ frame))) for d in dirs]
        )
        ratios = flip * (samples - model_vals) / (r * r)
        tol = TOL_PER_RADIUS * r
        margin = float(np.min(ratios) + tol)
        table.append((r, margin))
        if margin < worst:
            worst = margin
            if margin < 0.0:
                witness = TangentVector(x, r * dirs[int(np.argmin(ratios))] @ frame)
    return JetVerdict(worst >= 0.0, worst, witness, table)


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
    """Run the jet test on M and on f composed with exp_x at the origin.

    The same seeded sample set is used on both sides, so the verdicts must
    coincide; the report also carries finite-difference first and second
    derivatives of the chart representative at the origin.
    """
    frame = m.canonical_frame(x)
    flat = Euclidean(m.dim)
    origin = flat.point(np.zeros(m.dim))

    def f_chart(p: Point) -> float:
        return f(m.exp(x, TangentVector(x, p.coords @ frame)))

    chart_jet = Jet2(
        origin,
        jet.value,
        flat.tangent(origin, m.frame_components(x, jet.zeta, frame)),
        flat.bilinear(origin, jet.form.matrix),
    )
    v_m = quadratic_jet_test(f, m, x, jet, sign, seed)
    v_c = quadratic_jet_test(f_chart, flat, origin, chart_jet, sign, seed)

    n = m.dim
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    h = _FD_STEP

    def g(c):
        return f_chart(flat.point(c))

    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad[i] = (-g(2 * e) + 8 * g(e) - 8 * g(-e) + g(-2 * e)) / (12 * h)
        hess[i, i] = (-g(2 * e) + 16 * g(e) - 30 * g(0 * e) + 16 * g(-e) - g(-2 * e)) / (
            12 * h * h
        )
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = h
            q = np.zeros(n)
            q[j] = h
            mixed = (
                g(e + q) - g(e - q) - g(-e + q) + g(-e - q)
            ) / (4 * h * h)
            hess[i, j] = hess[j, i] = mixed
    return ChartTransferReport(v_m, v_c, v_m.accepted == v_c.accepted, grad, hess)


# --------------------------------------------------------------------- #
# chart correction term for transported Hessians
# --------------------------------------------------------------------- #

def _dexp_matrix(m: Manifold, x: Point, w: np.ndarray, frame_x, frame_y, y: Point):
    """Matrix of d(exp_x)(w) from the frame at x to the frame at y."""
    n, h = m.dim, _FD_STEP
    cols = np.empty((n, n))
    for k in range(n):
        e = frame_x[k]
        pts = [
            m.exp(x, TangentVector(x, w + s * h * e)).coords
            for s in (-2.0, -1.0, 1.0, 2.0)
        ]
        deriv = (pts[0] - 8.0 * pts[1] + 8.0 * pts[2] - pts[3]) / (12.0 * h)
        cols[:, k] = m.components(m.project_tangent(y, deriv), frame_y)
    return cols


def _covariant_acceleration(m: Manifold, curve, y: Point, h=1e-2) -> np.ndarray:
    """Projected fourth-order second difference of an ambient curve at 0."""
    c = [curve(s * h) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    second = (-c[0] + 16.0 * c[1] - 30.0 * c[2] + 16.0 * c[3] - c[4]) / (12.0 * h * h)
    return m.project_tangent(y, second)


def fd_gradient(m: Manifold, f, y: Point, frame=None) -> TangentVector:
    """Gradient by fourth-order geodesic central differences."""
    h = _FD_STEP
    if frame is None:
        frame = m.canonical_frame(y)
    comps = np.empty(m.dim)
    for i, e in enumerate(frame):
        vals = [
            f(m.exp(y, TangentVector(y, s * h * e))) for s in (-2.0, -1.0, 1.0, 2.0)
        ]
        comps[i] = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    return TangentVector(y, comps @ frame)


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
    dexp = _dexp_matrix(m, x, w, frame_x, frame_y, y)
    v_pullback = np.linalg.solve(dexp, m.components(vy.components, frame_y))
    v_tilde = v_pullback @ frame_x

    def sigma(t):
        return m.exp(x, TangentVector(x, w + t * v_tilde)).coords

    accel = _covariant_acceleration(m, sigma, y)
    grad = fd_gradient(m, phi, y, frame_y)
    return m.ambient_inner(y, grad.components, accel)


# --------------------------------------------------------------------- #
# block-matrix condition on (P, Q)
# --------------------------------------------------------------------- #

def canonical_epsilon(a_alpha: HessianPair) -> float:
    return 1.0 / (2.0 * (1.0 + a_alpha.operator_norm()))


def _operator_norms(a_mats: np.ndarray) -> np.ndarray:
    """``HessianPair.operator_norm`` of each of an (N, m, m) stack of matrices."""
    return np.max(np.abs(np.linalg.eigvalsh(a_mats)), axis=-1, initial=0.0)


def canonical_epsilons(a_mats: np.ndarray) -> np.ndarray:
    """``canonical_epsilon`` of each of an (N, 2n, 2n) stack of Hessian
    matrices, bit for bit."""
    return 1.0 / (2.0 * (1.0 + _operator_norms(a_mats)))


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
    norm_a = _operator_norms(a_mats)
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
    linearly in the base distance.  REJECT verdicts are advisory; a finite
    family cannot certify divergence in every pathological case.
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
        if abs(jet.value - limit.value) > tol:
            return False
        frame_n = m.canonical_frame(xn)
        pair_zeta, pair_form = _pairings(
            m.components(m.transport_rows(x, xn, fields), frame_n),
            m.frame_components(xn, jet.zeta, frame_n),
            jet.form.matrix,
        )
        if np.any(abs(pair_zeta - ref_zeta) > tol) or np.any(abs(pair_form - ref_form) > tol):
            return False
    return True
