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

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GeometryDomainError, PreconditionError
from .grids import GridFunction
from .jacobi import HessianPair
from .manifolds import Euclidean, Manifold, Point, SymBilinear, TangentVector

DEFAULT_RADII = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_DIRECTIONS = 200
TOL_PER_RADIUS = 10.0


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
    radii: Sequence[float] = DEFAULT_RADII,
    n_directions: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
) -> JetVerdict:
    """One-sided test of the sub/superjet inequality along shrinking radii.

    ``sign='sub'`` checks the defect ratio stays above ``-10 r`` on each
    sampled sphere of radius r (superjets reversed).  A REJECT returns the
    worst sampled direction as a witness.
    """
    if sign not in ("sub", "super"):
        raise ValueError("sign must be 'sub' or 'super'")
    if max(radii) >= m.injectivity_radius(x):
        raise GeometryDomainError("sampling radius exceeds the injectivity radius")
    frame = m.canonical_frame(x)
    zeta_c = m.frame_components(x, jet.zeta, frame)
    a_mat = jet.form.matrix
    fx = f(x)
    dirs = _direction_set(m.dim, n_directions, seed)
    flip = -1.0 if sign == "super" else 1.0

    table = []
    worst = math.inf
    witness = None
    for r in radii:
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
    radii: Sequence[float] = DEFAULT_RADII,
    n_directions: int = DEFAULT_DIRECTIONS,
    seed: int = 0,
    fd_step: float = 1e-3,
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
    v_m = quadratic_jet_test(f, m, x, jet, sign, radii, n_directions, seed)
    v_c = quadratic_jet_test(f_chart, flat, origin, chart_jet, sign, radii, n_directions, seed)

    n = m.dim
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    h = fd_step

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

def _dexp_matrix(m: Manifold, x: Point, w: np.ndarray, frame_x, frame_y, y: Point, h=1e-3):
    """Matrix of d(exp_x)(w) from the frame at x to the frame at y."""
    n = m.dim
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


def fd_gradient(m: Manifold, f, y: Point, frame=None, h: float = 1e-3) -> TangentVector:
    """Gradient by fourth-order geodesic central differences."""
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


def verify_condition_star(sc: StarCondition, tol: float = 1e-10):
    """Check -(1/eps + |A|) I <= diag(P, -Q) <= A + eps A^2 by eigenvalues.

    Returns ``(ok, lower_margin, upper_margin)`` where the margins are the
    smallest eigenvalues of the two difference matrices.
    """
    n = sc.a_alpha.dim
    if sc.p.matrix.shape != (n, n) or sc.q.matrix.shape != (n, n):
        raise PreconditionError("P, Q dimensions must match the Hessian blocks")
    a = sc.a_alpha.matrix
    norm_a = sc.a_alpha.operator_norm()
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = sc.p.matrix
    block[n:, n:] = -sc.q.matrix
    lower = block + (1.0 / sc.epsilon + norm_a) * np.eye(2 * n)
    upper = a + sc.epsilon * (a @ a) - block
    lower_margin = float(np.min(np.linalg.eigvalsh(lower)))
    upper_margin = float(np.min(np.linalg.eigvalsh(upper)))
    return (lower_margin >= -tol and upper_margin >= -tol, lower_margin, upper_margin)


def generate_star_candidates(
    a_alpha: HessianPair,
    epsilon: float,
    n_candidates: int,
    seed: int = 0,
    slack_scale: float = 1.0,
):
    """Sample (P, Q) pairs satisfying the block condition by construction.

    With ``B = A + eps A^2`` the pair ``P = B_11 - s I``, ``Q = s I - B_22``
    (so that ``B - diag(P, -Q) = [[s I, B_12], [B_21, s I]]``) satisfies the
    upper bound whenever the shift s dominates the off-diagonal block of B;
    shifts that would break the lower bound are skipped.
    """
    rng = np.random.default_rng(seed)
    n = a_alpha.dim
    a = a_alpha.matrix
    b = a + epsilon * (a @ a)
    b11, b12, b22 = b[:n, :n], b[:n, n:], b[n:, n:]
    s_base = 2.0 * float(np.linalg.norm(b12, 2))
    norm_a = a_alpha.operator_norm()
    floor = -(1.0 / epsilon + norm_a)
    out = []
    for _ in range(n_candidates):
        s = s_base + slack_scale * rng.uniform(0.0, 1.0) * (1.0 + norm_a)
        p_mat = b11 - s * np.eye(n)
        neg_q_mat = b22 - s * np.eye(n)
        low = min(
            float(np.min(np.linalg.eigvalsh(p_mat))),
            float(np.min(np.linalg.eigvalsh(neg_q_mat))),
        )
        if low < floor:
            continue  # infeasible shift
        p = SymBilinear(a_alpha.x, p_mat)
        q = SymBilinear(a_alpha.y, -neg_q_mat)
        ok, _, _ = verify_condition_star(StarCondition(a_alpha, epsilon, p, q))
        if ok:
            out.append((p, q))
    return out


def check_P_leq_LQ(
    m: Manifold,
    x: Point,
    y: Point,
    p: SymBilinear,
    q: SymBilinear,
    slack_rhs: float = 0.0,
    tol: float = 1e-9,
):
    """Check P <= L_yx(Q) + slack I; returns (ok, smallest eigenvalue margin)."""
    moved = m.parallel_transport_bilinear(y, x, q)
    margin = float(
        np.min(np.linalg.eigvalsh(moved.matrix + slack_rhs * np.eye(m.dim) - p.matrix))
    )
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["alpha", "m_alpha", "d", "alpha_d_sq", "x_idx", "y_idx"])
        for r in self.records:
            writer.writerow(
                [repr(r.alpha), repr(r.m_alpha), repr(r.distance), repr(r.alpha_d_sq), r.x_idx, r.y_idx]
            )
        return buf.getvalue()


def doubling_diagnostic(
    m: Manifold, u: GridFunction, v: GridFunction, alphas: Sequence[float]
) -> DoublingTrace:
    """Exact grid maximization of u(x) - v(y) - (alpha/2) d(x, y)^2 per alpha.

    The distance rows are visited block by block; a later block replaces the
    running maximum only when strictly greater, so ties resolve to the first
    maximizer in row-major order, as an argmax over the full matrix would.
    """
    grid = u.grid
    if grid is not v.grid:
        raise PreconditionError("u and v must live on the same grid")
    if m is not grid.model:
        raise PreconditionError("m must be the model the grid was built on")
    if grid.n_nodes == 0:
        raise PreconditionError("empty grid")
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise PreconditionError("alphas must be increasing")
    best = [(-math.inf, 0, 0, 0.0)] * len(alphas)  # (objective, i, j, d) per alpha
    for start, d in grid.distance_blocks():
        penalty = d * d
        gap = u.values[start:start + d.shape[0], None] - v.values[None, :]
        objective = np.empty_like(d)  # gap - (alpha/2) penalty, written in place
        for k, alpha in enumerate(alphas):
            np.subtract(gap, np.multiply(0.5 * alpha, penalty, out=objective), out=objective)
            i, j = np.unravel_index(np.argmax(objective), objective.shape)
            if objective[i, j] > best[k][0]:
                best[k] = (float(objective[i, j]), start + int(i), int(j), float(d[i, j]))
    records = [
        DoublingRecord(alpha, obj, i, j, dist, alpha * dist * dist)
        for alpha, (obj, i, j, dist) in zip(alphas, best)
    ]
    return DoublingTrace(records)


# --------------------------------------------------------------------- #
# jet convergence in the vector-field pairing sense
# --------------------------------------------------------------------- #

def jet_limit_check(
    m: Manifold,
    jets: Sequence[Jet2],
    limit: Jet2,
    tol_schedule: Sequence[float] | None = None,
    atol: float = 1e-8,
    rate: float = 2.0,
) -> bool:
    """Test convergence of jets against a candidate limit jet.

    Pairings are taken against a fixed spanning family of transported
    frame fields.  By default the tolerance for the n-th element is
    ``atol + rate * d(x_n, x)``: pairings must converge at least linearly
    in the base distance.  REJECT verdicts are advisory; a finite family
    cannot certify divergence in every pathological case.
    """
    x = limit.point
    frame = m.canonical_frame(x)
    fields = [frame[i] for i in range(m.dim)]
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            fields.append((frame[i] + frame[j]) / math.sqrt(2.0))
    zeta_ref = m.frame_components(x, limit.zeta, frame)
    a_ref = limit.form.matrix
    field_comps = m.components(fields, frame)

    for idx, jet in enumerate(jets):
        xn = jet.point
        dist = m.distance(xn, x)
        tol = (
            tol_schedule[idx]
            if tol_schedule is not None
            else atol + rate * dist
        )
        if abs(jet.value - limit.value) > tol:
            return False
        frame_n = m.canonical_frame(xn)
        zeta_n = m.frame_components(xn, jet.zeta, frame_n)
        a_n = jet.form.matrix
        for base_field, ref_comps in zip(fields, field_comps):
            moved = m.parallel_transport(x, xn, TangentVector(x, base_field))
            comps = m.components(moved.components, frame_n)
            if abs(np.dot(zeta_n, comps) - np.dot(zeta_ref, ref_comps)) > tol:
                return False
            if abs(comps @ a_n @ comps - ref_comps @ a_ref @ ref_comps) > tol:
                return False
    return True
