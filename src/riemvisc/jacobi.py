"""Jacobi fields, the index form, and the Hessian of the squared distance.

Everything is phrased in the parallel orthonormal frame of a minimizing
geodesic segment.  Every shipped model is locally symmetric, so the tidal
matrix X -> R(X, gamma')gamma' is constant in that frame and the Jacobi
equation decouples along its eigenvectors into scalar ODEs f'' + kappa f = 0
with trigonometric, hyperbolic or affine closed forms (Cheeger-Ebin,
Comparison Theorems in Riemannian Geometry, ch. 1).  One kernel serves
every model: constant-curvature models are diagonal in the parallel frame
already, products diagonalize the tidal matrix once.

The quadratic form of the Hessian of phi(x, y) = d(x, y)^2 on a pair
(v, w) of boundary vectors equals ``2 ell (<X(ell), X'(ell)> - <X(0),
X'(0)>)`` where X is the Jacobi field with X(0) = v, X(ell) = w; the same
number equals ``2 ell I(X, X)`` with the index form I.  Both routes are
implemented and cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import PreconditionError, SingularBVPError, UnsupportedModelError
from .manifolds import (
    GeodesicSegment,
    Manifold,
    Point,
    TangentVector,
    _readonly,
)

DEFAULT_GRID = 2048


# --------------------------------------------------------------------- #
# vector fields along a segment
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class VectorFieldAlongSegment:
    """Field along a segment given by frame-component functions of t.

    ``coeffs(ts)`` and ``coeffs_prime(ts)`` map an array of parameters in
    [0, length] to arrays of shape (len(ts), n).
    """

    segment: GeodesicSegment
    coeffs: Callable[[np.ndarray], np.ndarray]
    coeffs_prime: Callable[[np.ndarray], np.ndarray]

    def plus(self, other: "VectorFieldAlongSegment") -> "VectorFieldAlongSegment":
        return VectorFieldAlongSegment(
            self.segment,
            lambda ts: self.coeffs(ts) + other.coeffs(ts),
            lambda ts: self.coeffs_prime(ts) + other.coeffs_prime(ts),
        )


@dataclass(frozen=True)
class JacobiField:
    """Solution of the Jacobi boundary value problem along a segment."""

    segment: GeodesicSegment
    coeffs: Callable[[np.ndarray], np.ndarray]
    coeffs_prime: Callable[[np.ndarray], np.ndarray]
    ts: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    start_value: np.ndarray
    end_value: np.ndarray
    start_deriv: np.ndarray
    end_deriv: np.ndarray

    def as_field(self) -> VectorFieldAlongSegment:
        return VectorFieldAlongSegment(self.segment, self.coeffs, self.coeffs_prime)

    def endpoint_pairing(self) -> float:
        """<X(ell), X'(ell)> - <X(0), X'(0)> in the parallel frame."""
        return float(
            np.dot(self.end_value, self.end_deriv)
            - np.dot(self.start_value, self.start_deriv)
        )


def tidal_matrix(seg: GeodesicSegment, t: float = 0.0) -> np.ndarray:
    """Matrix of X -> R(X, gamma')gamma' in the parallel frame at gamma(t).

    For the shipped locally symmetric models this matrix is constant in t.
    """
    model = seg.model
    p = seg.point_at(t)
    frame = seg.frame_at(t)
    vel = TangentVector(p, frame[0])
    n = model.dim
    m = np.zeros((n, n))
    for j in range(n):
        rj = model.curvature_operator(p, TangentVector(p, frame[j]), vel, vel)
        for i in range(n):
            m[i, j] = model.ambient_inner(p, rj.components, frame[i])
    return 0.5 * (m + m.T)


def _simpson_weights(num_intervals: int, ell: float) -> np.ndarray:
    if num_intervals % 2 != 0:
        raise ValueError("Simpson rule needs an even interval count")
    w = np.ones(num_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (ell / num_intervals / 3.0)


# --------------------------------------------------------------------- #
# Jacobi boundary value problem
# --------------------------------------------------------------------- #

def _tidal_spectrum(seg: GeodesicSegment):
    """Tidal eigenvalues and eigenvectors (``None``: the parallel frame).

    Constant curvature k gives ``(0, k, ..., k)`` with nothing computed;
    products diagonalize the tidal matrix, checked constant along the segment.
    """
    k = seg.model.constant_sectional()
    if k is not None:
        return (0.0,) + (k,) * (seg.model.dim - 1), None
    m = tidal_matrix(seg, 0.0)
    for t_check in (0.5 * seg.length, seg.length):
        if np.max(np.abs(tidal_matrix(seg, t_check) - m)) > 1e-9:
            raise UnsupportedModelError("tidal matrix varies along the segment")
    kappas, q = np.linalg.eigh(m)
    # eigh leaves roundoff (down to 1e-33) on zero eigenvalues; a tiny
    # positive one would trip the conjugate-point test of _endpoint_scalars
    kappas[np.abs(kappas) <= 1e-12 * np.max(np.abs(kappas), initial=1.0)] = 0.0
    return tuple(kappas.tolist()), q


def _endpoint_scalars(kappa: float, ell: float):
    """``(s, C(ell), S(ell))`` for f'' + kappa f = 0: C, S are cos, sin or
    cosh, sinh of ``s t`` with ``s = sqrt|kappa|``, or 1, t with ``s = 1``."""
    if kappa > 0.0:
        s = math.sqrt(kappa)
        sin_l = math.sin(s * ell)
        # conjugate at s ell = m pi, m >= 1; a tiny s ell has no conjugate point
        if abs(sin_l) < 1e-12 and s * ell > 1.0:
            raise SingularBVPError("conjugate endpoints along the segment")
        return s, math.cos(s * ell), sin_l
    if kappa < 0.0:
        s = math.sqrt(-kappa)
        return s, math.cosh(s * ell), math.sinh(s * ell)
    return 1.0, 1.0, ell


def _scalar_basis(kappa: float, st: np.ndarray, deriv: bool):
    """C, S at ``st = s t``, or C'/s, S'/s with ``deriv``."""
    if kappa > 0.0:
        return (-np.sin(st), np.cos(st)) if deriv else (np.cos(st), np.sin(st))
    if kappa < 0.0:
        return (np.sinh(st), np.cosh(st)) if deriv else (np.cosh(st), np.sinh(st))
    return (0.0, 1.0) if deriv else (1.0, st)


def solve_jacobi_bvp(
    seg: GeodesicSegment,
    v: TangentVector,
    w: TangentVector,
    num_steps: int = DEFAULT_GRID,
) -> JacobiField:
    """Solve X'' + R(X, gamma')gamma' = 0 with X(0) = v, X(ell) = w.

    One closed form on every locally symmetric model: X = Q (a C(t) + c
    S(t)) per tidal eigen-direction.  ``num_steps`` sizes the sample grid.
    """
    kappas, q = _tidal_spectrum(seg)
    a = seg.components_at_start(v)
    b = seg.components_at_end(w)
    if q is not None:
        a, b = q.T @ a, q.T @ b
    ends = [_endpoint_scalars(kappa, seg.length) for kappa in kappas]
    amp_c = [(b[i] - a[i] * c_l) / s_l for i, (_, c_l, s_l) in enumerate(ends)]

    def sample(ts, deriv):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.size, len(kappas)))
        for i, (kappa, (s, _, _)) in enumerate(zip(kappas, ends)):
            c, sn = _scalar_basis(kappa, s * ts, deriv)
            out[:, i] = (s if deriv else 1.0) * (a[i] * c + amp_c[i] * sn)
        return out if q is None else out @ q.T

    coeffs, coeffs_prime = partial(sample, deriv=False), partial(sample, deriv=True)
    ts = np.linspace(0.0, seg.length, num_steps + 1)
    values = coeffs(ts)
    derivs = coeffs_prime(ts)
    return JacobiField(
        seg, coeffs, coeffs_prime, ts, values, derivs,
        values[0].copy(), values[-1].copy(), derivs[0].copy(), derivs[-1].copy(),
    )


def jacobi_residual(jf: JacobiField) -> float:
    """Max norm of X'' + R(X, gamma')gamma' at interior grid nodes, relative.

    The second derivative is formed by a fourth-order central difference of
    the stored samples, so the residual is an independent check on the
    solver output.  With ``k = max(1, max |tidal eigenvalue|)`` the step is
    ``0.008 / sqrt(k)`` and the residual is divided by ``k max |X|``, the
    size of X'', so the figure does not grow with the curvature or the
    field.
    """
    m = tidal_matrix(jf.segment, 0.0)
    k = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(m)))))
    # subsample so the difference step balances roundoff against truncation
    dt0 = jf.ts[1] - jf.ts[0]
    stride = int(np.clip(round(0.008 / math.sqrt(k) / dt0), 1, (len(jf.ts) - 1) // 8))
    f = jf.values[::stride]
    dt = dt0 * stride
    interior = slice(2, len(f) - 2)
    second = (
        -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
    ) / (12.0 * dt * dt)
    residual = second + f[interior] @ m.T
    size = k * float(np.max(np.abs(jf.values), initial=0.0))
    return float(np.max(np.abs(residual), initial=0.0)) / max(size, 1e-300)


# --------------------------------------------------------------------- #
# index form
# --------------------------------------------------------------------- #

def index_form(
    seg: GeodesicSegment,
    fld: VectorFieldAlongSegment | JacobiField,
    num_intervals: int = DEFAULT_GRID,
) -> float:
    """I(Z, Z) = int (<Z', Z'> - <R(Z, gamma')gamma', Z>) dt, composite Simpson."""
    if isinstance(fld, JacobiField):
        fld = fld.as_field()
    m = tidal_matrix(seg, 0.0)
    ts = np.linspace(0.0, seg.length, num_intervals + 1)
    f = fld.coeffs(ts)
    fp = fld.coeffs_prime(ts)
    integrand = np.einsum("ij,ij->i", fp, fp) - np.einsum("ij,jk,ik->i", f, m, f)
    return float(np.dot(_simpson_weights(num_intervals, seg.length), integrand))


def parallel_field(seg: GeodesicSegment, v: TangentVector) -> VectorFieldAlongSegment:
    comps = seg.components_at_start(v)

    def coeffs(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.tile(comps, (ts.size, 1))

    def coeffs_prime(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.zeros((ts.size, comps.size))

    return VectorFieldAlongSegment(seg, coeffs, coeffs_prime)


def sine_bump_field(
    seg: GeodesicSegment, amplitudes: np.ndarray
) -> VectorFieldAlongSegment:
    """Field vanishing at both endpoints: sum_k amplitudes[k, i] sin(k pi t / ell)."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    modes, n = amplitudes.shape
    ell = seg.length

    def coeffs(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, n))
        for kk in range(modes):
            out += np.outer(np.sin((kk + 1) * math.pi * ts / ell), amplitudes[kk])
        return out

    def coeffs_prime(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, n))
        for kk in range(modes):
            freq = (kk + 1) * math.pi / ell
            out += np.outer(freq * np.cos(freq * ts), amplitudes[kk])
        return out

    return VectorFieldAlongSegment(seg, coeffs, coeffs_prime)


@dataclass(frozen=True)
class MinimalityReport:
    model: dict
    trials: int
    jacobi_value: float
    min_margin: float
    parallel_margin: float | None
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "samples": self.trials,
            "max_violation": max(0.0, -self.min_margin),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "jacobi_value": self.jacobi_value,
            "parallel_margin": self.parallel_margin,
        }


def index_minimality_check(
    seg: GeodesicSegment,
    v: TangentVector,
    w: TangentVector,
    n_trials: int,
    seed: int = 0,
    amplitude: float = 0.5,
    tolerance: float = 1e-8,
) -> MinimalityReport:
    """Compare I(X, X) of the Jacobi BVP solution against competitor fields.

    Competitors share the boundary values (Jacobi solution plus sine bumps
    vanishing at the endpoints); when w is the parallel transport of v the
    constant parallel field competitor is included as well.
    """
    rng = np.random.default_rng(seed)
    x_field = solve_jacobi_bvp(seg, v, w)
    i_x = index_form(seg, x_field)
    n = seg.model.dim
    min_margin = math.inf
    for _ in range(n_trials):
        bumps = sine_bump_field(seg, amplitude * rng.standard_normal((4, n)))
        i_z = index_form(seg, x_field.as_field().plus(bumps))
        min_margin = min(min_margin, i_z - i_x)
    parallel_margin = None
    lv = seg.model.parallel_transport(seg.start, seg.end, v)
    if np.linalg.norm(lv.components - w.components) <= 1e-12 * max(
        1.0, float(np.linalg.norm(w.components))
    ):
        parallel_margin = index_form(seg, parallel_field(seg, v)) - i_x
        min_margin = min(min_margin, parallel_margin)
    passed = min_margin >= -tolerance
    return MinimalityReport(
        seg.model.config(), n_trials, i_x, float(min_margin), parallel_margin,
        tolerance, passed,
    )


# --------------------------------------------------------------------- #
# gradient and Hessian of the squared distance
# --------------------------------------------------------------------- #

def grad_distance_sq(m: Manifold, x: Point, y: Point):
    """Partial gradients of d(x, y)^2: (-2 log_x y, -2 log_y x)."""
    gx = m.log(x, y)
    gy = m.log(y, x)
    return (
        TangentVector(x, -2.0 * gx.components),
        TangentVector(y, -2.0 * gy.components),
    )


@dataclass(frozen=True)
class HessianPair:
    """Hessian of d(., .)^2 at (x, y) as a 2n x 2n form in the product frame.

    The product frame is the canonical frame at x followed by the canonical
    frame at y; blocks are d^2/dx^2, d^2/dxdy, d^2/dy^2.
    """

    model: Manifold
    x: Point
    y: Point
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(0.5 * (self.matrix + self.matrix.T)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def block_xx(self) -> np.ndarray:
        return self.matrix[: self.dim, : self.dim]

    @property
    def block_xy(self) -> np.ndarray:
        return self.matrix[: self.dim, self.dim :]

    @property
    def block_yy(self) -> np.ndarray:
        return self.matrix[self.dim :, self.dim :]

    def scaled(self, factor: float) -> "HessianPair":
        return HessianPair(self.model, self.x, self.y, factor * np.asarray(self.matrix))

    def operator_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix)), initial=0.0))

    def quadratic(self, vx_comps, vy_comps) -> float:
        z = np.concatenate([np.asarray(vx_comps, float), np.asarray(vy_comps, float)])
        return float(z @ self.matrix @ z)


def _segment_frame_hessian(seg: GeodesicSegment) -> np.ndarray:
    """Hessian of d^2 in segment-frame components (start block, end block).

    Per tidal eigen-direction the block is ``2 ell s / S(ell) [[C, -1], [-1,
    C]]`` (flat: ``[[2, -2], [-2, 2]]``), rotated by ``diag(Q, Q)``.
    """
    n = seg.model.dim
    ell = seg.length
    kappas, q = _tidal_spectrum(seg)
    h = np.zeros((2 * n, 2 * n))
    for i, kappa in enumerate(kappas):
        s, c_l, s_l = _endpoint_scalars(kappa, ell)
        factor = 2.0 * ell * s / s_l
        h[i, i] = h[n + i, n + i] = factor * c_l
        h[i, n + i] = h[n + i, i] = -factor
    if q is None:
        return h
    rot = np.zeros((2 * n, 2 * n))
    rot[:n, :n] = rot[n:, n:] = q
    return rot @ h @ rot.T


def hessian_distance_sq(m: Manifold, x: Point, y: Point) -> HessianPair:
    """Full 2n x 2n Hessian of phi = d^2 at (x, y) in the canonical frames."""
    seg = m.geodesic_segment(x, y)
    h_seg = _segment_frame_hessian(seg)
    n = m.dim
    cx = m.canonical_frame(x)
    cy = m.canonical_frame(y)
    sx = np.array([[m.ambient_inner(x, seg.frame0[kk], cx[i]) for kk in range(n)] for i in range(n)])
    sy = np.array([[m.ambient_inner(y, seg.frame_end[kk], cy[i]) for kk in range(n)] for i in range(n)])
    b = np.zeros((2 * n, 2 * n))
    b[:n, :n] = sx
    b[n:, n:] = sy
    return HessianPair(m, x, y, b @ h_seg @ b.T)


def hessian_on_parallel_pair(m: Manifold, x: Point, y: Point, v: TangentVector) -> float:
    """d^2(d^2)(x, y) evaluated on (v, L_xy v)."""
    seg = m.geodesic_segment(x, y)
    a = seg.components_at_start(v)
    h_seg = _segment_frame_hessian(seg)
    z = np.concatenate([a, a])
    return float(z @ h_seg @ z)


# --------------------------------------------------------------------- #
# curvature-sign and curvature-bound sweeps
# --------------------------------------------------------------------- #

def curvature_sign(m: Manifold) -> float | None:
    """+1 / -1 / 0 when all sectional curvatures share that sign, else None."""
    k = m.constant_sectional()
    if k is not None:
        return float(np.sign(k))
    # product: sign-definite only when every factor agrees (flat factors are neutral)
    signs = {curvature_sign(f) for f in getattr(m, "factors", [])}
    signs.discard(0.0)
    if not signs:
        return 0.0
    if len(signs) > 1 or None in signs:
        return None
    return signs.pop()


def _sample_pair_vector(m, rng, ell_range):
    x = m.random_point(rng)
    cap = m.injectivity_radius(x)
    hi = min(ell_range[1], 0.95 * cap) if math.isfinite(cap) else ell_range[1]
    ell = rng.uniform(ell_range[0], hi)
    direction = m.random_tangent(rng, x)
    nrm = m.norm(x, direction)
    while nrm < 1e-12:
        direction = m.random_tangent(rng, x)
        nrm = m.norm(x, direction)
    y = m.exp(x, TangentVector(x, direction.components * (ell / nrm)))
    v = m.random_tangent(rng, x)
    return x, y, v, ell


def parallel_pair_sweep(
    m: Manifold,
    n_samples: int,
    seed: int = 0,
    ell_range: tuple[float, float] = (0.05, 3.0),
    unit_normal: bool = True,
):
    """Sampled values of d^2(d^2)(v, L_xy v) with the segment lengths.

    With ``unit_normal`` the direction v is a unit vector normal to the
    connecting geodesic, which is the regime where the constant-curvature
    closed forms ``-4 l (1 - cos l)/sin l`` (curvature +1) and ``4 l
    (cosh l - 1)/sinh l`` (curvature -1) describe the value exactly.
    Returns arrays ``(ells, values, vnorm_sq)``.
    """
    rng = np.random.default_rng(seed)
    ells = np.empty(n_samples)
    values = np.empty(n_samples)
    vnorms = np.empty(n_samples)
    for i in range(n_samples):
        x, y, v, ell = _sample_pair_vector(m, rng, ell_range)
        seg = m.geodesic_segment(x, y)
        if unit_normal:
            comps = np.zeros(m.dim)
            raw = rng.standard_normal(m.dim - 1)
            comps[1:] = raw / np.linalg.norm(raw)
            a = comps
        else:
            a = seg.components_at_start(v)
        h_seg = _segment_frame_hessian(seg)
        z = np.concatenate([a, a])
        ells[i] = seg.length
        values[i] = float(z @ h_seg @ z)
        vnorms[i] = float(np.dot(a, a))
    return ells, values, vnorms


@dataclass(frozen=True)
class SignConditionReport:
    model: dict
    samples: int
    max_value: float
    min_value: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "model": {kk: vv for kk, vv in self.model.items() if not kk.startswith("_")},
            "samples": self.samples,
            "max_violation": self.model.get("_violation", 0.0),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "max_value": self.max_value,
            "min_value": self.min_value,
        }


def check_sign_condition(
    m: Manifold,
    n_samples: int,
    seed: int = 0,
    ell_range: tuple[float, float] = (0.05, 3.0),
    tolerance: float = 1e-8,
) -> SignConditionReport:
    """Sweep d^2(d^2)(v, L_xy v) and test its sign against the curvature sign.

    Nonnegative curvature must give values <= tol; nonpositive curvature
    values >= -tol; flat models both.
    """
    sign = curvature_sign(m)
    if sign is None:
        raise UnsupportedModelError("sign sweep needs a curvature-sign-definite model")
    rng = np.random.default_rng(seed)
    max_v, min_v = -math.inf, math.inf
    for _ in range(n_samples):
        x, y, v, _ = _sample_pair_vector(m, rng, ell_range)
        val = hessian_on_parallel_pair(m, x, y, v)
        max_v = max(max_v, val)
        min_v = min(min_v, val)
    violation = 0.0
    if sign >= 0.0:
        violation = max(violation, max_v)
    if sign <= 0.0:
        violation = max(violation, -min_v)
    cfg = dict(m.config())
    cfg["_violation"] = max(0.0, violation)
    return SignConditionReport(
        cfg, n_samples, max_v, min_v, tolerance, violation <= tolerance
    )


@dataclass(frozen=True)
class CurvatureBoundReport:
    model: dict
    k0: float
    samples: int
    max_violation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "k0": self.k0,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def check_curvature_bound(
    m: Manifold,
    k0: float,
    n_samples: int,
    seed: int = 0,
    ell_range: tuple[float, float] = (0.05, 3.0),
    tolerance: float = 1e-8,
) -> CurvatureBoundReport:
    """Check d^2(d^2)(v, L_xy v) <= 2 K0 d^2 |v|^2 for curvature >= -K0."""
    if k0 < 0:
        raise PreconditionError("K0 must be nonnegative")
    k = m.constant_sectional()
    if k is not None and k < -k0 - 1e-15:
        raise PreconditionError("model curvature is below -K0")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_samples):
        x, y, v, ell = _sample_pair_vector(m, rng, ell_range)
        val = hessian_on_parallel_pair(m, x, y, v)
        bound = 2.0 * k0 * ell * ell * m.metric(x, v, v)
        worst = max(worst, val - bound)
    return CurvatureBoundReport(
        m.config(), k0, n_samples, max(0.0, worst), tolerance, worst <= tolerance
    )
