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
    _libm,
    _readonly,
    _rowwise_dot,
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
    rs = np.array(
        [model.curvature_operator(p, TangentVector(p, f), vel, vel).components for f in frame]
    )
    c = model.components(rs, frame)  # c[j, i] = <R(f_j, vel)vel, f_i>
    return 0.5 * (c.T + c)


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


def _endpoint_scalars(kappa, ell):
    """``(s, C(ell), S(ell))`` for f'' + kappa f = 0 over broadcast stacks:
    C, S are cos, sin or cosh, sinh of ``s t`` with ``s = sqrt|kappa|``, or
    1, t with ``s = 1``.  Rows are samples; conjugate endpoints raise,
    naming the first sample that has them."""
    kappa, ell = np.broadcast_arrays(np.atleast_1d(kappa), np.atleast_1d(ell))
    pos, neg = kappa > 0.0, kappa < 0.0
    s = np.where(pos | neg, np.sqrt(np.abs(kappa)), 1.0)
    st = s * ell
    c_l, s_l = np.ones(st.shape), np.array(ell, dtype=float)
    c_l[pos], s_l[pos] = _libm(math.cos, st[pos]), _libm(math.sin, st[pos])
    c_l[neg], s_l[neg] = _libm(math.cosh, st[neg]), _libm(math.sinh, st[neg])
    # conjugate at s ell = m pi, m >= 1; a tiny s ell has no conjugate point
    conjugate = pos & (np.abs(s_l) < 1e-12) & (st > 1.0)
    if np.any(conjugate):
        at = tuple(np.argwhere(conjugate)[0])
        raise SingularBVPError(
            f"conjugate endpoints along the segment (sample {at[0]}: s ell = {st[at]!r})"
        )
    return s, c_l, s_l


def _scalar_basis(kappa: float, st: np.ndarray, deriv: bool):
    """C, S at ``st = s t``, or C'/s, S'/s with ``deriv``, for kappa >= 0."""
    if kappa > 0.0:
        return (-np.sin(st), np.cos(st)) if deriv else (np.cos(st), np.sin(st))
    return (0.0, 1.0) if deriv else (1.0, st)


def solve_jacobi_bvp(
    seg: GeodesicSegment,
    v: TangentVector,
    w: TangentVector,
    num_steps: int = DEFAULT_GRID,
) -> JacobiField:
    """Solve X'' + R(X, gamma')gamma' = 0 with X(0) = v, X(ell) = w.

    One closed form on every locally symmetric model: X = Q (a C(t) + c
    S(t)) per tidal eigen-direction, written as (sinh(s(ell - t)) a +
    sinh(s t) b) / sinh(s ell) where kappa < 0.  ``num_steps`` sizes the
    sample grid.
    """
    kappas, q = _tidal_spectrum(seg)
    a = seg.components_at_start(v)
    b = seg.components_at_end(w)
    if q is not None:
        a, b = q.T @ a, q.T @ b
    ends_s, ends_c, ends_sl = (e[0] for e in _endpoint_scalars([kappas], seg.length))
    amp_c = (b - a * ends_c) / ends_sl

    def sample(ts, deriv):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.size, len(kappas)))
        for i, (kappa, s, s_l) in enumerate(zip(kappas, ends_s, ends_sl)):
            if kappa < 0.0:
                # a C + c S cancels like eps cosh(s ell); the two-endpoint
                # form (sinh(s(ell - t)) a + sinh(s t) b) / sinh(s ell) does not
                st, rest = s * ts, s * (seg.length - ts)
                out[:, i] = (
                    s * (b[i] * np.cosh(st) - a[i] * np.cosh(rest)) if deriv
                    else a[i] * np.sinh(rest) + b[i] * np.sinh(st)
                ) / s_l
                continue
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


def _hessian_blocks(kappas, ells):
    """Per tidal eigen-direction, the diagonal and off-diagonal entries of
    the Hessian block ``2 ell s / S(ell) [[C, -1], [-1, C]]`` (flat: ``[[2,
    -2], [-2, 2]]``), over broadcast stacks with one row per sample."""
    s, c_l, s_l = _endpoint_scalars(kappas, ells)
    factor = 2.0 * ells * s / s_l
    return factor * c_l, -factor


def _segment_frame_hessian(seg: GeodesicSegment) -> np.ndarray:
    """Hessian of d^2 in segment-frame components (start block, end block):
    the blocks of ``_hessian_blocks``, rotated by ``diag(Q, Q)``."""
    n = seg.model.dim
    kappas, q = _tidal_spectrum(seg)
    diag, off = _hessian_blocks([kappas], seg.length)
    idx = np.arange(n)
    h = np.zeros((2 * n, 2 * n))
    h[idx, idx] = h[n + idx, n + idx] = diag[0]
    h[idx, n + idx] = h[n + idx, idx] = off[0]
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
    b = np.zeros((2 * n, 2 * n))
    b[:n, :n] = m.components(seg.frame0, m.canonical_frame(x)).T
    b[n:, n:] = m.components(seg.frame_end, m.canonical_frame(y)).T
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


# The three sweeps share one pipeline: one loop makes only the generator
# calls of the model's random_point / random_tangent, in the order of a
# per-sample loop; the models' stacked maps (points_from_draws,
# project_tangent_stack) turn the raw rows into exactly the points and
# tangents those methods return; the geometry runs over the stacked rows,
# and one block kernel evaluates the stack.  A constant-curvature model
# needs no segment: its tidal spectrum is (0, k, ..., k), so the value
# depends only on the length and on the part of v normal to the geodesic.


@dataclass(frozen=True)
class _PairDraws:
    """Pair-sweep samples, one row each: y = exp(x, step) with |step| = ell,
    a random tangent v at x and, for ``unit_normal``, unit frame components
    normal to the geodesic (first component 0)."""

    xs: np.ndarray
    ells: np.ndarray
    steps: np.ndarray
    vs: np.ndarray
    normals: np.ndarray | None


def _draw_pairs(
    m: Manifold, n_samples: int, seed: int, ell_range, unit_normal: bool
) -> _PairDraws:
    """The samples of the per-sample loop the sweeps were first written as,
    bit for bit: its generator calls in its order, mapped as stacks.  A
    direction of norm < 1e-12 is drawn again, as that loop did.
    ``PreconditionError`` unless ``n_samples >= 1`` and ``0 < low < high``,
    high capped at 0.95 of the injectivity radius."""
    if n_samples < 1:
        raise PreconditionError(f"pair sweep needs n_samples >= 1, got {n_samples}")
    lo, hi = ell_range
    cap = m.injectivity_radius()
    if math.isfinite(cap):
        hi = min(hi, 0.95 * cap)
    if not 0.0 < lo < hi:
        raise PreconditionError(
            f"ell_range {tuple(ell_range)} needs 0 < low < high, with high capped at "
            f"0.95 of the injectivity radius {cap!r}: {hi!r}"
        )
    # row -> direction draws refused (norm < 1e-12) before the one kept; the
    # loop is replayed from the seed until no kept direction is refused
    redraws: dict[int, int] = {}
    while True:
        rng = np.random.default_rng(seed)
        raw_x, raw_dir, raw_v = (np.empty((n_samples, m.ambient_dim)) for _ in range(3))
        ells = np.empty(n_samples)
        raw_n = np.empty((n_samples, m.dim - 1)) if unit_normal else None
        for i in range(n_samples):
            raw_x[i] = m.draw_point(rng)
            ells[i] = rng.uniform(lo, hi)
            raw_dir[i] = m.draw_tangent(rng)
            for _ in range(redraws.get(i, 0)):
                raw_dir[i] = m.draw_tangent(rng)
            # unit_normal never reads v; it is drawn so the samples keep their stream
            raw_v[i] = m.draw_tangent(rng)
            if unit_normal:
                raw_n[i] = rng.standard_normal(m.dim - 1)
        xs = m.points_from_draws(raw_x)
        directions = m.project_tangent_stack(xs, raw_dir)
        nrm = np.sqrt(np.maximum(m.inner_stack(directions, directions), 0.0))
        refused = np.flatnonzero(nrm < 1e-12)
        if refused.size == 0:
            break
        # rows before the first refusal keep their draws, so the replays end
        redraws[int(refused[0])] = redraws.get(int(refused[0]), 0) + 1
    normals = None
    if unit_normal:
        normals = np.zeros((n_samples, m.dim))
        normals[:, 1:] = raw_n / np.sqrt(_rowwise_dot(raw_n, raw_n))[:, None]
    steps = directions * (ells / nrm)[:, None]
    return _PairDraws(xs, ells, steps, m.project_tangent_stack(xs, raw_v), normals)


def _pair_stack(m: Manifold, draws: _PairDraws, unit_normal: bool):
    """``(lengths, kappas, sq, vnorms)`` per sample: the segment length, tidal
    eigenvalues, the squared components of v (or of the unit normal) in
    their eigenspaces, and |v|^2.  Rows whose segment ``connect`` would
    refuse raise its typed error, naming the first such sample."""
    k = m.constant_sectional()
    if k is None:
        return _product_pair_stack(m, draws, unit_normal)
    lengths = m.distance_stack(draws.xs, m.exp_stack(draws.xs, draws.steps))
    GeodesicSegment.check_lengths(lengths, m.injectivity_radius())
    if unit_normal:
        tangential = np.zeros(lengths.size)
        normal = _rowwise_dot(draws.normals, draws.normals)
    else:
        along = m.inner_stack(draws.vs, draws.steps) / draws.ells**2
        v_normal = draws.vs - along[:, None] * draws.steps
        tangential = (along * draws.ells) ** 2
        normal = m.inner_stack(v_normal, v_normal)
    # only the k-eigenspace normal to the geodesic enters: the tangent
    # direction's block is flat and meets (a, a) with 0
    return lengths, np.array([[k]]), normal[:, None], tangential + normal


def _product_pair_stack(m: Manifold, draws: _PairDraws, unit_normal: bool):
    """``_pair_stack`` on a product: each sample's segment diagonalizes its
    tidal matrix."""
    points = [Point(x) for x in draws.xs]
    ends = [m.exp(x, TangentVector(x, step)) for x, step in zip(points, draws.steps)]
    GeodesicSegment.check_lengths(
        [m.distance(x, y) for x, y in zip(points, ends)], m.injectivity_radius()
    )
    n = len(points)
    lengths, vnorms = np.empty(n), np.empty(n)
    kappas, sq = np.empty((n, m.dim)), np.empty((n, m.dim))
    for i, (x, y) in enumerate(zip(points, ends)):
        seg = m.geodesic_segment(x, y)
        kappas[i], q = _tidal_spectrum(seg)
        if unit_normal:
            a = draws.normals[i]
        else:
            a = seg.components_at_start(TangentVector(x, draws.vs[i]))
        sq[i] = (a @ q) ** 2
        lengths[i], vnorms[i] = seg.length, np.dot(a, a)
    return lengths, kappas, sq, vnorms


def _pair_sweep(m: Manifold, n_samples: int, seed: int, ell_range, unit_normal: bool):
    """``(draws, lengths, values, vnorms)``: d^2(d^2)(v, L_xy v) per sample.

    With z = (a, a) in the tidal eigenbasis each Hessian block contributes
    ``2 a_i^2 (diag_i + off_i)``."""
    draws = _draw_pairs(m, n_samples, seed, ell_range, unit_normal)
    lengths, kappas, sq, vnorms = _pair_stack(m, draws, unit_normal)
    diag, off = _hessian_blocks(kappas, lengths[:, None])
    values = 2.0 * np.sum(sq * (diag + off), axis=1)
    return draws, lengths, values, vnorms


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
    Lengths are drawn uniformly from ``ell_range``, its high end capped at
    0.95 of the injectivity radius; ``PreconditionError`` unless ``0 < low <
    capped high`` and ``n_samples >= 1``.  One loop makes the samples'
    generator calls, and the draws are mapped and evaluated as arrays; a
    sample whose segment or Jacobi problem is degenerate raises the typed
    error of the single-pair path, naming the sample.  Returns arrays
    ``(ells, values, vnorm_sq)``, ``ells`` the segment lengths d(x, y).
    """
    _, lengths, values, vnorms = _pair_sweep(m, n_samples, seed, ell_range, unit_normal)
    return lengths, values, vnorms


@dataclass(frozen=True)
class SignConditionReport:
    model: dict
    samples: int
    max_value: float
    min_value: float
    max_violation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "samples": self.samples,
            "max_violation": self.max_violation,
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
    values >= -tol; flat models both.  v is a random tangent vector, not a
    unit normal; samples and preconditions as in ``parallel_pair_sweep``.
    """
    sign = curvature_sign(m)
    if sign is None:
        raise UnsupportedModelError("sign sweep needs a curvature-sign-definite model")
    _, _, values, _ = _pair_sweep(m, n_samples, seed, ell_range, unit_normal=False)
    max_v, min_v = float(values.max()), float(values.min())
    violation = 0.0
    if sign >= 0.0:
        violation = max(violation, max_v)
    if sign <= 0.0:
        violation = max(violation, -min_v)
    return SignConditionReport(
        m.config(), n_samples, max_v, min_v, violation, tolerance, violation <= tolerance
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
    """Check d^2(d^2)(v, L_xy v) <= 2 K0 d^2 |v|^2 for curvature >= -K0.

    d is the drawn length and v a random tangent vector; samples and
    preconditions as in ``parallel_pair_sweep``.
    """
    if k0 < 0:
        raise PreconditionError("K0 must be nonnegative")
    k = m.constant_sectional()
    if k is not None and k < -k0 - 1e-15:
        raise PreconditionError("model curvature is below -K0")
    draws, _, values, _ = _pair_sweep(m, n_samples, seed, ell_range, unit_normal=False)
    bounds = 2.0 * k0 * draws.ells * draws.ells * m.inner_stack(draws.vs, draws.vs)
    worst = float(np.max(values - bounds))
    return CurvatureBoundReport(
        m.config(), k0, n_samples, max(0.0, worst), tolerance, worst <= tolerance
    )
