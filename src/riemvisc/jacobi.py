"""Jacobi fields, the index form, and the Hessian of the squared distance.

Everything is phrased in the parallel orthonormal frame of a minimizing
geodesic segment.  Every shipped model is locally symmetric, so the tidal
matrix X -> R(X, gamma')gamma' is constant in that frame and the Jacobi
equation decouples along its eigenvectors into scalar ODEs f'' + kappa f = 0
with trigonometric, hyperbolic or affine closed forms (Cheeger-Ebin,
Comparison Theorems in Riemannian Geometry, ch. 1).  One kernel serves
every model: constant-curvature models are diagonal in the parallel frame
already, products factor by factor in closed form.

A field along a segment is its frame components and their derivatives
sampled on the segment's one Simpson grid of ``DEFAULT_GRID`` intervals;
the index form integrates those samples.  The quadratic form of the
Hessian of phi(x, y) = d(x, y)^2 on a pair (v, w) of boundary vectors
equals ``2 ell (<X(ell), X'(ell)> - <X(0), X'(0)>)`` where X is the Jacobi
field with X(0) = v, X(ell) = w; the same number equals ``2 ell I(X, X)``
with the index form I.  Both routes are implemented and cross-checked in
the tests.

The sign-condition, curvature-bound and index-minimality checks return the
operators' ``CheckReport``, their extra numbers in its ``extra``, and
serialize through its one ``to_dict``; a NaN sample fails each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError, SingularBVPError, UnsupportedModelError
from .manifolds import (
    GeodesicSegment,
    Manifold,
    Point,
    SegmentStack,
    TangentVector,
    _FRAME_FLOOR,
    _libm,
    _readonly,
    _rowwise_dot,
    operator_norms,
)
from .operators import CheckReport

DEFAULT_GRID = 2048


# --------------------------------------------------------------------- #
# vector fields along a segment
# --------------------------------------------------------------------- #

def _grid(seg: GeodesicSegment) -> np.ndarray:
    """The segment's Simpson grid: ``DEFAULT_GRID + 1`` parameters in [0, ell]."""
    return np.linspace(0.0, seg.length, DEFAULT_GRID + 1)


def _simpson_weights(ell: float) -> np.ndarray:
    w = np.ones(DEFAULT_GRID + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (ell / DEFAULT_GRID / 3.0)


@dataclass(frozen=True)
class VectorFieldAlongSegment:
    """Field along a segment as its samples on the segment's Simpson grid:
    ``values`` and ``derivs`` are the frame components of Z and Z', one row
    per grid parameter (``ts``)."""

    segment: GeodesicSegment
    values: np.ndarray
    derivs: np.ndarray

    @property
    def ts(self) -> np.ndarray:
        return _grid(self.segment)


@dataclass(frozen=True)
class JacobiField(VectorFieldAlongSegment):
    """Solution of the Jacobi boundary value problem along a segment;
    ``coeffs(ts)`` evaluates its closed form at any parameters in [0, ell]."""

    coeffs: Callable[[np.ndarray], np.ndarray]

    @property
    def start_value(self) -> np.ndarray:
        return self.values[0]

    @property
    def end_value(self) -> np.ndarray:
        return self.values[-1]

    def endpoint_pairing(self) -> float:
        """<X(ell), X'(ell)> - <X(0), X'(0)> in the parallel frame."""
        return float(
            np.dot(self.values[-1], self.derivs[-1]) - np.dot(self.values[0], self.derivs[0])
        )


def tidal_matrix(seg: GeodesicSegment, t: float = 0.0) -> np.ndarray:
    """Matrix of X -> R(X, gamma')gamma' in the parallel frame at gamma(t).

    For the shipped locally symmetric models this matrix is constant in t.
    """
    model = seg.model
    frame = seg.frame_at(t)
    rs = model.curvature_rows(frame, frame[0], frame[0])
    c = model.components(rs, frame)  # c[j, i] = <R(f_j, f_0)f_0, f_i>, f_0 = gamma'
    return 0.5 * (c.T + c)


# --------------------------------------------------------------------- #
# Jacobi boundary value problem
# --------------------------------------------------------------------- #

def _space_forms(m: Manifold, start: int = 0):
    """``(factor, ambient slice)`` for each constant-curvature factor of m,
    nested products flattened; a space form yields itself."""
    if m.constant_sectional() is not None:
        yield m, slice(start, start + m.ambient_dim)
        return
    for f, s in zip(m.factors, m._slices):
        yield from _space_forms(f, start + s.start)


def _tidal_spectra(m: Manifold, starts: np.ndarray, frame0: np.ndarray):
    """Tidal eigenvalues and eigenvectors of the segments that start at the
    rows of ``starts`` with the (N, n, ambient) frames ``frame0``: ``(kappas,
    q)``, kappas (N, n) and q (N, n, n), or ``None``: the parallel frame.

    Constant curvature k gives ``(0, k, ..., k)`` with nothing computed.  On
    a product, factor i acts as ``k_i (|w_i|^2 I - w_i w_i^T)``, w_i its part
    of the unit velocity (O'Neill, Semi-Riemannian Geometry, ch. 7): 0 on
    w_i and ``k_i |w_i|^2`` on the rest of the factor frame seeded by
    ``w_i / |w_i|``, whose rows in ``frame0`` components are the columns.
    A factor that does not move (``_FRAME_FLOOR`` bounds the log roundoff
    in w_i) keeps its plain frame, with eigenvalue 0.
    """
    count = len(starts)
    k = m.constant_sectional()
    if k is not None:
        return np.tile((0.0,) + (k,) * (m.dim - 1), (count, 1)), None
    kappas, vectors = [], []
    for f, s in _space_forms(m):
        xs = starts[:, s]
        w = f.project_tangent_stack(xs, frame0[:, 0, s])
        w2 = f.inner_stack(w, w)
        seeded = w2 > _FRAME_FLOOR
        w2 = np.where(seeded, w2, 0.0)
        frames = np.empty((count, f.dim, f.ambient_dim))
        if seeded.any():
            unit = w[seeded] / np.sqrt(w2[seeded])[:, None]
            frames[seeded] = f.canonical_frames(xs[seeded], first=unit[:, None])
        if not seeded.all():
            frames[~seeded] = f.canonical_frames(xs[~seeded])
        kappa = np.repeat((f.constant_sectional() * w2)[:, None], f.dim, axis=1)
        kappa[seeded, 0] = 0.0
        kappas.append(kappa)
        vectors.append(f.components(frames, frame0[:, None, :, s]))
    return np.concatenate(kappas, axis=1), np.swapaxes(np.concatenate(vectors, axis=1), -1, -2)


def _tidal_spectrum(seg: GeodesicSegment):
    """``_tidal_spectra`` of one segment: kappas (n,) and q (n, n) or ``None``."""
    kappas, q = _tidal_spectra(seg.model, seg.start.coords[None], seg.frame0[None])
    return kappas[0], None if q is None else q[0]


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


def solve_jacobi_bvp(seg: GeodesicSegment, v: TangentVector, w: TangentVector) -> JacobiField:
    """Solve X'' + R(X, gamma')gamma' = 0 with X(0) = v, X(ell) = w.

    One two-endpoint closed form on every locally symmetric model and every
    tidal eigen-direction: with a, b the boundary values in the tidal
    eigenbasis Q, X = Q (S(ell - t) a + S(t) b) / S(ell) and X' = Q s (C(t) b
    - C(ell - t) a) / S(ell), where (C, S) is (cos, sin) or (cosh, sinh) of
    s t with s = sqrt|kappa|, or (1, t) for a flat direction.  No boundary
    value is carried across the segment, so nothing cancels on negative
    curvature.  The field is sampled on the segment's Simpson grid;
    conjugate endpoints raise ``SingularBVPError``.
    """
    kappas, q = _tidal_spectrum(seg)
    a = seg.components_at_start(v)
    b = seg.components_at_end(w)
    if q is not None:
        a, b = q.T @ a, q.T @ b
    s, _, s_l = (e[0, :, None] for e in _endpoint_scalars([kappas], seg.length))
    a, b = a[:, None], b[:, None]
    pos, neg = kappas > 0.0, kappas < 0.0

    # one row per direction: numpy's loops run along the parameters
    def basis(ts):
        st = s * ts
        c, sn = np.ones(st.shape), st.copy()
        c[pos], sn[pos] = np.cos(st[pos]), np.sin(st[pos])
        c[neg], sn[neg] = np.cosh(st[neg]), np.sinh(st[neg])
        return c, sn

    def evaluate(ts):
        c_t, s_t = basis(ts)
        c_r, s_r = basis(seg.length - ts)
        x = (s_r * a + s_t * b) / s_l
        xp = s * (c_t * b - c_r * a) / s_l
        return (x.T, xp.T) if q is None else ((q @ x).T, (q @ xp).T)

    values, derivs = evaluate(_grid(seg))
    return JacobiField(
        seg, _readonly(values), _readonly(derivs),
        lambda ts: evaluate(np.atleast_1d(np.asarray(ts, dtype=float)))[0],
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

def index_form(seg: GeodesicSegment, fld: VectorFieldAlongSegment) -> float:
    """I(Z, Z) = int (<Z', Z'> - <R(Z, gamma')gamma', Z>) dt, composite
    Simpson over the grid samples of Z; ``PreconditionError`` for a field
    along another segment."""
    if fld.segment is not seg:
        raise PreconditionError("index form of a field along another segment")
    m = tidal_matrix(seg, 0.0)
    f, fp = fld.values, fld.derivs
    integrand = np.einsum("ij,ij->i", fp, fp) - np.einsum("ij,jk,ik->i", f, m, f)
    return float(np.dot(_simpson_weights(seg.length), integrand))


def parallel_field(seg: GeodesicSegment, v: TangentVector) -> VectorFieldAlongSegment:
    """The parallel field with Z(0) = v: constant frame components."""
    values = np.tile(seg.components_at_start(v), (DEFAULT_GRID + 1, 1))
    return VectorFieldAlongSegment(seg, values, np.zeros_like(values))


def _sine_modes(seg: GeodesicSegment, count: int):
    """sin(k pi t / ell) and its t-derivative on the segment's grid for
    k = 1, ..., count, one column per mode."""
    freq = np.arange(1, count + 1) * (math.pi / seg.length)
    angle = np.outer(_grid(seg), freq)
    return np.sin(angle), freq * np.cos(angle)


def sine_bump_field(seg: GeodesicSegment, amplitudes: np.ndarray) -> VectorFieldAlongSegment:
    """Field vanishing at both endpoints: sum_k amplitudes[k, i] sin(k pi t / ell)."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    phi, dphi = _sine_modes(seg, len(amplitudes))
    return VectorFieldAlongSegment(seg, phi @ amplitudes, dphi @ amplitudes)


def _bump_margins(seg: GeodesicSegment, fld: VectorFieldAlongSegment, amps) -> np.ndarray:
    """I(Z + B_j) - I(Z) = 2 I(Z, B_j) + I(B_j) for the sine bumps B_j of the
    amplitude stack ``amps`` (trials, modes, n), by Simpson over the grid:
    ``cross[k, i]`` is I(Z, mode k along frame direction i), and ``gram``,
    ``dgram`` the modes' and their derivatives' weighted Gram matrices."""
    m = tidal_matrix(seg, 0.0)
    wts = _simpson_weights(seg.length)[:, None]
    phi, dphi = _sine_modes(seg, amps.shape[1])
    cross = (wts * dphi).T @ fld.derivs - (wts * phi).T @ fld.values @ m
    gram, dgram = phi.T @ (wts * phi), dphi.T @ (wts * dphi)
    # M is symmetric: A_k . M A_l is row k of amps against row l of amps @ M
    bump = (np.einsum("kl,jki,jli->j", dgram, amps, amps)
            - np.einsum("kl,jki,jli->j", gram, amps, amps @ m))
    return 2.0 * np.einsum("jki,ki->j", amps, cross) + bump


def index_minimality_check(
    seg: GeodesicSegment,
    v: TangentVector,
    w: TangentVector,
    n_trials: int,
    seed: int = 0,
    amplitude: float = 0.5,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Compare I(X, X) of the Jacobi BVP solution against competitor fields.

    Competitors share the boundary values: X + B_j with B_j a sum of the
    first four sine bumps of ``sine_bump_field``, vanishing at the
    endpoints.  The amplitudes come from one ``(n_trials, 4, n)``
    standard-normal draw, the numbers a loop of ``(4, n)`` draws per trial
    gives.  Each margin I(X + B_j) - I(X) = 2 I(X, B_j) + I(B_j) is taken
    from Simpson-weighted Gram matrices of the modes against X's samples and
    each other, so it stays a quadrature and an independent check on the
    closed form.  When w is the parallel transport of v the constant
    parallel field competes as well.  ``PreconditionError`` unless
    ``n_trials >= 1``.
    """
    if n_trials < 1:
        raise PreconditionError(f"index minimality check needs n_trials >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    x_field = solve_jacobi_bvp(seg, v, w)
    i_x = index_form(seg, x_field)
    amps = amplitude * rng.standard_normal((n_trials, 4, seg.model.dim))
    margins = _bump_margins(seg, x_field, amps)
    parallel_margin = None
    lv = seg.model.parallel_transport(seg.start, seg.end, v)
    if np.linalg.norm(lv.components - w.components) <= 1e-12 * max(
        1.0, float(np.linalg.norm(w.components))
    ):
        parallel_margin = index_form(seg, parallel_field(seg, v)) - i_x
        margins = np.append(margins, parallel_margin)
    violation = float(np.max(-margins, initial=0.0))  # NaN if any margin is NaN
    return CheckReport(
        "index_minimality", seg.model.config(), n_trials, violation, tolerance,
        violation <= tolerance,
        {"jacobi_value": i_x, "min_margin": float(np.min(margins)),
         "parallel_margin": parallel_margin},
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
        return float(operator_norms(self.matrix))

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


def _block_diagonal(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``diag(top, bottom)`` for every pair of two (N, n, n) stacks."""
    count, n = top.shape[0], top.shape[-1]
    out = np.zeros((count, 2 * n, 2 * n))
    out[:, :n, :n], out[:, n:, n:] = top, bottom
    return out


def _frame_hessians(kappas: np.ndarray, q, lengths: np.ndarray) -> np.ndarray:
    """Hessians of d^2 in segment-frame components (start block, end block),
    (N, 2n, 2n), of N segments from their tidal spectra and lengths: the
    blocks of ``_hessian_blocks``, rotated by ``diag(Q, Q)``."""
    count, n = kappas.shape
    diag, off = _hessian_blocks(kappas, lengths[:, None])
    idx = np.arange(n)
    h = np.zeros((count, 2 * n, 2 * n))
    h[:, idx, idx] = h[:, n + idx, n + idx] = diag
    h[:, idx, n + idx] = h[:, n + idx, idx] = off
    if q is None:
        return h
    rot = _block_diagonal(q, q)
    return rot @ h @ np.swapaxes(rot, -1, -2)


def _segment_frame_hessian(seg: GeodesicSegment) -> np.ndarray:
    """``_frame_hessians`` of one segment, (2n, 2n)."""
    kappas, q = _tidal_spectra(seg.model, seg.start.coords[None], seg.frame0[None])
    return _frame_hessians(kappas, q, np.array([seg.length]))[0]


def hessian_distance_sq(m: Manifold, x: Point, y: Point) -> HessianPair:
    """Full 2n x 2n Hessian of phi = d^2 at (x, y) in the canonical frames."""
    seg = m.geodesic_segment(x, y)
    b = _block_diagonal(m.components(seg.frame0, m.canonical_frame(x)).T[None],
                        m.components(seg.frame_end, m.canonical_frame(y)).T[None])[0]
    return HessianPair(m, x, y, b @ _segment_frame_hessian(seg) @ b.T)


def hessian_distance_sq_stack(m: Manifold, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``hessian_distance_sq(m, x, y).matrix`` for every row pair of two
    (N, ambient) point stacks, shape (N, 2n, 2n), bit for bit: one
    ``SegmentStack``, the tidal spectra and Hessian blocks over all rows,
    and stacked frame rotations.  A pair ``GeodesicSegment.connect`` would
    refuse raises its typed error, naming the first such row."""
    segs = SegmentStack.connect(m, xs, ys)
    h = _frame_hessians(*_tidal_spectra(m, segs.starts, segs.frame0), segs.lengths)
    b = _block_diagonal(
        np.swapaxes(m.components(segs.frame0, m.canonical_frames(xs)[:, None]), -1, -2),
        np.swapaxes(m.components(segs.frame_end, m.canonical_frames(ys)[:, None]), -1, -2),
    )
    mats = b @ h @ np.swapaxes(b, -1, -2)
    # as HessianPair stores its matrix
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def hessian_on_parallel_pair(m: Manifold, x: Point, y: Point, v: TangentVector) -> float:
    """d^2(d^2)(x, y) evaluated on (v, L_xy v)."""
    seg = m.geodesic_segment(x, y)
    z = np.tile(seg.components_at_start(v), 2)
    return float(z @ _segment_frame_hessian(seg) @ z)


# --------------------------------------------------------------------- #
# curvature-sign and curvature-bound sweeps
# --------------------------------------------------------------------- #

def curvature_sign(m: Manifold) -> float | None:
    """+1 / -1 / 0 when all sectional curvatures share that sign, else None."""
    # flat factors are neutral
    signs = {float(np.sign(f.constant_sectional())) for f, _ in _space_forms(m)} - {0.0}
    if len(signs) > 1:
        return None
    return signs.pop() if signs else 0.0


def curvature_floor(m: Manifold) -> float:
    """The lowest curvature of m's space-form factors: for K0 >= 0, every
    sectional curvature of m is at least -K0 exactly when this is (a plane
    across two factors has curvature 0)."""
    return min(f.constant_sectional() for f, _ in _space_forms(m))


# The three sweeps share one pipeline: block draws (draw_samples, one
# generator call per plan entry); the models' stacked maps (points_from_draws,
# project_tangent_stack) turn the raw rows into the points and tangents that
# random_point / random_tangent make of them; the geometry runs over the rows,
# and one block kernel evaluates the stack.  No model needs a segment: the
# value depends only on the length and on the part of v normal to the
# geodesic in each space-form factor (see _tidal_spectrum).


@dataclass(frozen=True)
class _PairDraws:
    """Pair-sweep samples, one row each: y = exp(x, step) with |step| = ell,
    and a random tangent v at x or, for ``unit_normal``, unit frame
    components normal to the geodesic (first component 0)."""

    xs: np.ndarray
    ells: np.ndarray
    steps: np.ndarray
    vs: np.ndarray | None
    normals: np.ndarray | None


def _draw_pairs(
    m: Manifold, n_samples: int, seed: int, ell_range, unit_normal: bool
) -> _PairDraws:
    """The pair sweeps' samples: one ``draw_samples`` block from
    ``default_rng(seed)``, mapped as stacks.  A direction of norm < 1e-12 is
    drawn again, in a block after the samples; the other rows keep theirs.
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
    # per sample: x, ell, the direction, then v or the unit normal's draw
    tangent = ("normal", m.ambient_dim)
    last = ("normal", m.dim - 1) if unit_normal else tangent
    rng = np.random.default_rng(seed)
    raw_x, ells, raw_d, raw_v = m.draw_samples(rng, n_samples, ("uniform", lo, hi), tangent, last)
    xs = m.points_from_draws(raw_x)
    directions = m.project_tangent_stack(xs, raw_d)
    nrm = np.sqrt(np.maximum(m.inner_stack(directions, directions), 0.0))
    refused = np.flatnonzero(nrm < 1e-12)
    while refused.size:  # drawn again, in a block after the samples
        raw = rng.standard_normal((refused.size, m.ambient_dim))
        redrawn = m.project_tangent_stack(xs[refused], raw)
        directions[refused] = redrawn
        nrm[refused] = np.sqrt(np.maximum(m.inner_stack(redrawn, redrawn), 0.0))
        refused = refused[nrm[refused] < 1e-12]
    steps = directions * (ells / nrm)[:, None]
    if not unit_normal:
        return _PairDraws(xs, ells, steps, m.project_tangent_stack(xs, raw_v), None)
    normals = np.zeros((n_samples, m.dim))
    normals[:, 1:] = raw_v / np.sqrt(_rowwise_dot(raw_v, raw_v))[:, None]
    return _PairDraws(xs, ells, steps, None, normals)


def _pair_stack(m: Manifold, draws: _PairDraws, unit_normal: bool):
    """``(lengths, kappas, sq, vnorms)`` per sample: the segment length, the
    tidal eigenvalues normal to the geodesic in each factor, the squared mass
    of v (or of the unit normal) in their eigenspaces, and |v|^2.  Rows whose
    segment ``connect`` would refuse raise its typed error, naming the first
    such sample."""
    lengths = m.distance_stack(draws.xs, m.exp_stack(draws.xs, draws.steps))
    GeodesicSegment.check_lengths(lengths, m.injectivity_radius())
    k = m.constant_sectional()
    # only the eigenspaces normal to the geodesic enter: the tangent
    # direction's block is flat and meets (a, a) with 0
    if unit_normal:
        vnorms = _rowwise_dot(draws.normals, draws.normals)
        if k is not None:
            return lengths, np.array([[k]]), vnorms[:, None], vnorms
        vel = draws.steps / np.sqrt(m.inner_stack(draws.steps, draws.steps))[:, None]
        frames = m.canonical_frames(draws.xs, first=vel[:, None])
        vs = (draws.normals[:, None] @ frames)[:, 0]
    elif k is not None:
        along = m.inner_stack(draws.vs, draws.steps) / draws.ells**2
        v_normal = draws.vs - along[:, None] * draws.steps
        normal = m.inner_stack(v_normal, v_normal)
        return lengths, np.array([[k]]), normal[:, None], (along * draws.ells) ** 2 + normal
    else:
        vs = draws.vs
        vnorms = m.inner_stack(vs, vs)
    # factor i: k_i |w_i|^2 on the part of v normal to w_i within the factor
    kappas, sq = [], []
    for f, s in _space_forms(m):
        step, v = draws.steps[:, s], vs[:, s]
        w2 = f.inner_stack(step, step)
        along = f.inner_stack(v, step) / np.where(w2 > 0.0, w2, 1.0)
        v_normal = v - along[:, None] * step
        kappas.append(f.constant_sectional() * w2 / draws.ells**2)
        sq.append(f.inner_stack(v_normal, v_normal))
    return lengths, np.stack(kappas, axis=1), np.stack(sq, axis=1), vnorms


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
    capped high`` and ``n_samples >= 1``.  The samples are drawn as blocks
    (``draw_samples``), and the draws are mapped and evaluated as arrays; a
    sample whose segment or Jacobi problem is degenerate raises the typed
    error of the single-pair path, naming the sample.  Returns arrays
    ``(ells, values, vnorm_sq)``, ``ells`` the segment lengths d(x, y).
    """
    _, lengths, values, vnorms = _pair_sweep(m, n_samples, seed, ell_range, unit_normal)
    return lengths, values, vnorms


def check_sign_condition(
    m: Manifold,
    n_samples: int,
    seed: int = 0,
    ell_range: tuple[float, float] = (0.05, 3.0),
    tolerance: float = 1e-8,
) -> CheckReport:
    """Sweep d^2(d^2)(v, L_xy v) and test its sign against the curvature sign.

    Nonnegative curvature must give values <= tol; nonpositive curvature
    values >= -tol; flat models both.  v is a random tangent vector, not a
    unit normal; samples and preconditions as in ``parallel_pair_sweep``.
    """
    sign = curvature_sign(m)
    if sign is None:
        raise UnsupportedModelError("sign sweep needs a curvature-sign-definite model")
    _, _, values, _ = _pair_sweep(m, n_samples, seed, ell_range, unit_normal=False)
    signed = values if sign > 0.0 else -values if sign < 0.0 else np.abs(values)
    violation = float(np.max(signed, initial=0.0))  # NaN if any value is NaN
    return CheckReport(
        "sign_condition", m.config(), n_samples, violation, tolerance, violation <= tolerance,
        {"max_value": float(values.max()), "min_value": float(values.min())},
    )


def check_curvature_bound(
    m: Manifold,
    k0: float,
    n_samples: int,
    seed: int = 0,
    ell_range: tuple[float, float] = (0.05, 3.0),
    tolerance: float = 1e-8,
) -> CheckReport:
    """Check d^2(d^2)(v, L_xy v) <= 2 K0 d^2 |v|^2 for curvature >= -K0.

    d is the drawn length and v a random tangent vector; samples and
    preconditions as in ``parallel_pair_sweep``.
    """
    if k0 < 0:
        raise PreconditionError("K0 must be nonnegative")
    if curvature_floor(m) < -k0 - 1e-15:
        raise PreconditionError("model curvature is below -K0")
    draws, _, values, _ = _pair_sweep(m, n_samples, seed, ell_range, unit_normal=False)
    bounds = 2.0 * k0 * draws.ells * draws.ells * m.inner_stack(draws.vs, draws.vs)
    violation = float(np.max(values - bounds, initial=0.0))  # NaN if any value is NaN
    return CheckReport(
        "curvature_bound", m.config(), n_samples, violation, tolerance, violation <= tolerance,
        {"k0": k0},
    )
