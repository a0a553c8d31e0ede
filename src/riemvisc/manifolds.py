"""Closed-form geometry kernels for the model manifolds.

Every model (Euclidean space, round sphere, hyperboloid-model hyperbolic
space, flat torus, and finite products of these) exposes the same primitive
set: metric, exponential and logarithm maps, Riemannian distance, parallel
transport of vectors and bilinear forms, the curvature operator, and the
injectivity radius.  All maps are closed-form, so downstream code can use
them as numerical oracles.

Conventions
-----------
* Sphere points live in embedding coordinates in ``R^(n+1)``; hyperbolic
  points live on the upper hyperboloid in Minkowski ``R^(n,1)`` with the
  time coordinate first; torus points are chart coordinates reduced modulo
  the periods.
* Covectors are represented by tangent vectors through the metric
  identification: one type, not two.
* Bilinear forms are stored as symmetric matrices in the canonical
  orthonormal frame of their base point.  The canonical frame is produced
  by a deterministic Gram-Schmidt run seeded from the coordinate axes, so
  all results are reproducible.  A seeded frame (a segment's, whose first
  row is the velocity, or a product factor's in the tidal spectrum) is the
  same single pass run after its seed rows (``_orthonormal_rows(x, rows)``,
  ``canonical_frames(xs, first)``): no canonical frame is built first.  As
  Gram-Schmidt keeps nested spans, that is the frame Gram-Schmidt over the
  canonical rows would give, up to roundoff, except where a remainder lies
  near ``_FRAME_FLOOR`` (about 1 draw in 300), where a row may come from
  another axis.  Both frame builders, and so every frame, start from the
  projected axes.
* Manifolds without conjugate points report ``INFINITE_RADIUS``
  (``math.inf``) as their injectivity radius; preconditions compare with
  strict ``<``.
* Every model but the product is a space form of constant curvature K
  (``constant_sectional``): ``Manifold`` writes its tangent projection
  ``a - K <a, x> x`` and curvature operator ``K (<v,w> u - <u,w> v)`` once.
  The sphere and the hyperboloid share one more base, ``_SpaceForm``, which
  writes their exp, log, distance and parallel transport once in terms of
  K, the length scale and the pair (cos, sin) or (cosh, sinh).  The
  Minkowski form lives only in ``Hyperbolic.ambient_inner``/``inner_stack``.
* Parallel transport and the curvature operator act on (k, ambient) rows of
  tangent vectors (``transport_rows``, ``curvature_rows``; a product runs
  them factorwise); ``parallel_transport`` and ``curvature_operator`` are
  their one-row cases, rounded alike, so a whole frame moves in one call.
* One body per concept: ``Manifold`` writes ``exp``, ``log``, ``distance``,
  ``transport_rows`` and ``random_point`` once, as one-row calls of
  ``exp_stack``, ``log_stack``, ``distance_stack``, ``transport_stack`` and
  ``points_from_draws``, as ``sectional_curvature`` is of its stack and
  ``jacobi``'s tidal spectrum and frame Hessian are of theirs.  On Euclidean
  space and the torus that costs 1-4 us a call more than a scalar body; on a
  product (Sphere(2) x Euclidean(2)) log 18 -> 31 us, transport 28 -> 60.
* Second bodies stay only where a one-row stack costs several times a
  scalar call: the oracle sweeps' per-sample loops make ~11 000 such calls
  a pass.  Each rounds every row as its stack does, so a sweep may use
  either (us scalar / one-row on Sphere(2) and Hyperbolic(2)):

  =============================  =========================  ======  ======
  second body                    stack                      sphere  hyper
  =============================  =========================  ======  ======
  ``_SpaceForm.exp``             ``exp_stack``              9/44    9/58
  ``_SpaceForm.log``             ``log_stack``              5/25    7/25
  ``_SpaceForm.distance``        ``distance_stack``         3/14    4/16
  ``_SpaceForm.transport_rows``  ``transport_stack``        15/50   18/54
  ``Hyperbolic.random_point``    ``points_from_draws``      --      18/79
  ``project_tangent``            ``project_tangent_stack``  2/4     3/5
  ``canonical_frame``            ``canonical_frames``       10/77   12/91
  ``transport_matrix``           ``transport_matrices``     41/248  55/308
  ``GeodesicSegment.connect``    ``SegmentStack.connect``   36/172  45/192
  =============================  =========================  ======  ======

* ``inner_stack`` broadcasts over leading axes; ``components(vectors,
  frame)`` on top of it rounds each entry as one ``ambient_inner``.
* A hyperboloid step whose coordinates or Minkowski square would overflow
  raises ``GeometryDomainError`` in ``exp`` and ``exp_stack`` alike.
* ``random_point``/``random_tangent`` are a generator call (``draw_point``,
  the entries of ``point_plan``, and ``draw_tangent``) followed by a
  closed-form map; ``points_from_draws`` and ``project_tangent_stack`` map
  a stack of raw rows to exactly the points and tangents the single-sample
  methods return, and ``pairs_from_draws`` maps stacks of ``random_pair``'s
  draws to its pairs.  A sampled sweep draws all its samples in blocks
  (``draw_stacks``, ``draw_samples``): one generator call per plan entry,
  in plan order, so a seed fixes the samples but they are not those of a
  per-sample loop.  The one-sample methods (``random_point``,
  ``random_tangent``, ``random_pair``, ``draw_point``) keep their own stream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BasePointMismatchError,
    DegenerateSegmentError,
    GeometryDomainError,
    UnsupportedModelError,
)

INFINITE_RADIUS = math.inf

_SYMMETRY_TOL = 1e-12

# Gram-Schmidt keeps a remainder only if its squared norm exceeds this: the
# seeds are unit axes, so a kept row carries at most ~1e-12 relative roundoff
# (near an axis a remainder of squared norm ~1e-16 is roundoff alone)
_FRAME_FLOOR = 1e-8


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, broadcast over the leading axes; each
    entry is rounded exactly as ``np.dot`` of one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _libm(fn: Callable, *args) -> np.ndarray:
    """The ``math`` function ``fn`` applied elementwise over broadcast arrays.

    numpy's SIMD sinh, cosh, asinh and arctan2 round differently from libm
    in 8-26% of elements on AVX-512 builds; through libm the stack kernels
    agree bit for bit with the single-point methods.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = map(fn, *(a.ravel().tolist() for a in args))
    return np.fromiter(flat, float, args[0].size).reshape(args[0].shape)


@dataclass(frozen=True)
class Point:
    """A manifold point; ``coords`` are embedding or chart coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _readonly(self.coords))

    @classmethod
    def rows(cls, coords):
        """One ``Point`` per row of ``coords``, each a read-only view of one
        read-only copy of it: no per-row copy or ``__post_init__``."""
        for row in _readonly(coords):
            point = object.__new__(cls)
            object.__setattr__(point, "coords", row)
            yield point

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector (equivalently a covector, via the metric) at ``base``."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _readonly(self.components))

    def __repr__(self):
        return f"TangentVector({np.array2string(self.components, precision=6)})"


@dataclass(frozen=True)
class SymBilinear:
    """A symmetric bilinear form at ``base``, stored in the canonical frame."""

    base: Point
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("bilinear form matrix must be square")
        m = symmetrized_forms(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def of_symmetrized(cls, base: Point, matrix: np.ndarray) -> "SymBilinear":
        """The form of an exactly symmetric matrix (one ``symmetrized_forms``
        has made, or a star candidate of ``star_candidates_stack``), wrapped
        without the check and symmetrization, which would return its bits."""
        form = object.__new__(cls)
        object.__setattr__(form, "base", base)
        object.__setattr__(form, "matrix", _readonly(matrix))
        return form

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def operator_norm(self) -> float:
        """sup |lambda| over eigenvalues: ``operator_norms`` of the matrix."""
        return float(operator_norms(self.matrix))


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """sup |lambda| over the eigenvalues of each of a stack of (..., m, m)
    symmetric matrices; one matrix gives a 0-d array."""
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1, initial=0.0)


def symmetrized_forms(mats: np.ndarray) -> np.ndarray:
    """``(M + M^T) / 2`` for each of a stack of (..., n, n) matrices, as
    ``SymBilinear`` stores them; ``ValueError`` unless every M is symmetric
    to ``_SYMMETRY_TOL`` relative to its largest entry (or to 1)."""
    mats = np.asarray(mats, dtype=float)
    flipped = np.swapaxes(mats, -1, -2)
    axes = (-2, -1)
    asym = abs(mats - flipped).max(axis=axes, initial=0.0)
    if (asym > _SYMMETRY_TOL * abs(mats).max(axis=axes, initial=1.0)).any():
        raise ValueError("bilinear form matrix must be symmetric")
    return 0.5 * (mats + flipped)


def draw_stacks(rng, n: int, plan) -> list[np.ndarray]:
    """One stack of n draws per entry of ``plan``, one generator call per
    entry, in plan order: ``("normal", shape)`` is ``rng.standard_normal((n,
    *shape))`` and ``("uniform", low, high)`` is ``rng.uniform(low, high, (n,
    *shape))``, shape the broadcast shape of low and high."""
    stacks = []
    for kind, *args in plan:
        if kind == "normal":
            stacks.append(rng.standard_normal((n, *np.empty(args[0], bool).shape)))
        else:
            stacks.append(rng.uniform(*args, (n, *np.broadcast(*args).shape)))
    return stacks


class Manifold:
    """Base class: shared derived operations on top of model primitives."""

    kind: str = "abstract"
    dim: int

    # ------------------------------------------------------------------ #
    # primitives each model must provide                                 #
    # ------------------------------------------------------------------ #

    @property
    def ambient_dim(self) -> int:
        raise NotImplementedError

    def ambient_inner(self, x: Point, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product of coordinate vectors in the tangent space at x."""
        return float(np.dot(a, b))

    def project_tangent(self, x: Point, ambient: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an ambient coordinate vector onto T_x:
        ``a - K <a, x> x`` on a space form of curvature K."""
        a = np.asarray(ambient, dtype=float)
        return a - (self.constant_sectional() * self.ambient_inner(x, a, x.coords)) * x.coords

    def project_tangent_stack(self, xs: np.ndarray, ambient: np.ndarray) -> np.ndarray:
        """``project_tangent`` at every row pair of two (N, ambient) stacks,
        each row rounded as the single-point method rounds it."""
        return ambient - (self.constant_sectional() * self.inner_stack(ambient, xs))[:, None] * xs

    def exp(self, x: Point, v: TangentVector) -> Point:
        """``exp_stack`` of the one pair (x, v)."""
        self._check_based(x, v)
        return Point(self.exp_stack(x.coords[None], v.components[None])[0])

    def log(self, x: Point, y: Point) -> TangentVector:
        """``log_stack`` of the one pair (x, y)."""
        return TangentVector(x, self.log_stack(x.coords[None], y.coords[None])[0])

    def distance(self, x: Point, y: Point) -> float:
        """``distance_stack`` of the one pair (x, y)."""
        return float(self.distance_stack(x.coords[None], y.coords[None])[0])

    def transport_rows(self, x: Point, y: Point, rows: np.ndarray) -> np.ndarray:
        """Parallel transport to y, along the minimizing geodesic, of each row
        of a (k, ambient) stack of tangent vectors at x: ``transport_stack``
        of the one pair (x, y)."""
        rows = np.asarray(rows, dtype=float)[None]
        return self.transport_stack(x.coords[None], y.coords[None], rows)[0]

    def transport_stack(self, xs: np.ndarray, ys: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``transport_rows`` for every row pair of two (N, ambient) point
        stacks, of ``vs[i]``: one (ambient,) vector or a (k, ambient) stack of
        them per pair, each row rounded as ``transport_rows`` rounds it."""
        raise NotImplementedError

    def parallel_transport(self, x: Point, y: Point, v: TangentVector) -> TangentVector:
        """``transport_rows`` of the one vector v."""
        self._check_based(x, v)
        return TangentVector(y, self.transport_rows(x, y, v.components[None])[0])

    def injectivity_radius(self, x: Point | None = None) -> float:
        raise NotImplementedError

    def exp_stack(self, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``exp`` at every row pair of two (N, ambient) stacks."""
        raise NotImplementedError

    def distance_stack(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``distance`` between every row pair of two (N, ambient) stacks."""
        raise NotImplementedError

    def log_stack(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``log`` at every row pair of two (N, ambient) stacks, each row
        rounded as the single-pair method rounds it; its typed error names
        the first row where ``log`` is undefined."""
        raise NotImplementedError

    def inner_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``ambient_inner`` over the last axis, broadcast over the leading
        axes (the base point does not enter)."""
        return _rowwise_dot(a, b)

    def components(self, vectors, frame: np.ndarray) -> np.ndarray:
        """Components of (..., ambient) vectors in (..., d, ambient) frames,
        shape (..., d); each entry is rounded as one ``ambient_inner``."""
        return self.inner_stack(np.asarray(vectors, dtype=float)[..., None, :], frame)

    def constant_sectional(self) -> float | None:
        """The constant sectional curvature, or None for product models."""
        raise NotImplementedError

    def curvature_rows(self, us: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """R(u, v)w for each row u of a (k, ambient) stack, v and w tangent at
        the same point: K (<v,w> u - <u,w> v) on a space form of curvature K;
        the sign is fixed by <R(u,v)v, u> = K |u ^ v|^2.  v and w may also be
        (k, ambient) stacks, one pair per row."""
        uw = self.inner_stack(us, w)
        vw = self.inner_stack(v, w)
        return self.constant_sectional() * (vw[..., None] * us - uw[:, None] * v)

    def curvature_operator(
        self, x: Point, u: TangentVector, v: TangentVector, w: TangentVector
    ) -> TangentVector:
        """``curvature_rows`` of the one vector u."""
        for t in (u, v, w):
            self._check_based(x, t)
        return TangentVector(x, self.curvature_rows(u.components[None], v.components, w.components)[0])

    def point(self, coords) -> Point:
        """Validating constructor for points of this model."""
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator) -> Point:
        """``points_from_draws`` of one ``draw_point`` row."""
        return Point(self.points_from_draws(self.draw_point(rng)[None])[0])

    @property
    def point_plan(self) -> list:
        """The ``draw_stacks`` entries of one ``random_point`` draw."""
        return [("normal", self.ambient_dim)]

    def draw_samples(self, rng, n: int, *plan) -> list[np.ndarray]:
        """``draw_stacks`` of n samples of a raw point (``point_plan``), then
        the entries ``plan``: the point's stacks joined into one (n, ambient)
        stack, then one stack per entry."""
        p = len(self.point_plan)
        stacks = draw_stacks(rng, n, [*self.point_plan, *plan])
        return [stacks[0] if p == 1 else np.concatenate(stacks[:p], axis=1), *stacks[p:]]

    def draw_point(self, rng: np.random.Generator) -> np.ndarray:
        """The generator calls of ``random_point``: one raw ambient row, one
        call per entry of ``point_plan`` at its own shape; bit for bit row 0
        of the one-sample ``draw_samples``, leaving the generator alike."""
        draws = [rng.standard_normal(args[0]) if kind == "normal" else rng.uniform(*args)
                 for kind, *args in self.point_plan]
        return draws[0] if len(draws) == 1 else np.concatenate(draws)

    def points_from_draws(self, raws: np.ndarray) -> np.ndarray:
        """The points ``random_point`` makes from an (N, ambient) stack of
        ``draw_point`` rows, bit for bit."""
        raise NotImplementedError

    def config(self) -> dict:
        """JSON-serializable description of the model."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared derived operations                                          #
    # ------------------------------------------------------------------ #

    def tangent(self, x: Point, components) -> TangentVector:
        comps = self.project_tangent(x, np.asarray(components, dtype=float))
        return TangentVector(x, comps)

    def metric(self, x: Point, v: TangentVector, w: TangentVector) -> float:
        """<v, w>_x; raises if the arguments are based at different points."""
        self._check_based(x, v)
        self._check_based(x, w)
        return self.ambient_inner(x, v.components, w.components)

    def norm(self, x: Point, v: TangentVector) -> float:
        return math.sqrt(max(self.metric(x, v, v), 0.0))

    def same_point(self, x: Point, y: Point, tol: float = 1e-9) -> bool:
        return self.distance(x, y) <= tol

    def _check_based(self, x: Point, v: TangentVector):
        if v.base is x:
            return
        if not self.same_point(v.base, x):
            raise BasePointMismatchError(
                f"tangent object based at {v.base} used at {x}"
            )

    def sectional_curvature(self, x: Point, u: TangentVector, v: TangentVector) -> float:
        """``sectional_curvature_stack`` of the one plane (u, v) at x."""
        self._check_based(x, u)
        self._check_based(x, v)
        return float(self.sectional_curvature_stack(u.components[None], v.components[None])[0])

    def sectional_curvature_stack(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """K(u, v) = <R(e1,e2)e2, e1> for the Gram-Schmidt basis (e1, e2) of
        every row pair (u, v) of two (N, ambient) stacks of tangent vectors
        (row i of both at the same point, which does not enter).

        The orthonormal basis avoids the cancellation of |u|^2 |v|^2 -
        <u,v>^2 on nearly dependent pairs.  ``GeometryDomainError``, naming
        the first such row, for a dependent pair and where the remainder of
        v has a square <= 0 from roundoff (far from the hyperboloid's apex).
        """
        uu, vv, uv = self.inner_stack(us, us), self.inner_stack(vs, vs), self.inner_stack(us, vs)
        with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 is refused below
            w = vs - (uv / uu)[:, None] * us
            ww = self.inner_stack(w, w)
        bad = np.flatnonzero((uu * vv - uv * uv <= 1e-12 * np.maximum(uu * vv, 1e-300)) | (ww <= 0.0))
        if bad.size:
            raise GeometryDomainError(
                f"sectional curvature needs independent vectors (row {bad[0]})")
        e1 = us / np.sqrt(uu)[:, None]
        e2 = w / np.sqrt(ww)[:, None]
        return self.inner_stack(self.curvature_rows(e1, e2, e2), e1)

    def canonical_frame(self, x: Point) -> np.ndarray:
        """Deterministic orthonormal frame at x, rows = frame vectors.

        Gram-Schmidt over the coordinate axes projected to the tangent
        space; axes whose projection is near-degenerate are skipped.
        """
        return self._orthonormal_rows(x, [])

    def _orthonormal_rows(self, x: Point, rows: list) -> np.ndarray:
        """Extend orthonormal ``rows`` to dim rows by one Gram-Schmidt pass
        over the projected coordinate axes, skipping axes whose remainder has
        squared norm <= ``_FRAME_FLOOR``."""
        for e in np.eye(self.ambient_dim):
            u = self.project_tangent(x, e)
            for r in rows:
                u = u - self.ambient_inner(x, u, r) * r
            nrm2 = self.ambient_inner(x, u, u)
            if nrm2 > _FRAME_FLOOR:
                rows.append(u / math.sqrt(nrm2))
            if len(rows) == self.dim:
                return np.array(rows)
        raise GeometryDomainError("frame construction failed")

    def canonical_frames(self, coords: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
        """``canonical_frame`` at every row of ``coords``, batched and rounded alike.

        With ``first``, an (N, r, ambient) stack of orthonormal tangent rows,
        row i is the seeded frame ``_orthonormal_rows(x_i, list(first[i]))``:
        the same pass over the projected axes, after the r given rows.
        Frame rows not yet found are zero, so subtracting them is a no-op.
        """
        x = np.asarray(coords, dtype=float).reshape(-1, self.ambient_dim)
        if first is None:
            first = np.zeros((x.shape[0], 0, self.ambient_dim))
        rows = np.zeros((x.shape[0], self.dim, self.ambient_dim))
        rows[:, : first.shape[1]] = first
        found = np.full(x.shape[0], first.shape[1])
        for e in np.eye(self.ambient_dim):
            u = self.project_tangent_stack(x, np.broadcast_to(e, x.shape))
            for j in range(self.dim):
                u = u - self.inner_stack(u, rows[:, j])[:, None] * rows[:, j]
            nrm2 = self.inner_stack(u, u)
            take = np.flatnonzero((nrm2 > _FRAME_FLOOR) & (found < self.dim))
            rows[take, found[take]] = u[take] / np.sqrt(nrm2[take])[:, None]
            found[take] += 1
        if np.any(found < self.dim):
            raise GeometryDomainError("frame construction failed")
        return rows

    def frame_components(self, x: Point, v: TangentVector, frame: np.ndarray | None = None) -> np.ndarray:
        """Components of v in the (canonical, unless given) frame at x."""
        self._check_based(x, v)
        if frame is None:
            frame = self.canonical_frame(x)
        return self.components(v.components, frame)

    def tangent_from_frame(self, x: Point, comps, frame: np.ndarray | None = None) -> TangentVector:
        if frame is None:
            frame = self.canonical_frame(x)
        comps = np.asarray(comps, dtype=float)
        return TangentVector(x, comps @ frame)

    def bilinear(self, x: Point, matrix) -> SymBilinear:
        return SymBilinear(x, matrix)

    def transport_matrix(self, x: Point, y: Point) -> np.ndarray:
        """Row k: the canonical frame vector k at x, transported to y, in the
        canonical frame at y."""
        return self.components(
            self.transport_rows(x, y, self.canonical_frame(x)), self.canonical_frame(y)
        )

    def transport_matrices(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``transport_matrix`` for every row pair of two (N, ambient) point
        stacks, shape (N, dim, dim), bit for bit."""
        moved = self.transport_stack(xs, ys, self.canonical_frames(xs))
        return self.components(moved, self.canonical_frames(ys)[:, None])

    def parallel_transport_bilinear(self, x: Point, y: Point, a: SymBilinear) -> SymBilinear:
        """Transport of a form: (L_xy A)(u, u) := A(L_yx u, L_yx u)."""
        self._check_based(x, a)
        back = self.transport_matrix(y, x)
        return SymBilinear(y, back @ a.matrix @ back.T)

    def draw_tangent(self, rng: np.random.Generator) -> np.ndarray:
        """The generator call of ``random_tangent``; ``project_tangent_stack``
        of the (scaled) rows maps a stack of them as ``random_tangent`` would."""
        return rng.standard_normal(self.ambient_dim)

    def random_tangent(
        self, rng: np.random.Generator, x: Point, scale: float = 1.0
    ) -> TangentVector:
        return TangentVector(x, self.project_tangent(x, self.draw_tangent(rng) * scale))

    def random_pair(self, rng: np.random.Generator, low: float, high: float):
        """``(x, y, ell)``: ``x = random_point``, then a ``random_tangent`` d
        and ``ell`` uniform in [low, high), and ``y = exp(x, ell d / |d|)``."""
        x = self.random_point(rng)
        d = self.random_tangent(rng, x)
        ell = rng.uniform(low, high)
        return x, self.exp(x, TangentVector(x, d.components * (ell / self.norm(x, d)))), ell

    def pairs_from_draws(self, raw_points: np.ndarray, raw_tangents: np.ndarray, ells: np.ndarray):
        """The stacks ``(xs, ys)`` that ``random_pair`` makes from stacks of its
        draws (``draw_point`` rows, ``draw_tangent`` rows, the lengths), bit for bit."""
        xs = self.points_from_draws(raw_points)
        d = self.project_tangent_stack(xs, raw_tangents)
        steps = d * (ells / np.sqrt(np.maximum(self.inner_stack(d, d), 0.0)))[:, None]
        return xs, self.exp_stack(xs, steps)

    def geodesic_segment(self, x: Point, y: Point) -> "GeodesicSegment":
        return GeodesicSegment.connect(self, x, y)


class Euclidean(Manifold):
    kind = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)

    @property
    def ambient_dim(self) -> int:
        return self.dim

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates")
        return Point(coords)

    def exp_stack(self, xs, vs):
        return xs + vs

    def distance_stack(self, xs, ys):
        d = ys - xs
        return np.sqrt(_rowwise_dot(d, d))

    def log_stack(self, xs, ys):
        return ys - xs

    def transport_stack(self, xs, ys, vs):
        return np.array(vs, dtype=float)

    def injectivity_radius(self, x=None):
        return INFINITE_RADIUS

    def constant_sectional(self):
        return 0.0

    def points_from_draws(self, raws):
        return raws

    def config(self):
        return {"model": "euclidean", "dim": self.dim}


class _SpaceForm(Manifold):
    """The round sphere and the hyperboloid: their closed forms, written once.

    With curvature K = ``constant_sectional()``, length scale ``_rho`` (the
    radius, or 1/sqrt(K0)) and the pair (C, S) = (cos, sin) or (cosh, sinh),
    the unit-speed geodesic from x with velocity u is
    ``C(t/rho) x + rho S(t/rho) u``.  A model supplies (``_C``, ``_S``),
    ``_sign`` (the sign of K), ``_arc(s, c)`` (the angle t/rho with S = s and
    C = c), its inner product, ``_onto``/``_onto_stack`` (the step back onto
    the model after exp) and ``_log_refused``.
    """

    _arc_max = math.inf  # the largest t/rho at which C and S are finite

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    def _exp_overflow(self, theta, where="exp"):
        return GeometryDomainError(
            f"{where}: |v| sqrt|K| = {theta!r} exceeds {self._arc_max!r}, "
            "past which cosh and sinh overflow"
        )

    def _step_not_finite(self, s2, where):
        return GeometryDomainError(
            f"{where}: |v|^2 = {s2!r} is not finite (the step's components "
            "or their squares overflow)"
        )

    def _near_overflow(self, x: Point, growth: float) -> bool:
        """Whether ``exp`` from x with C + S = ``growth`` may leave the float
        range; the sphere's coordinates stay within its radius."""
        return False

    def exp(self, x, v):
        self._check_based(x, v)
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = self.ambient_inner(x, v.components, v.components)
        if not math.isfinite(s2):
            raise self._step_not_finite(s2, "exp")
        if s2 <= 0.0:
            return x
        s = math.sqrt(s2)
        theta = s / self._rho
        if theta > self._arc_max:
            raise self._exp_overflow(theta)
        c, sn = self._C(theta), self._S(theta)
        if self._near_overflow(x, c + sn):
            # the stacked path rounds alike and raises where the result overflows
            return Point(self._exp_rows(x.coords[None], v.components[None], "exp")[0])
        p = c * x.coords + sn * self._rho * v.components / s
        return Point(self._onto(p))

    def exp_stack(self, xs, vs):
        return self._exp_rows(xs, vs)

    def _exp_rows(self, xs, vs, where=None):
        """``exp_stack``; errors name ``where``, or the row of the stack."""
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = self.inner_stack(vs, vs)
        bad = np.flatnonzero(~np.isfinite(s2))
        if bad.size:
            raise self._step_not_finite(float(s2[bad[0]]), where or f"exp_stack row {bad[0]}")
        moving = s2 > 0.0
        s = np.sqrt(np.where(moving, s2, 1.0))
        theta = s / self._rho
        over = np.flatnonzero(moving & (theta > self._arc_max))
        if over.size:
            raise self._exp_overflow(float(theta[over[0]]), where or f"exp_stack row {over[0]}")
        with np.errstate(over="ignore", invalid="ignore"):
            p = self._onto_stack(
                _libm(self._C, theta)[:, None] * xs
                + (_libm(self._S, theta) * self._rho)[:, None] * vs / s[:, None]
            )
        # rows from finite points that come out non-finite overflowed
        lost = np.flatnonzero(
            moving & np.all(np.isfinite(xs), axis=1) & ~np.all(np.isfinite(p), axis=1)
        )
        if lost.size:
            i = lost[0]
            raise GeometryDomainError(
                f"{where or f'exp_stack row {i}'}: |v| sqrt|K| = {float(theta[i])!r} "
                "lands where the coordinates or their Minkowski square overflow"
            )
        return np.where(moving[:, None], p, xs)

    def _split(self, x, y):
        """(theta, u, |u|) with y = c x + u, c = K <y, x> = C(theta), u tangent at x."""
        c = self.constant_sectional() * self.ambient_inner(x, y.coords, x.coords)
        u = y.coords - c * x.coords
        nu = math.sqrt(max(self.ambient_inner(x, u, u), 0.0))
        return self._arc(nu / self._rho, c), u, nu

    def _log_refused(self, theta, nu):
        """Where ``log`` is undefined, elementwise; every point has a log by default."""
        return np.zeros(np.shape(theta), bool)

    def _check_log(self, theta, nu):
        if self._log_refused(theta, nu):
            raise GeometryDomainError("log undefined at or beyond the antipode")

    def log(self, x, y):
        theta, u, nu = self._split(x, y)
        self._check_log(theta, nu)
        if nu <= 1e-300:
            return TangentVector(x, np.zeros(self.ambient_dim))
        return TangentVector(x, (self._rho * theta / nu) * u)

    def distance(self, x, y):
        return self._rho * self._split(x, y)[0]

    def _split_stack(self, xs, ys):
        """``_split`` at every row pair of two (N, ambient) stacks."""
        c = self.constant_sectional() * self.inner_stack(ys, xs)
        u = ys - c[:, None] * xs
        nu = np.sqrt(np.maximum(self.inner_stack(u, u), 0.0))
        return _libm(self._arc, nu / self._rho, c), u, nu

    def distance_stack(self, xs, ys):
        return self._rho * self._split_stack(xs, ys)[0]

    def log_stack(self, xs, ys):
        theta, u, nu = self._split_stack(xs, ys)
        bad = np.flatnonzero(self._log_refused(theta, nu))
        if bad.size:
            raise GeometryDomainError(
                f"log_stack row {bad[0]}: log undefined at or beyond the antipode")
        zero = nu <= 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(zero[:, None], 0.0, (self._rho * theta / nu)[:, None] * u)

    def transport_rows(self, x, y, rows):
        rows = np.array(rows, dtype=float)
        e = self.log(x, y).components
        ell = math.sqrt(max(self.ambient_inner(x, e, e), 0.0))
        if ell <= 1e-300:
            return rows
        u = e / ell
        theta = ell / self._rho
        a = self.inner_stack(rows, u)[:, None]
        vel_y = -self._sign * self._S(theta) * x.coords / self._rho + self._C(theta) * u
        return rows - a * u + a * vel_y

    def transport_stack(self, xs, ys, vs):
        vs = np.asarray(vs, dtype=float)
        e = self.log_stack(xs, ys)
        ell = np.sqrt(np.maximum(self.inner_stack(e, e), 0.0))
        still = ell <= 1e-300
        ell = np.where(still, 1.0, ell)
        u = e / ell[:, None]
        theta = ell / self._rho
        vel_y = ((-self._sign * _libm(self._S, theta))[:, None] * xs / self._rho
                 + _libm(self._C, theta)[:, None] * u)
        # per-pair rows broadcast over the vectors of a (N, k, ambient) stack
        pair = (slice(None),) + (None,) * (vs.ndim - 2)
        u, vel_y = u[pair], vel_y[pair]
        a = self.inner_stack(vs, u)[..., None]
        return np.where(still[pair][..., None], vs, vs - a * u + a * vel_y)


class Sphere(_SpaceForm):
    """Round sphere of the given radius, embedded in R^(n+1)."""

    kind = "sphere"
    _C, _S, _sign, _arc = math.cos, math.sin, 1.0, math.atan2

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = int(dim)
        self.radius = self._rho = float(radius)

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim + 1,):
            raise ValueError(f"expected {self.dim + 1} embedding coordinates")
        nrm = np.linalg.norm(coords)
        if abs(nrm - self.radius) > 1e-9 * self.radius:
            raise ValueError("point does not lie on the sphere")
        return Point(coords * (self.radius / nrm))

    def _onto(self, p):
        return p * (self.radius / np.linalg.norm(p))

    def _onto_stack(self, p):
        return p * (self.radius / np.sqrt(_rowwise_dot(p, p)))[:, None]

    def _log_refused(self, theta, nu):
        return (theta >= math.pi * (1.0 - 1e-12)) | ((nu <= 1e-12 * self.radius) & (theta > 1.0))

    def injectivity_radius(self, x=None):
        return math.pi * self.radius

    def constant_sectional(self):
        return 1.0 / self.radius**2

    def points_from_draws(self, raws):
        return self._onto_stack(raws)

    def config(self):
        return {"model": "sphere", "dim": self.dim, "radius": self.radius}


class Hyperbolic(_SpaceForm):
    """Hyperbolic space of curvature -K0, realized on the upper hyperboloid.

    Points p satisfy <p, p>_L = -1/K0 with the Minkowski form
    <a, b>_L = -a_0 b_0 + sum_i a_i b_i (time coordinate first).
    """

    kind = "hyperbolic"
    _C, _S, _sign = math.cosh, math.sinh, -1.0
    _arc_max = math.asinh(sys.float_info.max)
    # random_point's spread: moderate, so that hyperboloid coordinates stay
    # well conditioned (they grow like cosh(distance) and Minkowski products cancel)
    _SPREAD = 0.8

    def __init__(self, dim: int, curvature: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if curvature <= 0:
            raise ValueError("curvature parameter K0 must be positive")
        self.dim = int(dim)
        self.k0 = float(curvature)
        self.scale = self._rho = 1.0 / math.sqrt(self.k0)
        # below this bound on every coordinate, <p, p> sums squares of at
        # most DBL_MAX / (4 (dim + 1)) and cannot overflow
        self._coord_safe = 0.5 * math.sqrt(sys.float_info.max / (self.dim + 1))

    @staticmethod
    def _arc(s, c):
        return math.asinh(s)

    def ambient_inner(self, x, a, b):
        return float(np.dot(a[1:], b[1:]) - a[0] * b[0])

    def inner_stack(self, a, b):
        return _rowwise_dot(a[..., 1:], b[..., 1:]) - a[..., 0] * b[..., 0]

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim + 1,):
            raise ValueError(f"expected {self.dim + 1} Minkowski coordinates")
        q = self.ambient_inner(None, coords, coords)
        if abs(q + 1.0 / self.k0) > 1e-8 / self.k0 or coords[0] <= 0:
            raise ValueError("point does not lie on the upper hyperboloid")
        return Point(coords / math.sqrt(-q * self.k0))

    def base_point(self) -> Point:
        p = np.zeros(self.dim + 1)
        p[0] = self.scale
        return Point(p)

    def _near_overflow(self, x, growth):
        # x on the sheet and v tangent to it bound every coordinate of
        # C x + rho S v / |v| by (C + S) x_0
        return growth * x.coords.item(0) > self._coord_safe

    def _onto(self, p):
        q = self.ambient_inner(None, p, p)
        if abs(q * self.k0 + 1.0) <= 1e-8:
            return p / math.sqrt(-q * self.k0)
        # on long geodesics <p, p>_L cancels to noise (any sign), and rescaling
        # by it would move the point; the spatial part is still accurate
        p[0] = math.sqrt(self.scale**2 + float(np.dot(p[1:], p[1:])))
        return p

    def _onto_stack(self, p):
        q = self.inner_stack(p, p)
        on_sheet = np.abs(q * self.k0 + 1.0) <= 1e-8
        # off the sheet: recompute the time coordinate, as _onto does
        p[~on_sheet, 0] = np.sqrt(
            self.scale**2 + _rowwise_dot(p[~on_sheet, 1:], p[~on_sheet, 1:])
        )
        p[on_sheet] /= np.sqrt(-q[on_sheet] * self.k0)[:, None]
        return p

    def injectivity_radius(self, x=None):
        return INFINITE_RADIUS

    def constant_sectional(self):
        return -self.k0

    def points_from_draws(self, raws):
        apex = np.broadcast_to(self.base_point().coords, raws.shape)
        return self.exp_stack(apex, self.project_tangent_stack(apex, raws * self._SPREAD))

    def random_point(self, rng):
        o = self.base_point()
        return self.exp(o, self.random_tangent(rng, o, scale=self._SPREAD))

    def config(self):
        return {"model": "hyperbolic", "dim": self.dim, "curvature": self.k0}


class FlatTorus(Euclidean):
    """Flat torus with the given periods: Euclidean space with chart
    coordinates reduced mod the periods."""

    kind = "flat_torus"

    def __init__(self, periods: Sequence[float]):
        periods = np.asarray(periods, dtype=float)
        if periods.ndim != 1 or periods.size < 1:
            raise ValueError("periods must be a nonempty vector")
        if np.any(periods <= 0):
            raise ValueError("periods must be positive")
        self.periods = _readonly(periods)
        self.dim = int(periods.size)

    def wrap(self, coords) -> np.ndarray:
        return np.mod(np.asarray(coords, dtype=float), self.periods)

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} chart coordinates")
        return Point(self.wrap(coords))

    def _minimal_diff(self, xc, yc):
        d = yc - xc
        return (d + self.periods / 2.0) % self.periods - self.periods / 2.0

    def exp_stack(self, xs, vs):
        return self.wrap(xs + vs)

    def distance_stack(self, xs, ys):
        d = self._minimal_diff(xs, ys)
        return np.sqrt(_rowwise_dot(d, d))

    def log_stack(self, xs, ys):
        d = self._minimal_diff(xs, ys)
        bad = np.flatnonzero(np.any(self.periods / 2.0 - np.abs(d) < 1e-12 * self.periods, axis=1))
        if bad.size:
            raise GeometryDomainError(f"log_stack row {bad[0]}: log undefined at the torus cut locus")
        return d

    def injectivity_radius(self, x=None):
        return float(np.min(self.periods)) / 2.0

    @property
    def point_plan(self):
        return [("uniform", 0.0, self.periods)]

    def config(self):
        return {"model": "flat_torus", "periods": list(self.periods)}


class Product(Manifold):
    """Finite product manifold; all operations act factor by factor."""

    kind = "product"

    def __init__(self, factors: Sequence[Manifold]):
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = list(factors)
        self.dim = sum(f.dim for f in self.factors)
        sizes = [f.ambient_dim for f in self.factors]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]
        self._ambient = int(offsets[-1])

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    def ambient_inner(self, x, a, b):
        # the factors' inner products do not read the base point
        return sum(
            f.ambient_inner(None, a[s], b[s]) for f, s in zip(self.factors, self._slices)
        )

    def inner_stack(self, a, b):
        return sum(
            f.inner_stack(a[..., s], b[..., s]) for f, s in zip(self.factors, self._slices)
        )

    def _by_factor(self, method: str, *stacks) -> np.ndarray:
        """Each factor's ``method`` over its columns (the last axis) of the stacks."""
        return np.concatenate(
            [getattr(f, method)(*(a[..., s] for a in stacks))
             for f, s in zip(self.factors, self._slices)], axis=-1,
        )

    def project_tangent(self, x, ambient):
        ambient = np.asarray(ambient, dtype=float)
        return self.project_tangent_stack(x.coords[None], ambient[None])[0]

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        return Point(np.concatenate(
            [f.point(coords[s]).coords for f, s in zip(self.factors, self._slices)]))

    def exp_stack(self, xs, vs):
        return self._by_factor("exp_stack", xs, vs)

    def log_stack(self, xs, ys):
        return self._by_factor("log_stack", xs, ys)

    def distance_stack(self, xs, ys):
        return np.sqrt(sum(
            f.distance_stack(xs[:, s], ys[:, s]) ** 2 for f, s in zip(self.factors, self._slices)
        ))

    def transport_stack(self, xs, ys, vs):
        return self._by_factor("transport_stack", xs, ys, vs)

    def injectivity_radius(self, x=None):
        # no model's radius depends on the point
        return min(f.injectivity_radius() for f in self.factors)

    def constant_sectional(self):
        return None

    def curvature_rows(self, us, v, w):
        return self._by_factor("curvature_rows", us, v, w)

    def project_tangent_stack(self, xs, ambient):
        return self._by_factor("project_tangent_stack", xs, ambient)

    @property
    def point_plan(self):
        return [entry for f in self.factors for entry in f.point_plan]

    def points_from_draws(self, raws):
        return self._by_factor("points_from_draws", raws)

    def config(self):
        return {"model": "product", "factors": [f.config() for f in self.factors]}


@dataclass(frozen=True)
class GeodesicSegment:
    """Unit-speed minimizing geodesic with a parallel orthonormal frame.

    ``frame0`` rows are orthonormal tangent vectors at the start point with
    the first row equal to the initial velocity; ``frame_end`` is the same
    frame parallel-transported to the endpoint.
    """

    model: Manifold
    start: Point
    end: Point
    length: float
    frame0: np.ndarray
    frame_end: np.ndarray = field(repr=False)

    @staticmethod
    def check_lengths(lengths, radius: float) -> None:
        """Raise ``connect``'s typed error for the first of a stack of segment
        lengths that is not in (0, radius), naming its sample index."""
        lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
        bad = np.flatnonzero((lengths <= 0.0) | (lengths >= radius))
        if bad.size == 0:
            return
        i = int(bad[0])
        ell = float(lengths[i])
        if ell <= 0.0:
            raise DegenerateSegmentError(
                f"geodesic segment needs distinct endpoints (sample {i}: length {ell!r})"
            )
        raise GeometryDomainError(
            f"endpoints beyond the injectivity radius (sample {i}: length {ell!r} >= {radius!r})"
        )

    @classmethod
    def connect(cls, model: Manifold, x: Point, y: Point) -> "GeodesicSegment":
        ell = model.distance(x, y)
        cls.check_lengths(ell, min(model.injectivity_radius(x), model.injectivity_radius(y)))
        e1 = model.log(x, y).components / ell
        frame0 = model._orthonormal_rows(x, [e1])
        frame_end = _readonly(model.transport_rows(x, y, frame0))
        return cls(model, x, y, float(ell), _readonly(frame0), frame_end)

    def point_at(self, t: float) -> Point:
        if t == 0.0:
            return self.start
        return self.model.exp(self.start, TangentVector(self.start, t * self.frame0[0]))

    def frame_at(self, t: float) -> np.ndarray:
        if t == 0.0:
            return self.frame0
        if t == self.length:
            return self.frame_end
        return self.model.transport_rows(self.start, self.point_at(t), self.frame0)

    def components_at_start(self, v: TangentVector) -> np.ndarray:
        self.model._check_based(self.start, v)
        return self.model.components(v.components, self.frame0)

    def components_at_end(self, w: TangentVector) -> np.ndarray:
        self.model._check_based(self.end, w)
        return self.model.components(w.components, self.frame_end)

    def vector_at_start(self, comps) -> TangentVector:
        return TangentVector(self.start, np.asarray(comps, dtype=float) @ self.frame0)

    def vector_at_end(self, comps) -> TangentVector:
        return TangentVector(self.end, np.asarray(comps, dtype=float) @ self.frame_end)


@dataclass(frozen=True)
class SegmentStack:
    """``GeodesicSegment.connect`` over stacks of point pairs: row i of
    ``lengths``, ``frame0`` and ``frame_end`` (each frame (N, dim, ambient))
    is the segment from ``starts[i]`` to ``ends[i]``, bit for bit."""

    model: Manifold
    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    frame0: np.ndarray
    frame_end: np.ndarray = field(repr=False)

    @classmethod
    def connect(cls, model: Manifold, xs: np.ndarray, ys: np.ndarray) -> "SegmentStack":
        """The segments between the rows of two (N, ambient) point stacks;
        ``connect``'s typed error names the first row it would refuse."""
        lengths = model.distance_stack(xs, ys)
        GeodesicSegment.check_lengths(lengths, model.injectivity_radius())
        e1 = model.log_stack(xs, ys) / lengths[:, None]
        frame0 = model.canonical_frames(xs, first=e1[:, None])
        return cls(model, xs, ys, lengths, frame0, model.transport_stack(xs, ys, frame0))

    def points_at(self, ts: np.ndarray) -> np.ndarray:
        """``point_at`` for an (N, k) stack of parameters, row i along
        segment i: shape (N, k, ambient)."""
        ts = np.asarray(ts, dtype=float)
        starts = np.broadcast_to(self.starts[:, None], ts.shape + self.starts.shape[-1:])
        steps = ts[..., None] * self.frame0[:, None, 0]
        width = starts.shape[-1]
        moved = self.model.exp_stack(starts.reshape(-1, width), steps.reshape(-1, width))
        return np.where((ts == 0.0)[..., None], starts, moved.reshape(starts.shape))


# ---------------------------------------------------------------------- #
# JSON model descriptions                                                #
# ---------------------------------------------------------------------- #

def from_config(cfg: dict) -> Manifold:
    """Build a manifold from its JSON description.

    Examples: ``{"model": "sphere", "dim": 2, "radius": 1.0}``,
    ``{"model": "hyperbolic", "dim": 2, "curvature": 1.0}``,
    ``{"model": "flat_torus", "periods": [1.0, 1.0]}``,
    ``{"model": "product", "factors": [...]}``.
    """
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise UnsupportedModelError("model description must be a dict with 'model'")
    kind = cfg["model"]
    if kind == "euclidean":
        return Euclidean(int(cfg["dim"]))
    if kind == "sphere":
        return Sphere(int(cfg["dim"]), float(cfg.get("radius", 1.0)))
    if kind == "hyperbolic":
        return Hyperbolic(int(cfg["dim"]), float(cfg.get("curvature", 1.0)))
    if kind == "flat_torus":
        return FlatTorus(cfg["periods"])
    if kind == "product":
        return Product([from_config(sub) for sub in cfg["factors"]])
    raise UnsupportedModelError(f"unknown model kind {kind!r}")
