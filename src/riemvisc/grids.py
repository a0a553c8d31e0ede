"""Geodesic grids with monotone semi-Lagrangian stencils.

Two compact computational domains are supported: the round 2-sphere
(icosphere mesh, ``10 * 4^res + 2`` nodes) and the flat 2-torus
(``res x res`` lattice).  Each node carries a canonical tangent frame and,
for every stencil direction ``delta``, interpolation weights that evaluate
a grid function at ``exp_x(h * delta)``.  The weights are nonnegative and
sum to one, which is what makes the induced difference scheme monotone.

The stencil step ``h`` is wider than the mesh spacing on the sphere
(``h ~ sqrt(edge)``): linear interpolation error ``O(edge^2)`` enters the
second differences divided by ``h^2``, so the wide stencil balances the
two error sources at first order in the mesh size.  On the torus the
stencil step defaults to the lattice spacing and the scheme reduces to
classical central differences.

The icosphere is built in array form (integer edge keys, batched frames).
A stencil point is interpolated in the nearest-centroid face containing
it, searched over a kd-tree short list, with brute force for the rare miss.
The stencils of one step form one direction-major sparse operator
(``Grid.stack``, ``n_dirs N x N``: row ``k N + i`` interpolates at
``exp_{x_i}(h d_k)``), so one mat-vec gathers every stencil value; the
per-direction matrices (``Grid.stencils``) are views into its buffers.
Geodesic distances between nodes are computed in blocks of rows
(``Grid.row_blocks``) of a fixed number of entries, so no N x N matrix is
ever held.  ``Grid.distances_within`` keeps, per block, only the pairs
within a per-row reach: it tests the block's Gram entries (sphere) or
squared distances (torus), and takes the arc or the root of the kept
entries alone, each bitwise the entry of ``Grid.distance_rows``.  The pairs
within a small spacing (``Grid._pair_blocks``, for the modulus) come from a
k-d tree instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sparse
from scipy.spatial import cKDTree

from .errors import PreconditionError, UnsupportedModelError
from .manifolds import FlatTorus, Manifold, Point, Sphere, _rowwise_dot

_EPS_WEIGHT = 1e-12
_SHORT_LIST = 6  # nearest-centroid faces tried per stencil point before brute force
_BLOCK_ENTRIES = 1 << 20  # distances per row block of Grid.row_blocks (8 MB)
# relative loosening of a reach in Grid.distances_within: far above the few
# ulps by which the arc (arccos) or the root can move a distance
_REACH_SLACK = 1e-12


def icosahedron():
    """Unit icosahedron: 12 vertices, 20 anticlockwise faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _edge_keys(faces: np.ndarray, n_verts: int):
    """Edges ab, bc, ca of every face in turn, and one integer key per undirected edge."""
    ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    return ends, ends.min(axis=1) * n_verts + ends.max(axis=1)


def icosphere(subdivisions: int):
    """Icosahedron subdivided ``subdivisions`` times, projected to the unit sphere.

    New midpoints are numbered in the order the faces first meet their edges.
    """
    verts, faces = icosahedron()
    for _ in range(subdivisions):
        n = verts.shape[0]
        ends, key = _edge_keys(faces, n)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # unique edges in first-encounter order
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ab, bc, ca = (n + rank[inverse.ravel()]).reshape(-1, 3).T
        mid = ends[first[order]]
        p = verts[mid[:, 0]] + verts[mid[:, 1]]
        verts = np.concatenate([verts, p / np.sqrt(_rowwise_dot(p, p))[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return verts, faces


def _mesh_edges(faces: np.ndarray) -> np.ndarray:
    n = int(faces.max()) + 1
    key = np.unique(_edge_keys(faces, n)[1])
    return np.stack([key // n, key % n], axis=1)


def stencil_directions(n: int) -> list[np.ndarray]:
    """Frame-coefficient unit vectors: +-e_i, then +-(e_i+e_j)/sqrt2, +-(e_i-e_j)/sqrt2."""
    eye, inv = np.eye(n), 1.0 / math.sqrt(2.0)
    dirs = [s * e for e in eye for s in (1.0, -1.0)]
    for i in range(n):
        for j in range(i + 1, n):
            for d in (inv * (eye[i] + eye[j]), inv * (eye[i] - eye[j])):
                dirs.extend([d, -d])
    return dirs


@dataclass
class Grid:
    """Nodes, frames, and monotone interpolation stencils on a compact model."""

    model: Manifold
    resolution: int
    coords: np.ndarray
    frames: np.ndarray
    h: float
    dirs: list[np.ndarray]
    stack: sparse.csr_matrix  # direction-major (n_dirs N x N) stencil operator at step h
    stencils: list[sparse.csr_matrix]  # its per-direction views
    edges: np.ndarray
    faces: np.ndarray | None = None
    _nodes: list[Point] | None = field(default=None, repr=False)
    _stencil_builder: Callable | None = field(default=None, repr=False)
    _stencil_cache: dict = field(default_factory=dict, repr=False)

    def stack_for(self, step: float) -> sparse.csr_matrix:
        """The direction-major stencil operator for an arbitrary step (cached)."""
        if abs(step - self.h) <= 1e-15:
            return self.stack
        if step not in self._stencil_cache:
            if self._stencil_builder is None:
                raise PreconditionError("grid carries no stencil builder")
            self._stencil_cache[step] = self._stencil_builder(step)
        return self._stencil_cache[step]

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def nodes(self) -> list[Point]:
        if self._nodes is None:
            self._nodes = [Point(c) for c in self.coords]
        return self._nodes

    def mean_edge_length(self) -> float:
        a, b = self.edges[:, 0], self.edges[:, 1]
        if isinstance(self.model, Sphere):
            r = self.model.radius
            dots = np.einsum("ij,ij->i", self.coords[a], self.coords[b]) / r**2
            return float(np.mean(r * np.arccos(np.clip(dots, -1.0, 1.0))))
        diff = self.coords[a] - self.coords[b]
        per = self.model.periods
        diff = _wrap_half(diff, per)
        return float(np.mean(np.linalg.norm(diff, axis=1)))

    def _block_measure(self, start: int, stop: int) -> np.ndarray:
        """The Gram block ``x C^T`` (sphere) or the wrapped squared distances
        (torus) of rows ``start <= i < stop`` against every node."""
        x = self.coords[start:stop]
        if isinstance(self.model, Sphere):
            return x @ self.coords.T
        d2 = 0.0  # axis by axis: 2.2x faster than one (axis, row, node) array
        for a, c, per in zip(x.T, self.coords.T, self.model.periods):
            diff = _wrap_half(a[:, None] - c[None, :], per)
            d2 = d2 + diff * diff
        return d2

    def _from_measure(self, measure: np.ndarray) -> np.ndarray:
        """Distances from entries of ``_block_measure``, in place on the sphere."""
        if isinstance(self.model, Sphere):
            return self._sphere_arc(measure)
        return np.sqrt(measure)

    def distance_rows(self, start: int, stop: int) -> np.ndarray:
        """Geodesic distances d(i, j) for rows ``start <= i < stop`` and every node j.

        Self-distances are exactly 0 (the sphere's arccos would leave ~1e-8).
        """
        d = self._from_measure(self._block_measure(start, stop))
        d[np.arange(stop - start), np.arange(start, stop)] = 0.0
        return d

    def distances_within(self, start: int, stop: int, reach: np.ndarray):
        """Index arrays ``(i, j)`` and distances ``d(i, j)``, in row-major
        order, of the pairs of rows ``start <= i < stop`` with
        ``d(i, j) <= reach[i - start]``; a row whose reach is negative or NaN
        keeps nothing.

        Each ``d`` is bitwise the entry of ``distance_rows(start, stop)``: the
        reach is tested on the same block of ``_block_measure``, and only the
        kept entries are turned into distances.  The test is loosened by
        ``_REACH_SLACK`` (relative, plus as much of r^2 in the Gram entry), so
        it keeps every pair within the reach and may keep a few just past it.
        """
        reach = np.asarray(reach, dtype=float)
        live = reach >= 0.0
        if not np.any(live):
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, np.empty(0)
        measure = self._block_measure(start, stop)
        if isinstance(self.model, Sphere):
            # past pi the bound, r^2 (-1 - slack), is below every Gram entry
            r = self.model.radius
            angle = np.minimum(reach / r * (1.0 + _REACH_SLACK), math.pi)
            bound = np.where(live, r**2 * (np.cos(angle) - _REACH_SLACK), np.inf)
            keep = measure >= bound[:, None]
        else:
            bound = np.where(live, reach**2 * (1.0 + _REACH_SLACK), -np.inf)
            keep = measure <= bound[:, None]
        flat = np.flatnonzero(keep)  # 3x faster than a 2-d nonzero
        rows, cols = np.divmod(flat, self.n_nodes)
        d = self._from_measure(measure.ravel()[flat])
        rows += start
        d[rows == cols] = 0.0
        return rows, cols, d

    def _sphere_arc(self, dots: np.ndarray) -> np.ndarray:
        """``r arccos(clip(dots / r^2))``, computed in place in ``dots`` so a
        row block of the Gram matrix needs no second block beside it."""
        r = self.model.radius
        dots /= r**2
        np.clip(dots, -1.0, 1.0, out=dots)
        np.arccos(dots, out=dots)
        dots *= r
        return dots

    def row_blocks(self):
        """Yield ``(start, stop)`` over row blocks of at most ``_BLOCK_ENTRIES``
        distances that cover all nodes."""
        height = max(1, _BLOCK_ENTRIES // self.n_nodes)
        for start in range(0, self.n_nodes, height):
            yield start, min(start + height, self.n_nodes)

    def _pair_blocks(self, spacing: float):
        """Yield index arrays ``(i, j)`` of the entries of ``distance_rows``
        with d(i, j) <= spacing (both orders, self-pairs aside), over
        ``row_blocks``, so at most ``_BLOCK_ENTRIES``
        candidates at a time.

        Chord length is monotone in geodesic distance, so a k-d tree query
        at a slightly wider chord radius (periodic on the torus) finds every
        such pair; the exact formula then keeps the pair set identical to a
        full pass.
        """
        reach = max(spacing, 0.0)
        if isinstance(self.model, Sphere):
            r = self.model.radius
            # the arccos formula is off by up to ~2e-8 r near coincident nodes
            chord = 2.0 * r * math.sin(min(reach / (2.0 * r), math.pi / 2.0))
            radius, box = chord * (1.0 + 1e-9) + 1e-7 * r, None
        else:
            box = self.model.periods
            radius = reach * (1.0 + 1e-9) + 1e-12 * float(np.max(box))
        tree = cKDTree(self.coords, boxsize=box)
        for start, stop in self.row_blocks():
            block = cKDTree(self.coords[start:stop], boxsize=box)
            near = block.sparse_distance_matrix(tree, radius, output_type="ndarray")
            i, j = near["i"] + start, near["j"]
            if isinstance(self.model, Sphere):
                d = self._sphere_arc(_rowwise_dot(self.coords[i], self.coords[j]))
            else:
                d2 = 0.0
                for a, c, p in zip(self.coords[i].T, self.coords[j].T, box):
                    diff = _wrap_half(a - c, p)
                    d2 = d2 + diff * diff
                d = np.sqrt(d2)
            yield i[d <= spacing], j[d <= spacing]

    def modulus_at_spacing(self, values: np.ndarray, spacing: float) -> float:
        """max |f(a) - f(b)| over node pairs with d(a, b) <= spacing."""
        worst = 0.0
        for i, j in self._pair_blocks(spacing):
            worst = max(worst, float(np.max(np.abs(values[i] - values[j]), initial=0.0)))
        return worst


def _wrap_half(diff: np.ndarray, period: float | np.ndarray) -> np.ndarray:
    """Coordinate differences in (-period, period) reduced into
    [-period/2, period/2), in place.

    Compare and shift by one period: both shifts are exact (Sterbenz), and
    about 3x faster than the remainder ``(diff + p/2) % p - p/2``, which
    rounds ``diff + p/2`` and so differs from this by at most 1 ulp of p.
    """
    half = period / 2.0
    np.subtract(diff, period, out=diff, where=diff >= half)
    np.add(diff, period, out=diff, where=diff < -half)
    return diff


@dataclass
class GridFunction:
    """Scalar values attached to the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values must be one scalar per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "GridFunction":
        return cls(grid, np.full(grid.n_nodes, float(c)))


def _sphere_stencils(model: Sphere, verts, faces, frames, h, dirs, inv_corners, tree):
    """Stencil stack at step ``h``; ``inv_corners`` maps a point to barycentrics
    per face, ``tree`` is the kd-tree of the face centroids on the sphere."""
    n_nodes = verts.shape[0]
    k = min(_SHORT_LIST, faces.shape[0])
    theta = h / model.radius

    # three entries per row, so the CSR arrays are filled in place
    nnz = 3 * len(dirs) * n_nodes
    index = np.int32 if nnz < 2**31 else np.int64
    cols = np.empty((len(dirs), n_nodes, 3), dtype=index)
    vals = np.empty((len(dirs), n_nodes, 3))
    for row, d in enumerate(dirs):
        tangent = np.einsum("k,nka->na", d, frames)
        pts = math.cos(theta) * verts + math.sin(theta) * model.radius * tangent
        pts *= model.radius / np.linalg.norm(pts, axis=1, keepdims=True)
        _, cand = tree.query(pts, k=k)
        cand = cand.reshape(n_nodes, k)
        # the nearest-centroid face that contains the point, tried
        # candidate by candidate on the points not yet placed
        chosen = np.empty(n_nodes, dtype=np.int64)
        w = np.empty((n_nodes, 3))
        todo = np.arange(n_nodes)
        for j in range(k):
            face = cand[todo, j]
            bary = np.einsum("nab,nb->na", inv_corners[face], pts[todo])
            ok = bary.min(axis=1) >= -1e-10
            chosen[todo[ok]] = face[ok]
            w[todo[ok]] = bary[ok]
            todo = todo[~ok]
        if todo.size:
            # rare fallback: brute-force the few misses
            all_bary = np.einsum("fab,nb->nfa", inv_corners, pts[todo])
            best = np.argmax(all_bary.min(axis=2), axis=1)
            chosen[todo] = best
            w[todo] = all_bary[np.arange(todo.size), best]
        w = np.clip(w, 0.0, None)
        w /= w.sum(axis=1, keepdims=True)
        corners = faces[chosen]
        order = np.argsort(corners, axis=1)  # canonical CSR: columns ascending
        cols[row] = np.take_along_axis(corners, order, axis=1)
        vals[row] = np.take_along_axis(w, order, axis=1)
    indptr = np.arange(0, nnz + 1, 3, dtype=index)
    return sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(len(dirs) * n_nodes, n_nodes)
    )


def _torus_stencils(model: FlatTorus, coords, h, dirs, res):
    n_nodes = coords.shape[0]
    spacing = model.periods / res
    cols, vals = [], []
    for d in dirs:
        pts = coords + h * d  # frame is the coordinate axes
        s = pts / spacing
        base = np.floor(s)
        frac = s - base
        snap = frac < 1e-9
        frac = np.where(snap, 0.0, frac)
        base = base.astype(np.int64)
        i0 = np.mod(base[:, 0], res)
        j0 = np.mod(base[:, 1], res)
        i1 = np.mod(base[:, 0] + 1, res)
        j1 = np.mod(base[:, 1] + 1, res)
        fx, fy = frac[:, 0], frac[:, 1]
        for ii, jj, ww in [
            (i0, j0, (1 - fx) * (1 - fy)),
            (i1, j0, fx * (1 - fy)),
            (i0, j1, (1 - fx) * fy),
            (i1, j1, fx * fy),
        ]:
            cols.append(ii * res + jj)
            vals.append(ww)
    # row k N + i: node i in direction k; duplicates summed, columns sorted
    rows = np.tile(np.arange(n_nodes), 4 * len(dirs))
    rows += np.repeat(n_nodes * np.arange(len(dirs)), 4 * n_nodes)
    stack = sparse.csr_matrix(
        (np.concatenate(vals), (rows, np.concatenate(cols))),
        shape=(len(dirs) * n_nodes, n_nodes),
    )
    stack.eliminate_zeros()
    return stack


def _direction_views(stack: sparse.csr_matrix, n_dirs: int) -> list[sparse.csr_matrix]:
    """The N x N block of every direction, sharing the stack's ``data`` and
    ``indices`` (read-only, so no in-place sparse method can alter the stack).

    The blocks are assembled attribute by attribute: the CSR constructor
    copies a slice that is much smaller than the array it views.
    """
    n = stack.shape[1]
    views = []
    for k in range(n_dirs):
        lo, hi = stack.indptr[k * n], stack.indptr[(k + 1) * n]
        view = sparse.csr_matrix((n, n), dtype=stack.dtype)
        view.data, view.indices = stack.data[lo:hi], stack.indices[lo:hi]
        view.indptr = stack.indptr[k * n:(k + 1) * n + 1] - lo
        for arr in (view.data, view.indices, view.indptr):
            arr.flags.writeable = False
        views.append(view)
    return views


def _check_stencil_invariants(grid: Grid):
    mat = grid.stack
    if mat.data.size and mat.data.min() < -_EPS_WEIGHT:
        raise PreconditionError("stencil weights must be nonnegative")
    sums = np.asarray(mat.sum(axis=1)).ravel()
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise PreconditionError("stencil weights must sum to one")
    if not grid.h < grid.model.injectivity_radius() / 4.0:
        raise PreconditionError("stencil step must stay below a quarter injectivity radius")


def build_grid(model: Manifold, resolution: int, h: float | None = None) -> Grid:
    """Build the geodesic grid for a 2-sphere or flat 2-torus model.

    ``resolution`` is the icosphere subdivision count (sphere) or the
    lattice size per axis (torus).  ``h`` overrides the stencil step.
    """
    dirs = stencil_directions(2)
    if isinstance(model, Sphere) and model.dim == 2:
        verts, faces = icosphere(resolution)
        coords = verts * model.radius
        frames = model.canonical_frames(coords)
        edges = _mesh_edges(faces)
        corners = coords[faces]                                  # (F, 3, 3)
        inv_corners = np.linalg.inv(corners.transpose(0, 2, 1))  # maps p -> barycentric
        centroids = corners.mean(axis=1)
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True) / model.radius
        tree = cKDTree(centroids)

        def default_step(grid):
            return 1.15 * math.sqrt(grid.mean_edge_length() * model.radius)

        def builder(step):
            return _sphere_stencils(model, coords, faces, frames, step, dirs, inv_corners, tree)

    elif isinstance(model, FlatTorus) and model.dim == 2:
        resolution = res = int(resolution)
        spacing = model.periods / res
        ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
        coords = np.stack([ii.ravel() * spacing[0], jj.ravel() * spacing[1]], axis=1)
        frames = np.tile(np.eye(2), (coords.shape[0], 1, 1))
        faces = None
        idx = np.arange(res * res).reshape(res, res)
        right = np.stack([idx.ravel(), np.roll(idx, -1, axis=0).ravel()], axis=1)
        up = np.stack([idx.ravel(), np.roll(idx, -1, axis=1).ravel()], axis=1)
        edges = np.concatenate([right, up])

        def default_step(grid):
            # lattice-aligned when possible (exact central differences)
            return float(np.min(spacing))

        def builder(step):
            return _torus_stencils(model, coords, step, dirs, res)

    else:
        raise UnsupportedModelError(
            "grids are built for Sphere(2, r) and two-dimensional flat tori only"
        )
    grid = Grid(
        model, resolution, coords, frames, math.nan, dirs, None, [], edges, faces,
        _stencil_builder=builder,
    )
    if h is None:
        h = min(default_step(grid), 0.9 * model.injectivity_radius() / 4.0)
    grid.h = float(h)
    grid.stack = builder(grid.h)
    grid.stencils = _direction_views(grid.stack, len(dirs))
    _check_stencil_invariants(grid)
    return grid


def geodesic_ball_interior(grid: Grid, center: int, radius: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the geodesic ball around a node."""
    return grid.distance_rows(center, center + 1)[0] < radius
