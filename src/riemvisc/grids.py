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

The icosphere is built in array form (integer edge keys, batched frames),
keeping the faces of every level of the subdivision.  A stencil point is
interpolated in the nearest-centroid face containing it, found by
descending the subdivision from the icosahedron face of nearest centre and
then testing the faces around the corners of the face reached
(``_FaceLocator``); there is no k-d tree, so ``scipy.spatial`` is never
imported.  The descent works on columns: each level keeps the
nine coordinates of its corner children's cut normals as nine contiguous
arrays over the parent faces, and the points as their x, y and z columns,
so a level is nine gathers, their products and sums, and a choice of child
by comparisons, with no per-point small matrix.  The rest of a stencil is
column arithmetic too: the barycentrics are gathers from the faces'
corner inverses, held as nine contiguous columns, and the stencil points
and weights are built coordinate by coordinate.  Each sum keeps the order
of the array expression it replaced (``einsum``, ``np.linalg.norm``, a row
sum), so every stencil array is bitwise what those gave.
The nodes are one ``(N, ambient)`` array, ``Grid.coords``, which the
solver hands to operator contexts.
The stencils of one step form one direction-major sparse operator
(``Grid.stack``, ``n_dirs N x N``: row ``k N + i`` interpolates at
``exp_{x_i}(h d_k)``), so one mat-vec gathers every stencil value; the
per-direction matrices (``Grid.stencils``) are views into its buffers.
``scipy.sparse`` is imported by the builders of these matrices, so it loads
with the first grid and not with the package.
Geodesic distances between nodes are computed in blocks of rows
(``Grid.row_blocks``) of a fixed number of entries, so no N x N matrix is
ever held.  ``Grid.distances_within`` keeps, per block, only the pairs
within a per-row reach: it tests the block's Gram entries (sphere) or
squared distances (torus), and takes the arc or the root of the kept
entries alone, each bitwise the entry of ``Grid.distance_rows``.  The pairs
within a small spacing (``Grid.modulus_at_spacing``) are tested the same
way, with the nodes sorted by one coordinate and each block of rows met
only by the slab of columns within the chord of the spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import PreconditionError, UnsupportedModelError
from .manifolds import FlatTorus, Manifold, Sphere, _rowwise_dot

if TYPE_CHECKING:
    import scipy.sparse as sparse

_EPS_WEIGHT = 1e-12
_BLOCK_ENTRIES = 1 << 20  # distances per row block of Grid.row_blocks (8 MB)
# entries per block of Grid.modulus_at_spacing: its Gram products (k = 3) stay
# below 2^18 / 3 entries, where OpenBLAS starts to thread one, which took
# 4-20x longer per entry, and varied 4x from run to run, on two cores
_SLAB_ENTRIES = 1 << 16
# relative loosening of a reach in Grid._reach_test: far above the few
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
    a, b = ends.T
    return ends, np.minimum(a, b) * n_verts + np.maximum(a, b)


def icosphere(subdivisions: int):
    """Icosahedron subdivided ``subdivisions`` times, projected to the unit
    sphere: the vertices, the faces of every level, coarsest first, and per
    subdivision the ``(new vertices, 2)`` ends of the edge each new vertex
    bisects.

    New midpoints are numbered in the order the faces first meet their edges,
    after every vertex of the coarser levels, so one vertex array serves all
    levels.  The children of face j are faces 4j ... 4j+3 of the next level:
    the corner children of its corners a, b, c, then the centre child.
    """
    verts, faces = icosahedron()
    levels, parents = [faces], []
    for _ in range(subdivisions):
        n = verts.shape[0]
        ends, key = _edge_keys(faces, n)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # unique edges in first-encounter order
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ab, bc, ca = (n + rank[inverse.ravel()]).reshape(-1, 3).T
        mid = ends[first[order]]
        parents.append(mid)
        p = verts[mid[:, 0]] + verts[mid[:, 1]]
        verts = np.concatenate([verts, p / np.sqrt(_rowwise_dot(p, p))[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        levels.append(faces)
    return verts, levels, parents


def _mesh_edges(faces: np.ndarray) -> np.ndarray:
    """The ``(E, 2)`` edges ``a < b`` of a closed, consistently oriented
    triangle mesh, in ascending order of ``(a, b)``.

    Every edge is the half-edge a -> b of one face and b -> a of the other,
    so the half-edges with a < b are the edges, each once: one sort of their
    keys lists them, with no deduplication.
    """
    n = int(faces.max()) + 1
    a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    key = np.sort((a * n + b)[a < b])
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
    faces: np.ndarray | None = None
    parents: list[np.ndarray] | None = None  # sphere: icosphere's midpoint ends per level
    _stencil_builder: Callable | None = field(default=None, repr=False)
    _stencil_cache: dict = field(default_factory=dict, repr=False)
    _prolongations: list | None = field(default=None, repr=False)

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

    def prolongations(self) -> list[sparse.csr_matrix]:
        """Interpolation matrices (fine nodes x coarse nodes) down the grid's
        hierarchy, finest first; built at the first call (the solver's first
        Newton solve on the grid) and cached.

        On the sphere the levels are the icosphere's subdivisions: the nodes
        of a level are the first nodes of the next, and a midpoint takes the
        mean of the two ends of the edge it bisects.  On the torus the lattice
        is halved while its size is even, with bilinear periodic
        interpolation: a fine lattice index ``2I + 1`` takes the mean of the
        coarse indices ``I`` and ``I + 1`` (mod the coarse size) on each axis.
        """
        if self._prolongations is None:
            self._prolongations = (
                _torus_prolongations(self.resolution) if self.parents is None
                else _sphere_prolongations(self.n_nodes, self.parents)
            )
        return self._prolongations

    @property
    def nodes(self) -> np.ndarray:
        """``coords`` itself, under the name that ``benchmark/probes.py`` reads."""
        return self.coords

    def _measure(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The Gram block ``x c^T`` (sphere) or the wrapped squared distances
        (torus) of the points ``x`` against the nodes ``c``."""
        if isinstance(self.model, Sphere):
            return x @ c.T
        d2 = 0.0  # axis by axis: 2.2x faster than one (axis, row, node) array
        for a, b, per in zip(x.T, c.T, self.model.periods):
            diff = _wrap_half(a[:, None] - b[None, :], per)
            d2 = d2 + diff * diff
        return d2

    def _reach_test(self, measure: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """Mask of the entries of a ``_measure`` block within the reach of
        their row, loosened by ``_REACH_SLACK`` (relative, plus as much of r^2
        in the Gram entry); a negative or NaN reach keeps nothing."""
        live = reach >= 0.0
        if isinstance(self.model, Sphere):
            # past pi the bound, r^2 (-1 - slack), is below every Gram entry
            r = self.model.radius
            angle = np.minimum(reach / r * (1.0 + _REACH_SLACK), math.pi)
            bound = np.where(live, r**2 * (np.cos(angle) - _REACH_SLACK), np.inf)
            return measure >= bound[:, None]
        bound = np.where(live, reach**2 * (1.0 + _REACH_SLACK), -np.inf)
        return measure <= bound[:, None]

    def _from_measure(self, measure: np.ndarray) -> np.ndarray:
        """Distances from entries of ``_measure``, in place on the sphere."""
        if isinstance(self.model, Sphere):
            return self._sphere_arc(measure)
        return np.sqrt(measure)

    def distance_rows(self, start: int, stop: int) -> np.ndarray:
        """Geodesic distances d(i, j) for rows ``start <= i < stop`` and every node j.

        Self-distances are exactly 0 (the sphere's arccos would leave ~1e-8).
        """
        d = self._from_measure(self._measure(self.coords[start:stop], self.coords))
        d[np.arange(stop - start), np.arange(start, stop)] = 0.0
        return d

    def distances_within(self, start: int, stop: int, reach: np.ndarray):
        """Index arrays ``(i, j)`` and distances ``d(i, j)``, in row-major
        order, of the pairs of rows ``start <= i < stop`` with
        ``d(i, j) <= reach[i - start]``; a row whose reach is negative or NaN
        keeps nothing.

        Each ``d`` is bitwise the entry of ``distance_rows(start, stop)``: the
        reach is tested on the same block of ``_measure``, and only the kept
        entries are turned into distances.  The test is loosened by
        ``_REACH_SLACK`` (``_reach_test``), so it keeps every pair within the
        reach and may keep a few just past it.
        """
        reach = np.asarray(reach, dtype=float)
        live = reach >= 0.0
        if not np.any(live):
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, np.empty(0)
        measure = self._measure(self.coords[start:stop], self.coords)
        keep = self._reach_test(measure, reach)
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

    def modulus_at_spacing(self, values: np.ndarray, spacing: float) -> float:
        """max |f(a) - f(b)| over node pairs with d(a, b) <= spacing; 0 for a
        negative or NaN spacing.

        The nodes are taken in the order of their first coordinate, in row
        blocks of at most ``_SLAB_ENTRIES`` entries.  A block meets only the
        window of columns whose first coordinate lies within the chord of the
        spacing (on the torus: the spacing, around the circle) of one of its
        own, so no pair within the spacing lies outside it.  Only the entries
        that pass ``_reach_test`` are turned into distances, by the formula of
        ``distance_rows``.
        """
        if not spacing >= 0.0:
            return 0.0
        order = np.argsort(self.coords[:, 0], kind="stable")
        coords, f = self.coords[order], np.asarray(values, dtype=float)[order]
        n = self.n_nodes
        if isinstance(self.model, Sphere):
            r = self.model.radius
            # the arccos formula is off by up to ~2e-8 r near coincident nodes
            chord = 2.0 * r * math.sin(min(spacing / (2.0 * r), math.pi / 2.0))
            chord, period = chord * (1.0 + 1e-9) + 1e-7 * r, math.inf
        else:
            period = float(self.model.periods[0])
            chord = spacing * (1.0 + 1e-9) + 1e-12 * period
        # the sorted nodes a turn back, as they are, and a turn on: a window
        # is one run of at most n of them
        key = coords[:, 0]
        ring = np.concatenate([key - period, key, key + period])
        lo = np.searchsorted(ring, key - chord, side="left")
        hi = np.minimum(np.searchsorted(ring, key + chord, side="right"), lo + n)
        coords, f = np.concatenate([coords] * 3), np.concatenate([f] * 3)
        reach = np.array([spacing])
        worst, start = 0.0, 0
        while start < n:
            # a tall block whose window keeps it within _SLAB_ENTRIES: windows
            # widen down the block, so each pass shortens it
            first = lo[start]
            stop = min(n, start + max(1, _SLAB_ENTRIES // (hi[start] - first)))
            while stop - start > 1 and (stop - start) * (hi[stop - 1] - first) > _SLAB_ENTRIES:
                stop = start + max(1, _SLAB_ENTRIES // (hi[stop - 1] - first))
            last = min(hi[stop - 1], first + n)
            measure = self._measure(coords[n + start:n + stop], coords[first:last])
            flat = np.flatnonzero(self._reach_test(measure, reach))
            i, j = np.divmod(flat, last - first)
            near = self._from_measure(measure.ravel()[flat]) <= spacing
            gap = np.abs(f[n + start + i[near]] - f[first + j[near]])
            worst = max(worst, float(np.max(gap, initial=0.0)))
            start = stop
        return worst


def _sphere_prolongations(n_fine: int, parents: list[np.ndarray]) -> list[sparse.csr_matrix]:
    import scipy.sparse as sparse

    mats = []
    for mid in reversed(parents):
        n_coarse = n_fine - mid.shape[0]
        cols = np.concatenate([np.arange(n_coarse), np.sort(mid, axis=1).ravel()])
        vals = np.concatenate([np.ones(n_coarse), np.full(mid.size, 0.5)])
        indptr = np.concatenate([np.arange(n_coarse + 1),
                                 n_coarse + 2 * np.arange(1, mid.shape[0] + 1)])
        mats.append(sparse.csr_matrix((vals, cols, indptr), shape=(n_fine, n_coarse)))
        n_fine = n_coarse
    return mats


def _torus_prolongations(res: int) -> list[sparse.csr_matrix]:
    import scipy.sparse as sparse

    mats = []
    while res % 2 == 0:
        res //= 2
        # rows 2I and 2I + 1 take 0.5 at columns (I, I) and (I, I + 1)
        coarse = np.arange(res)
        cols = np.stack([coarse, coarse, coarse, (coarse + 1) % res], axis=1).ravel()
        axis = sparse.csr_matrix(
            (np.full(4 * res, 0.5), (np.repeat(np.arange(2 * res), 2), cols)),
            shape=(2 * res, res),
        )
        mats.append(sparse.kron(axis, axis, format="csr"))
    return mats


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


def _vertex_rings(faces: np.ndarray, n_verts: int) -> np.ndarray:
    """(V, R) faces around every vertex, R the largest valence; a vertex of
    fewer faces repeats its first one."""
    flat = faces.ravel()
    order = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=n_verts)
    start = np.cumsum(count) - count
    ring = np.repeat((order[start] // 3)[:, None], count.max(), axis=1)
    ring[flat[order], np.arange(flat.size) - np.repeat(start, count)] = order // 3
    return ring


def _gather_dot(cols: np.ndarray, idx: np.ndarray, x, y, z, out=None) -> np.ndarray:
    """``cols[:, idx]`` dotted with the points' x, y and z columns: three
    gathers from the three contiguous rows of ``cols``, summed as einsum sums
    a length-3 product over C-ordered rows, ``(x term + z term) + y term``
    (einsum starts from +0.0, so it has +0.0 where this may have -0.0)."""
    s = np.multiply(cols[0].take(idx), x, out=out)
    s += cols[2].take(idx) * z
    s += cols[1].take(idx) * y
    return s


@dataclass(frozen=True)
class _FaceLocator:
    """The nearest-centroid face that contains a point on the sphere, found by
    descending the subdivision from the icosahedron face of nearest centre.

    The midpoints are pushed radially onto the sphere, so the cones (from the
    centre) of a face's four children tile its cone exactly: each level needs
    one test against the three planes that cut off the corner children.  The
    test runs on columns: ``normals[level][k, b]`` is the b-th coordinate of
    corner child k's normal for every parent face, one contiguous array, so
    side k of every point is three gathers from it times the point's x, y and
    z columns (``_gather_dot``); the child is the first side of positive
    maximum, else the centre child.  The barycentrics are read the same way
    from ``inverses``, the LAPACK inverses of the faces' corner matrices held
    as nine contiguous columns, after the descent and in the ring fallback:
    bitwise the einsum ``"nab,nb->na"`` over the gathered ``(n, 3, 3)``
    inverses and C-ordered points.
    """

    faces: np.ndarray        # (F, 3) finest faces
    inverses: np.ndarray     # (3, 3, F): [a, b] entry (a, b) of every face's map p -> barycentrics
    centroids: np.ndarray    # (F, 3) face centroids pushed onto the sphere
    top: np.ndarray          # (3, 20): the 20 icosahedron face centres, one per column
    normals: list            # per finer level: (3, 3, F_parent), [k, b] the b-th coordinate
                             # of the normal positive on corner child k, one column per face
    ring: np.ndarray         # (V, R) faces around every vertex

    @classmethod
    def build(cls, coords: np.ndarray, levels: list[np.ndarray], radius: float) -> "_FaceLocator":
        faces = levels[-1]
        corners = coords[faces]                                  # (F, 3, 3)
        centroids = corners.mean(axis=1)
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True) / radius
        inverses = np.linalg.inv(corners.transpose(0, 2, 1))     # maps p -> barycentric
        del corners  # before the columns are copied out, so three (F, 3, 3) arrays never meet
        inverses = np.ascontiguousarray(inverses.transpose(1, 2, 0))
        top = coords[levels[0]].sum(axis=1).T
        # corner child [v, m1, m2] lies on the positive side of m1 x m2
        normals = []
        for children in levels[1:]:
            child = children.reshape(-1, 4, 3)[:, :3]
            cut = np.cross(coords[child[..., 1]], coords[child[..., 2]])
            normals.append(np.ascontiguousarray(cut.transpose(1, 2, 0)))
        return cls(faces, inverses, centroids, top, normals,
                   _vertex_rings(faces, coords.shape[0]))

    def locate(self, pts: np.ndarray):
        """Face index and barycentrics ``(n, 3)`` of every point; the face is
        -1 (and the barycentrics those in the descended face) where no face
        contains it.  The barycentrics are the transpose of three contiguous
        rows, one per corner.

        The descent ends in a face that contains the point up to roundoff.  A
        point that is not well inside it (minimum barycentric below 1e-8, or
        NaN) may lie in another face too, all of which touch its corners: among
        the faces around them that contain the point (minimum barycentric at
        least -1e-10), it takes the one of nearest centroid, ties to the lowest
        index.
        """
        # the spherical Voronoi cells of a regular icosahedron's face centres
        # are its face cones
        face = np.argmax(pts @ self.top, axis=1)
        x, y, z = np.ascontiguousarray(pts.T)
        for normal in self.normals:
            s0, s1, s2 = (_gather_dot(normal[k], face, x, y, z) for k in range(3))
            # argmax of the sides, first maximum first; past a non-positive
            # maximum, or a NaN side (m is then NaN), the centre child 3
            m = np.maximum(s0, s1)
            np.maximum(m, s2, out=m)
            face *= 4
            face += np.where(m > 0.0, (s0 < m) * (2 - (s1 == m)), 3)
        bary = np.empty((3, face.size))
        for a in range(3):
            _gather_dot(self.inverses[a], face, x, y, z, out=bary[a])
        low = np.minimum(bary[0], bary[1])
        near = np.flatnonzero(~(np.minimum(low, bary[2], out=low) >= 1e-8))
        if near.size:
            cand = np.sort(self.ring[self.faces[face[near]]].reshape(near.size, -1), axis=1)
            xn, yn, zn = x[near, None], y[near, None], z[near, None]
            low = _gather_dot(self.inverses[0], cand, xn, yn, zn)
            for a in (1, 2):
                np.minimum(low, _gather_dot(self.inverses[a], cand, xn, yn, zn), out=low)
            inside = low >= -1e-10
            dx, dy, dz = np.moveaxis(pts[near, None, :] - self.centroids[cand], -1, 0)
            best = np.argmin(np.where(inside, dx * dx + dy * dy + dz * dz, np.inf), axis=1)
            found = inside[np.arange(near.size), best]
            face[near] = np.where(found, cand[np.arange(near.size), best], -1)
            moved = near[found]
            for a in range(3):
                bary[a, moved] = _gather_dot(self.inverses[a], face[moved],
                                             x[moved], y[moved], z[moved])
        bary += 0.0  # einsum's +0.0 in place of a -0.0
        return face, bary.T


def _sphere_stencils(model: Sphere, verts, frames, h, dirs, locator: _FaceLocator):
    """Stencil stack at step ``h``: every stencil point is interpolated in
    the face ``locator`` finds for it, with its clipped barycentrics.

    Points and weights are computed on columns, each summed in the order of
    the array expression it replaced: the tangent ``d0 f0 + d1 f1`` (einsum
    over the frame), the point ``cos(theta) x + r sin(theta) t``, scaled by
    r over ``sqrt((x^2 + y^2) + z^2)`` (``np.linalg.norm``); the weights
    clipped at 0 and divided by ``(w0 + w1) + w2``.
    """
    import scipy.sparse as sparse

    n_nodes = verts.shape[0]
    theta = h / model.radius
    cos, sin = math.cos(theta), math.sin(theta) * model.radius
    f0, f1 = np.ascontiguousarray(frames.transpose(1, 2, 0))  # (3, N) each

    # three entries per row, so the CSR arrays are filled in place
    nnz = 3 * len(dirs) * n_nodes
    index = np.int32 if nnz < 2**31 else np.int64
    corners = np.ascontiguousarray(locator.faces.T, dtype=index)  # (3, F)
    cols = np.empty((len(dirs), n_nodes, 3), dtype=index)
    vals = np.empty((len(dirs), n_nodes, 3))
    pts = np.empty((n_nodes, 3))  # the points as locate takes them, one row each
    for row, d in enumerate(dirs):
        xyz = d[0] * f0
        xyz += d[1] * f1
        xyz += 0.0  # einsum's +0.0 in place of a -0.0
        xyz *= sin
        xyz += cos * verts.T
        norm = xyz[0] * xyz[0]
        norm += xyz[1] * xyz[1]
        norm += xyz[2] * xyz[2]
        np.multiply(xyz, model.radius / np.sqrt(norm), out=pts.T)
        del xyz, norm  # before locate, where a stack's build peaks in memory
        chosen, w = locator.locate(pts)
        if np.any(chosen < 0):
            i = int(np.argmax(chosen < 0))
            raise PreconditionError(
                f"the stencil point of node {i} in direction {row} {d.tolist()} lies in "
                f"no mesh face (barycentrics {w[i].tolist()} in the face the descent reached)"
            )
        w = np.clip(w.T, 0.0, None)  # one row per corner
        total = w[0] + w[1]
        total += w[2]
        w /= total
        # canonical CSR: each row's three distinct columns put in ascending
        # order by three compare-swaps, the order argsort gives
        c, v = [corner.take(chosen) for corner in corners], list(w)
        for i, j in ((0, 1), (1, 2), (0, 1)):
            swap = c[i] > c[j]
            c[i], c[j] = np.where(swap, c[j], c[i]), np.where(swap, c[i], c[j])
            v[i], v[j] = np.where(swap, v[j], v[i]), np.where(swap, v[i], v[j])
        cols[row].T[...], vals[row].T[...] = c, v
    indptr = np.arange(0, nnz + 1, 3, dtype=index)
    return sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(len(dirs) * n_nodes, n_nodes)
    )


def _torus_stencils(model: FlatTorus, coords, h, dirs, res):
    import scipy.sparse as sparse

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
    import scipy.sparse as sparse

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
    """Refuse a negative (or NaN) weight, a row of the stack whose weights do
    not sum to one, and a step of a quarter injectivity radius or more.  The
    row sums are read off the CSR arrays, one ``reduceat`` over the rows'
    starts; an empty row sums to 0, so it is refused before that (where
    ``reduceat`` would read the next row's first entry)."""
    mat = grid.stack
    if mat.data.size and not mat.data.min() >= -_EPS_WEIGHT:
        raise PreconditionError("stencil weights must be nonnegative")
    if not (np.all(np.diff(mat.indptr))
            and np.max(np.abs(np.add.reduceat(mat.data, mat.indptr[:-1]) - 1.0)) <= 1e-9):
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
        verts, levels, parents = icosphere(resolution)
        faces = levels[-1]
        coords = verts * model.radius
        locator = _FaceLocator.build(coords, levels, model.radius)

        def default_step():
            # 1.15 sqrt(r times the mean geodesic length of the mesh edges)
            r = model.radius
            a, b = _mesh_edges(faces).T
            dots = np.einsum("ij,ij->i", coords[a], coords[b]) / r**2
            mean = float(np.mean(r * np.arccos(np.clip(dots, -1.0, 1.0))))
            return 1.15 * math.sqrt(mean * r)

        def builder(step):
            return _sphere_stencils(model, coords, frames, step, dirs, locator)

    elif isinstance(model, FlatTorus) and model.dim == 2:
        resolution = res = int(resolution)
        spacing = model.periods / res
        ii, jj = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
        coords = np.stack([ii.ravel() * spacing[0], jj.ravel() * spacing[1]], axis=1)
        faces = parents = None

        def default_step():
            # lattice-aligned when possible (exact central differences)
            return float(np.min(spacing))

        def builder(step):
            return _torus_stencils(model, coords, step, dirs, res)

    else:
        raise UnsupportedModelError(
            "grids are built for Sphere(2, r) and two-dimensional flat tori only"
        )
    frames = model.canonical_frames(coords)
    grid = Grid(
        model, resolution, coords, frames, math.nan, dirs, None, [], faces, parents,
        _stencil_builder=builder,
    )
    if h is None:
        h = min(default_step(), 0.9 * model.injectivity_radius() / 4.0)
    grid.h = float(h)
    grid.stack = builder(grid.h)
    grid.stencils = _direction_views(grid.stack, len(dirs))
    _check_stencil_invariants(grid)
    return grid


def geodesic_ball_interior(grid: Grid, center: int, radius: float) -> np.ndarray:
    """Boolean mask of nodes strictly inside the geodesic ball around a node."""
    return grid.distance_rows(center, center + 1)[0] < radius
