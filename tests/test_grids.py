"""Icosphere subdivision, batched sphere frames, stencil point location, grid distances."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemvisc import FlatTorus, Hyperbolic, Point, Sphere, TangentVector
from riemvisc.grids import (
    _mesh_edges, build_grid, geodesic_ball_interior, icosahedron, icosphere,
)
import riemvisc.grids as grids


def dict_icosphere(subdivisions):
    """Reference subdivision: one dict lookup per face edge, vertex by vertex."""
    verts, faces = icosahedron()
    verts = list(verts)
    for _ in range(subdivisions):
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(verts), faces


@pytest.mark.parametrize("res", [0, 1, 2, 3])
def test_icosphere_matches_dict_subdivision(res):
    verts, faces = icosphere(res)
    ref_verts, ref_faces = dict_icosphere(res)
    assert verts.shape == (10 * 4**res + 2, 3)
    assert np.array_equal(faces, ref_faces)
    np.testing.assert_allclose(verts, ref_verts, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("res", [0, 1, 2, 3])
def test_mesh_edges_sorted_unique(res):
    _, faces = icosphere(res)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e.sort(axis=1)
    edges = _mesh_edges(faces)
    assert np.array_equal(edges, np.unique(e, axis=0))
    assert edges.shape[0] == 30 * 4**res  # Euler: E = 3F / 2


# --------------------------------------------------------------------- #
# batched frames
# --------------------------------------------------------------------- #

def frame_points(model, rng):
    """Random points plus points where Gram-Schmidt skips a projected axis or
    meets an exact zero: on the sphere the axis points and points on coordinate
    planes, on the hyperboloid the apex and points with a zero space coordinate."""
    n = model.ambient_dim
    pts = [model.random_point(rng).coords for _ in range(200)]
    if isinstance(model, Hyperbolic):
        pts.append(model.base_point().coords)
        for k in range(1, n):
            p = rng.standard_normal(n)
            p[k] = 0.0
            p[0] = np.sqrt(model.scale**2 + p[1:] @ p[1:])
            pts.append(p)
        return np.array(pts)
    pts += list(model.radius * np.eye(n)) + list(-model.radius * np.eye(n))
    for k in range(n):
        p = rng.standard_normal(n)
        p[k] = 0.0
        pts.append(model.radius * p / np.linalg.norm(p))
    return np.array(pts)


@pytest.mark.parametrize(
    "model",
    [Sphere(2, 1.0), Sphere(2, 2.5), Sphere(3, 0.5), Sphere(1, 1.0), Sphere(2, 0.7),
     Sphere(3, 1.3), Hyperbolic(2, 2.5)],
    ids=lambda m: f"S{m.dim}r{m.radius}" if m.kind == "sphere" else f"H{m.dim}k{m.k0}",
)
def test_batched_frames_match_per_point_frames(model):
    rng = np.random.default_rng(3)
    coords = frame_points(model, rng)
    frames = model.canonical_frames(coords)
    assert frames.shape == (coords.shape[0], model.dim, model.ambient_dim)
    for x, f in zip(coords, frames):
        assert np.array_equal(f, model.canonical_frame(Point(x)))
        # tolerances scale with Euclidean sizes: 1 for a sphere's frame rows and
        # r for its points, large far out on the hyperboloid, where Minkowski
        # products cancel
        sizes = np.linalg.norm(f, axis=1)
        gram = model.inner_stack(f[:, None], f[None])
        assert np.allclose(gram, np.eye(model.dim), atol=1e-12 * np.outer(sizes, sizes))
        assert np.all(np.abs(model.inner_stack(f, x)) <= 1e-12 * sizes * np.linalg.norm(x))


def test_grid_frames_are_per_node_frames():
    grid = build_grid(Sphere(2, 1.0), 3)
    for x, f in zip(grid.coords, grid.frames):
        assert np.max(np.abs(f - grid.model.canonical_frame(Point(x)))) <= 1e-14


# --------------------------------------------------------------------- #
# stencil point location
# --------------------------------------------------------------------- #

def stencil_points(grid, step, d):
    model = grid.model
    return np.array([
        model.exp(Point(x), TangentVector(Point(x), step * (d @ f))).coords
        for x, f in zip(grid.coords, grid.frames)
    ])


def barycentrics(grid, pts):
    """(N, F, 3) barycentric coordinates of every point in every face."""
    corners = grid.coords[grid.faces]
    return np.einsum("fab,nb->nfa", np.linalg.inv(corners.transpose(0, 2, 1)), pts)


def reference_stencil(grid, pts):
    """Weights from the nearest-centroid face that contains each point, by brute force."""
    bary = barycentrics(grid, pts)
    centroids = grid.coords[grid.faces].mean(axis=1)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    dist = np.linalg.norm(pts[:, None, :] / grid.model.radius - centroids[None], axis=2)
    inside = bary.min(axis=2) >= -1e-10
    assert inside.any(axis=1).all()
    face = np.argmin(np.where(inside, dist, np.inf), axis=1)
    w = np.clip(bary[np.arange(len(pts)), face], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    ref = np.zeros((len(pts), grid.n_nodes))
    ref[np.arange(len(pts))[:, None], grid.faces[face]] = w
    return ref, face, dist


@pytest.mark.parametrize("half", [False, True], ids=["h", "h/2"])
def test_stencils_use_nearest_containing_face(half):
    grid = build_grid(Sphere(2, 1.0), 3)
    step = grid.h / 2 if half else grid.h
    for d, mat in zip(grid.dirs, grid.stencils_for(step)):
        assert mat.data.min() >= 0.0
        assert np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        ref, _, _ = reference_stencil(grid, stencil_points(grid, step, d))
        assert np.max(np.abs(mat.toarray() - ref)) <= 1e-9


def test_brute_force_fallback(monkeypatch):
    model = Sphere(2, 1.5)
    grid = build_grid(model, 3)
    # one candidate: every point outside its nearest-centroid face falls back
    monkeypatch.setattr(grids, "_SHORT_LIST", 1)
    fallback = build_grid(model, 3).stencils
    misses = 0
    for d, mat, short in zip(grid.dirs, grid.stencils, fallback):
        pts = stencil_points(grid, grid.h, d)
        ref, _, dist = reference_stencil(grid, pts)
        bary = barycentrics(grid, pts)
        nearest = np.argmin(dist, axis=1)
        misses += int(np.sum(bary[np.arange(len(pts)), nearest].min(axis=1) < -1e-10))
        assert short.data.min() >= 0.0
        assert np.allclose(np.asarray(short.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        assert np.max(np.abs(short.toarray() - ref)) <= 1e-9
        assert np.max(np.abs(short.toarray() - mat.toarray())) <= 1e-9
    assert misses > 0


# --------------------------------------------------------------------- #
# blockwise grid distances
# --------------------------------------------------------------------- #

def full_distances(grid):
    """The whole N x N distance matrix, diagonal zeroed: the oracle for the row blocks.

    On the torus each coordinate distance is the one to the nearest periodic
    image, ``min(|diff|, p - |diff|)``: exact wherever it is the smaller of
    the two, so lattice ties at exactly the spacing stay ties.
    """
    c = grid.coords
    if isinstance(grid.model, Sphere):
        r = grid.model.radius
        d = r * np.arccos(np.clip(c @ c.T / r**2, -1.0, 1.0))
    else:
        d2 = np.zeros((grid.n_nodes, grid.n_nodes))
        for ax, per in enumerate(grid.model.periods):
            diff = np.abs(c[:, ax][:, None] - c[:, ax][None, :])
            diff = np.minimum(diff, per - diff)
            d2 += diff * diff
        d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


DISTANCE_GRIDS = {
    "sphere": (lambda: build_grid(Sphere(2, 1.5), 3), 100),  # 642 rows: 6 x 100 + 42
    "torus": (lambda: build_grid(FlatTorus([1.0, 0.7]), 12), 25),  # 144 rows: 5 x 25 + 19
    # dyadic lattice: neighbor distances equal the spacing h exactly (ties)
    "dyadic_torus": (lambda: build_grid(FlatTorus([1.0, 1.0]), 8), 10),  # 64 rows: 6 x 10 + 4
}


@pytest.mark.parametrize("name", sorted(DISTANCE_GRIDS))
def test_distance_blocks_match_full_matrix(name, monkeypatch):
    make, height = DISTANCE_GRIDS[name]
    grid = make()
    monkeypatch.setattr(grids, "_BLOCK_ENTRIES", height * grid.n_nodes)
    blocks = list(grid.distance_blocks())
    starts = [start for start, _ in blocks]
    assert starts == list(range(0, grid.n_nodes, height))
    assert 0 < blocks[-1][1].shape[0] < height  # ragged last block
    stacked = np.vstack([d for _, d in blocks])
    assert np.max(np.abs(stacked - full_distances(grid))) <= 1e-12
    assert np.all(np.diag(stacked) == 0.0)
    assert np.all(stacked[~np.eye(grid.n_nodes, dtype=bool)] > 0.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(DISTANCE_GRIDS)), seed=st.integers(0, 2**32 - 1),
       span=st.sampled_from([0.0, 0.1, 0.5, 2.0, 10.0]))
def test_distances_within_keeps_every_pair_in_reach(name, seed, span):
    make, height = DISTANCE_GRIDS[name]
    grid = make()
    rng = np.random.default_rng(seed)
    for start in range(0, grid.n_nodes, height):
        stop = min(start + height, grid.n_nodes)
        full = grid.distance_rows(start, stop)
        reach = span * rng.random(stop - start)
        # reaches exactly at a distance (ties), below zero, NaN and unbounded
        pick = rng.integers(0, grid.n_nodes, stop - start)
        exact = rng.random(stop - start) < 0.3
        reach[exact] = full[exact.nonzero()[0], pick[exact]]
        reach[rng.random(stop - start) < 0.1] = -1.0
        reach[rng.random(stop - start) < 0.05] = np.nan
        reach[rng.random(stop - start) < 0.05] = np.inf
        i, j, d = grid.distances_within(start, stop, reach)
        local = i - start
        order = local * grid.n_nodes + j
        assert np.all(np.diff(order) > 0)  # row-major, no repeats
        assert d.tobytes() == full[local, j].tobytes()  # bitwise distance_rows
        within = full <= reach[:, None]  # NaN and negative reaches: nothing
        kept = np.zeros_like(within)
        kept[local, j] = True
        assert np.all(kept[within])
        # the rest lie within the rounding slack of the reach
        assert np.all(full[kept & ~within] <= reach[local[~within[local, j]]] * (1 + 1e-9) + 1e-9)


@pytest.mark.parametrize("name", sorted(DISTANCE_GRIDS))
def test_modulus_at_spacing_matches_brute_force(name, monkeypatch):
    make, height = DISTANCE_GRIDS[name]
    grid = make()
    monkeypatch.setattr(grids, "_BLOCK_ENTRIES", height * grid.n_nodes)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(grid.n_nodes)
    d = full_distances(grid)
    for spacing in (0.0, grid.h, 3.0 * grid.h):
        brute = max(
            abs(values[i] - values[j])
            for i in range(grid.n_nodes)
            for j in np.flatnonzero(d[i] <= spacing)
        )
        assert grid.modulus_at_spacing(values, spacing) == brute
        # the k-d tree candidates keep exactly the full pass's off-diagonal entries
        pairs = np.concatenate([np.column_stack(ij) for ij in grid._pair_blocks(spacing)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        near = (d <= spacing) & ~np.eye(grid.n_nodes, dtype=bool)
        assert sorted(map(tuple, pairs.tolist())) == list(map(tuple, np.argwhere(near).tolist()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(period=st.floats(1e-3, 1e3),
       fracs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
@example(period=1.0, fracs=[0.5, -0.5, 0.0, 0.5 - 2**-53, -0.5 - 2**-53, 1 - 2**-53])
@example(period=0.7, fracs=[0.5, -0.5, 0.25, -0.75])
def test_wrap_half_compares_and_shifts(period, fracs):
    diff = np.array(fracs) * period
    diff = diff[np.abs(diff) < period]  # coordinate differences of two points
    remainder = (diff + period / 2.0) % period - period / 2.0
    wrapped = grids._wrap_half(diff.copy(), period)
    assert np.all((-period / 2.0 <= wrapped) & (wrapped < period / 2.0))
    # the shift is exact: a whole period or nothing
    assert np.all(np.isin(wrapped - diff, [-period, 0.0, period]))
    # the remainder form rounds diff + p/2: 1 ulp of p apart, on the circle
    gap = np.abs(wrapped - remainder)
    assert np.all(np.minimum(gap, np.abs(gap - period)) <= np.spacing(period))


def test_geodesic_ball_interior_is_one_distance_row():
    grid = build_grid(Sphere(2, 1.0), 3)
    d = full_distances(grid)
    for center in (0, 5, 641):
        assert np.array_equal(geodesic_ball_interior(grid, center, 1.0), d[center] < 1.0)
        assert geodesic_ball_interior(grid, center, 1.0)[center]
