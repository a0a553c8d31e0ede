"""Icosphere subdivision, batched sphere frames, stencil point location, grid distances."""

import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemvisc import Euclidean, FlatTorus, Hyperbolic, Point, Product, Sphere, TangentVector
from riemvisc.errors import PreconditionError
from riemvisc.grids import (
    _FaceLocator, _mesh_edges, build_grid, geodesic_ball_interior, icosahedron, icosphere,
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
    verts, levels, _ = icosphere(res)
    ref_verts, ref_faces = dict_icosphere(res)
    assert verts.shape == (10 * 4**res + 2, 3)
    assert np.array_equal(levels[-1], ref_faces)
    np.testing.assert_allclose(verts, ref_verts, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("res", [0, 1, 2, 3])
def test_icosphere_levels_nest(res):
    verts, levels, parents = icosphere(res)
    assert len(levels) == res + 1 and len(parents) == res
    for level, (coarse, fine, mid) in enumerate(zip(levels, levels[1:], parents)):
        n_coarse = 10 * 4**level + 2  # each level's vertices come first
        children = fine.reshape(-1, 4, 3)
        assert np.array_equal(children[:, :3, 0], coarse)  # child 4j + k keeps corner k of face j
        assert coarse.max() < n_coarse <= children[:, 3].min()  # the centre child: midpoints only
        # every new vertex bisects an edge of the coarser level: its parents
        assert mid.shape == (30 * 4**level, 2)  # one per coarse edge
        assert set(map(tuple, np.sort(mid, axis=1))) == set(map(tuple, _mesh_edges(coarse)))
        p = verts[mid[:, 0]] + verts[mid[:, 1]]
        new = verts[n_coarse:n_coarse + mid.shape[0]]
        assert np.allclose(new, p / np.linalg.norm(p, axis=1, keepdims=True), atol=1e-15)


@pytest.mark.parametrize("res", [0, 1, 2, 3])
def test_mesh_edges_sorted_unique(res):
    faces = icosphere(res)[1][-1]
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
    planes, on the hyperboloid the apex and points with a zero space coordinate.
    A product pairs its factors' points cyclically; flat models draw only."""
    n = model.ambient_dim
    if isinstance(model, Product):
        parts = [frame_points(f, rng) for f in model.factors]
        rows = max(len(p) for p in parts)
        return np.concatenate([np.resize(p, (rows, p.shape[1])) for p in parts], axis=1)
    pts = [model.random_point(rng).coords for _ in range(200)]
    if not isinstance(model, (Sphere, Hyperbolic)):
        return np.array(pts)
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


FRAME_MODELS = {
    "S2r1.0": Sphere(2, 1.0), "S2r2.5": Sphere(2, 2.5), "S3r0.5": Sphere(3, 0.5),
    "S1r1.0": Sphere(1, 1.0), "S2r0.7": Sphere(2, 0.7), "S3r1.3": Sphere(3, 1.3),
    "H2k2.5": Hyperbolic(2, 2.5), "E3": Euclidean(3), "T2": FlatTorus([1.0, 0.7]),
    "S2xE1": Product([Sphere(2, 1.0), Euclidean(1)]),
    "H2xT1": Product([Hyperbolic(2, 2.5), FlatTorus([1.5])]),
    "S1x(H1xE2)": Product([Sphere(1, 1.0), Product([Hyperbolic(1, 1.0), Euclidean(2)])]),
}


@pytest.mark.parametrize("model", FRAME_MODELS.values(), ids=FRAME_MODELS.keys())
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
        if isinstance(model, (Sphere, Hyperbolic)):
            assert np.all(np.abs(model.inner_stack(f, x)) <= 1e-12 * sizes * np.linalg.norm(x))
        else:
            # flat and product models: no single normal to take products with
            tangent = model.project_tangent_stack(np.broadcast_to(x, f.shape), f)
            assert np.allclose(tangent, f, rtol=0.0, atol=1e-12 * sizes.max() * max(1.0, x @ x))
    # leading unit rows: the segment frames, one Gram-Schmidt pass after them
    first = model.project_tangent_stack(coords, rng.standard_normal(coords.shape))
    first /= np.sqrt(model.inner_stack(first, first))[:, None]
    seeded = model.canonical_frames(coords, first=first[:, None])
    for x, e1, f in zip(coords, first, seeded):
        p = Point(x)
        assert np.array_equal(f, model._orthonormal_rows(p, [e1]))


def test_grid_frames_are_per_node_frames():
    grid = build_grid(Sphere(2, 1.0), 3)
    for x, f in zip(grid.coords, grid.frames):
        assert np.max(np.abs(f - grid.model.canonical_frame(Point(x)))) <= 1e-14


def test_torus_grid_frames_are_the_batched_identity():
    # the torus takes its node frames from canonical_frames too: the identity
    grid = build_grid(FlatTorus([1.0, 0.7]), 8)
    assert np.array_equal(grid.frames, grid.model.canonical_frames(grid.coords))
    assert np.array_equal(grid.frames, np.tile(np.eye(2), (len(grid.coords), 1, 1)))


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
    stack, n = grid.stack_for(step), grid.n_nodes
    for k, d in enumerate(grid.dirs):
        mat = stack[k * n:(k + 1) * n]
        assert mat.data.min() >= 0.0
        assert np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        ref, _, _ = reference_stencil(grid, stencil_points(grid, step, d))
        assert np.max(np.abs(mat.toarray() - ref)) <= 1e-9


@functools.lru_cache(maxsize=None)
def sphere_locator(radius, res):
    verts, levels, _ = icosphere(res)
    return _FaceLocator.build(verts * radius, levels, radius)


def locator_oracle(locator, pts):
    """Brute force over every face: the nearest-centroid face that contains
    each point, ties to the lowest index, or -1 where none does."""
    inside = np.einsum("fab,nb->nfa", locator.inv_corners, pts).min(axis=2) >= -1e-10
    dx, dy, dz = np.moveaxis(pts[:, None, :] - locator.centroids[None], -1, 0)
    face = np.argmin(np.where(inside, dx * dx + dy * dy + dz * dz, np.inf), axis=1)
    return np.where(inside.any(axis=1), face, -1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(radius=st.sampled_from([0.5, 1.0, 2.5]), res=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_locate_matches_brute_force_oracle(radius, res, seed):
    locator = sphere_locator(radius, res)
    pts = np.random.default_rng(seed).standard_normal((64, 3))
    pts *= radius / np.linalg.norm(pts, axis=1, keepdims=True)
    face, bary = locator.locate(pts)
    assert np.array_equal(face, locator_oracle(locator, pts))
    assert np.all(bary.min(axis=1) >= -1e-10)
    assert np.array_equal(bary, np.einsum("nab,nb->na", locator.inv_corners[face], pts))


def mesh_points(locator, radius, res):
    """The icosphere's edge midpoints, vertices and face centroids, on the sphere."""
    verts = icosphere(res)[0] * radius
    edges = _mesh_edges(locator.faces)
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
    return {
        "edge": mid * (radius / np.linalg.norm(mid, axis=1, keepdims=True)),
        "vertex": verts,
        "centroid": locator.centroids,
    }


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("res", [0, 1, 2])
def test_locate_on_edges_vertices_and_centroids(radius, res):
    locator = sphere_locator(radius, res)
    cases = mesh_points(locator, radius, res)
    for name, pts in cases.items():
        face, bary = locator.locate(pts)
        assert np.array_equal(face, locator_oracle(locator, pts)), name
        assert np.all(bary.min(axis=1) >= -1e-10), name
    # an edge point lies in both faces of its edge: the tie rule decides
    bary = np.einsum("fab,nb->nfa", locator.inv_corners, cases["edge"]).min(axis=2)
    assert np.all(np.sum(bary >= -1e-10, axis=1) == 2)


@functools.lru_cache(maxsize=None)
def reference_cuts(radius, res):
    """Per finer level, the (F_parent, 3, 3) normals that cut off the corner
    children (row k: corner child k), as the einsum descent held them."""
    verts, levels, _ = icosphere(res)
    coords = verts * radius
    cuts = []
    for children in levels[1:]:
        child = children.reshape(-1, 4, 3)[:, :3]
        cuts.append(np.cross(coords[child[..., 1]], coords[child[..., 2]]))
    return cuts


def _reference_locate(locator, cuts, pts):
    """The face search as one einsum and one argmax per level of the
    descent, then the same barycentrics and near-border ring fallback."""
    face = np.argmax(pts @ locator.top, axis=1)
    rows = np.arange(pts.shape[0])
    for cut in cuts:
        side = np.einsum("nkb,nb->nk", cut[face], pts)
        k = np.argmax(side, axis=1)
        face = 4 * face + np.where(side[rows, k] > 0.0, k, 3)
    bary = np.einsum("nab,nb->na", locator.inv_corners[face], pts)
    near = np.flatnonzero(~(bary.min(axis=1) >= 1e-8))
    if near.size:
        cand = np.sort(locator.ring[locator.faces[face[near]]].reshape(near.size, -1), axis=1)
        inside = np.einsum("nfab,nb->nfa", locator.inv_corners[cand], pts[near]).min(axis=2)
        inside = inside >= -1e-10
        dx, dy, dz = np.moveaxis(pts[near, None, :] - locator.centroids[cand], -1, 0)
        best = np.argmin(np.where(inside, dx * dx + dy * dy + dz * dz, np.inf), axis=1)
        found = inside[np.arange(near.size), best]
        face[near] = np.where(found, cand[np.arange(near.size), best], -1)
        moved = near[found]
        bary[moved] = np.einsum("nab,nb->na", locator.inv_corners[face[moved]], pts[moved])
    return face, bary


LOCATE_CASES = [(radius, res) for res in range(5) for radius in (0.5, 1.0, 2.5)]
LOCATE_CASES += [(1.0, 5), (1.0, 6)]


@pytest.mark.parametrize("radius, res", LOCATE_CASES)
def test_locate_is_the_reference_descent(radius, res, monkeypatch):
    # faces and barycentrics bitwise the einsum descent's: on every stencil
    # point at h and h / 2, as the stencil builder hands them over, on random
    # points and on the mesh's own points, where sides tie
    cuts = reference_cuts(radius, res)
    locate = _FaceLocator.locate
    checked = []

    def checked_locate(self, pts):
        face, bary = locate(self, pts)
        ref_face, ref_bary = _reference_locate(self, cuts, pts)
        assert face.tobytes() == ref_face.tobytes()
        assert bary.tobytes() == ref_bary.tobytes()
        checked.append(pts.shape[0])
        return face, bary

    monkeypatch.setattr(_FaceLocator, "locate", checked_locate)
    grid = build_grid(Sphere(2, radius), res)
    grid.stack_for(grid.h / 2)
    assert checked == [grid.n_nodes] * (2 * len(grid.dirs))
    locator = sphere_locator(radius, res)
    pts = np.random.default_rng(res).standard_normal((4096, 3))
    locator.locate(pts * (radius / np.linalg.norm(pts, axis=1, keepdims=True)))
    for pts in mesh_points(locator, radius, res).values():
        locator.locate(pts)
    assert len(checked) == 2 * len(grid.dirs) + 4


def cut_plane_points(radius, res, seed, per_level=32):
    """Points a few ulps off the corner-child cut planes of every level of the
    descent: ``zeros`` have a side of exactly 0.0 as the descent sums it,
    ``(x + z) + y``; ``splits`` a side whose sign that order and ``x + y + z``
    disagree on.  Each starts on the arc between a corner child's two pushed
    midpoints, inside the parent face, and steps by ulps in x, y and z."""
    verts, levels, _ = icosphere(res)
    coords = verts * radius
    rng = np.random.default_rng(seed)
    steps = np.array(list(itertools.product(range(-3, 4), repeat=3)))
    zeros, splits = [], []
    for children in levels[1:]:
        corner = children.reshape(-1, 4, 3)[:, :3]
        for f, k, t in zip(rng.integers(len(corner), size=per_level),
                           rng.integers(3, size=per_level), rng.uniform(0.2, 0.8, per_level)):
            m1, m2 = coords[corner[f, k, 1:]]
            n = np.cross(m1, m2)
            q = (1.0 - t) * m1 + t * m2
            q *= radius / np.linalg.norm(q)
            qs = q + steps * np.spacing(q)
            descent = (n[0] * qs[:, 0] + n[2] * qs[:, 2]) + n[1] * qs[:, 1]
            xyz = (n[0] * qs[:, 0] + n[1] * qs[:, 1]) + n[2] * qs[:, 2]
            zeros += [qs[i] for i in np.flatnonzero(descent == 0.0)[:1]]
            splits += [qs[i] for i in np.flatnonzero((descent > 0.0) != (xyz > 0.0))[:1]]
    return np.array(zeros), np.array(splits)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("res", [1, 2, 3, 4])
def test_locate_keeps_the_reference_tie_rules(radius, res):
    # a side of exactly 0.0 takes the centre child, and each side is summed
    # in einsum's order; the origin ties every side at every level.  On the
    # sphere both faces of a tied side contain the point and the ring
    # fallback hides the descent's choice, so the points are also taken 2^40
    # times: every product and sum scales exactly, so every tie stays, and
    # the barycentrics' roundoff passes the -1e-10 containment floor, so a
    # point can lie in no face, and locate returns the descended face's
    # barycentrics
    zeros, splits = cut_plane_points(radius, res, seed=res)
    assert len(zeros) >= 8 * res and len(splits) >= 4
    pts = np.concatenate([zeros, splits, np.zeros((1, 3))])
    pts = np.concatenate([pts, pts * 2.0**40])
    locator = sphere_locator(radius, res)
    face, bary = locator.locate(pts)
    ref_face, ref_bary = _reference_locate(locator, reference_cuts(radius, res), pts)
    assert face.tobytes() == ref_face.tobytes()
    assert bary.tobytes() == ref_bary.tobytes()
    assert np.all(face[: len(pts) // 2] >= 0)


def test_point_in_no_face_is_a_precondition_error():
    model = Sphere(2, 1.5)
    grid = build_grid(model, 2)
    locator = sphere_locator(1.5, 2)
    pts = grid.coords.copy()
    pts[7] = np.nan
    face, _ = locator.locate(pts)
    assert face[7] == -1 and np.all(np.delete(face, 7) >= 0)
    frames = grid.frames.copy()
    frames[7] = np.nan
    with pytest.raises(PreconditionError, match=r"node 7 in direction 0 .*barycentrics \[nan"):
        grids._sphere_stencils(model, grid.coords, frames, grid.h, grid.dirs, locator)


# the gather of a seeded u on Sphere(2, 1): the sha256 of grid.stack @ u at res 3
# and (sum, square) of it at res 0-5, recorded from the k-d tree face search
# this locator replaced (which tied exactly equidistant faces differently), with
# numpy 2.4 and OpenBLAS 0.3.31 on x86-64: the hash pins that arithmetic too;
# res 6, at both steps, recorded from the einsum descent (_reference_locate)
GATHER_SHA_RES3 = "47366d07bc25d6b9eb7d2e079d2134e7d13c3f09a4c1847a44668e9c4bfa2ee2"
GATHER_SUMS = {
    0: (6.47382286307239, 31.117584776214073),
    1: (30.318494161168097, 143.77657660236272),
    2: (13.70942165883166, 641.7921611140067),
    3: (-135.88392922139963, 2400.5189423581196),
    4: (-187.4447118708313, 10200.91937653403),
    5: (-1274.9424192422184, 39205.28854740506),
    6: (45.34739563397592, 158773.5278296774),
}


# the same gather through the stack at h / 2, the one verify_viscosity_residual
# reads, recorded before the stencil columns were ordered by compare-swaps and
# the top-level face found by face centres
HALF_GATHER_SHA_RES3 = "caa46a6fc3062bc4300acdbc4847d40e140b6028703e2d79f8be2dfe4dd70aa8"
HALF_GATHER_SUMS = {
    0: (6.473822863072387, 37.658299455196),
    1: (29.55351671839533, 109.83632582324122),
    2: (22.109584550480772, 737.0185346606331),
    3: (-146.89811259845885, 2085.3100586303585),
    4: (-165.13699690621186, 10275.435353423472),
    5: (-1348.5088931829027, 41014.13941411467),
    6: (-40.17121898180546, 156361.77776366935),
}


@pytest.mark.parametrize("res", sorted(GATHER_SUMS))
def test_gather_is_pinned(res):
    grid = build_grid(Sphere(2, 1.0), res)
    u = np.random.default_rng(16).standard_normal(grid.n_nodes)
    for step, sha, sums in ((grid.h, GATHER_SHA_RES3, GATHER_SUMS),
                            (grid.h / 2, HALF_GATHER_SHA_RES3, HALF_GATHER_SUMS)):
        gathered = grid.stack_for(step) @ u
        total, square = sums[res]
        assert math.isclose(float(np.sum(gathered)), total, rel_tol=1e-14)
        assert math.isclose(float(gathered @ gathered), square, rel_tol=1e-14)
        if res == 3:
            assert hashlib.sha256(gathered.tobytes()).hexdigest() == sha


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
    blocks = [(start, grid.distance_rows(start, stop)) for start, stop in grid.row_blocks()]
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
    grid = DISTANCE_GRIDS[name][0]()
    rng = np.random.default_rng(11)
    # the coordinates: their largest steps within the spacing are the pairs
    # at the edge of a slab window, or across the torus's seam
    values = np.concatenate([rng.standard_normal((5, grid.n_nodes)), grid.coords.T])
    d = full_distances(grid)
    # 10 is past pi r and the torus diameter: every column is in the window
    for spacing in (0.0, grid.h, 3.0 * grid.h, 10.0):
        near = d <= spacing
        brute = [float(np.max(np.abs(v[:, None] - v[None, :])[near])) for v in values]
        assert [grid.modulus_at_spacing(v, spacing) for v in values] == brute
        # many thin slabs (blocks of one or a few rows)
        with monkeypatch.context() as m:
            m.setattr(grids, "_SLAB_ENTRIES", 2000)
            assert [grid.modulus_at_spacing(v, spacing) for v in values] == brute
    assert grid.modulus_at_spacing(values[0], -1.0) == 0.0


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


# --------------------------------------------------------------------- #
# the multigrid hierarchy
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("res", [1, 2, 3])
def test_sphere_prolongations_keep_coarse_nodes_and_average_midpoints(res):
    grid = build_grid(Sphere(2, 1.3), res)
    assert grid._prolongations is None  # built at the first solve, not with the grid
    mats = grid.prolongations()
    assert grid.prolongations() is mats
    assert [m.shape for m in mats] == [
        (10 * 4**k + 2, 10 * 4**(k - 1) + 2) for k in range(res, 0, -1)]
    parents = grid.parents[::-1]
    c = np.random.default_rng(res).standard_normal(grid.n_nodes)
    for mat, mid in zip(mats, parents):
        n_coarse = mat.shape[1]
        coarse = c[:n_coarse]
        fine = mat @ coarse
        assert np.array_equal(fine[:n_coarse], coarse)
        assert np.array_equal(fine[n_coarse:], 0.5 * coarse[mid[:, 0]] + 0.5 * coarse[mid[:, 1]])
        assert mat.has_canonical_format


@pytest.mark.parametrize("res", [2, 8, 12])
def test_torus_prolongations_are_bilinear_and_periodic(res):
    grid = build_grid(FlatTorus([1.0, 0.7]), res)
    mats = grid.prolongations()
    sizes = [res]
    while sizes[-1] % 2 == 0:
        sizes.append(sizes[-1] // 2)
    assert [m.shape for m in mats] == [(n * n, n * n // 4) for n in sizes[:-1]]
    rng = np.random.default_rng(res)
    for mat, n in zip(mats, sizes):
        c = rng.standard_normal((n // 2, n // 2))
        ref = np.empty((n, n))
        ref[0::2, 0::2] = c
        ref[1::2, 0::2] = 0.5 * (c + np.roll(c, -1, axis=0))
        ref[0::2, 1::2] = 0.5 * (c + np.roll(c, -1, axis=1))
        ref[1::2, 1::2] = 0.25 * (c + np.roll(c, -1, axis=0) + np.roll(c, -1, axis=1)
                                  + np.roll(c, (-1, -1), axis=(0, 1)))
        assert np.allclose(mat @ c.ravel(), ref.ravel(), rtol=0.0, atol=1e-15)


def test_odd_torus_has_no_coarser_level():
    assert build_grid(FlatTorus([1.0, 1.0]), 9).prolongations() == []
