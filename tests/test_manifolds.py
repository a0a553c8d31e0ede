"""Geometry kernel checks: metric, exp/log, transport, curvature, segments."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from riemvisc import (
    BasePointMismatchError,
    DegenerateSegmentError,
    Euclidean,
    FlatTorus,
    GeometryDomainError,
    Hyperbolic,
    INFINITE_RADIUS,
    Point,
    Product,
    Sphere,
    TangentVector,
    from_config,
)
from riemvisc.jacobi import _space_forms, _tidal_spectra
from riemvisc.manifolds import (
    _FRAME_FLOOR, GeodesicSegment, Manifold, SegmentStack, _SpaceForm, draw_stacks,
)

from generator_doubles import Recording


def all_models():
    return [
        Euclidean(2),
        Euclidean(3),
        Sphere(2, 1.0),
        Sphere(3, 2.0),
        Sphere(2, 0.7),
        Hyperbolic(2, 1.0),
        Hyperbolic(3, 0.5),
        FlatTorus([1.0, 1.0]),
        FlatTorus([2.0, 3.0]),
        Product([Sphere(2, 1.0), Euclidean(2)]),
    ]


def model_id(m):
    """``kind + dim``; a 2-sphere of radius other than 1 also names its radius."""
    named = m.kind == "sphere" and m.dim == 2 and m.radius != 1.0
    return m.kind + str(m.dim) + (f"r{m.radius}" if named else "")


def sample_pair(model, rng, max_dist=None):
    """Random pair (x, y) with d(x, y) strictly inside the injectivity radius."""
    x = model.random_point(rng)
    cap = min(model.injectivity_radius(x), 3.0 if max_dist is None else max_dist)
    if max_dist is None:
        cap = min(cap, 0.9 * model.injectivity_radius(x))
    v = model.random_tangent(rng, x)
    nv = model.norm(x, v)
    if nv == 0.0:
        return sample_pair(model, rng, max_dist)
    ell = rng.uniform(0.05, 0.9 * cap if math.isfinite(cap) else 2.7)
    v = model.tangent(x, v.components * (ell / nv))
    return x, model.exp(x, v)


# --------------------------------------------------------------------- #
# metric
# --------------------------------------------------------------------- #

def test_metric_orthogonal_euclidean():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    v = m.tangent(x, [1.0, 0.0])
    w = m.tangent(x, [0.0, 1.0])
    assert m.metric(x, v, w) == 0.0


def test_metric_unit_vector_sphere():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    v = m.tangent(north, [1.0, 0.0, 0.0])
    assert m.metric(north, v, v) == pytest.approx(1.0, abs=1e-14)


def test_metric_scaling_hyperbolic():
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    v = m.tangent(o, [0.0, 2.0, 0.0])
    assert m.metric(o, v, v) == pytest.approx(4.0, abs=1e-12)


def test_metric_base_mismatch_raises():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    y = m.point([1.0, 0.0])
    v = m.tangent(x, [1.0, 0.0])
    w = m.tangent(y, [1.0, 0.0])
    with pytest.raises(BasePointMismatchError):
        m.metric(x, v, w)


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_metric_positive_definite_sampled(model):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = model.random_point(rng)
        v = model.random_tangent(rng, x)
        if np.linalg.norm(v.components) < 1e-8:
            continue
        assert model.metric(x, v, v) > 0.0


# --------------------------------------------------------------------- #
# exp / log / distance
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_exp_zero_vector_identity(model):
    rng = np.random.default_rng(3)
    x = model.random_point(rng)
    zero = model.tangent(x, np.zeros(model.ambient_dim))
    assert model.distance(model.exp(x, zero), x) <= 1e-12


def test_exp_antipodal_sphere():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    v = m.tangent(north, [math.pi, 0.0, 0.0])
    south = m.exp(north, v)
    assert np.allclose(south.coords, [0.0, 0.0, -1.0], atol=1e-12)


def test_exp_straight_line_torus():
    m = FlatTorus([1.0, 1.0])
    x = m.point([0.0, 0.0])
    v = m.tangent(x, [0.5, 0.0])
    assert np.allclose(m.exp(x, v).coords, [0.5, 0.0])


def _off_hyperboloid(m, p):
    """Relative gap between the time coordinate and sqrt(1/K0 + |spatial|^2)."""
    c = p.coords
    return abs(c[0] - math.sqrt(m.scale**2 + c[1:] @ c[1:])) / c[0]


@pytest.mark.filterwarnings("error")
def test_hyperbolic_exp_on_long_geodesics():
    # <p, p>_L cancels to noise of either sign once cosh(sqrt(K) ell) is large
    rng = np.random.default_rng(0)
    m = Hyperbolic(2, 100.0)
    for _ in range(500):
        assert _off_hyperboloid(m, m.random_point(rng)) <= 1e-12
    for m, ell in [(Hyperbolic(2, 1.0), 20.0), (Hyperbolic(2, 25.0), 3.0)]:
        o = m.base_point()
        for _ in range(200):
            d = m.random_tangent(rng, o)
            y = m.exp(o, m.tangent(o, d.components * (ell / m.norm(o, d))))
            assert _off_hyperboloid(m, y) <= 1e-12
            # the distance to the base point: cosh(sqrt(K0) d) = sqrt(K0) y_0
            dist = m.scale * math.acosh(y.coords[0] / m.scale)
            assert dist == pytest.approx(ell, rel=1e-12)


def test_log_identity_and_flat_case():
    m = Euclidean(3)
    rng = np.random.default_rng(5)
    x, y = m.random_point(rng), m.random_point(rng)
    assert np.allclose(m.log(x, y).components, y.coords - x.coords)
    assert np.allclose(m.log(x, x).components, 0.0)


def test_log_quarter_circle_norm():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    equator = m.point([1.0, 0.0, 0.0])
    v = m.log(north, equator)
    assert np.linalg.norm(v.components) == pytest.approx(math.pi / 2, abs=1e-12)


def test_log_beyond_cut_locus_raises():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    south = m.point([0.0, 0.0, -1.0])
    with pytest.raises(GeometryDomainError):
        m.log(north, south)
    t = FlatTorus([1.0])
    with pytest.raises(GeometryDomainError):
        t.log(t.point([0.0]), t.point([0.5]))


def test_hyperboloid_exp_overflow_raises_typed():
    # cosh and sinh overflow once |v| sqrt(K0) exceeds asinh(DBL_MAX) = 710.47...
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    with pytest.raises(GeometryDomainError, match=r"\|v\| sqrt\|K\| = 711\.0 exceeds 710\.47"):
        m.exp(o, m.tangent(o, [0.0, 711.0, 0.0]))
    assert np.all(np.isfinite(m.exp(o, m.tangent(o, [0.0, 300.0, 0.0])).coords))
    m = Hyperbolic(2, 2.5)  # |v| = 450 reads 711.5 after the sqrt(K0) scaling
    o = m.base_point()
    with pytest.raises(GeometryDomainError, match=r"= 711\.5"):
        m.exp(o, m.tangent(o, [0.0, 0.0, 450.0]))


@pytest.mark.filterwarnings("error")
def test_hyperboloid_exp_raises_where_the_minkowski_square_overflows():
    # from the apex y_0 = cosh|v|: cosh(300) ~ 9.7e129 squares finely, while
    # cosh(400) ~ 2.6e173 squares past DBL_MAX long before cosh itself overflows
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    ok = m.exp(o, m.tangent(o, [0.0, 300.0, 0.0]))
    assert ok.coords[0] == pytest.approx(math.cosh(300.0), rel=1e-12)
    assert np.array_equal(m.exp_stack(o.coords[None], np.array([[0.0, 300.0, 0.0]]))[0], ok.coords)
    for length in (400.0, 500.0):
        with pytest.raises(GeometryDomainError, match=r"^exp: \|v\| sqrt\|K\| = .*overflow"):
            m.exp(o, m.tangent(o, [0.0, 0.0, length]))
        steps = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, length]])
        with pytest.raises(GeometryDomainError, match=r"^exp_stack row 1: .*overflow"):
            m.exp_stack(np.array([o.coords, o.coords]), steps)
    # from a point near the edge of the float range even short steps take the
    # checked path; where they land in range they match the stacked rows
    x = m.exp(o, m.tangent(o, [0.0, 350.0, 0.0]))
    for length in (1.0, 5.0):
        y = m.exp(x, m.tangent(x, [0.0, 0.0, length]))
        assert np.all(np.isfinite(y.coords))
        stacked = m.exp_stack(x.coords[None], np.array([[0.0, 0.0, length]]))
        assert np.array_equal(stacked[0], y.coords)
    with pytest.raises(GeometryDomainError, match="overflow"):
        m.exp(x, m.tangent(x, [0.0, 0.0, 10.0]))


@pytest.mark.filterwarnings("error")
def test_hyperboloid_exp_refuses_a_step_whose_square_overflows():
    # far from the apex a unit-speed tangent has components ~2.5e303, so
    # |v|^2 overflows (inf - inf in the Minkowski form) before any exp arithmetic
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    x = m.exp(o, m.tangent(o, [0.0, 350.0, 0.0]))
    v = m.tangent(x, [0.0, 1.0, 0.0])
    assert np.max(np.abs(v.components)) > 1e303
    with pytest.raises(GeometryDomainError, match=r"^exp: \|v\|\^2 = nan is not finite"):
        m.exp(x, v)
    with pytest.raises(GeometryDomainError, match=r"^exp_stack row 1: \|v\|\^2 = nan is not"):
        m.exp_stack(np.array([o.coords, x.coords]), np.array([[0.0, 1.0, 0.0], v.components]))
    with pytest.raises(GeometryDomainError, match=r"^exp_stack row 0: \|v\|\^2 = nan is not"):
        m.exp_stack(o.coords[None], np.array([[0.0, math.nan, 0.0]]))  # not a zero step
    with pytest.raises(GeometryDomainError, match=r"\|v\|\^2 = inf is not finite"):
        Sphere(2).exp(Sphere(2).point([0.0, 0.0, 1.0]), TangentVector(
            Sphere(2).point([0.0, 0.0, 1.0]), np.array([1e200, 0.0, 0.0])))


def test_hyperboloid_exp_stack_overflow_names_first_row():
    m = Hyperbolic(2, 2.5)
    rng = np.random.default_rng(31)
    xs = np.array([m.random_point(rng).coords for _ in range(8)])
    vs = np.array([
        m.random_tangent(rng, m.point(x), scale=1.0).components for x in xs
    ])
    vs[0] = 0.0  # a zero step stays put and is never refused
    far = 800.0 / math.sqrt(m.k0)
    for row in (5, 3):
        vs[row] *= far / math.sqrt(m.inner_stack(vs[row], vs[row]))
    with pytest.raises(GeometryDomainError, match=r"exp_stack row 3: \|v\| sqrt\|K\| = 80"):
        m.exp_stack(xs, vs)
    vs[[3, 5]] = 0.0
    assert np.all(np.isfinite(m.exp_stack(xs, vs)))


def test_distance_examples():
    s = Sphere(2, 1.0)
    north = s.point([0.0, 0.0, 1.0])
    equator = s.point([0.0, 1.0, 0.0])
    assert s.distance(north, north) == 0.0
    assert s.distance(north, equator) == pytest.approx(math.pi / 2, abs=1e-12)
    t = FlatTorus([1.0])
    assert t.distance(t.point([0.0]), t.point([0.75])) == pytest.approx(0.25)


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_distance_metric_axioms_sampled(model):
    rng = np.random.default_rng(7)
    pts = [model.random_point(rng) for _ in range(12)]
    for a in pts:
        for b in pts:
            dab = model.distance(a, b)
            assert dab >= 0.0
            assert abs(dab - model.distance(b, a)) <= 1e-9
            for c in pts:
                assert dab <= model.distance(a, c) + model.distance(c, b) + 1e-9


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_exp_log_inversion(model):
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = model.random_point(rng)
        cap = model.injectivity_radius(x)
        radius = 0.9 * cap if math.isfinite(cap) else 2.5
        v = model.random_tangent(rng, x)
        nv = model.norm(x, v)
        if nv < 1e-10:
            continue
        v = model.tangent(x, v.components * (rng.uniform(0.01, 1.0) * radius / nv))
        back = model.log(x, model.exp(x, v))
        assert np.linalg.norm(back.components - v.components) <= 1e-9


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_geodesic_distance_additivity(model):
    rng = np.random.default_rng(17)
    for _ in range(20):
        x, y = sample_pair(model, rng)
        seg = model.geodesic_segment(x, y)
        for t in np.linspace(0.0, seg.length, 7):
            p = seg.point_at(float(t))
            assert abs(model.distance(x, p) - t) <= 1e-9


# --------------------------------------------------------------------- #
# parallel transport
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_transport_isometry_sampled(model):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(1000):
        x, y = sample_pair(model, rng)
        v = model.random_tangent(rng, x)
        w = model.random_tangent(rng, x)
        lv = model.parallel_transport(x, y, v)
        lw = model.parallel_transport(x, y, w)
        worst = max(worst, abs(model.metric(y, lv, lw) - model.metric(x, v, w)))
    assert worst <= 1e-10


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_transport_roundtrip_identity(model):
    rng = np.random.default_rng(23)
    for _ in range(100):
        x, y = sample_pair(model, rng)
        v = model.random_tangent(rng, x)
        back = model.parallel_transport(y, x, model.parallel_transport(x, y, v))
        assert np.linalg.norm(back.components - v.components) <= 1e-9


def test_transport_identity_at_same_point():
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(29)
    x = m.random_point(rng)
    v = m.random_tangent(rng, x)
    assert np.allclose(m.parallel_transport(x, x, v).components, v.components)


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_transport_carries_velocity(model):
    # a geodesic's velocity field is parallel: L_xy(gamma'(0)) = gamma'(ell)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x, y = sample_pair(model, rng)
        seg = model.geodesic_segment(x, y)
        v0 = seg.vector_at_start([1.0] + [0.0] * (model.dim - 1))
        lv = model.parallel_transport(x, y, v0)
        vel_end = seg.vector_at_end([1.0] + [0.0] * (model.dim - 1))
        assert np.linalg.norm(lv.components - vel_end.components) <= 1e-9


def test_transport_norm_preserved_quarter_circle():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    equator = m.point([1.0, 0.0, 0.0])
    v = m.tangent(north, [0.0, 1.0, 0.0])  # normal to the geodesic
    lv = m.parallel_transport(north, equator, v)
    assert m.norm(equator, lv) == pytest.approx(1.0, abs=1e-12)


def test_transport_bilinear_preserves_spectrum():
    rng = np.random.default_rng(37)
    for model in [Sphere(2, 1.0), Hyperbolic(2, 1.0), Euclidean(3)]:
        for _ in range(25):
            x, y = sample_pair(model, rng)
            raw = rng.standard_normal((model.dim, model.dim))
            a = model.bilinear(x, (raw + raw.T) / 2.0)
            la = model.parallel_transport_bilinear(x, y, a)
            assert np.allclose(
                np.sort(la.eigenvalues()), np.sort(a.eigenvalues()), atol=1e-9
            )
            assert np.trace(la.matrix) == pytest.approx(np.trace(a.matrix), abs=1e-9)


def test_transport_bilinear_identity_form():
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(41)
    x, y = sample_pair(m, rng)
    a = m.bilinear(x, np.eye(2))
    assert np.allclose(m.parallel_transport_bilinear(x, y, a).matrix, np.eye(2), atol=1e-12)


# --------------------------------------------------------------------- #
# curvature
# --------------------------------------------------------------------- #

def test_curvature_flat_models_vanish():
    for model in [Euclidean(3), FlatTorus([1.0, 1.0])]:
        rng = np.random.default_rng(43)
        x = model.random_point(rng)
        u, v, w = (model.random_tangent(rng, x) for _ in range(3))
        assert np.allclose(model.curvature_operator(x, u, v, w).components, 0.0)


@pytest.mark.parametrize(
    "model,expected",
    [(Sphere(2, 1.0), 1.0), (Hyperbolic(2, 1.0), -1.0), (Sphere(3, 2.0), 0.25)],
)
def test_curvature_orthonormal_value(model, expected):
    rng = np.random.default_rng(47)
    x = model.random_point(rng)
    frame = model.canonical_frame(x)
    u = model.tangent_from_frame(x, [1.0] + [0.0] * (model.dim - 1))
    v = model.tangent_from_frame(x, [0.0, 1.0] + [0.0] * (model.dim - 2))
    r = model.curvature_operator(x, u, v, v)
    assert model.metric(x, r, u) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_curvature_antisymmetry_and_identity(model):
    rng = np.random.default_rng(53)
    for _ in range(20):
        x = model.random_point(rng)
        u, v = model.random_tangent(rng, x), model.random_tangent(rng, x)
        r_uv = model.curvature_operator(x, u, v, v)
        r_vu = model.curvature_operator(x, v, u, v)
        assert np.allclose(r_uv.components, -r_vu.components, atol=1e-10)
        k = model.constant_sectional()
        if k is not None:
            lhs = model.metric(x, model.curvature_operator(x, u, v, v), u)
            rhs = k * (
                model.metric(x, u, u) * model.metric(x, v, v)
                - model.metric(x, u, v) ** 2
            )
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "model,expected",
    [
        (Euclidean(2), 0.0),
        (Sphere(2, 1.0), 1.0),
        (Sphere(3, 2.0), 0.25),
        (Hyperbolic(2, 1.0), -1.0),
        (FlatTorus([1.0, 2.0]), 0.0),
    ],
)
def test_sectional_curvature_constant_sampled(model, expected):
    rng = np.random.default_rng(59)
    for _ in range(100):
        x = model.random_point(rng)
        u, v = model.random_tangent(rng, x), model.random_tangent(rng, x)
        uu, vv = model.metric(x, u, u), model.metric(x, v, v)
        uv = model.metric(x, u, v)
        if uu * vv - uv * uv < 1e-6:
            continue
        assert abs(model.sectional_curvature(x, u, v) - expected) <= 1e-10


@pytest.mark.parametrize("model", [Sphere(2, 1.0), Sphere(3, 2.0), Hyperbolic(2, 1.0)],
                         ids=model_id)
def test_sectional_curvature_nearly_dependent_pairs(model):
    # |u|^2 |v|^2 - <u,v>^2 cancels for nearly parallel pairs; the
    # orthonormalized pair keeps K exact to roundoff
    rng = np.random.default_rng(61)
    k = model.constant_sectional()
    for angle in [1e-1, 1e-3, 1e-5]:
        for _ in range(50):
            x = model.random_point(rng)
            u, w = model.random_tangent(rng, x), model.random_tangent(rng, x)
            uu, uw = model.metric(x, u, u), model.metric(x, u, w)
            perp = w.components - (uw / uu) * u.components
            perp *= angle * math.sqrt(uu / model.ambient_inner(x, perp, perp))
            v = model.tangent(x, u.components + perp)
            assert abs(model.sectional_curvature(x, u, v) - k) <= 1e-13


def test_sectional_curvature_dependent_vectors_raise():
    m = Sphere(2, 1.0)
    x = m.point([0.0, 0.0, 1.0])
    u = m.tangent(x, [1.0, 0.0, 0.0])
    v = m.tangent(x, [2.0, 0.0, 0.0])
    with pytest.raises(GeometryDomainError):
        m.sectional_curvature(x, u, v)


# --------------------------------------------------------------------- #
# injectivity radius and segments
# --------------------------------------------------------------------- #

def test_injectivity_radius_values():
    assert Sphere(2, 1.0).injectivity_radius() == pytest.approx(math.pi)
    assert FlatTorus([1.0, 1.0]).injectivity_radius() == pytest.approx(0.5)
    assert Euclidean(4).injectivity_radius() == INFINITE_RADIUS
    assert Hyperbolic(2, 1.0).injectivity_radius() == INFINITE_RADIUS
    prod = Product([Sphere(2, 1.0), Euclidean(1)])
    assert prod.injectivity_radius() == pytest.approx(math.pi)


def test_segment_euclidean_straight():
    m = Euclidean(2)
    x, y = m.point([0.0, 0.0]), m.point([3.0, 4.0])
    seg = m.geodesic_segment(x, y)
    assert seg.length == pytest.approx(5.0)
    assert np.allclose(seg.point_at(2.5).coords, [1.5, 2.0])


def test_segment_sphere_midpoint_latitude():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    equator = m.point([1.0, 0.0, 0.0])
    seg = m.geodesic_segment(north, equator)
    assert seg.length == pytest.approx(math.pi / 2, abs=1e-12)
    mid = seg.point_at(seg.length / 2)
    assert mid.coords[2] == pytest.approx(math.sin(math.pi / 4), abs=1e-12)


@pytest.mark.parametrize("model", all_models(), ids=model_id)
def test_segment_frame_orthonormal_and_parallel(model):
    rng = np.random.default_rng(61)
    x, y = sample_pair(model, rng)
    seg = model.geodesic_segment(x, y)
    for t in np.linspace(0.0, seg.length, 5):
        p = seg.point_at(float(t))
        frame = seg.frame_at(float(t))
        gram = np.array(
            [[model.ambient_inner(p, a, b) for b in frame] for a in frame]
        )
        assert np.allclose(gram, np.eye(model.dim), atol=1e-10)
    # parallelism: frame at the far end equals the transported start frame
    for f0, fl in zip(seg.frame0, seg.frame_end):
        from riemvisc import TangentVector

        moved = model.parallel_transport(x, y, TangentVector(x, f0))
        assert np.allclose(moved.components, fl, atol=1e-9)


def test_segment_degenerate_raises():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    with pytest.raises(DegenerateSegmentError):
        m.geodesic_segment(x, x)


def test_segment_cut_locus_raises():
    m = Sphere(2, 1.0)
    north = m.point([0.0, 0.0, 1.0])
    south = m.point([0.0, 0.0, -1.0])
    with pytest.raises(GeometryDomainError):
        m.geodesic_segment(north, south)


# --------------------------------------------------------------------- #
# point invariants, products, JSON
# --------------------------------------------------------------------- #

def test_sphere_point_validation():
    m = Sphere(2, 1.0)
    with pytest.raises(ValueError):
        m.point([0.0, 0.0, 1.5])
    p = m.point([0.0, 0.0, 1.0 + 1e-12])
    assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)


def test_torus_points_wrapped():
    m = FlatTorus([1.0, 2.0])
    p = m.point([1.25, -0.5])
    assert np.allclose(p.coords, [0.25, 1.5])


def test_product_exp_is_pair_of_exps():
    sphere, plane = Sphere(2, 1.0), Euclidean(2)
    prod = Product([sphere, plane])
    rng = np.random.default_rng(67)
    xs, xe = sphere.random_point(rng), plane.random_point(rng)
    x = prod.point(np.concatenate([xs.coords, xe.coords]))
    v = prod.random_tangent(rng, x, scale=0.3)
    joint = prod.exp(x, v)
    vs = sphere.tangent(xs, v.components[:3])
    ve = plane.tangent(xe, v.components[3:])
    assert np.allclose(joint.coords[:3], sphere.exp(xs, vs).coords, atol=1e-12)
    assert np.allclose(joint.coords[3:], plane.exp(xe, ve).coords, atol=1e-12)


def test_tangent_invariant_sphere():
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(71)
    for _ in range(50):
        x = m.random_point(rng)
        v = m.random_tangent(rng, x)
        assert abs(np.dot(x.coords, v.components)) <= 1e-10


def test_model_json_roundtrip():
    for model in all_models():
        rebuilt = from_config(model.config())
        assert rebuilt.config() == model.config()
        assert rebuilt.dim == model.dim


# --------------------------------------------------------------------- #
# the space-form formulas shared by every model
# --------------------------------------------------------------------- #

@st.composite
def space_forms(draw, max_dim=3):
    """Euclidean space, spheres of radius != 1, hyperboloids with K0 != 1, tori."""
    dim = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["euclidean", "sphere", "hyperbolic", "flat_torus"]))
    if kind == "sphere":
        return Sphere(dim, draw(st.sampled_from([0.5, 0.7, 1.0, 2.5])))
    if kind == "hyperbolic":
        return Hyperbolic(dim, draw(st.sampled_from([0.25, 1.0, 2.5, 4.0])))
    if kind == "flat_torus":
        return FlatTorus(draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim)))
    return Euclidean(dim)


EVERY_MODEL = st.one_of(
    space_forms(),
    st.builds(lambda fs: Product(fs), st.lists(space_forms(max_dim=2), min_size=1, max_size=3)),
    st.just(Product([Sphere(2, 1.0), Hyperbolic(2, 1.0)])),
)


def factor_parts(model):
    """``(factor, slice)`` per factor; a space form is its own one factor."""
    if isinstance(model, Product):
        return list(zip(model.factors, model._slices))
    return [(model, slice(None))]


def conditioning(model, x):
    """1 + sum |K| |x|^2 over factors (nested products flattened): the size
    of <a, x> x next to |a|."""
    return 1.0 + sum(
        abs(f.constant_sectional()) * float(x.coords[s] @ x.coords[s])
        for f, s in _space_forms(model)
    )


def reference_components(model, x, vectors, frame):
    """The per-row loop ``components`` replaced, kept as its oracle."""
    return np.array([[model.ambient_inner(x, v, f) for f in frame] for v in vectors])


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=EVERY_MODEL, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_project_tangent_is_idempotent_and_tangent(model, seed, scale):
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    a = rng.standard_normal(model.ambient_dim) * scale
    p = model.project_tangent(x, a)
    tol = 1e-13 * conditioning(model, x) ** 2 * max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(model.project_tangent(x, p) - p)) <= tol
    for f, s in factor_parts(model):
        normal = f.constant_sectional() * f.ambient_inner(None, p[s], x.coords[s])
        assert abs(normal) <= tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=EVERY_MODEL, seed=st.integers(0, 2**32 - 1))
def test_curvature_operator_gives_the_sectional_form(model, seed):
    # <R(u,v)v, u> = K (|u|^2 |v|^2 - <u,v>^2), summed over the factors of a product
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    u, v = model.random_tangent(rng, x), model.random_tangent(rng, x)
    lhs = model.metric(x, model.curvature_operator(x, u, v, v), u)
    rhs = size = 0.0
    for f, s in factor_parts(model):
        uf, vf = u.components[s], v.components[s]
        k = f.constant_sectional()
        uu, vv, uv = (f.ambient_inner(None, a, b) for a, b in ((uf, uf), (vf, vf), (uf, vf)))
        rhs += k * (uu * vv - uv * uv)
        size += abs(k) * float(uf @ uf) * float(vf @ vf)
    assert abs(lhs - rhs) <= 1e-12 * conditioning(model, x) ** 2 * max(size, 1e-300)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=EVERY_MODEL, seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4))
def test_components_match_the_per_row_loop(model, seed, rows):
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    frame = model.canonical_frame(x)
    vectors = np.array([model.random_tangent(rng, x).components for _ in range(rows)])
    ref = reference_components(model, x, vectors, frame)
    assert_bitwise(model.components(vectors, frame), ref)
    assert_bitwise(model.components(vectors[0], frame), ref[0])
    assert_bitwise(model.frame_components(x, TangentVector(x, vectors[0])), ref[0])
    # one frame per row, over a further leading axis
    points = [model.random_point(rng) for _ in range(rows)]
    frames = np.array([model.canonical_frame(p) for p in points])
    moved = np.array([model.random_tangent(rng, p).components for p in points])
    stacked = np.array(
        [reference_components(model, p, [w], f)[0] for p, w, f in zip(points, moved, frames)]
    )
    assert_bitwise(model.components(moved, frames), stacked)
    assert_bitwise(model.components(moved[None], frames[None]), stacked[None])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=EVERY_MODEL, seed=st.integers(0, 2**32 - 1))
def test_transport_bilinear_matches_the_per_row_loop(model, seed):
    rng = np.random.default_rng(seed)
    x, y = sample_pair(model, rng)
    raw = rng.standard_normal((model.dim, model.dim))
    a = model.bilinear(x, raw + raw.T)
    # the loop parallel_transport_bilinear replaced: one frame_components per row
    frame_x = model.canonical_frame(x)
    moved = [
        model.parallel_transport(y, x, TangentVector(y, f)).components
        for f in model.canonical_frame(y)
    ]
    back = reference_components(model, x, moved, frame_x)
    expected = model.bilinear(y, back @ a.matrix @ back.T).matrix
    assert_bitwise(model.parallel_transport_bilinear(x, y, a).matrix, expected)


def _reference_random_point(model, rng):
    """The ``random_point`` bodies the flat models, the sphere and the
    product had before it became a one-row call of ``points_from_draws``,
    kept as its oracle: the draw itself on a flat model, ``_onto`` of it on
    the sphere, the factors' points concatenated on a product."""
    if isinstance(model, Product):
        return np.concatenate([_reference_random_point(f, rng) for f in model.factors])
    if isinstance(model, Sphere):
        return model._onto(model.draw_point(rng))
    if isinstance(model, Hyperbolic):
        return model.random_point(rng).coords
    return model.draw_point(rng)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    model=EVERY_MODEL,
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    scale=st.sampled_from([1.0, 0.8, 1e-3, 30.0]),
)
def test_stacked_draw_maps_match_random_point_and_tangent(model, seed, rows, scale):
    # the same generator calls, then the stacked maps: bit for bit the scalar
    # draws and the reference points
    rng = np.random.default_rng(seed)
    points = [model.random_point(rng) for _ in range(rows)]
    tangents = [model.random_tangent(rng, x, scale=scale) for x in points]
    rng = np.random.default_rng(seed)
    reference = [_reference_random_point(model, rng) for _ in range(rows)]
    rng = np.random.default_rng(seed)
    raw_points = np.array([model.draw_point(rng) for _ in range(rows)])
    raw_tangents = np.array([model.draw_tangent(rng) for _ in range(rows)])
    xs = model.points_from_draws(raw_points)
    assert_bitwise(xs, reference)
    assert_bitwise([x.coords for x in points], reference)
    tangent_rows = model.project_tangent_stack(xs, raw_tangents * scale)
    assert_bitwise(tangent_rows, [t.components for t in tangents])


def _block_calls(rng, n, plan):
    """The generator calls ``draw_stacks`` makes, kept as its oracle: one per
    plan entry, in plan order, of the entry's shape with n leading rows."""
    out = []
    for kind, *args in plan:
        if kind == "normal":
            shape = (args[0],) if isinstance(args[0], int) else tuple(args[0])
            out.append(rng.standard_normal((n, *shape)))
        else:
            low, high = args
            out.append(rng.uniform(low, high, (n, *np.broadcast(low, high).shape)))
    return out


_BOUND = st.floats(-5.0, 5.0)
_PLAN_ENTRIES = st.one_of(
    st.builds(lambda k: ("normal", k), st.integers(0, 6)),
    st.builds(lambda lo, w: ("uniform", lo, lo + w), _BOUND, st.floats(0.0, 3.0)),
    # array bounds of 0 to 6 entries: a scalar low, ranges down to an ulp
    st.builds(lambda lo, ws: ("uniform", lo, lo + np.array(ws, dtype=float)),
              _BOUND, st.lists(st.sampled_from([0.0, 1e-15, 0.5, 3.0]), max_size=6)),
    # or a low per entry
    st.builds(lambda los: ("uniform", np.array(los, dtype=float), np.array(los) + 1.0),
              st.lists(_BOUND, max_size=6)),
)
_PLAN_MODELS = st.one_of(
    EVERY_MODEL,
    st.just(Product([Sphere(2, 1.0), FlatTorus([1.0, 2.0])])),
    st.just(Product([FlatTorus([1.5]), Hyperbolic(2, 2.5), Euclidean(1)])),
)


@st.composite
def draw_plans(draw):
    """A plan of model point draws, tangent draws and free entries."""
    model = draw(_PLAN_MODELS)
    parts = draw(st.lists(st.one_of(
        st.just(model.point_plan),
        st.just([("normal", model.ambient_dim)]),
        st.lists(_PLAN_ENTRIES, min_size=1, max_size=3),
    ), min_size=1, max_size=4))
    return [entry for part in parts for entry in part]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    calls=st.lists(st.tuples(draw_plans(), st.integers(1, 60)), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_stacks_is_one_block_call_per_plan_entry(calls, seed):
    # chained calls on one generator, as the geometry check makes them: every
    # stack bit for bit the twin's block call, one call per entry, and the
    # generator left in the twin's state
    rng, ref = Recording(seed), np.random.default_rng(seed)
    for plan, n in calls:
        rng.calls.clear()
        got, expected = draw_stacks(rng, n, plan), _block_calls(ref, n, plan)
        assert [name for name, _ in rng.calls] == [
            "standard_normal" if kind == "normal" else "uniform" for kind, *_ in plan]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=_PLAN_MODELS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20))
def test_draw_samples_join_the_point_blocks(model, seed, n):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    raw_x, raw_v = model.draw_samples(rng, n, ("normal", model.ambient_dim))
    *point, tangent = _block_calls(ref, n, [*model.point_plan, ("normal", model.ambient_dim)])
    assert raw_x.tobytes() == np.concatenate(point, axis=1).tobytes()
    assert raw_v.tobytes() == tangent.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=_PLAN_MODELS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
def test_one_sample_draws_keep_their_stream(model, seed, n):
    # draw_point, the one-row draw_samples, draws what one scalar call per
    # point_plan entry draws: random_point, random_tangent and random_pair
    # keep the stream they always had
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        row = np.concatenate([
            np.atleast_1d(ref.standard_normal(e[1]) if e[0] == "normal" else ref.uniform(*e[1:]))
            for e in model.point_plan])
        assert model.draw_point(rng).tobytes() == row.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    # random_pair: a point, a tangent and a length, each drawn as its own call
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    x, y, ell = model.random_pair(rng, 0.05, 0.5)
    raw_x, raw_d = model.draw_point(ref), ref.standard_normal(model.ambient_dim)
    assert ell == ref.uniform(0.05, 0.5)
    xs, ys = model.pairs_from_draws(raw_x[None], raw_d[None], np.array([ell]))
    assert x.coords.tobytes() == xs[0].tobytes() and y.coords.tobytes() == ys[0].tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("model", [
    Sphere(2), Hyperbolic(3, 4), Euclidean(3), FlatTorus([1, 1.5]),
    Product([Sphere(2), FlatTorus([1, 2]), Hyperbolic(2, 2.5)]),
], ids=model_id)
def test_draw_point_is_the_one_sample_draw_samples(model, seed):
    # one generator call per point_plan entry at its own shape: the bits of
    # row 0 of the one-sample block draw, and the generator left alike
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, (expected,) = model.draw_point(rng), model.draw_samples(ref, 1)
    assert got.shape == expected[0].shape and got.tobytes() == expected[0].tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("offset", [1e-6, 1e-7, 1.01e-8, 1e-9])
@pytest.mark.parametrize("model", [Sphere(2, 1.0), Sphere(3, 0.7), Hyperbolic(2, 1.0),
                                   Hyperbolic(3, 2.5)], ids=model_id)
def test_frames_near_a_coordinate_axis_are_tangent(model, offset):
    # next to an axis the axis seed's Gram-Schmidt remainder is roundoff
    # alone; a frame that kept it had a row along x itself
    if isinstance(model, Sphere):
        coords = np.zeros(model.dim + 1)
        coords[0], coords[1] = model.radius, offset
        x = model.point(coords * (model.radius / np.linalg.norm(coords)))
    else:
        x = model.exp(model.base_point(), model.tangent(model.base_point(),
                                                        np.eye(model.dim + 1)[1] * offset))
    for frame in (model.canonical_frame(x), model.canonical_frames(x.coords[None])[0]):
        gram = model.inner_stack(frame[:, None], frame[None])
        assert np.abs(gram - np.eye(model.dim)).max() <= 1e-12
        assert np.abs(model.inner_stack(frame, x.coords)).max() <= 1e-12


# --------------------------------------------------------------------- #
# the row kernels of transport and curvature                            #
# --------------------------------------------------------------------- #

def reference_transport(model, x, y, v):
    """The single-vector parallel transport ``transport_rows`` replaced, kept
    as its oracle: factorwise on a product, the identity on a flat model, and
    on a space form v - a u + a (-sign S(theta) x / rho + C(theta) u), with u
    the unit velocity, theta = d(x, y) / rho and a = <v, u>."""
    if isinstance(model, Product):
        return np.concatenate([
            reference_transport(f, Point(x.coords[s]), Point(y.coords[s]), v[s])
            for f, s in zip(model.factors, model._slices)
        ])
    if isinstance(model, Sphere):
        c_fn, s_fn, sign, rho = math.cos, math.sin, 1.0, model.radius
    elif isinstance(model, Hyperbolic):
        c_fn, s_fn, sign, rho = math.cosh, math.sinh, -1.0, model.scale
    else:
        return v.copy()
    e = model.log(x, y).components
    ell = math.sqrt(max(model.ambient_inner(x, e, e), 0.0))
    if ell <= 1e-300:
        return v.copy()
    u = e / ell
    theta = ell / rho
    a = model.ambient_inner(x, v, u)
    vel_y = -sign * s_fn(theta) * x.coords / rho + c_fn(theta) * u
    return v - a * u + a * vel_y


def reference_curvature(model, u, v, w):
    """The single-vector R(u, v)w = K (<v,w> u - <u,w> v), factorwise on a
    product, that ``curvature_rows`` replaced."""
    if isinstance(model, Product):
        return np.concatenate([
            reference_curvature(f, u[s], v[s], w[s]) for f, s in zip(model.factors, model._slices)
        ])
    uw = model.ambient_inner(None, u, w)
    vw = model.ambient_inner(None, v, w)
    return model.constant_sectional() * (vw * u - uw * v)


ROW_KERNEL_MODELS = st.one_of(
    EVERY_MODEL,
    st.just(Hyperbolic(3, 4.0)),
    st.builds(
        lambda inner, outer: Product([Product(inner), outer]),
        st.lists(space_forms(max_dim=2), min_size=1, max_size=2),
        space_forms(max_dim=2),
    ),
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    model=ROW_KERNEL_MODELS,
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 5),
    far=st.sampled_from([0.0, 2.0, 5.0]),
    same=st.booleans(),
)
def test_row_kernels_match_the_single_vector_formulas(model, seed, rows, far, same):
    rng = np.random.default_rng(seed)

    def step(x, ell):
        d = model.random_tangent(rng, x)
        nd = model.norm(x, d)
        assume(nd > 0.0)
        return model.exp(x, TangentVector(x, d.components * (ell / nd)))

    # a hyperboloid point at distance `far` has coordinates of size cosh(far sqrt K0)
    x = step(model.random_point(rng), far)
    y = x
    if not same:
        cap = model.injectivity_radius(x)
        y = step(x, rng.uniform(0.05, 0.9 * min(cap, 3.0) if math.isfinite(cap) else 2.7))
    vs = np.array([model.random_tangent(rng, x).components for _ in range(rows)])
    vs = vs.reshape(rows, model.ambient_dim)
    v, w = model.random_tangent(rng, x), model.random_tangent(rng, x)

    moved = [reference_transport(model, x, y, r) for r in vs]
    assert_bitwise(model.transport_rows(x, y, vs), np.reshape(moved, vs.shape))
    bent = [reference_curvature(model, r, v.components, w.components) for r in vs]
    assert_bitwise(model.curvature_rows(vs, v.components, w.components), np.reshape(bent, vs.shape))
    if rows:
        assert_bitwise(model.parallel_transport(x, y, TangentVector(x, vs[0])).components, moved[0])
        assert_bitwise(model.curvature_operator(x, TangentVector(x, vs[0]), v, w).components, bent[0])
    # the frame transport matrix is the per-row loop it replaced
    frame_moved = [reference_transport(model, x, y, f) for f in model.canonical_frame(x)]
    expected = reference_components(model, y, frame_moved, model.canonical_frame(y))
    assert_bitwise(model.transport_matrix(x, y), expected)


# --------------------------------------------------------------------- #
# log, transport and transport matrices over stacks of point pairs      #
# --------------------------------------------------------------------- #

def apex(model):
    """A point whose curvature-scaled square <x, x> K is exactly 1 on each
    space-form factor (an axis point of the sphere, the hyperboloid's apex),
    so that log(x, x) takes its zero branch."""
    if isinstance(model, Product):
        return Point(np.concatenate([apex(f).coords for f in model.factors]))
    if isinstance(model, Sphere):
        return Point(np.eye(model.dim + 1)[-1] * model.radius)
    if isinstance(model, Hyperbolic):
        return model.base_point()
    return Point(np.zeros(model.ambient_dim))


def outcome(fn):
    """``fn()`` as a float array, or ``GeometryDomainError`` if it raised one."""
    try:
        return np.asarray(fn(), dtype=float)
    except GeometryDomainError:
        return GeometryDomainError


def assert_same_outcome(stacked, single):
    expected = outcome(single)
    if expected is GeometryDomainError:
        assert outcome(stacked) is GeometryDomainError
    else:
        assert_bitwise(stacked(), expected)


def _reference_exp(model, x, v):
    """The one-pair ``exp`` bodies the flat models and the product had
    before it became a one-row call of ``exp_stack``, on coordinate rows,
    kept as its oracle: x + v, wrapped on the torus, factorwise on a
    product; a space form's own body."""
    if isinstance(model, Product):
        return np.concatenate([_reference_exp(f, x[s], v[s]) for f, s in factor_parts(model)])
    if isinstance(model, FlatTorus):
        return model.wrap(x + v)
    if isinstance(model, Euclidean):
        return x + v
    base = Point(x)
    return model.exp(base, TangentVector(base, v)).coords


def _reference_log(model, x, y):
    """``log`` as ``_reference_exp`` is ``exp``: y - x, the torus's minimal
    difference refused at the cut locus, factorwise on a product."""
    if isinstance(model, Product):
        return np.concatenate([_reference_log(f, x[s], y[s]) for f, s in factor_parts(model)])
    if isinstance(model, FlatTorus):
        d = model._minimal_diff(x, y)
        if np.any(model.periods / 2.0 - np.abs(d) < 1e-12 * model.periods):
            raise GeometryDomainError("log undefined at the torus cut locus")
        return d
    if isinstance(model, Euclidean):
        return y - x
    return model.log(Point(x), Point(y)).components


def _reference_distance(model, x, y):
    """``distance`` as ``_reference_exp`` is ``exp``: the norm of y - x or of
    the torus's minimal difference, the root of the factors' squares on a
    product."""
    if isinstance(model, Product):
        return math.sqrt(sum(_reference_distance(f, x[s], y[s]) ** 2 for f, s in factor_parts(model)))
    if isinstance(model, FlatTorus):
        return float(np.linalg.norm(model._minimal_diff(x, y)))
    if isinstance(model, Euclidean):
        return float(np.linalg.norm(y - x))
    return model.distance(Point(x), Point(y))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    model=ROW_KERNEL_MODELS,
    seed=st.integers(0, 2**32 - 1),
    pairs=st.integers(1, 6),
    far=st.sampled_from([0.0, 2.0, 5.0]),
)
def test_pair_stack_kernels_match_the_single_pair_methods(model, seed, pairs, far):
    rng = np.random.default_rng(seed)

    def step(x, ell):
        d = model.random_tangent(rng, x)
        nd = model.norm(x, d)
        assume(nd > 0.0)
        return model.exp(x, TangentVector(x, d.components * (ell / nd)))

    # distinct pairs, then x = y at a random point and at the apex (the
    # l <= 1e-300 branch of transport, log's zero branch)
    xs, ys = [], []
    for _ in range(pairs):
        x = step(model.random_point(rng), far)
        cap = model.injectivity_radius(x)
        xs.append(x)
        ys.append(step(x, rng.uniform(0.05, 0.9 * min(cap, 3.0) if math.isfinite(cap) else 2.7)))
    xs += [xs[0], apex(model)]
    ys += [xs[0], apex(model)]
    x_rows, y_rows = np.array([x.coords for x in xs]), np.array([y.coords for y in ys])
    vs = np.array([model.random_tangent(rng, x).components for x in xs])
    frames = np.array([[model.random_tangent(rng, x).components for _ in range(3)] for x in xs])

    # the stacks and the one-pair methods against the reference bodies
    logs = [_reference_log(model, x, y) for x, y in zip(x_rows, y_rows)]
    assert_bitwise(model.log_stack(x_rows, y_rows), logs)
    assert_bitwise([model.log(x, y).components for x, y in zip(xs, ys)], logs)
    assert not np.any(logs[-1])
    dists = [_reference_distance(model, x, y) for x, y in zip(x_rows, y_rows)]
    assert_bitwise(model.distance_stack(x_rows, y_rows), dists)
    assert_bitwise([model.distance(x, y) for x, y in zip(xs, ys)], dists)
    ends = [_reference_exp(model, x, v) for x, v in zip(x_rows, logs)]
    assert_bitwise(model.exp_stack(x_rows, np.array(logs)), ends)
    assert_bitwise([model.exp(x, TangentVector(x, v)).coords for x, v in zip(xs, logs)], ends)
    moved = [reference_transport(model, x, y, v) for x, y, v in zip(xs, ys, vs)]
    assert_bitwise(model.transport_stack(x_rows, y_rows, vs), moved)
    assert_bitwise([model.transport_rows(x, y, v[None])[0] for x, y, v in zip(xs, ys, vs)], moved)
    moved = [[reference_transport(model, x, y, r) for r in f] for x, y, f in zip(xs, ys, frames)]
    assert_bitwise(model.transport_stack(x_rows, y_rows, frames), moved)
    assert_bitwise([model.transport_rows(x, y, f) for x, y, f in zip(xs, ys, frames)], moved)
    assert_bitwise(model.transport_stack(x_rows[-1:], y_rows[-1:], vs[-1:]), vs[-1:])
    # far out on a hyperboloid a frame or a plane may be refused: then both are
    assert_same_outcome(lambda: model.transport_matrices(x_rows, y_rows),
                        lambda: [model.transport_matrix(x, y) for x, y in zip(xs, ys)])
    us, ws = frames[:, 0], frames[:, 1]
    assert_same_outcome(
        lambda: model.sectional_curvature_stack(us, ws),
        lambda: [_reference_sectional_curvature(model, x, TangentVector(x, u), TangentVector(x, w))
                 for x, u, w in zip(xs, us, ws)])


@pytest.mark.parametrize("model,y", [
    (Sphere(2, 1.0), [-1.0, 0.0, 0.0]),
    (FlatTorus([1.0, 2.0]), [0.5, 0.25]),
], ids=["sphere_antipode", "torus_cut_locus"])
def test_log_stack_names_the_first_row_without_a_log(model, y):
    xs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]] if isinstance(model, Sphere)
                  else [[0.1, 0.1], [0.0, 0.0]])
    ys = np.array([xs[0] if isinstance(model, Sphere) else [0.2, 0.3], y])
    with pytest.raises(GeometryDomainError, match="log_stack row 1"):
        model.log_stack(xs, ys)
    with pytest.raises(GeometryDomainError):
        model.log(Point(xs[1]), Point(ys[1]))


def test_only_the_space_forms_keep_second_one_pair_bodies():
    # every other model inherits Manifold's one-row calls of the stacks
    models = (Euclidean, FlatTorus, _SpaceForm, Sphere, Hyperbolic, Product)
    for name in ("exp", "log", "distance", "transport_rows"):
        assert name in vars(Manifold)
        assert [m for m in models if name in vars(m)] == [_SpaceForm], name
    assert "random_point" in vars(Manifold)
    assert [m for m in models if "random_point" in vars(m)] == [Hyperbolic]


def _reference_sectional_curvature(model, x, u, v):
    """The one-plane body of ``sectional_curvature`` before it became a
    one-row call of ``sectional_curvature_stack``, kept as its oracle."""
    uu, vv, uv = model.metric(x, u, u), model.metric(x, v, v), model.metric(x, u, v)
    if uu * vv - uv * uv <= 1e-12 * max(uu * vv, 1e-300):
        raise GeometryDomainError("sectional curvature needs independent vectors")
    e1 = TangentVector(x, u.components / math.sqrt(uu))
    w = v.components - (uv / uu) * u.components
    ww = model.ambient_inner(x, w, w)
    if ww <= 0.0:  # roundoff far from the hyperboloid's apex
        raise GeometryDomainError("sectional curvature needs independent vectors")
    e2 = TangentVector(x, w / math.sqrt(ww))
    return model.metric(x, model.curvature_operator(x, e1, e2, e2), e1)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    model=ROW_KERNEL_MODELS,
    seed=st.integers(0, 2**32 - 1),
    tilt=st.sampled_from([1.0, 1e-3, 1e-7, 0.0]),
    zero=st.booleans(),
)
def test_sectional_curvature_is_the_one_plane_body(model, seed, tilt, zero):
    # nearly dependent planes, dependent ones (tilt 0) and a zero first
    # vector: refused alike, or the same bits
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    u, w = model.random_tangent(rng, x), model.random_tangent(rng, x)
    v = TangentVector(x, u.components + tilt * w.components)
    if zero:
        u = TangentVector(x, np.zeros(model.ambient_dim))
    assert_same_outcome(lambda: model.sectional_curvature(x, u, v),
                        lambda: _reference_sectional_curvature(model, x, u, v))


@pytest.mark.parametrize("distance", [5.0, 6.0])
def test_sectional_curvature_refuses_as_the_stack_far_from_the_apex(distance):
    # far from the apex the Gram-Schmidt remainder's Minkowski square can
    # round to <= 0; the one-plane body refused those planes with a typed
    # error, and so do the method and the stack
    model = Hyperbolic(3, 4.0)
    rng = np.random.default_rng(20)
    planes, values, refused = [], [], []
    for i in range(300):
        p = model.random_point(rng)
        d = model.random_tangent(rng, p)
        x = model.exp(p, TangentVector(p, d.components * (distance / model.norm(p, d))))
        u, v = model.random_tangent(rng, x), model.random_tangent(rng, x)
        planes.append((u.components, v.components))
        try:
            values.append(_reference_sectional_curvature(model, x, u, v))
        except GeometryDomainError:
            refused.append(i)
            values.append(None)
            with pytest.raises(GeometryDomainError, match="independent vectors"):
                model.sectional_curvature(x, u, v)
        else:
            assert_bitwise(model.sectional_curvature(x, u, v), values[-1])
    assert 0 < len(refused) < 300
    us, vs = (np.array(side) for side in zip(*planes))
    for i in range(300):
        if values[i] is None:
            with pytest.raises(GeometryDomainError, match="row 0"):
                model.sectional_curvature_stack(us[i:i + 1], vs[i:i + 1])
    with pytest.raises(GeometryDomainError, match=f"row {refused[0]}"):
        model.sectional_curvature_stack(us, vs)
    kept = [i for i in range(300) if values[i] is not None]
    assert_bitwise(model.sectional_curvature_stack(us[kept], vs[kept]), [values[i] for i in kept])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=EVERY_MODEL, seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 5))
def test_segment_stack_is_connect_per_pair(model, seed, pairs):
    rng = np.random.default_rng(seed)
    cap = model.injectivity_radius()
    high = 0.9 * cap if math.isfinite(cap) else 2.5
    drawn = [model.random_pair(rng, 0.05, high)[:2] for _ in range(pairs)]
    xs = np.array([x.coords for x, _ in drawn])
    ys = np.array([y.coords for _, y in drawn])
    segs = SegmentStack.connect(model, xs, ys)
    singles = [GeodesicSegment.connect(model, x, y) for x, y in drawn]
    assert_bitwise(segs.lengths, [s.length for s in singles])
    assert_bitwise(segs.frame0, [s.frame0 for s in singles])
    assert_bitwise(segs.frame_end, [s.frame_end for s in singles])
    ts = rng.uniform(0.0, 1.0, (pairs, 3)) * segs.lengths[:, None]
    ts[:, 0] = 0.0
    assert_bitwise(segs.points_at(ts), [[s.point_at(float(t)).coords for t in row]
                                        for s, row in zip(singles, ts)])


def _gram_schmidt(model, x, rows, seeds):
    """Extend orthonormal ``rows`` by Gram-Schmidt over ``seeds`` as the frame
    builders do: the frame and the squared norms of the remainders it met."""
    rows, met = list(rows), []
    for u in seeds:
        for r in rows:
            u = u - model.ambient_inner(x, u, r) * r
        met.append(model.ambient_inner(x, u, u))
        if met[-1] > _FRAME_FLOOR:
            rows.append(u / math.sqrt(met[-1]))
        if len(rows) == model.dim:
            return np.array(rows), met
    raise GeometryDomainError("frame construction failed")


def _reference_two_pass_frame(model, x, first):
    """The seeded frame as built before it became one Gram-Schmidt pass, kept
    as the oracle of that pass: the canonical frame at x first, then
    Gram-Schmidt over its rows after the orthonormal rows ``first``."""
    return _gram_schmidt(model, x, first, model.canonical_frame(x))[0]


def _near_the_floor(model, x, e1):
    """Whether the canonical frame, the one-pass or the two-pass seeded frame
    at x meets a remainder within a factor 100 of ``_FRAME_FLOOR``, where the
    two seeded frames may keep different axes."""
    axes = [model.project_tangent(x, e) for e in np.eye(model.ambient_dim)]
    runs = (([], axes), ([e1], axes), ([e1], model.canonical_frame(x)))
    return any(_FRAME_FLOOR / 100 < nrm2 <= 100 * _FRAME_FLOOR
               for rows, seeds in runs for nrm2 in _gram_schmidt(model, x, rows, seeds)[1])


NESTED_PRODUCTS = st.builds(
    lambda a, b, c: Product([a, Product([b, c])]),
    space_forms(max_dim=1), space_forms(max_dim=2), space_forms(max_dim=1),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=st.one_of(EVERY_MODEL, NESTED_PRODUCTS), seed=st.integers(0, 2**32 - 1))
def test_one_pass_seeded_frames_are_the_two_pass_frames(model, seed):
    # Gram-Schmidt keeps nested spans, so the pass over the projected axes
    # after e1 is the frame seeded over the canonical rows, up to roundoff,
    # wherever both keep the same axes; a remainder near the floor (about 1
    # draw in 300) may make them keep different ones (the next test)
    rng = np.random.default_rng(seed)
    points = [model.random_point(rng) for _ in range(20)]
    firsts = []
    for x in points:
        v = model.random_tangent(rng, x)
        firsts.append(v.components / model.norm(x, v))
    coords = np.array([x.coords for x in points])
    frames = model.canonical_frames(coords, first=np.array(firsts)[:, None])
    for x, e1, one in zip(points, firsts, frames):
        assert np.array_equal(one[0], e1)
        if _near_the_floor(model, x, e1):
            continue
        two = _reference_two_pass_frame(model, x, [e1])
        # the hyperboloid's Minkowski products cancel at the size of <a, x> x
        assert np.max(np.abs(one - two)) <= 1e-11 * conditioning(model, x) ** 2
        # no row flipped: each row has unit product with its two-pass row
        assert np.all(model.inner_stack(one, two) > 0.5)


def test_a_remainder_near_the_floor_may_take_another_axis():
    # 0.05 rad from the x axis, e1 is 1e-3 rad off the unit tangent c0 the x
    # axis projects to (length sin 0.05): after e1 the one pass meets that
    # axis with a remainder of squared norm 2.5e-9 and skips it, taking the
    # second row from the y axis; the two-pass frame keeps c0's remainder,
    # 1e-6.  Both are orthonormal frames seeded by e1; the second rows are
    # opposite.
    m = Sphere(2, 1.0)
    x = m.point([math.cos(0.05), math.sin(0.05), 0.0])
    c0 = np.array([math.sin(0.05), -math.cos(0.05), 0.0])
    e1 = math.cos(1e-3) * c0 + math.sin(1e-3) * np.array([0.0, 0.0, 1.0])
    assert _near_the_floor(m, x, e1)
    one = m.canonical_frames(x.coords[None], first=e1[None, None])[0]
    two = _reference_two_pass_frame(m, x, [e1])
    assert np.allclose(m.canonical_frame(x), [c0, [0.0, 0.0, 1.0]], rtol=0.0, atol=1e-13)
    assert np.array_equal(one[0], e1) and np.array_equal(two[0], e1)
    for frame in (one, two):
        assert np.allclose(m.inner_stack(frame[:, None], frame[None]), np.eye(2), atol=1e-12)
    # each second row divides a remainder of norm ~1e-3, which scales roundoff alike
    assert np.allclose(one[1], -two[1], rtol=0.0, atol=1e-10)


def test_a_seeded_frame_is_built_once(monkeypatch):
    # canonical_frames(xs, first) does not call itself, and no segment or
    # product tidal spectrum builds an unseeded frame before seeding one
    model = Product([Sphere(2, 1.0), Product([Hyperbolic(2, 4.0), Euclidean(1)])])
    x, y = model.random_pair(np.random.default_rng(0), 0.1, 1.0)[:2]
    frames, seeded = Manifold.canonical_frames, []

    def counted(self, coords, first=None):
        seeded.append(first is not None)
        return frames(self, coords, first)

    def refused(self, x):
        raise AssertionError("an unseeded frame built before seeding")

    monkeypatch.setattr(Manifold, "canonical_frames", counted)
    monkeypatch.setattr(Manifold, "canonical_frame", refused)
    seg = GeodesicSegment.connect(model, x, y)
    assert seeded == []
    SegmentStack.connect(model, x.coords[None], y.coords[None])
    assert seeded == [True]
    seeded.clear()
    # one seeded frame per space-form factor, each of which moves
    _tidal_spectra(model, x.coords[None], seg.frame0[None])
    assert seeded == [True] * 3


def test_segment_stack_names_the_first_refused_row():
    m = Sphere(2, 1.0)
    north, south, east = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]
    with pytest.raises(DegenerateSegmentError, match="sample 1"):
        SegmentStack.connect(m, np.array([north, north]), np.array([east, north]))
    with pytest.raises(GeometryDomainError, match="sample 2"):
        SegmentStack.connect(m, np.array([north, north, north]), np.array([east, east, south]))
