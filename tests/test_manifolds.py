"""Geometry kernel checks: metric, exp/log, transport, curvature, segments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemvisc import (
    BasePointMismatchError,
    DegenerateSegmentError,
    Euclidean,
    FlatTorus,
    GeometryDomainError,
    Hyperbolic,
    INFINITE_RADIUS,
    Product,
    Sphere,
    TangentVector,
    from_config,
)


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
    """1 + sum |K| |x|^2 over factors: the size of <a, x> x next to |a|."""
    return 1.0 + sum(
        abs(f.constant_sectional()) * float(x.coords[s] @ x.coords[s])
        for f, s in factor_parts(model)
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    model=EVERY_MODEL,
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 5),
    scale=st.sampled_from([1.0, 0.8, 1e-3, 30.0]),
)
def test_stacked_draw_maps_match_random_point_and_tangent(model, seed, rows, scale):
    # the same generator calls, then the stacked maps: bit for bit the scalar draws
    rng = np.random.default_rng(seed)
    points = [model.random_point(rng) for _ in range(rows)]
    tangents = [model.random_tangent(rng, x, scale=scale) for x in points]
    rng = np.random.default_rng(seed)
    raw_points = np.array([model.draw_point(rng) for _ in range(rows)])
    raw_tangents = np.array([model.draw_tangent(rng) for _ in range(rows)])
    xs = model.points_from_draws(raw_points)
    assert_bitwise(xs, [x.coords for x in points])
    tangent_rows = model.project_tangent_stack(xs, raw_tangents * scale)
    assert_bitwise(tangent_rows, [t.components for t in tangents])
