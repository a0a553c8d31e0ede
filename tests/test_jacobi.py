"""Jacobi BVP, index form, and squared-distance Hessian oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemvisc import (
    DegenerateSegmentError, Euclidean, FlatTorus, GeometryDomainError, Hyperbolic,
    PreconditionError, Product, SingularBVPError, Sphere, TangentVector,
)
from riemvisc.jacobi import (
    _PairDraws,
    _draw_pairs,
    _endpoint_scalars,
    _hessian_blocks,
    _pair_stack,
    _segment_frame_hessian,
    check_curvature_bound,
    check_sign_condition,
    grad_distance_sq,
    hessian_distance_sq,
    hessian_on_parallel_pair,
    index_form,
    index_minimality_check,
    jacobi_residual,
    parallel_field,
    parallel_pair_sweep,
    sine_bump_field,
    solve_jacobi_bvp,
    tidal_matrix,
)

MODELS = [
    Euclidean(2),
    Sphere(2, 1.0),
    Sphere(3, 2.0),
    Hyperbolic(2, 1.0),
    FlatTorus([1.0, 1.0]),
    Product([Sphere(2, 1.0), Euclidean(2)]),
]


def random_segment(model, rng, lo=0.1, hi=None):
    x = model.random_point(rng)
    cap = model.injectivity_radius(x)
    hi = hi if hi is not None else (0.85 * cap if math.isfinite(cap) else 2.5)
    ell = rng.uniform(lo, hi)
    d = model.random_tangent(rng, x)
    d = model.tangent(x, d.components * (ell / model.norm(x, d)))
    return model.geodesic_segment(x, model.exp(x, d))


def pole_equator_segment():
    m = Sphere(2, 1.0)
    return m, m.geodesic_segment(m.point([0, 0, 1.0]), m.point([1.0, 0, 0]))


def second_difference(f, h):
    return (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


def second_difference_o4(f, h):
    return (
        -f(2 * h) + 16.0 * f(h) - 30.0 * f(0.0) + 16.0 * f(-h) - f(-2 * h)
    ) / (12.0 * h * h)


# --------------------------------------------------------------------- #
# Jacobi boundary value problem
# --------------------------------------------------------------------- #

def test_flat_jacobi_fields_are_affine():
    m = Euclidean(2)
    seg = m.geodesic_segment(m.point([0, 0]), m.point([2, 0]))
    v = m.tangent(seg.start, [0.0, 1.0])
    w = m.tangent(seg.end, [0.0, -1.0])
    jf = solve_jacobi_bvp(seg, v, w)
    ts = np.linspace(0, seg.length, 9)
    expected = np.stack(
        [np.zeros_like(ts), 1.0 + (-2.0 / seg.length) * ts], axis=1
    )
    assert np.allclose(jf.coeffs(ts), expected, atol=1e-12)


def test_sphere_quarter_circle_closed_form():
    # boundary data v, L v for a unit normal: coefficients cos t + sin t
    m, seg = pole_equator_segment()
    v = seg.vector_at_start([0.0, 1.0])
    w = m.parallel_transport(seg.start, seg.end, v)
    jf = solve_jacobi_bvp(seg, v, w)
    ts = np.linspace(0, seg.length, 33)
    assert np.allclose(jf.coeffs(ts)[:, 1], np.cos(ts) + np.sin(ts), atol=1e-10)
    assert np.allclose(jf.coeffs(ts)[:, 0], 0.0, atol=1e-12)


def test_velocity_field_is_jacobi():
    rng = np.random.default_rng(5)
    for model in MODELS:
        seg = random_segment(model, rng)
        v = seg.vector_at_start([1.0] + [0.0] * (model.dim - 1))
        w = seg.vector_at_end([1.0] + [0.0] * (model.dim - 1))
        jf = solve_jacobi_bvp(seg, v, w)
        ts = np.linspace(0, seg.length, 17)
        expected = np.zeros((17, model.dim))
        expected[:, 0] = 1.0
        assert np.allclose(jf.coeffs(ts), expected, atol=1e-9)


def test_bvp_long_segment_negative_curvature():
    # a C + c S with c = (b - a cosh(s ell)) / sinh(s ell) cancels like
    # eps cosh(s ell); the two-endpoint form is the exact reference
    m = Hyperbolic(2, 25.0)
    o = m.base_point()
    seg = m.geodesic_segment(o, m.exp(o, m.tangent(o, [0.0, 2.5, 0.0])))
    v, w = seg.vector_at_start([0.2, 0.7]), seg.vector_at_end([0.4, -1.3])
    jf = solve_jacobi_bvp(seg, v, w)
    a, b = seg.components_at_start(v)[1], seg.components_at_end(w)[1]
    s, ell = 5.0, seg.length
    exact = np.array([
        (math.sinh(s * (ell - t)) * a + math.sinh(s * t) * b) / math.sinh(s * ell)
        for t in jf.ts
    ])
    assert np.max(np.abs(jf.values[:, 1] - exact)) <= 1e-13 * np.max(np.abs(exact))
    assert jacobi_residual(jf) <= 1e-8


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind + str(m.dim))
def test_bvp_boundary_conditions_and_residual(model):
    rng = np.random.default_rng(7)
    for _ in range(5):
        seg = random_segment(model, rng)
        v = model.random_tangent(rng, seg.start)
        w = model.random_tangent(rng, seg.end)
        jf = solve_jacobi_bvp(seg, v, w)
        assert np.allclose(jf.start_value, seg.components_at_start(v), atol=1e-10)
        assert np.allclose(jf.end_value, seg.components_at_end(w), atol=1e-10)
        assert jacobi_residual(jf) <= 1e-8


@st.composite
def random_products(draw):
    """Products of sphere, hyperbolic and Euclidean factors, total dim <= 4.

    Factor curvatures reach |K| = 4 (sphere radius 0.5, hyperbolic K0 = 4).
    """
    factors, budget = [], 4
    while budget and (not factors or draw(st.booleans())):
        dim = draw(st.integers(1, min(3, budget)))
        budget -= dim
        kind = draw(st.sampled_from(["sphere", "hyperbolic", "euclidean"]))
        if kind == "sphere":
            factors.append(Sphere(dim, draw(st.sampled_from([0.5, 1.0, 2.0]))))
        elif kind == "hyperbolic":
            factors.append(Hyperbolic(dim, draw(st.sampled_from([0.25, 1.0, 4.0]))))
        else:
            factors.append(Euclidean(dim))
    return Product(factors)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model=random_products(), seed=st.integers(0, 2**32 - 1))
def test_product_jacobi_properties(model, seed):
    rng = np.random.default_rng(seed)
    seg = random_segment(model, rng)
    v = model.random_tangent(rng, seg.start)
    w = model.random_tangent(rng, seg.end)
    jf = solve_jacobi_bvp(seg, v, w)
    assert np.allclose(jf.start_value, seg.components_at_start(v), atol=1e-10)
    assert np.allclose(jf.end_value, seg.components_at_end(w), atol=1e-10)
    assert jacobi_residual(jf) <= 1e-8
    assert abs(index_form(seg, jf) - jf.endpoint_pairing()) <= 1e-8
    h = hessian_distance_sq(model, seg.start, seg.end)
    assert np.max(np.abs(h.matrix - h.matrix.T)) <= 1e-10


# --------------------------------------------------------------------- #
# index form
# --------------------------------------------------------------------- #

def test_index_form_parallel_normal_sphere():
    m, seg = pole_equator_segment()
    z = parallel_field(seg, seg.vector_at_start([0.0, 1.0]))
    assert index_form(seg, z) == pytest.approx(-seg.length, abs=1e-10)


def test_index_form_parallel_euclidean_zero():
    m = Euclidean(2)
    seg = m.geodesic_segment(m.point([0, 0]), m.point([1, 1]))
    z = parallel_field(seg, m.tangent(seg.start, [1.0, 0.0]))
    assert index_form(seg, z) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind + str(m.dim))
def test_index_form_equals_endpoint_pairing(model):
    rng = np.random.default_rng(13)
    for _ in range(10):
        seg = random_segment(model, rng)
        v = model.random_tangent(rng, seg.start)
        w = model.random_tangent(rng, seg.end)
        jf = solve_jacobi_bvp(seg, v, w)
        assert abs(index_form(seg, jf) - jf.endpoint_pairing()) <= 1e-8


# --------------------------------------------------------------------- #
# minimality of the Jacobi field
# --------------------------------------------------------------------- #

def test_minimality_random_competitors():
    rng = np.random.default_rng(17)
    for model in MODELS:
        seg = random_segment(model, rng)
        v = model.random_tangent(rng, seg.start)
        w = model.random_tangent(rng, seg.end)
        report = index_minimality_check(seg, v, w, n_trials=25, seed=3)
        assert report.passed, report


def test_minimality_parallel_competitor_sphere():
    # closed forms: I(X) = -2 (1 - cos L)/sin L, parallel I(Z) = -L
    m, seg = pole_equator_segment()
    v = seg.vector_at_start([0.0, 1.0])
    w = m.parallel_transport(seg.start, seg.end, v)
    report = index_minimality_check(seg, v, w, n_trials=5, seed=1)
    assert report.jacobi_value == pytest.approx(-2.0, abs=1e-9)
    assert report.parallel_margin == pytest.approx(-math.pi / 2 + 2.0, abs=1e-9)
    assert report.passed


def test_minimality_euclidean_bump_strictly_worse():
    m = Euclidean(2)
    seg = m.geodesic_segment(m.point([0, 0]), m.point([1, 0]))
    v = m.tangent(seg.start, [0.0, 1.0])
    w = m.tangent(seg.end, [0.0, 1.0])
    jf = solve_jacobi_bvp(seg, v, w)
    assert index_form(seg, jf) == pytest.approx(0.0, abs=1e-12)
    bump = sine_bump_field(seg, np.array([[0.0, 0.3]]))
    assert index_form(seg, jf.as_field().plus(bump)) > 0.0


# --------------------------------------------------------------------- #
# gradient of d^2
# --------------------------------------------------------------------- #

def test_grad_distance_sq_euclidean():
    m = Euclidean(3)
    rng = np.random.default_rng(19)
    x, y = m.random_point(rng), m.random_point(rng)
    gx, gy = grad_distance_sq(m, x, y)
    assert np.allclose(gx.components, 2.0 * (x.coords - y.coords))
    assert np.allclose(gy.components, 2.0 * (y.coords - x.coords))


def test_grad_distance_sq_transport_identity_sphere():
    # partial_y phi + L_xy(partial_x phi) = 0 on 1000 random pairs
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        x = m.random_point(rng)
        d = m.random_tangent(rng, x)
        ell = rng.uniform(0.05, 0.9 * math.pi)
        y = m.exp(x, m.tangent(x, d.components * (ell / m.norm(x, d))))
        gx, gy = grad_distance_sq(m, x, y)
        moved = m.parallel_transport(x, y, gx)
        worst = max(worst, float(np.linalg.norm(gy.components + moved.components)))
    assert worst <= 1e-9


def test_grad_distance_sq_vanishes_at_diagonal_limit():
    m = Sphere(2, 1.0)
    x = m.point([0, 0, 1.0])
    for ell in [1e-2, 1e-4, 1e-6]:
        y = m.exp(x, m.tangent(x, [ell, 0.0, 0.0]))
        gx, _ = grad_distance_sq(m, x, y)
        assert np.linalg.norm(gx.components) <= 2.0 * ell + 1e-12


# --------------------------------------------------------------------- #
# Hessian of d^2
# --------------------------------------------------------------------- #

def test_hessian_euclidean_block_structure():
    m = Euclidean(2)
    rng = np.random.default_rng(29)
    x, y = m.random_point(rng), m.random_point(rng)
    h = hessian_distance_sq(m, x, y)
    eye = np.eye(2)
    assert np.allclose(h.block_xx, 2.0 * eye, atol=1e-10)
    assert np.allclose(h.block_yy, 2.0 * eye, atol=1e-10)
    assert np.allclose(h.block_xy, -2.0 * eye, atol=1e-10)


def test_hessian_parallel_pair_sphere_quarter_circle():
    m, seg = pole_equator_segment()
    v = seg.vector_at_start([0.0, 1.0])
    val = hessian_on_parallel_pair(m, seg.start, seg.end, v)
    ell = seg.length
    assert val == pytest.approx(-4 * ell * (1 - math.cos(ell)) / math.sin(ell), abs=1e-10)
    assert val == pytest.approx(-2.0 * math.pi, abs=1e-10)


def test_hessian_parallel_pair_hyperbolic_values():
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    for ell in [1.0, 3.0]:
        y = m.exp(o, m.tangent(o, [0.0, ell, 0.0]))
        seg = m.geodesic_segment(o, y)
        v = seg.vector_at_start([0.0, 1.0])
        val = hessian_on_parallel_pair(m, o, y, v)
        expected = 4.0 * ell * (math.cosh(ell) - 1.0) / math.sinh(ell)
        assert val == pytest.approx(expected, rel=1e-12)
    # spot values: 1.8485 at ell=1 stays below the curvature bound 2 ell^2
    assert 4.0 * (math.cosh(1.0) - 1.0) / math.sinh(1.0) == pytest.approx(
        1.8484686290400392, abs=1e-12
    )


def test_hessian_parallel_pair_product_sphere_normal():
    # v: unit normal to the sphere part of the geodesic, in the sphere factor;
    # the value is the sphere closed form at the sphere-factor distance d_S
    sphere = Sphere(2, 1.0)
    m = Product([sphere, Euclidean(2)])
    rng = np.random.default_rng(59)
    for _ in range(10):
        seg = random_segment(m, rng)
        xs, ys = seg.start.coords[:3], seg.end.coords[:3]
        d_s = sphere.distance(sphere.point(xs), sphere.point(ys))
        normal = np.cross(xs, ys)
        v = m.tangent(seg.start, np.concatenate([normal / np.linalg.norm(normal), [0.0, 0.0]]))
        val = hessian_on_parallel_pair(m, seg.start, seg.end, v)
        expected = -4.0 * d_s * (1.0 - math.cos(d_s)) / math.sin(d_s)
        assert val == pytest.approx(expected, rel=1e-12)


def test_hessian_tangential_direction_vanishes():
    rng = np.random.default_rng(31)
    for model in MODELS:
        seg = random_segment(model, rng)
        v = seg.vector_at_start([1.0] + [0.0] * (model.dim - 1))
        val = hessian_on_parallel_pair(model, seg.start, seg.end, v)
        assert abs(val) <= 1e-9


def test_hessian_euclidean_parallel_pair_zero():
    m = Euclidean(3)
    rng = np.random.default_rng(37)
    for _ in range(20):
        x, y = m.random_point(rng), m.random_point(rng)
        v = m.random_tangent(rng, x)
        assert abs(hessian_on_parallel_pair(m, x, y, v)) <= 1e-10


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind + str(m.dim))
def test_hessian_symmetry(model):
    rng = np.random.default_rng(41)
    seg = random_segment(model, rng)
    h = hessian_distance_sq(model, seg.start, seg.end)
    assert np.max(np.abs(h.matrix - h.matrix.T)) <= 1e-10


def test_hessian_on_tiny_segment_is_finite():
    # sin(sqrt(K) ell) < 1e-12 here, yet a 1e-13 segment has no conjugate point
    m = Sphere(2, 1.0)
    x = m.point([0.0, 0.0, 1.0])
    y = m.exp(x, m.tangent(x, [1e-13, 0.0, 0.0]))
    h = hessian_distance_sq(m, x, y)
    assert np.all(np.isfinite(h.matrix))
    assert np.array_equal(h.matrix, h.matrix.T)
    flat = np.block([[2 * np.eye(2), -2 * np.eye(2)], [-2 * np.eye(2), 2 * np.eye(2)]])
    assert np.allclose(h.matrix, flat, atol=1e-9)


def test_conjugate_endpoints_still_raise():
    with pytest.raises(SingularBVPError):
        _endpoint_scalars(1.0, math.pi)
    with pytest.raises(SingularBVPError):
        _endpoint_scalars(0.25, 4.0 * math.pi)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind + str(m.dim))
def test_hessian_matches_finite_differences(model):
    rng = np.random.default_rng(43)
    for _ in range(4):
        seg = random_segment(model, rng, lo=0.3)
        x, y = seg.start, seg.end
        h = hessian_distance_sq(model, x, y)
        v = model.random_tangent(rng, x)
        w = model.random_tangent(rng, y)
        val = h.quadratic(
            model.frame_components(x, v), model.frame_components(y, w)
        )

        def phi(s):
            xs = model.exp(x, model.tangent(x, s * v.components))
            ys = model.exp(y, model.tangent(y, s * w.components))
            return model.distance(xs, ys) ** 2

        fd = second_difference(phi, 1e-4)
        assert val == pytest.approx(fd, rel=1e-5, abs=2e-5)


def test_hessian_scaling_is_linear():
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(47)
    seg = random_segment(m, rng)
    h = hessian_distance_sq(m, seg.start, seg.end)
    alpha = 3.7
    assert np.allclose(h.scaled(alpha / 2).matrix, (alpha / 2) * h.matrix)


def test_hessian_flat_relation_with_distance_hessian():
    # d^2(d^2)(v, Lv) = 2 d * d^2(d)(v, Lv) with the latter by differences
    rng = np.random.default_rng(53)
    for model in [Sphere(2, 1.0), Hyperbolic(2, 1.0)]:
        for _ in range(5):
            seg = random_segment(model, rng, lo=0.4, hi=2.0)
            x, y = seg.start, seg.end
            v = model.random_tangent(rng, x)
            v = model.tangent(x, v.components / model.norm(x, v))
            lv = model.parallel_transport(x, y, v)
            val = hessian_on_parallel_pair(model, x, y, v)

            def dist_along(s):
                xs = model.exp(x, model.tangent(x, s * v.components))
                ys = model.exp(y, model.tangent(y, s * lv.components))
                return model.distance(xs, ys)

            fd = second_difference_o4(dist_along, 2e-4)
            assert abs(val - 2.0 * seg.length * fd) <= 1e-7 * max(1.0, abs(val))


# --------------------------------------------------------------------- #
# curvature-sign sweeps
# --------------------------------------------------------------------- #

def test_sign_condition_sphere_nonpositive_values():
    report = check_sign_condition(Sphere(2, 1.0), 500, seed=2, ell_range=(0.05, 2.8))
    assert report.passed
    assert report.max_value <= 1e-8


def test_sign_condition_flat_models():
    for model in [Euclidean(2), FlatTorus([1.0, 1.0])]:
        report = check_sign_condition(model, 300, seed=4)
        assert report.passed
        assert -1e-8 <= report.min_value and report.max_value <= 1e-8


def test_sign_condition_hyperbolic_nonnegative_values():
    report = check_sign_condition(Hyperbolic(2, 1.0), 500, seed=6)
    assert report.passed
    assert report.min_value >= -1e-8


def test_sign_condition_product_nonneg_curvature():
    report = check_sign_condition(Product([Sphere(2, 1.0), Euclidean(1)]), 200, seed=8)
    assert report.passed
    assert report.max_value <= 1e-8


def test_sign_report_carries_its_violation(monkeypatch):
    import riemvisc.jacobi as jacobi

    m = Sphere(2, 1.0)
    report = check_sign_condition(m, 200, seed=8)
    assert report.model == m.config()
    assert report.max_violation == max(0.0, report.max_value)
    # claimed the wrong sign, the sphere's negative values are the violation
    monkeypatch.setattr(jacobi, "curvature_sign", lambda model: -1.0)
    wrong = check_sign_condition(m, 200, seed=8)
    assert wrong.max_violation == -wrong.min_value > 0.0
    assert not wrong.passed
    d = wrong.to_dict()
    assert (d["model"], d["max_violation"]) == (m.config(), wrong.max_violation)


def test_curvature_bound_hyperbolic():
    report = check_curvature_bound(Hyperbolic(2, 1.0), 1.0, 500, seed=10)
    assert report.passed
    # oracle arithmetic at two lengths
    for ell in [1.0, 3.0]:
        value = 4.0 * ell * (math.cosh(ell) - 1.0) / math.sinh(ell)
        assert value <= 2.0 * ell * ell


def test_curvature_bound_zero_reduces_to_sign_condition():
    report = check_curvature_bound(Sphere(2, 1.0), 0.0, 300, seed=12, ell_range=(0.05, 2.8))
    assert report.passed


def test_pair_sweeps_refuse_zero_samples():
    with pytest.raises(PreconditionError, match="n_samples >= 1, got 0"):
        check_sign_condition(Sphere(2, 1.0), 0)
    with pytest.raises(PreconditionError, match="n_samples >= 1, got 0"):
        check_curvature_bound(Hyperbolic(2, 1.0), 1.0, 0)
    with pytest.raises(PreconditionError, match="n_samples >= 1, got -3"):
        parallel_pair_sweep(Euclidean(2), -3)


@pytest.mark.parametrize("ell_range", [(0.5, 3.0), (0.3, 0.3), (0.0, 0.3), (-0.1, 0.3)])
def test_pair_sweeps_refuse_empty_length_ranges(ell_range):
    # the torus caps the high end at 0.95 * 0.5 = 0.475
    torus = FlatTorus([1.0, 1.0])
    sweeps = [
        lambda: parallel_pair_sweep(torus, 5, ell_range=ell_range),
        lambda: check_sign_condition(torus, 5, ell_range=ell_range),
        lambda: check_curvature_bound(torus, 0.0, 5, ell_range=ell_range),
    ]
    for sweep in sweeps:
        with pytest.raises(PreconditionError, match=r"ell_range \(.*\) needs 0 < low < high"):
            sweep()


def test_stacked_conjugate_endpoints_name_the_sample():
    kappas = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.25]])
    with pytest.raises(SingularBVPError, match="sample 1"):
        _hessian_blocks(kappas, np.array([[1.0], [math.pi], [4.0 * math.pi]]))
    diag, off = _hessian_blocks(kappas, np.array([[1.0], [2.0], [3.0]]))
    assert np.array_equal(diag[:, 0], [2.0, 2.0, 2.0])
    assert np.array_equal(off[:, 0], [-2.0, -2.0, -2.0])


@pytest.mark.parametrize(
    "model", [FlatTorus([1.0, 1.0]), Product([FlatTorus([1.0, 1.0]), Euclidean(1)])],
    ids=["torus", "product"],
)
def test_stacked_segment_checks_name_the_sample(model):
    # y = exp(x, step): zero steps are degenerate, a half-period step reaches the cut locus
    ok, zero, cut = [0.2, 0.1], [0.0, 0.0], [0.5, 0.0]
    pad = [0.0] * (model.ambient_dim - 2)
    cases = [([ok, zero, cut], DegenerateSegmentError), ([ok, cut, zero], GeometryDomainError)]
    for steps, error in cases:
        steps = np.array([s + pad for s in steps])
        normals = np.zeros((3, model.dim))
        normals[:, 1] = 1.0
        draws = _PairDraws(np.full_like(steps, 0.25), np.full(3, 0.2), steps, steps, normals)
        with pytest.raises(error, match="sample 1"):
            _pair_stack(model, draws, unit_normal=True)


def _reference_pair_sweep(m, n_samples, seed, ell_range, unit_normal):
    """The per-sample loop the batched sweeps replaced, kept as their oracle:
    rows (x, drawn ell, step, y, v, a, length, value) per sample, with a the
    frame components of the unit normal or of v."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_samples):
        x = m.random_point(rng)
        cap = m.injectivity_radius(x)
        hi = min(ell_range[1], 0.95 * cap) if math.isfinite(cap) else ell_range[1]
        ell = rng.uniform(ell_range[0], hi)
        direction = m.random_tangent(rng, x)
        nrm = m.norm(x, direction)
        while nrm < 1e-12:
            direction = m.random_tangent(rng, x)
            nrm = m.norm(x, direction)
        step = direction.components * (ell / nrm)
        y = m.exp(x, TangentVector(x, step))
        v = m.random_tangent(rng, x)
        seg = m.geodesic_segment(x, y)
        if unit_normal:
            a = np.zeros(m.dim)
            raw = rng.standard_normal(m.dim - 1)
            a[1:] = raw / np.linalg.norm(raw)
            z = np.concatenate([a, a])
            value = float(z @ _segment_frame_hessian(seg) @ z)
        else:
            a = seg.components_at_start(v)
            value = hessian_on_parallel_pair(m, x, y, v)
        rows.append((x, ell, step, y, v, a, seg.length, value))
    return rows


def _frame_conditioning(m, x) -> float:
    """Growth of the segment frame's Euclidean size over its metric size.

    On the hyperboloid the scalar path's Gram-Schmidt frame has rows of
    Euclidean size ~ K0 |x|^2, and its Minkowski products lose that factor
    squared; the other models have orthonormal embedded frames.
    """
    if isinstance(m, Hyperbolic):
        return m.k0 * float(x.coords @ x.coords)
    return 1.0


PAIR_MODELS = st.one_of(
    st.builds(Sphere, st.sampled_from([2, 3]), st.floats(0.5, 2.0)),
    st.builds(Hyperbolic, st.sampled_from([2, 3]), st.floats(0.25, 4.0)),
    st.builds(Euclidean, st.sampled_from([2, 3])),
    st.builds(FlatTorus, st.lists(st.floats(0.5, 3.0), min_size=2, max_size=3)),
    st.just(Product([Sphere(2, 1.0), Euclidean(2)])),
    # normal and uniform draws mixed in one point
    st.just(Product([Hyperbolic(2, 1.0), FlatTorus([1.0, 2.0])])),
    st.just(Product([FlatTorus([1.5]), Hyperbolic(2, 2.5)])),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    model=PAIR_MODELS,
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 12),
    hi=st.floats(0.2, 3.0),
    unit_normal=st.booleans(),
)
def test_batched_pair_sweep_matches_reference_loop(model, seed, n_samples, hi, unit_normal):
    ell_range = (0.05, hi)
    rows = _reference_pair_sweep(model, n_samples, seed, ell_range, unit_normal)
    draws = _draw_pairs(model, n_samples, seed, ell_range, unit_normal)
    x, ell, step, y, v, a, length, value = (list(col) for col in zip(*rows))
    # the same samples, bit for bit
    assert np.array_equal(draws.xs, [p.coords for p in x])
    assert np.array_equal(draws.ells, ell)
    assert np.array_equal(draws.steps, step)
    assert np.array_equal(draws.vs, [t.components for t in v])
    assert unit_normal == (draws.normals is not None)
    if unit_normal:
        assert np.array_equal(draws.normals, a)
    if model.constant_sectional() is not None:
        assert np.array_equal(model.exp_stack(draws.xs, draws.steps), [p.coords for p in y])
    lengths, values, vnorms = parallel_pair_sweep(model, n_samples, seed, ell_range, unit_normal)
    assert np.array_equal(lengths, length)
    value, vnorm = np.array(value), np.array([float(comps @ comps) for comps in a])
    tol = 1e-12 * np.maximum(1.0, np.abs(value))
    if unit_normal:
        assert np.all(np.abs(values - value) <= tol)
        assert np.array_equal(vnorms, vnorm)
        return
    conditioning = np.array([_frame_conditioning(model, p) for p in x]) ** 2
    tol = tol * conditioning
    assert np.all(np.abs(values - value) <= tol)
    assert np.all(np.abs(vnorms - vnorm) <= 1e-12 * np.maximum(1.0, vnorm) * conditioning)
    sign = check_sign_condition(model, n_samples, seed, ell_range)
    assert (sign.max_value, sign.min_value) == (values.max(), values.min())
    k0 = max(1.0, -(model.constant_sectional() or 0.0))
    bound = check_curvature_bound(model, k0, n_samples, seed, ell_range)
    excess = [
        val - 2.0 * k0 * e * e * model.metric(p, t, t) for val, e, p, t in zip(value, ell, x, v)
    ]
    assert bound.max_violation == pytest.approx(max(0.0, max(excess)), abs=float(np.max(tol)))


_default_rng = np.random.default_rng


class _ParallelDraws:
    """A seeded generator whose listed ``standard_normal`` calls return a
    multiple of an earlier call's draw of the same size.  On the sphere a
    direction drawn parallel to the point's own draw projects to a tangent of
    roundoff size, which the sweeps refuse and draw again."""

    def __init__(self, seed, parallel):
        self._rng = _default_rng(seed)
        self._parallel = parallel  # call number -> earlier call number
        self.normal_draws = []

    def uniform(self, *args):
        return self._rng.uniform(*args)

    def standard_normal(self, size):
        draw = self._rng.standard_normal(size)
        k = len(self.normal_draws)
        if k in self._parallel and self.normal_draws[self._parallel[k]].shape == draw.shape:
            draw = -2.5 * self.normal_draws[self._parallel[k]]
        self.normal_draws.append(draw)
        return draw


@pytest.mark.parametrize("unit_normal", [False, True])
def test_refused_directions_are_redrawn_as_the_loop_redraws(monkeypatch, unit_normal):
    # sample 0 refuses its first two directions, sample 3 its first one; a
    # sample makes 3 normal draws (point, direction, v), 4 with a unit normal
    u = int(unit_normal)
    parallel = {1: 0, 2: 0, 12 + 3 * u: 11 + 3 * u}
    made = []

    def default_rng(seed):
        made.append(_ParallelDraws(seed, parallel))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    m, n, seed, ell_range = Sphere(2, 1.0), 6, 11, (0.05, 3.0)
    rows = _reference_pair_sweep(m, n, seed, ell_range, unit_normal)
    assert len(made[0].normal_draws) == (3 + u) * n + 3
    draws = _draw_pairs(m, n, seed, ell_range, unit_normal)
    x, ell, step, y, v, a, length, value = (list(col) for col in zip(*rows))
    assert np.array_equal(draws.xs, [p.coords for p in x])
    assert np.array_equal(draws.ells, ell)
    assert np.array_equal(draws.steps, step)
    assert np.array_equal(draws.vs, [t.components for t in v])
    if unit_normal:
        assert np.array_equal(draws.normals, a)
    lengths, values, _ = parallel_pair_sweep(m, n, seed, ell_range, unit_normal)
    assert np.array_equal(lengths, length)
    assert np.allclose(values, value, rtol=1e-12, atol=1e-12)


def test_batched_pair_values_match_exact_normal_mass_on_hyperboloid():
    # the normal part of v, |v|^2 - <v, e1>^2, in exact rational arithmetic from
    # the float samples; e1 is the direction of y + K0 <y, x> x (log_x y)
    m, n, seed = Hyperbolic(2, 4.0), 300, 5
    draws = _draw_pairs(m, n, seed, (0.05, 3.0), unit_normal=False)
    ys = m.exp_stack(draws.xs, draws.steps)
    lengths, values, _ = parallel_pair_sweep(m, n, seed, (0.05, 3.0), unit_normal=False)

    def mink(a, b):
        return sum(p * q for p, q in zip(a[1:], b[1:])) - a[0] * b[0]

    s = 2.0
    for xr, yr, vr, ell, value in zip(draws.xs, ys, draws.vs, lengths, values):
        x, y, v = ([Fraction(t) for t in row] for row in (xr, yr, vr))
        c = Fraction(m.k0) * mink(y, x)
        u = [a + c * b for a, b in zip(y, x)]
        normal_sq = float(mink(v, v) - mink(v, u) ** 2 / mink(u, u))
        closed = 4.0 * ell * s * (math.cosh(s * ell) - 1.0) / math.sinh(s * ell) * normal_sq
        # Minkowski products of rows of Euclidean size |x| lose K0 |x|^2
        conditioning = m.k0 * float(xr @ xr)
        assert abs(value - closed) <= 1e-13 * conditioning * max(1.0, abs(closed))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=st.one_of(st.sampled_from(MODELS + [Hyperbolic(3, 2.5)]), random_products()),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_kernels_match_the_per_row_loops(model, seed):
    # the tidal matrix and the Hessian's frame change, against the per-row
    # ambient_inner loops they replaced, bit for bit
    rng = np.random.default_rng(seed)
    seg = random_segment(model, rng)
    for t in (0.0, 0.5 * seg.length):
        p, frame = seg.point_at(t), seg.frame_at(t)
        vel = TangentVector(p, frame[0])
        m = np.zeros((model.dim, model.dim))
        for j, fj in enumerate(frame):
            rj = model.curvature_operator(p, TangentVector(p, fj), vel, vel).components
            m[:, j] = [model.ambient_inner(p, rj, fi) for fi in frame]
        assert (0.5 * (m + m.T)).tobytes() == tidal_matrix(seg, t).tobytes()
    x, y = seg.start, seg.end
    n = model.dim
    b = np.zeros((2 * n, 2 * n))
    for block, base, frame in ((slice(0, n), x, seg.frame0), (slice(n, None), y, seg.frame_end)):
        canonical = model.canonical_frame(base)
        b[block, block] = [[model.ambient_inner(base, f, c) for f in frame] for c in canonical]
    expected = b @ _segment_frame_hessian(seg) @ b.T
    expected = 0.5 * (expected + expected.T)
    assert hessian_distance_sq(model, x, y).matrix.tobytes() == expected.tobytes()
