"""Jacobi BVP, index form, and squared-distance Hessian oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemvisc import (
    DegenerateSegmentError, Euclidean, FlatTorus, GeometryDomainError, Hyperbolic,
    Point, PreconditionError, Product, SingularBVPError, Sphere, TangentVector,
)
from riemvisc.manifolds import _FRAME_FLOOR
from riemvisc.jacobi import (
    DEFAULT_GRID,
    VectorFieldAlongSegment,
    _PairDraws,
    _bump_margins,
    _draw_pairs,
    _endpoint_scalars,
    _frame_hessians,
    _hessian_blocks,
    _pair_stack,
    _segment_frame_hessian,
    _simpson_weights,
    _space_forms,
    _tidal_spectra,
    _tidal_spectrum,
    check_curvature_bound,
    check_sign_condition,
    curvature_floor,
    grad_distance_sq,
    hessian_distance_sq,
    hessian_distance_sq_stack,
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

from generator_doubles import Recordings, replays

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


@st.composite
def nested_products(draw):
    """``random_products``, with the factors after the first sometimes nested
    in a product of their own."""
    model = draw(random_products())
    if len(model.factors) > 2 and draw(st.booleans()):
        return Product([model.factors[0], Product(model.factors[1:])])
    return model


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=nested_products(), seed=st.integers(0, 2**32 - 1))
def test_closed_form_tidal_spectrum_diagonalizes_the_tidal_matrix(model, seed):
    seg = random_segment(model, np.random.default_rng(seed))
    kappas, q = _tidal_spectrum(seg)
    m = tidal_matrix(seg)
    # frames carry the hyperboloid roundoff of their Minkowski products
    tol = 1e-12 * _frame_conditioning(model, seg.start) ** 2
    assert np.allclose(q.T @ q, np.eye(model.dim), rtol=0.0, atol=tol)
    tol *= max(1.0, max(abs(k) for k in kappas))
    assert np.allclose(np.sort(kappas), np.linalg.eigvalsh(m), rtol=0.0, atol=tol)
    assert np.allclose(q.T @ m @ q, np.diag(kappas), rtol=0.0, atol=tol)


def _reference_tidal_spectrum(seg):
    """The one-segment body of ``_tidal_spectrum`` before it became a one-row
    call of ``_tidal_spectra``, kept as its oracle: per factor the scalar
    frame, seeded by the factor's part of the velocity where it moves (one
    Gram-Schmidt pass over the projected axes after that row)."""
    m = seg.model
    k = m.constant_sectional()
    if k is not None:
        return (0.0,) + (k,) * (m.dim - 1), None
    kappas, vectors = [], []
    for f, s in _space_forms(m):
        x = Point(seg.start.coords[s])
        w = f.project_tangent(x, seg.frame0[0][s])
        w2 = f.ambient_inner(x, w, w)
        seeded = w2 > _FRAME_FLOOR
        if seeded:
            frame = f._orthonormal_rows(x, [w / math.sqrt(w2)])
        else:
            frame = f.canonical_frame(x)
            w2 = 0.0
        kappas += [0.0] * seeded + [f.constant_sectional() * w2] * (f.dim - seeded)
        vectors.append(f.components(frame, seg.frame0[:, s]))
    return tuple(kappas), np.concatenate(vectors).T


def _reference_segment_frame_hessian(seg):
    """The one-segment body of ``_segment_frame_hessian`` before it became a
    one-row call of ``_frame_hessians``, kept as its oracle."""
    n = seg.model.dim
    kappas, q = _reference_tidal_spectrum(seg)
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


SPACE_FORMS = [
    Euclidean(2), Euclidean(3), Sphere(2, 1.0), Sphere(3, 2.0), Sphere(2, 0.5),
    Hyperbolic(2, 1.0), Hyperbolic(3, 4.0), FlatTorus([1.0, 1.0]), FlatTorus([1.0, 2.5, 0.7]),
]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model=st.one_of(st.sampled_from(SPACE_FORMS), nested_products()),
       seed=st.integers(0, 2**32 - 1))
def test_one_row_spectra_and_frame_hessians_are_the_one_segment_bodies(model, seed):
    # bit for bit the deleted scalar bodies, on segments that move in every
    # factor and, on a product, on segments that stay still in one factor
    # (the unseeded branch)
    rng = np.random.default_rng(seed)
    segs = [random_segment(model, rng)]
    for s in getattr(model, "_slices", []):
        x = model.random_point(rng)
        d = model.random_tangent(rng, x).components.copy()
        d[s] = 0.0
        if np.any(d):
            step = d * (rng.uniform(0.1, 1.5) / model.norm(x, TangentVector(x, d)))
            segs.append(model.geodesic_segment(x, model.exp(x, TangentVector(x, step))))
    for seg in segs:
        kappas, q = _tidal_spectrum(seg)
        ref_kappas, ref_q = _reference_tidal_spectrum(seg)
        assert kappas.shape == (model.dim,)
        assert kappas.tobytes() == np.array(ref_kappas).tobytes()
        assert (q is None) == (ref_q is None) == (model.constant_sectional() is not None)
        if q is not None:
            assert q.tobytes() == ref_q.tobytes()
        h = _reference_segment_frame_hessian(seg)
        assert _segment_frame_hessian(seg).tobytes() == h.tobytes()
    # and every row of a stack of them
    starts = np.array([seg.start.coords for seg in segs])
    frames = np.array([seg.frame0 for seg in segs])
    hs = _frame_hessians(*_tidal_spectra(model, starts, frames), np.array([g.length for g in segs]))
    assert hs.tobytes() == np.array([_reference_segment_frame_hessian(g) for g in segs]).tobytes()


def test_product_segments_a_constancy_check_refused():
    # hyperboloid roundoff drifts the tidal matrix by ~1e-8 along these
    # segments, past the 1e-9 bound of the eigendecomposition this replaced
    model = Product([Sphere(2, 0.7), Hyperbolic(3, 4.0)])
    ells, values, vnorms = parallel_pair_sweep(model, 7, 0, (0.05, 2.0), unit_normal=False)
    assert ells.shape == values.shape == vnorms.shape == (7,)
    assert np.all(np.isfinite(values))
    seg = random_segment(model, np.random.default_rng(155))
    rng = np.random.default_rng(1)
    v, w = model.random_tangent(rng, seg.start), model.random_tangent(rng, seg.end)
    jf = solve_jacobi_bvp(seg, v, w)
    assert np.allclose(jf.start_value, seg.components_at_start(v), atol=1e-10)
    assert np.allclose(jf.end_value, seg.components_at_end(w), atol=1e-10)
    assert jacobi_residual(jf) <= 1e-8
    h = hessian_distance_sq(model, seg.start, seg.end)
    quad = h.quadratic(model.frame_components(seg.start, v), model.frame_components(seg.end, w))
    assert quad == pytest.approx(2.0 * seg.length * jf.endpoint_pairing(), rel=1e-9)


def test_product_segment_with_a_stationary_sphere_factor():
    # the sphere factor does not move: its part of log_x y is roundoff along
    # the normal x, and must not seed the factor's frame
    model = Product([Sphere(2, 0.7), Euclidean(1)])
    rng = np.random.default_rng(4)
    x = model.random_point(rng)
    y = Point(x.coords + np.array([0.0, 0.0, 0.0, 1.3]))
    seg = model.geodesic_segment(x, y)
    kappas, q = _tidal_spectrum(seg)
    assert np.allclose(q.T @ q, np.eye(3), rtol=0.0, atol=1e-14)
    assert np.allclose(np.sort(kappas), np.linalg.eigvalsh(tidal_matrix(seg)), rtol=0.0, atol=1e-14)
    v, w = model.random_tangent(rng, x), model.random_tangent(rng, y)
    jf = solve_jacobi_bvp(seg, v, w)
    assert np.allclose(jf.start_value, seg.components_at_start(v), atol=1e-12)
    assert np.allclose(jf.end_value, seg.components_at_end(w), atol=1e-12)
    # the tidal matrix vanishes: d^2 is |x - y|^2 in the common canonical frame
    h = hessian_distance_sq(model, x, y)
    flat = 2.0 * np.block([[np.eye(3), -np.eye(3)], [-np.eye(3), np.eye(3)]])
    assert np.allclose(h.matrix, flat, rtol=0.0, atol=1e-12)
    assert abs(hessian_on_parallel_pair(model, x, y, v)) <= 1e-12


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
    assert report.extra["jacobi_value"] == pytest.approx(-2.0, abs=1e-9)
    assert report.extra["parallel_margin"] == pytest.approx(-math.pi / 2 + 2.0, abs=1e-9)
    assert report.passed


def test_minimality_euclidean_bump_strictly_worse():
    m = Euclidean(2)
    seg = m.geodesic_segment(m.point([0, 0]), m.point([1, 0]))
    v = m.tangent(seg.start, [0.0, 1.0])
    w = m.tangent(seg.end, [0.0, 1.0])
    jf = solve_jacobi_bvp(seg, v, w)
    assert index_form(seg, jf) == pytest.approx(0.0, abs=1e-12)
    bump = sine_bump_field(seg, np.array([[0.0, 0.3]]))
    z = VectorFieldAlongSegment(seg, jf.values + bump.values, jf.derivs + bump.derivs)
    assert index_form(seg, z) > 0.0


def test_minimality_flat_margins_match_the_closed_form():
    # flat: I(X, B) = <X', B(ell) - B(0)> = 0 and I(B) = ell/2 sum_k w_k^2 |A_k|^2,
    # w_k = k pi / ell, so every margin is known without quadrature
    m = Euclidean(3)
    seg = m.geodesic_segment(m.point([0, 0, 0]), m.point([1.2, -0.4, 0.3]))
    rng = np.random.default_rng(2)
    v, w = m.random_tangent(rng, seg.start), m.random_tangent(rng, seg.end)
    report = index_minimality_check(seg, v, w, n_trials=30, seed=8, amplitude=0.7)
    amps = 0.7 * np.random.default_rng(8).standard_normal((30, 4, 3))
    freq = np.arange(1, 5) * math.pi / seg.length
    exact = 0.5 * seg.length * np.einsum("k,jki,jki->j", freq**2, amps, amps)
    assert report.extra["min_margin"] == pytest.approx(float(exact.min()), rel=1e-12)
    margins = _bump_margins(seg, solve_jacobi_bvp(seg, v, w), amps)
    assert np.allclose(margins, exact, rtol=1e-12, atol=0.0)


def test_minimality_refuses_no_trials():
    m, seg = pole_equator_segment()
    v = seg.vector_at_start([0.0, 1.0])
    w = m.parallel_transport(seg.start, seg.end, v)
    for n_trials in (0, -3):
        with pytest.raises(PreconditionError, match=f"n_trials >= 1, got {n_trials}"):
            index_minimality_check(seg, v, w, n_trials=n_trials)


def test_index_form_refuses_a_field_of_another_segment():
    m, seg = pole_equator_segment()
    other = m.geodesic_segment(seg.start, seg.end)
    z = parallel_field(other, other.vector_at_start([0.0, 1.0]))
    assert index_form(other, z) == pytest.approx(-seg.length, abs=1e-10)
    with pytest.raises(PreconditionError, match="another segment"):
        index_form(seg, z)


def _reference_jacobi_samples(seg, v, w):
    """The three-branch sampler the two-endpoint form replaced, on the
    segment's grid: per tidal direction a C(t) + c S(t) with c = (b - a
    C(ell)) / S(ell) where kappa >= 0, and (sinh(s(ell - t)) a + sinh(s t) b)
    / sinh(s ell) where kappa < 0."""
    kappas, q = _tidal_spectrum(seg)
    a, b = seg.components_at_start(v), seg.components_at_end(w)
    if q is not None:
        a, b = q.T @ a, q.T @ b
    ends_s, ends_c, ends_sl = (e[0] for e in _endpoint_scalars([kappas], seg.length))
    amp_c = (b - a * ends_c) / ends_sl
    ts = np.linspace(0.0, seg.length, DEFAULT_GRID + 1)
    values, derivs = np.empty((ts.size, len(kappas))), np.empty((ts.size, len(kappas)))
    for i, (kappa, s, s_l) in enumerate(zip(kappas, ends_s, ends_sl)):
        st = s * ts
        if kappa < 0.0:
            rest = s * (seg.length - ts)
            values[:, i] = (a[i] * np.sinh(rest) + b[i] * np.sinh(st)) / s_l
            derivs[:, i] = s * (b[i] * np.cosh(st) - a[i] * np.cosh(rest)) / s_l
            continue
        c, sn = (np.cos(st), np.sin(st)) if kappa > 0.0 else (1.0, st)
        dc, dsn = (-np.sin(st), np.cos(st)) if kappa > 0.0 else (0.0, 1.0)
        values[:, i] = a[i] * c + amp_c[i] * sn
        derivs[:, i] = s * (a[i] * dc + amp_c[i] * dsn)
    return (values, derivs) if q is None else (values @ q.T, derivs @ q.T)


def _index_size(seg, fld):
    """Simpson integral of |Z'|^2 + |<R(Z, gamma')gamma', Z>|: the size of the
    terms that cancel in I(Z, Z), so the scale of its roundoff (near a
    conjugate point they exceed |I(Z, Z)| by orders of magnitude)."""
    m = tidal_matrix(seg)
    terms = np.sum(fld.derivs**2, axis=1) + np.abs(np.sum((fld.values @ m) * fld.values, axis=1))
    return float(_simpson_weights(seg.length) @ terms)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    model=st.one_of(
        st.sampled_from(MODELS + [
            Hyperbolic(3, 4.0), Sphere(2, 0.5), Euclidean(3), FlatTorus([1.0, 2.5, 0.7]),
            Product([Hyperbolic(2, 1.0), FlatTorus([1.0, 2.0])]),
        ]),
        random_products(),
    ),
    seed=st.integers(0, 2**32 - 1),
    conjugate_gap=st.one_of(st.none(), st.floats(1e-6, 1e-2)),
)
@example(model=Hyperbolic(3, 4.0), seed=0, conjugate_gap=None)
@example(model=Sphere(2, 1.0), seed=1, conjugate_gap=1e-6)
@example(model=Sphere(3, 2.0), seed=2, conjugate_gap=1e-3)
@example(model=Product([Euclidean(1), Hyperbolic(3, 4.0)]), seed=3, conjugate_gap=None)
@example(model=Product([Hyperbolic(2, 1.0), FlatTorus([1.0, 2.0])]), seed=4, conjugate_gap=None)
def test_two_endpoint_samples_and_stacked_margins_match_the_loops(model, seed, conjugate_gap):
    rng = np.random.default_rng(seed)
    if isinstance(model, Sphere) and conjugate_gap is not None:
        # a segment short of the conjugate point by the relative gap
        ell = (1.0 - conjugate_gap) * model.injectivity_radius()
        seg = random_segment(model, rng, lo=ell, hi=ell)
    else:
        seg = random_segment(model, rng)
    v, w = model.random_tangent(rng, seg.start), model.random_tangent(rng, seg.end)
    jf = solve_jacobi_bvp(seg, v, w)
    values, derivs = _reference_jacobi_samples(seg, v, w)
    assert np.max(np.abs(jf.values - values)) <= 1e-14 * np.max(np.abs(values))
    assert np.max(np.abs(jf.derivs - derivs)) <= 1e-14 * np.max(np.abs(derivs))
    assert np.array_equal(jf.coeffs(jf.ts), jf.values)
    # the per-trial loop the stacked competitors replaced; I(X, B_j) is
    # quadrature error for the Jacobi field, so the parallel field of v
    # checks the cross term as well
    n_trials, trial_seed = 6, int(rng.integers(2**31))
    draw = np.random.default_rng(trial_seed)
    amps = [0.5 * draw.standard_normal((4, model.dim)) for _ in range(n_trials)]
    loops = []
    for base in (jf, parallel_field(seg, v)):
        i_x, size_x = index_form(seg, base), _index_size(seg, base)
        loop = []
        for amp in amps:
            bump = sine_bump_field(seg, amp)
            z = VectorFieldAlongSegment(seg, base.values + bump.values, base.derivs + bump.derivs)
            loop.append((index_form(seg, z) - i_x, 1e-12 * max(1.0, size_x, _index_size(seg, z))))
        stacked = _bump_margins(seg, base, np.stack(amps))
        for margin, (expected, tol) in zip(stacked, loop):
            assert abs(margin - expected) <= tol
        loops.append(loop)
    # the check draws the loop's amplitudes in one call
    assert np.array_equal(
        np.stack(amps),
        0.5 * np.random.default_rng(trial_seed).standard_normal((n_trials, 4, model.dim)),
    )
    report = index_minimality_check(seg, v, w, n_trials, seed=trial_seed)
    expected, _ = min(loops[0])
    if report.extra["parallel_margin"] is not None:
        expected = min(expected, report.extra["parallel_margin"])
    assert abs(report.extra["min_margin"] - expected) <= max(tol for _, tol in loops[0])
    assert report.passed


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


HESSIAN_STACK_MODELS = [
    Sphere(2, 1.0), Sphere(2, 2.0), Hyperbolic(2, 1.0), Hyperbolic(3, 4.0),
    FlatTorus([1.0, 1.0]), Euclidean(3),
    Product([Sphere(2, 1.0), Hyperbolic(2, 1.0)]), Product([Sphere(2, 1.0), Euclidean(2)]),
]


def _hessian_outcome(fn):
    """``fn()`` as a float array, or the type of the typed error it raised."""
    try:
        return np.asarray(fn(), dtype=float)
    except (DegenerateSegmentError, GeometryDomainError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(HESSIAN_STACK_MODELS),
    seed=st.integers(0, 2**32 - 1),
    pairs=st.integers(1, 6),
    reach=st.sampled_from([0.3, 0.9]),
)
def test_hessian_stack_rows_are_the_single_pair_hessians(model, seed, pairs, reach):
    rng = np.random.default_rng(seed)
    cap = model.injectivity_radius()
    high = reach * cap if math.isfinite(cap) else 3.0 * reach
    drawn = [model.random_pair(rng, 0.01, high)[:2] for _ in range(pairs)]
    # on a product, pairs that move in one factor only: the factors that stay
    # keep their plain frame (the unseeded branch of the tidal spectrum)
    for s in getattr(model, "_slices", []):
        x = model.random_point(rng)
        d = model.random_tangent(rng, x).components.copy()
        d[s] = 0.0
        y = model.exp(x, TangentVector(x, d * (rng.uniform(0.01, high) / model.norm(x, model.tangent(x, d)))))
        drawn.append((x, y))
    xs = np.array([x.coords for x, _ in drawn])
    ys = np.array([y.coords for _, y in drawn])
    expected = [_hessian_outcome(lambda: hessian_distance_sq(model, x, y).matrix) for x, y in drawn]
    refused = [i for i, e in enumerate(expected) if isinstance(e, type)]
    if refused:  # far out on a hyperboloid a frame may be refused
        with pytest.raises(expected[refused[0]]):
            hessian_distance_sq_stack(model, xs, ys)
        keep = [i for i in range(len(drawn)) if i not in refused]
        xs, ys, expected = xs[keep], ys[keep], [expected[i] for i in keep]
    if expected:
        got = hessian_distance_sq_stack(model, xs, ys)
        assert got.shape == (len(expected), 2 * model.dim, 2 * model.dim)
        assert got.tobytes() == np.array(expected).tobytes()


def _apex(model):
    """A point where d(x, x) is exactly 0: an axis point of the sphere, the
    hyperboloid's apex, the origin, factor by factor."""
    if isinstance(model, Product):
        return np.concatenate([_apex(f) for f in model.factors])
    if isinstance(model, Sphere):
        return np.eye(model.dim + 1)[-1] * model.radius
    if isinstance(model, Hyperbolic):
        return model.base_point().coords
    return np.zeros(model.ambient_dim)


def _too_far(model):
    """A pair at least the injectivity radius apart, or None where there is none."""
    if isinstance(model, Product):
        parts = [_too_far(f) for f in model.factors]
        if all(p is None for p in parts):
            return None
        parts = [(a, a) if p is None else p for p, a in
                 zip(parts, (_apex(f) for f in model.factors))]
        return tuple(np.concatenate(side) for side in zip(*parts))
    if isinstance(model, Sphere):
        x = _apex(model)
        return x, -x
    if isinstance(model, FlatTorus):
        return np.zeros(model.dim), model.periods / 2.0
    return None


@pytest.mark.parametrize("model", HESSIAN_STACK_MODELS, ids=lambda m: json.dumps(m.config()))
def test_hessian_stack_refuses_coincident_and_distant_pairs(model):
    rng = np.random.default_rng(5)
    x, y, _ = model.random_pair(rng, 0.1, 0.5)
    good = (x.coords, y.coords)
    bad = [(DegenerateSegmentError, (_apex(model), _apex(model)))]
    if _too_far(model) is not None:
        bad.append((GeometryDomainError, _too_far(model)))
    for error, (bx, by) in bad:
        with pytest.raises(error):
            hessian_distance_sq(model, Point(bx), Point(by))
        # the typed error of connect, naming the first bad row
        with pytest.raises(error, match="sample 1"):
            hessian_distance_sq_stack(model, np.array([good[0], bx, bx]),
                                      np.array([good[1], by, by]))


# --------------------------------------------------------------------- #
# curvature-sign sweeps
# --------------------------------------------------------------------- #

def test_sign_condition_sphere_nonpositive_values():
    report = check_sign_condition(Sphere(2, 1.0), 500, seed=2, ell_range=(0.05, 2.8))
    assert report.passed
    assert report.extra["max_value"] <= 1e-8


def test_sign_condition_flat_models():
    for model in [Euclidean(2), FlatTorus([1.0, 1.0])]:
        report = check_sign_condition(model, 300, seed=4)
        assert report.passed
        assert -1e-8 <= report.extra["min_value"] and report.extra["max_value"] <= 1e-8


def test_sign_condition_hyperbolic_nonnegative_values():
    report = check_sign_condition(Hyperbolic(2, 1.0), 500, seed=6)
    assert report.passed
    assert report.extra["min_value"] >= -1e-8


def test_sign_condition_product_nonneg_curvature():
    report = check_sign_condition(Product([Sphere(2, 1.0), Euclidean(1)]), 200, seed=8)
    assert report.passed
    assert report.extra["max_value"] <= 1e-8


def test_sign_report_carries_its_violation(monkeypatch):
    import riemvisc.jacobi as jacobi

    m = Sphere(2, 1.0)
    report = check_sign_condition(m, 200, seed=8)
    assert report.model == m.config()
    assert report.max_violation == max(0.0, report.extra["max_value"])
    # claimed the wrong sign, the sphere's negative values are the violation
    monkeypatch.setattr(jacobi, "curvature_sign", lambda model: -1.0)
    wrong = check_sign_condition(m, 200, seed=8)
    assert wrong.max_violation == -wrong.extra["min_value"] > 0.0
    assert not wrong.passed
    d = wrong.to_dict()
    assert (d["model"], d["max_violation"]) == (m.config(), wrong.max_violation)


def test_a_nan_sample_fails_every_jacobi_check(monkeypatch):
    # one NaN value among the sweep's or the competitors' samples is a violation
    import riemvisc.jacobi as jacobi

    sweep, margins = jacobi._pair_sweep, jacobi._bump_margins

    def nan_sweep(*args, **kwargs):
        draws, lengths, values, vnorms = sweep(*args, **kwargs)
        values = values.copy()
        values[len(values) // 2] = math.nan
        return draws, lengths, values, vnorms

    def nan_margins(*args):
        out = margins(*args).copy()
        out[0] = math.nan
        return out

    monkeypatch.setattr(jacobi, "_pair_sweep", nan_sweep)
    monkeypatch.setattr(jacobi, "_bump_margins", nan_margins)
    m, seg = pole_equator_segment()
    v = seg.vector_at_start([0.0, 1.0])
    reports = [
        check_sign_condition(m, 200, seed=8),
        check_curvature_bound(Hyperbolic(2, 1.0), 1.0, 200, seed=8),
        index_minimality_check(seg, v, m.parallel_transport(seg.start, seg.end, v), 5, seed=1),
    ]
    for report in reports:
        assert math.isnan(report.max_violation) and report.passed is False, report
        assert math.isnan(report.to_dict()["max_violation"])


def test_curvature_bound_hyperbolic():
    report = check_curvature_bound(Hyperbolic(2, 1.0), 1.0, 500, seed=10)
    assert report.passed
    # oracle arithmetic at two lengths
    for ell in [1.0, 3.0]:
        value = 4.0 * ell * (math.cosh(ell) - 1.0) / math.sinh(ell)
        assert value <= 2.0 * ell * ell


def test_curvature_bound_reads_the_lowest_factor_curvature():
    product = Product([Euclidean(1), Hyperbolic(3, 4.0)])
    nested = Product([Product([Sphere(2, 0.5), Hyperbolic(2, 2.5)]), Euclidean(2)])
    assert (curvature_floor(product), curvature_floor(nested)) == (-4.0, -2.5)
    assert curvature_floor(Product([Sphere(2, 0.5), Sphere(2)])) == 1.0
    # a product below -K0 is refused as its factor is, not swept to a FAIL
    for m in (product, Hyperbolic(3, 4.0)):
        with pytest.raises(PreconditionError, match="below -K0"):
            check_curvature_bound(m, 1.0, 500, 0)
    assert check_curvature_bound(product, 4.0, 500, 0).passed
    assert check_curvature_bound(nested, 2.5, 200, 1).passed


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
    """Per-row oracle of the batched sweeps: the sweep's blocks (per sample a
    point, a length, a direction, then v or the unit normal's draw), each
    sample's row fed to the one-sample methods and evaluated pair by pair.
    Rows (x, drawn ell, step, y, v, a, length, value), a the frame components
    of the unit normal or of v, and v None with ``unit_normal``.  No
    direction of these draws is refused."""
    cap = m.injectivity_radius()
    hi = min(ell_range[1], 0.95 * cap) if math.isfinite(cap) else ell_range[1]
    last = m.dim - 1 if unit_normal else m.ambient_dim
    rows = []
    for rng in replays(m, np.random.default_rng(seed), n_samples, ("uniform", ell_range[0], hi),
                       ("normal", m.ambient_dim), ("normal", last)):
        x = m.random_point(rng)
        ell = rng.uniform(ell_range[0], hi)
        direction = m.random_tangent(rng, x)
        nrm = m.norm(x, direction)
        assert nrm >= 1e-12
        step = direction.components * (ell / nrm)
        y = m.exp(x, TangentVector(x, step))
        seg = m.geodesic_segment(x, y)
        if unit_normal:
            v, a = None, np.zeros(m.dim)
            raw = rng.standard_normal(m.dim - 1)
            a[1:] = raw / np.linalg.norm(raw)
            z = np.concatenate([a, a])
            value = float(z @ _reference_segment_frame_hessian(seg) @ z)
        else:
            v = m.random_tangent(rng, x)
            a = seg.components_at_start(v)
            value = hessian_on_parallel_pair(m, x, y, v)
        assert rng.exhausted
        rows.append((x, ell, step, y, v, a, seg.length, value))
    return rows


def _frame_conditioning(m, x) -> float:
    """Growth of the segment frame's Euclidean size over its metric size.

    On the hyperboloid the scalar path's Gram-Schmidt frame has rows of
    Euclidean size ~ K0 |x|^2, and its Minkowski products lose that factor
    squared; the other models have orthonormal embedded frames.  A product
    takes the worst of its hyperbolic factors.
    """
    return max(
        (f.k0 * float(x.coords[s] @ x.coords[s])
         for f, s in _space_forms(m) if isinstance(f, Hyperbolic)),
        default=1.0,
    )


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
    assert unit_normal == (draws.normals is not None) == (draws.vs is None)
    if unit_normal:
        assert np.array_equal(draws.normals, a)
    else:
        assert np.array_equal(draws.vs, [t.components for t in v])
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
    assert (sign.extra["max_value"], sign.extra["min_value"]) == (values.max(), values.min())
    k0 = max(1.0, -curvature_floor(model))
    bound = check_curvature_bound(model, k0, n_samples, seed, ell_range)
    excess = [
        val - 2.0 * k0 * e * e * model.metric(p, t, t) for val, e, p, t in zip(value, ell, x, v)
    ]
    assert bound.max_violation == pytest.approx(max(0.0, max(excess)), abs=float(np.max(tol)))


@pytest.mark.parametrize("unit_normal", [False, True])
def test_refused_directions_are_drawn_again_after_the_block(monkeypatch, unit_normal):
    # on the sphere a direction drawn parallel to the point's own draw projects
    # to a tangent of roundoff size, which the sweeps refuse: rows 0, 5 and 11
    # refuse their block direction, and row 5 its first redraw too
    m, n, seed, ell_range = Sphere(2, 1.0), 12, 11, (0.05, 3.0)
    plain = _draw_pairs(m, n, seed, ell_range, unit_normal)
    refused = np.isin(np.arange(n), [0, 5, 11])[:, None]

    def second_redraw(out, earlier):
        out = out.copy()
        out[1] = 3.0 * earlier[0][5]
        return out

    rig = {2: lambda out, earlier: np.where(refused, -2.5 * earlier[0], out), 4: second_redraw}
    recordings = Recordings(rig)
    monkeypatch.setattr(np.random, "default_rng", recordings)
    draws = _draw_pairs(m, n, seed, ell_range, unit_normal)
    (rng,) = recordings.made
    assert rng.calls == [
        ("standard_normal", (n, 3)), ("uniform", (n,)), ("standard_normal", (n, 3)),
        ("standard_normal", (n, 1 if unit_normal else 3)),
        ("standard_normal", (3, 3)), ("standard_normal", (1, 3))]
    # the other rows keep their draws; every row keeps its point, length and
    # v or unit normal
    kept = ~refused[:, 0]
    assert draws.steps[kept].tobytes() == plain.steps[kept].tobytes()
    last = (draws.normals, plain.normals) if unit_normal else (draws.vs, plain.vs)
    for got, ref in ((draws.xs, plain.xs), (draws.ells, plain.ells), last):
        assert got.tobytes() == ref.tobytes()
    # a refused row takes the last redraw it was given, as random_tangent maps it
    for i, raw in ((0, rng.outputs[4][0]), (5, rng.outputs[5][0]), (11, rng.outputs[4][2])):
        x = Point(draws.xs[i])
        d = m.tangent(x, raw)
        assert np.array_equal(draws.steps[i], d.components * (draws.ells[i] / m.norm(x, d)))
    lengths, _, _ = parallel_pair_sweep(m, n, seed, ell_range, unit_normal)
    assert np.allclose(lengths, draws.ells, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 10, 1000])
@pytest.mark.parametrize("model", [Sphere(2, 1.0), Hyperbolic(3, 4.0), Euclidean(3),
                                   Product([Hyperbolic(2, 1.0), FlatTorus([1.0, 2.0])])],
                         ids=["sphere", "hyperbolic", "euclidean", "product"])
@pytest.mark.parametrize("unit_normal", [False, True])
def test_pair_draws_make_a_fixed_number_of_generator_calls(monkeypatch, model, unit_normal, n):
    # the point's plan entries, the lengths, the directions and v or the
    # unit normal's draw: one call each, whatever n is
    recordings = Recordings()
    monkeypatch.setattr(np.random, "default_rng", recordings)
    _draw_pairs(model, n, 3, (0.05, 1.0), unit_normal)
    (rng,) = recordings.made
    assert len(rng.calls) == len(model.point_plan) + 3
    assert all(shape[0] == n for _, shape in rng.calls)


@pytest.mark.parametrize("seed", range(20))
def test_batched_pair_values_match_exact_normal_mass_on_hyperboloid(seed):
    # the normal part of v, |v|^2 - <v, e1>^2, in exact rational arithmetic from
    # the float samples; e1 is the direction of y + K0 <y, x> x (log_x y)
    m, n = Hyperbolic(2, 4.0), 300
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
        # the pair kernel's Minkowski products of rows of Euclidean size |x|
        # lose (K0 |x|^2)^2 eps: at seeds 0-19 the error reaches 9.6e-12
        # K0 |x|^2 but stays under 1e-15 (K0 |x|^2)^2
        conditioning = m.k0 * float(xr @ xr)
        assert abs(value - closed) <= 1e-14 * conditioning**2 * max(1.0, abs(closed))


def _exact_pair_value(m, x, y, v):
    """d^2(d^2)(v, L_xy v) from float rows x, y, v in 50-digit arithmetic.

    Factor i adds ``2 m_i 2 l s_i (C(s_i l) - 1) / S(s_i l)``: l = d(x, y),
    kappa_i = k_i d_i^2 / l^2 with d_i the factor's distance, s_i =
    sqrt|kappa_i|, and m_i the squared part of v_i normal to log_x y in the
    factor.
    """
    import mpmath

    with mpmath.workdps(50):
        parts, ell2 = [], mpmath.mpf(0)
        for f, s in _space_forms(m):
            xi, yi, vi = ([mpmath.mpf(float(t)) for t in row[s]] for row in (x, y, v))
            g = [-1 if j == 0 and isinstance(f, Hyperbolic) else 1 for j in range(len(xi))]

            def dot(a, b, g=g):
                return mpmath.fsum(gj * p * q for gj, p, q in zip(g, a, b))

            k = mpmath.mpf(f.constant_sectional())
            if k == 0:
                log = [q - p for p, q in zip(xi, yi)]
                if isinstance(f, FlatTorus):
                    log = [t - P * mpmath.nint(t / P) for t, P in zip(log, f.periods.tolist())]
                dist = mpmath.sqrt(dot(log, log))
            else:
                rho = 1 / mpmath.sqrt(abs(k))
                c = k * dot(yi, xi)
                u = [q - c * p for p, q in zip(xi, yi)]
                nu = mpmath.sqrt(dot(u, u))
                dist = rho * (mpmath.atan2(nu / rho, c) if k > 0 else mpmath.asinh(nu / rho))
                log = [t * dist / nu for t in u]
            ell2 += dist**2
            mass = dot(vi, vi) - dot(vi, log) ** 2 / dot(log, log)
            parts.append((k * dist**2, mass))
        ell, value = mpmath.sqrt(ell2), mpmath.mpf(0)
        for kd2, mass in parts:
            if kd2 != 0:
                sl = mpmath.sqrt(abs(kd2 / ell2)) * ell
                trig = (mpmath.cos, mpmath.sin) if kd2 > 0 else (mpmath.cosh, mpmath.sinh)
                value += 4 * mass * sl * (trig[0](sl) - 1) / trig[1](sl)
        return value


@pytest.mark.parametrize(
    "model",
    [
        Product([Sphere(2, 0.7), Hyperbolic(3, 4.0)]),
        Product([FlatTorus([1.5]), Hyperbolic(2, 2.5)]),
        Product([Euclidean(1), Hyperbolic(3, 4.0)]),
        Product([Sphere(2, 1.0), Product([Euclidean(1), Hyperbolic(2, 1.0)])]),
    ],
    ids=["S2xH3", "T1xH2", "E1xH3", "S2x(E1xH2)"],
)
def test_product_sweep_values_match_a_50_digit_reference(model):
    n, seed, ell_range = 300, 9, (0.05, 2.5)
    draws = _draw_pairs(model, n, seed, ell_range, unit_normal=False)
    ys = model.exp_stack(draws.xs, draws.steps)
    _, values, _ = parallel_pair_sweep(model, n, seed, ell_range, unit_normal=False)
    for x, y, v, value in zip(draws.xs, ys, draws.vs, values):
        exact = _exact_pair_value(model, x, y, v)
        # the hyperbolic factors' Minkowski products lose K0 |x_h|^2
        cond = _frame_conditioning(model, Point(x))
        assert abs(value - exact) <= 1e-13 * cond * max(1.0, abs(exact))


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
    expected = b @ _reference_segment_frame_hessian(seg) @ b.T
    expected = 0.5 * (expected + expected.T)
    assert hessian_distance_sq(model, x, y).matrix.tobytes() == expected.tobytes()
