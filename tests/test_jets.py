"""Jet membership tests, chart transfer, block condition, doubling."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemvisc import Euclidean, FlatTorus, Hyperbolic, Point, Sphere, SymBilinear, TangentVector
from riemvisc.errors import BasePointMismatchError, PreconditionError
from riemvisc.grids import GridFunction, build_grid
import riemvisc.grids as grids
from riemvisc.jacobi import HessianPair, hessian_distance_sq
from riemvisc.jets import (
    DoublingRecord,
    Jet2,
    StarCondition,
    canonical_epsilon,
    chart_transfer_check,
    check_P_leq_LQ,
    doubling_diagnostic,
    fd_gradient,
    generate_star_candidates,
    jet_limit_check,
    chart_correction_term,
    quadratic_jet_test,
    transported_order_margins,
    verify_condition_star,
)


def sphere_and_point():
    m = Sphere(2, 1.0)
    return m, m.point([0.0, 0.0, 1.0])


def make_jet(m, x, zeta_comps, a_matrix, value=0.0):
    return Jet2(
        x,
        value,
        m.tangent_from_frame(x, zeta_comps),
        m.bilinear(x, a_matrix),
    )


# --------------------------------------------------------------------- #
# quadratic jet test
# --------------------------------------------------------------------- #

def test_half_distance_sq_jet_accepts_both_sides():
    m, p = sphere_and_point()

    def f(q):
        return 0.5 * m.distance(q, p) ** 2

    jet = make_jet(m, p, [0.0, 0.0], np.eye(2))
    assert quadratic_jet_test(f, m, p, jet, "sub").accepted
    assert quadratic_jet_test(f, m, p, jet, "super").accepted


def test_cone_vertex_jets():
    m, p = sphere_and_point()

    def f(q):
        return m.distance(q, p)

    # any subjet with |zeta| < 1 passes; the cone has no superjet at the vertex
    sub = quadratic_jet_test(f, m, p, make_jet(m, p, [0.0, 0.0], np.eye(2)), "sub")
    assert sub.accepted
    over = quadratic_jet_test(f, m, p, make_jet(m, p, [0.0, 0.0], 5 * np.eye(2)), "super")
    assert not over.accepted
    # |zeta| > 1 fails the subjet test, with the witness aligned to zeta
    zeta = np.array([1.5, 0.0])
    bad = quadratic_jet_test(f, m, p, make_jet(m, p, zeta, np.zeros((2, 2))), "sub")
    assert not bad.accepted
    w = m.frame_components(p, bad.witness)
    cosine = float(np.dot(w, zeta)) / (np.linalg.norm(w) * np.linalg.norm(zeta))
    assert cosine > 0.9


def test_smooth_function_with_slack_accepts():
    m = Euclidean(2)
    x = m.point([0.3, -0.2])

    def f(q):
        return math.sin(q.coords[0]) + q.coords[1] ** 2

    grad = [math.cos(x.coords[0]), 2 * x.coords[1]]
    hess = np.array([[-math.sin(x.coords[0]), 0.0], [0.0, 2.0]])
    jet = make_jet(m, x, grad, hess - 0.1 * np.eye(2))
    assert quadratic_jet_test(f, m, x, jet, "sub").accepted
    # and without the slack the exact jet passes both sides
    exact = make_jet(m, x, grad, hess)
    assert quadratic_jet_test(f, m, x, exact, "super").accepted


def test_jet_convexity_on_accepted_pairs():
    m, p = sphere_and_point()

    def f(q):
        return 0.5 * m.distance(q, p) ** 2

    j1 = make_jet(m, p, [0.0, 0.0], 0.8 * np.eye(2))
    j2 = make_jet(m, p, [0.0, 0.0], 0.4 * np.eye(2))
    mid = make_jet(m, p, [0.0, 0.0], 0.6 * np.eye(2))
    assert quadratic_jet_test(f, m, p, j1, "sub").accepted
    assert quadratic_jet_test(f, m, p, j2, "sub").accepted
    assert quadratic_jet_test(f, m, p, mid, "sub").accepted


def test_smooth_shift_rule_preserves_verdicts():
    m, p = sphere_and_point()
    rng = np.random.default_rng(3)
    x = m.exp(p, m.tangent(p, [0.4, 0.2, 0.0]))

    def f(q):
        return q.coords[2] ** 2 + 0.3 * q.coords[0]

    def psi(q):
        return 0.5 * q.coords[1] + 0.1 * q.coords[2] ** 2

    psi_grad = fd_gradient(m, psi, x)
    psi_hess = chart_transfer_check(psi, m, x, make_jet(m, x, [0, 0], np.zeros((2, 2)))).fd_hessian
    f_grad = fd_gradient(m, f, x)
    f_hess = chart_transfer_check(f, m, x, make_jet(m, x, [0, 0], np.zeros((2, 2)))).fd_hessian

    for slack, sign in [(0.05, "sub"), (-0.05, "super"), (-0.05, "sub")]:
        jet_f = Jet2(
            x, f(x), f_grad, m.bilinear(x, f_hess + slack * np.eye(2))
        )
        jet_shift = Jet2(
            x,
            f(x) - psi(x),
            m.tangent(x, f_grad.components - psi_grad.components),
            m.bilinear(x, f_hess + slack * np.eye(2) - psi_hess),
        )
        v1 = quadratic_jet_test(f, m, x, jet_f, sign, seed=9)
        v2 = quadratic_jet_test(
            lambda q: f(q) - psi(q), m, x, jet_shift, sign, seed=9
        )
        assert v1.accepted == v2.accepted


# --------------------------------------------------------------------- #
# chart transfer
# --------------------------------------------------------------------- #

def test_chart_transfer_verdicts_agree():
    m, p = sphere_and_point()

    def f(q):
        return m.distance(q, p)

    for jet, sign in [
        (make_jet(m, p, [0.0, 0.0], np.eye(2)), "sub"),
        (make_jet(m, p, [1.5, 0.0], np.zeros((2, 2))), "sub"),
        (make_jet(m, p, [0.0, 0.0], 5 * np.eye(2)), "super"),
    ]:
        report = chart_transfer_check(f, m, p, jet, sign)
        assert report.agree


def test_chart_transfer_recovers_height_hessian():
    # f = z on the unit sphere: chart Hessian at x is -z(x) I, gradient the
    # projected vertical axis
    m = Sphere(2, 1.0)
    x = m.point(np.array([0.3, -0.5, math.sqrt(1 - 0.34)]))

    def f(q):
        return q.coords[2]

    report = chart_transfer_check(f, m, x, make_jet(m, x, [0, 0], np.zeros((2, 2))))
    assert np.allclose(report.fd_hessian, -x.coords[2] * np.eye(2), atol=1e-6)
    frame = m.canonical_frame(x)
    expected_grad = np.array([f_row[2] for f_row in frame])
    assert np.allclose(report.fd_gradient, expected_grad, atol=1e-8)


def test_chart_transfer_constant_function():
    m, p = sphere_and_point()
    jet = make_jet(m, p, [0.0, 0.0], np.zeros((2, 2)))
    for sign in ("sub", "super"):
        report = chart_transfer_check(lambda q: 4.2, m, p, jet, sign)
        assert report.verdict_manifold.accepted
        assert report.agree


# --------------------------------------------------------------------- #
# chart correction term
# --------------------------------------------------------------------- #

def second_difference_o4(f, h):
    return (
        -f(2 * h) + 16.0 * f(h) - 30.0 * f(0.0) + 16.0 * f(-h) - f(-2 * h)
    ) / (12.0 * h * h)


def constant_pullback_field(m, x, c_comps):
    """V(p) = d(exp_x)(w_p) applied to a constant chart field, by differences."""
    frame_x = m.canonical_frame(x)
    c = np.asarray(c_comps, float) @ frame_x

    def field(p):
        w = m.log(x, p).components
        h = 1e-3
        pts = [
            m.exp(x, TangentVector(x, w + s * h * c)).coords
            for s in (-2.0, -1.0, 1.0, 2.0)
        ]
        deriv = (pts[0] - 8 * pts[1] + 8 * pts[2] - pts[3]) / (12 * h)
        return TangentVector(p, m.project_tangent(p, deriv))

    return field


def test_correction_term_vanishes_at_base_and_flat():
    for m, x in [
        (Sphere(2, 1.0), Sphere(2, 1.0).point([0, 0, 1.0])),
        (Hyperbolic(2, 1.0), Hyperbolic(2, 1.0).base_point()),
    ]:
        def phi(q):
            return q.coords[0] ** 2 + 0.5 * q.coords[1]

        field = constant_pullback_field(m, x, [0.7, 0.3])
        assert abs(chart_correction_term(m, phi, x, x, field)) <= 1e-8

    e = Euclidean(2)
    x = e.point([0.1, 0.2])
    y = e.point([0.6, -0.3])

    def phi_flat(q):
        return q.coords[0] ** 3 + q.coords[1] ** 2

    field = constant_pullback_field(e, x, [1.0, -0.5])
    assert abs(chart_correction_term(e, phi_flat, x, y, field)) <= 1e-10


def test_correction_term_matches_hessian_defect_on_sphere():
    m = Sphere(2, 1.0)
    x = m.point([0.0, 0.0, 1.0])
    y = m.exp(x, m.tangent(x, [0.5, 0.0, 0.0]))

    def phi(q):
        return q.coords[2] ** 2 + q.coords[0]

    c_comps = [0.6, 0.8]
    field = constant_pullback_field(m, x, c_comps)
    correction = chart_correction_term(m, phi, x, y, field)

    frame_x = m.canonical_frame(x)
    c = np.asarray(c_comps, float) @ frame_x
    w = m.log(x, y).components

    def chart_line(t):
        return phi(m.exp(x, TangentVector(x, w + t * c)))

    lhs = second_difference_o4(chart_line, 1e-2)
    vy = field(y)

    def geodesic_line(t):
        return phi(m.exp(y, TangentVector(y, t * vy.components)))

    rhs = second_difference_o4(geodesic_line, 1e-2)
    assert abs(correction) > 1e-3  # the defect is genuinely nonzero here
    assert lhs == pytest.approx(rhs + correction, abs=1e-5)


# --------------------------------------------------------------------- #
# block condition and transported order
# --------------------------------------------------------------------- #

def euclid_pair():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    y = m.point([1.0, 0.0])
    return m, x, y


def test_condition_star_zero_hessian_cases():
    m, x, y = euclid_pair()
    zero = HessianPair(m, x, y, np.zeros((4, 4)))
    eps = 0.25
    p_ok = m.bilinear(x, -1.0 * np.eye(2))
    q_ok = m.bilinear(y, 1.0 * np.eye(2))
    ok, lo, hi = verify_condition_star(StarCondition(zero, eps, p_ok, q_ok))
    assert ok and lo >= 0 and hi >= 0
    p_bad = m.bilinear(x, 1.0 * np.eye(2))  # diag(P, -Q) <= 0 fails
    ok_bad, _, hi_bad = verify_condition_star(StarCondition(zero, eps, p_bad, q_ok))
    assert not ok_bad and hi_bad < 0


def test_condition_star_zero_pq_with_psd_hessian():
    m, x, y = euclid_pair()
    a = hessian_distance_sq(m, x, y)  # 2[[I,-I],[-I,I]] >= 0
    sc = StarCondition.canonical(
        a, m.bilinear(x, np.zeros((2, 2))), m.bilinear(y, np.zeros((2, 2)))
    )
    ok, _, _ = verify_condition_star(sc)
    assert ok
    assert sc.epsilon == pytest.approx(1.0 / (2.0 * (1.0 + a.operator_norm())))


def sphere_hessian_pair(alpha=1.0):
    m = Sphere(2, 1.0)
    x = m.point([0.0, 0.0, 1.0])
    y = m.point([1.0, 0.0, 0.0])
    return m, x, y, hessian_distance_sq(m, x, y).scaled(alpha / 2.0)


def test_generator_candidates_satisfy_condition():
    m, x, y, a_alpha = sphere_hessian_pair()
    eps = canonical_epsilon(a_alpha)
    pairs = generate_star_candidates(a_alpha, eps, 40, seed=5)
    assert len(pairs) > 0
    for p, q in pairs:
        ok, _, _ = verify_condition_star(StarCondition(a_alpha, eps, p, q))
        assert ok


def test_generator_zero_hessian_gives_shift_pairs():
    # with A = 0 every candidate is (P, Q) = (-s I, +s I)
    m, x, y = euclid_pair()
    zero = HessianPair(m, x, y, np.zeros((4, 4)))
    pairs = generate_star_candidates(zero, 0.25, 10, seed=4)
    assert pairs
    for p, q in pairs:
        s = -p.matrix[0, 0]
        assert s > 0
        assert np.allclose(p.matrix, -s * np.eye(2), atol=1e-12)
        assert np.allclose(q.matrix, s * np.eye(2), atol=1e-12)


def test_generator_skips_infeasible_shifts():
    # an enormous extra slack pushes the shifted blocks below the floor of
    # the two-sided inequality; those samples are dropped, not returned
    m, x, y, a_alpha = sphere_hessian_pair()
    eps = canonical_epsilon(a_alpha)
    pairs = generate_star_candidates(a_alpha, eps, 25, seed=6, slack_scale=1e6)
    assert len(pairs) < 25


def test_generator_candidate_count_is_checked():
    m, x, y, a_alpha = sphere_hessian_pair()
    eps = canonical_epsilon(a_alpha)
    assert generate_star_candidates(a_alpha, eps, 0, seed=1) == []
    with pytest.raises(PreconditionError, match="n_candidates >= 0, got -1"):
        generate_star_candidates(a_alpha, eps, -1, seed=1)


def _reference_star_candidates(a_alpha, epsilon, n_candidates, seed=0, slack_scale=1.0):
    """The per-candidate loop the stacked generator replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    n = a_alpha.dim
    a = a_alpha.matrix
    b = a + epsilon * (a @ a)
    b11, b12, b22 = b[:n, :n], b[:n, n:], b[n:, n:]
    s_base = 2.0 * float(np.linalg.norm(b12, 2))
    norm_a = a_alpha.operator_norm()
    floor = -(1.0 / epsilon + norm_a)
    out = []
    for _ in range(n_candidates):
        s = s_base + slack_scale * rng.uniform(0.0, 1.0) * (1.0 + norm_a)
        p_mat = b11 - s * np.eye(n)
        neg_q_mat = b22 - s * np.eye(n)
        low = min(
            float(np.min(np.linalg.eigvalsh(p_mat))),
            float(np.min(np.linalg.eigvalsh(neg_q_mat))),
        )
        if low < floor:
            continue  # infeasible shift
        p = SymBilinear(a_alpha.x, p_mat)
        q = SymBilinear(a_alpha.y, -neg_q_mat)
        ok, _, _ = verify_condition_star(StarCondition(a_alpha, epsilon, p, q))
        if ok:
            out.append((p, q))
    return out


STAR_MODELS = [
    Sphere(2, 1.0), Sphere(3, 2.0), Hyperbolic(2, 1.0), Hyperbolic(3, 2.5), Euclidean(2),
]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(STAR_MODELS),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.1, 50.0),
    n_candidates=st.integers(0, 25),
    slack_scale=st.sampled_from([0.0, 0.3, 1.0, 4.0, 1e6]),
)
def test_stacked_star_candidates_match_the_per_candidate_loop(
    model, seed, alpha, n_candidates, slack_scale
):
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    d = model.random_tangent(rng, x)
    y = model.exp(x, TangentVector(x, d.components * (rng.uniform(0.1, 1.5) / model.norm(x, d))))
    a_alpha = hessian_distance_sq(model, x, y).scaled(alpha / 2.0)
    eps = canonical_epsilon(a_alpha)
    expected = _reference_star_candidates(a_alpha, eps, n_candidates, seed, slack_scale)
    got = generate_star_candidates(a_alpha, eps, n_candidates, seed, slack_scale)
    assert len(got) == len(expected)
    for (p, q), (p_ref, q_ref) in zip(got, expected):
        assert p.base is x and q.base is y
        assert p.matrix.tobytes() == p_ref.matrix.tobytes()
        assert q.matrix.tobytes() == q_ref.matrix.tobytes()
    if slack_scale == 1e6 and n_candidates:
        assert len(got) < n_candidates  # the huge shifts break the floor


def test_sign_report_serialization_keys():
    from riemvisc.jacobi import check_sign_condition

    report = check_sign_condition(Sphere(2, 1.0), 50, seed=3, ell_range=(0.1, 2.0))
    d = report.to_dict()
    assert set(d) >= {"model", "samples", "max_violation", "tolerance", "pass"}
    assert "_violation" not in d["model"]


def test_p_leq_lq_on_sphere_candidates():
    m, x, y, a_alpha = sphere_hessian_pair(alpha=2.0)
    eps = canonical_epsilon(a_alpha)
    pairs = generate_star_candidates(a_alpha, eps, 30, seed=7)
    assert pairs
    for p, q in pairs:
        ok, margin = check_P_leq_LQ(m, x, y, p, q, slack_rhs=0.0)
        assert ok, margin


def test_p_leq_lq_hyperbolic_with_slack():
    m = Hyperbolic(2, 1.0)
    o = m.base_point()
    y = m.exp(o, m.tangent(o, [0.0, 1.2, 0.0]))
    alpha = 4.0
    a_alpha = hessian_distance_sq(m, o, y).scaled(alpha / 2.0)
    eps = canonical_epsilon(a_alpha)
    d = m.distance(o, y)
    slack = 1.5 * 1.0 * alpha * d * d
    pairs = generate_star_candidates(a_alpha, eps, 30, seed=9)
    assert pairs
    for p, q in pairs:
        ok, margin = check_P_leq_LQ(m, o, y, p, q, slack_rhs=slack)
        assert ok, margin


def test_p_equal_transported_q_margin_zero():
    m = Sphere(2, 1.0)
    rng = np.random.default_rng(11)
    x = m.random_point(rng)
    y = m.exp(x, m.tangent(x, 0.7 * m.canonical_frame(x)[0]))
    raw = rng.standard_normal((2, 2))
    q = m.bilinear(y, raw + raw.T)
    p = m.parallel_transport_bilinear(y, x, q)
    ok, margin = check_P_leq_LQ(m, x, y, p, q, slack_rhs=0.0)
    assert ok
    assert abs(margin) <= 1e-9


def _reference_order_margin(m, x, y, p, q, slack_rhs):
    """The per-candidate P <= L Q margin the stacked kernel replaced, kept as its oracle."""
    moved = m.parallel_transport_bilinear(y, x, q)
    return float(np.min(np.linalg.eigvalsh(moved.matrix + slack_rhs * np.eye(m.dim) - p.matrix)))


ORDER_MODELS = [
    Sphere(2, 1.0), Sphere(3, 2.0), Hyperbolic(2, 1.0), Hyperbolic(3, 2.5), Euclidean(2),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(ORDER_MODELS),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.5, 64.0),
    n_candidates=st.integers(1, 30),
    slack=st.sampled_from([0.0, 1e-3, 0.7]),
)
def test_stacked_order_margins_match_the_per_candidate_loop(
    model, seed, alpha, n_candidates, slack
):
    rng = np.random.default_rng(seed)
    x = model.random_point(rng)
    d = model.random_tangent(rng, x)
    y = model.exp(x, TangentVector(x, d.components * (rng.uniform(0.1, 1.5) / model.norm(x, d))))
    a_alpha = hessian_distance_sq(model, x, y).scaled(alpha / 2.0)
    pairs = generate_star_candidates(a_alpha, canonical_epsilon(a_alpha), n_candidates, seed)
    # random symmetric forms too, so that some margins are negative
    raw = rng.standard_normal((n_candidates, 2, model.dim, model.dim))
    pairs += [(SymBilinear(x, a + a.T), SymBilinear(y, b + b.T)) for a, b in raw]
    expected = np.array([_reference_order_margin(model, x, y, p, q, slack) for p, q in pairs])
    got = transported_order_margins(
        model, x, y, np.array([p.matrix for p, _ in pairs]),
        np.array([q.matrix for _, q in pairs]), slack_rhs=slack,
    )
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    for (p, q), margin in zip(pairs, expected):  # the one-pair case, bit for bit
        assert check_P_leq_LQ(model, x, y, p, q, slack_rhs=slack) == (margin >= -1e-9, margin)


def test_stacked_order_margins_keep_the_symmetry_check():
    m, x, y, a_alpha = sphere_hessian_pair(alpha=2.0)
    pairs = generate_star_candidates(a_alpha, canonical_epsilon(a_alpha), 6, seed=3)
    p_mats = np.array([p.matrix for p, _ in pairs])
    q_mats = np.array([q.matrix for _, q in pairs])
    q_mats[-1, 0, 1] += 1e-6  # one lopsided Q in the stack
    with pytest.raises(ValueError, match="symmetric"):
        transported_order_margins(m, x, y, p_mats, q_mats)
    with pytest.raises(ValueError, match="symmetric"):
        SymBilinear(y, q_mats[-1])
    # below the tolerance the moved forms are symmetrized, as SymBilinear does
    q_mats[-1, 0, 1] -= 1e-6 - 1e-14
    margins = transported_order_margins(m, x, y, p_mats, q_mats)
    last = _reference_order_margin(
        m, x, y, SymBilinear(x, p_mats[-1]), SymBilinear(y, q_mats[-1]), 0.0
    )
    assert margins[-1] == pytest.approx(last, abs=1e-13)


def test_check_p_leq_lq_checks_the_base_of_q():
    m, x, y, a_alpha = sphere_hessian_pair(alpha=2.0)
    p, q = generate_star_candidates(a_alpha, canonical_epsilon(a_alpha), 6, seed=3)[0]
    with pytest.raises(BasePointMismatchError):
        check_P_leq_LQ(m, x, y, p, SymBilinear(x, q.matrix))


# --------------------------------------------------------------------- #
# doubling of variables
# --------------------------------------------------------------------- #

def smooth_grid_pair(grid, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    u = GridFunction(grid, scale * grid.coords @ a)
    v = GridFunction(grid, scale * grid.coords @ b)
    return u, v


def test_doubling_equal_functions():
    grid = build_grid(Sphere(2, 1.0), 3)
    u, _ = smooth_grid_pair(grid, 1)
    alphas = [float(2**k) for k in range(5, 13)]
    trace = doubling_diagnostic(grid.model, u, u, alphas)
    for rec in trace.records:
        assert rec.m_alpha >= -1e-12
    assert trace.final().m_alpha == pytest.approx(0.0, abs=1e-12)
    assert trace.final().x_idx == trace.final().y_idx


def test_doubling_constant_shift():
    grid = build_grid(Sphere(2, 1.0), 3)
    u, _ = smooth_grid_pair(grid, 2)
    c = 0.37
    v = GridFunction(grid, u.values - c)
    alphas = [float(2**k) for k in range(5, 13)]
    trace = doubling_diagnostic(grid.model, u, v, alphas)
    assert trace.final().m_alpha == pytest.approx(c, abs=1e-12)
    # with alphas clear of the grid-scale threshold the max sits on the diagonal
    assert all(r.m_alpha == pytest.approx(c, abs=1e-12) for r in trace.records)


def test_doubling_trace_properties_random_fields():
    grid = build_grid(Sphere(2, 1.0), 3)
    # strong fields so the small-alpha maximizers sit genuinely off-diagonal
    u, v = smooth_grid_pair(grid, 8, scale=1.0)
    alphas = [float(2**k) for k in range(2, 13)]
    trace = doubling_diagnostic(grid.model, u, v, alphas)
    ms = [r.m_alpha for r in trace.records]
    assert all(a >= b - 1e-12 for a, b in zip(ms, ms[1:]))  # nonincreasing
    ad2 = {r.alpha: r.alpha_d_sq for r in trace.records}
    assert ad2[2.0**4] > 0.0
    assert ad2[2.0**12] < ad2[2.0**4]
    gap = u.values - v.values
    final_gap = trace.final().m_alpha - float(np.max(gap))
    assert abs(final_gap) <= grid.modulus_at_spacing(gap, grid.h) + 1e-12


def test_doubling_rejects_bad_input():
    grid = build_grid(Sphere(2, 1.0), 2)
    u, v = smooth_grid_pair(grid, 4)
    with pytest.raises(PreconditionError):
        doubling_diagnostic(grid.model, u, v, [4.0, 2.0])


def test_doubling_needs_the_grid_model():
    grid = build_grid(Sphere(2, 1.0), 2)
    u, v = smooth_grid_pair(grid, 4)
    with pytest.raises(PreconditionError):
        doubling_diagnostic(Sphere(2, 2.0), u, v, [4.0, 8.0])
    with pytest.raises(PreconditionError):
        doubling_diagnostic(Sphere(2, 1.0), u, v, [4.0, 8.0])  # equal, but not the grid's


def test_doubling_ties_keep_the_first_maximizer(monkeypatch):
    grid = build_grid(Sphere(2, 1.0), 3)
    monkeypatch.setattr(grids, "_BLOCK_ENTRIES", 50 * grid.n_nodes)  # 13 blocks
    u = GridFunction.constant(grid, 0.25)
    trace = doubling_diagnostic(grid.model, u, u, [1.0, 64.0])
    for rec in trace.records:
        # every diagonal pair attains 0; row-major order picks (0, 0)
        assert (rec.m_alpha, rec.x_idx, rec.y_idx, rec.distance) == (0.0, 0, 0, 0.0)


def test_doubling_and_modulus_on_large_torus():
    # 6400 nodes: several default-budget blocks, past the old dense-matrix cap
    res = 80
    grid = build_grid(FlatTorus([1.0, 1.0]), res)
    rng = np.random.default_rng(3)
    u = GridFunction(grid, rng.standard_normal(grid.n_nodes))
    v = GridFunction(grid, rng.standard_normal(grid.n_nodes))
    alphas = [2.0, 512.0]
    spacing = 2.5 * grid.h  # clear of every lattice distance
    # per-row reference: node (p, q) sees the lattice-offset table rolled by (p, q);
    # the first strict maximum in row-major order wins
    w = np.minimum(np.arange(res), res - np.arange(res))
    offsets = np.sqrt(w[:, None] ** 2 + w[None, :] ** 2) / res
    best = [(-math.inf, -1, -1, 0.0)] * len(alphas)
    modulus = 0.0
    for i in range(grid.n_nodes):
        d = np.roll(offsets, divmod(i, res), axis=(0, 1)).ravel()
        modulus = max(modulus, float(np.max(np.abs(u.values[d <= spacing] - u.values[i]))))
        for a, alpha in enumerate(alphas):
            row = u.values[i] - v.values - 0.5 * alpha * d * d
            j = int(np.argmax(row))
            if row[j] > best[a][0]:
                best[a] = (row[j], i, j, d[j])
    trace = doubling_diagnostic(grid.model, u, v, alphas)
    for rec, (obj, i, j, dist) in zip(trace.records, best):
        assert (rec.x_idx, rec.y_idx) == (i, j)
        assert rec.m_alpha == pytest.approx(obj, abs=1e-12)
        assert rec.distance == pytest.approx(dist, abs=1e-12)
    assert trace.records[0].distance > 0.0
    assert grid.modulus_at_spacing(u.values, spacing) == modulus


def _reference_doubling(m, u, v, alphas):
    """The blockwise argmax over every distance the pruned diagnostic
    replaced, kept as its oracle: a later block wins only when strictly
    greater, so ties go to the first maximizer in row-major order."""
    grid = u.grid
    alphas = [float(a) for a in alphas]
    best = [(-math.inf, 0, 0, 0.0)] * len(alphas)  # (objective, i, j, d) per alpha
    for start, d in grid.distance_blocks():
        penalty = d * d
        gap = u.values[start:start + d.shape[0], None] - v.values[None, :]
        objective = np.empty_like(d)  # gap - (alpha/2) penalty, written in place
        for k, alpha in enumerate(alphas):
            np.subtract(gap, np.multiply(0.5 * alpha, penalty, out=objective), out=objective)
            i, j = np.unravel_index(np.argmax(objective), objective.shape)
            if objective[i, j] > best[k][0]:
                best[k] = (float(objective[i, j]), start + int(i), int(j), float(d[i, j]))
    return [
        DoublingRecord(alpha, obj, i, j, dist, alpha * dist * dist)
        for alpha, (obj, i, j, dist) in zip(alphas, best)
    ]


DOUBLING_GRIDS = {
    **{f"sphere r={r} res={res}": (Sphere, (2, r), res)
       for r in (0.5, 1.0, 2.5) for res in (1, 2, 3)},
    "torus 1 x 0.7": (FlatTorus, ([1.0, 0.7],), 15),
    "torus 3 x 0.4": (FlatTorus, ([3.0, 0.4],), 11),
    # dyadic lattice: exact squared distances, so quarter-valued fields tie
    # the diagonal exactly at the edge of a row's reach
    "torus 2 x 0.5": (FlatTorus, ([2.0, 0.5],), 8),
}


@functools.cache
def doubling_grid(name):
    model, args, res = DOUBLING_GRIDS[name]
    return build_grid(model(*args), res)


def doubling_fields(grid, kind, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        a, b = rng.standard_normal((2, grid.coords.shape[1]))
        u, v = np.cos(grid.coords @ a), np.sin(grid.coords @ b)
    elif kind == "rough":
        u, v = rng.standard_normal((2, grid.n_nodes))
    elif kind == "quantized":  # few levels: many exact ties
        u, v = rng.integers(-2, 3, (2, grid.n_nodes)) / 4.0
    else:  # u = v: every diagonal pair attains the maximum 0
        u = v = rng.standard_normal(grid.n_nodes)
    return GridFunction(grid, scale * u), GridFunction(grid, scale * v)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(DOUBLING_GRIDS)),
    kind=st.sampled_from(["smooth", "rough", "quantized", "equal"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.3, 1.0, 40.0]),
    alphas=st.sampled_from([
        [4096.0], [0.25], [float(2**k) for k in range(2, 13)], [0.5, 3.0, 4096.0],
        [0.0, 2.0], [-3.0, 1.0, 64.0],
    ]),
    rows_per_block=st.sampled_from([None, 1, 5, 37]),
)
def test_pruned_doubling_matches_the_full_argmax(name, kind, seed, scale, alphas, rows_per_block):
    grid = doubling_grid(name)
    u, v = doubling_fields(grid, kind, seed, scale)
    entries = grids._BLOCK_ENTRIES if rows_per_block is None else rows_per_block * grid.n_nodes
    with mock.patch.object(grids, "_BLOCK_ENTRIES", entries):  # many blocks
        expected = _reference_doubling(grid.model, u, v, alphas)
        assert doubling_diagnostic(grid.model, u, v, alphas).records == expected


def test_doubling_keeps_a_tie_at_the_edge_of_the_reach():
    # v dips to -1 at node 1, so max(u - v) = 1 on the diagonal there; node 0
    # lies one spacing (1/8) away, and with alpha_1 = 16, u_0 = 1/8 gives
    # u_0 - v_1 - (16/2) (1/8)^2 = 1: the pair (0, 1) sits exactly at row 0's
    # reach and, first in row-major order, wins the tie
    grid = build_grid(FlatTorus([1.0, 1.0]), 8)
    u, v = np.zeros(grid.n_nodes), np.zeros(grid.n_nodes)
    u[0], v[1] = 0.125, -1.0
    u, v = GridFunction(grid, u), GridFunction(grid, v)
    trace = doubling_diagnostic(grid.model, u, v, [16.0, 32.0])
    assert trace.records == _reference_doubling(grid.model, u, v, [16.0, 32.0])
    first, second = trace.records
    assert (first.m_alpha, first.x_idx, first.y_idx, first.distance) == (1.0, 0, 1, 0.125)
    assert (second.m_alpha, second.x_idx, second.y_idx, second.distance) == (1.0, 1, 1, 0.0)


def test_doubling_rejects_non_finite_alphas():
    grid = build_grid(Sphere(2, 1.0), 1)
    u, v = smooth_grid_pair(grid, 4)
    for bad in ([1.0, math.inf], [math.nan]):
        with pytest.raises(PreconditionError, match="finite"):
            doubling_diagnostic(grid.model, u, v, bad)
    assert doubling_diagnostic(grid.model, u, v, []).records == []


def test_doubling_csv_columns():
    grid = build_grid(Sphere(2, 1.0), 2)
    u, v = smooth_grid_pair(grid, 5)
    trace = doubling_diagnostic(grid.model, u, v, [8.0, 16.0])
    header = trace.to_csv().splitlines()[0]
    assert header == "alpha,m_alpha,d,alpha_d_sq,x_idx,y_idx"


# --------------------------------------------------------------------- #
# jet limits
# --------------------------------------------------------------------- #

def test_jet_limit_constant_sequence():
    m, p = sphere_and_point()
    jet = make_jet(m, p, [0.2, -0.1], np.array([[1.0, 0.2], [0.2, -0.5]]), value=1.0)
    assert jet_limit_check(m, [jet] * 6, jet)


def test_jet_limit_transported_sequence():
    m, p = sphere_and_point()
    limit = make_jet(m, p, [0.3, 0.4], np.array([[1.0, 0.1], [0.1, 2.0]]), value=0.5)
    jets = []
    for k in range(1, 8):
        t = 0.5**k
        xn = m.exp(p, m.tangent(p, [t, t / 2, 0.0]))
        zeta_n = m.parallel_transport(p, xn, limit.zeta)
        form_n = m.parallel_transport_bilinear(p, xn, limit.form)
        jets.append(Jet2(xn, 0.5, zeta_n, form_n))
    assert jet_limit_check(m, jets, limit)


def test_jet_limit_oscillating_rejected():
    m, p = sphere_and_point()
    limit = make_jet(m, p, [0.0, 0.0], np.eye(2), value=0.0)
    jets = []
    for k in range(1, 8):
        t = 0.5**k
        xn = m.exp(p, m.tangent(p, [t, 0.0, 0.0]))
        wobble = 1.0 + 0.5 * (-1.0) ** k
        jets.append(
            Jet2(xn, 0.0, m.tangent_from_frame(xn, [0.0, 0.0]), m.bilinear(xn, wobble * np.eye(2)))
        )
    assert not jet_limit_check(m, jets, limit)
