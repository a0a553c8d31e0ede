"""Operator catalog: evaluation, flags, and structural sweeps."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from riemvisc import Euclidean, FlatTorus, Hyperbolic, Point, Product, Sphere, operators
from riemvisc.errors import PreconditionError
from riemvisc.grids import GridFunction, build_grid
from riemvisc.jacobi import (
    _space_forms, check_curvature_bound, check_sign_condition, index_minimality_check,
)
from riemvisc.operators import (
    CheckReport,
    OperatorSpec,
    ScalarField,
    compose,
    constant,
    detplus,
    detplus_pospart,
    ellipticity_check,
    evaluate,
    example_5_3,
    from_config,
    intrinsic_modulus_estimate,
    invariance_check,
    max_of,
    min_of,
    monotonicity_estimate,
    neg_detplus,
    neg_min_eigenvalue,
    neg_trace,
    scalar_term,
    source,
    sum_of,
    twoflat_modulus_estimate,
    yamabe,
)
from riemvisc.solver import perron_iterate, solve_fixed_point, verify_viscosity_residual

from generator_doubles import Recordings, Replay, replays, rows_of

SPHERE = Sphere(2, 1.0)
NORTH = SPHERE.point([0.0, 0.0, 1.0])


def literal_neg_detplus():
    # literal positive-eigenvalue product; see README for why the shipped
    # builder uses the monotone positive-part variant instead
    return OperatorSpec(
        "neg_detplus_literal",
        lambda ctx, rs, zs, As: -np.array([detplus(a) for a in As]),
    )


# --------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------- #

def test_eval_neg_trace_identity():
    F = neg_trace()
    assert F.point_eval(NORTH, 0.0, np.zeros(2), np.eye(2)) == -2.0


def test_eval_literal_detplus_mixed_signs():
    F = literal_neg_detplus()
    assert F.point_eval(NORTH, 0.0, np.zeros(2), np.diag([2.0, -3.0])) == -2.0


def test_eval_yamabe_direct_substitution():
    F = yamabe(3, 6.0, -1.0)
    # 6*1 - (-1)*1^5 - 8*0 = 7
    assert F.point_eval(NORTH, 1.0, np.zeros(2), np.zeros((2, 2))) == pytest.approx(7.0)


def test_evaluate_checks_bases():
    m = SPHERE
    x, y = NORTH, m.point([1.0, 0.0, 0.0])
    zeta = m.tangent_from_frame(y, [1.0, 0.0])
    a = m.bilinear(x, np.eye(2))
    with pytest.raises(Exception):
        evaluate(neg_trace(), m, x, 0.0, zeta, a)
    zeta_ok = m.tangent_from_frame(x, [1.0, 0.0])
    assert evaluate(neg_trace(), m, x, 0.0, zeta_ok, a) == -2.0


def test_detplus_conventions():
    assert detplus(np.diag([2.0, 3.0])) == pytest.approx(6.0)
    assert detplus(np.diag([2.0, -3.0])) == pytest.approx(2.0)
    assert detplus(np.diag([-1.0, -2.0])) == pytest.approx(1.0)  # empty product
    assert detplus_pospart(np.diag([2.0, 3.0])) == pytest.approx(6.0)
    assert detplus_pospart(np.diag([2.0, -3.0])) == pytest.approx(0.0)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("entry", [(0, 0, math.nan), (0, 0, math.inf), (0, 0, -math.inf),
                                   (0, -1, math.nan)])
def test_a_non_finite_entry_gives_nan(n, entry):
    # (0, -1) is in the upper triangle, which eigvalsh does not read
    i, j, value = entry
    bad = np.eye(n)
    bad[i, j] = value
    stack = np.stack([np.eye(n), bad])
    assert math.isnan(detplus(bad))
    assert math.isnan(detplus_pospart(bad))
    pos = detplus_pospart(stack)
    assert pos[0] == 1.0 and math.isnan(pos[1])
    for F in (neg_min_eigenvalue(), neg_detplus()):
        values = F.batch(None, np.zeros(2), np.zeros((2, n)), stack)
        assert values[0] == -1.0 and math.isnan(values[1]), F.name


# --------------------------------------------------------------------- #
# the closed-form 2 x 2 spectra
# --------------------------------------------------------------------- #

EPS = np.finfo(float).eps
_MANTISSA = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
_HUGE = st.just(0.0) | st.floats(1e300, 1e308) | st.floats(-1e308, -1e300)


def _sym2(a, b, c):
    return np.array([[a, b], [b, c]])


def _scaled(mantissas, scale, offsets):
    """A symmetric 2 x 2 matrix with entries of magnitude up to 10^scale,
    each entry its own power of ten below it."""
    return _sym2(*(m * 10.0 ** (scale + o) for m, o in zip(mantissas, offsets)))


_MATRIX = st.builds(_scaled, st.tuples(_MANTISSA, _MANTISSA, _MANTISSA), st.integers(-150, 150),
                    st.tuples(*3 * [st.integers(-20, 0)]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=_MATRIX)
def test_two_by_two_spectra_are_lapack_to_4_eps(a):
    got, want = operators._spectra(a), np.linalg.eigvalsh(a)
    assert got[0] <= got[1]
    assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want).max())
    # the lower triangle is read, as eigvalsh reads it
    stack = operators._spectra(np.stack([a, np.tril(a), -a]))
    assert np.array_equal(stack[:2], [got, got])
    assert np.array_equal(stack[2], -got[::-1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_MATRIX)
def test_diagonal_and_equal_diagonal_spectra_are_exact(a):
    (x, y), (_, z) = a
    assert operators._spectra(_sym2(x, 0.0, z)).tolist() == sorted([x, z])
    assert operators._spectra(_sym2(x, y, x)).tolist() == [x - abs(y), x + abs(y)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_HUGE, b=_HUGE, c=_HUGE)
@example(a=1e308, b=1e300, c=1e308)  # (a + c)/2 overflows here
@example(a=1e308, b=0.0, c=-1e308)
def test_finite_entries_up_to_1e308_do_not_overflow(a, b, c):
    # a quarter of the matrix has the quarter spectrum, exactly representable;
    # any overflow on the way is a RuntimeWarning, an error in this suite
    quarter = np.linalg.eigvalsh(_sym2(a, b, c) / 4)
    assume(np.abs(quarter).max() <= np.finfo(float).max / 4 * (1 - 16 * EPS))
    got = operators._spectra(_sym2(a, b, c))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got / 4 - quarter) <= 4 * EPS * np.abs(quarter).max())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=_MATRIX, w=_MATRIX)
def test_a_psd_step_lowers_lambda_min_by_roundoff_at_most(a, w):
    # P = w w^T is positive semidefinite (rank one when a column of w is 0)
    p = w @ w.T
    norms = [np.abs(np.linalg.eigvalsh(m)).max() for m in (a, p)]
    lo_sum, lo = operators._spectra(np.stack([a + p, a]))[:, 0]
    assert lo_sum >= lo - 4 * EPS * sum(norms)


def test_two_by_two_solves_never_call_lapack(monkeypatch):
    grid = build_grid(SPHERE, 3)
    calls = []

    def refuse(mats, *args, **kwargs):
        calls.append(np.shape(mats))
        raise AssertionError("eigvalsh called on a stack of 2 x 2 matrices")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    methods = []
    for op in (neg_min_eigenvalue(), neg_detplus()):
        _, report = solve_fixed_point(sum_of(op, source("coord:2")), grid, tol=1e-8)
        assert report.converged, op.name
        methods.append(report.method)
    assert calls == []
    assert methods == ["sweep", "newton"]


def test_other_sizes_still_call_lapack(monkeypatch):
    model = Product([Sphere(2), Euclidean(2)])
    calls = []
    real = np.linalg.eigvalsh

    def spy(mats, *args, **kwargs):
        calls.append(np.shape(mats))
        return real(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for k, F in enumerate((neg_min_eigenvalue(), neg_detplus())):
        calls.clear()
        assert ellipticity_check(F, 300, model=model, seed=20 + k).passed, F.name
        assert invariance_check(F, model, 300, seed=22 + k).passed, F.name
        # one call per check: its two sides of 300 states each
        assert calls == [(600, 4, 4), (600, 4, 4)], calls


def test_yamabe_rejects_small_dimension_and_negative_r():
    with pytest.raises(ValueError):
        yamabe(2, 1.0, 0.0)
    F5 = yamabe(5, 1.0, -1.0)  # exponent 7/3 is not an integer
    ctx = F5.make_context(NORTH.coords[None])
    for r in (-0.5, math.nan):
        with pytest.raises(PreconditionError):
            F5.point_eval(NORTH, r, np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(PreconditionError):
            F5.eval_batch(ctx, np.array([r]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    F3 = yamabe(3, 1.0, -1.0)  # exponent 5: negative r is fine
    F3.point_eval(NORTH, -0.5, np.zeros(2), np.zeros((2, 2)))


def test_combinators_check_the_domain_at_the_root():
    # the children are called without their own check; the combination's
    # domain is the intersection, so its one check still refuses r < 0 and NaN
    child = yamabe(5, 1.0, -1.0)  # domain [0, inf)
    for F in (
        sum_of(neg_trace(), child),
        max_of(child, constant(-0.1)),
        compose(np.arctan, child),
        sum_of(scalar_term(1.0), max_of(compose(np.arctan, child), neg_trace())),
    ):
        assert F.r_domain == (0.0, math.inf), F.name
        ctx = F.make_context(np.stack([NORTH.coords, NORTH.coords]))
        F.eval_batch(ctx, np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        for r in (-0.5, math.nan):
            with pytest.raises(PreconditionError):
                F.point_eval(NORTH, r, np.zeros(2), np.zeros((2, 2)))
            with pytest.raises(PreconditionError):
                F.eval_batch(ctx, np.array([1.0, r]), np.zeros((2, 2)), np.zeros((2, 2, 2)))


def test_coordinate_past_the_points_is_a_precondition_error():
    # NORTH has 3 embedding coordinates: axis 7 is named with the width, and
    # the width of an empty stack is checked too
    for F in (source("coord:7"), sum_of(neg_trace(), scalar_term("coord:3"))):
        for coords in (np.stack([NORTH.coords, NORTH.coords]), np.empty((0, 3))):
            with pytest.raises(PreconditionError, match=r"axis [37] is past the 3 coordinates"):
                F.make_context(coords)
    assert source("coord:-1").make_context(NORTH.coords[None])["coeff"].tolist() == [1.0]


def test_scalar_field_parsing():
    north = NORTH.coords[None]
    assert ScalarField.parse("const:6").values(north) == [6.0]
    assert ScalarField.parse(2.5).values(north) == [2.5]
    assert ScalarField.parse("coord:2").values(north) == [1.0]
    assert ScalarField.parse("zero").values(north) == [0.0]
    for spec in ("nope", "coord:x", "coord:", "coord:1.5", "const:abc", "const:", "const:nan",
                 "const:-inf", math.nan, math.inf, 10**400, None, [1.0]):
        with pytest.raises(ValueError, match=r"^cannot parse scalar field spec"):
            ScalarField.parse(spec)


# --------------------------------------------------------------------- #
# flags and combinators
# --------------------------------------------------------------------- #

def test_builder_flags():
    assert neg_trace().degenerate_elliptic
    assert neg_detplus().degenerate_elliptic
    assert neg_min_eigenvalue().degenerate_elliptic
    assert yamabe(3, 6.0, -1.0).proper
    assert yamabe(3, 6.0, -1.0).gamma == pytest.approx(6.0)


def test_max_combinator_of_proper_is_proper():
    combo = max_of(sum_of(scalar_term(1.0), neg_trace()), scalar_term(2.0))
    assert combo.proper
    assert combo.degenerate_elliptic


def test_example_5_3_finite_on_sphere():
    rng = np.random.default_rng(3)
    F = example_5_3("coord:0", "coord:2")
    for _ in range(50):
        x = SPHERE.random_point(rng)
        val = F.point_eval(
            x, rng.uniform(-1, 1), rng.standard_normal(2),
            0.5 * np.eye(2) + 0.1 * rng.standard_normal() * np.eye(2),
        )
        assert math.isfinite(val)


@pytest.mark.parametrize("exponent", ["p", "q", "r_exp", "k"])
def test_example_5_3_refuses_negative_exponents(exponent):
    with pytest.raises(ValueError, match=f"exponent {exponent} >= 0, got -1"):
        example_5_3(1.0, 0.5, **{exponent: -1})


def test_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    pts = [SPHERE.random_point(rng) for _ in range(40)]
    coords = np.array([p.coords for p in pts])
    rs = rng.uniform(0.0, 2.0, 40)
    zs = rng.standard_normal((40, 2))
    As = rng.standard_normal((40, 2, 2))
    As = 0.5 * (As + As.transpose(0, 2, 1))
    for F in [
        neg_trace(),
        neg_detplus(),
        neg_min_eigenvalue(),
        yamabe(3, "coord:2", -1.0),
        sum_of(scalar_term(1.0), neg_trace()),
        max_of(neg_trace(), constant(-1.0)),
        example_5_3("coord:0", 0.5),
        source("coord:1"),
    ]:
        ctx = F.make_context(coords)
        batch = F.eval_batch(ctx, rs, zs, As)
        point = np.array(
            [F.point_eval(p, r, z, a) for p, r, z, a in zip(pts, rs, zs, As)]
        )
        assert np.allclose(batch, point, atol=1e-12), F.name


def test_compose_preserves_flags_for_monotone_outer():
    cubed = compose(lambda t: t**3, neg_trace(), nondecreasing=True)
    assert cubed.degenerate_elliptic
    a = np.diag([0.5, -0.25])
    assert cubed.point_eval(NORTH, 0.0, np.zeros(2), a) == pytest.approx(
        (-np.trace(a)) ** 3
    )
    flipped = compose(lambda t: -t, neg_trace(), nondecreasing=False)
    assert not flipped.degenerate_elliptic


@pytest.mark.parametrize("weights", [[1.0, math.nan], [1.0], [1.0, 2.0, 3.0],
                                     [1.0, -0.5], [1.0, math.inf]])
def test_sum_needs_one_finite_nonnegative_weight_per_term(weights):
    with pytest.raises(ValueError, match="one finite nonnegative weight per term"):
        sum_of(neg_trace(), constant(1.0), weights=weights)
    cfg = {"op": "sum", "terms": [{"op": "neg_trace"}, {"op": "const", "value": 1.0}],
           "weights": weights}
    with pytest.raises(ValueError, match="one finite nonnegative weight per term"):
        from_config(cfg)


@pytest.mark.parametrize("make", [
    sum_of, max_of, min_of, lambda: sum_of(weights=[]),
    lambda: from_config({"op": "sum", "terms": []}),
    lambda: from_config({"op": "max", "terms": []}),
])
def test_combinators_need_a_term(make):
    with pytest.raises(ValueError, match="a combinator needs at least one term"):
        make()


def test_from_config_roundtrip():
    cfgs = [
        {"op": "neg_trace"},
        {"op": "neg_detplus"},
        {"op": "yamabe", "n": 3, "S": "const:6", "S_prime": -1},
        {"op": "sum", "terms": [{"op": "scalar_term"}, {"op": "neg_trace"}]},
        {"op": "max", "terms": [{"op": "neg_trace"}, {"op": "const", "value": -1.0}]},
        {"op": "source", "field": "coord:2"},
    ]
    for cfg in cfgs:
        F = from_config(cfg)
        assert isinstance(F, OperatorSpec)
    with pytest.raises(ValueError):
        from_config({"op": "bogus"})


# --------------------------------------------------------------------- #
# ellipticity
# --------------------------------------------------------------------- #

def test_ellipticity_shipped_builders_pass():
    for F in [neg_trace(), neg_detplus(), neg_min_eigenvalue(),
              yamabe(3, 6.0, -1.0), example_5_3(0.5, 0.0)]:
        report = ellipticity_check(F, 2000, model=SPHERE, r_range=(0.0, 2.0), seed=1)
        assert report.passed, (F.name, report.max_violation)


def test_ellipticity_positive_trace_fails_with_witness():
    bad = OperatorSpec("pos_trace", lambda ctx, rs, zs, As: np.einsum("nii->n", As))
    report = ellipticity_check(bad, 500, seed=2)
    assert not report.passed
    assert report.extra["witness"] is not None


def test_nan_values_fail_the_checks():
    F = OperatorSpec(
        "nan_above_one",
        lambda ctx, rs, zs, As: np.where(rs > 1.0, np.nan, -np.einsum("nii->n", As)),
    )
    report = ellipticity_check(F, 200, seed=4)
    assert not report.passed
    assert report.extra["witness"]["r"] > 1.0
    assert not invariance_check(F, SPHERE, 200, seed=5).passed


def test_ellipticity_literal_detplus_fails():
    # the literal nonnegative-eigenvalue product is not monotone in the
    # semidefinite order, which is exactly why the shipped builder uses
    # the positive-part variant
    report = ellipticity_check(literal_neg_detplus(), 3000, seed=3)
    assert not report.passed


# --------------------------------------------------------------------- #
# monotonicity
# --------------------------------------------------------------------- #

def test_monotonicity_u_plus_g_form():
    gamma_hat, _ = monotonicity_estimate(
        sum_of(scalar_term(1.0), neg_trace()), (-2.0, 2.0), 1000, seed=4
    )
    assert gamma_hat >= 1.0 - 1e-9


def test_monotonicity_r_independent_is_zero():
    gamma_hat, _ = monotonicity_estimate(neg_trace(), (-2.0, 2.0), 500, seed=5)
    assert abs(gamma_hat) <= 1e-9


def test_monotonicity_yamabe_at_least_min_s():
    gamma_hat, _ = monotonicity_estimate(
        yamabe(3, 6.0, -1.0), (0.0, 2.0), 2000, seed=6
    )
    assert gamma_hat >= 6.0 - 1e-9


# --------------------------------------------------------------------- #
# invariance and moduli
# --------------------------------------------------------------------- #

def test_invariance_trace_and_detplus():
    assert invariance_check(neg_trace(), SPHERE, 500, seed=7, tolerance=1e-12).passed
    assert invariance_check(neg_detplus(), SPHERE, 500, seed=8, tolerance=1e-10).passed


def test_invariance_eigenvalue_functions_pass():
    F = OperatorSpec(
        "eig_closure",
        lambda ctx, rs, zs, As: rs * np.linalg.norm(zs, axis=1)
        - np.linalg.eigvalsh(As)[:, 0] ** 3,
    )
    assert invariance_check(F, SPHERE, 300, seed=9, tolerance=1e-9).passed


def test_invariance_frame_axis_fails():
    F = OperatorSpec("axis", lambda ctx, rs, zs, As: zs[:, 0])
    assert not invariance_check(F, SPHERE, 300, seed=10).passed


def test_invariance_rejects_x_dependent():
    with pytest.raises(PreconditionError):
        invariance_check(yamabe(3, "coord:2", -1.0), SPHERE, 10)


def test_intrinsic_modulus_invariant_operator_is_flat():
    table = intrinsic_modulus_estimate(neg_trace(), SPHERE, n_samples=800, seed=11)
    assert table.passed
    assert np.max(table.values) <= 1e-9


def test_intrinsic_modulus_coefficient_field_bounded_by_its_modulus():
    # S(x) = z is 1-Lipschitz and |r| <= 2 in the sweep, so the empirical
    # modulus sits under 2 t; the pass threshold is picked accordingly
    F = scalar_term("coord:2")
    table = intrinsic_modulus_estimate(F, SPHERE, n_samples=3000, seed=12, tolerance=0.05)
    assert table.passed
    assert np.all(table.values <= 2.0 * table.bins + 1e-9)


def test_intrinsic_modulus_discontinuous_coefficient_fails():
    step = ScalarField(lambda p: 1.0 if p.coords[2] >= 0 else -1.0, "step")
    table = intrinsic_modulus_estimate(
        scalar_term(step), SPHERE, n_samples=12000, seed=13, tolerance=0.05
    )
    assert not table.passed
    assert table.values[-1] > 1.0  # the jump never decays


def test_twoflat_trace_bounded_by_dimension_times_delta():
    table = twoflat_modulus_estimate(neg_trace(), SPHERE, n_samples=2000, seed=14)
    assert table.passed
    for i, delta in enumerate(table.deltas):
        assert np.all(table.values[i] <= 2.0 * delta + 1e-9)


def test_twoflat_min_eigenvalue_decays_with_delta():
    table = twoflat_modulus_estimate(
        neg_min_eigenvalue(), SPHERE, n_samples=2000, seed=15
    )
    assert table.passed
    for i, delta in enumerate(table.deltas):
        assert np.all(table.values[i] <= delta + 1e-9)


def test_twoflat_x_dependent_coefficient_decays_jointly():
    F = sum_of(scalar_term("coord:2"), neg_trace())
    table = twoflat_modulus_estimate(F, SPHERE, n_samples=3000, seed=16)
    # corner cell: small delta and small distance
    assert table.values[0, 0] <= 2.0 * table.d_bins[0] + 2.0 * table.deltas[0] + 1e-9


def test_sweeps_reject_zero_samples():
    with pytest.raises(PreconditionError):
        ellipticity_check(neg_trace(), 0)
    with pytest.raises(PreconditionError):
        invariance_check(neg_trace(), SPHERE, 0)


@pytest.mark.parametrize(
    "sweep,kwargs,message",
    [
        (intrinsic_modulus_estimate, {"bins": ()}, "bins is empty"),
        (intrinsic_modulus_estimate, {"bins": (0.1, math.nan)}, "bins holds nan"),
        (intrinsic_modulus_estimate, {"bins": (-0.5, 0.1)}, "bins holds -0.5"),
        (intrinsic_modulus_estimate, {"bins": (0.0, 0.1)}, "bins holds 0.0"),
        (twoflat_modulus_estimate, {"deltas": ()}, "deltas is empty"),
        (twoflat_modulus_estimate, {"deltas": (1e-3, math.inf)}, "deltas holds inf"),
        (twoflat_modulus_estimate, {"d_bins": ()}, "d_bins is empty"),
        (twoflat_modulus_estimate, {"d_bins": (math.nan,)}, "d_bins holds nan"),
        (twoflat_modulus_estimate, {"d_bins": (-1.0, 0.5)}, "d_bins holds -1.0"),
    ],
    ids=["empty-bins", "nan-bin", "negative-bin", "zero-bin", "empty-deltas", "inf-delta",
         "empty-d-bins", "nan-d-bin", "negative-d-bin"],
)
def test_malformed_modulus_tables_are_precondition_errors(sweep, kwargs, message):
    with pytest.raises(PreconditionError, match=message):
        sweep(neg_trace(), SPHERE, n_samples=10, **kwargs)


# --------------------------------------------------------------------- #
# one serialization: every verdict writes through Verdict.to_dict
# --------------------------------------------------------------------- #

CHECK_KEYS = {"model", "samples", "max_violation", "tolerance", "pass"}
SOLVE_KEYS = {"method", "iterations", "krylov_iterations", "final_residual", "tolerance",
              "converged", "theta", "residual_history"}
LINEAR_A = np.array([0.36, 0.48, 0.8])


def _linear_source():
    return source(ScalarField(lambda p: float(LINEAR_A @ p.coords)))


def _minimality_report():
    m = Sphere(2, 1.0)
    seg = m.geodesic_segment(m.point([0.0, 0.0, 1.0]), m.point([1.0, 0.0, 0.0]))
    v = seg.vector_at_start([0.0, 1.0])
    return index_minimality_check(seg, v, m.parallel_transport(seg.start, seg.end, v), 5, seed=1)


def _solve_report(operator):
    return solve_fixed_point(sum_of(operator, _linear_source()), build_grid(SPHERE, 3), tol=1e-8)


def _perron_result():
    grid = build_grid(SPHERE, 3)
    return perron_iterate(
        sum_of(scalar_term(1.0), neg_trace(), constant(-2.0)), grid,
        GridFunction.constant(grid, 0.0), GridFunction.constant(grid, 10.0), tol=1e-8,
    )


def _viscosity_report():
    grid = build_grid(SPHERE, 3)
    u = GridFunction(grid, grid.coords @ LINEAR_A / 3.0)  # solves u - lap u = a.x
    return verify_viscosity_residual(sum_of(scalar_term(1.0), neg_trace(), _linear_source()),
                                     grid, u)


def _check_keys(check=lambda r, d: True):
    return lambda r, d: set(d) >= CHECK_KEYS and check(r, d)


def _solved_by(method):
    # the history each method writes is test_solver's
    return lambda r, d: set(d) == SOLVE_KEYS and d["method"] == r.method == method


# id, the verdict's producer, and the row's own check of (verdict, dict)
VERDICTS = [
    ("ellipticity", lambda: ellipticity_check(neg_trace(), 100, seed=17), _check_keys()),
    ("ellipticity_witness", lambda: ellipticity_check(literal_neg_detplus(), 200, seed=3),
     _check_keys(lambda r, d: d["witness"]["A_eigs"] == r.extra["witness"]["A_eigs"])),
    ("monotonicity", lambda: monotonicity_estimate(neg_trace(), (-1.0, 1.0), 100, seed=4)[1],
     _check_keys(lambda r, d: d["gamma_hat"] == r.extra["gamma_hat"])),
    ("invariance", lambda: invariance_check(neg_trace(), SPHERE, 100, seed=5), _check_keys()),
    ("sign_condition",
     lambda: check_sign_condition(Sphere(2, 1.0), 50, seed=3, ell_range=(0.1, 2.0)),
     lambda r, d: d["model"] == r.model and "_violation" not in d["model"]
     and set(d) == CHECK_KEYS | {"max_value", "min_value"}),
    ("curvature_bound", lambda: check_curvature_bound(Hyperbolic(2, 1.0), 1.0, 50, seed=3),
     lambda r, d: set(d) == CHECK_KEYS | {"k0"} and d["k0"] == 1.0),
    ("index_minimality", _minimality_report,
     _check_keys(lambda r, d: d["parallel_margin"] is not None
                 and d["max_violation"] == max(0.0, -d["min_margin"]))),
    ("intrinsic_modulus",
     lambda: intrinsic_modulus_estimate(neg_trace(), SPHERE, n_samples=100, seed=18),
     lambda r, d: set(d) == {"bins", "values", "tolerance", "pass"}
     and d["values"] == r.values.tolist()),
    ("twoflat_modulus",
     lambda: twoflat_modulus_estimate(neg_trace(), SPHERE, n_samples=100, seed=19),
     lambda r, d: set(d) == {"deltas", "d_bins", "values", "tolerance", "pass"}
     and d["values"] == r.values.tolist()),
    ("solve_newton", lambda: _solve_report(neg_trace())[1], _solved_by("newton")),
    ("solve_sweep", lambda: _solve_report(neg_min_eigenvalue())[1], _solved_by("sweep")),
    ("perron", _perron_result,
     lambda r, d: d["newton_steps"] == r.newton_steps == 1 and d["sweeps"] == 2
     and d["converged"] is True),
    ("viscosity", _viscosity_report,
     lambda r, d: set(d) == {"max_sub_violation", "max_super_violation", "sub_witness",
                             "super_witness", "threshold", "pass"}),
]


@pytest.mark.parametrize("producer, check", [row[1:] for row in VERDICTS],
                         ids=[row[0] for row in VERDICTS])
def test_every_verdict_writes_one_json_shape(producer, check):
    obj = producer()
    d = obj.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert not {"passed", "name", "wall_time", "solution", "extra"} & set(d)
    if hasattr(obj, "passed"):
        assert d["pass"] is obj.passed
    for key, value in (getattr(obj, "extra", None) or {}).items():
        assert d[key] == value
    assert check(obj, d), d


# --------------------------------------------------------------------- #
# property tests over the catalog and random combinator trees
# --------------------------------------------------------------------- #

FIELD_SPECS = st.one_of(
    st.floats(-3.0, 3.0), st.sampled_from(["zero", "coord:0", "coord:1", "coord:2"])
)

LEAF_CONFIGS = st.one_of(
    st.sampled_from(
        [{"op": "neg_trace"}, {"op": "neg_detplus"}, {"op": "neg_min_eigenvalue"}]
    ),
    st.builds(lambda v: {"op": "const", "value": v}, st.floats(-3.0, 3.0)),
    st.builds(lambda c: {"op": "scalar_term", "coeff": c}, FIELD_SPECS),
    st.builds(lambda f: {"op": "source", "field": f}, FIELD_SPECS),
    st.builds(
        lambda f, g, p, q, r_exp, k: {
            "op": "example_5_3", "f": f, "g": g, "p": p, "q": q, "r_exp": r_exp, "k": k,
        },
        FIELD_SPECS, FIELD_SPECS, st.integers(0, 2), st.integers(0, 1),
        st.integers(0, 2), st.integers(0, 1),
    ),
    st.builds(
        lambda n, s, s_prime: {"op": "yamabe", "n": n, "S": s, "S_prime": s_prime},
        st.integers(3, 8), FIELD_SPECS, st.floats(-2.0, 1.0),
    ),
)


def _combinator(children):
    def weighted_sum(terms):
        weights = st.lists(
            st.floats(0.0, 3.0), min_size=len(terms), max_size=len(terms)
        )
        return weights.map(lambda w: {"op": "sum", "terms": terms, "weights": w})

    terms = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        terms.flatmap(weighted_sum),
        st.builds(lambda ts: {"op": "max", "terms": ts}, terms),
        st.builds(lambda ts: {"op": "min", "terms": ts}, terms),
    )


CONFIG_TREES = st.recursive(LEAF_CONFIGS, _combinator, max_leaves=6)


def _random_states(F, seed, count=16):
    """``count`` states on the unit sphere with r inside the operator domain."""
    rng = np.random.default_rng(seed)
    lo, hi = max(F.r_domain[0], -2.0), min(F.r_domain[1], 2.0)
    coords = np.array([SPHERE.random_point(rng).coords for _ in range(count)])
    rs = np.sort(rng.uniform(lo, hi, (count, 2)), axis=1)
    zs = rng.standard_normal((count, 2)) * 2.0
    raw = rng.standard_normal((count, 2, 2)) * 1.5
    amats = 0.5 * (raw + raw.transpose(0, 2, 1))
    w = rng.standard_normal((count, 2, 2))
    return coords, rs, zs, amats, amats + w @ w.transpose(0, 2, 1)


def _slack(u, v):
    return 1e-9 * (1.0 + np.abs(u) + np.abs(v))


def _check_structure(F, seed):
    coords, rs, zs, amats, bigger = _random_states(F, seed)
    ctx = F.make_context(coords)
    lower, upper = rs[:, 0], rs[:, 1]
    at_a = F.eval_batch(ctx, lower, zs, amats)
    # degenerate ellipticity: A <= B gives F(B) <= F(A); every builder and
    # combinator here keeps it
    assert F.degenerate_elliptic
    at_b = F.eval_batch(ctx, lower, zs, bigger)
    assert np.all(at_b <= at_a + _slack(at_a, at_b)), F.name
    if F.proper:
        # F(s) - F(r) >= gamma (s - r) for r <= s
        at_s = F.eval_batch(ctx, upper, zs, amats)
        assert np.all(
            at_s - at_a >= F.gamma * (upper - lower) - _slack(at_a, at_s)
        ), F.name
    rows = [F.point_eval(Point(c), r, z, a) for c, r, z, a in zip(coords, lower, zs, amats)]
    np.testing.assert_allclose(at_a, rows, rtol=1e-12, atol=1e-12, err_msg=F.name)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=LEAF_CONFIGS, seed=st.integers(0, 2**32 - 1))
# neither c(x) r with a sign-changing c nor r^2 at r < 0 is proper
@example(cfg={"op": "scalar_term", "coeff": "coord:2"}, seed=0)
@example(cfg={"op": "yamabe", "n": 6, "S": 1.0, "S_prime": -1.0}, seed=0)
def test_cataloged_builder_properties(cfg, seed):
    _check_structure(from_config(cfg), seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=CONFIG_TREES, outer=st.sampled_from([None, np.arctan, np.cbrt]),
       seed=st.integers(0, 2**32 - 1))
def test_combinator_tree_properties(cfg, outer, seed):
    F = from_config(cfg)
    _check_structure(F if outer is None else compose(outer, F), seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=CONFIG_TREES, outer=st.sampled_from([None, np.arctan]),
       seed=st.integers(0, 2**32 - 1))
def test_operators_take_read_only_proxy_views(cfg, outer, seed):
    # the solver hands every operator views into one read-only (N, 6) proxy
    # array [zeta_0, zeta_1, a00, a01, a01, a11]: non-contiguous zetas and amats
    F = from_config(cfg)
    F = F if outer is None else compose(outer, F)
    coords, rs, zs, amats, _ = _random_states(F, seed)
    proxies = np.concatenate([zs, amats.reshape(-1, 4)], axis=1)
    proxies.flags.writeable = False
    before = proxies.copy()
    zeta_view, amat_view = proxies[:, :2], proxies[:, 2:].reshape(-1, 2, 2)
    assert not amat_view.flags.c_contiguous and not amat_view.flags.writeable
    ctx = F.make_context(coords)
    on_views = F.eval_batch(ctx, rs[:, 0], zeta_view, amat_view)
    on_copies = F.eval_batch(ctx, rs[:, 0], zs.copy(), amats.copy())
    np.testing.assert_array_equal(on_views, on_copies, err_msg=F.name)
    np.testing.assert_array_equal(proxies, before)


def test_callable_field_gets_read_only_points_of_a_copy():
    coords = build_grid(Sphere(2, 1.0), 4).coords.copy()
    seen = []

    def fn(p):
        seen.append(p)
        return _user_fn(p)

    values = ScalarField(fn, "user").values(coords)
    assert values.tobytes() == np.array([_user_fn(Point(c)) for c in coords]).tobytes()
    assert len(seen) == len(coords)
    for p in (seen[0], seen[-1]):
        with pytest.raises(ValueError, match="read-only"):
            p.coords[0] = 7.0
    kept = seen[5].coords.copy()
    coords[5] = 9.0
    assert seen[5].coords.tobytes() == kept.tobytes()
    assert not any(np.shares_memory(p.coords, coords) for p in seen[:50])


# --------------------------------------------------------------------- #
# contexts from coordinate stacks against the per-point loop
# --------------------------------------------------------------------- #

def _user_fn(p):
    return float(np.sin(p.coords).sum())


_USER_FIELD = ScalarField(_user_fn, "user")
_CONTEXT_KEYS = {  # context key -> config key of each field-reading builder
    "scalar_term": {"coeff": "coeff"},
    "source": {"coeff": "field"},
    "example_5_3": {"f": "f", "g": "g"},
    "yamabe": {"s": "S"},
}


def _ref_field(spec, points):
    """A field's values as a loop over ``Point`` objects, one call per point."""
    if spec is _USER_FIELD:
        return np.array([_user_fn(p) for p in points])
    kind, _, arg = spec.partition(":") if isinstance(spec, str) else ("const", "", spec)
    if kind == "coord":
        return np.array([float(p.coords[int(arg)]) for p in points])
    c = 0.0 if kind == "zero" else float(arg)
    return np.array([c for _ in points], dtype=float)


def _ref_context(cfg, points):
    if cfg["op"] == "compose":
        return _ref_context(cfg["term"], points)
    if cfg["op"] in ("sum", "max", "min"):
        return {"children": [_ref_context(t, points) for t in cfg["terms"]]}
    keys = _CONTEXT_KEYS.get(cfg["op"], {})
    return {key: _ref_field(cfg[name], points) for key, name in keys.items()} or None


def _build(cfg):
    """``from_config`` with one more kind, ``compose`` (arctan of its term)."""
    if cfg["op"] == "compose":
        return compose(np.arctan, _build(cfg["term"]))
    if cfg["op"] in ("sum", "max", "min"):
        combine = {"sum": sum_of, "max": max_of, "min": min_of}[cfg["op"]]
        return combine(*[_build(t) for t in cfg["terms"]])
    return from_config(cfg)


def _context_trees(width):
    """Operator trees over every kind of field, coordinates below ``width``."""
    fields = st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0).map(lambda c: f"const:{c!r}"),
        st.just("zero"),
        st.integers(-width, width - 1).map(lambda i: f"coord:{i}"),
        st.just(_USER_FIELD),
    )
    leaves = st.one_of(
        st.just({"op": "neg_trace"}),
        st.builds(lambda c: {"op": "scalar_term", "coeff": c}, fields),
        st.builds(lambda f: {"op": "source", "field": f}, fields),
        st.builds(lambda f, g: {"op": "example_5_3", "f": f, "g": g}, fields, fields),
        st.builds(lambda s: {"op": "yamabe", "n": 3, "S": s, "S_prime": -1.0}, fields),
    )

    def branch(children):
        return st.one_of(
            st.builds(lambda op, ts: {"op": op, "terms": ts},
                      st.sampled_from(["sum", "max", "min"]),
                      st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda t: {"op": "compose", "term": t}, children),
        )

    return st.recursive(leaves, branch, max_leaves=6)


def _assert_same_context(got, ref):
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys()
        for key in ref:
            _assert_same_context(got[key], ref[key])
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_same_context(g, r)
    elif ref is None:
        assert got is None
    else:
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from([
        Sphere(2, 1.5), Hyperbolic(2, 2.0), Hyperbolic(3, 1.0), FlatTorus([1.0, 3.0]),
        Product([Sphere(2, 1.0), FlatTorus([2.0])]), Product([Euclidean(1), Hyperbolic(2, 1.0)]),
    ]),
    n=st.sampled_from([0, 1, 2, 7]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_array_context_is_the_per_point_loop(model, n, seed, data):
    rng = np.random.default_rng(seed)
    points = [model.random_point(rng) for _ in range(n)]
    width = model.random_point(rng).coords.size
    coords = np.array([p.coords for p in points]).reshape(n, width)
    cfg = data.draw(_context_trees(width))
    _assert_same_context(_build(cfg).make_context(coords), _ref_context(cfg, points))


# --------------------------------------------------------------------- #
# the sweeps against per-row oracles: the same blocks, the scalar methods
# --------------------------------------------------------------------- #

def _ref_random_sym(rng, n, scale=1.5):
    raw = rng.standard_normal((n, n)) * scale
    return 0.5 * (raw + raw.T)


def _ref_transport_state(m, x, y, z_comps, a_mat):
    zeta = m.tangent_from_frame(x, z_comps)
    moved_z = m.frame_components(y, m.parallel_transport(x, y, zeta))
    moved_a = m.parallel_transport_bilinear(x, y, m.bilinear(x, a_mat)).matrix
    return moved_z, moved_a


def _ref_gap(F, upper, lower):
    """``(gaps, scale)``: F(upper) - F(lower) per sample of two lists of
    states (x, r, zeta, A), and the larger |F| of the two sides."""
    points, rs, zetas, amats = zip(*upper, *lower)
    coords = np.array([p.coords for p in points])
    vals = F.eval_batch(F.make_context(coords), np.array(rs), np.array(zetas), np.array(amats))
    up, low = vals[: len(upper)], vals[len(upper):]
    return up - low, np.maximum(np.abs(up), np.abs(low))


def _reference_sweeps(F, m, n_samples, seed):
    """Per-sample ``(gaps, scale, points)`` of each sweep: its blocks, each
    sample's row drawn by the one-sample methods and transported one sample
    at a time; monotonicity also has its steps."""
    n, out = m.dim, {}
    top = min(1.0, 0.9 * m.injectivity_radius())
    state = [("uniform", -2.0, 2.0), ("normal", n), ("normal", (n, n))]
    pair = [("normal", m.ambient_dim), ("uniform", min(1e-3, top), top)]

    upper, lower = [], []
    for rng in replays(m, np.random.default_rng(seed), n_samples, *state, ("normal", (n, n)),
                       ("uniform", 0.1, 1.0)):
        x = m.random_point(rng)
        r = rng.uniform(-2.0, 2.0)
        z = rng.standard_normal(n) * 2.0
        a = _ref_random_sym(rng, n)
        w = rng.standard_normal((n, n)) * rng.uniform(0.1, 1.0)
        upper.append((x, r, z, a + w @ w.T))
        lower.append((x, r, z, a))
    out["ellipticity"] = (*_ref_gap(F, upper, lower), [s[0] for s in lower])

    upper, lower, steps = [], [], []
    for rng in replays(m, np.random.default_rng(seed), n_samples,
                       ("uniform", (-2.0, -2.0), 2.0), *state[1:]):
        x = m.random_point(rng)
        r, s = sorted(rng.uniform(-2.0, 2.0, size=2))
        z = rng.standard_normal(n) * 2.0
        a = _ref_random_sym(rng, n)
        if r == s:
            continue
        upper.append((x, s, z, a))
        lower.append((x, r, z, a))
        steps.append(s - r)
    out["monotonicity"] = (*_ref_gap(F, upper, lower), [s[0] for s in lower])
    out["steps"] = np.array(steps)

    if not F.x_dependent:
        moved, still = [], []
        for rng in replays(m, np.random.default_rng(seed), n_samples, *pair, *state):
            x, y, _ = m.random_pair(rng, min(1e-3, top), top)
            r = rng.uniform(-2.0, 2.0)
            z = rng.standard_normal(n) * 2.0
            a = _ref_random_sym(rng, n)
            moved.append((y, r, *_ref_transport_state(m, x, y, z, a)))
            still.append((x, r, z, a))
        out["invariance"] = (*_ref_gap(F, moved, still), [s[0] for s in moved + still])

    bins = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
    ys, xs = [], []
    stacks = m.draw_samples(np.random.default_rng(seed), n_samples, pair[0], ("uniform", 0.0, 1.0),
                            *state)
    for trial, row in enumerate(rows_of(stacks)):
        idx = trial % len(bins)
        lo_edge = 0.0 if idx == 0 else float(bins[idx - 1])
        edge = min(float(bins[idx]), 0.9 * m.injectivity_radius())
        # the unit uniform, mapped to the bin's range as numpy maps a uniform
        at = 2 * m.ambient_dim
        row[at] = min(lo_edge, edge) + (edge - min(lo_edge, edge)) * row[at]
        rng = Replay(row)
        x, y, _ = m.random_pair(rng, min(lo_edge, edge), edge)
        r = rng.uniform(-2.0, 2.0)
        eta = rng.standard_normal(n) * 2.0
        q = _ref_random_sym(rng, n)
        ys.append((y, r, eta, q))
        xs.append((x, r, *_ref_transport_state(m, y, x, eta, q)))
    out["intrinsic"] = (*_ref_gap(F, ys, xs), [s[0] for s in ys + xs])

    deltas = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1)
    ys, xs = [], []
    draws = replays(m, np.random.default_rng(seed), n_samples, *pair, *state, ("normal", (n, n)),
                    ("uniform", 0.2, 1.0))
    for trial, rng in enumerate(draws):
        delta = deltas[trial % len(deltas)]
        x, y, _ = m.random_pair(rng, min(1e-3, top), top)
        r = rng.uniform(-2.0, 2.0)
        z = rng.standard_normal(n) * 2.0
        q = _ref_random_sym(rng, n)
        _, back_q = _ref_transport_state(m, y, x, np.zeros(n), q)
        bump = _ref_random_sym(rng, n, scale=1.0)
        bump -= (np.max(np.linalg.eigvalsh(bump)) - delta * rng.uniform(0.2, 1.0)) * np.eye(n)
        moved_z, _ = _ref_transport_state(m, x, y, z, np.zeros((n, n)))
        ys.append((y, r, moved_z, q))
        xs.append((x, r, z, back_q + bump))
    out["twoflat"] = (*_ref_gap(F, ys, xs), [s[0] for s in ys + xs])
    return out


def _sweep_gaps(sweep, *args, **kwargs):
    """The per-sample gaps the one ``_gap`` call of a sweep returns, and the
    sweep's own result."""
    seen = []
    real = operators._gap

    def recording(F, upper, lower):
        seen.append(real(F, upper, lower))
        return seen[-1]

    with mock.patch.object(operators, "_gap", recording):
        result = sweep(*args, **kwargs)
    (gaps,) = seen
    return gaps, result


def _conditioning(m, points) -> np.ndarray:
    """(K0 |x|^2)^2 per point, the worst hyperbolic factor's (1 without one):
    on the hyperboloid a frame's Minkowski products lose K0 |x|^2 squared."""
    return np.array([max(
        (f.k0 * float(p.coords[s] @ p.coords[s]) for f, s in _space_forms(m)
         if isinstance(f, Hyperbolic)),
        default=1.0,
    ) ** 2 for p in points])


def _pair_conditioning(m, points):
    """``_conditioning`` of both points of each sample of a two-sided list."""
    cond = _conditioning(m, points)
    return np.maximum(*np.split(cond, 2))


_SPACE_FORMS = st.one_of(
    st.builds(Sphere, st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 0.7, 2.5])),
    st.builds(Hyperbolic, st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 0.5, 2.5])),
    st.builds(Euclidean, st.sampled_from([1, 2, 3])),
    st.builds(FlatTorus, st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=1, max_size=3)),
)
SWEEP_MODELS = st.one_of(
    _SPACE_FORMS, st.lists(_SPACE_FORMS, min_size=2, max_size=2).map(Product)
)

_X_TRACE = OperatorSpec(
    # x-dependent and not elliptic, so its ellipticity gaps are not all <= 0
    "x_trace",
    lambda ctx, rs, zs, As: ctx * (np.einsum("nii->n", As) + rs),
    x_dependent=True,
    context_builder=lambda coords: 1.0 + coords[:, 0],
)
SWEPT_OPERATORS = [
    neg_detplus(),
    neg_min_eigenvalue(),
    OperatorSpec("tr+r|z|", lambda ctx, rs, zs, As: np.einsum("nii->n", As)
                 + rs * np.linalg.norm(zs, axis=1)),
    sum_of(scalar_term("coord:0"), neg_trace()),
    example_5_3("coord:0", 0.5),
    _X_TRACE,
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=SWEEP_MODELS,
    F=st.sampled_from(SWEPT_OPERATORS),
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 12),
)
def test_sweeps_match_the_per_row_oracle(model, F, seed, n_samples):
    ref = _reference_sweeps(F, model, n_samples, seed)

    # the pairs: random_pair's generator calls, mapped as stacks, bit for bit
    rng = np.random.default_rng(seed)
    pairs = [model.random_pair(rng, 0.05, 0.8) for _ in range(n_samples)]
    rng = np.random.default_rng(seed)
    draws = [(model.draw_point(rng), model.draw_tangent(rng), rng.uniform(0.05, 0.8))
             for _ in range(n_samples)]
    xs, ys = model.pairs_from_draws(*(np.array(col) for col in zip(*draws)))
    assert np.array_equal(xs, [x.coords for x, _, _ in pairs])
    assert np.array_equal(ys, [y.coords for _, y, _ in pairs])

    # ellipticity and monotonicity move nothing: bit for bit
    gaps, report = _sweep_gaps(ellipticity_check, F, n_samples, model=model, seed=seed)
    assert np.array_equal(gaps, ref["ellipticity"][0])
    assert report.max_violation == float(np.max(ref["ellipticity"][0], initial=0.0))
    if len(ref["steps"]):
        gaps, (gamma_hat, _) = _sweep_gaps(
            monotonicity_estimate, F, (-2.0, 2.0), n_samples, model=model, seed=seed
        )
        assert np.array_equal(gaps, ref["monotonicity"][0])
        assert gamma_hat == float(np.min(ref["monotonicity"][0] / ref["steps"]))

    # the transported sweeps: one transport matrix per pair, equal to roundoff
    swept = {
        "intrinsic": (intrinsic_modulus_estimate, F, model),
        "twoflat": (twoflat_modulus_estimate, F, model),
    }
    if not F.x_dependent:
        swept["invariance"] = (invariance_check, F, model)
    for name, (sweep, *args) in swept.items():
        gaps, _ = _sweep_gaps(sweep, *args, n_samples=n_samples, seed=seed)
        ref_gaps, scale, points = ref[name]
        tol = 1e-12 * (1.0 + scale) * _pair_conditioning(model, points)
        assert np.all(np.abs(gaps - ref_gaps) <= tol), (name, np.max(np.abs(gaps - ref_gaps) / tol))


def _sweep_states(sweep, *args, **kwargs):
    """The two sides (upper, lower) of state stacks a sweep hands to ``_gap``."""
    seen = []
    real = operators._gap

    def recording(F, upper, lower):
        seen.append((upper, lower))
        return real(F, upper, lower)

    with mock.patch.object(operators, "_gap", recording):
        sweep(*args, **kwargs)
    (sides,) = seen
    return sides


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(model=SWEEP_MODELS, seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 12))
def test_sweeps_draw_the_per_row_oracles_points_bit_for_bit(model, seed, n_samples):
    # the block draws and the stacked maps give every sweep the oracle's points,
    # bit for bit (their states then move by transport, equal to roundoff)
    F = neg_trace()
    ref = _reference_sweeps(F, model, n_samples, seed)
    sweeps = {
        "ellipticity": (ellipticity_check, F, n_samples, model),
        "monotonicity": (monotonicity_estimate, F, (-2.0, 2.0), n_samples, model),
        "invariance": (invariance_check, F, model, n_samples),
        "intrinsic": (intrinsic_modulus_estimate, F, model, (0.01, 0.05, 0.1, 0.2, 0.5, 1.0),
                      n_samples),
        "twoflat": (twoflat_modulus_estimate, F, model, (1e-8, 1e-6, 1e-4, 1e-2, 1e-1),
                    (0.05, 0.2, 0.5, 1.0), n_samples),
    }
    for name, (sweep, *args) in sweeps.items():
        upper, lower = _sweep_states(sweep, *args, seed=seed)
        got = lower[0] if name in ("ellipticity", "monotonicity") else np.concatenate(
            [upper[0], lower[0]])
        assert got.tobytes() == np.array([p.coords for p in ref[name][2]]).tobytes(), name


def _recorded(sweep, rig, *args, **kwargs):
    """``(generator, (upper, lower))``: the ``Recording`` generator a sweep
    drew from, rigged by ``rig``, and the states it handed to ``_gap``."""
    recordings = Recordings(rig)
    with mock.patch.object(np.random, "default_rng", recordings):
        sides = _sweep_states(sweep, *args, **kwargs)
    (rng,) = recordings.made
    return rng, sides


_RIGGED_TIES = np.isin(np.arange(40), [0, 7, 39])[:, None]


@pytest.mark.parametrize("seed, r_range, rig", [
    # an r range two ulps wide: about a third of the rows draw r == s
    *[(seed, (1.0, 1.0 + 4.5e-16), {}) for seed in (0, 1, 2)],
    # rows 0, 7 and 39 rigged to draw r == s
    (5, (-2.0, 2.0), {1: lambda out, _: np.where(_RIGGED_TIES, out[:, :1], out)}),
], ids=["two-ulp-0", "two-ulp-1", "two-ulp-2", "rigged"])
def test_monotonicity_drops_tied_rows(seed, r_range, rig):
    m, n = Sphere(2, 1.0), 40
    rng, (upper, lower) = _recorded(monotonicity_estimate, rig, neg_trace(), r_range, n,
                                    model=m, seed=seed)
    assert [name for name, _ in rng.calls] == [
        "standard_normal", "uniform", "standard_normal", "standard_normal"]
    raw_x, pairs, zs, raw_a = rng.outputs
    rs, ss = np.sort(pairs, axis=1).T
    kept = rs != ss
    assert 0 < kept.sum() < n - 2
    if rig:
        assert np.flatnonzero(~kept).tolist() == [0, 7, 39]
    # the kept rows, every draw of theirs as the blocks drew it
    assert lower[0].tobytes() == m.points_from_draws(raw_x[kept]).tobytes()
    assert lower[1].tobytes() == rs[kept].tobytes() and upper[1].tobytes() == ss[kept].tobytes()
    assert lower[2].tobytes() == (zs[kept] * 2.0).tobytes()
    assert lower[3].tobytes() == operators._symmetric(raw_a[kept]).tobytes()


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_operator_sweeps_make_a_fixed_number_of_generator_calls(n):
    # one call per plan entry, the point's included, whatever n is
    m, F = Product([Sphere(2, 1.0), FlatTorus([1.0, 2.0])]), neg_trace()
    point = len(m.point_plan)
    sweeps = {
        ellipticity_check: ((F, n, m), 5),
        monotonicity_estimate: ((F, (-2.0, 2.0), n, m), 3),
        invariance_check: ((F, m, n), 5),
        intrinsic_modulus_estimate: ((F, m, (0.01, 0.1, 1.0), n), 5),
        twoflat_modulus_estimate: ((F, m, (1e-8, 1e-2), (0.05, 1.0), n), 7),
    }
    for sweep, (args, entries) in sweeps.items():
        rng, _ = _recorded(sweep, {}, *args, seed=3)
        assert len(rng.calls) == point + entries, sweep.__name__
        assert all(shape[0] == n for _, shape in rng.calls), sweep.__name__
