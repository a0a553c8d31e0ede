"""Operator catalog: evaluation, flags, and structural sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemvisc import Euclidean, Sphere
from riemvisc.errors import PreconditionError
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


def test_yamabe_rejects_small_dimension_and_negative_r():
    with pytest.raises(ValueError):
        yamabe(2, 1.0, 0.0)
    F5 = yamabe(5, 1.0, -1.0)  # exponent 7/3 is not an integer
    ctx = F5.make_context([NORTH])
    for r in (-0.5, math.nan):
        with pytest.raises(PreconditionError):
            F5.point_eval(NORTH, r, np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(PreconditionError):
            F5.eval_batch(ctx, np.array([r]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    F3 = yamabe(3, 1.0, -1.0)  # exponent 5: negative r is fine
    F3.point_eval(NORTH, -0.5, np.zeros(2), np.zeros((2, 2)))


def test_scalar_field_parsing():
    assert ScalarField.parse("const:6").values([NORTH]) == [6.0]
    assert ScalarField.parse(2.5).values([NORTH]) == [2.5]
    assert ScalarField.parse("coord:2").values([NORTH]) == [1.0]
    assert ScalarField.parse("zero").values([NORTH]) == [0.0]
    with pytest.raises(ValueError):
        ScalarField.parse("nope")


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


def test_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    pts = [SPHERE.random_point(rng) for _ in range(40)]
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
        ctx = F.make_context(pts)
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


def test_report_serialization():
    report = ellipticity_check(neg_trace(), 100, seed=17)
    d = report.to_dict()
    assert set(d) >= {"model", "samples", "max_violation", "tolerance", "pass"}
    table = intrinsic_modulus_estimate(neg_trace(), SPHERE, n_samples=100, seed=18)
    assert "values" in table.to_dict()


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
    points = [SPHERE.random_point(rng) for _ in range(count)]
    rs = np.sort(rng.uniform(lo, hi, (count, 2)), axis=1)
    zs = rng.standard_normal((count, 2)) * 2.0
    raw = rng.standard_normal((count, 2, 2)) * 1.5
    amats = 0.5 * (raw + raw.transpose(0, 2, 1))
    w = rng.standard_normal((count, 2, 2))
    return points, rs, zs, amats, amats + w @ w.transpose(0, 2, 1)


def _slack(u, v):
    return 1e-9 * (1.0 + np.abs(u) + np.abs(v))


def _check_structure(F, seed):
    points, rs, zs, amats, bigger = _random_states(F, seed)
    ctx = F.make_context(points)
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
    rows = [F.point_eval(p, r, z, a) for p, r, z, a in zip(points, lower, zs, amats)]
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
