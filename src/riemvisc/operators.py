"""Catalog of degenerate elliptic operators F(x, r, zeta, A) with checks.

Operators evaluate N states at once on frame components: ``zeta`` as an
n-vector and ``A`` as a symmetric n x n matrix in the canonical frame of
each base point, stacked along a leading axis.  Structural claims
(degenerate ellipticity, properness, the strong monotonicity constant
gamma, translation invariance, continuity moduli) are declared flags; the
``*_check`` and ``*_estimate`` sweeps in this module probe them
empirically, with one batch evaluation per sweep.  Estimated moduli are never certificates;
pass thresholds belong to the test configuration, not the library.

Note on the positive determinant: ``detplus`` is the literal product of
the nonnegative eigenvalues (empty product = 1).  That function is not
monotone in the semidefinite order, so the shipped ``neg_detplus``
operator is built on ``detplus_pospart`` (the product of eigenvalue
positive parts), which is monotone and keeps the operator genuinely
degenerate elliptic.  See README for the full discussion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .manifolds import Euclidean, Manifold, Point, SymBilinear, TangentVector

_NEG_INF = -math.inf
_POS_INF = math.inf


# --------------------------------------------------------------------- #
# scalar coefficient fields
# --------------------------------------------------------------------- #

class ScalarField:
    """A scalar coefficient on the manifold, evaluated over a list of points."""

    def __init__(self, fn: Callable[[Point], float], name: str = "field",
                 constant_value: float | None = None, minimum: float | None = None):
        self._fn = fn
        self.name = name
        self.constant_value = constant_value
        self.minimum = minimum if minimum is not None else constant_value

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        c = float(c)
        return cls(lambda p: c, f"const:{c}", constant_value=c)

    @classmethod
    def coordinate(cls, axis: int) -> "ScalarField":
        return cls(lambda p: float(p.coords[axis]), f"coord:{axis}")

    @classmethod
    def parse(cls, spec) -> "ScalarField":
        """Accepts a number, 'const:<c>', 'coord:<i>', 'zero', or a ScalarField."""
        if isinstance(spec, ScalarField):
            return spec
        if isinstance(spec, (int, float)):
            return cls.constant(float(spec))
        if isinstance(spec, str):
            if spec == "zero":
                return cls.constant(0.0)
            kind, _, arg = spec.partition(":")
            if kind == "const":
                return cls.constant(float(arg))
            if kind == "coord":
                return cls.coordinate(int(arg))
        raise ValueError(f"cannot parse scalar field spec {spec!r}")

    def values(self, points: Sequence[Point]) -> np.ndarray:
        if self.constant_value is not None:
            return np.full(len(points), self.constant_value)
        return np.array([self._fn(p) for p in points])


# --------------------------------------------------------------------- #
# operator type
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class OperatorSpec:
    """An evaluable F(x, r, zeta, A) with declared structural flags.

    ``batch(ctx, rs, zetas, amats)`` evaluates F on N states at once: ``rs``
    has shape (N,), ``zetas`` (N, n) and ``amats`` (N, n, n), in the frames
    of the N points that ``context_builder(points)`` turned into ``ctx``
    (per-point coefficient arrays; ``None`` without a builder).
    """

    name: str
    batch: Callable[..., np.ndarray] = field(repr=False)
    degenerate_elliptic: bool = False
    proper: bool = False
    gamma: float = 0.0
    x_dependent: bool = False
    r_domain: tuple[float, float] = (_NEG_INF, _POS_INF)
    modulus_note: str | None = None
    context_builder: Callable | None = field(default=None, repr=False)

    def point_eval(self, x: Point, r: float, zeta: np.ndarray, a: np.ndarray) -> float:
        """F at one state: a one-row :meth:`eval_batch`."""
        vals = self.eval_batch(
            self.make_context([x]), np.array([r], float),
            np.asarray(zeta, float)[None], np.asarray(a, float)[None],
        )
        return float(vals[0])

    def make_context(self, points: Sequence[Point]):
        return None if self.context_builder is None else self.context_builder(points)

    def eval_batch(self, ctx, rs: np.ndarray, zetas: np.ndarray, amats: np.ndarray) -> np.ndarray:
        lo, hi = self.r_domain
        # written so that a NaN r fails the check
        if not (lo <= rs.min() and rs.max() <= hi):
            raise PreconditionError(f"{self.name}: r values escape [{lo}, {hi}]")
        return self.batch(ctx, rs, zetas, amats)


def evaluate(
    F: OperatorSpec, m: Manifold, x: Point, r: float, zeta: TangentVector, a: SymBilinear
) -> float:
    """Evaluate F on tangent-space objects, checking base points."""
    m._check_based(x, zeta)
    m._check_based(x, a)
    return F.point_eval(x, r, m.frame_components(x, zeta), a.matrix)


# --------------------------------------------------------------------- #
# matrix functions
# --------------------------------------------------------------------- #

def detplus(a) -> float:
    """Product of the nonnegative eigenvalues; empty product is 1.

    This is the literal convention (chosen for multiplicativity); it is
    *not* monotone in the semidefinite order, see module docstring.
    """
    mat = a.matrix if isinstance(a, SymBilinear) else np.asarray(a, float)
    eig = np.linalg.eigvalsh(mat)
    keep = eig[eig >= 0.0]
    return float(np.prod(keep)) if keep.size else 1.0


def detplus_pospart(a):
    """Product of the eigenvalue positive parts max(lambda, 0); monotone.

    Takes one symmetric matrix or a stack of them (the last two axes).
    """
    mat = a.matrix if isinstance(a, SymBilinear) else np.asarray(a, float)
    return np.prod(np.maximum(np.linalg.eigvalsh(mat), 0.0), axis=-1)


def _trace(As):
    return np.einsum("nii->n", As)


# --------------------------------------------------------------------- #
# builders
# --------------------------------------------------------------------- #

def neg_trace() -> OperatorSpec:
    """F = -trace(A): degenerate elliptic and translation invariant."""
    return OperatorSpec(
        "neg_trace",
        lambda ctx, rs, zs, As: -_trace(As),
        degenerate_elliptic=True,
        proper=True,
    )


def neg_detplus() -> OperatorSpec:
    """F = -detplus_pospart(A); the monotone positive-part product."""
    return OperatorSpec(
        "neg_detplus",
        lambda ctx, rs, zs, As: -detplus_pospart(As),
        degenerate_elliptic=True,
        proper=True,
    )


def neg_min_eigenvalue() -> OperatorSpec:
    return OperatorSpec(
        "neg_min_eigenvalue",
        lambda ctx, rs, zs, As: -np.linalg.eigvalsh(As)[:, 0],
        degenerate_elliptic=True,
        proper=True,
    )


def constant(c: float) -> OperatorSpec:
    c = float(c)
    return OperatorSpec(
        f"const({c})",
        lambda ctx, rs, zs, As: np.full(rs.shape, c),
        degenerate_elliptic=True,
        proper=True,
    )


def _field_context(**fields):
    def context_builder(points):
        return {key: fld.values(points) for key, fld in fields.items()}

    return context_builder


def scalar_term(coeff=1.0) -> OperatorSpec:
    """F = c(x) r; proper (with gamma = min c) when the coefficient is >= 0."""
    fld = ScalarField.parse(coeff)
    proper = fld.minimum is not None and fld.minimum >= 0.0
    return OperatorSpec(
        f"scalar_term({fld.name})",
        lambda ctx, rs, zs, As: ctx["coeff"] * rs,
        degenerate_elliptic=True,
        proper=proper,
        gamma=fld.minimum if proper else 0.0,
        x_dependent=fld.constant_value is None,
        context_builder=_field_context(coeff=fld),
    )


def source(fld) -> OperatorSpec:
    """F = -f(x): a source term for equations of the form u + G = f + ..."""
    fld = ScalarField.parse(fld)
    return OperatorSpec(
        f"source({fld.name})",
        lambda ctx, rs, zs, As: -ctx["coeff"],
        degenerate_elliptic=True,
        proper=True,
        x_dependent=fld.constant_value is None,
        context_builder=_field_context(coeff=fld),
    )


def _combined(ops, reduce_fn):
    """``(batch, context_builder)`` of an operator reducing ``ops`` pointwise."""
    def batch(ctx, rs, zs, As):
        vals = [
            op.eval_batch(c, rs, zs, As) for op, c in zip(ops, ctx["children"])
        ]
        return reduce_fn(np.stack(vals))

    def context_builder(points):
        return {"children": [op.make_context(points) for op in ops]}

    return batch, context_builder


def _joint_flags(ops) -> dict:
    return dict(
        degenerate_elliptic=all(op.degenerate_elliptic for op in ops),
        proper=all(op.proper for op in ops),
        x_dependent=any(op.x_dependent for op in ops),
        r_domain=(
            max(op.r_domain[0] for op in ops),
            min(op.r_domain[1] for op in ops),
        ),
    )


def sum_of(*ops: OperatorSpec, weights: Sequence[float] | None = None) -> OperatorSpec:
    """Weighted (nonnegative weights) sum of operators."""
    w = np.ones(len(ops)) if weights is None else np.asarray(weights, float)
    if w.shape != (len(ops),) or not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("sum combinator needs one finite nonnegative weight per term")
    name = "+".join(op.name for op in ops)
    batch, context_builder = _combined(ops, lambda v: np.einsum("k,kn->n", w, v))
    return OperatorSpec(
        f"sum({name})",
        batch,
        gamma=float(np.dot(w, [op.gamma for op in ops])),
        context_builder=context_builder,
        **_joint_flags(ops),
    )


def _minmax_of(kind, ops):
    reduce_fn = (lambda v: v.max(axis=0)) if kind == "max" else (lambda v: v.min(axis=0))
    name = ",".join(op.name for op in ops)
    batch, context_builder = _combined(ops, reduce_fn)
    return OperatorSpec(
        f"{kind}({name})",
        batch,
        gamma=float(min(op.gamma for op in ops)),
        context_builder=context_builder,
        **_joint_flags(ops),
    )


def max_of(*ops: OperatorSpec) -> OperatorSpec:
    return _minmax_of("max", ops)


def min_of(*ops: OperatorSpec) -> OperatorSpec:
    return _minmax_of("min", ops)


def compose(outer: Callable[[np.ndarray], np.ndarray], op: OperatorSpec,
            nondecreasing: bool = True, name: str | None = None) -> OperatorSpec:
    """outer(F(...)), with ``outer`` applied elementwise to the array of values;
    flags survive only for nondecreasing outer maps."""
    keep = bool(nondecreasing)
    return OperatorSpec(
        name or f"compose({op.name})",
        lambda ctx, rs, zs, As: outer(op.eval_batch(ctx, rs, zs, As)),
        degenerate_elliptic=op.degenerate_elliptic and keep,
        proper=op.proper and keep,
        x_dependent=op.x_dependent,
        r_domain=op.r_domain,
        context_builder=op.context_builder,
    )


def example_5_3(f, g, p: int = 1, q: int = 0, r_exp: int = 1, k: int = 0) -> OperatorSpec:
    """max{r - lmin(A)|z|^p - (tr A)^(2q+1)|z|^r - detplus_pospart(A)^(2k+1) f(x)^2, r - g(x)}.

    A strongly monotone, degenerate elliptic, eigenvalue-built operator;
    finite for continuous f, g on compact models.
    """
    f = ScalarField.parse(f)
    g = ScalarField.parse(g)

    def batch(ctx, rs, zs, As):
        nz = np.linalg.norm(zs, axis=1)
        first = (
            rs
            - np.linalg.eigvalsh(As)[:, 0] * nz**p
            - _trace(As) ** (2 * q + 1) * nz**r_exp
            - detplus_pospart(As) ** (2 * k + 1) * ctx["f"] ** 2
        )
        return np.maximum(first, rs - ctx["g"])

    return OperatorSpec(
        "example_5_3",
        batch,
        degenerate_elliptic=True,
        proper=True,
        gamma=1.0,
        x_dependent=True,
        context_builder=_field_context(f=f, g=g),
    )


def yamabe(n: int, s_field, s_prime: float) -> OperatorSpec:
    """Conformal scalar-curvature operator S(x) r - S' r^((n+2)/(n-2)) - c_n tr(A).

    ``c_n = 4 (n - 1)/(n - 2)``.  For everywhere positive S and S' <= 0
    the operator is strongly monotone on r >= 0 with gamma = min S.  Unless
    the exponent is an odd integer (n = 3, 4), negative r is outside the
    domain: r^exponent is not monotone or not real there.
    """
    if n < 3:
        raise ValueError("the conformal exponent needs n >= 3")
    s_field = ScalarField.parse(s_field)
    s_prime = float(s_prime)
    coeff = 4.0 * (n - 1) / (n - 2)
    exponent = (n + 2) / (n - 2)
    integer_exp = abs(exponent - round(exponent)) < 1e-12
    if integer_exp:
        exponent = int(round(exponent))
    odd_exp = integer_exp and exponent % 2 == 1
    r_domain = (_NEG_INF, _POS_INF) if odd_exp else (0.0, _POS_INF)
    smin = s_field.minimum
    gamma = max(smin, 0.0) if (smin is not None and s_prime <= 0.0) else 0.0

    def batch(ctx, rs, zs, As):
        return ctx["s"] * rs - s_prime * rs**exponent - coeff * _trace(As)

    return OperatorSpec(
        f"yamabe(n={n},S={s_field.name},S'={s_prime})",
        batch,
        degenerate_elliptic=True,
        proper=smin is not None and smin >= 0.0 and s_prime <= 0.0,
        gamma=gamma,
        x_dependent=s_field.constant_value is None,
        r_domain=r_domain,
        context_builder=_field_context(s=s_field),
    )


def from_config(cfg: dict) -> OperatorSpec:
    """Build a cataloged operator from a JSON description.

    Examples: ``{"op": "neg_trace"}``, ``{"op": "yamabe", "n": 3,
    "S": "const:6", "S_prime": -1}``, ``{"op": "sum", "terms": [...]}``,
    ``{"op": "source", "field": "coord:2"}``.
    """
    kind = cfg["op"]
    if kind == "neg_trace":
        return neg_trace()
    if kind == "neg_detplus":
        return neg_detplus()
    if kind == "neg_min_eigenvalue":
        return neg_min_eigenvalue()
    if kind == "const":
        return constant(cfg["value"])
    if kind == "scalar_term":
        return scalar_term(cfg.get("coeff", 1.0))
    if kind == "source":
        return source(cfg["field"])
    if kind == "sum":
        return sum_of(*[from_config(t) for t in cfg["terms"]],
                      weights=cfg.get("weights"))
    if kind == "max":
        return max_of(*[from_config(t) for t in cfg["terms"]])
    if kind == "min":
        return min_of(*[from_config(t) for t in cfg["terms"]])
    if kind == "example_5_3":
        return example_5_3(cfg.get("f", 0.0), cfg.get("g", 0.0),
                           p=cfg.get("p", 1), q=cfg.get("q", 0),
                           r_exp=cfg.get("r_exp", 1), k=cfg.get("k", 0))
    if kind == "yamabe":
        return yamabe(int(cfg["n"]), cfg["S"], float(cfg["S_prime"]))
    raise ValueError(f"unknown operator kind {kind!r}")


# --------------------------------------------------------------------- #
# structural checks
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class CheckReport:
    name: str
    model: dict
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    extra: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "model": self.model,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.extra:
            out.update(self.extra)
        return out


def _default_model(model):
    return model if model is not None else Euclidean(2)


def _clip_r_range(F, r_range):
    lo = max(r_range[0], F.r_domain[0])
    hi = min(r_range[1], F.r_domain[1])
    if not lo < hi:
        raise PreconditionError("r_range does not intersect the operator domain")
    return lo, hi


def _random_sym(rng, n, scale=1.5):
    raw = rng.standard_normal((n, n)) * scale
    return 0.5 * (raw + raw.T)


def _gap(F: OperatorSpec, upper, lower) -> np.ndarray:
    """F(upper) - F(lower) per sample; each side lists states (x, r, zeta, A).

    Both sides go through one context and one batch call.
    """
    if not upper:
        raise PreconditionError("a structural sweep needs at least one sample")
    points, rs, zetas, amats = zip(*upper, *lower)
    vals = F.eval_batch(
        F.make_context(points), np.array(rs), np.array(zetas), np.array(amats)
    )
    return vals[: len(upper)] - vals[len(upper):]


def ellipticity_check(
    F: OperatorSpec,
    n_samples: int = 10_000,
    model: Manifold | None = None,
    r_range: tuple[float, float] = (-2.0, 2.0),
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Sample A <= B = A + psd and report max F(..., B) - F(..., A)."""
    m = _default_model(model)
    lo, hi = _clip_r_range(F, r_range)
    rng = np.random.default_rng(seed)
    n = m.dim
    upper, lower = [], []
    for _ in range(n_samples):
        x = m.random_point(rng)
        r = rng.uniform(lo, hi)
        z = rng.standard_normal(n) * 2.0
        a = _random_sym(rng, n)
        w = rng.standard_normal((n, n)) * rng.uniform(0.1, 1.0)
        upper.append((x, r, z, a + w @ w.T))
        lower.append((x, r, z, a))
    gaps = _gap(F, upper, lower)
    worst = float(np.max(gaps, initial=0.0))  # NaN if any gap is NaN
    passed = worst <= tolerance
    extra = None
    if not passed:
        # the first sample attaining the maximum, or the first NaN
        _, r, _, a = lower[int(np.argmax(gaps))]
        extra = {"witness": {"r": r, "A_eigs": np.linalg.eigvalsh(a).tolist()}}
    return CheckReport(
        f"ellipticity:{F.name}", m.config(), n_samples, worst, tolerance, passed, extra
    )


def monotonicity_estimate(
    F: OperatorSpec,
    r_range: tuple[float, float],
    n_samples: int = 2000,
    model: Manifold | None = None,
    seed: int = 0,
) -> tuple[float, CheckReport]:
    """gamma-hat: min difference quotient of F in r over sampled states."""
    m = _default_model(model)
    lo, hi = _clip_r_range(F, r_range)
    rng = np.random.default_rng(seed)
    n = m.dim
    upper, lower, steps = [], [], []
    for _ in range(n_samples):
        x = m.random_point(rng)
        r, s = sorted(rng.uniform(lo, hi, size=2))
        if r == s:
            continue
        z = rng.standard_normal(n) * 2.0
        a = _random_sym(rng, n)
        upper.append((x, s, z, a))
        lower.append((x, r, z, a))
        steps.append(s - r)
    gamma_hat = float(np.min(_gap(F, upper, lower) / np.array(steps), initial=math.inf))
    report = CheckReport(
        f"monotonicity:{F.name}", m.config(), n_samples, 0.0, 0.0, True,
        {"gamma_hat": gamma_hat, "r_range": [lo, hi]},
    )
    return gamma_hat, report


def _transport_state(m, x, y, z_comps, a_mat):
    zeta = m.tangent_from_frame(x, z_comps)
    moved_z = m.frame_components(y, m.parallel_transport(x, y, zeta))
    moved_a = m.parallel_transport_bilinear(x, y, m.bilinear(x, a_mat)).matrix
    return moved_z, moved_a


def _random_nearby_pair(m, rng, max_dist=1.0, min_dist=1e-3):
    x = m.random_point(rng)
    cap = m.injectivity_radius(x)
    hi = min(max_dist, 0.9 * cap) if math.isfinite(cap) else max_dist
    d = m.random_tangent(rng, x)
    nd = m.norm(x, d)
    ell = rng.uniform(min(min_dist, hi), hi)
    y = m.exp(x, TangentVector(x, d.components * (ell / nd)))
    return x, y, ell


def invariance_check(
    F: OperatorSpec,
    m: Manifold,
    n_samples: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-9,
    r_range: tuple[float, float] = (-2.0, 2.0),
) -> CheckReport:
    """Max |F(r, L zeta, L A) - F(r, zeta, A)| over transported samples."""
    if F.x_dependent:
        raise PreconditionError("invariance check applies to x-independent operators")
    lo, hi = _clip_r_range(F, r_range)
    rng = np.random.default_rng(seed)
    n = m.dim
    moved, still = [], []
    for _ in range(n_samples):
        x, y, _ = _random_nearby_pair(m, rng)
        r = rng.uniform(lo, hi)
        z = rng.standard_normal(n) * 2.0
        a = _random_sym(rng, n)
        moved.append((y, r, *_transport_state(m, x, y, z, a)))
        still.append((x, r, z, a))
    worst = float(np.max(np.abs(_gap(F, moved, still)), initial=0.0))
    return CheckReport(
        f"invariance:{F.name}", m.config(), n_samples, worst, tolerance,
        worst <= tolerance,
    )


@dataclass(frozen=True)
class ModulusTable:
    name: str
    bins: np.ndarray
    values: np.ndarray
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bins": self.bins.tolist(),
            "values": self.values.tolist(),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def intrinsic_modulus_estimate(
    F: OperatorSpec,
    m: Manifold,
    bins: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0),
    n_samples: int = 4000,
    seed: int = 0,
    r_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 1e-6,
) -> ModulusTable:
    """Empirical modulus sup F(y, r, eta, Q) - F(x, r, L_yx eta, L_yx Q) per bin.

    The table is made nondecreasing in the bin upper edge; PASS means the
    smallest bin stays below the tolerance.
    """
    bins = np.asarray(sorted(bins), float)
    lo, hi = _clip_r_range(F, r_range)
    rng = np.random.default_rng(seed)
    n = m.dim
    ys, xs, dists = [], [], []
    # stratified over bins so the smallest distances are actually exercised
    for trial in range(n_samples):
        idx = trial % len(bins)
        lo_edge = 0.0 if idx == 0 else float(bins[idx - 1])
        x, y, dist = _random_nearby_pair(
            m, rng, max_dist=float(bins[idx]), min_dist=lo_edge
        )
        r = rng.uniform(lo, hi)
        eta = rng.standard_normal(n) * 2.0
        q = _random_sym(rng, n)
        ys.append((y, r, eta, q))
        xs.append((x, r, *_transport_state(m, y, x, eta, q)))
        dists.append(dist)
    vals = _gap(F, ys, xs)
    idx = np.searchsorted(bins, dists)
    keep = idx < len(bins)
    table = np.zeros(len(bins))
    np.maximum.at(table, idx[keep], vals[keep])
    table = np.maximum.accumulate(table)
    return ModulusTable(
        f"intrinsic_modulus:{F.name}", bins, table, tolerance,
        bool(table[0] <= tolerance),
    )


@dataclass(frozen=True)
class TwoFlatTable:
    name: str
    deltas: np.ndarray
    d_bins: np.ndarray
    values: np.ndarray
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "deltas": self.deltas.tolist(),
            "d_bins": self.d_bins.tolist(),
            "values": self.values.tolist(),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def twoflat_modulus_estimate(
    F: OperatorSpec,
    m: Manifold,
    deltas: Sequence[float] = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1),
    d_bins: Sequence[float] = (0.05, 0.2, 0.5, 1.0),
    n_samples: int = 4000,
    seed: int = 0,
    r_range: tuple[float, float] = (-2.0, 2.0),
    tolerance: float = 1e-6,
) -> TwoFlatTable:
    """Empirical sup of F(y, r, L zeta, Q) - F(x, r, zeta, P) over candidate
    pairs built with P - L_yx Q <= delta I, reported per (delta, distance).

    The two arguments are tabulated separately; PASS means the corner cell
    (smallest delta, smallest distance) stays below tolerance.
    """
    deltas = np.asarray(sorted(deltas), float)
    d_bins = np.asarray(sorted(d_bins), float)
    lo, hi = _clip_r_range(F, r_range)
    rng = np.random.default_rng(seed)
    n = m.dim
    ys, xs, dists, sample_deltas = [], [], [], []
    for trial in range(n_samples):
        delta = deltas[trial % len(deltas)]
        x, y, dist = _random_nearby_pair(m, rng, max_dist=float(d_bins[-1]))
        r = rng.uniform(lo, hi)
        z = rng.standard_normal(n) * 2.0
        q = _random_sym(rng, n)
        _, back_q = _transport_state(m, y, x, np.zeros(n), q)
        bump = _random_sym(rng, n, scale=1.0)
        bump -= (np.max(np.linalg.eigvalsh(bump)) - delta * rng.uniform(0.2, 1.0)) * np.eye(n)
        moved_z, _ = _transport_state(m, x, y, z, np.zeros((n, n)))
        ys.append((y, r, moved_z, q))
        xs.append((x, r, z, back_q + bump))
        dists.append(dist)
        sample_deltas.append(delta)
    vals = _gap(F, ys, xs)
    di = np.searchsorted(d_bins, dists)
    de = np.searchsorted(deltas, sample_deltas)
    keep = di < len(d_bins)
    table = np.full((len(deltas), len(d_bins)), -math.inf)
    np.maximum.at(table, (de[keep], di[keep]), vals[keep])
    table = np.where(np.isneginf(table), 0.0, table)  # cells without samples
    table = np.maximum.accumulate(np.maximum.accumulate(table, axis=0), axis=1)
    return TwoFlatTable(
        f"twoflat_modulus:{F.name}", deltas, d_bins, table, tolerance,
        bool(table[0, 0] <= tolerance),
    )
