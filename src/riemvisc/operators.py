"""Catalog of degenerate elliptic operators F(x, r, zeta, A) with checks.

Operators evaluate N states at once on frame components: ``zeta`` as an
n-vector and ``A`` as a symmetric n x n matrix in the canonical frame of
each base point, stacked along a leading axis.  Structural claims
(degenerate ellipticity, properness, the strong monotonicity constant
gamma, translation invariance, continuity moduli) are declared flags; the
``*_check`` and ``*_estimate`` sweeps in this module probe them
empirically.  A sweep draws its samples in blocks (``draw_samples``: one
generator call per plan entry, whatever the number of samples; the
monotonicity sweep drops tied rows); the draws are mapped as stacks
(``points_from_draws``, ``pairs_from_draws``), a state
(zeta, A) moves from x to y by the transport matrices T of all pairs in
one call (``transport_matrices``), as zeta T and T^T A T, and one batch
call evaluates the sweep.  Estimated moduli are never certificates; pass
thresholds belong to the test configuration, not the library, and whether
an operator's joint modulus is the right granularity for the scheme's
consistency tolerance is left open.

Malformed input raises ``PreconditionError``, a ``ValueError``, which the
CLI prints as one ``riemvisc: ...`` line before it exits 1: malformed
modulus bins, a ``coord:<i>`` field past the points' coordinates, and the
builders' refusals (a ``sum_of`` weight list of another length than its
terms or with a negative or non-finite entry, a combinator of no terms, a
negative ``example_5_3`` exponent, ``yamabe`` with n < 3).

The spectral evaluators (``neg_min_eigenvalue``, ``detplus_pospart`` and
so ``neg_detplus``, ``example_5_3``) take their eigenvalues from one
kernel, ``_spectra``: a stack of 2 x 2 matrices is solved in closed form,
``m -/+ hypot(d, b)`` with ``m = a/2 + c/2``, ``d = a/2 - c/2``, within
4 eps |A|_2 of LAPACK and with no LAPACK call; any other n (a product
model's 4) is one ``np.linalg.eigvalsh`` call.  A matrix with a
non-finite entry gets NaN from ``detplus``, ``detplus_pospart`` and
``neg_min_eigenvalue``, for every n.  The literal ``detplus``, the jets'
star margins, ``SymBilinear.eigenvalues`` and ``operator_norms`` stay on
``eigvalsh``.

Every report that writes JSON (``CheckReport``, also returned by the
Jacobi checks, the modulus tables and the solver's reports) writes it
through the one ``Verdict.to_dict``.

Note on the positive determinant: ``detplus`` is the literal product of
the nonnegative eigenvalues (empty product = 1, chosen for
multiplicativity).  That function is not monotone in the semidefinite
order: ``diag(-0.1, 2) <= diag(0.1, 2.2)``, but the products are 2 and
0.22, so an operator built on it would not be degenerate elliptic.  The
shipped ``neg_detplus`` operator is therefore built on ``detplus_pospart``
(the product of eigenvalue positive parts), which is monotone; both
functions are exported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .manifolds import (
    Euclidean, Manifold, Point, SymBilinear, TangentVector, symmetrized_forms,
)

_NEG_INF = -math.inf
_POS_INF = math.inf


# --------------------------------------------------------------------- #
# scalar coefficient fields
# --------------------------------------------------------------------- #

class ScalarField:
    """A scalar coefficient on the manifold, evaluated over a coordinate stack."""

    def __init__(self, fn: Callable[[Point], float] | None, name: str = "field",
                 constant_value: float | None = None, minimum: float | None = None):
        self._fn = fn
        self.name = name
        self.constant_value = constant_value
        self.minimum = minimum if minimum is not None else constant_value
        self._axis = None  # the coordinate a ``coordinate`` field reads

    @classmethod
    def constant(cls, c: float) -> "ScalarField":
        c = float(c)
        return cls(None, f"const:{c}", constant_value=c)

    @classmethod
    def coordinate(cls, axis: int) -> "ScalarField":
        fld = cls(None, f"coord:{axis}")
        fld._axis = axis
        return fld

    @classmethod
    def parse(cls, spec) -> "ScalarField":
        """Accepts a finite number, 'const:<c>' (c finite), 'coord:<i>' (i an
        integer), 'zero', or a ScalarField; any other spec raises ValueError."""
        if isinstance(spec, ScalarField):
            return spec
        if isinstance(spec, str):
            kind, _, arg = ("const", "", "0") if spec == "zero" else spec.partition(":")
        else:
            kind, arg = ("const", spec) if isinstance(spec, (int, float)) else (None, None)
        try:
            if kind == "const" and math.isfinite(float(arg)):
                return cls.constant(float(arg))
            if kind == "coord":
                return cls.coordinate(int(arg))
        except (OverflowError, ValueError):
            pass
        raise ValueError(f"cannot parse scalar field spec {spec!r}")

    def values(self, coords: np.ndarray) -> np.ndarray:
        """The field on each row of the (N, ambient) ``coords``; a callable gets
        one read-only ``Point`` per row (``Point.rows``)."""
        if self.constant_value is not None:
            return np.full(len(coords), self.constant_value)
        if self._axis is not None:
            width = coords.shape[1]
            if not -width <= self._axis < width:
                raise PreconditionError(
                    f"{self.name}: axis {self._axis} is past the {width} coordinates of the points"
                )
            return np.array(coords[:, self._axis], dtype=float)
        return np.array([self._fn(x) for x in Point.rows(coords)])


# --------------------------------------------------------------------- #
# operator type
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class OperatorSpec:
    """An evaluable F(x, r, zeta, A) with declared structural flags.

    ``batch(ctx, rs, zetas, amats)`` evaluates F on N states at once: ``rs``
    has shape (N,), ``zetas`` (N, n) and ``amats`` (N, n, n), in the frames of
    N points whose (N, ambient) coordinates ``context_builder(coords)`` turned
    into ``ctx`` (per-point coefficient arrays; ``None`` without a builder).
    """

    name: str
    batch: Callable[..., np.ndarray] = field(repr=False)
    degenerate_elliptic: bool = False
    proper: bool = False
    gamma: float = 0.0
    x_dependent: bool = False
    r_domain: tuple[float, float] = (_NEG_INF, _POS_INF)
    context_builder: Callable | None = field(default=None, repr=False)

    def point_eval(self, x: Point, r: float, zeta: np.ndarray, a: np.ndarray) -> float:
        """F at one state: a one-row :meth:`eval_batch`."""
        vals = self.eval_batch(
            self.make_context(x.coords[None]), np.array([r], float),
            np.asarray(zeta, float)[None], np.asarray(a, float)[None],
        )
        return float(vals[0])

    def make_context(self, coords: np.ndarray):
        return None if self.context_builder is None else self.context_builder(coords)

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

def _spectra(mats) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix or a stack of them (the
    last two axes), read from the lower triangle as ``np.linalg.eigvalsh``
    reads it.

    2 x 2 ``[[a, b], [b, c]]``: the closed form ``m -/+ hypot(d, b)`` with
    ``m = a/2 + c/2`` and ``d = a/2 - c/2``, halved before adding so that no
    step overflows unless an eigenvalue does; within 4 eps |A|_2 of LAPACK,
    and the sorted diagonal, exactly, when b = 0.  Any other size is one
    ``eigvalsh`` call.  A matrix with a non-finite entry, in either
    triangle, gets NaN eigenvalues.
    """
    mats = np.asarray(mats, float)
    bad = None
    if not np.isfinite(mats).all():
        bad = ~np.isfinite(mats).all(axis=(-2, -1))
        mats = np.where(bad[..., None, None], 0.0, mats)
    if mats.shape[-2:] == (2, 2):
        a, b, c = mats[..., 0, 0] / 2, mats[..., 1, 0], mats[..., 1, 1] / 2
        m, r = a + c, np.hypot(a - c, b)
        eig = np.stack([m - r, m + r], axis=-1)
        diag = b == 0.0
        if diag.any():
            eig[diag] = np.sort(np.diagonal(mats, axis1=-2, axis2=-1)[diag], axis=-1)
    else:
        eig = np.linalg.eigvalsh(mats)
    if bad is not None:
        eig[bad] = np.nan
    return eig


def detplus(a) -> float:
    """Product of the nonnegative eigenvalues; empty product is 1; NaN for
    a matrix with a non-finite entry.

    This is the literal convention (chosen for multiplicativity); it is
    *not* monotone in the semidefinite order, see module docstring.
    """
    mat = a.matrix if isinstance(a, SymBilinear) else np.asarray(a, float)
    if not np.isfinite(mat).all():
        return math.nan
    eig = np.linalg.eigvalsh(mat)
    keep = eig[eig >= 0.0]
    return float(np.prod(keep)) if keep.size else 1.0


def detplus_pospart(a):
    """Product of the eigenvalue positive parts max(lambda, 0); monotone.

    Takes one symmetric matrix or a stack of them (the last two axes).
    """
    mat = a.matrix if isinstance(a, SymBilinear) else np.asarray(a, float)
    return np.prod(np.maximum(_spectra(mat), 0.0), axis=-1)


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
        lambda ctx, rs, zs, As: -_spectra(As)[:, 0],
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
    def context_builder(coords):
        return {key: fld.values(coords) for key, fld in fields.items()}

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
    """``(batch, context_builder)`` of an operator reducing ``ops`` pointwise.

    ``reduce_fn`` folds the list of the children's values in child order.
    The children are called through ``batch``: the combination's own
    ``r_domain`` is the intersection of theirs (``_joint_flags``), so the
    check in its ``eval_batch`` covers every child.
    """
    if not ops:
        raise PreconditionError("a combinator needs at least one term")

    def batch(ctx, rs, zs, As):
        return reduce_fn(
            [op.batch(c, rs, zs, As) for op, c in zip(ops, ctx["children"])]
        )

    def context_builder(coords):
        return {"children": [op.make_context(coords) for op in ops]}

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
        raise PreconditionError("sum combinator needs one finite nonnegative weight per term")
    name = "+".join(op.name for op in ops)

    def weighted_sum(vals):
        acc = w[0] * vals[0]
        for wk, v in zip(w[1:], vals[1:]):
            acc += wk * v
        return acc

    batch, context_builder = _combined(ops, weighted_sum)
    return OperatorSpec(
        f"sum({name})",
        batch,
        gamma=float(np.dot(w, [op.gamma for op in ops])),
        context_builder=context_builder,
        **_joint_flags(ops),
    )


def _minmax_of(kind, ops):
    pick = np.maximum if kind == "max" else np.minimum
    name = ",".join(op.name for op in ops)
    batch, context_builder = _combined(ops, lambda vals: functools.reduce(pick, vals))
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
    flags survive only for nondecreasing outer maps.  The r-domain check
    happens once, in the composition's own ``eval_batch``."""
    keep = bool(nondecreasing)
    return OperatorSpec(
        name or f"compose({op.name})",
        lambda ctx, rs, zs, As: outer(op.batch(ctx, rs, zs, As)),
        degenerate_elliptic=op.degenerate_elliptic and keep,
        proper=op.proper and keep,
        x_dependent=op.x_dependent,
        r_domain=op.r_domain,
        context_builder=op.context_builder,
    )


def example_5_3(f, g, p: int = 1, q: int = 0, r_exp: int = 1, k: int = 0) -> OperatorSpec:
    """max{r - lmin(A)|z|^p - (tr A)^(2q+1)|z|^r - detplus_pospart(A)^(2k+1) f(x)^2, r - g(x)}.

    A strongly monotone, degenerate elliptic, eigenvalue-built operator;
    finite for continuous f, g on compact models.  The exponents p, q,
    r_exp and k must be >= 0: a negative power of |z| or of a possibly
    vanishing A term is not finite at zero.
    """
    for name, value in (("p", p), ("q", q), ("r_exp", r_exp), ("k", k)):
        if value < 0:
            raise PreconditionError(f"example_5_3 needs exponent {name} >= 0, got {value}")
    f = ScalarField.parse(f)
    g = ScalarField.parse(g)

    def batch(ctx, rs, zs, As):
        nz = np.linalg.norm(zs, axis=1)
        first = (
            rs
            - _spectra(As)[:, 0] * nz**p
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
        raise PreconditionError("the conformal exponent needs n >= 3")
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

UNWRITTEN = {"unwritten": True}  # field metadata: ``Verdict.to_dict`` leaves it out


class Verdict:
    """A dataclass result with one JSON shape.

    ``to_dict`` writes the fields in declaration order, ``passed`` as
    ``pass`` and arrays as lists, merges a field ``extra`` in, and leaves
    out every field whose metadata is ``UNWRITTEN``: a check's ``name`` (the
    key its caller writes it under), a wall time or a solution.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.metadata.get("unwritten"):
                continue
            value = getattr(self, f.name)
            if f.name == "extra":
                out.update(value or {})
            else:
                out["pass" if f.name == "passed" else f.name] = (
                    value.tolist() if isinstance(value, np.ndarray) else value)
        return out


@dataclass(frozen=True)
class CheckReport(Verdict):
    name: str = field(metadata=UNWRITTEN)
    model: dict
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    extra: dict | None = None


def _default_model(model):
    return model if model is not None else Euclidean(2)


def _table_edges(name, values, positive=True) -> np.ndarray:
    """``values`` sorted into a float array; ``PreconditionError`` naming the
    value unless they are nonempty and finite, and positive as bin edges."""
    edges = np.asarray(sorted(values), float)
    if edges.size == 0:
        raise PreconditionError(f"{name} is empty")
    bad = edges[~np.isfinite(edges) | (positive & (edges <= 0.0))]
    if bad.size:
        raise PreconditionError(
            f"{name} holds {float(bad[0])!r}: need finite values" + ", > 0" * positive
        )
    return edges


def _clip_r_range(F, r_range):
    lo = max(r_range[0], F.r_domain[0])
    hi = min(r_range[1], F.r_domain[1])
    if not lo < hi:
        raise PreconditionError("r_range does not intersect the operator domain")
    return lo, hi


def _symmetric(raws, scale=1.5):
    """(R + R^T) / 2 for each scaled draw R = ``scale * raws`` of a stack."""
    raw = raws * scale
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


def _draws(m: Manifold, n_samples: int, seed: int, *plan):
    """A sweep's samples: ``draw_samples`` of a raw point, then ``plan``,
    from ``default_rng(seed)``."""
    if n_samples < 1:
        raise PreconditionError("a structural sweep needs at least one sample")
    return m.draw_samples(np.random.default_rng(seed), n_samples, *plan)


def _gap(F: OperatorSpec, upper, lower) -> np.ndarray:
    """F(upper) - F(lower) per sample, through one context and one batch
    call; each side is a stack (xs, rs, zetas, amats) of states."""
    xs, rs, zetas, amats = (np.concatenate(side) for side in zip(upper, lower))
    vals = F.eval_batch(F.make_context(xs), rs, zetas, amats)
    return vals[: len(upper[1])] - vals[len(upper[1]):]


def _transported(ts, zetas, amats):
    """Frame components (zeta, A) moved by transport matrices T: zeta T and
    T^T A T, the forms symmetrized as ``SymBilinear`` stores them."""
    return (zetas[:, None] @ ts)[:, 0], symmetrized_forms(np.swapaxes(ts, 1, 2) @ amats @ ts)


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
    n = m.dim
    raw_x, rs, zs, raw_a, raw_w, w_scale = _draws(
        m, n_samples, seed, ("uniform", lo, hi), ("normal", n), ("normal", (n, n)),
        ("normal", (n, n)), ("uniform", 0.1, 1.0))
    xs, zs, a = m.points_from_draws(raw_x), zs * 2.0, _symmetric(raw_a)
    w = raw_w * w_scale[:, None, None]
    gaps = _gap(F, (xs, rs, zs, a + w @ np.swapaxes(w, 1, 2)), (xs, rs, zs, a))
    worst = float(np.max(gaps, initial=0.0))  # NaN if any gap is NaN
    passed = worst <= tolerance
    extra = None
    if not passed:
        # the first sample attaining the maximum, or the first NaN
        i = int(np.argmax(gaps))
        extra = {"witness": {"r": float(rs[i]), "A_eigs": _spectra(a[i]).tolist()}}
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
    n = m.dim
    # per sample two sorted uniforms r, s and a state (zeta, A); tied rows are dropped
    raw_x, pairs, zs, raw_a = _draws(
        m, n_samples, seed, ("uniform", (lo, lo), hi), ("normal", n), ("normal", (n, n)))
    rs, ss = np.sort(pairs, axis=1).T
    ties = rs == ss
    if ties.all():
        raise PreconditionError("a structural sweep needs at least one sample")
    keep = ~ties
    xs, rs, ss = m.points_from_draws(raw_x[keep]), rs[keep], ss[keep]
    zs, a = zs[keep] * 2.0, _symmetric(raw_a[keep])
    gaps = _gap(F, (xs, ss, zs, a), (xs, rs, zs, a))
    gamma_hat = float(np.min(gaps / (ss - rs), initial=math.inf))
    report = CheckReport(
        f"monotonicity:{F.name}", m.config(), n_samples, 0.0, 0.0, True,
        {"gamma_hat": gamma_hat, "r_range": [lo, hi]},
    )
    return gamma_hat, report


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
    n = m.dim
    top = min(1.0, 0.9 * m.injectivity_radius())
    raw_x, raw_d, ells, rs, zs, raw_a = _draws(
        m, n_samples, seed, ("normal", m.ambient_dim), ("uniform", min(1e-3, top), top),
        ("uniform", lo, hi), ("normal", n), ("normal", (n, n)))
    xs, ys = m.pairs_from_draws(raw_x, raw_d, ells)
    zs, a = zs * 2.0, _symmetric(raw_a)
    moved = _transported(m.transport_matrices(xs, ys), zs, a)
    worst = float(np.max(np.abs(_gap(F, (ys, rs, *moved), (xs, rs, zs, a))), initial=0.0))
    return CheckReport(
        f"invariance:{F.name}", m.config(), n_samples, worst, tolerance,
        worst <= tolerance,
    )


@dataclass(frozen=True)
class ModulusTable(Verdict):
    name: str = field(metadata=UNWRITTEN)
    bins: np.ndarray
    values: np.ndarray
    tolerance: float
    passed: bool


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
    bins = _table_edges("bins", bins)
    lo, hi = _clip_r_range(F, r_range)
    n = m.dim
    # stratified over bins so the smallest distances are actually exercised:
    # sample i draws uniform(lows[k], tops[k]) for k = i mod len(bins), mapped
    # from a unit uniform as numpy maps it
    tops = np.minimum(bins, 0.9 * m.injectivity_radius())
    lows = np.minimum(np.concatenate([[0.0], bins[:-1]]), tops)
    raw_x, raw_d, units, rs, etas, raw_q = _draws(
        m, n_samples, seed, ("normal", m.ambient_dim), ("uniform", 0.0, 1.0),
        ("uniform", lo, hi), ("normal", n), ("normal", (n, n)))
    k = np.arange(n_samples) % len(bins)
    dists = lows[k] + (tops[k] - lows[k]) * units
    xs, ys = m.pairs_from_draws(raw_x, raw_d, dists)
    etas, q = etas * 2.0, _symmetric(raw_q)
    moved = _transported(m.transport_matrices(ys, xs), etas, q)
    vals = _gap(F, (ys, rs, etas, q), (xs, rs, *moved))
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
class TwoFlatTable(Verdict):
    name: str = field(metadata=UNWRITTEN)
    deltas: np.ndarray
    d_bins: np.ndarray
    values: np.ndarray
    tolerance: float
    passed: bool


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
    deltas = _table_edges("deltas", deltas, positive=False)
    d_bins = _table_edges("d_bins", d_bins)
    lo, hi = _clip_r_range(F, r_range)
    n = m.dim
    top = min(float(d_bins[-1]), 0.9 * m.injectivity_radius())
    raw_x, raw_d, dists, rs, zs, raw_q, raw_b, shifts = _draws(
        m, n_samples, seed, ("normal", m.ambient_dim), ("uniform", min(1e-3, top), top),
        ("uniform", lo, hi), ("normal", n), ("normal", (n, n)), ("normal", (n, n)),
        ("uniform", 0.2, 1.0))
    sample_deltas = deltas[np.arange(n_samples) % len(deltas)]
    xs, ys = m.pairs_from_draws(raw_x, raw_d, dists)
    zs, q, bump = zs * 2.0, _symmetric(raw_q), _symmetric(raw_b, scale=1.0)
    bump -= (_spectra(bump)[:, -1] - sample_deltas * shifts)[:, None, None] * np.eye(n)
    # T moves zeta from x to y; its transpose carries Q back from y to x
    ts = m.transport_matrices(xs, ys)
    back_q = symmetrized_forms(ts @ q @ np.swapaxes(ts, 1, 2))
    vals = _gap(F, (ys, rs, (zs[:, None] @ ts)[:, 0], q), (xs, rs, zs, back_q + bump))
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
