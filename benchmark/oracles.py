"""Closed-form and PASS-criterion checks applied to every workload output.

Each check is a pure function of the program's outputs, so the gate tests
can feed it a perturbed output and see it reject.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Worst |u - a.x/3| of the res-r solve of u - lap u = a.x with |a| = 1:
# about 1.4x the worst of 24 seeds (2.2e-3, 1.3e-3, 7.0e-4).
LADDER_ERR_BOUND = {3: 3.0e-3, 4: 1.8e-3, 5: 1.0e-3}
# Worst |u - a.x/2| of the converged res-3 neg_min_eigenvalue solve: 1.4x
# the worst of 30 seeds (5.0e-3).
MIN_EIG_ERR_BOUND = {3: 7.0e-3}
# The res-5 solve does not converge today, so its error bound is unmeasured;
# should it converge, it is held to the res-3 bound, which a finer grid
# should meet.
MIN_EIG_CONVERGED_BOUND = MIN_EIG_ERR_BOUND[3]
# Its measured stall: 1000 iterations end at a residual of 3.1e-3 to
# 6.7e-3 (36 seeds).  A stall that ends above 1e-2 is a failure, not the
# known defect.
STALL_RESIDUAL_LIMIT = 1e-2
HESSIAN_REL_TOL = 1e-6
SIGN_TOL = 1e-8
INDEX_GAP_TOL = 1e-8
STAR_MARGIN_TOL = -1e-9
# relative to the conditioning (see workloads.roundtrip_error); 2e-14 is
# the worst of 20000 hyperbolic samples
ROUNDTRIP_TOL = 1e-12


def sup_error(values, exact) -> float:
    return float(np.max(np.abs(np.asarray(values) - np.asarray(exact))))


def ladder_ok(errors: dict[int, float]) -> tuple[bool, str]:
    """Each error within its bound, and shrinking with every refinement."""
    levels = sorted(errors)
    within = all(errors[r] <= LADDER_ERR_BOUND[r] for r in levels)
    shrinks = all(errors[b] < errors[a] for a, b in zip(levels, levels[1:]))
    detail = " ".join(f"r{r}={errors[r]:.3e}" for r in levels)
    return within and shrinks, detail


def hessian_sign_ok(curvature: float, ells, values, vnorms) -> tuple[bool, float]:
    """Sign of d^2(d^2)(v, Lv) and, on curvature +-1, its closed form.

    Returns (ok, worst relative error against the closed form; 0 for
    products, which are only sign-checked).
    """
    ells, values, vnorms = map(np.asarray, (ells, values, vnorms))
    if curvature > 0:
        sign_ok = float(values.max()) <= SIGN_TOL
        closed = -4.0 * ells * (1.0 - np.cos(ells)) / np.sin(ells) * vnorms
    elif curvature < 0:
        sign_ok = float(values.min()) >= -SIGN_TOL
        closed = 4.0 * ells * (np.cosh(ells) - 1.0) / np.sinh(ells) * vnorms
    else:  # nonnegative product curvature: sign only
        return float(values.max()) <= SIGN_TOL, 0.0
    rel = float(np.max(np.abs(values - closed) / np.abs(closed)))
    return sign_ok and rel <= HESSIAN_REL_TOL, rel


def doubling_ok(final, gap, floor: float) -> bool:
    """Acceptance-06 criteria on the last alpha of a doubling trace."""
    return (
        final.alpha_d_sq <= 10.0 * floor + 1e-12
        and abs(final.m_alpha - float(np.max(gap))) <= floor + 1e-12
    )


def max_of_excess(values, exact, bound: float) -> float:
    """How far u rises above min(a.x/3 + bound, 0.1), its two supersolutions
    (the linear solution, within its discretization bound, and 0.1)."""
    return float(np.max(np.asarray(values) - np.minimum(np.asarray(exact) + bound, 0.1)))


def min_eig_outcome(converged: bool, iterations: int, cap: int, history,
                    values, exact) -> str:
    """Outcome of the capped res-5 neg_min_eigenvalue solve.

    'converged' when it converges within the a.x/2 oracle, 'known_defect'
    when it stalls as measured (ran to the cap, every residual finite, the
    last at most STALL_RESIDUAL_LIMIT), 'failed' otherwise, including a
    stall that got worse than that.
    """
    history = np.asarray(history)
    if converged:
        return "converged" if sup_error(values, exact) <= MIN_EIG_CONVERGED_BOUND else "failed"
    if (iterations == cap and history.size and np.all(np.isfinite(history))
            and history[-1] <= STALL_RESIDUAL_LIMIT):
        return "known_defect"
    return "failed"


def file_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    }


REPORT_SUITES = ("geometry-check", "hessian-sign", "comparison-demo", "solve", "yamabe")
# Known defect: for some seeds (208 of 35 tried) the default geometry-check
# on the unit sphere reports a sectional curvature off by just over its
# 1e-10 tolerance (1.7e-10), from roundoff on nearly dependent vector
# pairs.  A violation up to ten times the tolerance, in that check alone,
# is counted as this defect; anything else is a failure.
CURVATURE_DEFECT_LIMIT = 1e-9


def cli_report_outcome(returncode: int, stdout: str, out: Path) -> tuple[str, str]:
    """'pass' (exit 0, the PASS line, every suite report present and PASS),
    'known_defect' (the curvature-constancy defect below, and nothing else),
    or 'failed', with a detail for the failure."""
    payloads = {}
    for name in REPORT_SUITES + ("report",):
        path = out / f"{name}.json"
        if not path.is_file():
            return "failed", f"missing {path.name}"
        try:
            payloads[name] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            return "failed", f"{path.name}: {exc}"
    failing = [n for n in REPORT_SUITES if payloads[n].get("pass") is not True]
    if returncode == 0 and "report: PASS" in stdout and not failing:
        if payloads["report"].get("pass") is True:
            return "pass", ""
    if returncode == 1 and "report: FAIL" in stdout and failing == ["geometry-check"]:
        checks = payloads["geometry-check"]["results"]["checks"]
        bad = {k: c for k, c in checks.items() if c.get("pass", True) is not True}
        curvature = bad.get("curvature_constancy", {})
        if list(bad) == ["curvature_constancy"] and \
                curvature.get("max_violation", math.inf) <= CURVATURE_DEFECT_LIMIT:
            return "known_defect", f"curvature_constancy {curvature['max_violation']:.3e}"
    return "failed", f"exit code {returncode}, failing suites {failing}"
