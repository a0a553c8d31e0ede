"""Galerkin V-cycles on a grid's hierarchy, and BiCGSTAB preconditioned by one.

The Newton engine of :mod:`riemvisc.solver` solves one sparse linear system
``J du = -R`` per step.  Its preconditioner is one V-cycle over the grid's
levels (``Grid.prolongations``):

* coarse operators are Galerkin, ``A_{l+1} = P_l^T A_l P_l``, so no coarse
  stencils are needed;
* every level but the coarsest is smoothed by damped Jacobi (weight
  ``_OMEGA``, ``_SMOOTHING`` sweeps before and after the coarse correction);
* the coarsest level is solved by a dense inverse.

The V-cycle starts from zero, so it is a fixed linear map of its right-hand
side, which BiCGSTAB (van der Vorst 1992) applies on the right.

BiCGSTAB stops at its target, a breakdown or its iteration cap, and on no
divergence test: a residual above ``|b|`` (that of its zero start) does not
mean the solve is lost.  Solves that converge pass it on the sphere (up to
2.7 |b| at the first iteration of res-5 ``neg_detplus`` steps) and on the
torus (up to 76 |b| from the second iteration of lattice-16 ``max_of``
steps, 3.1 |b| at the fourth of a lattice-32 Dirichlet step), while the
doomed ``neg_min_eigenvalue`` solves pass it only at iteration 2 or 3.

Only ``scipy.sparse`` is used: ``scipy.sparse.linalg`` costs a noticeable part of
a short CLI run to import.  This module imports neither: ``scipy.sparse``
loads with the first grid, whose stencil builders import it, so
``import riemvisc`` and the grid-free CLI commands leave it out.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sparse

_OMEGA = 0.7
_SMOOTHING = 2


class VCycle:
    """One V-cycle from zero for ``mat``: the Galerkin levels of ``mat`` down
    the prolongations, their smoothers' scaled inverse diagonals and the
    coarsest level's dense inverse.  Raises ``np.linalg.LinAlgError`` when
    the coarsest level is singular."""

    def __init__(self, mat: sparse.csr_matrix, prolongations, restrictions):
        self.prolongations, self.restrictions = prolongations, restrictions
        self.mats = [mat]
        for p, r in zip(prolongations, restrictions):
            self.mats.append(r @ (self.mats[-1] @ p))
        self.smoothers = [_OMEGA / m.diagonal() for m in self.mats[:-1]]
        self.coarse_inverse = np.linalg.inv(self.mats[-1].toarray())

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.smoothers):
            return self.coarse_inverse @ b
        mat, scale = self.mats[level], self.smoothers[level]
        x = scale * b
        for _ in range(_SMOOTHING - 1):
            x += scale * (b - mat @ x)
        coarse = self(self.restrictions[level] @ (b - mat @ x), level + 1)
        x += self.prolongations[level] @ coarse
        for _ in range(_SMOOTHING):
            x += scale * (b - mat @ x)
        return x


def bicgstab(mat, b: np.ndarray, precondition, target: float, max_iter: int):
    """Right-preconditioned BiCGSTAB from zero for ``mat x = b``.

    Stops once the residual's 2-norm is at most ``target``.  Returns ``(x,
    iterations, converged)``; a breakdown (a zero or non-finite inner
    product, in numpy scalars, so a division by zero gives inf, not an
    exception) ends the iteration unconverged.
    """
    x = np.zeros_like(b)
    r = b.copy()
    norm = np.linalg.norm(r)
    if not norm > target:  # solved at zero, or a non-finite right-hand side
        return x, 0, bool(norm <= target)
    shadow = r.copy()
    rho = alpha = omega = np.float64(1.0)
    p = v = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        rho_next = shadow @ r
        if rho_next == 0.0 or not math.isfinite(rho_next):
            return x, it, False
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        rho = rho_next
        p_hat = precondition(p)
        v = mat @ p_hat
        alpha = rho / (shadow @ v)
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x += alpha * p_hat
            return x, it, True
        s_hat = precondition(s)
        t = mat @ s_hat
        omega = (t @ s) / (t @ t)
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        norm = np.linalg.norm(r)
        if norm <= target:
            return x, it, True
        if not math.isfinite(norm) or omega == 0.0:
            return x, it, False
    return x, max_iter, False
