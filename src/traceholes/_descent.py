"""Projected Barzilai-Borwein descent for 0-homogeneous quotients E/B^(p/q).

Every quotient solve of the package starts here: the descent builds the
start field from the caller's ``init`` and factors the starting metric.
The iterate lives on the positive cone intersected with the unit-B sphere:
after every step the field is replaced by its absolute value (the quotient
never distinguishes u from |u| and the extremal has a sign) and rescaled
so B = 1, which is exact because both forms are homogeneous.

Steps go along the gradient preconditioned by an SPD elliptic metric
(stiffness plus lumped mass, passed as a sparse matrix); without it the
raw quotient gradient needs O(1/h^2) iterations on fine meshes.  At
p = 2 the metric is fixed.  Otherwise the caller passes a callback for
the lagged metric, whose weights are the p-Laplacian's coefficients
frozen at the iterate, and the descent refactors it every REFRESH
iterations (a relaxed Kacanov iteration: Diening, Fornasier, Tomasi and
Wank, Numer. Math. 145, 2020).  Step lengths are Barzilai-Borwein in the
current metric with a nonmonotone halving line search: a step is accepted
when its value is at most the largest of the last WINDOW values, and the
search gives up after MAX_HALVINGS halvings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla


# The lagged metric's regularization delta (relative to the field's RMS
# gradient) starts at DELTA_MAX and shrinks with the square of the
# gradient norm relative to the start, down to DELTA_MIN.  On the thin
# rectangle mu = 1/64 at p = q = 1.5 a fixed delta does not converge
# (1e-2: 20000 iterations; 1e-4: line search exhausted after 4351); this
# schedule converges in 132.
REFRESH = 30
DELTA_MAX = 1e-2
DELTA_MIN = 1e-8
WINDOW = 5
MAX_HALVINGS = 40


def _delta(rel_gnorm: float) -> float:
    return min(DELTA_MAX, max(DELTA_MIN, DELTA_MAX * rel_gnorm ** 2))


@dataclass
class Preconditioner:
    """Factorized SPD metric: solve applies P^{-1}, matvec applies P."""

    solve: Callable[[np.ndarray], np.ndarray]
    matvec: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def restricted(cls, metric, free: np.ndarray) -> "Preconditioner":
        """LU-factorized restriction of a sparse SPD metric to free DOFs.

        SPD needs no pivoting, so SuperLU runs in symmetric mode: a minimum
        degree ordering of P + Pᵀ and diagonal pivots.  On disk meshes this
        cuts the fill and factor time of the default unsymmetric column
        ordering by about 40% and the triangular-solve time by half.
        """
        idx = free.nonzero()[0]
        P = metric[np.ix_(idx, idx)].tocsc()
        lu = spla.splu(P, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return cls(solve=lu.solve, matvec=lambda x: P @ x)


@dataclass
class DescentResult:
    u: np.ndarray
    value: float
    iterations: int
    converged: bool
    values: list


def _normalize(u, b_fn, q):
    """u rescaled to B = 1, read-only: the forms may then keep what they
    computed from it for the next form at the same iterate."""
    B = b_fn(u)
    if not B > 0:
        raise ValueError("cannot normalize: boundary norm vanished")
    u = u * B ** (-1.0 / q)
    u.flags.writeable = False
    return u


def minimize_quotient(e_fn, de_fn, b_fn, db_fn, p, q, free, init, fixed,
                      tol, max_iter, metric: Optional[Callable] = None
                      ) -> DescentResult:
    """Minimize E(u)/B(u)^(p/q) over the free DOFs.

    The start is the constant field when ``init`` is None, otherwise
    ``|init|`` with free entries floored at ``1e-12 max(max|init|, 1)``;
    fixed DOFs start (and stay) at zero.  ``fixed`` is the SPD metric of
    the preconditioner, a sparse matrix on all DOFs, or that metric
    already factored on the free DOFs (a ``Preconditioner``), so callers
    that solve repeatedly with one free set factor it once.

    Convergence requires both the free-DOF gradient norm (scaled by 1/p,
    the Euler-Lagrange residual scale) to fall below ``tol`` and the
    relative quotient decrease over the trailing window to stall at
    ``tol``.  Returns the iterate that passed that test, or the best
    iterate seen when none did: under the nonmonotone window the two can
    differ, and only the former carries the stated gradient bound.  Either
    is nonnegative, zero on fixed DOFs, normalized to B = 1 and read-only.

    ``metric(u, delta)``, when given, returns the lagged metric at u (a
    sparse SPD matrix on all DOFs, regularized by ``delta``); it is
    refactored every ``REFRESH`` iterations.  A cold start begins on
    ``fixed``, a warm start on the metric at its start field: the lagged
    metric at the constant field is a poor model, and on disks (p = 1.5,
    3) it raised cold solves from 22-32 to 59-95 iterations.
    """
    r = p / q
    if init is None:
        u = np.ones(free.size)
    else:
        u = np.abs(np.asarray(init, dtype=float))
        if u.shape != free.shape:
            raise ValueError("init field has the wrong length")
        u[free] = np.maximum(u[free], 1e-12 * max(float(u.max()), 1.0))
    u[~free] = 0.0
    u = _normalize(u, b_fn, q)
    if metric is not None and init is not None:
        precond = None
    elif isinstance(fixed, Preconditioner):
        precond = fixed
    else:
        precond = Preconditioner.restricted(fixed, free)

    def grad_at(u, E):
        # B = 1 on the sphere, so dQ = dE - (p/q) E dB there
        g = de_fn(u) - r * E * db_fn(u)
        g[~free] = 0.0
        return g

    def direction(g):
        d = np.zeros_like(g)
        d[free] = precond.solve(g[free])
        return d

    def metric_norm2(s):
        return float(s[free] @ precond.matvec(s[free]))

    E = e_fn(u)
    g = grad_at(u, E)
    gnorm = float(np.linalg.norm(g)) / p
    values = [E]
    best_u, best_val = u, E
    if gnorm <= tol:
        return DescentResult(best_u, best_val, 0, True, values)
    gnorm0 = gnorm
    if precond is None:
        precond = Preconditioner.restricted(metric(u, DELTA_MAX), free)

    d = direction(g)
    alpha = 0.1 * max(float(np.linalg.norm(u)), 1.0) / max(float(np.linalg.norm(d)), 1e-30)
    it = 0
    while it < max_iter:
        it += 1
        ref = max(values[-WINDOW:])
        step = alpha
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = np.abs(u - step * d)
            cand[~free] = 0.0
            try:
                cand = _normalize(cand, b_fn, q)
            except ValueError:
                step *= 0.5
                continue
            E_new = e_fn(cand)
            if E_new <= ref:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        g_new = grad_at(cand, E_new)
        gnorm = float(np.linalg.norm(g_new)) / p
        s = cand - u
        y = g_new - g
        if metric is not None and it % REFRESH == 0:
            # refactor at the new iterate; the old factor goes first, and
            # the fallback step keeps its length in the new metric
            ss = metric_norm2(s)
            precond = None
            precond = Preconditioner.restricted(
                metric(cand, _delta(gnorm / gnorm0)), free)
            step *= metric_norm2(s) / max(ss, 1e-300)
        # BB1 in the P-metric: <s, s>_P / <s, y>_P, and <s, P d'>=<s, g'>
        sy = float(s @ y)
        alpha = metric_norm2(s) / sy if sy > 0 else step * 2.0
        alpha = min(max(alpha, 1e-14), 1e10)
        u, E, g = cand, E_new, g_new
        d = direction(g)
        values.append(E)
        if E < best_val:
            best_val, best_u = E, u
        if gnorm <= tol and len(values) > WINDOW:
            drop = (max(values[-WINDOW:]) - values[-1]) / max(abs(values[-1]), 1e-300)
            if drop <= tol:
                return DescentResult(u, E, it, True, values)
    return DescentResult(best_u, best_val, it, False, values)
