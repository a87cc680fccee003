"""Projected Barzilai-Borwein descent for 0-homogeneous quotients E/B^(p/q).

Every quotient solve reaches it through ``fem.Operators.solve``, and
every solve starts cold, at the constant field on the W^{1,2} factor.  The
iterate lives on the positive cone intersected with the unit-B sphere:
after every step the field is replaced by its absolute value (the quotient
never distinguishes u from |u| and the extremal has a sign) and rescaled
so B = 1, which is exact because both forms are homogeneous.

Steps go along the gradient preconditioned by an SPD elliptic metric
(stiffness plus lumped mass, passed as a sparse matrix); without it the
raw quotient gradient needs O(1/h^2) iterations on fine meshes.  The
metric's factor is single precision and full length: the hole's rows and
columns are replaced by the identity, so it pins the hole.  Its solve of
a gradient that is zero on the hole is exactly zero there, and every
iterate stays exactly zero there with no mask of its own.  A mesh whose
metric has a narrow band in reverse Cuthill-McKee order
(``fem.Operators.order``) gets LAPACK's banded Cholesky (xPBTRF; George
and Liu, Computer Solution of Large Sparse Positive Definite Systems,
1981); any other, or a failed banded factor, hands the pinned metric to
SuperLU.  The first step is 1/p along the preconditioned gradient: at
p = q = 2 that is one inverse iteration in the W^{1,2} metric.
The factor only shapes the step, while the gradient, line search, metric
products and stopping test stay float64 (Carson and Higham, SIAM J. Sci.
Comput. 40, 2018); the BB step's metric products multiply the full
metric by the full-length step, which is zero off the free set.  The
caller's one factor callback builds and factors every metric.  At p = 2
the W^{1,2} factor is kept.  Otherwise the descent asks the callback for
the lagged metric, whose weights are the p-Laplacian's coefficients
frozen at the iterate, every REFRESH iterations (a relaxed Kacanov
iteration: Diening, Fornasier, Tomasi and Wank, Numer. Math. 145, 2020).
Step lengths are Barzilai-Borwein in the current metric with a
nonmonotone halving line search: a step is accepted when its value is at
most the largest of the last WINDOW values, and the search gives up after
MAX_HALVINGS halvings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


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
SINGULAR = "Factor is exactly singular"     # SuperLU's RuntimeError


def _delta(rel_gnorm: float) -> float:
    return min(DELTA_MAX, max(DELTA_MIN, DELTA_MAX * rel_gnorm ** 2))


@dataclass
class Preconditioner:
    """Factorized SPD metric: solve applies P^{-1}."""

    solve: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def pinned(cls, metric, free: np.ndarray, order: Optional[np.ndarray] = None,
               image: Optional[np.ndarray] = None) -> "Preconditioner":
        """Single-precision factor of a symmetric sparse SPD metric on all
        vertices, with the rows and columns off the free set replaced by the
        identity.  The factor is then block diagonal, the identity on the
        pinned vertices, so its solve of a right side that is zero there is
        exactly zero there, and on the free set it is the free block's.

        With a vertex ``order`` (a permutation of all vertices), the metric's
        band image in that order (``band_image``, or ``image``, overwritten)
        is pinned by zeroing the hole's rows and columns and setting its
        diagonal to 1, and factored by banded Cholesky (``spbtrf``, applied
        by ``spbtrs``), as SuperLU's fixed costs dominate on small metrics.

        Without one, SuperLU factors the pinned metric, read as CSC over the
        cut's arrays, in symmetric mode: SPD needs no pivoting, so a minimum
        degree ordering of P + Pᵀ and diagonal pivots.  SuperLU also takes
        the metric when the banded factor fails: a metric can be SPD yet so
        ill-conditioned that its float32 rounding is not (the 1D lagged
        metric at p = 1.25, condition number 1.5e11), and an LU factor needs
        no definite block.
        """
        if order is not None:
            pos = np.empty(order.size, dtype=np.intp)   # the band position
            pos[order] = np.arange(order.size)
            ab = band_image(metric, pos) if image is None else image
            # clear the hole's columns h, ab[:, h], and rows, ab[kd - k, h + k]
            kd, k, hole = ab.shape[0] - 1, np.arange(1, ab.shape[0]), pos[~free]
            ab[:, hole] = 0.0
            row, col = np.broadcast_arrays(kd - k, hole[:, None] + k)
            ab[row[col < pos.size], col[col < pos.size]] = 0.0
            ab[kd, hole] = 1.0
            factor, info = lapack.spbtrf(ab, overwrite_ab=1)
            if info == 0:
                return cls(solve=lambda b: lapack.spbtrs(
                    factor, b[order].astype(np.float32))[0][pos])
        lu = spla.splu(_pinned_cut(metric, free), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return cls(solve=lambda b: lu.solve(b.astype(np.float32)))


def band_image(metric, pos: np.ndarray) -> np.ndarray:
    """A symmetric CSR metric with vertex i at band position pos[i], in
    float32 LAPACK upper band storage: (i, j) at row kd + i - j, column j."""
    row, col = pos[metric.indices], np.repeat(pos, np.diff(metric.indptr))
    upper = row <= col
    offset, col = row[upper] - col[upper], col[upper]
    kd = -int(offset.min())
    ab = np.zeros((kd + 1, pos.size), dtype=np.float32, order="F")
    ab[kd + offset, col] = metric.data[upper]
    return ab


def _pinned_cut(metric, free: np.ndarray):
    """The float32 symmetric CSR metric with the rows and columns off the
    free set replaced by the identity, read as CSC: the CSR arrays of the
    cut are the CSC arrays of its transpose, which is the cut.  Masks keep
    each row's entries in order; every row holds at least its diagonal."""
    counts = np.diff(metric.indptr)
    keep = np.repeat(free, counts)
    keep &= free[metric.indices]
    hole, c = np.flatnonzero(~free), counts[~free]      # the hole's rows
    at = np.repeat(metric.indptr[hole] + c - np.cumsum(c), c) + np.arange(c.sum())
    keep[at[metric.indices[at] == np.repeat(hole, c)]] = True
    indices = metric.indices[keep]
    data = metric.data[keep].astype(np.float32)
    data[~free[indices]] = 1.0      # a pinned vertex keeps only its diagonal
    indptr = np.zeros_like(metric.indptr)
    np.cumsum(np.add.reduceat(keep, metric.indptr[:-1]), out=indptr[1:])
    return sp.csc_matrix((data, indices, indptr), shape=metric.shape)


def _metric_norm2(metric, s: np.ndarray) -> float:
    """<s, s>_P of a step s that is zero off the free set, through the
    full metric: on the free set it is the free block's product."""
    return float(s @ (metric @ s))


@dataclass
class DescentResult:
    u: np.ndarray
    value: float
    iterations: int
    converged: bool
    values: list


def minimize_quotient(evaluate, gradient, p, free, factor, tol,
                      max_iter) -> DescentResult:
    """Minimize E(u)/B(u)^(p/q) over the free DOFs, from the constant field,
    which is zero on the fixed DOFs.

    ``evaluate(u)`` returns u normalized to B = 1 (read-only), E there and a
    product that ``gradient(u, E, product)`` turns into dE - (p/q) E dB
    (``fem.Operators.quotient``); it raises ValueError when B vanishes.

    ``factor(None, None)`` returns the W^{1,2} metric P, a sparse SPD matrix
    on all DOFs, and its ``Preconditioner``, pinned off the free set.  At
    p != 2, ``factor(u, delta)`` returns them for the lagged metric at u,
    regularized by ``delta``, every ``REFRESH`` iterations.

    Convergence requires both the free-DOF gradient norm (scaled by 1/p,
    the Euler-Lagrange residual scale) to fall below ``tol`` and the
    relative quotient decrease over the trailing window to stall at
    ``tol``.  Returns the iterate that passed that test, or the best
    iterate seen when none did: under the nonmonotone window the two can
    differ, and only the former carries the stated gradient bound.  Either
    is nonnegative, zero on fixed DOFs, normalized to B = 1 and read-only.
    """
    u = np.ones(free.size)
    hole = np.flatnonzero(~free)
    u[hole] = 0.0
    # the factor is pinned off the free set, so every direction, and with
    # it every iterate, is exactly zero there
    P, precond = factor(None, None)

    def grad_at(u, E, product):
        g = gradient(u, E, product)
        g[hole] = 0.0
        return g

    u, E, product = evaluate(u)
    g = grad_at(u, E, product)
    del product     # each product goes before the next is made
    gnorm = float(np.linalg.norm(g)) / p
    values = [E]
    best_u, best_val = u, E
    if gnorm <= tol:
        return DescentResult(best_u, best_val, 0, True, values)
    gnorm0 = gnorm

    d = precond.solve(g)
    # at p = q = 2 the first step is one inverse iteration in the metric
    alpha = 1.0 / p
    it = 0
    while it < max_iter:
        it += 1
        ref = max(values[-WINDOW:])
        step = alpha
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = np.abs(u - step * d)
            try:
                cand, E_new, product = evaluate(cand)
            except ValueError:
                step *= 0.5
                continue
            if E_new <= ref:
                accepted = True
                break
            step *= 0.5
            del product
        if not accepted:
            break
        g_new = grad_at(cand, E_new, product)
        del product
        gnorm = float(np.linalg.norm(g_new)) / p
        s = cand - u
        y = g_new - g
        u, E, g = cand, E_new, g_new
        values.append(E)
        if E < best_val:
            best_val, best_u = E, u
        if p != 2 and it % REFRESH == 0:
            # refactor at the new iterate; the old factor and metric go
            # first, and the fallback step keeps its length in the new metric
            ss = _metric_norm2(P, s)
            precond = P = None
            try:
                P, precond = factor(u, _delta(gnorm / gnorm0))
            except RuntimeError as err:
                # SuperLU found the lagged metric singular (near p = 1):
                # end unconverged with the best iterate
                if str(err) != SINGULAR:
                    raise
                break
            step *= _metric_norm2(P, s) / max(ss, 1e-300)
        # BB1 in the P-metric: <s, s>_P / <s, y>_P, and <s, P d'>=<s, g'>
        sy = float(s @ y)
        alpha = _metric_norm2(P, s) / sy if sy > 0 else step * 2.0
        alpha = min(max(alpha, 1e-14), 1e10)
        d = precond.solve(g)
        if gnorm <= tol and len(values) > WINDOW:
            drop = (max(values[-WINDOW:]) - values[-1]) / max(abs(values[-1]), 1e-300)
            if drop <= tol:
                return DescentResult(u, E, it, True, values)
    return DescentResult(best_u, best_val, it, False, values)
