"""Projected Barzilai-Borwein descent for 0-homogeneous quotients E/B^(p/q).

Every quotient solve reaches it through ``fem.Operators.solve``.  The
iterate lives on the positive cone intersected with the unit-B sphere:
after every step the field is replaced by its absolute value (the quotient
never distinguishes u from |u| and the extremal has a sign) and rescaled
so B = 1, which is exact because both forms are homogeneous.

Steps go along the gradient preconditioned by an SPD elliptic metric
(stiffness plus lumped mass, passed as a sparse matrix); without it the
raw quotient gradient needs O(1/h^2) iterations on fine meshes.  The
metric's factor is single precision, made from the float32 free block cut
once from the symmetric CSR metric.  A mesh whose metric has a narrow band
in a coordinate order (``fem.Operators.order``) gets LAPACK's banded
Cholesky (xPBTRF; George and Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981); any other, or a failed banded factor,
hands the block to SuperLU.
The factor only shapes the step, while the gradient, line search, metric
products and stopping test stay float64 (Carson and Higham, SIAM J. Sci.
Comput. 40, 2018); the BB step's metric products multiply the full
metric by the full-length step, which is zero off the free set.  At
p = 2 the metric is fixed.  Otherwise the caller passes a callback for
the lagged metric, whose weights are the p-Laplacian's coefficients
frozen at the iterate, and the descent refactors it every REFRESH
iterations (a relaxed Kacanov iteration: Diening, Fornasier, Tomasi and
Wank, Numer. Math. 145, 2020).
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


def _delta(rel_gnorm: float) -> float:
    return min(DELTA_MAX, max(DELTA_MIN, DELTA_MAX * rel_gnorm ** 2))


@dataclass
class Preconditioner:
    """Factorized SPD metric: solve applies P^{-1}."""

    solve: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def restricted(cls, metric, free: np.ndarray,
                   order: Optional[np.ndarray] = None) -> "Preconditioner":
        """Single-precision factor of a symmetric sparse SPD metric's free
        block.

        With a vertex ``order`` (a permutation of all vertices) the block is
        renumbered in that order, restricted to the free set, scattered into
        LAPACK's upper band storage and factored by banded Cholesky
        (``spbtrf``, applied by ``spbtrs``).  Removing vertices from an
        order never widens its band, so every free set of a mesh shares its
        order.  On the blocks of a hole search SuperLU's fixed costs
        dominate: a banded factor of disk 0.05's block takes 0.9 against
        2.5 ms, of thin mu = 1/64's 0.5 against 1.5 ms, and its solves a
        quarter to a third less.

        Without one, SuperLU factors the block, read as CSC over the cut's
        arrays, in symmetric mode: SPD needs no pivoting, so a minimum
        degree ordering of P + Pᵀ and diagonal pivots.  On disk meshes this
        cuts the fill and factor time of the default unsymmetric column
        ordering by about 40% and the triangular-solve time by half.
        SuperLU also takes the block when the banded factor fails: a metric
        can be SPD yet so ill-conditioned that its float32 rounding is not
        (the 1D lagged metric at p = 1.25, condition number 1.5e11), and
        an LU factor needs no definite block.
        """
        block = _free_block(metric, free)
        if order is not None:
            # pos: the band position of each free index; perm: its inverse
            at = np.empty(free.size, dtype=np.intp)
            at[order] = np.cumsum(free[order]) - 1
            pos = at[free]
            perm = np.empty_like(pos)
            perm[pos] = np.arange(pos.size)
            row = pos[block.indices]
            col = np.repeat(pos, np.diff(block.indptr))
            upper = row <= col
            offset = row[upper] - col[upper]
            kd = -int(offset.min())
            # LAPACK upper band storage: (i, j) at row kd + i - j, column j
            ab = np.zeros((kd + 1, pos.size), dtype=np.float32, order="F")
            ab[kd + offset, col[upper]] = block.data[upper]
            del block, row, col, upper, offset
            factor, info = lapack.spbtrf(ab, overwrite_ab=1)
            if info == 0:
                return cls(solve=lambda b: lapack.spbtrs(
                    factor, b[perm].astype(np.float32))[0][pos])
            block = _free_block(metric, free)   # freed above, for the band's peak
        lu = spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return cls(solve=lambda b: lu.solve(b.astype(np.float32)))


def _free_block(metric, free: np.ndarray):
    """The float32 block ``metric[np.ix_(idx, idx)]`` of a symmetric CSR
    metric at the free indices idx, read as CSC: the CSR arrays of the cut
    are the CSC arrays of its transpose, which is the block.  Masks keep
    each row's entries in order; every row holds at least its diagonal."""
    idx = free.nonzero()[0]
    renumber = np.full(free.size, -1, dtype=metric.indices.dtype)
    renumber[idx] = np.arange(idx.size)
    col = renumber[metric.indices]      # -1 in the fixed columns
    keep = col >= 0
    keep &= np.repeat(free, np.diff(metric.indptr))
    indptr = np.zeros(idx.size + 1, dtype=metric.indptr.dtype)
    np.cumsum(np.add.reduceat(keep, metric.indptr[:-1])[idx], out=indptr[1:])
    return sp.csc_matrix((metric.data[keep].astype(np.float32), col[keep], indptr),
                         shape=(idx.size, idx.size))


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


def minimize_quotient(evaluate, gradient, p, free, init, fixed, tol, max_iter,
                      metric: Optional[Callable] = None,
                      order: Optional[np.ndarray] = None) -> DescentResult:
    """Minimize E(u)/B(u)^(p/q) over the free DOFs.

    ``evaluate(u)`` returns u normalized to B = 1 (read-only), E there and a
    product that ``gradient(u, E, product)`` turns into dE - (p/q) E dB
    (``fem.Operators.quotient``); it raises ValueError when B vanishes.

    The start is the constant field when ``init`` is None, otherwise
    ``|init|`` with free entries floored at ``1e-12 max(max|init|, 1)``;
    fixed DOFs start (and stay) at zero.  ``fixed`` is the SPD metric of
    the preconditioner, a sparse matrix on all DOFs.

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

    ``order``, when given, is the vertex order of a banded factor of every
    metric (``Preconditioner.restricted``); otherwise SuperLU factors them.
    """
    if init is None:
        u = np.ones(free.size)
    else:
        u = np.abs(np.asarray(init, dtype=float))
        if u.shape != free.shape:
            raise ValueError("init field has the wrong length")
        u[free] = np.maximum(u[free], 1e-12 * max(float(u.max()), 1.0))
    u[~free] = 0.0
    # the metric P of the current factor, whose products give <s, s>_P
    P = None if metric is not None and init is not None else fixed
    precond = None if P is None else Preconditioner.restricted(P, free, order)

    def grad_at(u, E, product):
        g = gradient(u, E, product)
        g[~free] = 0.0
        return g

    def direction(g):
        d = np.zeros_like(g)
        d[free] = precond.solve(g[free])
        return d

    u, E, product = evaluate(u)
    g = grad_at(u, E, product)
    del product     # each product goes before the next is made
    gnorm = float(np.linalg.norm(g)) / p
    values = [E]
    best_u, best_val = u, E
    if gnorm <= tol:
        return DescentResult(best_u, best_val, 0, True, values)
    gnorm0 = gnorm
    if precond is None:
        P = metric(u, DELTA_MAX)
        precond = Preconditioner.restricted(P, free, order)

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
        if metric is not None and it % REFRESH == 0:
            # refactor at the new iterate; the old factor and metric go
            # first, and the fallback step keeps its length in the new metric
            ss = _metric_norm2(P, s)
            precond = P = None
            P = metric(cand, _delta(gnorm / gnorm0))
            precond = Preconditioner.restricted(P, free, order)
            step *= _metric_norm2(P, s) / max(ss, 1e-300)
        # BB1 in the P-metric: <s, s>_P / <s, y>_P, and <s, P d'>=<s, g'>
        sy = float(s @ y)
        alpha = _metric_norm2(P, s) / sy if sy > 0 else step * 2.0
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
