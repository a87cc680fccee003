"""One-dimensional limit problem: closed-form constant, weighted solver,
and exhaustive hole optimization.

This is a genuinely different functional from the N-dimensional trace
quotient: the denominator is the (weighted) interior L^q norm,

    minimize  int rho (|v'|^p + |v|^p) dx / (int beta |v|^q dx)^(p/q)

over fields vanishing on a sub-interval hole.  With rho = beta = 1 and a
hole abutting an endpoint the optimal value has a closed form: the
Dirichlet-Neumann eigenvalue of the 1D p-Laplacian on the free segment,
plus one.

Convention note: ``closed_form_limit_constant(p, alpha, length)`` evaluates
the published formula verbatim, in which alpha plays the role of the
fraction of the interval left FREE by the hole (the formula is the
eigenvalue of a segment of length alpha * length).  The solver and the
sweep take the hole fraction; ``closed_form_for_hole_fraction`` does the
bookkeeping between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._descent import minimize_quotient
from .fem import Operators, ProblemConfig


@dataclass
class OneDimProblem:
    a: float
    b: float
    p: float
    q: float
    alpha: float
    rho: Optional[Callable] = None    # volume weight, defaults to 1
    beta: Optional[Callable] = None   # interior density weight, defaults to 1
    epsilon: Optional[float] = None
    dof_tolerance: float = 1e-8
    max_inner_iterations: int = 20000

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        self.config()       # ProblemConfig checks p, q and the tolerances

    @property
    def length(self) -> float:
        return self.b - self.a

    def config(self) -> ProblemConfig:
        return ProblemConfig(self.p, self.q, epsilon=self.epsilon,
                             dof_tolerance=self.dof_tolerance,
                             max_inner_iterations=self.max_inner_iterations)


def closed_form_limit_constant(p: float, alpha: float, length: float) -> float:
    """(2 pi)^p (p-1) / (2 alpha length p sin(pi/p))^p + 1.

    alpha here is the free fraction of the interval (see module docstring);
    p must exceed 1 for sin(pi/p) to stay positive.
    """
    if p <= 1:
        raise ValueError("closed form needs p > 1 (sin(pi/p) degenerates)")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if length <= 0:
        raise ValueError("length must be positive")
    return ((2 * math.pi) ** p * (p - 1)
            / (2 * alpha * length * p * math.sin(math.pi / p)) ** p) + 1.0


def closed_form_for_hole_fraction(p: float, hole_fraction: float,
                                  length: float) -> float:
    """Optimal limit constant for a hole covering the given fraction."""
    return closed_form_limit_constant(p, 1.0 - hole_fraction, length)


@dataclass
class LimitResult:
    value: float
    extremal: np.ndarray
    nodes: np.ndarray
    hole: Tuple[float, float]
    iterations: int
    converged: bool


def _limit_operators(problem: OneDimProblem, x: np.ndarray) -> Operators:
    """The shared P1 operators on the grid, with the denominator's
    quadrature on the cells and the rho/beta weights folded in."""
    rho = problem.rho or (lambda x: np.ones_like(x))
    beta = problem.beta or (lambda x: np.ones_like(x))
    rho_n = np.asarray(rho(x), dtype=float)
    if np.any(rho_n <= 0):
        raise ValueError("rho must be positive for a weighted norm")
    beta_n = np.asarray(beta(x), dtype=float)
    if np.any(beta_n < 0):
        raise ValueError("beta must be nonnegative")
    n = x.size - 1
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Operators(x.reshape(-1, 1), cells, cells, np.diff(x),
                     rho=rho_n, beta=beta_n)


def solve_limit_problem(problem: OneDimProblem, hole: Tuple[float, float],
                        n_cells: int,
                        init: Optional[np.ndarray] = None) -> LimitResult:
    """Minimize the weighted interior quotient with the field vanishing on
    all nodes of the sub-interval hole."""
    if n_cells < 16:
        raise ValueError("need at least 16 cells")
    lo, hi = hole
    if not (problem.a <= lo < hi <= problem.b):
        raise ValueError("hole must be a sub-interval of (a, b)")
    x = np.linspace(problem.a, problem.b, n_cells + 1)
    h = (problem.b - problem.a) / n_cells
    target = problem.alpha * problem.length
    if abs((hi - lo) - target) > h + 1e-9 * h:
        raise ValueError(
            f"hole measure {hi - lo} does not match alpha within one cell")
    tol = 1e-9 * h
    constrained = (x >= lo - tol) & (x <= hi + tol)
    free = ~constrained
    if not np.any(free):
        raise ValueError("hole covers the whole interval")
    ops = _limit_operators(problem, x)
    cfg = problem.config()
    res = minimize_quotient(
        lambda u: ops.energy(cfg, u), lambda u: ops.energy_gradient(cfg, u),
        lambda u: ops.norm(cfg, u), lambda u: ops.norm_gradient(cfg, u),
        problem.p, problem.q, free, init, ops.h1(),
        tol=problem.dof_tolerance, max_iter=problem.max_inner_iterations,
        metric=ops.descent_metric(cfg))
    u = res.u * ops.norm(cfg, res.u) ** (-1.0 / problem.q)
    value = ops.energy(cfg, u)
    return LimitResult(value, u, x, (lo, hi), res.iterations,
                       res.converged)


@dataclass
class HoleSweep:
    best_hole: Tuple[float, float]
    best_value: float
    starts: np.ndarray
    values: np.ndarray
    converged: bool             # every solve of the sweep converged


def optimize_limit_hole(problem: OneDimProblem, n_cells: int) -> HoleSweep:
    """Exhaustive sweep over cell-aligned holes of the target measure."""
    forms_h = (problem.b - problem.a) / n_cells
    c = max(1, round(problem.alpha * n_cells))
    starts, values = [], []
    best = None
    init = None
    converged = True
    for s in range(n_cells - c + 1):
        lo = problem.a + s * forms_h
        hi = problem.a + (s + c) * forms_h
        result = solve_limit_problem(problem, (lo, hi), n_cells, init=init)
        init = result.extremal
        converged = converged and result.converged
        starts.append(lo)
        values.append(result.value)
        if best is None or result.value < best.value:
            best = result
    return HoleSweep(best.hole, best.value,
                     np.array(starts), np.array(values), converged)
