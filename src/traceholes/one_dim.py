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

The exhaustive sweep takes each hole's value as the lower of two warm
chains of solves, one from each end of the interval; that is exact for
q >= p, where the optimum sits on one of the two free parts.  Unweighted,
the chains mirror each other, so only the first half of the holes is
solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

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


def _limit_grid(problem: OneDimProblem, n_cells: int) -> np.ndarray:
    if n_cells < 16:
        raise ValueError("need at least 16 cells")
    return np.linspace(problem.a, problem.b, n_cells + 1)


def solve_limit_problem(problem: OneDimProblem, hole: Tuple[float, float],
                        n_cells: int,
                        init: Optional[np.ndarray] = None) -> LimitResult:
    """Minimize the weighted interior quotient with the field vanishing on
    all nodes of the sub-interval hole."""
    x = _limit_grid(problem, n_cells)
    lo, hi = hole
    if not (problem.a <= lo < hi <= problem.b):
        raise ValueError("hole must be a sub-interval of (a, b)")
    h = (problem.b - problem.a) / n_cells
    target = problem.alpha * problem.length
    if abs((hi - lo) - target) > h + 1e-9 * h:
        raise ValueError(
            f"hole measure {hi - lo} does not match alpha within one cell")
    return _solve_on_grid(problem, x, _limit_operators(problem, x),
                          problem.config(), hole, init)


def _solve_on_grid(problem: OneDimProblem, x: np.ndarray, ops: Operators,
                   cfg: ProblemConfig, hole: Tuple[float, float],
                   init: Optional[np.ndarray]) -> LimitResult:
    """The hole's solve on a grid whose operators and config the caller
    built, so a sweep over holes builds them once."""
    lo, hi = hole
    h = (problem.b - problem.a) / (x.size - 1)
    tol = 1e-9 * h
    constrained = (x >= lo - tol) & (x <= hi + tol)
    free = ~constrained
    if not np.any(free):
        raise ValueError("hole covers the whole interval")
    res = ops.solve(cfg, free, init)
    return LimitResult(res.value, res.u, x, (lo, hi), res.iterations,
                       res.converged)


@dataclass
class HoleSweep:
    best_hole: Tuple[float, float]
    best_value: float
    starts: np.ndarray
    values: np.ndarray
    converged: bool             # every solve of the sweep converged


def _warm_chain(problem: OneDimProblem, x: np.ndarray, ops: Operators,
                cfg: ProblemConfig, holes) -> Tuple[list, bool]:
    """The holes' values, each solve after the first started from the
    previous hole's extremal and given ten times the iterations of the
    cold first.  A warm start that does not converge is solved again cold,
    and the next hole starts from the cold result.  Also returns whether
    every solve of the chain converged."""
    result = _solve_on_grid(problem, x, ops, cfg, holes[0], None)
    # a warm start needing more has stalled (p = 1.5: 3044 against 45)
    warm = replace(cfg, max_inner_iterations=min(
        cfg.max_inner_iterations, 10 * max(result.iterations, 1)))
    values, converged = [result.value], result.converged
    for hole in holes[1:]:
        init = result.extremal
        result = _solve_on_grid(problem, x, ops, warm, hole, init)
        if not result.converged:
            result = _solve_on_grid(problem, x, ops, cfg, hole, None)
        values.append(result.value)
        converged = converged and result.converged
    return values, converged


def optimize_limit_hole(problem: OneDimProblem, n_cells: int) -> HoleSweep:
    """Exhaustive sweep over cell-aligned holes of the target measure.

    The grid, its operators and the config are built once.  Each hole's
    value is the lower of two warm chains (see ``_warm_chain``): one
    starts cold at the left-end hole and moves right, the other starts
    cold at the right-end hole and moves left.  A warm start stays on the
    free part it started on, so past the middle one chain alone would
    report the shrinking part's value; each chain is right on the half
    where its part is the larger one.  Taking the lower value is exact
    when the optimum sits on one free part, which holds for q >= p.

    Unweighted (rho and beta both None), the flip x -> a + b - x maps one
    chain onto the other, so only the left chain runs, over the first
    ceil(N/2) of the N holes, and hole N-1-s takes hole s's value.
    ``converged`` is true when every solve converged; ties in the best
    value go to the first hole."""
    x = _limit_grid(problem, n_cells)
    ops = _limit_operators(problem, x)
    cfg = problem.config()
    forms_h = (problem.b - problem.a) / n_cells
    c = max(1, round(problem.alpha * n_cells))
    n = n_cells - c + 1
    holes = [(problem.a + s * forms_h, problem.a + (s + c) * forms_h)
             for s in range(n)]
    if problem.rho is None and problem.beta is None:
        left, converged = _warm_chain(problem, x, ops, cfg,
                                      holes[:(n + 1) // 2])
        values = np.array(left + left[:n // 2][::-1])
    else:
        left, left_converged = _warm_chain(problem, x, ops, cfg, holes)
        right, right_converged = _warm_chain(problem, x, ops, cfg,
                                             holes[::-1])
        values = np.minimum(left, right[::-1])
        converged = left_converged and right_converged
    best = int(np.argmin(values))
    return HoleSweep(holes[best], float(values[best]),
                     np.array([lo for lo, _ in holes]), values, converged)
