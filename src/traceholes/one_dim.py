"""One-dimensional limit problem: closed-form constant, solver, and
exhaustive hole optimization.

This is a genuinely different functional from the N-dimensional trace
quotient: the denominator is the interior L^q norm,

    minimize  int (|v'|^p + |v|^p) dx / (int |v|^q dx)^(p/q)

over fields vanishing on a sub-interval hole.  With a hole abutting an
endpoint the optimal value has a closed form: the Dirichlet-Neumann
eigenvalue of the 1D p-Laplacian on the free segment, plus one.

Convention note: ``closed_form_limit_constant(p, alpha, length)`` evaluates
the published formula verbatim, in which alpha plays the role of the
fraction of the interval left FREE by the hole (the formula is the
eigenvalue of a segment of length alpha * length).  The solver and the
sweep take the hole fraction, so a hole fraction f has the closed form at
alpha = 1 - f.

The exhaustive sweep solves a hole's two free parts apart: for q >= p,
(B_1 + B_2)^(p/q) <= B_1^(p/q) + B_2^(p/q), so its value is the lower of
theirs.  For q < p the minimizer is unique (Diaz and Saa, C. R. Acad. Sci.
Paris 305, 1987) and the hole is solved whole.  One descent solves all
these subproblems as the parts of one grid (``Operators`` with ``parts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .fem import Operators, ProblemConfig


@dataclass
class OneDimProblem:
    a: float
    b: float
    p: float
    q: float
    alpha: float
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


@dataclass
class LimitResult:
    value: float
    extremal: np.ndarray
    nodes: np.ndarray
    hole: Tuple[float, float]
    iterations: int
    converged: bool


# Nodes per batched solve of a sweep, whose parts grow as n_cells^2.  A
# batch's operators, metrics and descent vectors hold about 500 bytes per
# node (the tracemalloc peak of the 256-cell p = 3 sweep, 6305 nodes, is
# 1.0, 2.0 and 3.1 MB in batches of 2048, 4096 and all nodes); its banded
# factor is two float32 rows.  Up to about 4100 nodes per batch something
# else sets a thin-limit pass's peak memory; one batch of 6305 raised it by
# 1.1 MB.  That sweep makes two batches at every cap from 3153 to 6304.
_BATCH_NODES = 4096


def _limit_operators(x: np.ndarray,
                     parts: Optional[np.ndarray] = None) -> Operators:
    """The P1 operators on cells joining consecutive nodes x (of the same
    part, with ``parts``), with the denominator's quadrature on the cells."""
    first = (np.arange(x.size - 1) if parts is None
             else np.flatnonzero(parts[:-1] == parts[1:]))
    cells = np.column_stack([first, first + 1])
    return Operators(x.reshape(-1, 1), cells, cells, np.diff(x)[first],
                     parts=parts)


def _limit_grid(problem: OneDimProblem, n_cells: int) -> np.ndarray:
    if n_cells < 16:
        raise ValueError("need at least 16 cells")
    return np.linspace(problem.a, problem.b, n_cells + 1)


def solve_limit_problem(problem: OneDimProblem, hole: Tuple[float, float],
                        n_cells: int) -> LimitResult:
    """Minimize the interior quotient with the field vanishing on
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
    free = (x < lo - 1e-9 * h) | (x > hi + 1e-9 * h)
    if not np.any(free):
        raise ValueError("hole covers the whole interval")
    res = _limit_operators(x).solve(problem.config(), free)
    return LimitResult(res.value, res.u, x, (lo, hi), res.iterations,
                       res.converged)


@dataclass
class HoleSweep:
    best_hole: Tuple[float, float]
    best_value: float
    starts: np.ndarray
    values: np.ndarray
    converged: bool             # every solve of the sweep converged


def _solve_parts(problem: OneDimProblem, x: np.ndarray, c: int,
                 parts) -> Tuple[np.ndarray, bool]:
    """Each part's value and whether their one solve converged.  Part
    (s, i, j) is the grid's nodes i..j, with those of hole s (s..s+c) fixed."""
    sizes = [j - i + 1 for _, i, j in parts]
    nodes = np.concatenate([np.arange(i, j + 1) for _, i, j in parts])
    hole = np.repeat([s for s, _, _ in parts], sizes)
    ops = _limit_operators(x[nodes], np.repeat(np.arange(len(parts)), sizes))
    cfg = problem.config()
    res = ops.solve(cfg, (nodes < hole) | (nodes > hole + c))
    return ops.part_quotients(cfg, res.u), res.converged


def optimize_limit_hole(problem: OneDimProblem, n_cells: int) -> HoleSweep:
    """Exhaustive sweep over cell-aligned holes of the target measure.

    Each hole leaves m free cells.  Its subproblems (module docstring),
    solved as the parts of one grid per ``_BATCH_NODES`` nodes, are: at
    q >= p, the free segment of each length L from ceil(m/2) to m, whose
    value hole s takes at L = max(s, m - s) (a segment's fields extend by
    zero to longer ones); at q < p, every hole s <= m/2 on a copy of the
    whole grid.  Hole m - s takes hole s's value (the flip x -> a + b - x),
    so a tie goes to the first hole.  ``converged`` is true when every
    batch converged."""
    x = _limit_grid(problem, n_cells)
    c = max(1, round(problem.alpha * n_cells))
    m = n_cells - c
    if m < 1:
        raise ValueError("hole covers the whole interval")
    if problem.q < problem.p:
        parts = [(s, 0, n_cells) for s in range(m // 2 + 1)]
    else:
        parts = [(s, 0, s) for s in range((m + 1) // 2, m + 1)]
    values, converged = np.full(m + 1, np.inf), True
    batch = np.cumsum([j - i + 1 for _, i, j in parts]) // _BATCH_NODES
    for b in np.unique(batch):
        chunk = [part for part, k in zip(parts, batch) if k == b]
        chunk_values, chunk_converged = _solve_parts(problem, x, c, chunk)
        np.minimum.at(values, [s for s, _, _ in chunk], chunk_values)
        converged = converged and chunk_converged
    values = np.minimum(values, values[::-1])
    h = (problem.b - problem.a) / n_cells
    holes = [(problem.a + s * h, problem.a + (s + c) * h) for s in range(m + 1)]
    best = int(np.argmin(values))
    return HoleSweep(holes[best], float(values[best]),
                     np.array([lo for lo, _ in holes]), values, converged)
