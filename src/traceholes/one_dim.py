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
eigenvalue of a segment of length alpha * length).  The sweep takes the
hole fraction, so a hole fraction f has the closed form at alpha = 1 - f.

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
from .geometry import Interval


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


def _limit_grid(base: Interval, n_cells: int) -> np.ndarray:
    if n_cells < 16:
        raise ValueError("need at least 16 cells")
    return np.linspace(base.a, base.b, n_cells + 1)


def solve_limit_problem(base: Interval, cfg: ProblemConfig,
                        hole: Tuple[float, float], n_cells: int) -> LimitResult:
    """Minimize the interior quotient on n_cells equal cells of base with
    the field vanishing on all nodes of the sub-interval hole."""
    x = _limit_grid(base, n_cells)
    lo, hi = hole
    if not (base.a <= lo < hi <= base.b):
        raise ValueError("hole must be a sub-interval of (a, b)")
    h = (base.b - base.a) / n_cells
    free = (x < lo - 1e-9 * h) | (x > hi + 1e-9 * h)
    if not np.any(free):
        raise ValueError("hole covers the whole interval")
    res = _limit_operators(x).solve(cfg, free)
    return LimitResult(res.value, res.u, x, res.iterations, res.converged)


@dataclass
class HoleSweep:
    best_hole: Tuple[float, float]
    best_value: float
    starts: np.ndarray
    values: np.ndarray
    converged: bool             # every solve of the sweep converged


def _solve_parts(cfg: ProblemConfig, x: np.ndarray, c: int,
                 parts) -> Tuple[np.ndarray, bool]:
    """Each part's value and whether their one solve converged.  Part
    (s, i, j) is the grid's nodes i..j, with those of hole s (s..s+c) fixed."""
    sizes = [j - i + 1 for _, i, j in parts]
    nodes = np.concatenate([np.arange(i, j + 1) for _, i, j in parts])
    hole = np.repeat([s for s, _, _ in parts], sizes)
    ops = _limit_operators(x[nodes], np.repeat(np.arange(len(parts)), sizes))
    res = ops.solve(cfg, (nodes < hole) | (nodes > hole + c))
    return ops.part_quotients(cfg, res.u), res.converged


def optimize_limit_hole(base: Interval, cfg: ProblemConfig,
                        hole_fraction: float, n_cells: int) -> HoleSweep:
    """Exhaustive sweep over cell-aligned holes covering hole_fraction of base.

    Each hole leaves m free cells.  Its subproblems (module docstring),
    solved as the parts of one grid per ``_BATCH_NODES`` nodes, are: at
    q >= p, the free segment of each length L from ceil(m/2) to m, whose
    value hole s takes at L = max(s, m - s) (a segment's fields extend by
    zero to longer ones); at q < p, every hole s <= m/2 on a copy of the
    whole grid.  Hole m - s takes hole s's value (the flip x -> a + b - x),
    so a tie goes to the first hole.  ``converged`` is true when every
    batch converged."""
    if not 0 < hole_fraction < 1:
        raise ValueError("hole fraction must lie in (0, 1)")
    x = _limit_grid(base, n_cells)
    c = max(1, round(hole_fraction * n_cells))
    m = n_cells - c
    if m < 1:
        raise ValueError("hole covers the whole interval")
    if cfg.q < cfg.p:
        parts = [(s, 0, n_cells) for s in range(m // 2 + 1)]
    else:
        parts = [(s, 0, s) for s in range((m + 1) // 2, m + 1)]
    values, converged = np.full(m + 1, np.inf), True
    batch = np.cumsum([j - i + 1 for _, i, j in parts]) // _BATCH_NODES
    for b in np.unique(batch):
        chunk = [part for part, k in zip(parts, batch) if k == b]
        chunk_values, chunk_converged = _solve_parts(cfg, x, c, chunk)
        np.minimum.at(values, [s for s, _, _ in chunk], chunk_values)
        converged = converged and chunk_converged
    values = np.minimum(values, values[::-1])
    h = (base.b - base.a) / n_cells
    holes = [(base.a + s * h, base.a + (s + c) * h) for s in range(m + 1)]
    best = int(np.argmin(values))
    return HoleSweep(holes[best], float(values[best]),
                     np.array([lo for lo, _ in holes]), values, converged)
