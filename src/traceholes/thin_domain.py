"""Dimension-reduction experiments on thin rectangles (a, b) x (0, mu).

As mu -> 0 the optimal-hole constant obeys the scaling law

    S_mu(alpha) / mu^((k(q-p)+p)/q)  ->  H^k(O2) / H^(k-1)(dO2)^(p/q) * S1d(alpha)

with k = 1 and O2 = (0, 1) here, so the exponent is (q - p + p)/q and the
prefactor is 2^(-p/q); S1d is the one-dimensional limit-problem optimum at
the same hole fraction.  The hypothesis of that law requires the base
dimension n to exceed p, which fails for n = 1, so this experiment is an
extrapolation: outputs carry a note and report the empirical gap to the
reference limit rather than asserting it.

Each mu gets its own anisotropic mesh (at least two cell layers across the
thickness), a run of the hole optimizer (a best-first search over
contiguous arcs, which needs no starting hole), and the record of the
rescaled constant; the sweep is summarized by a log-log slope and
a Richardson extrapolation of the last three rescaled values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .fem import ProblemConfig
from .geometry import Interval, ThinRectangle, generate_mesh, hole_intervals
from .hole_optimizer import optimize_hole_alternating
from .one_dim import OneDimProblem, solve_limit_problem

N1_EXTRAPOLATION_NOTE = (
    "base dimension n=1 is outside the scaling law's hypothesis p < n; "
    "the reference limit is taken from the one-dimensional optimal-hole "
    "constant by analogy and the gap is reported, not asserted")


@dataclass
class MuRecord:
    mu: float
    s_mu: float
    rescaled: float
    hole_intervals: list
    alpha_effective: float
    converged: bool


@dataclass
class MuSweep:
    mu_values: List[float]
    alpha: float
    exponent: float
    records: List[MuRecord]
    target_limit: float
    fitted_limit: Optional[float]
    slope: Optional[float]
    note: str = N1_EXTRAPOLATION_NOTE


def scaling_exponent(p: float, q: float, k: int = 1) -> float:
    return (k * (q - p) + p) / q


def reference_limit(base: Interval, alpha: float, cfg: ProblemConfig,
                    n_cells: int = 1000) -> float:
    """2^(-p/q) times the 1D optimal-hole constant at hole fraction alpha
    (endpoint holes are optimal, so one endpoint solve suffices), solved
    under all of cfg's settings."""
    length = base.b - base.a
    problem = OneDimProblem(base.a, base.b, alpha=alpha, **asdict(cfg))
    hole = (base.b - alpha * length, base.b)
    res = solve_limit_problem(problem, hole, n_cells)
    return res.value / 2.0 ** (cfg.p / cfg.q)


def run_mu_sweep(base: Interval, alpha: float, cfg: ProblemConfig,
                 mu_values, max_vertices: int = 200_000) -> MuSweep:
    """Optimize the hole on each thin rectangle, meshed at resolution mu/4,
    and record the rescaled constants; mu must strictly decrease in (0, 1)."""
    mu_values = [float(m) for m in mu_values]
    if not all(0 < m < 1 for m in mu_values):
        raise ValueError("mu values must lie in (0, 1)")
    if not all(a > b for a, b in zip(mu_values, mu_values[1:])):
        raise ValueError("mu values must be strictly decreasing")
    expo = scaling_exponent(cfg.p, cfg.q)
    target = reference_limit(base, alpha, cfg)

    records: List[MuRecord] = []
    for mu in mu_values:
        domain = ThinRectangle(base.a, base.b, mu)
        nx, ny = domain.grid(mu / 4.0)      # checked before meshing
        if (nx + 1) * (ny + 1) > max_vertices:
            import warnings
            warnings.warn(
                f"truncating mu sweep at mu={mu}: mesh would need "
                f"{(nx + 1) * (ny + 1)} vertices")
            break
        mesh = generate_mesh(domain, mu / 4.0)
        run = optimize_hole_alternating(mesh, cfg, alpha)
        records.append(MuRecord(
            mu, run.best_value, run.best_value / mu**expo,
            hole_intervals(mesh, run.best_hole), run.alpha_effective,
            run.converged))

    slope = _loglog_slope(records)
    fitted = _richardson(records)
    return MuSweep(mu_values, alpha, expo, records, target, fitted, slope)


def _loglog_slope(records) -> Optional[float]:
    if len(records) < 2:
        return None
    x = np.log([r.mu for r in records])
    y = np.log([r.s_mu for r in records])
    return float(np.polyfit(x, y, 1)[0])


def _richardson(records) -> Optional[float]:
    """Extrapolate the rescaled sequence from its last three entries,
    assuming one dominant power correction in mu."""
    if len(records) < 3:
        return records[-1].rescaled if records else None
    f1, f2, f3 = (r.rescaled for r in records[-3:])
    d1, d2 = f2 - f1, f3 - f2
    if d1 == 0 or d2 == 0 or d1 * d2 <= 0:
        return f3
    ratio = d2 / d1
    if not 0 < ratio < 1:
        return f3
    return float(f3 + d2 * ratio / (1.0 - ratio))
