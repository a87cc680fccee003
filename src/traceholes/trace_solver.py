"""Trace constant S(Gamma) for a fixed boundary hole.

The hole's facet vertices are eliminated from the DOF set (the field
vanishes on the whole facet since elements are P1), and the discrete
Rayleigh quotient is minimized by projected Barzilai-Borwein descent on
the unit boundary-norm sphere.  The returned extremal is nonnegative and
normalized; the Euler-Lagrange multiplier lambda is recovered by least
squares from the stationarity system a(u, phi_i) = lambda b(u, phi_i)
over free DOFs, so |lambda - s_value| is an independent convergence
diagnostic (they coincide for the exact normalized extremal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fem
from .fem import NotAdmissibleError, ProblemConfig
from .geometry import BoundaryHole, Mesh


@dataclass
class TraceResult:
    s_value: float
    extremal: np.ndarray        # read-only
    lam: float
    el_residual: float
    iterations: int
    converged: bool
    mesh: Mesh
    hole: BoundaryHole


def free_dof_mask(mesh: Mesh, hole: BoundaryHole) -> np.ndarray:
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    return free


def solve_trace_constant(mesh: Mesh, cfg: ProblemConfig, hole: BoundaryHole,
                         init: Optional[np.ndarray] = None) -> TraceResult:
    """Minimize the discrete quotient over fields vanishing on the hole."""
    cfg.validate_subcritical(mesh.dim)
    free = free_dof_mask(mesh, hole)
    if not np.any(free[mesh.boundary_vertex_indices()]):
        raise NotAdmissibleError(
            "hole covers every boundary vertex: empty admissible class")
    res = fem.forms(mesh).solve(cfg, free, init)
    lam, residual = _multiplier_and_residual(mesh, cfg, res.u, free)
    return TraceResult(res.value, res.u, lam, residual, res.iterations,
                       res.converged, mesh, hole)


def _multiplier_and_residual(mesh, cfg, u, free):
    # Euler-Lagrange pairings against the free nodal hats,
    #   a_i = int (eps^2+|grad u|^2)^((p-2)/2) grad u . grad phi_i + |u|^{p-2} u phi_i
    #   b_i = int_boundary |u|^{q-2} u phi_i,
    # so stationarity of the quotient reads a = lambda b on free DOFs
    a = fem.energy_gradient(mesh, cfg, u)[free] / cfg.p
    b = fem.boundary_norm_gradient(mesh, cfg, u)[free] / cfg.q
    bb = float(b @ b)
    if bb <= 0:
        raise NotAdmissibleError("boundary pairing vanished on free DOFs")
    lam = float(a @ b) / bb
    residual = float(np.linalg.norm(a - lam * b))
    return lam, residual


def el_residual(mesh: Mesh, cfg: ProblemConfig, result: TraceResult,
                hole: BoundaryHole) -> float:
    """Dual norm of the Euler-Lagrange residual over free nodal tests.

    max_phi |a(u, phi) - lambda b(u, phi)| / ||phi|| with phi ranging over
    free nodal directions equals the Euclidean norm of the free residual
    vector.  lambda is the least-squares multiplier of the extremal, which
    the solver reports as ``lam``; the extremal must be boundary-normalized.
    """
    u = result.extremal
    B = fem.boundary_norm_q(mesh, cfg, u)
    if abs(B - 1.0) > 1e-8:
        raise ValueError("el_residual expects a normalized extremal")
    return _multiplier_and_residual(mesh, cfg, u, free_dof_mask(mesh, hole))[1]


@dataclass
class PositivityReport:
    min_off_hole: float
    min_free: float
    max_on_hole: float
    violation: bool


def positivity_check(result: TraceResult, hole: BoundaryHole) -> PositivityReport:
    """Hopf-style check: the extremal should be strictly positive away from
    the closed hole and exactly zero on it."""
    mesh = result.mesh
    u = result.extremal
    hole_verts = hole.vertex_indices(mesh)
    adjacent = np.zeros(mesh.n_vertices, dtype=bool)
    if hole_verts.size:
        touching = np.any(np.isin(mesh.cells, hole_verts), axis=1)
        adjacent[np.unique(mesh.cells[touching])] = True
    off = ~adjacent
    min_off = float(u[off].min()) if np.any(off) else float("nan")
    free = free_dof_mask(mesh, hole)
    min_free = float(u[free].min()) if np.any(free) else float("nan")
    max_on = float(np.abs(u[hole_verts]).max()) if hole_verts.size else 0.0
    return PositivityReport(min_off, min_free, max_on,
                            violation=bool(min_off < 0))
