"""Trace constant S(Gamma) for a fixed boundary hole.

The hole's facet vertices are eliminated from the DOF set (the field
vanishes on the whole facet since elements are P1), and the discrete
Rayleigh quotient is minimized by projected Barzilai-Borwein descent on
the unit boundary-norm sphere.  The returned extremal is nonnegative and
normalized; the Euler-Lagrange multiplier lambda is recovered on first read
by least squares from the stationarity system a(u, phi_i) = lambda b(u, phi_i)
over free DOFs, so |lambda - s_value| is an independent convergence
diagnostic (they coincide for the exact normalized extremal).
"""

from __future__ import annotations

import functools
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
    iterations: int
    converged: bool
    mesh: Mesh
    hole: BoundaryHole
    cfg: ProblemConfig

    @functools.cached_property
    def _multiplier(self):      # (lambda, residual)
        return _multiplier_and_residual(self.mesh, self.cfg, self.extremal,
                                        free_dof_mask(self.mesh, self.hole))

    lam = property(lambda self: self._multiplier[0])
    el_residual = property(lambda self: self._multiplier[1])


def free_dof_mask(mesh: Mesh, hole: BoundaryHole) -> np.ndarray:
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    return free


def solve_trace_constant(mesh: Mesh, cfg: ProblemConfig, hole: BoundaryHole,
                         init: Optional[np.ndarray] = None) -> TraceResult:
    """Minimize the discrete quotient over fields vanishing on the hole."""
    cfg.validate_subcritical(mesh.dim)
    free = free_dof_mask(mesh, hole)
    if not free[mesh.boundary].any():
        raise NotAdmissibleError(
            "hole covers every boundary vertex: empty admissible class")
    res = fem.forms(mesh).solve(cfg, free, init)
    return TraceResult(res.value, res.u, res.iterations, res.converged,
                       mesh, hole, cfg)


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
    return lam, float(np.linalg.norm(a - lam * b))
