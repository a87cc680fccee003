"""First-order sensitivity of the trace constant under tangential motion
of the hole.

For a tangential field V with flow moving the hole, the derivative of
s(t) at t = 0 splits into a boundary part and a volume part,

    ds/dt = -(p/q) S int_bdry |u|^q div_tau V dH  +  R(u),
    R(u)  = int (|u|^p + |grad u|^p) div V dx
            - p int |grad u|^{p-2} <grad u, DV^T grad u> dx,

assembled here with the normalized discrete extremal u: the boundary term
by per-facet Gauss quadrature with the closed-form tangential divergence
(the arclength derivative of the speed), the volume terms by centroid
quadrature of div V and DV from the field's interior extension.

Hole transport moves each arc endpoint by t times its local speed and
re-snaps to whole facets, so finite differences of s(t) carry a facet
quantization floor; central-difference checks should keep the endpoint
displacement well above one facet (or an exact multiple of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import fem
from .fem import ProblemConfig
from .geometry import (
    BoundaryHole, Mesh, TangentialField, arc_interval,
    field_divergence_and_jacobian, hole_arcs, hole_from_facets,
    make_hole_from_arc,
)
from .trace_solver import TraceResult, solve_trace_constant


@dataclass
class ShapeDerivativeResult:
    ds_dt: float
    boundary_term: float
    volume_term: float


def evaluate_shape_derivative(mesh: Mesh, cfg: ProblemConfig,
                              hole: BoundaryHole, V: TangentialField,
                              trace: TraceResult) -> ShapeDerivativeResult:
    """Assemble the two terms of ds/dt(0) for the normalized extremal."""
    if not trace.converged:
        raise ValueError("shape derivative needs a converged trace result")
    return _shape_derivative(mesh, cfg, V, trace)


def _shape_derivative(mesh: Mesh, cfg: ProblemConfig, V: TangentialField,
                      trace: TraceResult) -> ShapeDerivativeResult:
    """The two terms of ds/dt(0) for the trace's extremal, converged or
    not."""
    u = trace.extremal
    B = fem.boundary_norm_q(mesh, cfg, u)
    if abs(B - 1.0) > 1e-8:
        raise ValueError("shape derivative is stated for the normalized extremal")

    p, q = cfg.p, cfg.q
    ops = fem.forms(mesh)

    # boundary term: -(p/q) S  int |u|^q div_tau V, with div_tau V = v'(s)
    dv = np.asarray(V.dspeed(fem.boundary_arclengths(mesh)), dtype=float)
    bint = float(ops.point_integrand(cfg, u) @ dv)
    boundary_term = -(p / q) * trace.s_value * bint

    # volume term R(u) at cell centroids
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    div, DV = field_divergence_and_jacobian(mesh, V, centroids)
    Du, dens_grad = ops.density(cfg, u)
    gx, gy = Du.reshape(2, -1)
    dens = dens_grad ** (p / 2.0) \
        + np.mean(np.abs(u[mesh.cells]) ** p, axis=1)
    term1 = float(np.sum(ops.vol * dens * div))
    w0 = DV[:, 0, 0] * gx + DV[:, 1, 0] * gy   # (DV^T grad u)_x
    w1 = DV[:, 0, 1] * gx + DV[:, 1, 1] * gy
    inner = gx * w0 + gy * w1
    term2 = -p * float(np.sum(
        ops.vol * dens_grad ** ((p - 2.0) / 2.0) * inner))
    volume_term = term1 + term2
    return ShapeDerivativeResult(boundary_term + volume_term,
                                 boundary_term, volume_term)


def transport_hole(mesh: Mesh, hole: BoundaryHole, V: TangentialField,
                   t: float) -> BoundaryHole:
    """Move each maximal arc of the hole by the first-order flow and re-snap
    its endpoints to whole facets."""
    arcs = hole_arcs(mesh, hole)
    if not arcs:
        return hole
    if len(arcs) == 1 and arcs[0][1] == mesh.n_facets:
        raise ValueError("cannot transport a hole covering the full boundary")
    P = mesh.perimeter
    moved = []
    for first, count in arcs:
        s_a, s_b = arc_interval(mesh, first, count)
        va = float(V.speed(s_a % P))
        vb = float(V.speed(s_b % P))
        na, nb = s_a + t * va, s_b + t * vb
        if nb - na <= 0:
            raise ValueError(f"arc collapsed under transport at t={t}")
        if nb - na >= P:
            raise ValueError(f"arc wrapped onto itself under transport at t={t}")
        moved.append((na % P, nb - na))
    moved.sort()
    facets: set = set()
    for start, length in moved:
        arc_facets = make_hole_from_arc(mesh, start, length).facet_indices
        if facets & arc_facets:
            raise ValueError(f"arcs collide under transport at t={t}")
        facets |= arc_facets
    return hole_from_facets(mesh, facets)


@dataclass
class FDCheck:
    analytic: float
    rows: List[Tuple[float, float, float]]   # (h, fd_value, relative_error)
    converged: bool    # the base solve and every transported one converged


def fd_check(mesh: Mesh, cfg: ProblemConfig, hole: BoundaryHole,
             V: TangentialField, steps,
             trace: Optional[TraceResult] = None) -> FDCheck:
    """Central differences (s(h) - s(-h)) / 2h of the transported-hole
    constant against the assembled derivative.  Each transported hole is
    solved cold; one that equals the base hole takes the base value, so a
    step that moves no facet gives a difference of exactly 0.  Every step
    is finished, and the derivative is assembled from the base extremal
    even when its solve did not converge; an unconverged solve, the base
    one included, only clears ``converged``."""
    if trace is None:
        trace = solve_trace_constant(mesh, cfg, hole)
    if trace.converged:     # the public entry point, which perfbench counts
        analytic = evaluate_shape_derivative(mesh, cfg, hole, V, trace).ds_dt
    else:
        analytic = _shape_derivative(mesh, cfg, V, trace).ds_dt
    rows, converged = [], trace.converged
    for h in steps:
        values = {}
        for sign in (+1.0, -1.0):
            moved = transport_hole(mesh, hole, V, sign * h)
            res = (trace if moved.facet_indices == hole.facet_indices
                   else solve_trace_constant(mesh, cfg, moved))
            converged = converged and res.converged
            values[sign] = res.s_value
        fd = (values[1.0] - values[-1.0]) / (2.0 * h)
        rel = abs(fd - analytic) / max(abs(analytic), 1e-300)
        rows.append((float(h), fd, rel))
    return FDCheck(analytic, rows, converged)
