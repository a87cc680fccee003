"""Independent oracles used by the test suite.

Everything here is deliberately written against the raw mesh arrays with
plain loops and scipy routines, not through the package's assembly code,
so solver results are cross-checked by a genuinely different route.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp

from traceholes.geometry import Disk, TangentialField, hole_arcs
from traceholes.trace_solver import solve_trace_constant


def inscribed_polygon_perimeter(n, radius=1.0):
    """Perimeter of the regular n-gon inscribed in a circle."""
    return 2.0 * n * radius * np.sin(np.pi / n)


def interval_trace_constant_shooting():
    """S for the interval (0,1) with the field pinned at the left endpoint,
    p = q = 2.

    The extremal solves -u'' + u = 0 with u(0) = 0 and the Steklov
    condition u'(1) = lambda u(1); integrating the initial value problem
    u(0) = 0, u'(0) = 1 gives lambda = u'(1)/u(1).
    """
    def rhs(_, y):
        return [y[1], y[0]]

    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), [0.0, 1.0],
                                    rtol=1e-12, atol=1e-14, dense_output=True)
    u, du = sol.y[0, -1], sol.y[1, -1]
    return du / u


def assemble_p2_matrices(mesh):
    """Dense stiffness, lumped mass and boundary (2-point Gauss) mass for
    p = q = 2, assembled with plain loops."""
    nv = mesh.n_vertices
    K = np.zeros((nv, nv))
    Mdiag = np.zeros(nv)
    B = np.zeros((nv, nv))
    if mesh.dim == 1:
        for (i, j) in mesh.cells:
            h = mesh.vertices[j, 0] - mesh.vertices[i, 0]
            K[i, i] += 1 / h
            K[j, j] += 1 / h
            K[i, j] -= 1 / h
            K[j, i] -= 1 / h
            Mdiag[i] += h / 2
            Mdiag[j] += h / 2
        for f, row in enumerate(mesh.boundary):
            B[row[0], row[0]] += mesh.facet_lengths[f]
        return K, Mdiag, B
    for tri in mesh.cells:
        pts = mesh.vertices[tri]
        e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        b = np.array([pts[1][1] - pts[2][1], pts[2][1] - pts[0][1],
                      pts[0][1] - pts[1][1]])
        c = np.array([pts[2][0] - pts[1][0], pts[0][0] - pts[2][0],
                      pts[1][0] - pts[0][0]])
        for i in range(3):
            Mdiag[tri[i]] += area / 3
            for j in range(3):
                K[tri[i], tri[j]] += (b[i] * b[j] + c[i] * c[j]) / (4 * area)
    for f, (i, j) in enumerate(mesh.boundary):
        L = mesh.facet_lengths[f]
        # two-point Gauss of phi_i phi_j along the facet (exact here)
        B[i, i] += L / 3
        B[j, j] += L / 3
        B[i, j] += L / 6
        B[j, i] += L / 6
    return K, Mdiag, B


def _cell_gradients(mesh, cell):
    """(measure, hat-function gradients as rows) of one P1 cell."""
    pts = mesh.vertices[cell]
    if mesh.dim == 1:
        h = pts[1, 0] - pts[0, 0]
        return h, np.array([[-1.0 / h], [1.0 / h]])
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    b = np.array([pts[1][1] - pts[2][1], pts[2][1] - pts[0][1],
                  pts[0][1] - pts[1][1]])
    c = np.array([pts[2][0] - pts[1][0], pts[0][0] - pts[2][0],
                  pts[1][0] - pts[0][0]])
    return area, np.column_stack([b, c]) / (2 * area)


def linalg_operators(vertices, cells, quad_simplices, bary):
    """(A = [D; Q] as CSR, cell measures, lumped mass) with the gradients
    and measures from np.linalg.inv and np.linalg.det of the edge matrices,
    and Q from the barycentric rows ``bary`` of the quadrature points."""
    dim = cells.shape[1] - 1
    E = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
    vol = np.linalg.det(E) / math.factorial(dim)
    Einv = np.linalg.inv(E)
    grads = np.concatenate([-Einv.sum(axis=2, keepdims=True), Einv], axis=2)
    n = vertices.shape[0]

    def rows(data, indices):
        return sp.csr_matrix((data, indices.ravel(),
                              np.arange(0, indices.size + 1, indices.shape[1])),
                             shape=(indices.shape[0], n))
    D = rows(grads.transpose(1, 0, 2).ravel(), np.tile(cells, (dim, 1)))
    Q = rows(np.repeat(bary, len(quad_simplices), axis=0).ravel(),
             np.tile(quad_simplices, (len(bary), 1)))
    mass = np.zeros(n)
    np.add.at(mass, cells, (vol / (dim + 1))[:, None])
    return sp.vstack([D, Q], format="csr"), vol, mass


# Quadrature of the boundary facets, keyed by their vertex count: a point
# facet is one node of unit weight, a segment two-point Gauss.
_G = 0.5 / math.sqrt(3.0)
_GAUSS = {1: (np.array([[1.0]]), np.array([1.0])),
         2: (np.array([[0.5 + _G, 0.5 - _G], [0.5 - _G, 0.5 + _G]]),
             np.array([0.5, 0.5]))}


def oracle_forms(mesh, cfg):
    """u -> (E, dE, B, dB): the P1 energy and boundary norm of the module
    docstring of ``traceholes.fem`` and their nodal gradients, for fields of
    any sign, on the operators of ``linalg_operators``."""
    p, q, eps = cfg.p, cfg.q, cfg.eps
    bary, weights = _GAUSS[mesh.boundary.shape[1]]
    A, vol, mass = linalg_operators(mesh.vertices, mesh.cells, mesh.boundary,
                                    bary)
    n = mesh.dim * len(mesh.cells)
    D, Q = A[:n], A[n:]
    w = np.outer(weights, mesh.facet_lengths).ravel()

    def evaluate(u):
        Du = (D @ u).reshape(mesh.dim, -1)
        s = eps**2 + (Du * Du).sum(axis=0)
        E = float(vol @ s ** (p / 2) + mass @ np.abs(u) ** p)
        flux = Du * (p * vol * s ** ((p - 2) / 2))
        dE = D.T @ flux.ravel() + p * mass * np.sign(u) * np.abs(u) ** (p - 1)
        Qu = Q @ u
        B = float(w @ np.abs(Qu) ** q)
        dB = Q.T @ (q * w * np.sign(Qu) * np.abs(Qu) ** (q - 1))
        return E, dE, B, dB
    return evaluate


def oracle_quotient(mesh, cfg):
    """(value, gradient) of the quotient E / B^(p/q) from ``oracle_forms``."""
    forms, r = oracle_forms(mesh, cfg), cfg.p / cfg.q

    def value(u):
        E, _, B, _ = forms(u)
        return E / B**r

    def gradient(u):
        E, dE, B, dB = forms(u)
        return dE / B**r - r * E * dB / B ** (r + 1)
    return value, gradient


def el_residual(mesh, cfg, result, hole):
    """Dual norm of the Euler-Lagrange residual over free nodal tests.

    max_phi |a(u, phi) - lambda b(u, phi)| / ||phi|| with phi ranging over
    free nodal directions equals the Euclidean norm of the free residual
    vector, a = dE / p and b = dB / q there.  lambda is their least-squares
    multiplier; the extremal must be boundary-normalized.
    """
    _, dE, B, dB = oracle_forms(mesh, cfg)(result.extremal)
    if abs(B - 1.0) > 1e-8:
        raise ValueError("el_residual expects a normalized extremal")
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    a, b = dE[free] / cfg.p, dB[free] / cfg.q
    lam = float(a @ b) / float(b @ b)
    return float(np.linalg.norm(a - lam * b))


@dataclass
class PositivityReport:
    min_off_hole: float
    min_free: float
    max_on_hole: float
    violation: bool


def positivity_check(result, hole):
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
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole_verts] = False
    min_free = float(u[free].min()) if np.any(free) else float("nan")
    max_on = float(np.abs(u[hole_verts]).max()) if hole_verts.size else 0.0
    return PositivityReport(min_off, min_free, max_on,
                            violation=bool(min_off < 0))


def assemble_weighted_metric(mesh, c, c_m):
    """Dense sum over cells of |cell| c_cell grad phi_i . grad phi_j plus
    the lumped mass times c_m on the diagonal, with plain loops."""
    nv = mesh.n_vertices
    A = np.zeros((nv, nv))
    for k, cell in enumerate(mesh.cells):
        measure, grads = _cell_gradients(mesh, cell)
        for a, i in enumerate(cell):
            A[i, i] += measure / len(cell) * c_m[i]
            for b, j in enumerate(cell):
                A[i, j] += measure * c[k] * float(grads[a] @ grads[b])
    return A


def lagged_weights(mesh, u, p, eps, delta):
    """Cell weights (eps^2 + delta_D^2 + |grad u|^2)^((p-2)/2) and vertex
    weights (delta_u^2 + u^2)^((p-2)/2), with delta_D and delta_u delta
    times the measure-weighted RMS of |grad u| and of |u|."""
    measures, sq = [], []
    mass = np.zeros(mesh.n_vertices)
    for cell in mesh.cells:
        measure, grads = _cell_gradients(mesh, cell)
        g = grads.T @ u[cell]
        measures.append(measure)
        sq.append(float(g @ g))
        mass[cell] += measure / len(cell)
    measures, sq = np.array(measures), np.array(sq)
    d2 = delta**2 * (measures @ sq) / measures.sum()
    m2 = delta**2 * (mass @ u**2) / mass.sum()
    e = (p - 2.0) / 2.0
    return (eps**2 + d2 + sq) ** e, (m2 + u**2) ** e


def dense_trace_eigenpair(mesh, hole):
    """Smallest generalized eigenvalue of (K + M) z = lambda B z on the
    free DOFs, via scipy's dense symmetric solver; returns (lambda, u)
    with u boundary-normalized.
    """
    K, Mdiag, B = assemble_p2_matrices(mesh)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    A_f = (K + np.diag(Mdiag))[np.ix_(free, free)]
    B_f = B[np.ix_(free, free)]
    # B is singular (interior DOFs), so solve B z = mu A z with A positive
    # definite and invert the largest eigenvalue.
    mu, vecs = scipy.linalg.eigh(B_f, A_f)
    lam = 1.0 / mu[-1]
    u = np.zeros(mesh.n_vertices)
    u[free] = np.abs(vecs[:, -1])
    u = u / np.sqrt(float(u @ (B @ u)))
    return lam, u


def central_difference_gradient(fun, u, h=1e-6):
    g = np.zeros_like(u)
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (fun(up) - fun(um)) / (2 * h)
    return g


def one_dim_limit_constant_reference(p, free_fraction, length=1.0):
    """Direct evaluation of the closed-form limit constant.

    (2 pi)^p (p-1) / (2 a L p sin(pi/p))^p + 1 with a the fraction of the
    interval NOT covered by the hole; equals the Dirichlet-Neumann
    eigenvalue of the p-Laplacian on a segment of length a*L, plus one.
    """
    a = free_fraction
    return ((2 * np.pi) ** p * (p - 1)
            / (2 * a * length * p * np.sin(np.pi / p)) ** p) + 1.0


def mesh_to_json(mesh):
    """The mesh as nested lists, the JSON document mesh.json holds."""
    return {
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cells.tolist(),
        "boundary": mesh.boundary.tolist(),
    }


def json_text(payload):
    """The text of a JSON artifact as the standard encoder writes it."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(header, rows):
    """The text of a CSV artifact as csv.writer writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cell_volumes(mesh):
    """Signed cell measures (positive for a correctly oriented mesh)."""
    v = mesh.vertices
    c = mesh.cells
    if mesh.dim == 1:
        return (v[c[:, 1], 0] - v[c[:, 0], 0])
    e1 = v[c[:, 1]] - v[c[:, 0]]
    e2 = v[c[:, 2]] - v[c[:, 0]]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def boundary_measure(mesh, hole):
    """Exactly rounded sum of the member facet measures."""
    bad = [i for i in hole.facet_indices if i < 0 or i >= mesh.n_facets]
    if bad:
        raise ValueError(f"hole facets {bad} not valid for this mesh")
    return math.fsum(float(mesh.facet_lengths[i]) for i in hole.facet_indices)


def rotation_field(mesh, speed):
    """Rigid rotation of a disk with constant boundary speed."""
    if not isinstance(mesh.domain, Disk):
        raise ValueError("rotation fields are defined for disks only")
    return TangentialField(
        lambda s: np.full_like(np.asarray(s, dtype=float), float(speed)),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        float("inf"), "rotation")


def hole_arcs_loop(mesh, hole):
    """Maximal cyclic runs of hole facets as (first_facet, count) pairs,
    found by walking the facets one at a time."""
    if not hole.facet_indices:
        return []
    nf = mesh.n_facets
    idx = sorted(hole.facet_indices)
    if len(idx) == nf:
        return [(0, nf)]
    member = np.zeros(nf, dtype=bool)
    member[idx] = True
    runs = []
    i = 0
    while i < nf:
        if member[i] and not member[(i - 1) % nf]:
            j = i
            count = 0
            while member[j % nf]:
                count += 1
                j += 1
            runs.append((i, count))
            i += count
        else:
            i += 1
    return runs


def rectangle_mesh_loops(mesh):
    """Cells, boundary facets and facet arclength offsets of a structured
    rectangle mesh, built square by square and facet by facet from its
    grid size and vertices."""
    nx, ny = mesh.meta["grid"]

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    facets = []
    for i in range(nx):                       # bottom, x increasing
        facets.append((vid(i, 0), vid(i + 1, 0)))
    for j in range(ny):                       # right, y increasing
        facets.append((vid(nx, j), vid(nx, j + 1)))
    for i in range(nx, 0, -1):                # top, x decreasing
        facets.append((vid(i, ny), vid(i - 1, ny)))
    for j in range(ny, 0, -1):                # left, y decreasing
        facets.append((vid(0, j), vid(0, j - 1)))
    boundary = np.array(facets)
    v = mesh.vertices
    lengths = np.linalg.norm(v[boundary[:, 1]] - v[boundary[:, 0]], axis=1)
    arclength = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    return np.array(cells), boundary, arclength


def disk_mesh_loops(mesh):
    """Vertices, cells, boundary facets and facet arclength offsets of a
    concentric-ring disk mesh, built ring by ring and cell by cell from its
    radius and ring count."""
    r = mesh.domain.radius
    m = mesh.meta["rings"]

    # ring i (1..m) holds 6i vertices at radius r*i/m; sectors of 60 degrees
    # share their boundary rays across rings, so the zigzag triangulation
    # below is conforming.
    ring_start = [0, 1]
    for i in range(1, m + 1):
        ring_start.append(ring_start[-1] + 6 * i)
    verts = [(0.0, 0.0)]
    for i in range(1, m + 1):
        rho = r * i / m
        ang = 2.0 * np.pi * np.arange(6 * i) / (6 * i)
        verts.extend(zip(rho * np.cos(ang), rho * np.sin(ang)))
    vertices = np.array(verts)

    def ring_vertex(i, j):
        if i == 0:
            return 0
        return ring_start[i] + (j % (6 * i))

    cells = []
    for i in range(1, m + 1):
        for s in range(6):
            outer = [ring_vertex(i, s * i + k) for k in range(i + 1)]
            inner = [ring_vertex(i - 1, s * (i - 1) + k) for k in range(max(i, 1))]
            if i == 1:
                inner = [0]
            for k in range(i):
                cells.append((outer[k], outer[k + 1], inner[k]))
            for k in range(i - 1):
                cells.append((inner[k], outer[k + 1], inner[k + 1]))
    cells = np.array(cells)

    nb = 6 * m
    b0 = ring_start[m]
    boundary = np.column_stack([b0 + np.arange(nb),
                                b0 + (np.arange(nb) + 1) % nb])
    lengths = np.linalg.norm(
        vertices[boundary[:, 1]] - vertices[boundary[:, 0]], axis=1)
    arclength = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    return vertices, cells, boundary, arclength


def is_contiguous_arc(mesh, hole):
    return len(hole_arcs(mesh, hole)) == 1


def solve_with_restarts(mesh, cfg, hole, restarts=3, seed=0):
    """A cold solve plus random positive restarts: the best result, the
    relative spread of the values found, and the values."""
    rng = np.random.default_rng(seed)
    results = [solve_trace_constant(mesh, cfg, hole)]
    for _ in range(restarts):
        u0 = rng.uniform(0.5, 1.5, size=mesh.n_vertices)
        results.append(solve_trace_constant(mesh, cfg, hole, init=u0))
    values = [r.s_value for r in results]
    best = results[int(np.argmin(values))]
    spread = (max(values) - min(values)) / max(abs(best.s_value), 1e-300)
    return best, spread, values


@dataclass
class FiberProjection:
    x: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    @property
    def max_relative_std(self):
        scale = float(np.max(np.abs(self.mean)))
        return float(np.max(self.std)) / max(scale, 1e-300)


def project_to_limit(mesh, u):
    """Average a thin-rectangle field over vertical fibers; the spread per
    fiber measures how far the field is from its y-independent limit."""
    if "grid" not in mesh.meta:
        raise ValueError("fiber projection needs a structured rectangle mesh")
    nx, ny = mesh.meta["grid"]
    grid = np.asarray(u).reshape(ny + 1, nx + 1)
    x = mesh.vertices[: nx + 1, 0]
    return FiberProjection(x, grid.mean(axis=0), grid.std(axis=0))
