"""P1 finite element forms for the trace quotient.

The discrete energy is

    E(u) = sum_cells |cell| (eps^2 + |grad u|^2)^(p/2)  +  sum_v m_v |u_v|^p

with vertex-lumped mass m_v, and the boundary norm

    B(u) = sum_facets (L_f/2) (|u(g1)|^q + |u(g2)|^q)

with two-point Gauss nodes per facet (in 1D the boundary facets are points
with unit mass and B is the plain sum of endpoint values).  The Rayleigh
quotient E / B^(p/q) is 0-homogeneous; its nodal gradient is assembled
exactly from the same quadratures.

Every form is evaluated through one set of sparse operators per mesh
(``Operators``): the cell-gradient matrix D, the interpolation Q to the
quadrature points of the denominator, stacked as A = [D; Q], and the
lumped mass.  The gradients and cell measures are in closed form, the
2x2 adjugate over the determinant (1/h in 1D), written straight into A's
arrays.  Then

    E(u)  = vol . (eps^2 + |D u|^2)^(p/2) + m . |u|^p,
    dE(u) = D^T (p vol (eps^2 + |D u|^2)^((p-2)/2) D u) + p m |u|^(p-2) u,
    B(u)  = w . |Q u|^q,    dB(u) = Q^T (q w |Q u|^(q-2) Q u),

and the W^{1,2} metric is D^T diag(vol) D + diag(m).  For p != 2 the
descent uses the lagged metric D^T diag(vol c) D + diag(m c_m), with the
p-Laplacian's coefficients c, c_m frozen at an iterate (``lagged_metric``).
``Operators.solve`` runs that descent on the quotient.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ._descent import (
    REFRESH, DescentResult, Preconditioner, band_image, minimize_quotient,
)
from .geometry import Mesh


class NotAdmissibleError(ValueError):
    """Field vanishes on the whole boundary: outside the admissible class."""


_G1, _G2 = 0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)
# Quadrature on a simplex with n vertices, keyed by n: barycentric
# coordinates of the points (one row each) and weights per unit measure.
# A point facet is evaluated exactly; segments use two-point Gauss, exact
# for cubics, so B is exact for q = 2 on P1 fields.
_RULES = {
    1: (np.array([[1.0]]), np.array([1.0])),
    2: (np.array([[_G2, _G1], [_G1, _G2]]), np.array([0.5, 0.5])),
}
# A mesh's metrics get a banded factor when the full metric's band storage,
# (bandwidth + 1) * n_vertices, is at most this many times its nonzeros:
# every 1D grid (bandwidth 1), the thin meshes (5 at mu = 1/16 and 1/64) and
# the disks at resolution 0.05, 0.025 and 0.0125 (bandwidth 41, 81 and 161,
# ratios 6, 12 and 23).  At 0.0125 the band holds 3.1M entries against 1.4M
# in SuperLU's L and U, but factors about a third faster, a median of 43
# against 63 ms.  The disk at 0.00625 (bandwidth 321, ratio 46) keeps SuperLU.
_BAND_FILL = 24


@dataclass
class ProblemConfig:
    """Exponents and solver tolerances.

    epsilon=None resolves to the module default: 0 for p >= 2, 1e-8 for
    p < 2 (the regularized gradient density (eps^2 + |grad u|^2)^(p/2)
    avoids blowup of the p-Laplacian coefficient at critical points).
    """

    p: float
    q: float
    epsilon: Optional[float] = None
    dof_tolerance: float = 1e-8
    max_inner_iterations: int = 20000

    def __post_init__(self):
        for name in ("p", "q", "epsilon", "dof_tolerance"):
            value = getattr(self, name)
            if value is None and name == "epsilon":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.p <= 1:
            raise ValueError("exponent p must exceed 1")
        if self.q < 1:
            raise ValueError("exponent q must be at least 1")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not math.isfinite(self.eps * self.eps):     # eps**2 would raise
            raise ValueError(f"epsilon must have a finite square, got {self.epsilon!r}")
        if self.dof_tolerance <= 0:
            raise ValueError("dof_tolerance must be positive")
        if self.max_inner_iterations < 1:
            raise ValueError("max_inner_iterations must be at least 1")

    @property
    def eps(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return 0.0 if self.p >= 2 else 1e-8

    def critical_exponent(self, dim: int) -> float:
        """Critical trace exponent: p(N-1)/(N-p) for p < N, infinity else."""
        if self.p < dim:
            return self.p * (dim - 1) / (dim - self.p)
        return float("inf")

    def validate_subcritical(self, dim: int) -> None:
        pstar = self.critical_exponent(dim)
        if self.q >= pstar:
            raise ValueError(
                f"q = {self.q} is not subcritical: need q < p_* = {pstar} "
                f"for p = {self.p} in dimension {dim}")


def _band_order(K) -> tuple[Optional[np.ndarray], int]:
    """The reverse Cuthill-McKee order of the metric K's graph (Cuthill and
    McKee, Proc. ACM Nat. Conf., 1969), when K's band in it is narrow
    enough for a banded factor (``_BAND_FILL``), else None, and the band's
    half-bandwidth kd in that order, either way.  Parts share no
    edge, so each is contiguous in it, and a 1D grid is in its natural
    order or the reverse: tridiagonal.  Every metric of a mesh has K's
    pattern, so K's band is theirs."""
    order = reverse_cuthill_mckee(K, symmetric_mode=True)
    pos = np.empty(order.size, dtype=K.indices.dtype)
    pos[order] = np.arange(order.size, dtype=pos.dtype)
    # K is symmetric: its band is the widest reach of a row to its left
    kd = int(np.max(pos - np.minimum.reduceat(pos[K.indices], K.indptr[:-1])))
    return (order if (kd + 1) * order.size <= _BAND_FILL * K.nnz else None), kd


def _signed_power(x, e):
    """|x|^(e-1) x with the continuous extension 0 at x = 0 (needs e > 0)."""
    return np.sign(x) * np.abs(x) ** e


class Operators:
    """Sparse P1 operators of one simplicial mesh, built once and shared by
    every quotient evaluated on it.

    D     CSR (dim * n_cells, n_vertices): row k * n_cells + c is the k-th
          gradient component on cell c.
    vol   weight of the gradient density per cell (cell measure).
    mass  lumped weight of |u|^p per vertex.
    Q     CSR interpolation to the quadrature points of the denominator on
          the simplices ``quad_simplices`` (row k * n + f is point k of
          simplex f); w holds the quadrature weights.
    A     CSR [D; Q], the rows of D and then those of Q, built in place;
          D and Q are views of its arrays.

    The object keeps no reference to a Mesh, so caching it under its mesh
    as a weak key frees both together.

    Vertex labels ``parts`` (0..k-1) split the mesh into parts that share
    no simplex; ``solve`` then minimizes each part's quotient at once,
    with the step and the lagged metric's delta shared by all.

    order The vertex order of the metrics' banded factor, or None for
          SuperLU; set at the first ``h1()``.
    refresh  The lagged metric's interval, max(REFRESH, ceil((kd + 1) / 2)) in
          h1's half-bandwidth kd in reverse Cuthill-McKee order, set with order.
    """

    def __init__(self, vertices, cells, quad_simplices, quad_measures,
                 parts=None):
        nv, (nc, npc) = vertices.shape[0], cells.shape
        self.dim = npc - 1
        # rows of E are the edge vectors x_k - x_0; the columns of E^{-1},
        # the adjugate over the determinant (1/h in 1D), are the gradients
        # of the hat functions of vertices 1..dim
        E = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
        det = (E[:, 0, 0] if self.dim == 1
               else E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0])
        vol = det / math.factorial(self.dim)
        if np.any(vol <= 0):
            raise ValueError("mesh has non-positively oriented cells")
        # A is written in place: D's dim * nc gradient rows of npc entries,
        # then Q's rows, one per quadrature point and simplex
        bary, weights = _RULES[quad_simplices.shape[1]]
        n_grad, nnz = self.dim * nc, self.dim * nc * npc
        points = (len(bary), len(quad_simplices), bary.shape[1])
        data = np.empty(nnz + math.prod(points))
        indices = np.empty(data.size, dtype=np.int32)
        indptr = np.concatenate([
            np.arange(0, nnz, npc, dtype=np.int32),
            np.arange(nnz, data.size + 1, points[2], dtype=np.int32)])
        grads = data[:nnz].reshape(self.dim, nc, npc)   # [component, cell, vertex]
        if self.dim == 1:
            grads[0, :, 1] = 1.0 / det
        else:
            grads[0, :, 1], grads[0, :, 2] = E[:, 1, 1] / det, -E[:, 0, 1] / det
            grads[1, :, 1], grads[1, :, 2] = -E[:, 1, 0] / det, E[:, 0, 0] / det
        del E
        grads[:, :, 0] = -grads[:, :, 1:].sum(axis=2)
        indices[:nnz].reshape(grads.shape)[:] = cells
        data[nnz:].reshape(points)[:] = bary[:, None]       # [point, simplex, vertex]
        indices[nnz:].reshape(points)[:] = quad_simplices
        # D and Q are views of A's arrays, so no operator is held twice; they
        # are set on empty matrices, as scipy copies a view under half its base
        self.A = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, nv))
        self.D = sp.csr_matrix((n_grad, nv))
        self.Q = sp.csr_matrix((indptr.size - 1 - n_grad, nv))
        self.D.data, self.D.indices = data[:nnz], indices[:nnz]
        self.D.indptr = indptr[:n_grad + 1]
        self.Q.data, self.Q.indices = data[nnz:], indices[nnz:]
        self.Q.indptr = indptr[n_grad:] - nnz
        self.mass = np.bincount(cells.ravel(), minlength=nv,
                                weights=np.repeat(vol / npc, npc))
        self.vol = vol
        self.w = np.outer(weights, quad_measures).ravel()
        self._parts = None
        if parts is not None:   # k and the parts of vertices, cells, rows of A and Q
            cell, simplex = parts[cells[:, 0]], parts[quad_simplices[:, 0]]
            if (np.any(parts[cells].T != cell)
                    or np.any(parts[quad_simplices].T != simplex)):
                raise ValueError("a cell or quadrature simplex straddles two parts")
            quad, k = np.tile(simplex, bary.shape[0]), int(parts.max()) + 1
            if not np.bincount(quad, self.w, k).min() > 0:
                raise ValueError("a part has no denominator weight")
            row = np.concatenate([np.tile(cell, self.dim), quad])
            self._parts = (k, parts, cell, row, quad)
        self.AT = self.A.T      # CSC on A's own arrays
        self._h1, self.order, self._image, self._h1_factors = None, None, None, 0
        self.refresh, self._DT = None, None

    def density(self, cfg: ProblemConfig, u):
        """D u and eps^2 + |grad u|^2 per cell."""
        Du = self.D @ u
        return Du, self._square_gradient(cfg, Du)

    def _square_gradient(self, cfg: ProblemConfig, Du) -> np.ndarray:
        return cfg.eps**2 + (Du * Du).reshape(self.dim, -1).sum(axis=0)

    def energy_gradient(self, cfg: ProblemConfig, u) -> np.ndarray:
        p = cfg.p
        Du, s = self.density(cfg, u)
        flux = Du.reshape(self.dim, -1) * (p * self.vol * s ** ((p - 2.0) / 2.0))
        return (self.D.T @ flux.ravel()
                + p * self.mass * _signed_power(u, p - 1.0))

    def quotient(self, cfg: ProblemConfig):
        """The descent's ``(evaluate, gradient)`` for E / B^(p/q) at u >= 0
        only (then Q u >= 0: no sign or absolute value is taken).  ``evaluate``
        makes one product A u, scales u and it to B = 1 (ValueError when
        B <= 0) and keeps s^((p-2)/2) and u^(p-1); ``gradient`` turns the
        product into dE - (p/q) E dB, in place, by one transposed product.
        With parts, each is scaled to B_k = 1 and gets dE_k - (p/q) E_k dB_k."""
        n, w, q, p, parts = self.D.shape[0], self.w, cfg.q, cfg.p, self._parts
        k, vertex, cell, row, quad = parts or (None,) * 5

        def evaluate(u):
            Au = self.A @ u
            Bq = Au[n:] ** q
            B = float(w @ Bq) if parts is None else np.bincount(quad, w * Bq, k)
            if not (B > 0 if parts is None else B.min() > 0):
                raise ValueError("cannot normalize: boundary norm vanished")
            c = B ** (-1.0 / q)
            u = u * (c if parts is None else c[vertex])
            u.flags.writeable = False
            Au *= c if parts is None else c[row]
            s = self._square_gradient(cfg, Au[:n])
            s_pow, u_pow = s ** ((p - 2.0) / 2.0), u ** (p - 1.0)
            if parts is None:
                E = E_k = float(self.vol @ (s * s_pow) + self.mass @ (u * u_pow))
            else:
                E_k = (np.bincount(cell, self.vol * s * s_pow, k)
                       + np.bincount(vertex, self.mass * u * u_pow, k))
                E = float(E_k.sum())
            return u, E, (Au, s_pow, u_pow, E_k)

        def gradient(u, E, product):
            Au, s_pow, u_pow, E_k = product
            flux = Au[:n].reshape(self.dim, -1)     # a view of Au
            flux *= p * self.vol * s_pow
            E_q = E if parts is None else E_k[quad]     # per quadrature point
            Au[n:] = -p * E_q * w * Au[n:] ** (q - 1.0)
            return self.AT @ Au + p * self.mass * u_pow
        return evaluate, gradient

    def part_quotients(self, cfg: ProblemConfig, u) -> np.ndarray:
        """E_k / B_k^(p/q) of every part k at u >= 0."""
        evaluate, _ = self.quotient(cfg)
        return evaluate(u)[2][-1]       # E_k at B_k = 1

    def point_integrand(self, cfg: ProblemConfig, u) -> np.ndarray:
        """w |u|^q at every quadrature point, in the row order of Q."""
        return self.w * np.abs(self.Q @ u) ** cfg.q

    def norm(self, cfg: ProblemConfig, u) -> float:
        return float(self.w @ np.abs(self.Q @ u) ** cfg.q)

    def norm_gradient(self, cfg: ProblemConfig, u) -> np.ndarray:
        q = cfg.q
        return self.Q.T @ (q * self.w * _signed_power(self.Q @ u, q - 1.0))

    def metric(self, c=None, c_m=None):
        """D^T diag(vol c) D + diag(mass c_m): the W^{1,2} metric with cell
        weights c and vertex weights c_m (both 1 when None)."""
        vol = self.vol if c is None else self.vol * c
        mass = self.mass if c_m is None else self.mass * c_m
        row_vol = np.repeat(np.tile(vol, self.dim), self.dim + 1)
        Dw = sp.csr_matrix((self.D.data * row_vol, self.D.indices,
                            self.D.indptr), shape=self.D.shape)
        # D^T as CSR, for a CSR product; kept from the first lagged metric on
        DT = self.D.T.tocsr() if self._DT is None else self._DT
        if c is not None:
            self._DT = DT
        K = DT @ Dw
        K.setdiag(K.diagonal() + mass)
        return K

    def h1(self):
        """The unweighted metric, assembled on first use and kept, so
        callers must not modify it.  Its first use sets ``order``, ``refresh``."""
        if self._h1 is None:
            self._h1 = self.metric()
            self.order, kd = _band_order(self._h1)
            self.refresh = max(REFRESH, (kd + 2) // 2)
        return self._h1

    def h1_image(self) -> Optional[np.ndarray]:
        """A copy of h1's band image in ``order``, kept from the second call on
        (the first factor builds its own), to pin in place; None at the
        first call or without an order."""
        if self.order is None:
            return None
        self._h1_factors += 1
        if self._image is None and self._h1_factors > 1:
            self._image = band_image(self.h1(), np.argsort(self.order))
        return None if self._image is None else self._image.copy(order="F")

    def lagged_metric(self, cfg: ProblemConfig, u, delta: float):
        """The metric with the p-Laplacian's coefficients frozen at u:

            c   = (eps^2 + delta_D^2 + |D u|^2)^((p-2)/2)   per cell,
            c_m = (delta_u^2 + |u|^2)^((p-2)/2)              per vertex,

        where delta_D and delta_u are ``delta`` times the vol- and
        mass-weighted RMS of |D u| and |u|, so the weights stay bounded
        where the field is flat or small.
        """
        e = (cfg.p - 2.0) / 2.0
        _, s = self.density(cfg, u)
        g2 = s - cfg.eps**2
        u2 = u * u
        d2 = delta**2 * (self.vol @ g2) / self.vol.sum()
        m2 = delta**2 * (self.mass @ u2) / self.mass.sum()
        return self.metric((s + d2) ** e, (u2 + m2) ** e)

    def solve(self, cfg: ProblemConfig, free) -> DescentResult:
        """The descent on E / B^(p/q) over fields vanishing off ``free``, from
        the constant field.  Its factor callback pins the W^{1,2} metric,
        from the kept band image when there is one, and, for p != 2, the
        lagged one every ``refresh`` iterations, each factored in ``order``
        when set.  The start is on h1: the lagged metric at the constant
        field is a poor model, and on disks (p = 1.5, 3) it raised cold
        solves from 22-32 to 59-95 iterations.  Its ``u`` is normalized to
        B = 1 and read-only, and ``value`` is the quotient there."""
        h1 = self.h1()      # sets the order and interval of every factor

        def factor(u, delta):
            if u is None:
                return h1, Preconditioner.pinned(h1, free, self.order,
                                                 self.h1_image())
            metric = self.lagged_metric(cfg, u, delta)
            return metric, Preconditioner.pinned(metric, free, self.order)
        return minimize_quotient(*self.quotient(cfg), cfg.p, free, factor,
                                 cfg.dof_tolerance, cfg.max_inner_iterations,
                                 self.refresh)


_FORMS_CACHE: "weakref.WeakKeyDictionary[Mesh, Operators]" = weakref.WeakKeyDictionary()


def forms(mesh: Mesh) -> Operators:
    """The mesh's operators: boundary facets carry the denominator."""
    ops = _FORMS_CACHE.get(mesh)
    if ops is None:
        ops = Operators(mesh.vertices, mesh.cells, mesh.boundary,
                        mesh.facet_lengths)
        _FORMS_CACHE[mesh] = ops
    return ops


def boundary_arclengths(mesh: Mesh) -> np.ndarray:
    """Arclength of every boundary quadrature point, in the row order of Q."""
    bary, _ = _RULES[mesh.boundary.shape[1]]
    return (mesh.facet_arclength
            + np.outer(bary[:, -1], mesh.facet_lengths)).ravel()


def boundary_norm_q(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> float:
    """Integral of |u|^q over the boundary."""
    return forms(mesh).norm(cfg, u)


def energy_gradient(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> np.ndarray:
    return forms(mesh).energy_gradient(cfg, u)


def boundary_norm_gradient(mesh: Mesh, cfg: ProblemConfig,
                           u: np.ndarray) -> np.ndarray:
    return forms(mesh).norm_gradient(cfg, u)
