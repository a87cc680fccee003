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
quadrature points of the denominator, and the lumped mass.  Then

    E(u)  = vol . (eps^2 + |D u|^2)^(p/2) + m . |u|^p,
    dE(u) = D^T (p vol (eps^2 + |D u|^2)^((p-2)/2) D u) + p m |u|^(p-2) u,
    B(u)  = w . |Q u|^q,    dB(u) = Q^T (q w |Q u|^(q-2) Q u),

and the W^{1,2} metric is D^T diag(vol) D + diag(m).  For p != 2 the
descent uses the lagged metric D^T diag(vol c) D + diag(m c_m), with the
p-Laplacian's coefficients c, c_m frozen at an iterate (``lagged_metric``).
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

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


def _csr(data, indices, n_cols):
    """CSR matrix whose row r holds ``data`` at the columns ``indices[r]``."""
    n_rows, row_nnz = indices.shape
    indptr = np.arange(0, indices.size + 1, row_nnz, dtype=np.int32)
    return sp.csr_matrix((data, indices.ravel(), indptr), shape=(n_rows, n_cols))


def _signed_power(x, e):
    """|x|^(e-1) x with the continuous extension 0 at x = 0 (needs e > 0)."""
    return np.sign(x) * np.abs(x) ** e


class Operators:
    """Sparse P1 operators of one simplicial mesh, built once and shared by
    every quotient evaluated on it.

    D     CSR (dim * n_cells, n_vertices): row k * n_cells + c is the k-th
          gradient component on cell c; DT is its transpose, also CSR.
    vol   weight of the gradient density per cell (cell measure).
    mass  lumped weight of |u|^p per vertex.
    Q     CSR interpolation to the quadrature points of the denominator on
          the simplices ``quad_simplices`` (row k * n + f is point k of
          simplex f); w holds the quadrature weights, QT is Q's transpose.

    Optional nodal weights ``rho`` (of the energy: cell averages scale vol,
    nodal values scale mass) and ``beta`` (of the denominator, interpolated
    to the quadrature points) give the weighted 1D limit forms.  The object
    keeps no reference to a Mesh, so caching it under its mesh as a weak key
    frees both together.
    """

    def __init__(self, vertices, cells, quad_simplices, quad_measures,
                 rho=None, beta=None):
        nv, npc = vertices.shape[0], cells.shape[1]
        self.dim = npc - 1
        # rows of E are the edge vectors x_k - x_0; the columns of E^{-1}
        # are the gradients of the hat functions of vertices 1..dim
        E = vertices[cells[:, 1:]] - vertices[cells[:, :1]]
        vol = np.linalg.det(E) / math.factorial(self.dim)
        if np.any(vol <= 0):
            raise ValueError("mesh has non-positively oriented cells")
        Einv = np.linalg.inv(E)
        grads = np.concatenate([-Einv.sum(axis=2, keepdims=True), Einv], axis=2)
        del E, Einv    # dense temporaries go before D and DT are built
        self.D = _csr(grads.transpose(1, 0, 2).ravel(),
                      np.tile(cells.astype(np.int32), (self.dim, 1)), nv)
        del grads
        self.DT = self.D.T.tocsr()
        self.mass = np.bincount(cells.ravel(), minlength=nv,
                                weights=np.repeat(vol / npc, npc))
        if rho is not None:
            vol = vol * rho[cells].mean(axis=1)
            self.mass = self.mass * rho
        self.vol = vol
        bary, weights = _RULES[quad_simplices.shape[1]]
        self.Q = _csr(np.repeat(bary, quad_simplices.shape[0], axis=0).ravel(),
                      np.tile(quad_simplices.astype(np.int32), (bary.shape[0], 1)), nv)
        self.QT = self.Q.T.tocsr()
        self.w = np.outer(weights, quad_measures).ravel()
        if beta is not None:
            self.w = self.w * (self.Q @ beta)
        self._h1 = None
        self._last_density = None

    def _point_weights(self, simplex_weights):
        if simplex_weights is None:
            return self.w
        return self.w * np.tile(simplex_weights, self.w.size // simplex_weights.size)

    def density(self, cfg: ProblemConfig, u):
        """D u and eps^2 + |grad u|^2 per cell, both read-only.  The result
        for a read-only array that owns its data (a descent iterate, whose
        E and dE are both asked for) is kept for the next call; a writable
        array is never served from it."""
        last = self._last_density
        if last is not None and last[0] is u and last[1] == cfg.eps \
                and not u.flags.writeable:
            return last[2], last[3]
        self._last_density = None       # the old arrays go before the new
        Du = self.D @ u
        s = cfg.eps**2 + (Du * Du).reshape(self.dim, -1).sum(axis=0)
        Du.flags.writeable = s.flags.writeable = False
        if isinstance(u, np.ndarray) and not u.flags.writeable \
                and u.flags.owndata:
            self._last_density = (u, cfg.eps, Du, s)
        return Du, s

    def energy(self, cfg: ProblemConfig, u) -> float:
        _, s = self.density(cfg, u)
        return float(self.vol @ s ** (cfg.p / 2.0)
                     + self.mass @ np.abs(u) ** cfg.p)

    def energy_gradient(self, cfg: ProblemConfig, u) -> np.ndarray:
        p = cfg.p
        Du, s = self.density(cfg, u)
        flux = Du.reshape(self.dim, -1) * (p * self.vol * s ** ((p - 2.0) / 2.0))
        return (self.DT @ flux.ravel()
                + p * self.mass * _signed_power(u, p - 1.0))

    def point_integrand(self, cfg: ProblemConfig, u) -> np.ndarray:
        """w |u|^q at every quadrature point, in the row order of Q."""
        return self.w * np.abs(self.Q @ u) ** cfg.q

    def norm(self, cfg: ProblemConfig, u, simplex_weights=None) -> float:
        w = self._point_weights(simplex_weights)
        return float(w @ np.abs(self.Q @ u) ** cfg.q)

    def norm_gradient(self, cfg: ProblemConfig, u,
                      simplex_weights=None) -> np.ndarray:
        q = cfg.q
        w = self._point_weights(simplex_weights)
        return self.QT @ (q * w * _signed_power(self.Q @ u, q - 1.0))

    def metric(self, c=None, c_m=None):
        """D^T diag(vol c) D + diag(mass c_m): the W^{1,2} metric with cell
        weights c and vertex weights c_m (both 1 when None)."""
        vol = self.vol if c is None else self.vol * c
        mass = self.mass if c_m is None else self.mass * c_m
        row_vol = np.repeat(np.tile(vol, self.dim), self.dim + 1)
        Dw = sp.csr_matrix((self.D.data * row_vol, self.D.indices,
                            self.D.indptr), shape=self.D.shape)
        K = self.DT @ Dw
        K.setdiag(K.diagonal() + mass)
        return K

    def h1(self):
        """The unweighted metric, assembled on first use and kept."""
        if self._h1 is None:
            self._h1 = self.metric()
        return self._h1

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

    def descent_metric(self, cfg: ProblemConfig):
        """The descent's metric callback (u, delta) -> lagged metric, or
        None at p = 2, where the fixed W^{1,2} metric is the
        p-Laplacian's own."""
        if cfg.p == 2:
            return None
        return functools.partial(self.lagged_metric, cfg)


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


def facet_boundary_energy(mesh: Mesh, cfg: ProblemConfig,
                          u: np.ndarray) -> np.ndarray:
    """Per-facet integral of |u|^q by the quadrature of the norm."""
    return forms(mesh).point_integrand(cfg, u).reshape(-1, mesh.n_facets).sum(axis=0)


def energy(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> float:
    return forms(mesh).energy(cfg, u)


def boundary_norm_q(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray,
                    facet_weights: Optional[np.ndarray] = None) -> float:
    """Integral of |u|^q over the boundary (optionally facet-weighted)."""
    return forms(mesh).norm(cfg, u, facet_weights)


def _check_admissible(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> None:
    if np.max(np.abs(u[mesh.boundary]), initial=0.0) <= cfg.dof_tolerance:
        raise NotAdmissibleError(
            "field vanishes on the whole boundary within dof_tolerance; "
            "the quotient is only defined off W^{1,p}_0")


def rayleigh_quotient(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> float:
    _check_admissible(mesh, cfg, u)
    return energy(mesh, cfg, u) / boundary_norm_q(mesh, cfg, u) ** (cfg.p / cfg.q)


def energy_gradient(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> np.ndarray:
    return forms(mesh).energy_gradient(cfg, u)


def boundary_norm_gradient(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray,
                           facet_weights: Optional[np.ndarray] = None) -> np.ndarray:
    return forms(mesh).norm_gradient(cfg, u, facet_weights)


def quotient_gradient(mesh: Mesh, cfg: ProblemConfig, u: np.ndarray) -> np.ndarray:
    """Exact nodal gradient of the discrete Rayleigh quotient."""
    _check_admissible(mesh, cfg, u)
    E = energy(mesh, cfg, u)
    B = boundary_norm_q(mesh, cfg, u)
    dE = energy_gradient(mesh, cfg, u)
    dB = boundary_norm_gradient(mesh, cfg, u)
    r = cfg.p / cfg.q
    return dE / B**r - r * E * dB / B ** (r + 1.0)


def h1_operator(mesh: Mesh):
    """Sparse stiffness + lumped mass matrix (the W^{1,2} metric that
    preconditions descent at p = 2 and cold starts at other p); cached
    with the mesh, so callers must not modify it."""
    return forms(mesh).h1()
