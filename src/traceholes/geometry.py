"""Domains, simplicial meshes, boundary holes, and tangential boundary fields.

Every mesh carries a fixed arclength parameterization of its boundary:
facets are stored in counterclockwise walk order with cumulative arclength
offsets, so holes, arc transport and boundary quadrature all share one
coordinate.  Conventions:

* 2D domains: arclength origin at a declared boundary point (angle 0 on the
  disk, the lower-left corner on rectangles), counterclockwise orientation.
* 1D interval: the boundary is the two endpoints with counting measure
  (each endpoint is a point facet of measure 1).  For arc bookkeeping the
  left facet occupies pseudo-arclength [0, 1) and the right one [1, 2).

Meshes and holes are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple, Union

import numpy as np


class MeshResolutionError(ValueError):
    """Requested resolution cannot produce a valid mesh."""


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class Rectangle:
    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class ThinRectangle:
    """Rectangle (a, b) x (0, mu); geometrically a Rectangle, but the
    thickness mu is recorded for dimension-reduction sweeps."""

    a: float
    b: float
    mu: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("thin rectangle needs a < b")
        if self.mu <= 0:
            raise ValueError("thickness must be positive")

    def grid(self, resolution: float) -> Tuple[int, int]:
        """Cells along and across of its mesh at ``resolution``."""
        return round((self.b - self.a) / resolution), max(2, round(self.mu / resolution))


Domain = Union[Interval, Rectangle, Disk, ThinRectangle]


# ---------------------------------------------------------------------------
# mesh


@dataclass(eq=False)
class Mesh:
    """Conforming simplicial mesh with an arclength-parameterized boundary.

    boundary[i] holds the vertex indices of the i-th boundary facet in
    counterclockwise walk order; the mesh derives facet_lengths (1 per
    endpoint in 1D) and facet_arclength (start offsets) to line up with it.
    """

    dim: int
    vertices: np.ndarray          # (nv, dim)
    cells: np.ndarray             # (nc, dim + 1)
    boundary: np.ndarray          # (nf, dim)  vertex indices per facet
    facet_lengths: np.ndarray = field(init=False)     # (nf,)
    facet_arclength: np.ndarray = field(init=False)   # (nf,) start offsets
    resolution: float
    domain: Domain
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim == 1:
            self.facet_lengths = np.ones(self.n_facets)
        else:
            ends = self.vertices[self.boundary]
            self.facet_lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        self.facet_arclength = np.concatenate(
            [[0.0], np.cumsum(self.facet_lengths)[:-1]])
        for arr in (self.vertices, self.cells, self.boundary,
                    self.facet_lengths, self.facet_arclength):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_facets(self) -> int:
        return self.boundary.shape[0]

    @property
    def perimeter(self) -> float:
        """Total boundary measure H^{N-1}(boundary) in mesh bookkeeping."""
        return math.fsum(self.facet_lengths.tolist())

    def boundary_vertex_indices(self) -> np.ndarray:
        return np.unique(self.boundary)


def generate_mesh(domain: Domain, resolution: float) -> Mesh:
    """Mesh a domain with target edge length ``resolution``.

    Disk meshes use a concentric-ring triangulation (ring i carries 6i
    vertices from index 1 + 3i(i-1)) with boundary vertices exactly on the
    circle; boundary measure is that of the inscribed polygon.  Thin
    rectangles always get at least two cell layers across the thickness.
    """
    if resolution <= 0:
        raise MeshResolutionError("resolution must be positive")
    if isinstance(domain, Interval):
        return _mesh_interval(domain, resolution)
    if isinstance(domain, Rectangle):
        return _mesh_rectangle(domain.width, domain.height, resolution,
                               domain=domain)
    if isinstance(domain, ThinRectangle):
        return _mesh_rectangle(domain.b - domain.a, domain.mu, resolution,
                               domain=domain, x0=domain.a,
                               grid=domain.grid(resolution))
    if isinstance(domain, Disk):
        return _mesh_disk(domain, resolution)
    raise TypeError(f"unknown domain {domain!r}")


def _mesh_interval(domain: Interval, resolution: float) -> Mesh:
    length = domain.b - domain.a
    n = round(length / resolution)
    if n < 2:
        raise MeshResolutionError(
            f"resolution {resolution} too coarse for {domain}: "
            "need at least 2 cells")
    x = np.linspace(domain.a, domain.b, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    boundary = np.array([[0], [n]])
    return Mesh(1, x, cells, boundary, resolution, domain)


def _mesh_rectangle(width, height, resolution, domain, x0=0.0, grid=None) -> Mesh:
    nx, ny = grid or (round(width / resolution), round(height / resolution))
    if nx < 1 or ny < 1 or 2 * (nx + ny) < 4:
        raise MeshResolutionError(
            f"resolution {resolution} too coarse for {domain}: "
            "fewer than 4 boundary facets")
    xs = np.linspace(x0, x0 + width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # vertex (i, j) has index j * (nx + 1) + i; each grid square, row by
    # row, gives the cells (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    cells = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)

    # boundary walk: bottom (x increasing), right (y increasing), top (x
    # decreasing), left (y decreasing); facet k runs from walk[k] to the next
    walk = np.concatenate([np.arange(nx), nx + (nx + 1) * np.arange(ny),
                           ny * (nx + 1) + np.arange(nx, 0, -1),
                           (nx + 1) * np.arange(ny, 0, -1)])
    boundary = np.column_stack([walk, np.roll(walk, -1)])
    return Mesh(2, vertices, cells, boundary, resolution, domain,
                {"grid": (nx, ny)})


def _mesh_disk(domain: Disk, resolution: float) -> Mesh:
    r = domain.radius
    m = round(r / resolution)
    if m < 1:
        raise MeshResolutionError(
            f"resolution {resolution} too coarse for {domain}: "
            "fewer than 4 boundary facets")

    # ring i (1..m) holds 6i vertices at radius r*i/m, starting at index
    # 1 + 3i(i-1) with the centre at index 0
    ring = np.repeat(np.arange(1, m + 1), 6 * np.arange(1, m + 1))
    rho = r * ring / m
    j = np.arange(ring.size) - 3 * ring * (ring - 1)    # index on the ring
    ang = 2.0 * np.pi * j / (6 * ring)
    vertices = np.vstack([[0.0, 0.0], np.column_stack([rho * np.cos(ang),
                                                       rho * np.sin(ang)])])

    # sectors of 60 degrees share their boundary rays across rings, so the
    # zigzag triangulation is conforming.  outer[s, k] is vertex s*i + k of
    # ring i; sector s holds the i cells (outer[k], outer[k+1], inner[k]),
    # then the i-1 cells (inner[k], outer[k+1], inner[k+1]) between rings
    cells = []
    inner = np.zeros((6, 1), dtype=int)       # the centre, for ring 1
    for i in range(1, m + 1):
        outer = 1 + 3 * i * (i - 1) + (
            i * np.arange(6)[:, None] + np.arange(i + 1)) % (6 * i)
        on_ring = np.stack([outer[:, :-1], outer[:, 1:], inner], axis=-1)
        between = np.stack([inner[:, :-1], outer[:, 1:-1], inner[:, 1:]], axis=-1)
        cells.append(np.concatenate([on_ring, between], axis=1).reshape(-1, 3))
        inner = outer
    cells = np.concatenate(cells)

    # the boundary walk is ring m, counterclockwise from angle 0
    walk = inner[:, :-1].ravel()
    boundary = np.column_stack([walk, np.roll(walk, -1)])
    return Mesh(2, vertices, cells, boundary, resolution, domain, {"rings": m})


def symmetry_generators(mesh: Mesh) -> list:
    """Generators of the mesh's symmetry group as facet permutations
    (facet k maps to perm[k]): on the disk rings the rotation by 60 degrees
    and the flip y -> -y, on a rectangle grid the rotation by 180 degrees
    (its diagonals break the flips across the axes), and on a square grid
    also the flip across x = y, which reverses the boundary walk from the
    corner (0, 0); on other meshes none."""
    nf = mesh.n_facets
    k = np.arange(nf)
    if "rings" in mesh.meta:
        return [(k + mesh.meta["rings"]) % nf, (-1 - k) % nf]
    if "grid" in mesh.meta:
        nx, ny = mesh.meta["grid"]
        width, height = np.ptp(mesh.vertices, axis=0)
        if nx == ny and width == height:
            return [(k + nf // 2) % nf, (-1 - k) % nf]
        return [(k + nf // 2) % nf]
    return []


# ---------------------------------------------------------------------------
# boundary holes


@dataclass(frozen=True)
class BoundaryHole:
    """Union of whole boundary facets on which admissible fields vanish."""

    facet_indices: frozenset
    measure: float

    def vertex_indices(self, mesh: Mesh) -> np.ndarray:
        if not self.facet_indices:
            return np.array([], dtype=int)
        idx = np.array(sorted(self.facet_indices), dtype=int)
        return np.unique(mesh.boundary[idx])


def hole_from_facets(mesh: Mesh, facet_indices) -> BoundaryHole:
    idx = frozenset(int(i) for i in facet_indices)
    if idx and (min(idx) < 0 or max(idx) >= mesh.n_facets):
        raise ValueError("facet index out of range")
    return BoundaryHole(idx, math.fsum(
        float(mesh.facet_lengths[i]) for i in sorted(idx)))


def _arc_facet_set(mesh: Mesh, start: float, length: float) -> frozenset:
    """Whole facets inside the cyclic arc plus a snap at the moving end."""
    P = mesh.perimeter
    eps = 1e-12 * P
    if length >= P - eps:
        return frozenset(range(mesh.n_facets))
    s0 = float(start) % P
    # walk offset of each facet relative to the arc start; a facet starting
    # within eps before s0 starts at s0 (its offset would otherwise wrap to
    # just under P, sort last and be dropped)
    t = (mesh.facet_arclength - s0) % P
    t[t >= P - eps] = 0.0
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    L_sorted = mesh.facet_lengths[order]
    inside = t_sorted + L_sorted <= length + eps
    chosen = list(order[inside])
    covered = float(np.sum(L_sorted[inside]))
    outside = order[~inside]
    if outside.size:
        nxt = int(outside[np.argmin(t[outside])])
        lf = float(mesh.facet_lengths[nxt])
        if abs(covered + lf - length) < abs(covered - length):
            chosen.append(nxt)
    return frozenset(int(i) for i in chosen)


def make_hole_from_arc(mesh: Mesh, start: float, length: float) -> BoundaryHole:
    """Hole of whole facets approximating the boundary arc [start, start+length).

    The facet at the arc's moving end is added exactly when that makes the
    hole measure closer to the requested length, so the mismatch never
    exceeds one facet length.
    """
    if length < 0:
        raise ValueError("arc length must be nonnegative")
    if length > mesh.perimeter * (1 + 1e-12):
        raise ValueError("arc length exceeds the boundary measure")
    return hole_from_facets(mesh, _arc_facet_set(mesh, start, length))


def hole_arcs(mesh: Mesh, hole: BoundaryHole):
    """Maximal cyclic runs of hole facets as (first_facet, count) pairs."""
    if not hole.facet_indices:
        return []
    nf = mesh.n_facets
    if len(hole.facet_indices) == nf:
        return [(0, nf)]
    member = np.zeros(nf, dtype=bool)
    member[list(hole.facet_indices)] = True
    firsts = np.flatnonzero(member & ~np.roll(member, 1))
    lasts = np.flatnonzero(member & ~np.roll(member, -1))
    if lasts[0] < firsts[0]:
        # a run wrapping past the last facet ends at lasts[0] but starts
        # at firsts[-1]
        lasts = np.roll(lasts, -1)
    return list(zip(firsts.tolist(), ((lasts - firsts) % nf + 1).tolist()))


def arc_interval(mesh: Mesh, first_facet: int, count: int):
    """Arclength interval [s_a, s_b] spanned by a cyclic facet run."""
    s_a = float(mesh.facet_arclength[first_facet])
    s_b = s_a + math.fsum(
        float(mesh.facet_lengths[(first_facet + k) % mesh.n_facets])
        for k in range(count))
    return s_a, s_b


def hole_intervals(mesh: Mesh, hole: BoundaryHole) -> list:
    """Arclength interval [s_a, s_b] of every maximal arc of the hole."""
    return [list(arc_interval(mesh, first, count))
            for first, count in hole_arcs(mesh, hole)]


# ---------------------------------------------------------------------------
# tangential boundary fields


@dataclass
class TangentialField:
    """Tangential velocity of the boundary, with an interior extension rule.

    The speed is a signed arclength velocity, given with its arclength
    derivative (the tangential divergence of V on the boundary) as
    closed-form callables of arclength.  Extensions:

    * "tube": V(x) = speed(s(x)) * chi(dist(x, boundary)/delta) * tangent,
      with chi a C1 smoothed hat, so spt(V) stays in the delta-tube.
    * "rotation": rigid rotation of a disk (constant speed, global support,
      divergence free, antisymmetric Jacobian).
    """

    speed: Callable
    dspeed: Callable
    delta: float
    extension: str = "tube"


def _cutoff(t):
    t = np.clip(t, 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * t))


def _cutoff_derivative(t):
    inside = (t >= 0.0) & (t <= 1.0)
    return np.where(inside, -0.5 * np.pi * np.sin(np.pi * np.clip(t, 0.0, 1.0)), 0.0)


def tangential_field(mesh: Mesh, speed, dspeed,
                     delta: float = None) -> TangentialField:
    """Build a tube field on a disk from a speed function of arclength and
    its arclength derivative.  The tube is three cells wide by default, or
    half the radius where three cells do not fit."""
    if not isinstance(mesh.domain, Disk):
        raise ValueError("tangential fields are defined on disk meshes only")
    if delta is None:
        delta = 3.0 * mesh.resolution
        if not delta < mesh.domain.radius:
            delta = 0.5 * mesh.domain.radius
    return TangentialField(speed, dspeed, delta)


def plateau_speed(mesh: Mesh, lo: float, hi: float, ramp: float,
                  amplitude: float = 1.0):
    """C1 speed profile: amplitude on [lo, hi], cosine ramps of width
    ``ramp`` on both sides, zero elsewhere; periodic in arclength.

    Returns (speed, dspeed) callables usable with tangential_field.
    """
    P = mesh.perimeter

    def _rel(s):
        return (np.asarray(s, dtype=float) - lo) % P

    span = (hi - lo) % P

    def speed(s):
        u = _rel(s)
        out = np.zeros_like(u)
        out = np.where(u <= span, amplitude, out)
        rising = (u > span) & (u <= span + ramp)      # falls off after hi
        out = np.where(rising, amplitude * _cutoff((u - span) / ramp), out)
        falling = u >= P - ramp                        # rises into lo
        out = np.where(falling, amplitude * _cutoff((P - u) / ramp), out)
        return out

    def dspeed(s):
        u = _rel(s)
        out = np.zeros_like(u)
        rising = (u > span) & (u <= span + ramp)
        out = np.where(rising,
                       amplitude * _cutoff_derivative((u - span) / ramp) / ramp,
                       out)
        falling = u >= P - ramp
        out = np.where(falling,
                       -amplitude * _cutoff_derivative((P - u) / ramp) / ramp,
                       out)
        return out

    return speed, dspeed


def field_divergence_and_jacobian(mesh: Mesh, V: TangentialField,
                                  points: np.ndarray):
    """div V and the Jacobian DV of the extended field at interior points.

    Closed-form per extension rule; the tube extension is evaluated in the
    disk's polar coordinates.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if V.extension == "rotation":
        r = mesh.domain.radius
        w = float(V.speed(0.0)) / r
        div = np.zeros(n)
        DV = np.zeros((n, 2, 2))
        DV[:, 0, 1] = -w
        DV[:, 1, 0] = w
        return div, DV
    if V.extension != "tube":
        raise ValueError(f"unknown extension rule {V.extension!r}")
    if not isinstance(mesh.domain, Disk):
        raise ValueError("tangential fields are defined on disk meshes only")
    r = mesh.domain.radius
    if not V.delta < r:
        raise ValueError("field support exceeds the admissible boundary tube")
    delta = V.delta
    P = mesh.perimeter
    x, y = pts[:, 0], pts[:, 1]
    rho = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    s = P * theta / (2.0 * np.pi)
    active = rho > r - delta
    rho_safe = np.where(rho > 1e-300, rho, 1.0)

    t = (r - rho) / delta
    h = np.where(active, _cutoff(t), 0.0)
    hp = np.where(active, _cutoff_derivative(t) * (-1.0 / delta), 0.0)

    v = np.asarray(V.speed(s), dtype=float)
    vp = np.asarray(V.dspeed(s), dtype=float)

    # V = g(rho, theta) * (-y, x) with g = v(s(theta)) h(rho) / rho
    g = v * h / rho_safe
    g_rho = v * (hp * rho_safe - h) / rho_safe**2
    g_theta = vp * (P / (2.0 * np.pi)) * h / rho_safe

    gx = g_rho * (x / rho_safe) - g_theta * (y / rho_safe**2)
    gy = g_rho * (y / rho_safe) + g_theta * (x / rho_safe**2)

    DV = np.zeros((pts.shape[0], 2, 2))
    DV[:, 0, 0] = -y * gx
    DV[:, 0, 1] = -g - y * gy
    DV[:, 1, 0] = g + x * gx
    DV[:, 1, 1] = x * gy
    div = np.where(active, g_theta, 0.0)
    DV[~active] = 0.0
    return div, DV
