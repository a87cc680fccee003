"""Search for optimal boundary holes of prescribed measure.

A best-first branch and bound over contiguous arcs (Land and Doig,
Econometrica 28, 1960).  The arcs are every run of whole facets of the
target measure that starts at a facet boundary, one per orbit of the
mesh's symmetry group (a symmetry maps an arc to an arc of equal S), in
start order and split into blocks of consecutive arcs.  S is monotone
under inclusion of holes, so a cold solve on the facets a block's arcs
share bounds every arc of the block from below.  The blocks are visited
in order of increasing bound, each arc solved warm from its block's core
extremal, and the search stops at the first bound that clears the best
value: the result is certified against every single arc at facet
granularity.

One multi-arc probe follows.  The facets with the smallest boundary
energy int_facet |w|^q of a ranking field w, projected to the target
measure, are solved once and kept if they beat the best arc.  The
ranking field comes from a relaxed solve in which the hole facets are
dropped from the denominator but the field is NOT pinned there: the
constrained extremal itself vanishes identically on the hole, so ranking
by it would re-select the hole.

Measure bookkeeping is honest about facet quantization: every hole is
within one facet length of the target and alpha_effective is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import fem
from ._descent import minimize_quotient
from .fem import ProblemConfig
from .geometry import BoundaryHole, Mesh, hole_from_facets, symmetry_generators
from .trace_solver import TraceResult, solve_trace_constant


_SLIDE_BLOCK = 16       # consecutive slide arcs bounded by one core solve
_PRUNE_MARGIN = 1e-6    # relative lead a core bound needs to skip a block


@dataclass
class OptimizationRun:
    alpha: float
    best_hole: BoundaryHole
    best_value: float
    history: List[Tuple[int, float, float]]   # (iteration, measure, value)
    alpha_effective: float
    best_result: TraceResult
    n_solves: int       # every quotient solve: holes, core bounds, the ranking
    converged: bool     # every solve compared with the best value converged


def _target_measure(mesh: Mesh, alpha: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return alpha * mesh.perimeter


def _snap_select(mesh: Mesh, order, target: float) -> frozenset:
    """Facets in the given order, each taken when it brings the measure
    closer to the target, until the target is reached."""
    chosen = []
    measure = 0.0
    for f in order:
        lf = float(mesh.facet_lengths[f])
        if abs(measure + lf - target) <= abs(measure - target):
            chosen.append(int(f))
            measure += lf
        if measure >= target:
            break
    return frozenset(chosen)


def _relaxed_ranking_field(mesh: Mesh, cfg: ProblemConfig,
                           hole: BoundaryHole) -> np.ndarray:
    """Extremal of the denominator-masked problem: the boundary norm is
    restricted to the complement of the hole but the field is free there,
    so its size on the hole facets prices the constraint.  At every p the
    solve runs on the all-free W^{1,2} metric."""
    weights = np.ones(mesh.n_facets)
    if hole.facet_indices:
        weights[sorted(hole.facet_indices)] = 0.0
    res = minimize_quotient(
        *fem.forms(mesh).quotient(cfg, weights), cfg.p,
        np.ones(mesh.n_vertices, dtype=bool), None, fem.h1_operator(mesh),
        tol=max(cfg.dof_tolerance, 1e-7), max_iter=cfg.max_inner_iterations)
    return res.u


def _leaves_free_vertex(mesh: Mesh, facets: frozenset) -> bool:
    hole = hole_from_facets(mesh, facets)
    covered = hole.vertex_indices(mesh)
    return covered.size < mesh.boundary_vertex_indices().size


def _slide_candidates(mesh: Mesh, target: float) -> list:
    """Facet sets of every arc of the target measure starting at a facet
    boundary, in start order (the family any snapped single-arc sweep
    draws from)."""
    nf = mesh.n_facets
    seen, out = set(), []
    for k, n in enumerate(_arc_counts(mesh, np.arange(nf), target)):
        facets = frozenset(((k + np.arange(n)) % nf).tolist())
        if facets and facets not in seen:
            seen.add(facets)
            out.append(facets)
    return out


def _symmetry_group(mesh: Mesh) -> np.ndarray:
    """Every facet permutation the mesh's symmetry generators span, one
    per row, the identity included."""
    gens = symmetry_generators(mesh)
    group = {tuple(range(mesh.n_facets))}
    while True:
        images = {tuple(s[list(g)].tolist()) for g in group for s in gens}
        if images <= group:
            return np.array(sorted(group), dtype=np.intp)
        group |= images


def _orbit_representatives(group: np.ndarray, candidates) -> list:
    """The candidates, in order, that are not the exact image of an
    earlier kept one: one per orbit the candidates meet."""
    masks = np.zeros((len(candidates), group.shape[1]), dtype=bool)
    for row, facets in zip(masks, candidates):
        row[list(facets)] = True
    # column k of an image's mask is column g^-1[k] of the arc's own mask
    images = [np.packbits(masks[:, np.argsort(g)], axis=1) for g in group]
    covered, kept = set(), []
    for c, own in enumerate(np.packbits(masks, axis=1)):
        if own.tobytes() not in covered:
            kept.append(candidates[c])
            covered.update(image[c].tobytes() for image in images)
    return kept


def make_arc_facets(mesh: Mesh, first_facet: int, target: float):
    """Contiguous run starting at a facet, sized by the snap rule."""
    n = int(_arc_counts(mesh, [first_facet], target)[0])
    return ((first_facet + np.arange(n)) % mesh.n_facets).tolist()


_CHUNK = 1 << 16        # cumulative sums held at once by _arc_counts


def _arc_counts(mesh: Mesh, starts, target: float) -> np.ndarray:
    """Facet count of the snapped arc from each start facet.

    Facets are taken in walk order while each one brings the measure
    strictly closer to the target.  A row-wise cumsum adds left to right
    like a running ``measure += length``, so the counts match that loop
    bit for bit; rows go in chunks to keep the temporaries small.
    """
    nf = mesh.n_facets
    starts = np.asarray(starts, dtype=np.intp) % nf
    counts = np.empty(starts.size, dtype=np.intp)
    rows = max(1, _CHUNK // nf)
    for lo in range(0, starts.size, rows):
        walk = (starts[lo:lo + rows, None] + np.arange(nf)) % nf
        after = np.cumsum(mesh.facet_lengths[walk], axis=1)
        before = np.zeros_like(after)
        before[:, 1:] = after[:, :-1]
        closer = np.abs(after - target) < np.abs(before - target)
        counts[lo:lo + rows] = np.where(closer.all(axis=1), nf,
                                        closer.argmin(axis=1))
    return counts


def optimize_hole_alternating(mesh: Mesh, cfg: ProblemConfig, alpha: float,
                              init_hole: Optional[BoundaryHole] = None
                              ) -> OptimizationRun:
    """Best-first search over the slide blocks, then one multi-arc probe.
    ``init_hole``, when given, is solved first and is the value to beat.
    The run is converged when every solve that was compared with the best
    value converged."""
    target = _target_measure(mesh, alpha)
    history: List[Tuple[float, float]] = []  # (measure, value) per new best
    best_hole = best_res = None
    n_solves, converged = 0, True

    def consider(hole, init=None):
        nonlocal best_hole, best_res, n_solves, converged
        res = solve_trace_constant(mesh, cfg, hole, init=init)
        n_solves += 1
        converged = converged and res.converged
        if best_res is None or res.s_value < best_res.s_value:
            best_hole, best_res = hole, res
            history.append((hole.measure, res.s_value))

    if init_hole is not None:
        consider(init_hole)
    arcs = _orbit_representatives(_symmetry_group(mesh),
                                  _slide_candidates(mesh, target))
    blocks = [arcs[i:i + _SLIDE_BLOCK]
              for i in range(0, len(arcs), _SLIDE_BLOCK)]
    # a block with no core, a lone arc or an unconverged core solve is
    # bounded by -inf: it is never skipped
    bounds, cores = [], {}
    for b, block in enumerate(blocks):
        core = frozenset.intersection(*block)
        bounds.append(-np.inf)
        if core and len(block) > 1:
            res = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, core))
            n_solves += 1
            cores[b] = res.extremal
            if res.converged:
                bounds[b] = res.s_value
    # every arc of a block contains its core, so S(arc) >= S(core); the
    # margin covers the converged solve's excess
    for b in sorted(range(len(blocks)), key=bounds.__getitem__):
        if best_res is not None and \
                bounds[b] >= best_res.s_value * (1.0 + _PRUNE_MARGIN):
            break
        warm = cores.pop(b, None)
        if warm is None and best_res is not None:
            warm = best_res.extremal
        for facets in blocks[b]:
            consider(hole_from_facets(mesh, facets), warm)
    cores.clear()           # the pruned blocks' extremals go before the probe
    if best_res is None:    # every arc snaps to no facet: the target is tiny
        consider(hole_from_facets(mesh, []))

    w = _relaxed_ranking_field(mesh, cfg, best_hole)
    n_solves += 1
    scores = fem.facet_boundary_energy(mesh, cfg, w)
    # smallest scores first, ties on the lower facet index
    proposal = _snap_select(
        mesh, np.lexsort((np.arange(mesh.n_facets), scores)), target)
    if proposal != best_hole.facet_indices and \
            _leaves_free_vertex(mesh, proposal):
        consider(hole_from_facets(mesh, proposal), w)

    history = [(i, m, v) for i, (m, v) in enumerate(history, 1)]
    return OptimizationRun(
        alpha, best_hole, best_res.s_value, history,
        best_hole.measure / mesh.perimeter, best_res, n_solves, converged)


def zero_set_measure(mesh: Mesh, result: TraceResult) -> float:
    """Boundary measure of the facets on which the extremal vanishes
    (both endpoint values at most 1e-8 times its maximum)."""
    u = result.extremal
    small = np.abs(u) <= 1e-8 * float(np.max(np.abs(u)))
    facets = np.where(np.all(small[mesh.boundary], axis=1))[0]
    return hole_from_facets(mesh, facets).measure
