"""Search for optimal boundary holes of prescribed measure.

An alternating search over whole-facet holes: iterate (i) solve the
constrained problem on the current hole, (ii) re-select the facets with
the smallest boundary energy int_facet |w|^q of a ranking field w,
projected to the target measure.  The ranking field comes from a relaxed
solve in which the hole facets are dropped from the denominator but the
field is NOT pinned there: the constrained extremal itself vanishes
identically on the hole, so ranking by it would re-select the current
hole at every step.  Proposals are accepted only if the re-solved
constant decreases; a visited-set memo breaks cycles.  A final polish
slides a contiguous arc of the target measure around the whole boundary
(warm-started solves), which certifies the result against any single-arc
sweep at facet granularity.  A mesh symmetry maps an arc to an arc of
equal S, so the sweep solves one arc per orbit of the mesh's symmetry
group: the first in start order.  It is also pruned exactly: S is
monotone under inclusion of holes, so one solve on the facets shared by
a block of consecutive arcs bounds every arc of the block from below,
and a block whose bound clears the current best cannot contain a better
arc.  A block holding an arc of the best hole's orbit is not bounded:
its core's S is at most the best.

Measure bookkeeping is honest about facet quantization: every hole is
within one facet length of the target and alpha_effective is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import fem
from ._descent import Preconditioner, minimize_quotient
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
    n_solves: int       # every quotient solve: holes, rankings, core bounds
    converged: bool


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
                           hole: BoundaryHole, init: Optional[np.ndarray],
                           precond: Preconditioner) -> np.ndarray:
    """Extremal of the denominator-masked problem: the boundary norm is
    restricted to the complement of the hole but the field is free there,
    so its size on the hole facets prices the constraint.  At every p the
    solve runs on ``precond``, the all-free W^{1,2} metric's factor."""
    weights = np.ones(mesh.n_facets)
    if hole.facet_indices:
        weights[sorted(hole.facet_indices)] = 0.0
    if init is not None:
        init = np.maximum(np.abs(init), 1e-6 * float(np.abs(init).max() or 1.0))
    res = minimize_quotient(
        lambda u: fem.energy(mesh, cfg, u),
        lambda u: fem.energy_gradient(mesh, cfg, u),
        lambda u: fem.boundary_norm_q(mesh, cfg, u, facet_weights=weights),
        lambda u: fem.boundary_norm_gradient(mesh, cfg, u, facet_weights=weights),
        cfg.p, cfg.q, np.ones(mesh.n_vertices, dtype=bool), init,
        precond, tol=max(cfg.dof_tolerance, 1e-7),
        max_iter=cfg.max_inner_iterations)
    return res.u


def _leaves_free_vertex(mesh: Mesh, facets: frozenset) -> bool:
    hole = hole_from_facets(mesh, facets)
    covered = hole.vertex_indices(mesh)
    return covered.size < mesh.boundary_vertex_indices().size


def _random_hole(mesh: Mesh, rng: np.random.Generator,
                 target: float) -> frozenset:
    for _ in range(50):
        facets = _snap_select(mesh, rng.permutation(mesh.n_facets), target)
        if _leaves_free_vertex(mesh, facets):
            return facets
    # dense alphas on coarse meshes: fall back to a contiguous arc, which
    # always leaves the trailing vertices free
    return frozenset(make_arc_facets(mesh, int(rng.integers(mesh.n_facets)),
                                     target))


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


def _key(n_facets: int, facets) -> bytes:
    """A facet set as its packed membership mask: exact, and far smaller
    than a frozenset of Python ints."""
    mask = np.zeros(n_facets, dtype=bool)
    mask[list(facets)] = True
    return np.packbits(mask).tobytes()


def _orbit(group: np.ndarray, facets) -> set:
    """Keys of the facet sets a hole maps to under the group."""
    idx = list(facets)
    return {_key(group.shape[1], g[idx]) for g in group}


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
                              init_hole: Optional[BoundaryHole] = None,
                              n_starts: int = 5, seed: int = 0,
                              max_outer: int = 60,
                              polish: bool = True) -> OptimizationRun:
    """Alternating solve/re-select descent from multiple random starts."""
    target = _target_measure(mesh, alpha)
    rng = np.random.default_rng(seed)
    if init_hole is not None:
        starts = [init_hole.facet_indices]
    else:
        starts = [_random_hole(mesh, rng, target) for _ in range(n_starts)]

    history: List[Tuple[float, float]] = []   # (measure, value) per step
    n_solves = 0
    best_hole = None
    best_res = None
    converged_any = False
    ranking = None      # the all-free metric's factor, made at first use

    for start in starts:
        hole = hole_from_facets(mesh, start)
        res = solve_trace_constant(mesh, cfg, hole)
        n_solves += 1
        visited = {hole.facet_indices}
        if best_res is None or res.s_value < best_res.s_value:
            best_hole, best_res = hole, res
            history.append((hole.measure, res.s_value))
        run_hole, run_res = hole, res
        ranking_init = None
        for _ in range(max_outer):
            if ranking is None:
                ranking = Preconditioner.restricted(
                    fem.h1_operator(mesh), np.ones(mesh.n_vertices, dtype=bool))
            w = _relaxed_ranking_field(mesh, cfg, run_hole, ranking_init,
                                       ranking)
            ranking_init = w
            n_solves += 1
            scores = fem.facet_boundary_energy(mesh, cfg, w)
            # smallest scores first, ties on the lower facet index
            proposal = _snap_select(
                mesh, np.lexsort((np.arange(mesh.n_facets), scores)), target)
            if proposal == run_hole.facet_indices:
                converged_any = True
                break
            if proposal in visited or not _leaves_free_vertex(mesh, proposal):
                break
            visited.add(proposal)
            cand_hole = hole_from_facets(mesh, proposal)
            cand = solve_trace_constant(mesh, cfg, cand_hole, init=w)
            n_solves += 1
            if cand.s_value >= run_res.s_value:
                converged_any = True
                break
            run_hole, run_res = cand_hole, cand
            if run_res.s_value < best_res.s_value:
                best_hole, best_res = run_hole, run_res
                history.append((run_hole.measure, run_res.s_value))

    ranking = None      # the factor goes before the polish, which ranks none
    if polish:
        warm = best_res.extremal
        group = _symmetry_group(mesh)
        # mirror images of the best hole tie with it up to rounding
        mirrors = _orbit(group, best_hole.facet_indices)
        candidates = _orbit_representatives(
            group, _slide_candidates(mesh, target))
        for i in range(0, len(candidates), _SLIDE_BLOCK):
            block = candidates[i:i + _SLIDE_BLOCK]
            keys = [_key(mesh.n_facets, facets) for facets in block]
            core = frozenset.intersection(*block)
            # a block holding an arc of the best hole's orbit has a core
            # bound of at most the best value, which can never prune
            if core and mirrors.isdisjoint(keys):
                # every arc of the block contains the core, so S(arc) >=
                # S(core); the margin covers the converged solve's excess
                bound = solve_trace_constant(
                    mesh, cfg, hole_from_facets(mesh, core), init=warm)
                n_solves += 1
                if bound.converged and bound.s_value >= \
                        best_res.s_value * (1.0 + _PRUNE_MARGIN):
                    continue
            for facets, key in zip(block, keys):
                if key in mirrors:
                    continue
                cand_hole = hole_from_facets(mesh, facets)
                cand = solve_trace_constant(mesh, cfg, cand_hole, init=warm)
                n_solves += 1
                if cand.s_value < best_res.s_value:
                    best_hole, best_res = cand_hole, cand
                    mirrors = _orbit(group, facets)
                    warm = cand.extremal
                    history.append((cand_hole.measure, cand.s_value))

    history = [(i, m, v) for i, (m, v) in enumerate(history, 1)]
    return OptimizationRun(
        alpha, best_hole, best_res.s_value, history,
        best_hole.measure / mesh.perimeter, best_res, n_solves,
        converged_any and best_res.converged)


def zero_set_measure(mesh: Mesh, result: TraceResult) -> float:
    """Boundary measure of the facets on which the extremal vanishes
    (both endpoint values at most 1e-8 times its maximum)."""
    u = result.extremal
    small = np.abs(u) <= 1e-8 * float(np.max(np.abs(u)))
    facets = np.where(np.all(small[mesh.boundary], axis=1))[0]
    return hole_from_facets(mesh, facets).measure
