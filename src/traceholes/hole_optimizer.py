"""Search for optimal boundary holes of prescribed measure.

A best-first branch and bound over contiguous arcs (Land and Doig,
Econometrica 28, 1960): every run of whole facets of the target measure
from a facet boundary, one per orbit of the mesh's symmetry group (images
have equal S), in start order.  S is monotone under inclusion of holes,
so a cold solve on the facets an interval of arcs shares (its core)
bounds every arc in it.  Intervals are popped by increasing bound; the
root, every arc, comes first whatever its bound, so it gets none.  An
interval of at most 12 arcs has every arc solved; a larger one splits
into at most 4 near-equal children with core bounds, so a level costs at
most 4 solves and 260 arcs reach a leaf of 8 or 9 in three levels.  The
search stops at the first bound that clears the best value: the result
is certified against every single arc at facet granularity.

Measure bookkeeping is honest about facet quantization: every hole is
within one facet length of the target and alpha_effective is reported.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .fem import ProblemConfig
from .geometry import BoundaryHole, Mesh, hole_from_facets, symmetry_generators
from .trace_solver import TraceResult, solve_trace_constant


_SLIDE_BLOCK = 12       # arcs of a leaf interval, each solved
_PRUNE_MARGIN = 1e-6    # relative lead a core bound needs to skip an interval


@dataclass
class OptimizationRun:
    alpha: float
    best_hole: BoundaryHole
    best_value: float
    history: List[Tuple[int, float, float]]   # (iteration, measure, value)
    alpha_effective: float
    best_result: TraceResult
    n_solves: int       # every quotient solve: holes and core bounds
    converged: bool     # n_unconverged == 0
    n_unconverged: int  # solves compared with the best value (the starting
                        # hole and the arcs) that did not converge


def _slide_candidates(mesh: Mesh, target: float) -> list:
    """Every arc of the target measure starting at a facet boundary, as a
    run (start facet, facet count), in start order and one per facet set
    (the family any snapped single-arc sweep draws from).  A run of fewer
    than all facets is the only run of its set; the whole boundary is kept
    once."""
    nf = mesh.n_facets
    out, whole = [], False
    for k, n in enumerate(_arc_counts(mesh, np.arange(nf), target).tolist()):
        if 0 < n < nf or (n == nf and not whole):
            whole |= n == nf
            out.append((k, n))
    return out


def _run_facets(nf: int, run) -> np.ndarray:
    """The facets of a run (start, count) on a boundary of nf facets."""
    start, count = run
    return (start + np.arange(count)) % nf


def _orbit_representatives(generators, candidates) -> list:
    """The candidate runs, in order, that are not the exact image of an
    earlier kept one: one per orbit the candidates meet.  Orbits are closed
    over runs under the ``generators`` (facet permutations): one maps the
    run (start, count) to (g[start], count), or to (g[start + count - 1],
    count) when it reverses the boundary walk; the whole boundary maps to
    itself."""
    reverses = [(g[1] - g[0]) % g.size != 1 for g in generators]
    covered, kept = set(), []
    for run in candidates:
        if run in covered:
            continue
        kept.append(run)
        covered.add(run)
        orbit = [run]
        for start, count in orbit:      # grows while it is walked
            for g, rev in zip(generators, reverses):
                if count == g.size:
                    break
                image = (int(g[(start + count - 1) % g.size] if rev else g[start]),
                         count)
                if image not in covered:
                    covered.add(image)
                    orbit.append(image)
    return kept


_CHUNK = 1 << 15        # cumulative sums held at once by _arc_counts


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


def _core_facets(nf: int, runs) -> np.ndarray:
    """The facets every run (start, count) covers, by a coverage count over
    two laps of the boundary: a difference array, +1 at each start and -1
    past each end, summed and folded back onto one lap."""
    starts, counts = np.array(runs, dtype=np.intp).T
    cover = np.cumsum(np.bincount(starts, minlength=2 * nf)
                      - np.bincount(starts + counts, minlength=2 * nf))
    return np.flatnonzero(cover[:nf] + cover[nf:] == len(starts))


def optimize_hole_alternating(mesh: Mesh, cfg: ProblemConfig, alpha: float,
                              init_hole: Optional[BoundaryHole] = None
                              ) -> OptimizationRun:
    """Best-first search over the arc intervals.  ``init_hole``, when given,
    is solved first and is the value to beat.  The run is converged when
    every solve that was compared with the best value converged."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    nf = mesh.n_facets
    history: List[Tuple[int, float, float]] = []     # per new best
    best_hole = best_res = None
    n_solves = n_unconverged = 0

    def consider(hole):
        nonlocal best_hole, best_res, n_solves, n_unconverged
        res = solve_trace_constant(mesh, cfg, hole)
        n_solves += 1
        n_unconverged += not res.converged
        if best_res is None or res.s_value < best_res.s_value:
            best_hole, best_res = hole, res
            history.append((len(history) + 1, hole.measure, res.s_value))

    if init_hole is not None:
        consider(init_hole)
    arcs = _orbit_representatives(
        symmetry_generators(mesh), _slide_candidates(mesh, alpha * mesh.perimeter))
    heap = [(-np.inf, 0, len(arcs))]    # (bound, lo, hi) of arcs[lo:hi]
    # every arc of an interval contains its core, so S(arc) >= S(core);
    # the margin covers the converged solve's excess
    while heap and (best_res is None or
                    heap[0][0] < best_res.s_value * (1.0 + _PRUNE_MARGIN)):
        _, lo, hi = heapq.heappop(heap)
        n = hi - lo
        if n <= _SLIDE_BLOCK:
            for run in arcs[lo:hi]:
                consider(hole_from_facets(mesh, _run_facets(nf, run)))
            continue
        k = min(4, -(-n // _SLIDE_BLOCK))
        cuts = [lo - (-n * i // k) for i in range(k + 1)]    # larger first
        for a, b in zip(cuts, cuts[1:]):
            # a child holds at least 6 arcs; an empty core or an
            # unconverged core solve bounds nothing: -inf, never skipped
            bound, core = -np.inf, _core_facets(nf, arcs[a:b])
            if core.size:
                res = solve_trace_constant(mesh, cfg,
                                           hole_from_facets(mesh, core))
                n_solves += 1
                if res.converged:
                    bound = res.s_value
            heapq.heappush(heap, (bound, a, b))
    if best_res is None:    # every arc snaps to no facet: the target is tiny
        consider(hole_from_facets(mesh, []))

    return OptimizationRun(
        alpha, best_hole, best_res.s_value, history,
        best_hole.measure / mesh.perimeter, best_res, n_solves,
        n_unconverged == 0, n_unconverged)


def zero_set_measure(mesh: Mesh, result: TraceResult) -> float:
    """Boundary measure of the facets on which the extremal vanishes
    (both endpoint values at most 1e-8 times its maximum)."""
    u = result.extremal
    small = np.abs(u) <= 1e-8 * float(np.max(np.abs(u)))
    facets = np.where(np.all(small[mesh.boundary], axis=1))[0]
    return hole_from_facets(mesh, facets).measure
