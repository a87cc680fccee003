import dataclasses
import functools
import json

import numpy as np
import pytest

from traceholes import cli, hole_optimizer
from traceholes._descent import Preconditioner
from traceholes.fem import ProblemConfig
from traceholes.geometry import (
    Disk, Rectangle, ThinRectangle, generate_mesh, hole_from_facets,
    make_hole_from_arc, symmetry_generators,
)
from traceholes.hole_optimizer import (
    _SLIDE_BLOCK, _arc_counts, _core_facets, _orbit_representatives,
    _run_facets, _slide_candidates, optimize_hole_alternating,
    zero_set_measure,
)
from traceholes.trace_solver import solve_trace_constant

from oracles import (
    is_contiguous_arc, orbit_representatives_by_mask, run_masks,
    symmetry_group,
)


@pytest.fixture(scope="module")
def disk():
    return generate_mesh(Disk(1), 0.1)


@pytest.fixture(scope="module")
def cfg():
    return ProblemConfig(2, 2, dof_tolerance=1e-8)


@pytest.fixture(scope="module")
def disk_run(disk, cfg):
    return optimize_hole_alternating(disk, cfg, 0.25)


@pytest.fixture(scope="module")
def thin():
    return generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64)


@pytest.fixture(scope="module")
def square():
    return generate_mesh(Rectangle(1, 1), 0.1)


def test_alternating_finds_contiguous_arc(disk, cfg, disk_run):
    assert is_contiguous_arc(disk, disk_run.best_hole)
    assert disk_run.converged


def test_history_monotone_and_measure_tolerance(disk, disk_run):
    values = [v for _, _, v in disk_run.history]
    assert all(a >= b for a, b in zip(values, values[1:]))
    target = 0.25 * disk.perimeter
    fmax = float(disk.facet_lengths.max())
    for _, measure, _ in disk_run.history:
        assert abs(measure - target) <= fmax


def test_alpha_effective_reported(disk, disk_run):
    assert disk_run.alpha_effective == pytest.approx(
        disk_run.best_hole.measure / disk.perimeter, abs=0)


def test_arc_sweep_dominance(disk, cfg, disk_run):
    # the optimizer must not lose to any snapped single-arc placement
    target = 0.25 * disk.perimeter
    best = None
    for j in range(0, disk.n_facets, disk.n_facets // 64 or 1):
        start = float(j * disk.perimeter / disk.n_facets)
        hole = make_hole_from_arc(disk, start, target)
        r = solve_trace_constant(disk, cfg, hole)
        best = r.s_value if best is None else min(best, r.s_value)
    assert disk_run.best_value <= best + 1e-6


def test_single_arc_beats_two_antipodal(disk, cfg):
    P = disk.perimeter
    L = 0.25 * P
    single = make_hole_from_arc(disk, 0.0, L)
    two = hole_from_facets(
        disk,
        make_hole_from_arc(disk, 0.0, L / 2).facet_indices
        | make_hole_from_arc(disk, P / 2, L / 2).facet_indices)
    assert single.measure == pytest.approx(two.measure, abs=1e-12)
    s1 = solve_trace_constant(disk, cfg, single)
    s2 = solve_trace_constant(disk, cfg, two)
    assert s1.s_value < s2.s_value


def test_best_value_increasing_in_alpha(disk, cfg):
    values = []
    for alpha in (0.2, 0.4, 0.6, 0.8):
        run = optimize_hole_alternating(disk, cfg, alpha)
        values.append(run.best_value)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_alpha_validation(disk, cfg):
    with pytest.raises(ValueError):
        optimize_hole_alternating(disk, cfg, 0.0)
    with pytest.raises(ValueError):
        optimize_hole_alternating(disk, cfg, 1.2)


def test_zero_set_measure_matches_hole(disk, cfg, disk_run):
    zs = zero_set_measure(disk, disk_run.best_result)
    assert zs == pytest.approx(disk_run.best_hole.measure, abs=1e-12)
    res = solve_trace_constant(disk, cfg, hole_from_facets(disk, []))
    assert zero_set_measure(disk, res) == 0.0


def _running_sum_arc(mesh, first, target):
    """The snap rule as a plain loop: take facets in walk order while each
    brings the running measure strictly closer to the target."""
    nf = mesh.n_facets
    chosen, measure, k = [], 0.0, first
    while len(chosen) < nf:
        lf = float(mesh.facet_lengths[k % nf])
        if not abs(measure + lf - target) < abs(measure - target):
            break
        chosen.append(k % nf)
        measure += lf
        k += 1
    return chosen


@pytest.mark.parametrize("domain,resolution", [
    (Disk(1), 0.2), (Disk(1), 0.1), (Disk(1), 0.05), (Disk(1), 0.025),
    (ThinRectangle(0, 1, 1 / 2), 1 / 64), (ThinRectangle(0, 1, 1 / 4), 1 / 64),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256), (Rectangle(2, 1), 0.1)])
def test_arc_facets_match_running_sum_loop(domain, resolution):
    # arcs are held as runs (start, count); their facet sets and masks are
    # the loop's, and a target near the perimeter keeps the whole boundary once
    mesh = generate_mesh(domain, resolution)
    for alpha in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.999):
        target = alpha * mesh.perimeter
        loop = [_running_sum_arc(mesh, k, target) for k in range(mesh.n_facets)]
        counts = _arc_counts(mesh, np.arange(mesh.n_facets), target)
        assert [((k + np.arange(n)) % mesh.n_facets).tolist()
                for k, n in enumerate(counts)] == loop
        expected, seen = [], set()
        for arc in map(frozenset, loop):
            if arc and arc not in seen:
                seen.add(arc)
                expected.append(arc)
        runs = _slide_candidates(mesh, target)
        assert _arc_sets(mesh, runs) == expected
        masks = run_masks(mesh.n_facets, runs)
        assert [frozenset(np.flatnonzero(row).tolist())
                for row in masks] == expected
        # an interval's core by coverage count is its masks' intersection,
        # also for intervals that wrap round the boundary
        windows = [(lo, lo + n) for lo in range(0, len(runs), 5)
                   for n in (2, 6, 13) if lo + n <= len(runs)]
        windows += [(len(runs) - n, len(runs) + n) for n in (1, 3)]
        for lo, hi in windows:
            rows = [r % len(runs) for r in range(lo, hi)]
            assert _core_facets(mesh.n_facets, [runs[r] for r in rows]
                                ).tolist() == \
                np.flatnonzero(masks[rows].all(axis=0)).tolist()
    if isinstance(domain, Disk):    # every arc at 0.999 is the whole boundary
        assert len(expected) == 1 and len(expected[0]) == mesh.n_facets


def _arc_sets(mesh, runs):
    """The facet set of each run (start, count), in order."""
    return [frozenset(_run_facets(mesh.n_facets, run).tolist()) for run in runs]


def _group(mesh):
    """The mesh's symmetry group, every element a facet permutation."""
    return symmetry_group(symmetry_generators(mesh), mesh.n_facets)


def _images(group, facets):
    """The facet sets a hole maps to under a group of facet permutations."""
    return {frozenset(g[sorted(facets)].tolist()) for g in group}


def _unpruned(monkeypatch, mesh, cfg, alpha, **kwargs):
    """The same search with no interval skipped on its bound: every
    interval is split or has its arcs solved, in the same order and every
    solve cold."""
    with monkeypatch.context() as m:
        m.setattr(hole_optimizer, "_PRUNE_MARGIN", np.inf)
        return optimize_hole_alternating(mesh, cfg, alpha, **kwargs)


def _assert_same_as_unpruned(run, reference):
    assert run.best_value == reference.best_value          # bitwise
    assert run.best_hole == reference.best_hole
    assert run.history == reference.history


def _cold_sweep(mesh, cfg, alpha):
    """Every slide arc of the full family (the trivial group) solved cold:
    (best hole, best value, solves).  The best solve must have converged;
    on thin mu = 1/16 at p = 1.5 two far worse arcs stop at the iteration
    cap (S = 2.93 against a best of 0.17)."""
    hole, best = None, None
    candidates = _slide_candidates(mesh, alpha * mesh.perimeter)
    for run in candidates:
        cand_hole = hole_from_facets(mesh, _run_facets(mesh.n_facets, run))
        cand = solve_trace_constant(mesh, cfg, cand_hole)
        if best is None or cand.s_value < best.s_value:
            hole, best = cand_hole, cand
    assert best.converged
    return hole, best.s_value, len(candidates)


@pytest.fixture(scope="module")
def thin_run(thin, cfg):
    return optimize_hole_alternating(thin, cfg, 0.5)


def test_pruned_polish_equals_exhaustive_sweep_thin(monkeypatch, thin, cfg,
                                                    thin_run):
    reference = _unpruned(monkeypatch, thin, cfg, 0.5)
    _assert_same_as_unpruned(thin_run, reference)
    # most intervals are skipped on their core bound
    representatives = _orbit_representatives(
        symmetry_generators(thin), _slide_candidates(thin, 0.5 * thin.perimeter))
    assert thin_run.n_solves < len(representatives) < reference.n_solves


def test_pruned_polish_equals_exhaustive_sweep_while_improving(
        monkeypatch, thin, cfg, thin_run):
    # from a poor arc, the search starts with a best value that no bound
    # clears, improves on it at the first arc it solves and at every later
    # best of the search with no starting hole, and ends where that ends
    start = make_hole_from_arc(thin, 1.1, 0.5 * thin.perimeter)
    run = optimize_hole_alternating(thin, cfg, 0.5, init_hole=start)
    reference = _unpruned(monkeypatch, thin, cfg, 0.5, init_hole=start)
    _assert_same_as_unpruned(run, reference)
    assert len(run.history) == len(thin_run.history) + 1
    assert run.history[0][2] > 1.5 * run.best_value
    assert run.best_value == thin_run.best_value
    assert run.best_hole == thin_run.best_hole
    assert run.n_solves == thin_run.n_solves + 1 < reference.n_solves


def test_pruned_polish_equals_exhaustive_sweep_disk(monkeypatch, disk, cfg,
                                                    disk_run):
    # the disk's representatives fit in one leaf, the root, which has no
    # bound: the search costs exactly the exhaustive one
    reference = _unpruned(monkeypatch, disk, cfg, 0.25)
    _assert_same_as_unpruned(disk_run, reference)
    assert reference.n_solves == disk_run.n_solves


@pytest.fixture(scope="module")
def rectangle():
    return generate_mesh(Rectangle(2, 1), 0.1)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mesh_name,alpha", [
    ("disk", 0.25), ("rectangle", 0.3), ("square", 0.3), ("thin", 0.5)])
def test_best_first_matches_cold_full_family_sweep(request, mesh_name, alpha,
                                                   p):
    # soundness: the pruned, symmetry-reduced search loses to no slide arc
    mesh = request.getfixturevalue(mesh_name)
    cfg = ProblemConfig(p, 2, dof_tolerance=1e-8)
    run = optimize_hole_alternating(mesh, cfg, alpha)
    assert run.converged
    hole, value, n_solves = _cold_sweep(mesh, cfg, alpha)
    assert run.best_value == pytest.approx(value, rel=1e-12, abs=0)
    group = _group(mesh)
    assert run.best_hole.facet_indices in _images(group, hole.facet_indices)
    assert run.n_solves < n_solves
    # the kept arcs' orbits are exactly the full family
    candidates = _slide_candidates(mesh, alpha * mesh.perimeter)
    kept = _orbit_representatives(symmetry_generators(mesh), candidates)
    assert set().union(*(_images(group, arc) for arc in _arc_sets(mesh, kept))) \
        == set(_arc_sets(mesh, candidates))


@functools.lru_cache(maxsize=None)
def _mesh(domain, resolution):
    return generate_mesh(domain, resolution)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("domain,resolution", [
    (Disk(1), 0.05), (Disk(1), 0.1), (Rectangle(2, 1), 0.1),
    (Rectangle(1, 1), 0.1), (ThinRectangle(0, 1, 1 / 16), 1 / 64),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256)])
def test_run_keyed_orbits_keep_the_mask_oracles_arcs(domain, resolution,
                                                     alpha):
    # closing each kept run under the generators keeps the same arcs, in
    # the same order, as comparing facet masks under the whole group
    mesh = _mesh(domain, resolution)
    candidates = _slide_candidates(mesh, alpha * mesh.perimeter)
    kept = _orbit_representatives(symmetry_generators(mesh), candidates)
    assert kept == orbit_representatives_by_mask(_group(mesh), candidates)
    assert len(kept) < len(candidates)


@pytest.mark.parametrize("domain,resolution,alpha,first", [
    (Disk(1), 0.1, 0.25, 3), (Disk(1), 0.1, 0.4, 17),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, 0.5, 5),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, 0.2, 70),
    (Rectangle(2, 1), 0.1, 0.3, 11), (Rectangle(1, 1), 0.1, 0.3, 11)])
def test_symmetric_images_of_an_arc_share_its_value(cfg, domain, resolution,
                                                     alpha, first):
    mesh = generate_mesh(domain, resolution)
    n = _arc_counts(mesh, [first], alpha * mesh.perimeter)[0]
    arc = ((first + np.arange(n)) % mesh.n_facets).tolist()
    images = _images(_group(mesh), arc)
    if isinstance(domain, Disk):
        assert len(images) == 12
    else:   # a square grid adds the flips across its diagonals
        square = isinstance(domain, Rectangle) and domain.width == domain.height
        assert len(images) == (4 if square else 2)
    value = solve_trace_constant(mesh, cfg,
                                 hole_from_facets(mesh, arc)).s_value
    for image in images:
        other = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, image))
        assert other.converged
        assert other.s_value == pytest.approx(value, rel=1e-12, abs=0)


def test_block_core_bounds_its_arcs(thin, cfg):
    block = _arc_sets(thin, _slide_candidates(thin, 0.5 * thin.perimeter)
                      [:_SLIDE_BLOCK])
    core = frozenset.intersection(*block)
    assert core and all(core < arc for arc in block)
    bound = solve_trace_constant(thin, cfg, hole_from_facets(thin, core))
    assert bound.converged
    for arc in block:
        value = solve_trace_constant(thin, cfg,
                                     hole_from_facets(thin, arc)).s_value
        assert bound.s_value <= value


@pytest.mark.parametrize("p", [2, 3])
def test_optimize_solves_only_holes(monkeypatch, p):
    # every solve of the run pins a hole, so no metric is factored with
    # every vertex free, and n_solves counts every quotient solve
    mesh = generate_mesh(Disk(1), 0.2)
    all_free, holes = [], []
    pinned = Preconditioner.pinned.__func__

    def counted(cls, metric, free, order=None, image=None):
        if free.all():
            all_free.append(metric)
        return pinned(cls, metric, free, order, image)
    monkeypatch.setattr(Preconditioner, "pinned", classmethod(counted))
    solve = hole_optimizer.solve_trace_constant

    def counted_solve(mesh, cfg, hole):
        holes.append(hole)
        return solve(mesh, cfg, hole)
    monkeypatch.setattr(hole_optimizer, "solve_trace_constant", counted_solve)
    run = optimize_hole_alternating(mesh, ProblemConfig(p, 2), 0.25)
    assert all(hole.facet_indices for hole in holes)
    assert not all_free and run.n_solves == len(holes) > 0


@pytest.mark.parametrize("domain,resolution,alpha,n_solves", [
    (Disk(1), 0.05, 0.25, 11), (ThinRectangle(0, 1, 1 / 64), 1 / 256, 0.5, 18),
    (ThinRectangle(0, 1, 1 / 2), 1 / 8, 0.5, 12),
    (ThinRectangle(0, 1, 1 / 4), 1 / 16, 0.5, 12),
    (ThinRectangle(0, 1, 1 / 8), 1 / 32, 0.5, 15),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, 0.5, 14),
    (Disk(1), 0.025, 0.25, 23)])
def test_solve_counts_of_the_benchmark_searches(domain, resolution, alpha,
                                                n_solves):
    # hole-search's two meshes, sweep-mu's four (mu, resolution mu / 4) and
    # the disk at 0.025, which the flat blocks of 16 arcs searched in 12,
    # 33, 13, 18, 19, 21 and 23 solves
    run = optimize_hole_alternating(generate_mesh(domain, resolution),
                                    ProblemConfig(2, 2), alpha)
    assert run.converged and run.n_solves == n_solves


def test_tiny_alpha_gives_the_empty_hole(cfg):
    # no facet is under twice the target, so every arc snaps to no facet
    mesh = generate_mesh(Disk(1), 0.25)
    run = optimize_hole_alternating(mesh, cfg, 0.005)
    assert run.best_hole.facet_indices == frozenset()
    assert run.converged and run.alpha_effective == 0.0
    assert run.best_value == solve_trace_constant(
        mesh, cfg, hole_from_facets(mesh, [])).s_value


def test_a_losing_unconverged_arc_clears_converged(monkeypatch, tmp_path):
    # an unconverged solve's value is above its hole's minimum, so an arc
    # that lost may have won: the run, and the CLI's exit code, say so
    mesh = generate_mesh(Disk(1), 0.25)
    cfg = ProblemConfig(2, 2)
    best = optimize_hole_alternating(mesh, cfg, 0.25).best_hole
    arcs = set(_arc_sets(mesh, _slide_candidates(mesh, 0.25 * mesh.perimeter)))
    flagged = []
    solve = hole_optimizer.solve_trace_constant

    def one_arc_unconverged(mesh, cfg, hole):
        res = solve(mesh, cfg, hole)
        if not flagged and hole.facet_indices in arcs and hole != best:
            flagged.append(hole)
            res = dataclasses.replace(res, converged=False)
        return res
    monkeypatch.setattr(hole_optimizer, "solve_trace_constant",
                        one_arc_unconverged)
    run = optimize_hole_alternating(mesh, cfg, 0.25)
    assert len(flagged) == 1 and run.best_hole == best
    assert not run.converged and run.n_unconverged == 1
    del flagged[:]
    code = cli.main(["optimize", "--domain", "disk", "--radius", "1",
                     "--resolution", "0.25", "--alpha", "0.25",
                     "--out", str(tmp_path), "--run-id", "r"])
    assert code == 2 and len(flagged) == 1
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["converged"] is False and summary["n_unconverged"] == 1
