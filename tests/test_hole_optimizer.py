import numpy as np
import pytest

from traceholes.fem import ProblemConfig
from traceholes.geometry import (
    Disk, Rectangle, ThinRectangle, generate_mesh, hole_from_facets,
    make_hole_from_arc,
)
from traceholes.hole_optimizer import (
    _SLIDE_BLOCK, _orbit_representatives, _slide_candidates, _symmetry_group,
    make_arc_facets, optimize_hole_alternating, optimize_hole_shape_gradient,
    zero_set_measure,
)
from traceholes.trace_solver import solve_trace_constant

from oracles import is_contiguous_arc


@pytest.fixture(scope="module")
def disk():
    return generate_mesh(Disk(1), 0.1)


@pytest.fixture(scope="module")
def cfg():
    return ProblemConfig(2, 2, dof_tolerance=1e-8)


@pytest.fixture(scope="module")
def disk_run(disk, cfg):
    return optimize_hole_alternating(disk, cfg, 0.25, n_starts=3, seed=1)


@pytest.fixture(scope="module")
def thin():
    return generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64)


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
    warm = disk_run.best_result.extremal
    for j in range(0, disk.n_facets, disk.n_facets // 64 or 1):
        start = float(j * disk.perimeter / disk.n_facets)
        hole = make_hole_from_arc(disk, start, target)
        r = solve_trace_constant(disk, cfg, hole, init=warm)
        warm = r.extremal
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
        run = optimize_hole_alternating(disk, cfg, alpha, n_starts=2, seed=0)
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


def test_shape_gradient_disk_stationary(disk, cfg):
    arc = make_hole_from_arc(disk, 1.0, 0.25 * disk.perimeter)
    run = optimize_hole_shape_gradient(disk, cfg, 0.25, arc)
    # every arc position is optimal up to mesh anisotropy: at most a
    # one-facet adjustment
    diff = run.best_hole.facet_indices ^ arc.facet_indices
    assert len(diff) <= 2
    assert run.converged


def test_shape_gradient_rectangle_matches_sweep(cfg):
    mesh = generate_mesh(Rectangle(2, 1), 0.1)
    alpha = 0.2
    target = alpha * mesh.perimeter
    best = None
    warm = None
    for k in range(mesh.n_facets):
        hole = hole_from_facets(mesh, make_arc_facets(mesh, k, target))
        r = solve_trace_constant(mesh, cfg, hole, init=warm)
        warm = r.extremal
        best = r.s_value if best is None else min(best, r.s_value)
    start = make_hole_from_arc(mesh, 0.7, target)
    run = optimize_hole_shape_gradient(mesh, cfg, alpha, start, max_steps=60)
    assert run.best_value <= best * 1.005
    values = [v for _, _, v in run.history]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_shape_gradient_validates_measure(disk, cfg):
    tiny = make_hole_from_arc(disk, 0.0, 0.05 * disk.perimeter)
    with pytest.raises(ValueError):
        optimize_hole_shape_gradient(disk, cfg, 0.5, tiny)


def test_shape_gradient_multi_arc(disk, cfg):
    # two antipodal arcs: symmetric, so the projected endpoint gradient
    # balances; descent must handle the 4-endpoint parameterization and
    # keep the total measure within one facet
    P = disk.perimeter
    both = hole_from_facets(
        disk,
        make_hole_from_arc(disk, 0.0, P / 8).facet_indices
        | make_hole_from_arc(disk, P / 2, P / 8).facet_indices)
    run = optimize_hole_shape_gradient(disk, cfg, 0.25, both, max_steps=10)
    fmax = float(disk.facet_lengths.max())
    assert abs(run.best_hole.measure - 0.25 * P) <= fmax
    assert run.best_value <= solve_trace_constant(disk, cfg, both).s_value


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
    mesh = generate_mesh(domain, resolution)
    for alpha in (0.1, 0.25, 0.3, 0.5, 0.75, 0.9):
        target = alpha * mesh.perimeter
        loop = [_running_sum_arc(mesh, k, target) for k in range(mesh.n_facets)]
        assert [make_arc_facets(mesh, k, target)
                for k in range(mesh.n_facets)] == loop
        expected, seen = [], set()
        for arc in map(frozenset, loop):
            if arc and arc not in seen:
                seen.add(arc)
                expected.append(arc)
        assert _slide_candidates(mesh, target) == expected


def _images(group, facets):
    """The facet sets a hole maps to under a group of facet permutations."""
    return {frozenset(g[sorted(facets)].tolist()) for g in group}


def _exhaustive_polish(mesh, cfg, alpha, full_family=False, **kwargs):
    """Reference slide polish that solves every orbit representative, or
    with ``full_family`` every candidate arc, from the same alternating-loop
    state, skipping the best hole's orbit: (best hole, best value, history,
    solves)."""
    run = optimize_hole_alternating(mesh, cfg, alpha, polish=False, **kwargs)
    hole, best = run.best_hole, run.best_result
    history, n_solves = list(run.history), run.n_solves
    warm = best.extremal
    candidates = _slide_candidates(mesh, alpha * mesh.perimeter)
    if full_family:         # every arc stands alone: the trivial group
        group = np.arange(mesh.n_facets)[None, :]
    else:
        group = _symmetry_group(mesh)
        candidates = _orbit_representatives(group, candidates)
    mirrors = _images(group, hole.facet_indices)
    for facets in candidates:
        if facets in mirrors:
            continue
        cand_hole = hole_from_facets(mesh, facets)
        cand = solve_trace_constant(mesh, cfg, cand_hole, init=warm)
        n_solves += 1
        if cand.s_value < best.s_value:
            hole, best, warm = cand_hole, cand, cand.extremal
            mirrors = _images(group, facets)
            history.append((len(history) + 1, cand_hole.measure, cand.s_value))
    return hole, best.s_value, history, n_solves


def _assert_same_as_exhaustive(run, reference):
    hole, value, history, _ = reference
    assert run.best_value == value          # bitwise
    assert run.best_hole == hole
    assert run.history == history


@pytest.fixture(scope="module")
def thin_run(thin, cfg):
    return optimize_hole_alternating(thin, cfg, 0.5, n_starts=2, seed=0)


def test_pruned_polish_equals_exhaustive_sweep_thin(thin, cfg, thin_run):
    reference = _exhaustive_polish(thin, cfg, 0.5, n_starts=2, seed=0)
    _assert_same_as_exhaustive(thin_run, reference)
    # most blocks are skipped on their core bound
    representatives = _orbit_representatives(
        _symmetry_group(thin), _slide_candidates(thin, 0.5 * thin.perimeter))
    assert thin_run.n_solves < len(representatives) < reference[3]


def test_pruned_polish_equals_exhaustive_sweep_while_improving(thin, cfg):
    # from a poor arc with no alternating steps, the polish itself walks
    # the hole to the cap, so skipped blocks interleave with improvements
    # and warm-start changes
    start = make_hole_from_arc(thin, 1.1, 0.5 * thin.perimeter)
    kwargs = dict(init_hole=start, max_outer=0)
    run = optimize_hole_alternating(thin, cfg, 0.5, **kwargs)
    reference = _exhaustive_polish(thin, cfg, 0.5, **kwargs)
    _assert_same_as_exhaustive(run, reference)
    assert len(run.history) > 10
    assert run.n_solves < reference[3]


def test_pruned_polish_equals_exhaustive_sweep_disk(disk, cfg, disk_run):
    # the disk landscape is too flat for any core bound to clear the best,
    # so nothing is pruned and the core solves are pure overhead
    reference = _exhaustive_polish(disk, cfg, 0.25, n_starts=3, seed=1)
    _assert_same_as_exhaustive(disk_run, reference)
    assert reference[3] < disk_run.n_solves


@pytest.mark.parametrize("mesh_name,alpha,kwargs", [
    ("disk", 0.25, dict(n_starts=3, seed=1)),
    ("thin", 0.5, dict(n_starts=2, seed=0))])
def test_reduced_polish_matches_full_family_sweep(request, cfg, mesh_name,
                                                  alpha, kwargs):
    mesh = request.getfixturevalue(mesh_name)
    run = request.getfixturevalue(mesh_name + "_run")
    hole, value, _, n_solves = _exhaustive_polish(
        mesh, cfg, alpha, full_family=True, **kwargs)
    assert run.best_value == pytest.approx(value, rel=1e-12, abs=0)
    group = _symmetry_group(mesh)
    assert run.best_hole.facet_indices in _images(group, hole.facet_indices)
    assert run.n_solves < n_solves
    # the kept arcs' orbits are exactly the full family
    candidates = _slide_candidates(mesh, alpha * mesh.perimeter)
    kept = _orbit_representatives(group, candidates)
    assert set().union(*(_images(group, arc) for arc in kept)) \
        == set(candidates)


@pytest.mark.parametrize("domain,resolution,alpha,first", [
    (Disk(1), 0.1, 0.25, 3), (Disk(1), 0.1, 0.4, 17),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, 0.5, 5),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, 0.2, 70),
    (Rectangle(2, 1), 0.1, 0.3, 11)])
def test_symmetric_images_of_an_arc_share_its_value(cfg, domain, resolution,
                                                     alpha, first):
    mesh = generate_mesh(domain, resolution)
    arc = make_arc_facets(mesh, first, alpha * mesh.perimeter)
    images = _images(_symmetry_group(mesh), arc)
    assert len(images) == (12 if isinstance(domain, Disk) else 2)
    value = solve_trace_constant(mesh, cfg,
                                 hole_from_facets(mesh, arc)).s_value
    for image in images:
        other = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, image))
        assert other.converged
        assert other.s_value == pytest.approx(value, rel=1e-12, abs=0)


def test_block_core_bounds_its_arcs(thin, cfg):
    block = _slide_candidates(thin, 0.5 * thin.perimeter)[:_SLIDE_BLOCK]
    core = frozenset.intersection(*block)
    assert core and all(core < arc for arc in block)
    bound = solve_trace_constant(thin, cfg, hole_from_facets(thin, core))
    assert bound.converged
    for arc in block:
        value = solve_trace_constant(thin, cfg, hole_from_facets(thin, arc),
                                     init=bound.extremal).s_value
        assert bound.s_value <= value
