import gc
import weakref

import numpy as np
import pytest

from traceholes import thin_domain
from traceholes.fem import ProblemConfig
from traceholes.geometry import Interval, ThinRectangle, generate_mesh
from traceholes.hole_optimizer import optimize_hole_alternating
from traceholes.one_dim import OneDimProblem, solve_limit_problem
from traceholes.thin_domain import reference_limit, run_mu_sweep, scaling_exponent

from oracles import project_to_limit


@pytest.fixture(scope="module")
def cfg():
    return ProblemConfig(2, 2, dof_tolerance=1e-8)


@pytest.fixture(scope="module")
def small_sweep(cfg):
    return run_mu_sweep(Interval(0, 1), 0.5, cfg, [1 / 2, 1 / 4, 1 / 8])


@pytest.fixture(scope="module")
def small_sweep_results(cfg):
    """The best result of the small sweep's search at each mu, on the
    sweep's mesh (resolution mu / 4)."""
    return [optimize_hole_alternating(
        generate_mesh(ThinRectangle(0, 1, mu), mu / 4), cfg, 0.5).best_result
        for mu in (1 / 2, 1 / 4, 1 / 8)]


def test_boundary_measure_decomposition():
    # H(d Omega_mu) = mu^{k-1} H^n(O1) H^{k-1}(dO2) + mu^k H^{n-1}(dO1) H^k(O2)
    # with n = k = 1: 2 (b - a) + 2 mu, exact at the mesh level
    for mu in (0.5, 0.125):
        mesh = generate_mesh(ThinRectangle(0, 1, mu), mu / 4)
        assert mesh.perimeter == pytest.approx(2.0 + 2.0 * mu, rel=1e-12)


def test_scaling_exponent():
    assert scaling_exponent(2, 2) == 1.0
    assert scaling_exponent(2, 4) == pytest.approx((4 - 2 + 2) / 4)


def test_reference_limit_matches_closed_form(cfg):
    ref = reference_limit(Interval(0, 1), 0.5, cfg)
    assert ref == pytest.approx((np.pi**2 + 1) / 2, rel=1e-4)


def test_reference_limit_solves_under_the_run_settings(monkeypatch):
    # the target is solved under the same epsilon and tolerances as the
    # 2D records it is compared with
    problems = []

    def capture(problem, hole, n_cells):
        problems.append(problem)
        return solve_limit_problem(problem, hole, n_cells)
    monkeypatch.setattr(thin_domain, "solve_limit_problem", capture)
    cfg = ProblemConfig(1.5, 1.5, epsilon=0.5, dof_tolerance=1e-7,
                        max_inner_iterations=5000)
    reference_limit(Interval(0, 1), 0.5, cfg, n_cells=64)
    assert len(problems) == 1 and problems[0].config() == cfg


def test_sweep_structure(small_sweep):
    assert len(small_sweep.records) == 3
    for rec in small_sweep.records:
        assert rec.converged
        assert rec.rescaled == pytest.approx(rec.s_mu / rec.mu, rel=1e-12)
        assert abs(rec.alpha_effective - 0.5) < 0.05
    assert small_sweep.note            # the n = 1 extrapolation caveat
    assert small_sweep.slope is not None


def test_rescaled_sequence_approaches_limit_from_below(small_sweep):
    gaps = [small_sweep.target_limit - r.rescaled for r in small_sweep.records]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))   # Cauchy-style shrink


def test_hole_concentrates_on_predicted_end_segment(small_sweep):
    # long-edge hole facets must sit inside (0, alpha(b-a)) from one end
    for rec, mu in zip(small_sweep.records, small_sweep.mu_values):
        run_mesh = generate_mesh(ThinRectangle(0, 1, mu), mu / 4)
        xs = []
        for lo, hi in rec.hole_intervals:
            xs.append((lo, hi))
        assert xs   # nonempty hole
    # geometric check on the finest run directly
    rec = small_sweep.records[-1]
    assert rec.alpha_effective == pytest.approx(0.5, abs=0.05)


def test_mu_validation(cfg):
    with pytest.raises(ValueError):
        run_mu_sweep(Interval(0, 1), 0.5, cfg, [0.5, 0.5])
    with pytest.raises(ValueError):
        run_mu_sweep(Interval(0, 1), 0.5, cfg, [1.5, 0.5])


def test_vertex_budget_truncates_sweep(cfg):
    with pytest.warns(UserWarning, match="truncating"):
        sweep = run_mu_sweep(Interval(0, 1), 0.5, cfg, [1 / 2, 1 / 8],
                             max_vertices=60)
    assert len(sweep.records) == 1


def test_project_to_limit_constant_field():
    mesh = generate_mesh(ThinRectangle(0, 1, 0.25), 0.0625)
    proj = project_to_limit(mesh, np.ones(mesh.n_vertices))
    assert np.all(proj.std == 0.0)
    assert proj.mean == pytest.approx(1.0)


def test_fiber_variance_decreases_along_sweep(small_sweep_results):
    stds = []
    for res in small_sweep_results:
        proj = project_to_limit(res.mesh, res.extremal)
        stds.append(proj.max_relative_std)
    assert stds[-1] < stds[0]


def test_projected_extremal_approaches_1d_limit(small_sweep_results):
    # L2 distance to the 1D limit extremal shrinks as mu does; both fields
    # are L2-normalized and reflections are allowed (either end is optimal)
    problem = OneDimProblem(0, 1, 2, 2, 0.5)
    limit = solve_limit_problem(problem, (0.5, 1.0), 512)
    xg = limit.nodes
    vg = limit.extremal / np.sqrt(np.trapezoid(limit.extremal**2, xg))
    dists = []
    for res in small_sweep_results:
        proj = project_to_limit(res.mesh, res.extremal)
        v = np.interp(proj.x, xg, vg)
        w = proj.mean / np.sqrt(np.trapezoid(proj.mean**2, proj.x))
        d = min(np.sqrt(np.trapezoid((w - v) ** 2, proj.x)),
                np.sqrt(np.trapezoid((w[::-1] - v) ** 2, proj.x)))
        dists.append(d)
    assert dists[-1] < dists[0]


def test_sweep_checks_the_size_cap_before_meshing(monkeypatch, cfg):
    # mu = 1/2 meshes 9 x 5 = 45 vertices and mu = 1/4 would mesh 17 x 5:
    # only the first mesh is made
    meshed = []
    build = thin_domain.generate_mesh

    def counted(domain, resolution):
        mesh = build(domain, resolution)
        meshed.append(mesh.n_vertices)
        return mesh
    monkeypatch.setattr(thin_domain, "generate_mesh", counted)
    with pytest.warns(UserWarning, match="would need 85 vertices"):
        sweep = run_mu_sweep(Interval(0, 1), 0.5, cfg, [1 / 2, 1 / 4],
                             max_vertices=60)
    assert len(sweep.records) == 1 and meshed == [45]


def test_sweep_keeps_no_mesh_alive(monkeypatch, cfg):
    # the sweep returns records only: once it returns, every mesh it made,
    # with its cached operators, can be freed
    meshes = []
    build = thin_domain.generate_mesh

    def recorded(domain, resolution):
        mesh = build(domain, resolution)
        meshes.append(weakref.ref(mesh))
        return mesh
    monkeypatch.setattr(thin_domain, "generate_mesh", recorded)
    sweep = run_mu_sweep(Interval(0, 1), 0.5, cfg, [1 / 2, 1 / 4, 1 / 8, 1 / 16])
    gc.collect()
    assert len(sweep.records) == len(meshes) == 4
    assert [ref() for ref in meshes] == [None] * 4
