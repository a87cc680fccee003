import numpy as np
import pytest
from scipy.special import iv

from traceholes._descent import Preconditioner
from traceholes.fem import NotAdmissibleError, ProblemConfig, h1_operator
from traceholes.geometry import (
    Disk, Interval, Rectangle, ThinRectangle, generate_mesh, hole_arcs,
    hole_from_facets, make_hole_from_arc,
)
from traceholes.hole_optimizer import _relaxed_ranking_field
from traceholes.one_dim import OneDimProblem, solve_limit_problem
from traceholes.trace_solver import (
    el_residual, positivity_check, solve_trace_constant,
)

from oracles import (
    dense_trace_eigenpair, interval_trace_constant_shooting,
    solve_with_restarts,
)

# frozen output of the shooting oracle (= coth(1)); the guard assertion in
# test_interval_against_shooting_oracle recomputes it
INTERVAL_S_LEFT_PIN = 1.3130352854993312


@pytest.fixture(scope="module")
def disk_coarse():
    return generate_mesh(Disk(1), 0.2)


def test_empty_hole_constant_bound():
    mesh = generate_mesh(Disk(1), 0.1)
    cfg = ProblemConfig(2, 2)
    res = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, []))
    assert res.converged
    # u = 1 is admissible, so the minimum sits below area/perimeter ~ 1/2
    assert res.s_value <= 0.5


def test_interval_against_shooting_oracle():
    oracle = interval_trace_constant_shooting()
    assert oracle == pytest.approx(INTERVAL_S_LEFT_PIN, rel=1e-10)
    mesh = generate_mesh(Interval(0, 1), 1e-3)
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-10)
    res = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, [0]))
    assert res.converged
    assert abs(res.s_value - INTERVAL_S_LEFT_PIN) / INTERVAL_S_LEFT_PIN < 1e-3


def test_inclusion_monotonicity(disk_coarse):
    mesh = disk_coarse
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-9)
    rng = np.random.default_rng(0)
    nf = mesh.n_facets
    bverts = mesh.boundary_vertex_indices()
    for _ in range(20):
        while True:
            big = rng.choice(nf, size=rng.integers(4, nf - 2), replace=False)
            hole_big = hole_from_facets(mesh, big)
            if np.setdiff1d(bverts, hole_big.vertex_indices(mesh)).size:
                break
        small = rng.choice(big, size=rng.integers(1, len(big)), replace=False)
        s_small = solve_trace_constant(mesh, cfg, hole_from_facets(mesh, small))
        s_big = solve_trace_constant(mesh, cfg, hole_big)
        assert s_small.s_value <= s_big.s_value * (1 + 1e-7)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (1.5, 2), (2, 2.5)])
def test_lambda_matches_s_value(disk_coarse, p, q):
    cfg = ProblemConfig(p, q, dof_tolerance=1e-9)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    assert res.converged
    assert abs(res.lam - res.s_value) <= 1e-6 * res.s_value


def test_normalization_invariant(disk_coarse):
    from traceholes.fem import boundary_norm_q
    cfg = ProblemConfig(2, 2)
    hole = make_hole_from_arc(disk_coarse, 1.0, 2.0)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    assert boundary_norm_q(disk_coarse, cfg, res.extremal) \
        == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("domain,res", [(Rectangle(1, 1), 0.34), (Disk(1), 0.5)])
def test_dense_eigenproblem_oracle_equivalence(domain, res):
    mesh = generate_mesh(domain, res)
    assert mesh.n_vertices <= 30
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-12)
    hole = make_hole_from_arc(mesh, 0.0, mesh.perimeter / 4)
    lam, _ = dense_trace_eigenpair(mesh, hole)
    out = solve_trace_constant(mesh, cfg, hole)
    assert abs(out.s_value - lam) <= 1e-8 * lam


def test_el_residual_of_converged_and_random(disk_coarse):
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-9)
    hole = make_hole_from_arc(disk_coarse, 0.0, 1.5)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    assert el_residual(disk_coarse, cfg, res, hole) <= cfg.dof_tolerance
    # a generic normalized field is far from stationary
    from dataclasses import replace
    from traceholes.fem import boundary_norm_q
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 1.5, disk_coarse.n_vertices)
    u[hole.vertex_indices(disk_coarse)] = 0.0
    u = u / boundary_norm_q(disk_coarse, cfg, u) ** 0.5
    fake = replace(res, extremal=u)
    assert el_residual(disk_coarse, cfg, fake, hole) > 10 * cfg.dof_tolerance


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("res", [0.2, 0.3])
def test_converged_solve_meets_residual_tolerance(p, res):
    # the reported extremal is the iterate that passed the stopping test,
    # not a better-valued earlier one from the nonmonotone window
    mesh = generate_mesh(Disk(1), res)
    cfg = ProblemConfig(p, 2, dof_tolerance=1e-9)
    hole = make_hole_from_arc(mesh, 0.0, np.pi / 2)
    out = solve_trace_constant(mesh, cfg, hole)
    assert out.converged
    assert out.el_residual <= cfg.dof_tolerance
    assert el_residual(mesh, cfg, out, hole) <= cfg.dof_tolerance


def test_sector_starts_snap_to_sector_facets():
    # a start at k P / 6 lands within an ulp of the boundary of facet 20 k;
    # the snap must keep that facet in every sector of the symmetric mesh
    mesh = generate_mesh(Disk(1), 0.05)
    cfg = ProblemConfig(2, 2)
    values = []
    for k in range(6):
        hole = make_hole_from_arc(mesh, k * mesh.perimeter / 6, np.pi / 2)
        assert hole_arcs(mesh, hole)[0][0] == 20 * k
        values.append(solve_trace_constant(mesh, cfg, hole).s_value)
    assert max(values) - min(values) <= 1e-12 * min(values)


def test_el_residual_of_dense_eigenpair():
    # the oracle eigenpair satisfies the discrete weak form to roundoff
    mesh = generate_mesh(Disk(1), 0.5)
    cfg = ProblemConfig(2, 2)
    hole = make_hole_from_arc(mesh, 0.0, mesh.perimeter / 6)
    lam, u = dense_trace_eigenpair(mesh, hole)
    res = solve_trace_constant(mesh, cfg, hole)
    from dataclasses import replace
    paired = replace(res, extremal=u, lam=lam)
    assert el_residual(mesh, cfg, paired, hole) <= 1e-10


def test_el_residual_requires_normalization(disk_coarse):
    cfg = ProblemConfig(2, 2)
    hole = make_hole_from_arc(disk_coarse, 0.0, 1.0)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    from dataclasses import replace
    bad = replace(res, extremal=2.0 * res.extremal)
    with pytest.raises(ValueError):
        el_residual(disk_coarse, cfg, bad, hole)


def test_positivity_and_zero_constraint(disk_coarse):
    cfg = ProblemConfig(2, 2)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    report = positivity_check(res, hole)
    assert report.min_off_hole > 0
    assert report.max_on_hole == 0.0
    assert not report.violation
    empty = hole_from_facets(disk_coarse, [])
    res0 = solve_trace_constant(disk_coarse, cfg, empty)
    rep0 = positivity_check(res0, empty)
    assert rep0.min_off_hole > 0 and rep0.min_free > 0


def test_full_boundary_hole_rejected(disk_coarse):
    cfg = ProblemConfig(2, 2)
    full = hole_from_facets(disk_coarse, range(disk_coarse.n_facets))
    with pytest.raises(NotAdmissibleError):
        solve_trace_constant(disk_coarse, cfg, full)


def test_nonconvergence_is_flagged(disk_coarse):
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-14, max_inner_iterations=2)
    hole = make_hole_from_arc(disk_coarse, 0.0, 1.0)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    assert not res.converged
    assert np.isfinite(res.s_value)


def test_restart_spread_small_for_p2(disk_coarse):
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-10)
    hole = make_hole_from_arc(disk_coarse, 0.5, 1.5)
    best, spread, values = solve_with_restarts(disk_coarse, cfg, hole, seed=4)
    assert len(values) == 4
    assert spread < 1e-7


def test_warm_start_matches_cold(disk_coarse):
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-10)
    hole = make_hole_from_arc(disk_coarse, 0.0, 2.0)
    cold = solve_trace_constant(disk_coarse, cfg, hole)
    warm = solve_trace_constant(disk_coarse, cfg, hole, init=cold.extremal)
    assert warm.iterations <= cold.iterations
    assert abs(warm.s_value - cold.s_value) <= 1e-9 * cold.s_value


def test_mesh_consistency_under_refinement():
    # same continuum hole (quarter arc), successive refinements: the
    # relative change of s_value shrinks toward zero (ratio -> 1); no
    # sign is asserted since conforming P1 over-constrains near the
    # hole boundary
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-9)
    values = []
    for res in (0.2, 0.1, 0.05):
        mesh = generate_mesh(Disk(1), res)
        hole = make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
        values.append(solve_trace_constant(mesh, cfg, hole).s_value)
    changes = [abs(b / a - 1.0) for a, b in zip(values, values[1:])]
    assert changes[-1] < changes[0]
    assert changes[-1] < 0.02


# S on Disk(1) with no hole at p = q = 2: the first Steklov eigenvalue of
# -Δu + u = 0, with extremal I₀(r)
STEKLOV_DISK = float(iv(1, 1) / iv(0, 1))
# first-order Richardson 2S(h/2) - S(h) at h = 0.025 of the quarter hole
# at p = q = 2, measured
QUARTER_HOLE_RICHARDSON_P2 = 0.7369014


def test_no_hole_error_is_second_order():
    # errors measured: -3.28e-4, -8.15e-5, -2.03e-5, -5.08e-6
    errors = []
    for res in (0.1, 0.05, 0.025, 0.0125):
        mesh = generate_mesh(Disk(1), res)
        trace = solve_trace_constant(mesh, ProblemConfig(2, 2),
                                     hole_from_facets(mesh, []))
        assert trace.converged
        errors.append(trace.s_value - STEKLOV_DISK)
    assert all(e < 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.1)
    assert abs(errors[-1]) < 6e-6


@pytest.fixture(scope="module")
def quarter_holes():
    meshes = [generate_mesh(Disk(1), res) for res in (0.05, 0.025, 0.0125)]
    return [(m, make_hole_from_arc(m, 0.0, 0.25 * m.perimeter))
            for m in meshes]


@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_quarter_hole_error_is_first_order(quarter_holes, p):
    # at the hole's endpoints the boundary condition switches from
    # Dirichlet to Steklov, so u ~ r^(1/2) there and the error is O(h);
    # ratios of successive differences measured: 1.92, 1.98, 2.01
    values = []
    for mesh, hole in quarter_holes:
        trace = solve_trace_constant(mesh, ProblemConfig(p, 2), hole)
        assert trace.converged
        values.append(trace.s_value)
    assert values[0] > values[1] > values[2]
    ratio = (values[0] - values[1]) / (values[1] - values[2])
    assert ratio == pytest.approx(2.0, abs=0.2)
    if p == 2:
        assert 2 * values[2] - values[1] == pytest.approx(
            QUARTER_HOLE_RICHARDSON_P2, abs=1e-6)


@pytest.mark.parametrize("domain,res,fraction", [
    (Disk(1), 0.05, 0.25),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256, 0.5),
])
def test_restricted_factorization_matches_dense_solve(domain, res, fraction):
    # the symmetric-mode factor of the restricted metric is an exact
    # inverse, not an approximation: it must agree with a dense solve
    mesh = generate_mesh(domain, res)
    hole = make_hole_from_arc(mesh, 0.0, fraction * mesh.perimeter)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    P = h1_operator(mesh).toarray()[np.ix_(free, free)]
    pre = Preconditioner.restricted(h1_operator(mesh), free)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(int(free.sum()))
        x = np.linalg.solve(P, b)
        assert np.linalg.norm(pre.solve(b) - x) <= 1e-10 * np.linalg.norm(x)
        assert np.allclose(pre.matvec(b), P @ b, rtol=0, atol=1e-13 * np.abs(P).max())


def _thin_half_hole(mu, res):
    mesh = generate_mesh(ThinRectangle(0, 1, mu), res)
    return mesh, make_hole_from_arc(mesh, 0.0, 0.5 * mesh.perimeter)


@pytest.mark.parametrize("mu,res,p,max_iterations", [
    (1 / 16, 1 / 64, 1.5, 1500),
    (1 / 16, 1 / 64, 3, 200),
    (1 / 64, 1 / 256, 3, 500),
])
def test_lagged_metric_converges_on_thin_meshes(mu, res, p, max_iterations):
    # the fixed W^{1,2} metric took 7761, 2056 and (unconverged) 9066
    # iterations on these anisotropic meshes
    mesh, hole = _thin_half_hole(mu, res)
    result = solve_trace_constant(mesh, ProblemConfig(p, p), hole)
    assert result.converged
    assert result.iterations <= max_iterations
    assert abs(result.lam - result.s_value) <= 1e-6 * result.s_value


def test_thinnest_mesh_at_p_below_two_meets_multiplier_check():
    mesh, hole = _thin_half_hole(1 / 64, 1 / 256)
    result = solve_trace_constant(mesh, ProblemConfig(1.5, 1.5), hole)
    assert abs(result.lam - result.s_value) <= 1e-6 * result.s_value


@pytest.mark.parametrize("p", [1.5, 3])
def test_disk_cold_starts_stay_short(p):
    # a cold start begins on the W^{1,2} metric: on the disk it converges
    # before the first refresh of the lagged metric
    mesh = generate_mesh(Disk(1), 0.05)
    hole = make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
    result = solve_trace_constant(mesh, ProblemConfig(p, 2), hole)
    assert result.converged
    assert result.iterations <= 30


def _count_factorizations(monkeypatch):
    calls = []
    restricted = Preconditioner.restricted.__func__

    def counted(cls, metric, free):
        calls.append(metric)
        return restricted(cls, metric, free)
    monkeypatch.setattr(Preconditioner, "restricted", classmethod(counted))
    return calls


def test_p2_solve_factors_the_h1_metric_once(monkeypatch, disk_coarse):
    calls = _count_factorizations(monkeypatch)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    cfg = ProblemConfig(2, 2)
    cold = solve_trace_constant(disk_coarse, cfg, hole)
    solve_trace_constant(disk_coarse, cfg, hole, init=cold.extremal)
    assert len(calls) == 2
    assert all(metric is h1_operator(disk_coarse) for metric in calls)


def test_p_not_two_refreshes_the_lagged_metric(monkeypatch):
    mesh, hole = _thin_half_hole(1 / 16, 1 / 64)
    cfg = ProblemConfig(3, 3)
    calls = _count_factorizations(monkeypatch)
    cold = solve_trace_constant(mesh, cfg, hole)
    # a cold start begins on the W^{1,2} metric, then refreshes
    assert calls[0] is h1_operator(mesh)
    assert len(calls) == 1 + cold.iterations // 30
    del calls[:]
    shifted = make_hole_from_arc(mesh, 0.05, 0.5 * mesh.perimeter)
    warm = solve_trace_constant(mesh, cfg, shifted, init=cold.extremal)
    # a warm start begins on the lagged metric at its init
    assert warm.converged and warm.iterations > 0
    assert len(calls) == 1 + warm.iterations // 30
    assert all(metric is not h1_operator(mesh) for metric in calls)


def test_one_dim_solves_refresh_the_lagged_metric(monkeypatch):
    problem = OneDimProblem(0, 1, 3, 3, 0.5)
    calls = _count_factorizations(monkeypatch)
    cold = solve_limit_problem(problem, (0.5, 1.0), 128)
    assert cold.iterations >= 30
    assert len(calls) == 1 + cold.iterations // 30
    del calls[:]
    warm = solve_limit_problem(problem, (0.25, 0.75), 128, init=cold.extremal)
    assert warm.converged and warm.iterations >= 30
    assert len(calls) == 1 + warm.iterations // 30


def test_ranking_field_factors_the_h1_metric_once(monkeypatch, disk_coarse):
    # the ranking solve runs on the fixed metric's factor it is given at
    # every p: it factors no lagged metric of its own
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    calls = _count_factorizations(monkeypatch)
    factor = Preconditioner.restricted(
        h1_operator(disk_coarse), np.ones(disk_coarse.n_vertices, dtype=bool))
    _relaxed_ranking_field(disk_coarse, ProblemConfig(3, 3), hole, None,
                           factor)
    assert len(calls) == 1 and calls[0] is h1_operator(disk_coarse)


def test_wrong_length_init_is_rejected(disk_coarse):
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    with pytest.raises(ValueError, match="wrong length"):
        solve_trace_constant(disk_coarse, ProblemConfig(2, 2), hole,
                             init=np.ones(disk_coarse.n_vertices + 1))
    with pytest.raises(ValueError, match="wrong length"):
        solve_limit_problem(OneDimProblem(0, 1, 2, 2, 0.5), (0.5, 1.0), 64,
                            init=np.ones(64))
