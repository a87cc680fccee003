
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import iv

from traceholes import _descent, fem, trace_solver
from traceholes._descent import Preconditioner, _metric_norm2
from traceholes.fem import (
    NotAdmissibleError, ProblemConfig, forms,
)
from traceholes.geometry import (
    Disk, Interval, Rectangle, ThinRectangle, generate_mesh, hole_arcs,
    hole_from_facets, make_hole_from_arc,
)
from traceholes.hole_optimizer import optimize_hole_alternating
from traceholes.one_dim import (
    _limit_grid, _limit_operators, solve_limit_problem,
)
from traceholes.shape_derivative import fd_check
from traceholes.trace_solver import free_dof_mask, solve_trace_constant

from oracles import (
    dense_trace_eigenpair, el_residual, interval_trace_constant_shooting,
    positivity_check, rotation_field,
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
    paired = replace(res, extremal=u)
    assert el_residual(mesh, cfg, paired, hole) <= 1e-10
    # the replaced result recomputes its multiplier from the new extremal
    assert paired.lam == pytest.approx(lam, rel=1e-10)
    assert paired.el_residual <= 1e-10


def _count_multipliers(monkeypatch):
    calls = []
    multiplier = trace_solver._multiplier_and_residual

    def counted(*args):
        calls.append(args)
        return multiplier(*args)
    monkeypatch.setattr(trace_solver, "_multiplier_and_residual", counted)
    return calls


@pytest.mark.parametrize("run", ["optimize-disk", "optimize-thin", "fd-check"])
def test_searches_compute_no_multiplier(monkeypatch, run):
    # lambda and the residual are computed on first read, and neither the
    # hole search nor the shape-derivative check reads them
    calls = _count_multipliers(monkeypatch)
    cfg = ProblemConfig(2, 2)
    if run == "fd-check":
        mesh = generate_mesh(Disk(1), 0.1)
        hole = make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
        chk = fd_check(mesh, cfg, hole, rotation_field(mesh, 1.0),
                       [mesh.perimeter / 500])
        assert chk.converged
    else:
        mesh, alpha = {
            "optimize-disk": (generate_mesh(Disk(1), 0.1), 0.25),
            "optimize-thin": (generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64), 0.5),
        }[run]
        assert optimize_hole_alternating(mesh, cfg, alpha).n_solves > 0
    assert calls == []


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (1.5, 1.5)])
def test_multiplier_on_first_read_equals_the_eager_one(monkeypatch, disk_coarse,
                                                       p, q):
    # the multiplier read from a solve is, bit for bit, the one computed
    # from the solve's extremal and free set at once, and is computed once
    cfg = ProblemConfig(p, q)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    calls = _count_multipliers(monkeypatch)
    res = solve_trace_constant(disk_coarse, cfg, hole)
    assert calls == []
    lam, residual = trace_solver._multiplier_and_residual(
        disk_coarse, cfg, res.extremal, free_dof_mask(disk_coarse, hole))
    assert (res.lam, res.el_residual, res.lam) == (lam, residual, lam)
    assert len(calls) == 2      # the eager call above and the first read


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
    # the factor is single precision and pinned: the metric with the hole's
    # rows and columns replaced by the identity.  Its solve of a right side
    # that is zero on the hole is exactly zero there, and on the free set
    # it is a float32 SuperLU or banded Cholesky solve of the float32 cast
    # of the free block P.  The casts of P and b and the factorization's
    # backward error are relative perturbations of order the unit roundoff
    # u32, each amplified by at most the condition number kappa_2(P) to
    # first order, so the solve agrees with a dense float64 solve to
    # 3 kappa u32 (kappa is 1.6e3 on the disk and 64 on the thin mesh).
    # The metric product stays float64: the descent multiplies the full
    # metric by a step that is zero off the free set, which on the free
    # set is the block's product.
    mesh = generate_mesh(domain, res)
    hole = make_hole_from_arc(mesh, 0.0, fraction * mesh.perimeter)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    K = forms(mesh).h1()
    P = K.toarray()[np.ix_(free, free)]
    bound = 3 * np.linalg.cond(P) * np.finfo(np.float32).eps / 2
    order = forms(mesh).order
    assert order is not None
    rng = np.random.default_rng(0)
    for pre in (Preconditioner.pinned(K, free),
                Preconditioner.pinned(K, free, order)) * 3:
        s = np.zeros(mesh.n_vertices)
        s[free] = b = rng.standard_normal(int(free.sum()))
        x = np.linalg.solve(P, b)
        got = pre.solve(s)
        assert got.shape == s.shape and np.all(got[~free] == 0)
        assert np.linalg.norm(got[free] - x) <= bound * np.linalg.norm(x)
        assert np.allclose((K @ s)[free], P @ b, rtol=0, atol=1e-13 * np.abs(P).max())


def _union_grid_case(p):
    """(operators, abscissae, free mask) of the disjoint-union grid of the
    64-cell endpoint sweep at hole fraction 0.5: the free segments of
    lengths 16..32 as parts, each fixed at its hole end."""
    x = _limit_grid(Interval(0, 1), 64)
    sizes = np.arange(17, 34)
    nodes = np.concatenate([np.arange(n) for n in sizes])
    ops = _limit_operators(x[nodes], np.repeat(np.arange(sizes.size), sizes))
    return ops, x[nodes], nodes < np.repeat(sizes - 1, sizes)


def _backend_case(case, p):
    """(operators, abscissae, free mask) of the meshes both back ends are
    compared on, with the metric and its order made."""
    if case == "1d-union":
        ops, x, free = _union_grid_case(p)
        ops.h1()
        return ops, x, free
    mesh, fraction = {
        "disk": (generate_mesh(Disk(1), 0.05), 0.25),
        "thin16": (generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64), 0.5),
        "thin64": (generate_mesh(ThinRectangle(0, 1, 1 / 64), 1 / 256), 0.5),
    }[case]
    hole = make_hole_from_arc(mesh, 0.0, fraction * mesh.perimeter)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    ops = forms(mesh)
    ops.h1()
    return ops, mesh.vertices[:, 0], free


@pytest.mark.parametrize("case", ["disk", "thin16", "thin64", "1d-union"])
@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("lagged", [False, True])
def test_banded_and_superlu_factors_agree(case, p, lagged):
    # both back ends solve with the float32 cast of the same pinned metric,
    # each exactly 0 on the hole and on the free set to 3 kappa u32 of the
    # exact solve (test above), so to 6 kappa u32 of each other, where
    # kappa is the free block's condition number
    ops, x, free = _backend_case(case, p)
    assert ops.order is not None
    metric = (ops.lagged_metric(ProblemConfig(p, p), np.abs(np.sin(5 * x)) + 0.1,
                                1e-2) if lagged else ops.h1())
    idx = free.nonzero()[0]
    eig = np.linalg.eigvalsh(metric[np.ix_(idx, idx)].toarray())
    bound = 6 * eig[-1] / eig[0] * np.finfo(np.float32).eps / 2
    banded = Preconditioner.pinned(metric, free, ops.order)
    superlu = Preconditioner.pinned(metric, free)
    rng = np.random.default_rng(1)
    for _ in range(3):
        b = np.zeros(free.size)
        b[idx] = rng.standard_normal(idx.size)
        x_superlu, x_banded = superlu.solve(b), banded.solve(b)
        assert np.all(x_superlu[~free] == 0) and np.all(x_banded[~free] == 0)
        assert (np.linalg.norm(x_banded - x_superlu)
                <= bound * np.linalg.norm(x_superlu))


def test_banded_factor_of_an_indefinite_block_falls_back_to_superlu():
    # an SPD metric can round to an indefinite float32 block; its banded
    # Cholesky fails at pivot 2, and SuperLU's LU factor solves it instead
    K = np.array([[1.0, 2.0], [2.0, 1.0]])
    pre = Preconditioner.pinned(sp.csr_matrix(K), np.ones(2, dtype=bool),
                                np.arange(2))
    b = np.array([1.0, -3.0])
    assert pre.solve(b) == pytest.approx(np.linalg.solve(K, b), rel=1e-6)


def _bandwidth(metric, order) -> int:
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return int(np.max(np.repeat(pos, np.diff(metric.indptr)) - pos[metric.indices]))


def _assert_band_is_pinned_metric(ab, K, order, free):
    """The band storage ab holds, exactly, the float32 upper triangle of
    the pinned metric's transpose in ``order``: K off the rows and columns
    outside ``free``, with their diagonal 1.  The band takes the CSR rows
    as columns, so it holds the transpose's triangle."""
    n = K.shape[0]
    assert ab.dtype == np.float32 and ab.shape[1] == n
    w = ab.shape[0] - 1
    j = np.repeat(np.arange(n), w + 1)
    i = j - w + np.tile(np.arange(w + 1), n)    # ab[r, j] holds (j - w + r, j)
    inside = i >= 0
    got = np.zeros((n, n), dtype=np.float32)
    got[i[inside], j[inside]] = ab.T.ravel()[inside]
    want = K.T.toarray()
    want[~free], want[:, ~free] = 0.0, 0.0
    want[~free, ~free] = 1.0
    want = np.triu(want[np.ix_(order, order)]).astype(np.float32)
    assert np.array_equal(got, want)


def _capture_bands(monkeypatch):
    """Copies of every band handed to spbtrf, as handed, each in the Fortran
    order in which spbtrf factors it in place, with no copy of its own."""
    bands = []
    spbtrf = _descent.lapack.spbtrf

    def capture(ab, **kwargs):
        assert ab.flags.f_contiguous
        bands.append(ab.copy())
        return spbtrf(ab, **kwargs)
    monkeypatch.setattr(_descent.lapack, "spbtrf", capture)
    return bands


@pytest.mark.parametrize("case", ["disk", "thin64", "1d-union"])
def test_restricted_order_never_widens_the_band(monkeypatch, case):
    # every factor of a mesh stores the pinned metric in the mesh's order:
    # the metric's band image, its upper triangle cast to float32, with the
    # hole's rows and columns cleared and the hole's diagonal set to 1.
    # Pinning clears entries in place, so the band is always the full
    # metric's, whatever the hole
    ops, _, hole_free = _backend_case(case, 2)
    K, order = ops.h1(), ops.order
    kd = _bandwidth(K, order)
    bands = _capture_bands(monkeypatch)
    rng = np.random.default_rng(2)
    frees = [hole_free, np.ones_like(hole_free)]
    frees += [rng.random(hole_free.size) < keep for keep in (0.9, 0.5, 0.1)]
    for free in frees:
        Preconditioner.pinned(K, free, order)
        assert bands[-1].shape[0] - 1 == kd
        _assert_band_is_pinned_metric(bands[-1], K, order, free)
    assert len(bands) == len(frees)


def _retained_case(case):
    """(a maker of fresh operators, hole free masks) of a mesh solved hole
    after hole: arcs of several lengths on the disk and thin meshes, and
    every part's first node or last free node pinned on the 1D union grid."""
    if case == "1d-union":
        _, x, free = _union_grid_case(2)
        return (lambda: _union_grid_case(2)[0],
                [free, x > x.min(), free, np.ones_like(free)])
    mesh = {"disk": lambda: generate_mesh(Disk(1), 0.05),
            "thin64": lambda: generate_mesh(ThinRectangle(0, 1, 1 / 64), 1 / 256),
            }[case]()
    frees = [free_dof_mask(mesh, make_hole_from_arc(
        mesh, k * mesh.perimeter / 5, fraction * mesh.perimeter))
        for k, fraction in enumerate((0.25, 0.1, 0.5, 0.25, 0.7))]
    return (lambda: fem.Operators(mesh.vertices, mesh.cells, mesh.boundary,
                                  mesh.facet_lengths), frees)


@pytest.mark.parametrize("case", ["disk", "thin64", "1d-union"])
def test_retained_h1_image_pins_every_hole(monkeypatch, case):
    # a mesh's first factor of h1 pins a fresh band image and keeps
    # nothing; from the second it keeps the image and pins copies.  Every
    # band handed to spbtrf is the pinned metric built from scratch, the
    # kept image stays the unpinned metric's after every factor, and each
    # solve is bit for bit the same solve on fresh operators.  The last run
    # is a cold start at p != 2, whose first factor is h1's
    fresh, frees = _retained_case(case)
    ops = fresh()
    K = ops.h1()
    bands = _capture_bands(monkeypatch)
    runs = [(ProblemConfig(2, 2), free) for free in frees]
    runs.append((ProblemConfig(3, 2 if case == "disk" else 3), frees[0]))
    kept = None
    for i, (cfg, free) in enumerate(runs):
        first = len(bands)
        res = ops.solve(cfg, free)
        _assert_band_is_pinned_metric(bands[first], K, ops.order, free)
        if i == 0:
            assert ops._image is None
        elif kept is None:
            kept = ops._image.copy()
            assert np.array_equal(kept, _descent.band_image(K, np.argsort(ops.order)))
        else:
            assert np.array_equal(ops._image, kept)
        want = fresh().solve(cfg, free)
        assert res.iterations == want.iterations and res.value == want.value
        assert np.array_equal(res.u, want.u)


@pytest.mark.parametrize("domain,res,banded", [
    (Disk(1), 0.05, True), (Disk(1), 0.025, True),
    (Disk(1), 0.0125, True), (Disk(1), 0.00625, False),
    (ThinRectangle(0, 1, 1 / 2), 1 / 64, True),
    (ThinRectangle(0, 1, 1 / 16), 1 / 64, True),
    (ThinRectangle(0, 1, 1 / 64), 1 / 256, True),
    (Interval(0, 1), 1 / 1000, True),
])
def test_each_mesh_picks_its_factor_back_end(domain, res, banded):
    # banded where the full metric's band storage in reverse Cuthill-McKee
    # order is at most _BAND_FILL times its nonzeros: every 1D grid and
    # thin mesh and the disks up to resolution 0.0125 (kd 41, 81 and 161)
    ops = forms(generate_mesh(domain, res))
    assert ops.order is None
    K = ops.h1()
    assert (ops.order is not None) == banded
    if isinstance(domain, Interval):    # natural or reversed: tridiagonal
        assert np.array_equal(np.sort(ops.order), np.arange(K.shape[0]))
        assert np.abs(np.diff(ops.order)).max() == 1
        assert _bandwidth(K, ops.order) == 1
    elif isinstance(domain, Disk) and banded:
        assert _bandwidth(K, ops.order) == {0.05: 41, 0.025: 81, 0.0125: 161}[res]


def test_union_grid_is_tridiagonal_part_by_part():
    # the parts share no edge, so reverse Cuthill-McKee keeps each one
    # contiguous, in its natural order or the reverse
    ops, _, _ = _union_grid_case(2)
    K = ops.h1()
    assert _bandwidth(K, ops.order) == 1
    parts = ops._parts[1][ops.order]
    assert np.count_nonzero(np.diff(parts)) == parts.max()


def _free_block_case(grid):
    """(operators, abscissae, free mask) of a grid with a hole."""
    if grid == "1d":
        x = _limit_grid(Interval(0, 1), 256)
        return _limit_operators(x), x, (x < 0.25) | (x > 0.75)
    domain, res = {"disk": (Disk(1), 0.1), "square": (Rectangle(1, 1), 1 / 16)}[grid]
    mesh = generate_mesh(domain, res)
    hole = make_hole_from_arc(mesh, 0.3, 0.25 * mesh.perimeter)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    return forms(mesh), mesh.vertices[:, 0], free


def _metric_case(grid, lagged):
    """(metric, free mask) of a grid with a hole: the W^{1,2} metric or a
    lagged one."""
    ops, x, free = _free_block_case(grid)
    metric = (ops.lagged_metric(ProblemConfig(1.5, 1.5),
                                np.abs(np.sin(5 * x)) + 0.1, 1e-2)
              if lagged else ops.h1())
    return metric, free


@pytest.mark.parametrize("grid", ["disk", "square", "1d"])
@pytest.mark.parametrize("lagged", [False, True])
def test_restricted_hands_splu_the_fancy_indexed_block(monkeypatch, grid,
                                                       lagged):
    # the masked cut gives SuperLU, as CSC, the CSR arrays of the pinned
    # metric, its values cast to float32: each free row holds the entries
    # of the CSR metric[np.ix_(idx, idx)], in order, at the free columns,
    # and each hole row its diagonal 1.  The CSC reading is the pinned
    # metric's transpose, which is the metric to rounding, as it is
    # symmetric.  The arrays are copied as handed, since SuperLU sorts
    # unsorted indices in place.
    metric, free = _metric_case(grid, lagged)
    handed = []
    splu = spla.splu

    def capture(P, **kwargs):
        handed.append(P.copy())
        return splu(P, **kwargs)
    monkeypatch.setattr(spla, "splu", capture)
    Preconditioner.pinned(metric, free)
    idx = free.nonzero()[0]
    expected = metric[np.ix_(idx, idx)]
    assert expected.format == "csr"
    assert len(handed) == 1 and handed[0].format == "csc"
    cut = handed[0]
    assert cut.shape == metric.shape
    assert cut.indptr.dtype == cut.indices.dtype == metric.indices.dtype
    assert cut.data.dtype == np.float32
    row = np.repeat(np.arange(free.size), np.diff(cut.indptr))
    on_free = free[row]
    assert np.array_equal(cut.indices[on_free], idx[expected.indices])
    assert np.array_equal(cut.data[on_free], expected.data.astype(np.float32))
    assert np.array_equal(cut.indices[~on_free], row[~on_free])
    assert np.all(cut.data[~on_free] == 1)
    pinned = np.eye(free.size)
    pinned[np.ix_(idx, idx)] = expected.toarray()
    assert (np.abs(cut.toarray() - pinned).max()
            <= np.finfo(np.float32).eps * np.abs(pinned).max())


@pytest.mark.parametrize("grid", ["disk", "square", "1d"])
@pytest.mark.parametrize("lagged", [False, True])
def test_metric_product_is_the_free_block_product(grid, lagged):
    # <s, s>_P of a step zero off the free set, through the full metric,
    # adds only exact zeros to the free block's product
    metric, free = _metric_case(grid, lagged)
    idx = free.nonzero()[0]
    block = metric[np.ix_(idx, idx)]
    rng = np.random.default_rng(3)
    s = np.zeros(free.size)
    s[free] = rng.standard_normal(idx.size)
    want = float(s[free] @ (block @ s[free]))
    assert _metric_norm2(metric, s) == pytest.approx(want, rel=1e-14, abs=0)


def _float64_pinned(cls, metric, free, order=None, image=None):
    """The preconditioner with a float64 SuperLU factor of the metric with
    the hole's rows and columns replaced by the identity, built by sparse
    products, as a reference for either back end (``order`` and ``image``
    are unused)."""
    keep = sp.diags(free.astype(float))
    pinned = keep @ metric @ keep + sp.diags((~free).astype(float))
    lu = spla.splu(pinned.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return cls(solve=lu.solve)


@pytest.mark.parametrize("case", ["disk", "thin", "1d"])
@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_single_precision_factor_leaves_the_answer(monkeypatch, case, p):
    # the factor only shapes the step: the float64 gradient and stopping
    # test fix S, so the solve agrees with one preconditioned by a float64
    # factor to rounding (measured <= 3.3e-16 relative).  The iterates
    # differ, so the iteration count may move, within 10% plus two of the
    # reference (measured: equal, but thin at p = 1.5 took 96 against 91)
    def solve():
        if case == "1d":
            r = solve_limit_problem(Interval(0, 1), ProblemConfig(p, p),
                                    (0.0, 0.5), 256)
            return r.converged, r.value, r.iterations
        if case == "disk":
            mesh = generate_mesh(Disk(1), 0.05)
            hole = make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
        else:
            mesh, hole = _thin_half_hole(1 / 16, 1 / 64)
        r = solve_trace_constant(mesh, ProblemConfig(p, 2 if case == "disk" else p), hole)
        return r.converged, r.s_value, r.iterations
    converged, value, iterations = solve()
    monkeypatch.setattr(Preconditioner, "pinned", classmethod(_float64_pinned))
    ref_converged, ref_value, ref_iterations = solve()
    assert converged and ref_converged
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
    assert abs(iterations - ref_iterations) <= 0.1 * ref_iterations + 2


@pytest.mark.parametrize("banded", [True, False])
@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_pinned_factor_keeps_every_iterate_zero_on_the_hole(banded, p):
    # the pinned solve of a right side zero on the hole is exactly zero
    # there, fixed and lagged metric alike, so every trial field the
    # descent evaluates is exactly zero on the hole with no mask of its own
    mesh = generate_mesh(Disk(1), 0.05)
    hole = make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[hole.vertex_indices(mesh)] = False
    ops, cfg = forms(mesh), ProblemConfig(p, 2)
    h1 = ops.h1()
    order = ops.order if banded else None
    assert (order is not None) == banded
    x = mesh.vertices[:, 0]
    b = np.where(free, np.sin(7 * x) + 0.2, 0.0)
    for metric in (h1, ops.lagged_metric(cfg, np.abs(np.sin(5 * x)) + 0.1, 1e-2)):
        d = Preconditioner.pinned(metric, free, order).solve(b)
        assert np.all(d[~free] == 0) and np.all(d[free] != 0)
    evaluate, gradient = ops.quotient(cfg)
    trials = []

    def recorded(u):
        trials.append(u[~free].copy())
        return evaluate(u)
    def factor(u, delta):
        metric = h1 if u is None else ops.lagged_metric(cfg, u, delta)
        return metric, Preconditioner.pinned(metric, free, order)
    res = _descent.minimize_quotient(recorded, gradient, p, free, factor,
                                     cfg.dof_tolerance, cfg.max_inner_iterations)
    assert res.converged and len(trials) > res.iterations > 0
    assert all(np.all(t == 0) for t in trials) and np.all(res.u[~free] == 0)


@pytest.mark.parametrize("grid", ["disk", "square", "1d"])
def test_transposed_products_go_through_views_of_a(grid):
    # no CSR transpose is stored; the CSC views D.T and Q.T give the
    # products of the former CSR copies bit for bit, and the metric the
    # arrays of their product
    ops, x, _ = _free_block_case(grid)
    assert not hasattr(ops, "DT") and not hasattr(ops, "QT")
    DT, QT = ops.D.T.tocsr(), ops.Q.T.tocsr()
    u = np.sin(5 * x) + 0.1      # signed
    for p, q in ((1.5, 1.5), (2, 2), (3, 2)):
        cfg = ProblemConfig(p, q)
        Du, s = ops.density(cfg, u)
        flux = Du.reshape(ops.dim, -1) * (p * ops.vol * s ** ((p - 2.0) / 2.0))
        want = DT @ flux.ravel() + p * ops.mass * np.sign(u) * np.abs(u) ** (p - 1.0)
        assert np.array_equal(ops.energy_gradient(cfg, u), want)
        Qu = ops.Q @ u
        want = QT @ (q * ops.w * np.sign(Qu) * np.abs(Qu) ** (q - 1.0))
        assert np.array_equal(ops.norm_gradient(cfg, u), want)
    c = np.abs(np.cos(3 * np.arange(ops.vol.size))) + 0.5
    row_vol = np.repeat(np.tile(ops.vol * c, ops.dim), ops.dim + 1)
    want = DT @ sp.csr_matrix((ops.D.data * row_vol, ops.D.indices,
                               ops.D.indptr), shape=ops.D.shape)
    want.setdiag(want.diagonal() + ops.mass)
    got = ops.metric(c)
    assert got.format == "csr"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


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
    pinned = Preconditioner.pinned.__func__

    def counted(cls, metric, free, order=None, image=None):
        calls.append(metric)
        return pinned(cls, metric, free, order, image)
    monkeypatch.setattr(Preconditioner, "pinned", classmethod(counted))
    return calls


def test_p2_solve_factors_the_h1_metric_once(monkeypatch, disk_coarse):
    calls = _count_factorizations(monkeypatch)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    solve_trace_constant(disk_coarse, ProblemConfig(2, 2), hole)
    assert len(calls) == 1 and calls[0] is forms(disk_coarse).h1()


def test_p_not_two_refreshes_the_lagged_metric(monkeypatch):
    mesh, hole = _thin_half_hole(1 / 16, 1 / 64)
    cfg = ProblemConfig(3, 3)
    calls = _count_factorizations(monkeypatch)
    cold = solve_trace_constant(mesh, cfg, hole)
    # a cold start begins on the W^{1,2} metric, then refreshes
    assert calls[0] is forms(mesh).h1()
    assert len(calls) == 1 + cold.iterations // 30
    assert all(metric is not forms(mesh).h1() for metric in calls[1:])


def test_one_dim_solves_refresh_the_lagged_metric(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    cold = solve_limit_problem(Interval(0, 1), ProblemConfig(3, 3),
                               (0.5, 1.0), 128)
    assert cold.iterations >= 30
    assert len(calls) == 1 + cold.iterations // 30


def test_each_solve_reports_its_one_descent_as_is(monkeypatch, disk_coarse):
    # both solvers run one descent through Operators.solve and report its
    # value and normalized field, with no evaluate after it
    evaluates, records = [0], []
    quotient, descent = fem.Operators.quotient, fem.minimize_quotient

    def counted_quotient(self, cfg):
        evaluate, gradient = quotient(self, cfg)

        def counted(u):
            evaluates[0] += 1
            return evaluate(u)
        return counted, gradient

    def recorded(*args, **kwargs):
        records.append((descent(*args, **kwargs), evaluates[0]))
        return records[-1][0]
    monkeypatch.setattr(fem.Operators, "quotient", counted_quotient)
    monkeypatch.setattr(fem, "minimize_quotient", recorded)
    hole = make_hole_from_arc(disk_coarse, 0.0, disk_coarse.perimeter / 4)
    trace = solve_trace_constant(disk_coarse, ProblemConfig(3, 2), hole)
    assert len(records) == 1 and evaluates[0] == records[0][1]
    limit = solve_limit_problem(Interval(0, 1), ProblemConfig(3, 3),
                                (0.5, 1.0), 128)
    assert len(records) == 2 and evaluates[0] == records[1][1]
    for (value, u), (res, _) in zip([(trace.s_value, trace.extremal),
                                     (limit.value, limit.extremal)], records):
        assert value == res.value and u is res.u
