import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceholes._descent import minimize_quotient
from traceholes.fem import (
    NotAdmissibleError, ProblemConfig, boundary_norm_q, energy,
    energy_gradient, forms, h1_operator, quotient_gradient,
    rayleigh_quotient,
)
from traceholes.geometry import (
    Disk, Interval, Rectangle, ThinRectangle, generate_mesh,
    make_hole_from_arc,
)
from traceholes.trace_solver import free_dof_mask

from oracles import (
    assemble_p2_matrices, assemble_weighted_metric,
    central_difference_gradient, lagged_weights,
)


@pytest.fixture(scope="module")
def square():
    return generate_mesh(Rectangle(1, 1), 0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(1.0, 2)
    with pytest.raises(ValueError):
        ProblemConfig(2, 0.5)
    with pytest.raises(ValueError):
        ProblemConfig(2, 2, epsilon=-1)
    cfg = ProblemConfig(2, 2)
    assert cfg.eps == 0.0
    assert ProblemConfig(1.5, 2).eps == 1e-8


def test_subcriticality_rule():
    # p < N: p_* = p(N-1)/(N-p); p >= N: unbounded
    cfg = ProblemConfig(1.5, 3.5)
    assert cfg.critical_exponent(2) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        cfg.validate_subcritical(2)
    ProblemConfig(2, 7).validate_subcritical(2)   # p = N -> p_* infinite
    ProblemConfig(1.5, 2.5).validate_subcritical(2)
    ProblemConfig(3, 100).validate_subcritical(1)


def test_energy_zero_field(square):
    cfg = ProblemConfig(2, 2, epsilon=0.1)
    u = np.zeros(square.n_vertices)
    assert energy(square, cfg, u) == pytest.approx(0.1**2, rel=1e-12)
    cfg0 = ProblemConfig(2, 2)
    assert energy(square, cfg0, u) == 0.0


def test_energy_constant_field(square):
    cfg = ProblemConfig(2, 2)
    u = np.ones(square.n_vertices)
    assert energy(square, cfg, u) == pytest.approx(1.0, rel=1e-12)


def test_energy_linear_field_interval():
    # oracle by hand: int_0^1 1 dx + int_0^1 x^2 dx = 4/3 (mass term is
    # trapezoidal under lumping, so compare at fine resolution)
    mesh = generate_mesh(Interval(0, 1), 1e-3)
    cfg = ProblemConfig(2, 2)
    u = mesh.vertices[:, 0].copy()
    assert energy(mesh, cfg, u) == pytest.approx(4.0 / 3.0, abs=2e-6)


def test_energy_monotone_in_epsilon(square):
    rng = np.random.default_rng(3)
    u = rng.uniform(0.5, 1.5, square.n_vertices)
    vals = [energy(square, ProblemConfig(1.5, 2, epsilon=e), u)
            for e in [0.0, 1e-3, 1e-1, 1.0]]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_boundary_norm_examples(square):
    cfg = ProblemConfig(2, 2)
    assert boundary_norm_q(square, cfg, np.ones(square.n_vertices)) \
        == pytest.approx(4.0, rel=1e-14)
    assert boundary_norm_q(square, cfg, np.zeros(square.n_vertices)) == 0.0
    c = -2.7
    cfgq = ProblemConfig(2, 1.5)
    assert boundary_norm_q(square, cfgq, c * np.ones(square.n_vertices)) \
        == pytest.approx(abs(c) ** 1.5 * 4.0, rel=1e-13)


def test_rayleigh_quotient_examples(square):
    cfg = ProblemConfig(2, 2)
    assert rayleigh_quotient(square, cfg, np.ones(square.n_vertices)) \
        == pytest.approx(0.25, rel=1e-13)
    disk = generate_mesh(Disk(1), 0.1)
    q = rayleigh_quotient(disk, cfg, np.ones(disk.n_vertices))
    assert q == pytest.approx(0.5, rel=0.02)


def test_rayleigh_rejects_boundary_zero(square):
    cfg = ProblemConfig(2, 2)
    u = np.zeros(square.n_vertices)
    interior = np.setdiff1d(np.arange(square.n_vertices),
                            square.boundary_vertex_indices())
    u[interior] = 1.0
    with pytest.raises(NotAdmissibleError):
        rayleigh_quotient(square, cfg, u)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2 ** 31 - 1))
def test_quotient_degree_zero_homogeneity(c, seed):
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    cfg = ProblemConfig(2, 2)
    u = np.random.default_rng(seed).uniform(0.5, 1.5, mesh.n_vertices)
    assert abs(rayleigh_quotient(mesh, cfg, c * u)
               - rayleigh_quotient(mesh, cfg, u)) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 2.5])
def test_gradient_matches_finite_differences(p, q):
    mesh = generate_mesh(Rectangle(1, 1), 0.34)
    cfg = ProblemConfig(p, q)
    u = np.random.default_rng(7).uniform(0.5, 1.5, mesh.n_vertices)
    g = quotient_gradient(mesh, cfg, u)
    fd = central_difference_gradient(
        lambda v: rayleigh_quotient(mesh, cfg, v), u)
    assert np.max(np.abs(fd - g)) <= 1e-5 * np.max(np.abs(g))


def test_quadratic_case_matches_bilinear_form():
    # for p = 2, eps = 0 the energy is the stiffness+lumped-mass form
    mesh = generate_mesh(Rectangle(1, 1), 0.34)
    cfg = ProblemConfig(2, 2)
    K, Mdiag, B = assemble_p2_matrices(mesh)
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = rng.normal(size=mesh.n_vertices)
        quad = float(u @ (K @ u) + (Mdiag * u) @ u)
        assert energy(mesh, cfg, u) == pytest.approx(quad, rel=1e-12)
        assert boundary_norm_q(mesh, cfg, u) == pytest.approx(
            float(u @ (B @ u)), rel=1e-12)


def test_p2_gradient_superposition():
    # quadratic energy: the assembled weak form is linear in u
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    cfg = ProblemConfig(2, 2)
    rng = np.random.default_rng(5)
    u1 = rng.normal(size=mesh.n_vertices)
    u2 = rng.normal(size=mesh.n_vertices)
    g = energy_gradient(mesh, cfg, u1 + u2)
    assert np.allclose(g, energy_gradient(mesh, cfg, u1)
                       + energy_gradient(mesh, cfg, u2), atol=1e-12)


def test_h1_operator_matches_dense_assembly():
    mesh = generate_mesh(Disk(1), 0.5)
    K, Mdiag, _ = assemble_p2_matrices(mesh)
    P = h1_operator(mesh).toarray()
    assert np.allclose(P, K + np.diag(Mdiag), atol=1e-13)


def test_cached_operators_do_not_keep_the_mesh_alive():
    mesh = generate_mesh(Disk(1), 0.25)
    h1_operator(mesh)       # builds the mesh's operators and caches both
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


METRIC_MESHES = [(Disk(1), 0.25), (ThinRectangle(0, 1, 1 / 16), 1 / 32),
                 (Interval(0, 1), 0.05)]


@pytest.mark.parametrize("domain,res", METRIC_MESHES)
def test_weighted_metric_matches_dense_assembly(domain, res):
    mesh = generate_mesh(domain, res)
    rng = np.random.default_rng(1)
    c = rng.uniform(0.1, 10.0, len(mesh.cells))
    c_m = rng.uniform(0.1, 10.0, mesh.n_vertices)
    P = forms(mesh).metric(c, c_m).toarray()
    A = assemble_weighted_metric(mesh, c, c_m)
    assert np.abs(P - A).max() <= 1e-12 * np.abs(A).max()
    assert np.abs(P - P.T).max() <= 1e-14 * np.abs(P).max()
    assert np.linalg.eigvalsh(P)[0] > 0


@pytest.mark.parametrize("domain,res", METRIC_MESHES)
def test_unit_weights_give_the_h1_metric(domain, res):
    mesh = generate_mesh(domain, res)
    ones = np.ones(len(mesh.cells)), np.ones(mesh.n_vertices)
    assert np.array_equal(forms(mesh).metric(*ones).toarray(),
                          h1_operator(mesh).toarray())


@pytest.mark.parametrize("domain,res", METRIC_MESHES)
@pytest.mark.parametrize("p", [1.5, 3])
def test_lagged_metric_matches_dense_assembly(domain, res, p):
    mesh = generate_mesh(domain, res)
    cfg = ProblemConfig(p, 2)
    x = mesh.vertices[:, 0]
    u = np.abs(np.sin(3 * x + 0.5)) + 0.1 * x**2
    c, c_m = lagged_weights(mesh, u, p, cfg.eps, 1e-2)
    P = forms(mesh).lagged_metric(cfg, u, 1e-2).toarray()
    A = assemble_weighted_metric(mesh, c, c_m)
    assert np.abs(P - A).max() <= 1e-12 * np.abs(A).max()
    assert np.linalg.eigvalsh(P)[0] > 0


class _CountingMatrix:
    """A sparse matrix that counts its products with a vector."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, u):
        self.products += 1
        return self.matrix @ u

    def __getattr__(self, name):
        return getattr(self.matrix, name)


@pytest.mark.parametrize("p", [2, 3])
def test_descent_computes_D_u_once_per_accepted_iterate(monkeypatch, p):
    # E and dE at an accepted iterate, and the lagged metric refreshed
    # there, share one D u: every D u is an energy evaluation's
    mesh = generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64)
    cfg = ProblemConfig(p, p)
    ops = forms(mesh)
    h1 = h1_operator(mesh)
    monkeypatch.setattr(ops, "D", _CountingMatrix(ops.D))
    calls = {"E": 0, "dE": 0}

    def counted(name, fn):
        def call(u):
            calls[name] += 1
            return fn(mesh, cfg, u)
        return call
    hole = make_hole_from_arc(mesh, 0.0, 0.5 * mesh.perimeter)
    res = minimize_quotient(
        counted("E", energy), counted("dE", energy_gradient),
        lambda u: boundary_norm_q(mesh, cfg, u),
        lambda u: ops.norm_gradient(cfg, u), cfg.p, cfg.q,
        free_dof_mask(mesh, hole), None, h1, tol=1e-8, max_iter=500,
        metric=ops.descent_metric(cfg))
    # at p = 3 the lagged metric is refreshed at least twice
    assert res.converged and res.iterations > (60 if p != 2 else 5)
    assert calls["dE"] == len(res.values)       # the start and each accepted
    assert ops.D.products == calls["E"]


def test_density_is_fresh_for_every_changeable_array(square):
    cfg = ProblemConfig(3, 2)
    ops = forms(square)
    rng = np.random.default_rng(0)

    def fresh(u):
        return energy_gradient(square, cfg, u.copy())
    # a writable array changed in place between E and dE
    u = rng.random(square.n_vertices)
    energy(square, cfg, u)
    u[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, u), fresh(u))
    # a read-only array made writable and changed
    v = rng.random(square.n_vertices)
    v.flags.writeable = False
    energy(square, cfg, v)
    v.flags.writeable = True
    v[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, v), fresh(v))
    # a read-only view of an array that is changed
    base = rng.random(square.n_vertices)
    view = base[:]
    view.flags.writeable = False
    energy(square, cfg, view)
    base[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, view), fresh(view))
    # a read-only array that owns its data is served from the cache, with
    # the values a fresh evaluation gives
    w = rng.random(square.n_vertices)
    w.flags.writeable = False
    E = energy(square, cfg, w)
    assert ops.density(cfg, w)[1] is ops.density(cfg, w)[1]
    assert E == energy(square, cfg, w.copy())
    assert np.array_equal(energy_gradient(square, cfg, w), fresh(w))
    # and not for another epsilon
    other = ProblemConfig(3, 2, epsilon=0.5)
    assert energy(square, other, w) == energy(square, other, w.copy())
