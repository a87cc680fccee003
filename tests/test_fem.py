import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceholes.fem import (
    _RULES, Operators, ProblemConfig, boundary_norm_q, energy_gradient, forms,
)
from traceholes.geometry import (
    Disk, Interval, Rectangle, ThinRectangle, generate_mesh,
    make_hole_from_arc,
)
from traceholes.trace_solver import free_dof_mask

from oracles import (
    assemble_p2_matrices, assemble_weighted_metric,
    central_difference_gradient, lagged_weights, linalg_operators,
    oracle_quotient,
)


@pytest.fixture(scope="module")
def square():
    return generate_mesh(Rectangle(1, 1), 0.25)


def _quotient(mesh, cfg, u):
    """E / B^(p/q) at u >= 0 as the descent evaluates it: E at B = 1."""
    evaluate, _ = forms(mesh).quotient(cfg)
    return evaluate(u)[1]


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
    # the quotient is undefined at the zero field itself; a field with zero
    # gradient adds the density eps^2 on every cell, eps^2 |Omega| in all
    zero = np.zeros(square.n_vertices)
    for eps in (0.0, 0.1):
        with pytest.raises(ValueError, match="boundary norm vanished"):
            _quotient(square, ProblemConfig(2, 2, epsilon=eps), zero)
    u = np.ones(square.n_vertices)
    with_eps = _quotient(square, ProblemConfig(2, 2, epsilon=0.1), u)
    without = _quotient(square, ProblemConfig(2, 2), u)
    assert with_eps - without == pytest.approx(0.1**2, rel=1e-12)


def test_energy_constant_field(square):
    # a constant field has no gradient; scaled to B = 1 on the unit
    # square's perimeter 4 it is 1/2, so E = |Omega| / 4
    u = np.ones(square.n_vertices)
    assert _quotient(square, ProblemConfig(2, 2), u) \
        == pytest.approx(0.25, rel=1e-12)


def test_energy_linear_field_interval():
    # oracle by hand: int_0^1 1 dx + int_0^1 x^2 dx = 4/3 (mass term is
    # trapezoidal under lumping, so compare at fine resolution); u = x
    # already has B = u(0)^2 + u(1)^2 = 1
    mesh = generate_mesh(Interval(0, 1), 1e-3)
    u = mesh.vertices[:, 0].copy()
    assert _quotient(mesh, ProblemConfig(2, 2), u) \
        == pytest.approx(4.0 / 3.0, abs=2e-6)


def test_energy_monotone_in_epsilon(square):
    # B does not depend on epsilon, so the quotient grows with E
    rng = np.random.default_rng(3)
    u = rng.uniform(0.5, 1.5, square.n_vertices)
    vals = [_quotient(square, ProblemConfig(1.5, 2, epsilon=e), u)
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
    assert _quotient(square, cfg, np.ones(square.n_vertices)) \
        == pytest.approx(0.25, rel=1e-13)
    disk = generate_mesh(Disk(1), 0.1)
    q = _quotient(disk, cfg, np.ones(disk.n_vertices))
    assert q == pytest.approx(0.5, rel=0.02)


def test_rayleigh_rejects_boundary_zero(square):
    cfg = ProblemConfig(2, 2)
    u = np.zeros(square.n_vertices)
    interior = np.setdiff1d(np.arange(square.n_vertices),
                            square.boundary_vertex_indices())
    u[interior] = 1.0
    with pytest.raises(ValueError, match="boundary norm vanished"):
        _quotient(square, cfg, u)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2 ** 31 - 1))
def test_quotient_degree_zero_homogeneity(c, seed):
    mesh = generate_mesh(Rectangle(1, 1), 0.5)
    cfg = ProblemConfig(2, 2)
    u = np.random.default_rng(seed).uniform(0.5, 1.5, mesh.n_vertices)
    assert abs(_quotient(mesh, cfg, c * u) - _quotient(mesh, cfg, u)) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 2.5])
def test_gradient_matches_finite_differences(p, q):
    # the descent's gradient at the field it scaled to B = 1
    mesh = generate_mesh(Rectangle(1, 1), 0.34)
    cfg = ProblemConfig(p, q)
    u = np.random.default_rng(7).uniform(0.5, 1.5, mesh.n_vertices)
    evaluate, gradient = forms(mesh).quotient(cfg)
    v, E, product = evaluate(u)
    g = gradient(v, E, product)
    fd = central_difference_gradient(lambda w: evaluate(w)[1], v)
    assert np.max(np.abs(fd - g)) <= 1e-5 * np.max(np.abs(g))


def test_quadratic_case_matches_bilinear_form():
    # for p = 2, eps = 0 the energy is the stiffness+lumped-mass form
    mesh = generate_mesh(Rectangle(1, 1), 0.34)
    cfg = ProblemConfig(2, 2)
    K, Mdiag, B = assemble_p2_matrices(mesh)
    rng = np.random.default_rng(11)
    for _ in range(3):
        u = rng.normal(size=mesh.n_vertices)
        assert boundary_norm_q(mesh, cfg, u) == pytest.approx(
            float(u @ (B @ u)), rel=1e-12)
        v = np.abs(u)
        quad = float(v @ (K @ v) + (Mdiag * v) @ v)
        assert _quotient(mesh, cfg, v) == pytest.approx(
            quad / float(v @ (B @ v)), rel=1e-12)


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
    P = forms(mesh).h1().toarray()
    assert np.allclose(P, K + np.diag(Mdiag), atol=1e-13)


def _operator_case(case):
    """(vertices, cells, quadrature simplices, their measures) of a mesh,
    or of a graded 1D grid whose cells carry the quadrature."""
    if case == "1d":
        x = np.cumsum(np.random.default_rng(2).uniform(0.5, 2.0, 41))
        cells = np.column_stack([np.arange(40), np.arange(1, 41)])
        return x.reshape(-1, 1), cells, cells, np.diff(x)
    domain, res = {"rectangle": (Rectangle(2, 1), 0.1),
                   "thin": (ThinRectangle(0, 1, 1 / 64), 1 / 256),
                   "disk": (Disk(1), 0.05)}[case]
    mesh = generate_mesh(domain, res)
    return mesh.vertices, mesh.cells, mesh.boundary, mesh.facet_lengths


@pytest.mark.parametrize("case", ["1d", "rectangle", "thin", "disk"])
def test_closed_form_operators_match_linalg(case):
    # the adjugate over the determinant (1/h in 1D) gives the gradients and
    # measures of np.linalg.inv and np.linalg.det to rounding; A has the
    # same structure, and D and Q are views of its arrays
    vertices, cells, quad, measures = _operator_case(case)
    ops = Operators(vertices, cells, quad, measures)
    A, vol, mass = linalg_operators(vertices, cells, quad,
                                    _RULES[quad.shape[1]][0])
    assert ops.A.format == "csr" and ops.A.shape == A.shape
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(ops.A, name), getattr(A, name))
    for got, want in ((ops.A.data, A.data), (ops.vol, vol), (ops.mass, mass)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    n = ops.D.shape[0]
    assert ops.D.shape == (len(cells) * (cells.shape[1] - 1), len(vertices))
    for part, rows in ((ops.D, slice(0, n)), (ops.Q, slice(n, None))):
        for name in ("data", "indices"):
            assert np.shares_memory(getattr(part, name), getattr(ops.A, name))
        assert (part != ops.A[rows]).nnz == 0


@pytest.mark.parametrize("case", ["1d", "disk"])
def test_flipped_cell_is_rejected(case):
    vertices, cells, quad, measures = _operator_case(case)
    cells = cells.copy()
    cells[7, :2] = cells[7, 1::-1]
    with pytest.raises(ValueError, match="non-positively oriented"):
        Operators(vertices, cells, quad, measures)


def test_cached_operators_do_not_keep_the_mesh_alive():
    mesh = generate_mesh(Disk(1), 0.25)
    forms(mesh).h1()        # builds the mesh's operators and caches both
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
                          forms(mesh).h1().toarray())


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

    def __rmatmul__(self, other):
        # a sparse matrix times this one (the metric's assembly) is no
        # product with a vector
        return other @ self.matrix

    def __getattr__(self, name):
        return getattr(self.matrix, name)


@pytest.mark.parametrize("p", [2, 3])
def test_descent_makes_one_stacked_product_per_trial(monkeypatch, p):
    # the start and every line-search trial are one evaluate, which makes
    # one product A u; gradient reads D u and Q u off that product and
    # makes no forward product of its own
    mesh = generate_mesh(ThinRectangle(0, 1, 1 / 16), 1 / 64)
    cfg = ProblemConfig(p, p, max_inner_iterations=500)
    ops = forms(mesh)
    for name in ("A", "D", "Q"):
        monkeypatch.setattr(ops, name, _CountingMatrix(getattr(ops, name)))
    evaluate, gradient = ops.quotient(cfg)
    calls = {"evaluate": 0, "gradient": 0}

    def forward_products():
        return ops.A.products + ops.D.products + ops.Q.products

    def counted_evaluate(u):
        calls["evaluate"] += 1
        return evaluate(u)

    def counted_gradient(u, E, product):
        calls["gradient"] += 1
        before = forward_products()
        g = gradient(u, E, product)
        assert forward_products() == before
        return g
    monkeypatch.setattr(ops, "quotient",
                        lambda _: (counted_evaluate, counted_gradient))
    hole = make_hole_from_arc(mesh, 0.0, 0.5 * mesh.perimeter)
    res = ops.solve(cfg, free_dof_mask(mesh, hole))
    # at p = 3 the lagged metric is refreshed at least twice
    assert res.converged and res.iterations > (60 if p != 2 else 5)
    assert calls["gradient"] == len(res.values)    # the start and each accepted
    assert ops.A.products == calls["evaluate"]


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (1.5, 1.5)])
def test_quotient_callables_match_the_forms(square, p, q):
    # evaluate normalizes by scaling its product, so it agrees with the
    # oracle's forms at the normalized field up to rounding; at B = 1 the
    # gradient is the quotient's
    cfg = ProblemConfig(p, q)
    x, y = square.vertices.T
    u = 1.0 + np.sin(3 * x) * np.cos(2 * y) ** 2
    evaluate, gradient = forms(square).quotient(cfg)
    v, E, product = evaluate(u)
    assert not v.flags.writeable
    B = boundary_norm_q(square, cfg, u)
    assert np.allclose(v, u * B ** (-1.0 / q), rtol=1e-15, atol=0)
    value, oracle_gradient = oracle_quotient(square, cfg)
    assert E == pytest.approx(value(v), rel=1e-13)
    g = oracle_gradient(v)
    assert np.abs(gradient(v, E, product) - g).max() <= 1e-12 * np.abs(g).max()


def test_density_is_fresh_for_every_changeable_array(square):
    cfg = ProblemConfig(3, 2)
    rng = np.random.default_rng(0)

    def fresh(u):
        return energy_gradient(square, cfg, u.copy())
    # a writable array changed in place between two evaluations
    u = rng.random(square.n_vertices)
    energy_gradient(square, cfg, u)
    u[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, u), fresh(u))
    # a read-only array made writable and changed
    v = rng.random(square.n_vertices)
    v.flags.writeable = False
    energy_gradient(square, cfg, v)
    v.flags.writeable = True
    v[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, v), fresh(v))
    # a read-only view of an array that is changed
    base = rng.random(square.n_vertices)
    view = base[:]
    view.flags.writeable = False
    energy_gradient(square, cfg, view)
    base[::3] *= 2.0
    assert np.array_equal(energy_gradient(square, cfg, view), fresh(view))
    # a read-only array that owns its data
    w = rng.random(square.n_vertices)
    w.flags.writeable = False
    assert np.array_equal(energy_gradient(square, cfg, w), fresh(w))
    # and for another epsilon
    other = ProblemConfig(3, 2, epsilon=0.5)
    assert np.array_equal(energy_gradient(square, other, w),
                          energy_gradient(square, other, w.copy()))


def _interval(n_cells, h, fixed):
    """(vertices, cells, cell measures, free mask) of n_cells cells of
    width h with the field fixed at node ``fixed``."""
    x = np.arange(n_cells + 1) * h
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return x.reshape(-1, 1), cells, np.diff(x), np.arange(n_cells + 1) != fixed


def _union(*grids):
    """The disjoint union of (vertices, cells, measures, free) grids whose
    quadrature runs on the cells, and a part label per vertex."""
    offsets = np.cumsum([0] + [g[0].shape[0] for g in grids[:-1]])
    cells = np.concatenate([g[1] + k for g, k in zip(grids, offsets)])
    labels = np.repeat(np.arange(len(grids)), [g[0].shape[0] for g in grids])
    return (np.concatenate([g[0] for g in grids]), cells,
            np.concatenate([g[2] for g in grids]),
            np.concatenate([g[3] for g in grids]), labels)


@pytest.mark.parametrize("p,q", [(1.5, 1.5), (2, 2), (3, 3), (1.5, 2), (3, 2)])
def test_parts_give_their_separate_solves(p, q):
    # one descent over two grids of different lengths: each part's
    # quotient is that of its own solve, and the value is their sum
    cfg = ProblemConfig(p, q)
    grids = (_interval(40, 1 / 40, 40), _interval(70, 1 / 64, 0))
    alone = [Operators(v, c, c, m).solve(cfg, free) for v, c, m, free in grids]
    assert all(res.converged for res in alone)
    vertices, cells, measures, free, labels = _union(*grids)
    ops = Operators(vertices, cells, cells, measures, parts=labels)
    res = ops.solve(cfg, free)
    assert res.converged
    values = ops.part_quotients(cfg, res.u)
    assert values == pytest.approx([r.value for r in alone], rel=1e-12, abs=0)
    assert res.value == pytest.approx(values.sum(), rel=1e-14)


@pytest.mark.parametrize("p", [2, 3])
def test_parts_of_planar_meshes_give_their_separate_solves(p):
    # the part labels of the gradient rows repeat per component
    cfg = ProblemConfig(p, 2)
    meshes = [generate_mesh(Rectangle(1, 1), 0.25),
              generate_mesh(Rectangle(2, 1), 0.25)]
    holes = [make_hole_from_arc(mesh, 0.0, 0.25 * mesh.perimeter)
             for mesh in meshes]
    frees = [free_dof_mask(mesh, hole) for mesh, hole in zip(meshes, holes)]
    alone = [forms(mesh).solve(cfg, free) for mesh, free in zip(meshes, frees)]
    offset = meshes[0].n_vertices
    ops = Operators(
        np.concatenate([mesh.vertices for mesh in meshes]),
        np.concatenate([meshes[0].cells, meshes[1].cells + offset]),
        np.concatenate([meshes[0].boundary, meshes[1].boundary + offset]),
        np.concatenate([mesh.facet_lengths for mesh in meshes]),
        parts=np.repeat([0, 1], [mesh.n_vertices for mesh in meshes]))
    res = ops.solve(cfg, np.concatenate(frees))
    assert res.converged and all(r.converged for r in alone)
    assert ops.part_quotients(cfg, res.u) == pytest.approx(
        [r.value for r in alone], rel=1e-12, abs=0)


def test_one_part_is_the_mesh_without_parts():
    cfg = ProblemConfig(3, 2)
    vertices, cells, measures, free = _interval(50, 1 / 50, 50)
    plain = Operators(vertices, cells, cells, measures)
    one = Operators(vertices, cells, cells, measures,
                    parts=np.zeros(51, dtype=int))
    value = plain.solve(cfg, free).value
    assert one.solve(cfg, free).value == pytest.approx(value, rel=1e-14)
    assert one.part_quotients(cfg, plain.solve(cfg, free).u) \
        == pytest.approx([value], rel=1e-14)


def test_parts_are_checked():
    vertices, cells, measures, _, labels = _union(
        _interval(8, 1 / 8, 8), _interval(6, 1 / 6, 0))
    # from x = 0 on part 1 to x = 1 on part 0
    bridge, bridge_measures = np.vstack([cells, [[9, 8]]]), np.append(measures, 1.0)
    for cell_set in (bridge, cells):    # a cell, then a quadrature simplex
        with pytest.raises(ValueError, match="straddles two parts") as err:
            Operators(vertices, cell_set, bridge, bridge_measures, parts=labels)
        assert "\n" not in str(err.value)
    # part 1 has no quadrature simplex
    own = labels[cells[:, 0]] == 0
    with pytest.raises(ValueError, match="no denominator weight") as err:
        Operators(vertices, cells, cells[own], measures[own], parts=labels)
    assert "\n" not in str(err.value)
