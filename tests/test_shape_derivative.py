import numpy as np
import pytest

from traceholes.fem import ProblemConfig
from traceholes.geometry import (
    Disk, generate_mesh, make_hole_from_arc, plateau_speed, tangential_field,
)
from traceholes.shape_derivative import (
    evaluate_shape_derivative, fd_check, transport_hole,
)
from traceholes.trace_solver import solve_trace_constant

from oracles import rotation_field


@pytest.fixture(scope="module")
def disk():
    return generate_mesh(Disk(1), 0.1)


@pytest.fixture(scope="module")
def disk_setup(disk):
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-10)
    hole = make_hole_from_arc(disk, 0.0, 0.25 * disk.perimeter)
    trace = solve_trace_constant(disk, cfg, hole)
    return cfg, hole, trace


def _end_plateau_field(mesh, hole_end, amplitude):
    f = float(mesh.facet_lengths.max())
    speed, dspeed = plateau_speed(mesh, hole_end - 8 * f, hole_end + 8 * f,
                                  6 * f, amplitude)
    return tangential_field(mesh, speed, dspeed)


def test_zero_field_gives_zero(disk, disk_setup):
    cfg, hole, trace = disk_setup
    V = tangential_field(disk, lambda s: np.zeros_like(np.asarray(s, float)),
                         lambda s: np.zeros_like(np.asarray(s, float)))
    res = evaluate_shape_derivative(disk, cfg, hole, V, trace)
    assert res.ds_dt == 0.0


@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (2, 2.5)])
def test_rotation_invariance(disk, p, q):
    cfg = ProblemConfig(p, q, dof_tolerance=1e-9)
    hole = make_hole_from_arc(disk, 1.0, 2.0)
    trace = solve_trace_constant(disk, cfg, hole)
    V = rotation_field(disk, 2.3)
    res = evaluate_shape_derivative(disk, cfg, hole, V, trace)
    assert abs(res.ds_dt) <= 1e-12
    assert res.boundary_term == pytest.approx(0.0, abs=1e-15)


def test_decomposition_and_linearity(disk, disk_setup):
    cfg, hole, trace = disk_setup
    P = disk.perimeter
    end = 0.25 * P
    V1 = _end_plateau_field(disk, end, 1.0)
    V3 = _end_plateau_field(disk, end, 3.0)
    r1 = evaluate_shape_derivative(disk, cfg, hole, V1, trace)
    r3 = evaluate_shape_derivative(disk, cfg, hole, V3, trace)
    assert r1.ds_dt == pytest.approx(r1.boundary_term + r1.volume_term, abs=0)
    # 1-homogeneity in the speed
    assert r3.ds_dt == pytest.approx(3.0 * r1.ds_dt, rel=1e-12)
    # additivity against a second profile
    s2, d2 = plateau_speed(disk, 0.6 * P, 0.7 * P, 0.05 * P, 0.8)
    V2 = tangential_field(disk, s2, d2)
    r2 = evaluate_shape_derivative(disk, cfg, hole, V2, trace)
    both = tangential_field(
        disk,
        lambda s: V1.speed(s) + V2.speed(s),
        lambda s: V1.dspeed(s) + V2.dspeed(s))
    rb = evaluate_shape_derivative(disk, cfg, hole, both, trace)
    assert rb.ds_dt == pytest.approx(r1.ds_dt + r2.ds_dt, rel=1e-10)


def test_requires_converged_normalized_trace(disk, disk_setup):
    cfg, hole, trace = disk_setup
    V = _end_plateau_field(disk, 0.25 * disk.perimeter, 1.0)
    from dataclasses import replace
    with pytest.raises(ValueError):
        evaluate_shape_derivative(disk, cfg, hole, V,
                                  replace(trace, converged=False))
    with pytest.raises(ValueError):
        evaluate_shape_derivative(disk, cfg, hole, V,
                                  replace(trace, extremal=2 * trace.extremal))


def test_tube_width_validated(disk, disk_setup):
    cfg, hole, trace = disk_setup
    speed, dspeed = plateau_speed(disk, 0.0, 1.0, 0.5, 1.0)
    V = tangential_field(disk, speed, dspeed, delta=2.0)
    with pytest.raises(ValueError):
        evaluate_shape_derivative(disk, cfg, hole, V, trace)


def test_tube_extension_vanishes_outside_tube(disk):
    from traceholes.geometry import field_divergence_and_jacobian
    V = _end_plateau_field(disk, 0.25 * disk.perimeter, 1.0)
    inner = np.array([[0.0, 0.0], [0.3, 0.2], [-0.4, 0.1]])
    assert np.all(np.hypot(*inner.T) < 1.0 - V.delta)
    div, DV = field_divergence_and_jacobian(disk, V, inner)
    assert np.all(div == 0.0)
    assert np.all(DV == 0.0)


def test_transport_identity_and_slide(disk):
    hole = make_hole_from_arc(disk, 0.0, 0.25 * disk.perimeter)
    V = rotation_field(disk, 1.0)
    assert transport_hole(disk, hole, V, 0.0).facet_indices == hole.facet_indices
    f = float(disk.facet_lengths[0])
    slid = transport_hole(disk, hole, V, 3 * f)
    assert slid.measure == pytest.approx(hole.measure, abs=1e-12)
    assert len(slid.facet_indices) == len(hole.facet_indices)
    assert slid.facet_indices != hole.facet_indices


def test_transport_one_endpoint_changes_measure(disk):
    hole = make_hole_from_arc(disk, 0.0, 0.25 * disk.perimeter)
    end = 0.25 * disk.perimeter
    V = _end_plateau_field(disk, end, 1.0)
    f = float(disk.facet_lengths[0])
    t = 2 * f   # speed 1 at the moving end, 0 at the fixed end
    moved = transport_hole(disk, hole, V, t)
    assert moved.measure - hole.measure == pytest.approx(t, abs=f / 2 + 1e-12)


def test_transport_collision_rejected(disk):
    P = disk.perimeter
    a = make_hole_from_arc(disk, 0.0, 0.3 * P)
    b = make_hole_from_arc(disk, 0.35 * P, 0.3 * P)
    both = type(a)(a.facet_indices | b.facet_indices,
                   a.measure + b.measure)
    # grow the first arc's end across the 0.05 P gap into the second arc
    # (narrow bump: the second arc's endpoints must not ride along, so its
    # support ends two facets past 0.3 P, short of the start at 0.35 P)
    f = float(disk.facet_lengths.max())
    speed, dspeed = plateau_speed(disk, 0.3 * P - f, 0.3 * P + f, f, 1.0)
    V = tangential_field(disk, speed, dspeed)
    with pytest.raises(ValueError):
        transport_hole(disk, both, V, 0.1 * P)


def test_fd_check_disk(disk, disk_setup):
    cfg, hole, trace = disk_setup
    P = disk.perimeter
    f = float(disk.facet_lengths[0])
    h = P / 500
    V = _end_plateau_field(disk, 0.25 * P, f / h)   # one facet per step
    chk = fd_check(disk, cfg, hole, V, [h], trace=trace)
    (h0, fd, rel), = chk.rows
    assert h0 == h
    assert rel < 0.05


def test_rotation_fd_shrinks_under_refinement():
    # a rigid slide leaves S invariant up to mesh anisotropy, so the
    # central differences head to zero as the mesh refines (they are not
    # monotone step to step, hence coarsest vs finest)
    fds = {}
    for res in (0.2, 0.05):
        mesh = generate_mesh(Disk(1), res)
        P = mesh.perimeter
        cfg = ProblemConfig(2, 2, dof_tolerance=1e-10)
        hole = make_hole_from_arc(mesh, 0.0, 0.25 * P)
        f = float(mesh.facet_lengths[0])
        h = P / 100
        V = rotation_field(mesh, 2 * f / h)   # slide exactly two facets
        chk = fd_check(mesh, cfg, hole, V, [h])
        fds[res] = abs(chk.rows[0][1])
    assert fds[0.05] < 0.5 * fds[0.2]
    assert fds[0.05] < 1e-3          # tiny against the O(1) derivative scale


def test_fd_hits_snap_noise_floor(disk, disk_setup):
    # with a displacement of one facet at the middle step, a ten times
    # smaller step snaps to no movement at all: the error collapses to
    # the quantization floor instead of improving
    cfg, hole, trace = disk_setup
    P = disk.perimeter
    f = float(disk.facet_lengths[0])
    h_mid = P / 500
    V = _end_plateau_field(disk, 0.25 * P, f / h_mid)
    chk = fd_check(disk, cfg, hole, V, [h_mid, h_mid / 10], trace=trace)
    (_, _, rel_mid), (_, fd_small, rel_small) = chk.rows
    assert rel_mid < 0.05
    assert fd_small == 0.0 and rel_small > rel_mid


def test_continuity_of_s_under_slide(disk, disk_setup):
    # measure-preserving slide by exactly one facet at h = P/100
    cfg, hole, trace = disk_setup
    P = disk.perimeter
    f = float(disk.facet_lengths[0])
    h = 1e-2 * P
    speed = f / h
    V = tangential_field(
        disk,
        lambda s: np.full_like(np.asarray(s, float), speed),
        lambda s: np.zeros_like(np.asarray(s, float)))
    moved = transport_hole(disk, hole, V, h)
    res = solve_trace_constant(disk, cfg, moved, init=trace.extremal)
    assert abs(res.s_value - trace.s_value) / trace.s_value < 0.01
