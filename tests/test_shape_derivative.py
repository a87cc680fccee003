import json

import numpy as np
import pytest

from traceholes import cli, shape_derivative
from traceholes.fem import ProblemConfig
from traceholes.geometry import (
    Disk, Rectangle, TangentialField, ThinRectangle,
    field_divergence_and_jacobian, generate_mesh, make_hole_from_arc,
    plateau_speed, tangential_field,
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
    mesh = disk
    cfg, hole, trace = disk_setup
    P = mesh.perimeter
    end = 0.25 * P
    V1 = _end_plateau_field(mesh, end, 1.0)
    V3 = _end_plateau_field(mesh, end, 3.0)
    r1 = evaluate_shape_derivative(mesh, cfg, hole, V1, trace)
    r3 = evaluate_shape_derivative(mesh, cfg, hole, V3, trace)
    assert r1.ds_dt == pytest.approx(r1.boundary_term + r1.volume_term, abs=0)
    # 1-homogeneity in the speed
    assert r3.ds_dt == pytest.approx(3.0 * r1.ds_dt, rel=1e-12)
    # additivity against a second profile
    s2, d2 = plateau_speed(mesh, 0.6 * P, 0.7 * P, 0.05 * P, 0.8)
    V2 = tangential_field(mesh, s2, d2)
    r2 = evaluate_shape_derivative(mesh, cfg, hole, V2, trace)
    both = tangential_field(
        mesh,
        lambda s: V1.speed(s) + V2.speed(s),
        lambda s: V1.dspeed(s) + V2.dspeed(s))
    rb = evaluate_shape_derivative(mesh, cfg, hole, both, trace)
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


@pytest.mark.parametrize("domain", [Rectangle(2, 1), ThinRectangle(0, 1, 0.25)])
def test_tube_fields_are_disk_only(domain):
    mesh = generate_mesh(domain, 0.25)
    speed, dspeed = plateau_speed(mesh, 0.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="disk meshes only") as err:
        tangential_field(mesh, speed, dspeed)
    assert "\n" not in str(err.value)
    V = TangentialField(speed, dspeed, 0.1)
    with pytest.raises(ValueError, match="disk meshes only"):
        field_divergence_and_jacobian(mesh, V, mesh.vertices)


def test_tube_width_validated(disk, disk_setup):
    cfg, hole, trace = disk_setup
    speed, dspeed = plateau_speed(disk, 0.0, 1.0, 0.5, 1.0)
    V = tangential_field(disk, speed, dspeed, delta=2.0)
    with pytest.raises(ValueError):
        evaluate_shape_derivative(disk, cfg, hole, V, trace)


def test_tube_extension_vanishes_outside_tube(disk):
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
    assert chk.converged


def test_fd_check_folds_an_unconverged_base_solve(disk, disk_setup):
    # the check still runs every step from an unconverged base solve, and
    # says that it did not converge
    cfg, hole, trace = disk_setup
    P = disk.perimeter
    h = P / 500
    V = _end_plateau_field(disk, 0.25 * P, float(disk.facet_lengths[0]) / h)
    from dataclasses import replace
    capped = replace(trace, converged=False)
    chk = fd_check(disk, cfg, hole, V, [h], trace=capped)
    ok = fd_check(disk, cfg, hole, V, [h], trace=trace)
    assert not chk.converged and ok.converged
    assert chk.analytic == ok.analytic and chk.rows == ok.rows
    with pytest.raises(ValueError, match="converged"):
        evaluate_shape_derivative(disk, cfg, hole, V, capped)


@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_fd_check_solves_each_moved_hole_cold(monkeypatch, tmp_path, p):
    # the CLI's default steps on disk 0.05: the smallest step moves no
    # facet, so both its signs take the base value, its difference is
    # exactly 0 and it makes no solve.  The other two steps make one cold
    # solve per sign (measured: at most 32 iterations)
    solve, solved = shape_derivative.solve_trace_constant, []

    def recorded(mesh, cfg, hole):
        solved.append((hole, solve(mesh, cfg, hole)))
        return solved[-1][1]
    monkeypatch.setattr(shape_derivative, "solve_trace_constant", recorded)
    assert cli.main(["shape-grad-check", "--domain", "disk", "--radius", "1",
                     "--resolution", "0.05", "-p", str(p), "-q", "2",
                     "--out", str(tmp_path), "--run-id", "r"]) == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert [row["fd"] == 0.0 for row in summary["rows"]] == [False, False, True]
    (base, _), moved = solved[0], solved[1:]
    assert len(moved) == 4 and all(hole != base for hole, _ in moved)
    assert all(res.converged and res.iterations <= 40 for _, res in moved)


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
    res = solve_trace_constant(disk, cfg, moved)
    assert abs(res.s_value - trace.s_value) / trace.s_value < 0.01
