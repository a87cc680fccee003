"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one [PASS]/[FAIL]
line per criterion check.  Criterion 5's 5-percent window and slope window
fail by mathematics, not by implementation error: at the stated mu values
the first-order thickness corrections to the scaling limit are 14 to 60
percent, because the optimal hole covers one short cap of the thin
rectangle while the opposite cap keeps a boundary-norm contribution of
relative size 2 mu.  The checks are asserted anyway, honestly red, with
convergence diagnostics printed alongside.
"""

import numpy as np
import pytest

from traceholes.fem import ProblemConfig, quotient_gradient, rayleigh_quotient
from traceholes.geometry import (
    Disk, Interval, Rectangle, generate_mesh, hole_from_facets,
    make_hole_from_arc, plateau_speed, tangential_field,
)
from traceholes.hole_optimizer import (
    optimize_hole_alternating, zero_set_measure,
)
from traceholes.one_dim import (
    OneDimProblem, closed_form_limit_constant, optimize_limit_hole,
    solve_limit_problem,
)
from traceholes.shape_derivative import evaluate_shape_derivative, fd_check
from traceholes.thin_domain import run_mu_sweep
from traceholes.trace_solver import positivity_check, solve_trace_constant

from oracles import (
    central_difference_gradient, dense_trace_eigenpair, is_contiguous_arc,
    rotation_field,
)


def _report(lines, ok, label):
    lines.append((ok, f"[{'PASS' if ok else 'FAIL'}] {label}"))


def _within(value, tol):
    """``value`` against its tolerance ``tol`` (as written), printed as the
    bound when it holds: a rounding-level value moves with the last bits of
    a solve, and the printout should not."""
    return f"<= {tol}" if abs(value) <= float(tol) else f"= {value:.1e} > {tol}"


def _finish(lines):
    for _, line in lines:
        print(line)
    bad = [line for ok, line in lines if not ok]
    assert not bad, "\n".join(bad)


# -- criterion 1: closed-form 1D constant ----------------------------------

def test_criterion_1_closed_form_1d_constant():
    lines = []
    references = {(2, 0.5): 10.8696, (2, 0.25): 40.478, (3, 0.5): 29.29}
    for p in (2, 3):
        for alpha in (0.25, 0.5):
            closed = closed_form_limit_constant(p, alpha, 1.0)
            # the formula's alpha is the free fraction: the matching FEM
            # problem pins the field on the remaining 1 - alpha
            problem = OneDimProblem(0, 1, p, p, 1.0 - alpha)
            res = solve_limit_problem(problem, (alpha, 1.0), 1000)
            rel = abs(res.value - closed) / closed
            ok = res.converged and rel <= 5e-3
            if (p, alpha) in references:
                ok = ok and abs(closed - references[(p, alpha)]) \
                    <= 1e-3 * references[(p, alpha)]
            _report(lines, ok,
                    f"criterion 1: p={p} alpha={alpha}: closed={closed:.4f} "
                    f"fem={res.value:.4f} rel={rel:.2e} (tol 0.5%)")
    _finish(lines)


# -- criterion 2: 1D endpoint optimality ------------------------------------

def test_criterion_2_endpoint_optimality():
    lines = []
    n_cells = 256
    for p in (2, 3):
        for alpha in (0.25, 0.5):
            problem = OneDimProblem(0, 1, p, p, alpha)
            sweep = optimize_limit_hole(problem, n_cells)
            lo, hi = sweep.best_hole
            h = 1.0 / n_cells
            endpoint = lo <= h / 2 or hi >= 1.0 - h / 2
            c_lo = 0.5 - alpha / 2
            centered = solve_limit_problem(problem,
                                           (c_lo, c_lo + alpha), n_cells)
            margin = (centered.value - sweep.best_value) / sweep.best_value
            ok = endpoint and margin >= 0.01
            _report(lines, ok,
                    f"criterion 2: p={p} alpha={alpha}: argmin="
                    f"({lo:.3f},{hi:.3f}) endpoint={endpoint} "
                    f"centered worse by {margin * 100:.1f}% (needs >= 1%)")
    _finish(lines)


# -- criterion 3: disk cap optimality ----------------------------------------

@pytest.fixture(scope="module")
def disk_fine():
    return generate_mesh(Disk(1), 0.05)


@pytest.fixture(scope="module")
def cfg2():
    return ProblemConfig(2, 2, dof_tolerance=1e-9)


def test_criterion_3_disk_cap_optimality(disk_fine, cfg2):
    lines = []
    mesh = disk_fine
    # five random holes, each the search's starting best value: a facet
    # permutation cut where its running length reaches the target, kept
    # when it leaves a boundary vertex free
    rng = np.random.default_rng(0)
    target = 0.25 * mesh.perimeter
    n_boundary = mesh.boundary_vertex_indices().size
    runs = []
    while len(runs) < 5:
        order = rng.permutation(mesh.n_facets)
        cut = np.searchsorted(np.cumsum(mesh.facet_lengths[order]), target)
        facets = order[:cut + 1]
        if np.unique(mesh.boundary[facets]).size < n_boundary:
            runs.append(optimize_hole_alternating(
                mesh, cfg2, 0.25, init_hole=hole_from_facets(mesh, facets)))
    run = runs[0]
    arc_ok = is_contiguous_arc(mesh, run.best_hole) and all(
        r.best_hole == run.best_hole for r in runs)
    _report(lines, arc_ok and all(r.converged for r in runs),
            f"criterion 3: optimizer from 5 random starts -> contiguous arc: "
            f"{arc_ok}, S={run.best_value:.6f}")
    P = mesh.perimeter
    L = 0.25 * P
    single = make_hole_from_arc(mesh, 0.0, L)
    two = hole_from_facets(
        mesh,
        make_hole_from_arc(mesh, 0.0, L / 2).facet_indices
        | make_hole_from_arc(mesh, P / 2, L / 2).facet_indices)
    s1 = solve_trace_constant(mesh, cfg2, single)
    s2 = solve_trace_constant(mesh, cfg2, two)
    margin = s2.s_value - s1.s_value
    _report(lines, margin > 1e-6 * s1.s_value,
            f"criterion 3: S(arc)={s1.s_value:.6f} < S(two antipodal)="
            f"{s2.s_value:.6f}, margin {margin / s1.s_value * 100:.1f}%")
    _finish(lines)


# -- criterion 4: shape derivative -------------------------------------------

def test_criterion_4_shape_derivative(disk_fine, cfg2):
    lines = []
    mesh = disk_fine
    P = mesh.perimeter
    f = float(mesh.facet_lengths[0])
    hole = make_hole_from_arc(mesh, 0.0, 0.25 * P)
    trace = solve_trace_constant(mesh, cfg2, hole)
    # plateau speed around the moving endpoint; one facet of displacement
    # at h = P/1000, ten at P/100 (both exact facet multiples)
    amp = f / (P / 1000)
    s_end = 0.25 * P
    speed, dspeed = plateau_speed(mesh, s_end - 12 * f, s_end + 12 * f,
                                  10 * f, amp)
    V = tangential_field(mesh, speed, dspeed)
    chk = fd_check(mesh, cfg2, hole, V,
                   [1e-2 * P, 1e-3 * P, 1e-4 * P], trace=trace)
    best_h, best_fd, best_rel = min(chk.rows, key=lambda r: r[2])
    _report(lines, best_rel <= 0.02,
            f"criterion 4: analytic={chk.analytic:.6f}, best h={best_h:.2e} "
            f"fd={best_fd:.6f} rel={best_rel * 100:.2f}% (tol 2%)")
    rot = evaluate_shape_derivative(mesh, cfg2, hole,
                                    rotation_field(mesh, 1.0), trace)
    _report(lines, abs(rot.ds_dt) <= 1e-12,
            f"criterion 4: rotation field |ds_dt| {_within(rot.ds_dt, '1e-12')}")
    _finish(lines)


# -- criterion 5: thin-domain scaling ----------------------------------------

def test_criterion_5_thin_domain_scaling():
    """Asserted at the stated tolerances and red by mathematics: the
    optimal hole covers a short cap of the thin rectangle, so the
    first-order thickness correction leaves the rescaled constant about
    14 percent below the limit at mu = 1/16 and pulls the log-log slope
    near 0.6 over this mu range.  The gap sequence halves with mu, which
    is the scaling law itself; the stated windows are still missed."""
    lines = []
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-8)
    sweep = run_mu_sweep(Interval(0, 1), 0.5, cfg,
                         [1 / 2, 1 / 4, 1 / 8, 1 / 16])
    target = (np.pi**2 + 1) / 2
    last = sweep.records[-1]
    gap = (last.rescaled - target) / target
    _report(lines, abs(gap) <= 0.05,
            f"criterion 5: rescaled S/mu at mu=1/16: {last.rescaled:.4f} vs "
            f"{target:.4f}, gap {gap * 100:+.1f}% (tol 5%)")
    _report(lines, sweep.slope is not None and abs(sweep.slope - 1.0) <= 0.05,
            f"criterion 5: log-log slope {sweep.slope:.3f} (window 1.0+-0.05)")
    geometry_ok = _long_edge_holes_in_predicted_segment(sweep, alpha=0.5)
    _report(lines, geometry_ok,
            "criterion 5: optimal-hole long-edge facets inside the "
            "predicted end segment (up to one facet)")
    print(f"          (diagnostics: fitted limit {sweep.fitted_limit:.4f}, "
          f"gaps {[f'{(r.rescaled - target) / target * 100:+.0f}%' for r in sweep.records]})")
    _finish(lines)


def test_thin_domain_scaling_law_extended_evidence():
    """Not a stated criterion: positive evidence that the scaling law
    itself holds.  Extending the sweep two more halvings brings the
    rescaled constant inside the 5 percent window and the Richardson
    limit within 1 percent of the predicted constant, with the gap
    sequence halving per step exactly as a first-order correction must."""
    cfg = ProblemConfig(2, 2, dof_tolerance=1e-8)
    sweep = run_mu_sweep(Interval(0, 1), 0.5, cfg,
                         [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64])
    target = (np.pi**2 + 1) / 2
    gaps = [abs(r.rescaled - target) / target for r in sweep.records]
    print(f"\n          extended sweep gaps: "
          f"{['-%.1f%%' % (g * 100) for g in gaps]}, "
          f"fitted {sweep.fitted_limit:.4f} vs target {target:.4f}")
    assert gaps[-1] <= 0.05
    assert abs(sweep.fitted_limit - target) / target <= 0.01
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert ratios[-1] < 0.6


def _long_edge_holes_in_predicted_segment(sweep, alpha):
    rec = sweep.records[-1]
    mu = rec.mu
    width = 1.0
    f = mu / 4  # finest facet scale used by the sweep's meshes
    spans = []
    for lo, hi in rec.hole_intervals:
        spans.append((lo, hi))
    # map arclength to x on the bottom [0, w] and top [w+mu, 2w+mu] edges
    xs = []
    for lo, hi in spans:
        for s in np.linspace(lo, hi, 64):
            s = s % (2 * width + 2 * mu)
            if s <= width:
                xs.append(s)
            elif width + mu <= s <= 2 * width + mu:
                xs.append(2 * width + mu - s)
    if not xs:
        return False
    xs = np.array(xs)
    length = width
    seg = alpha * length + f + 1e-12
    left = np.all(xs <= seg)
    right = np.all(xs >= length - seg)
    return bool(left or right)


# -- criterion 6: property suites --------------------------------------------

def test_criterion_6_property_suites():
    lines = []
    rng = np.random.default_rng(0)

    # quotient homogeneity to 1e-12
    mesh = generate_mesh(Rectangle(1, 1), 0.25)
    cfg = ProblemConfig(2, 2)
    u = rng.uniform(0.5, 1.5, mesh.n_vertices)
    dev = max(abs(rayleigh_quotient(mesh, cfg, c * u)
                  - rayleigh_quotient(mesh, cfg, u)) for c in (1e-3, 1e3))
    _report(lines, dev <= 1e-12,
            f"criterion 6: quotient 0-homogeneity dev {_within(dev, '1e-12')}")

    # gradient vs central differences to 1e-5
    gmesh = generate_mesh(Rectangle(1, 1), 0.34)
    worst = 0.0
    for p in (1.5, 2, 3):
        for q in (1, 2, 2.5):
            c = ProblemConfig(p, q)
            v = rng.uniform(0.5, 1.5, gmesh.n_vertices)
            g = quotient_gradient(gmesh, c, v)
            fd = central_difference_gradient(
                lambda w: rayleigh_quotient(gmesh, c, w), v)
            worst = max(worst, float(np.max(np.abs(fd - g))
                                     / np.max(np.abs(g))))
    _report(lines, worst <= 1e-5,
            f"criterion 6: gradient vs FD worst rel {_within(worst, '1e-5')}")

    # lambda = S(Gamma) to 1e-6 relative on converged solves
    disk = generate_mesh(Disk(1), 0.1)
    lam_ok, lam_worst = True, 0.0
    for p, q in ((2, 2), (3, 2), (1.5, 2), (2, 2.5)):
        c = ProblemConfig(p, q, dof_tolerance=1e-9)
        r = solve_trace_constant(disk, c,
                                 make_hole_from_arc(disk, 0.0, 1.5))
        rel = abs(r.lam - r.s_value) / r.s_value
        lam_ok = lam_ok and r.converged and rel <= 1e-6
        lam_worst = max(lam_worst, rel)
    _report(lines, lam_ok,
            f"criterion 6: |lambda - S|/S worst {_within(lam_worst, '1e-6')}")

    # inclusion monotonicity over 20 nested hole pairs
    coarse = generate_mesh(Disk(1), 0.2)
    c = ProblemConfig(2, 2, dof_tolerance=1e-9)
    bverts = coarse.boundary_vertex_indices()
    mono = True
    for _ in range(20):
        while True:
            big = rng.choice(coarse.n_facets,
                             size=rng.integers(4, coarse.n_facets - 2),
                             replace=False)
            hb = hole_from_facets(coarse, big)
            if np.setdiff1d(bverts, hb.vertex_indices(coarse)).size:
                break
        small = rng.choice(big, size=rng.integers(1, len(big)), replace=False)
        hs = hole_from_facets(coarse, small)
        mono = mono and (solve_trace_constant(coarse, c, hs).s_value
                         <= solve_trace_constant(coarse, c, hb).s_value
                         * (1 + 1e-7))
    _report(lines, mono, "criterion 6: inclusion monotonicity over 20 "
                         "nested hole pairs")

    # strict monotonicity of the optimal value over a 9-point alpha grid
    omesh = generate_mesh(Disk(1), 0.1)
    values = []
    for alpha in np.linspace(0.1, 0.9, 9):
        run = optimize_hole_alternating(omesh, c, float(alpha))
        values.append(run.best_value)
    strict = all(a < b for a, b in zip(values, values[1:]))
    _report(lines, strict,
            "criterion 6: optimal value strictly increasing over "
            "alpha in {0.1..0.9}")

    # positivity off the closed hole, zero-set measure = hole measure
    hole = make_hole_from_arc(omesh, 0.0, 0.25 * omesh.perimeter)
    res = solve_trace_constant(omesh, c, hole)
    rep = positivity_check(res, hole)
    _report(lines, rep.min_off_hole > 0 and rep.max_on_hole == 0.0,
            f"criterion 6: extremal positive off the hole "
            f"(min={rep.min_off_hole:.2e}) and zero on it")
    zs = zero_set_measure(omesh, res)
    fmax = float(omesh.facet_lengths.max())
    _report(lines, abs(zs - hole.measure) <= fmax,
            f"criterion 6: zero-set measure {zs:.4f} vs hole "
            f"{hole.measure:.4f} (tol one facet)")
    _finish(lines)


# -- criterion 7: dense eigenproblem oracle ----------------------------------

def test_criterion_7_oracle_equivalence():
    lines = []
    for domain, res in ((Rectangle(1, 1), 0.34), (Disk(1), 0.5)):
        mesh = generate_mesh(domain, res)
        assert mesh.n_vertices <= 30
        cfg = ProblemConfig(2, 2, dof_tolerance=1e-12)
        hole = make_hole_from_arc(mesh, 0.0, mesh.perimeter / 4)
        lam, _ = dense_trace_eigenpair(mesh, hole)
        out = solve_trace_constant(mesh, cfg, hole)
        rel = abs(out.s_value - lam) / lam
        _report(lines, rel <= 1e-8,
                f"criterion 7: {type(domain).__name__} {mesh.n_vertices} "
                f"vertices: solver vs dense oracle rel {_within(rel, '1e-8')}")
    _finish(lines)
