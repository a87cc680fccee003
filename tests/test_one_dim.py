import math
from dataclasses import replace

import numpy as np
import pytest

from traceholes import one_dim
from traceholes.one_dim import (
    OneDimProblem, closed_form_for_hole_fraction, closed_form_limit_constant,
    optimize_limit_hole, solve_limit_problem,
)

from oracles import one_dim_limit_constant_reference

# frozen direct evaluations of the closed form (oracle recomputed in the
# guard test below): pi^2+1, 4 pi^2+1, and the p = 3 values
CLOSED_FORM = {
    (2, 0.5): 10.869604401089358,
    (2, 0.25): 40.47841760435743,
    (3, 0.5): 29.28876197600255,
    (3, 0.25): 227.3100958080204,
}


def test_closed_form_matches_frozen_values():
    for (p, alpha), expected in CLOSED_FORM.items():
        assert closed_form_limit_constant(p, alpha, 1.0) \
            == pytest.approx(expected, rel=1e-13)
        assert one_dim_limit_constant_reference(p, alpha) \
            == pytest.approx(expected, rel=1e-13)
    assert CLOSED_FORM[(2, 0.5)] == pytest.approx(math.pi**2 + 1, rel=1e-15)
    assert CLOSED_FORM[(2, 0.25)] == pytest.approx(4 * math.pi**2 + 1, rel=1e-15)


def test_closed_form_rejects_bad_exponents():
    with pytest.raises(ValueError):
        closed_form_limit_constant(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        closed_form_limit_constant(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        closed_form_limit_constant(2, 1.5, 1.0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("hole_fraction", [0.25, 0.5])
def test_endpoint_hole_matches_closed_form(p, hole_fraction):
    problem = OneDimProblem(0, 1, p, p, hole_fraction)
    res = solve_limit_problem(problem, (1 - hole_fraction, 1.0), 1000)
    assert res.converged
    ref = closed_form_for_hole_fraction(p, hole_fraction, 1.0)
    assert abs(res.value - ref) / ref < 5e-3


def test_convergence_under_refinement():
    problem = OneDimProblem(0, 1, 2, 2, 0.5)
    ref = closed_form_for_hole_fraction(2, 0.5, 1.0)
    errs = []
    for n in (64, 256, 1000):
        res = solve_limit_problem(problem, (0.5, 1.0), n)
        errs.append(abs(res.value - ref) / ref)
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-3


def test_centered_hole_strictly_worse():
    problem = OneDimProblem(0, 1, 2, 2, 0.5)
    end = solve_limit_problem(problem, (0.5, 1.0), 500)
    mid = solve_limit_problem(problem, (0.25, 0.75), 500)
    assert mid.value > end.value * 1.01


def test_hole_measure_mismatch_rejected():
    problem = OneDimProblem(0, 1, 2, 2, 0.5)
    with pytest.raises(ValueError):
        solve_limit_problem(problem, (0.8, 1.0), 100)
    with pytest.raises(ValueError):
        solve_limit_problem(problem, (0.5, 1.0), 8)


def test_unit_weights_match_unweighted():
    base = OneDimProblem(0, 1, 2, 2, 0.5)
    weighted = OneDimProblem(0, 1, 2, 2, 0.5,
                             rho=lambda x: np.ones_like(x),
                             beta=lambda x: np.ones_like(x))
    a = solve_limit_problem(base, (0.5, 1.0), 200)
    b = solve_limit_problem(weighted, (0.5, 1.0), 200)
    assert abs(a.value - b.value) <= 1e-12 * a.value


def test_weight_validation():
    bad_rho = OneDimProblem(0, 1, 2, 2, 0.5, rho=lambda x: x - 0.5)
    with pytest.raises(ValueError):
        solve_limit_problem(bad_rho, (0.5, 1.0), 64)


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_argmin_abuts_endpoint(p):
    sweep = optimize_limit_hole(OneDimProblem(0, 1, p, p, 0.5), 128)
    lo, hi = sweep.best_hole
    h = 1.0 / 128
    assert lo <= h / 2 or hi >= 1.0 - h / 2
    assert sweep.values.min() == sweep.best_value


def test_sweep_symmetric_weights_tie():
    beta = lambda x: 1.0 + (x - 0.5) ** 2
    problem = OneDimProblem(0, 1, 2, 2, 0.5, beta=beta)
    sweep = optimize_limit_hole(problem, 128)
    left = sweep.values[0]
    right = sweep.values[-1]
    assert abs(left - right) <= 1e-9 * left


def test_sweep_beta_increasing_prefers_left_hole():
    # mass of the denominator sits near b, so the hole avoids it; no
    # theory is claimed here, the exhaustive sweep is the oracle
    problem = OneDimProblem(0, 1, 2, 2, 0.5, beta=lambda x: 1.0 + x)
    sweep = optimize_limit_hole(problem, 128)
    lo, hi = sweep.best_hole
    assert lo <= 1.0 / 256


def test_swept_optimum_strictly_increasing_in_alpha():
    values = []
    for alpha in np.linspace(0.1, 0.9, 9):
        sweep = optimize_limit_hole(OneDimProblem(0, 1, 2, 2, float(alpha)), 64)
        values.append(sweep.best_value)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sweep_builds_its_operators_once(monkeypatch):
    calls = []
    build = one_dim._limit_operators

    def counted(problem, x):
        calls.append(x.size)
        return build(problem, x)

    monkeypatch.setattr(one_dim, "_limit_operators", counted)
    sweep = optimize_limit_hole(OneDimProblem(0, 1, 2, 2, 0.5), 64)
    assert sweep.values.size == 33
    assert calls == [65]


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_equals_chained_warm_solves(p):
    # the sweep's shared grid changes no bit of a chain of public solves,
    # each warm-started from the previous hole's extremal, over the first
    # half of the holes; the second half mirrors the first exactly
    problem = OneDimProblem(0, 1, p, p, 0.3)
    n = 64
    sweep = optimize_limit_hole(problem, n)
    h, c = 1.0 / n, round(0.3 * n)
    n_holes = n - c + 1
    values, init = [], None
    for s in range((n_holes + 1) // 2):
        res = solve_limit_problem(problem, (s * h, (s + c) * h), n, init=init)
        assert res.converged
        values.append(res.value)
        init = res.extremal
    assert sweep.values[:len(values)].tolist() == values
    assert sweep.values.tolist() == sweep.values[::-1].tolist()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [2, 3])
def test_sweep_equals_cold_solves(p, weighted):
    # a single warm chain stays on the free part it started on, which past
    # the middle is the smaller one; at p = 3 it reported values more
    # than 1e5 times too large there
    beta = (lambda x: 1.0 + x) if weighted else None
    problem = OneDimProblem(0, 1, p, p, 0.5, beta=beta)
    n = 128
    sweep = optimize_limit_hole(problem, n)
    h, c = 1.0 / n, 64
    cold = [solve_limit_problem(problem, (s * h, (s + c) * h), n).value
            for s in range(n - c + 1)]
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)


def _counted_solves(monkeypatch):
    """Record (hole, warm start, converged) of every 1D grid solve."""
    calls = []
    solve = one_dim._solve_on_grid

    def counted(problem, x, ops, cfg, hole, init):
        result = solve(problem, x, ops, cfg, hole, init)
        calls.append((hole, init is not None, result.converged))
        return result

    monkeypatch.setattr(one_dim, "_solve_on_grid", counted)
    return calls


def _first_attempts(calls):
    """The holes in solve order, without the cold retries: a retry is
    the cold solve that directly follows its hole's unconverged warm
    start."""
    return [hole for i, (hole, warm, _) in enumerate(calls)
            if warm or not (i and calls[i - 1][0] == hole
                            and calls[i - 1][1] and not calls[i - 1][2])]


@pytest.mark.parametrize("p", [1.5, 3])
def test_unweighted_sweep_solves_half_of_its_holes(monkeypatch, p):
    calls = _counted_solves(monkeypatch)
    sweep = optimize_limit_hole(OneDimProblem(0, 1, p, p, 0.5), 64)
    assert sweep.values.size == 33
    starts = [lo for lo, _ in _first_attempts(calls)]
    assert starts == sweep.starts[:17].tolist()


def test_weighted_sweep_solves_every_hole_in_both_chains(monkeypatch):
    calls = _counted_solves(monkeypatch)
    problem = OneDimProblem(0, 1, 3, 3, 0.5, beta=lambda x: 1.0 + x)
    sweep = optimize_limit_hole(problem, 64)
    starts = [lo for lo, _ in _first_attempts(calls)]
    assert starts == sweep.starts.tolist() + sweep.starts[::-1].tolist()


def test_sweep_retries_an_unconverged_warm_start_cold(monkeypatch):
    # the warm start of the third hole is cut to one iteration, which
    # cannot pass the stopping test (it needs a full window of values);
    # solved again cold, that hole converges, with a cold solve's value
    problem = OneDimProblem(0, 1, 1.5, 1.5, 0.5)
    h = 1 / 200
    stalled = (2 * h, 102 * h)
    solve = one_dim._solve_on_grid

    def stall(problem, x, ops, cfg, hole, init):
        if init is not None and hole == stalled:
            cfg = replace(cfg, max_inner_iterations=1)
        return solve(problem, x, ops, cfg, hole, init)
    monkeypatch.setattr(one_dim, "_solve_on_grid", stall)
    calls = _counted_solves(monkeypatch)
    sweep = optimize_limit_hole(problem, 200)
    assert len(calls) > len(_first_attempts(calls))
    assert (stalled, True, False) in calls and (stalled, False, True) in calls
    assert sweep.converged
    assert sweep.values[2] == solve_limit_problem(problem, stalled, 200).value
    lo, hi = sweep.best_hole
    assert lo <= 1 / 400 or hi >= 1 - 1 / 400


@pytest.mark.parametrize("p,alpha,n", [(1.5, 0.5, 200), (3, 0.3, 64)])
def test_warm_starts_get_ten_times_the_cold_first_solve(monkeypatch, p,
                                                        alpha, n):
    # a warm start past its budget is solved again cold under the full cap
    caps = []
    solve = one_dim._solve_on_grid

    def capped(problem, x, ops, cfg, hole, init):
        result = solve(problem, x, ops, cfg, hole, init)
        caps.append((init is not None, cfg.max_inner_iterations,
                     result.iterations, result.converged))
        return result
    monkeypatch.setattr(one_dim, "_solve_on_grid", capped)
    optimize_limit_hole(OneDimProblem(0, 1, p, p, alpha), n)
    first_cold = caps[0][2]
    assert not caps[0][0] and caps[0][1] == 20000
    for i, (warm, cap, _, _) in enumerate(caps[1:], 1):
        if warm:
            assert cap == 10 * first_cold
        else:   # a cold retry follows its hole's unconverged warm start
            assert cap == 20000 and caps[i - 1][0] and not caps[i - 1][3]
