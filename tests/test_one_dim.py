import math

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
    # each warm-started from the previous hole's extremal
    problem = OneDimProblem(0, 1, p, p, 0.3)
    n = 64
    sweep = optimize_limit_hole(problem, n)
    h, c = 1.0 / n, round(0.3 * n)
    values, init = [], None
    for s in range(n - c + 1):
        res = solve_limit_problem(problem, (s * h, (s + c) * h), n, init=init)
        assert res.converged
        values.append(res.value)
        init = res.extremal
    assert sweep.values.tolist() == values


def test_sweep_retries_an_unconverged_warm_start_cold():
    # at p = 1.5 one warm start of this sweep runs out of line-search
    # halvings; solved again cold, that hole converges
    sweep = optimize_limit_hole(OneDimProblem(0, 1, 1.5, 1.5, 0.5), 200)
    assert sweep.converged
    lo, hi = sweep.best_hole
    assert lo <= 1 / 400 or hi >= 1 - 1 / 400
