import math

import numpy as np
import pytest

from traceholes import one_dim
from traceholes.fem import Operators, ProblemConfig
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


def _segment_value(p, q, n_cells, h):
    """The one-part subproblem solved alone: n_cells free cells of width h
    with the field fixed at zero on the right end node."""
    x = np.arange(n_cells + 1) * h
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    ops = Operators(x.reshape(-1, 1), cells, cells, np.diff(x))
    res = ops.solve(ProblemConfig(p, q), np.arange(n_cells + 1) < n_cells)
    assert res.converged
    return res.value


def _batches(monkeypatch):
    """Record the parts (s, i, j) of every batched solve of a sweep."""
    batches = []
    solve = one_dim._solve_parts

    def recorded(problem, x, c, parts):
        batches.append(parts)
        return solve(problem, x, c, parts)

    monkeypatch.setattr(one_dim, "_solve_parts", recorded)
    return batches


def _both_parts(m, c):
    """The parts (s, i, j) of every hole s: nodes 0..s and s+c..m+c."""
    return [part for s in range(m + 1)
            for part in ((s, 0, s), (s, s + c, m + c)) if part[1] < part[2]]


def test_sweep_builds_its_operators_once(monkeypatch):
    # one union grid of the 17 segments of 16..32 free cells
    calls = []
    build = one_dim._limit_operators

    def counted(problem, x, parts=None):
        calls.append((x.size, np.unique(parts).size))
        return build(problem, x, parts)

    monkeypatch.setattr(one_dim, "_limit_operators", counted)
    sweep = optimize_limit_hole(OneDimProblem(0, 1, 2, 2, 0.5), 64)
    assert sweep.values.size == 33
    assert calls == [(sum(L + 1 for L in range(16, 33)), 17)]


def test_sweep_batches_hold_the_node_budget(monkeypatch):
    # a smaller budget splits the parts into consecutive batches, each
    # within the budget plus its last part, and changes no row beyond
    # the stopping tolerance
    problem = OneDimProblem(0, 1, 3, 3, 0.5, beta=lambda x: 1.0 + x)
    whole = optimize_limit_hole(problem, 64)
    batches = _batches(monkeypatch)
    monkeypatch.setattr(one_dim, "_BATCH_NODES", 300)
    split = optimize_limit_hole(problem, 64)
    assert len(batches) > 1
    assert [part for batch in batches for part in batch] == _both_parts(32, 32)
    for batch in batches:
        sizes = [j - i + 1 for _, i, j in batch]
        assert sum(sizes[1:]) < 300
    assert split.converged
    assert split.values == pytest.approx(whole.values, rel=1e-12, abs=0)


@pytest.mark.parametrize("p,q", [(1.5, 1.5), (2, 2), (3, 3), (1.5, 2)])
def test_sweep_equals_one_part_solves(p, q):
    # at q >= p each row is the lower of its hole's two one-part minima,
    # which is the longer part's; the rows read the same backwards
    problem = OneDimProblem(0, 1, p, q, 0.3)
    n = 64
    sweep = optimize_limit_hole(problem, n)
    m = n - round(0.3 * n)
    oracle = {L: _segment_value(p, q, L, 1 / n)
              for L in range((m + 1) // 2, m + 1)}
    expected = [oracle[max(s, m - s)] for s in range(m + 1)]
    assert sweep.converged
    assert sweep.values == pytest.approx(expected, rel=1e-12, abs=0)
    assert sweep.values.tolist() == sweep.values[::-1].tolist()


def test_sweep_middle_row_at_q_above_p_is_the_one_part_value():
    # at q > p the middle hole's two 64-cell parts tie; the symmetric
    # critical point with the field on both parts (12.8387) is a saddle
    problem = OneDimProblem(0, 1, 1.5, 2, 0.5)
    sweep = optimize_limit_hole(problem, 256)
    assert sweep.starts[64] == 0.25
    one_part = _segment_value(1.5, 2, 64, 1 / 256)
    assert one_part == pytest.approx(10.7960503021, rel=1e-10)
    assert sweep.values[64] == pytest.approx(one_part, rel=1e-12, abs=0)


@pytest.mark.parametrize("p,q", [(2, 1.5), (3, 2)])
def test_sweep_at_q_below_p_equals_cold_solves(p, q):
    # at q < p the minimizer is unique: every hole is solved on a copy of
    # the whole grid, and its row is a cold full-grid solve
    problem = OneDimProblem(0, 1, p, q, 0.5)
    n = 64
    sweep = optimize_limit_hole(problem, n)
    h = 1 / n
    cold = [solve_limit_problem(problem, (s * h, (s + 32) * h), n).value
            for s in range(33)]
    assert sweep.converged
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)
    assert sweep.values.tolist() == sweep.values[::-1].tolist()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [2, 3])
def test_sweep_equals_cold_solves(p, weighted):
    # at q = p a cold full-grid solve finds the minimum on the larger
    # free part, past the middle hole too (where a single warm chain once
    # reported values more than 1e5 times too large at p = 3)
    beta = (lambda x: 1.0 + x) if weighted else None
    problem = OneDimProblem(0, 1, p, p, 0.5, beta=beta)
    n = 128
    sweep = optimize_limit_hole(problem, n)
    h, c = 1.0 / n, 64
    cold = [solve_limit_problem(problem, (s * h, (s + c) * h), n).value
            for s in range(n - c + 1)]
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1.5, 3])
def test_unweighted_sweep_solves_half_of_its_holes(monkeypatch, p):
    # one part per hole s >= m/2: its free segment of s cells left of it,
    # whose value also serves the mirror hole m - s
    batches = _batches(monkeypatch)
    sweep = optimize_limit_hole(OneDimProblem(0, 1, p, p, 0.5), 64)
    assert sweep.values.size == 33
    assert batches == [[(s, 0, s) for s in range(16, 33)]]


def test_weighted_sweep_solves_both_parts_of_every_hole(monkeypatch):
    batches = _batches(monkeypatch)
    problem = OneDimProblem(0, 1, 3, 3, 0.5, beta=lambda x: 1.0 + x)
    sweep = optimize_limit_hole(problem, 64)
    assert sweep.values.size == 33
    assert batches == [_both_parts(32, 32)]


def test_weighted_sweep_drops_weightless_parts(monkeypatch):
    # beta vanishes left of 0.3: the left part of every hole starting
    # before cell 20 carries no weight and is not solved, and each hole
    # keeps its weighted right part
    batches = _batches(monkeypatch)
    problem = OneDimProblem(0, 1, 2, 2, 0.5, beta=lambda x: (x > 0.3) * 1.0)
    n = 64
    sweep = optimize_limit_hole(problem, n)
    (parts,) = batches
    left = sorted(s for s, i, _ in parts if i == 0)
    assert left == list(range(20, 33))
    assert sorted(s for s, i, _ in parts if i > 0) == list(range(32))
    h = 1 / n
    cold = [solve_limit_problem(problem, (s * h, (s + 32) * h), n).value
            for s in range(33)]
    assert sweep.converged
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)


def test_weighted_sweep_rejects_a_hole_without_weight():
    problem = OneDimProblem(0, 1, 2, 2, 0.5,
                            beta=lambda x: (abs(x - 0.5) < 0.1) * 1.0)
    with pytest.raises(ValueError, match="both free parts"):
        optimize_limit_hole(problem, 64)


def test_sweep_flags_an_unconverged_batch():
    # the batch is held to the problem's iteration cap
    problem = OneDimProblem(0, 1, 3, 3, 0.5, max_inner_iterations=5)
    sweep = optimize_limit_hole(problem, 64)
    assert not sweep.converged
    assert np.all(np.isfinite(sweep.values))
