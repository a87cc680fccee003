import math

import numpy as np
import pytest

from traceholes import one_dim
from traceholes.fem import Operators, ProblemConfig
from traceholes.geometry import Interval
from traceholes.one_dim import (
    closed_form_limit_constant, optimize_limit_hole, solve_limit_problem,
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
    res = solve_limit_problem(Interval(0, 1), ProblemConfig(p, p),
                              (1 - hole_fraction, 1.0), 1000)
    assert res.converged
    ref = closed_form_limit_constant(p, 1 - hole_fraction, 1.0)
    assert abs(res.value - ref) / ref < 5e-3


def test_convergence_under_refinement():
    ref = closed_form_limit_constant(2, 0.5, 1.0)
    errs = []
    for n in (64, 256, 1000):
        res = solve_limit_problem(Interval(0, 1), ProblemConfig(2, 2),
                                  (0.5, 1.0), n)
        errs.append(abs(res.value - ref) / ref)
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-3


def test_centered_hole_strictly_worse():
    base, cfg = Interval(0, 1), ProblemConfig(2, 2)
    end = solve_limit_problem(base, cfg, (0.5, 1.0), 500)
    mid = solve_limit_problem(base, cfg, (0.25, 0.75), 500)
    assert mid.value > end.value * 1.01


def test_hole_measure_mismatch_rejected():
    # the hole is the only input, so only a grid under 16 cells is left
    # to reject
    with pytest.raises(ValueError, match="16 cells"):
        solve_limit_problem(Interval(0, 1), ProblemConfig(2, 2), (0.5, 1.0), 8)


@pytest.mark.parametrize("hole_fraction", [0.0, 1.0])
def test_sweep_rejects_hole_fraction_outside_unit_interval(hole_fraction):
    with pytest.raises(ValueError, match=r"hole fraction must lie in \(0, 1\)"):
        optimize_limit_hole(Interval(0, 1), ProblemConfig(2, 2),
                            hole_fraction, 64)


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_argmin_abuts_endpoint(p):
    sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(p, p), 0.5, 128)
    lo, hi = sweep.best_hole
    h = 1.0 / 128
    assert lo <= h / 2 or hi >= 1.0 - h / 2
    assert sweep.values.min() == sweep.best_value


def test_swept_optimum_strictly_increasing_in_alpha():
    values = []
    for alpha in np.linspace(0.1, 0.9, 9):
        sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(2, 2),
                                    float(alpha), 64)
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

    def recorded(cfg, x, c, parts):
        batches.append(parts)
        return solve(cfg, x, c, parts)

    monkeypatch.setattr(one_dim, "_solve_parts", recorded)
    return batches


def test_sweep_builds_its_operators_once(monkeypatch):
    # one union grid of the 17 segments of 16..32 free cells
    calls = []
    build = one_dim._limit_operators

    def counted(x, parts=None):
        calls.append((x.size, np.unique(parts).size))
        return build(x, parts)

    monkeypatch.setattr(one_dim, "_limit_operators", counted)
    sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(2, 2), 0.5, 64)
    assert sweep.values.size == 33
    assert calls == [(sum(L + 1 for L in range(16, 33)), 17)]


def test_sweep_batches_hold_the_node_budget(monkeypatch):
    # a smaller budget splits the parts into consecutive batches, each
    # within the budget plus its last part, and changes no row beyond
    # the stopping tolerance
    problem = (Interval(0, 1), ProblemConfig(3, 3), 0.5)
    whole = optimize_limit_hole(*problem, 64)
    batches = _batches(monkeypatch)
    monkeypatch.setattr(one_dim, "_BATCH_NODES", 300)
    split = optimize_limit_hole(*problem, 64)
    assert len(batches) > 1
    assert [part for batch in batches for part in batch] \
        == [(s, 0, s) for s in range(16, 33)]
    for batch in batches:
        sizes = [j - i + 1 for _, i, j in batch]
        assert sum(sizes[1:]) < 300
    assert split.converged
    assert split.values == pytest.approx(whole.values, rel=1e-12, abs=0)


@pytest.mark.parametrize("p,q", [(1.5, 1.5), (2, 2), (3, 3), (1.5, 2)])
def test_sweep_equals_one_part_solves(p, q):
    # at q >= p each row is the lower of its hole's two one-part minima,
    # which is the longer part's; the rows read the same backwards
    n = 64
    sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(p, q), 0.3, n)
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
    sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(1.5, 2), 0.5, 256)
    assert sweep.starts[64] == 0.25
    one_part = _segment_value(1.5, 2, 64, 1 / 256)
    assert one_part == pytest.approx(10.7960503021, rel=1e-10)
    assert sweep.values[64] == pytest.approx(one_part, rel=1e-12, abs=0)


@pytest.mark.parametrize("p,q", [(2, 1.5), (3, 2)])
def test_sweep_at_q_below_p_equals_cold_solves(p, q):
    # at q < p the minimizer is unique: every hole is solved on a copy of
    # the whole grid, and its row is a cold full-grid solve
    base, cfg, n = Interval(0, 1), ProblemConfig(p, q), 64
    sweep = optimize_limit_hole(base, cfg, 0.5, n)
    h = 1 / n
    cold = [solve_limit_problem(base, cfg, (s * h, (s + 32) * h), n).value
            for s in range(33)]
    assert sweep.converged
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)
    assert sweep.values.tolist() == sweep.values[::-1].tolist()


@pytest.mark.parametrize("p", [2, 3])
def test_sweep_equals_cold_solves(p):
    # at q = p a cold full-grid solve finds the minimum on the larger
    # free part, past the middle hole too (where a single warm chain once
    # reported values more than 1e5 times too large at p = 3)
    base, cfg, n = Interval(0, 1), ProblemConfig(p, p), 128
    sweep = optimize_limit_hole(base, cfg, 0.5, n)
    h, c = 1.0 / n, 64
    cold = [solve_limit_problem(base, cfg, (s * h, (s + c) * h), n).value
            for s in range(n - c + 1)]
    assert sweep.values == pytest.approx(cold, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1.5, 3])
def test_unweighted_sweep_solves_half_of_its_holes(monkeypatch, p):
    # one part per hole s >= m/2: its free segment of s cells left of it,
    # whose value also serves the mirror hole m - s
    batches = _batches(monkeypatch)
    sweep = optimize_limit_hole(Interval(0, 1), ProblemConfig(p, p), 0.5, 64)
    assert sweep.values.size == 33
    assert batches == [[(s, 0, s) for s in range(16, 33)]]


def test_sweep_flags_an_unconverged_batch():
    # the batch is held to the config's iteration cap
    cfg = ProblemConfig(3, 3, max_inner_iterations=5)
    sweep = optimize_limit_hole(Interval(0, 1), cfg, 0.5, 64)
    assert not sweep.converged
    assert np.all(np.isfinite(sweep.values))
