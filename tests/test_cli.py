import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from traceholes import cli, shape_derivative
from traceholes.cli import (
    RunSpec, _mesh_arrays, _write_extremal, _write_json, main, run,
)
from traceholes.geometry import Disk, Interval, ThinRectangle, generate_mesh

from oracles import csv_text, json_text, mesh_to_json


def read_summary(out, run_id):
    return json.loads((Path(out) / run_id / "summary.json").read_text())


def test_verify_1d_command(tmp_path):
    code = main(["verify-1d", "-p", "2", "--alpha", "0.5",
                 "--out", str(tmp_path), "--run-id", "v"])
    assert code == 0
    payload = read_summary(tmp_path, "v")
    assert payload["closed_form"] == pytest.approx(10.8696, abs=1e-3)
    assert abs(payload["relative_gap"]) < 5e-3
    assert payload["sweep_endpoint_optimal"]
    assert (tmp_path / "v" / "data.csv").exists()


@pytest.mark.parametrize("n_cells,sweep_n_cells", [(1000, 256), (64, 64)])
def test_verify_1d_names_its_sweep_grid(tmp_path, n_cells, sweep_n_cells):
    # the sweep runs on at most 256 cells: one row per hole start there
    assert main(["verify-1d", "-p", "2", "--alpha", "0.5", "--n-cells",
                 str(n_cells), "--out", str(tmp_path), "--run-id", "v"]) == 0
    payload = read_summary(tmp_path, "v")
    assert payload["n_cells"] == n_cells
    assert payload["sweep_n_cells"] == sweep_n_cells
    rows = (tmp_path / "v" / "data.csv").read_text().splitlines()[1:]
    assert len(rows) == sweep_n_cells // 2 + 1


@pytest.mark.parametrize("p", [1.25, 1.3])
def test_verify_1d_near_p_1_exits_2_with_a_summary(tmp_path, p):
    # the lagged metric rounds to an indefinite float32 block, which the
    # banded Cholesky cannot factor: SuperLU takes it, and the unconverged
    # run still lands on the closed form
    code = main(["verify-1d", "-p", str(p), "--alpha", "0.5",
                 "--out", str(tmp_path), "--run-id", "v"])
    assert code == 2
    payload = read_summary(tmp_path, "v")
    assert payload["converged"] is False
    assert abs(payload["relative_gap"]) <= 1e-5


def test_verify_1d_at_p_1_01_exits_2_without_a_traceback(tmp_path):
    # SuperLU finds a lagged metric exactly singular: the descent ends
    # unconverged with its best iterate, and the run writes its summary
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "traceholes.cli", "verify-1d", "-p", "1.01",
         "--alpha", "0.5", "--n-cells", "16", "--out", str(tmp_path),
         "--run-id", "v"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = read_summary(tmp_path, "v")
    assert payload["converged"] is False
    assert payload["sweep_converged"] is False


def test_verify_1d_rejects_q_other_than_p(tmp_path, capsys):
    # verify-1d solves at q = p: a -q flag or a config q that differs is
    # invalid input, while a run that gives no q keeps the default run id
    args = ["verify-1d", "-p", "3", "--alpha", "0.5", "--n-cells", "64",
            "--out", str(tmp_path)]
    assert main(args + ["-q", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "q = p" in err
    assert main(args + ["--config", _write_config(tmp_path, {"q": 2.5})]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]
    assert main(args) == 0
    assert (tmp_path / "verify-1d-p3.0-q2.0-seed0" / "summary.json").exists()
    assert main(args + ["-q", "3", "--run-id", "equal"]) == 0
    assert read_summary(tmp_path, "equal")["p"] == 3.0


def test_run_spec_verify_1d_rejects_q_other_than_p(tmp_path, capsys):
    # through the Python API a given q is told from the default too: the
    # same one-line error as the CLI's, and nothing written
    spec = RunSpec(command="verify-1d", p=2, q=3, alpha=0.5, n_cells=64,
                   out=str(tmp_path))
    message = "^verify-1d solves at q = p; got q = 3 with p = 2$"
    with pytest.raises(cli.SpecError, match=message):
        run(spec)
    assert main(["verify-1d", "-p", "2", "-q", "3", "--alpha", "0.5",
                 "--n-cells", "64", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: verify-1d solves at q = p; got q = 3.0 with p = 2.0\n"
    assert not list(tmp_path.iterdir())
    assert run(RunSpec(command="verify-1d", p=2.0, alpha=0.5, n_cells=64,
                       out=str(tmp_path))) == 0
    assert run(RunSpec(command="verify-1d", p=2.0, q=2, alpha=0.5,
                       n_cells=64, out=str(tmp_path), run_id="equal")) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "equal", "verify-1d-p2.0-q2.0-seed0"]


def test_solve_writes_artifacts_and_schema(tmp_path):
    args = ["solve", "--domain", "disk", "--radius", "1",
            "--resolution", "0.25", "-p", "2", "-q", "2",
            "--hole-length", "1.5", "--out", str(tmp_path), "--run-id", "s"]
    assert main(args) == 0
    payload = read_summary(tmp_path, "s")
    for key in ("p", "q", "alpha_or_hole", "s_value", "lambda",
                "el_residual", "iterations", "mesh"):
        assert key in payload
    assert set(payload["mesh"]) == {"resolution", "n_vertices"}
    mesh_blob = json.loads((tmp_path / "s" / "mesh.json").read_text())
    assert set(mesh_blob) == {"vertices", "cells", "boundary"}
    extremal = (tmp_path / "s" / "extremal.csv").read_text().splitlines()
    assert extremal[0] == "x,y,u"
    assert len(extremal) == 1 + len(mesh_blob["vertices"])


def test_deterministic_output(tmp_path):
    args = ["optimize", "--domain", "disk", "--radius", "1",
            "--resolution", "0.3", "-p", "2", "-q", "2", "--alpha", "0.3",
            "--n-starts", "2", "--seed", "7", "--out", str(tmp_path)]
    assert main(args + ["--run-id", "a"]) == 0
    assert main(args + ["--run-id", "b"]) == 0
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b


def test_supercritical_rejected(tmp_path, capsys):
    code = main(["solve", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "-p", "1.5", "-q", "3.5",
                 "--out", str(tmp_path), "--run-id", "x"])
    assert code == 1
    assert "p_*" in capsys.readouterr().err


def test_p_at_dimension_unbounded_exponent(tmp_path):
    # p = N = 2 makes the critical trace exponent infinite: q = 7 is fine
    code = main(["solve", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "-p", "2", "-q", "7",
                 "--hole-length", "1.0", "--out", str(tmp_path),
                 "--run-id", "q7"])
    assert code == 0


def test_malformed_config_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "domain": {"kind": "disk", "params": {"radius": 1.0}},
        "resolution": 0.3, "p": 2.0, "q": 2.0, "hole_length": 1.0}))
    code = main(["solve", "--config", str(cfgfile), "--resolution", "0.25",
                 "--out", str(tmp_path), "--run-id", "c"])
    assert code == 0
    payload = read_summary(tmp_path, "c")
    assert payload["mesh"]["resolution"] == 0.25


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"domain": {"kind": "disk", "radius": 1.0},
                                   "frobnicate": 1}))
    assert main(["solve", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 1


def test_shape_grad_check_csv(tmp_path):
    code = main(["shape-grad-check", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.2", "-p", "2", "-q", "2",
                 "--out", str(tmp_path), "--run-id", "g"])
    assert code == 0
    rows = (tmp_path / "g" / "data.csv").read_text().splitlines()
    assert rows[0] == "h,fd_value,analytic_value,relative_error"
    assert len(rows) == 4
    payload = read_summary(tmp_path, "g")
    assert payload["best_relative_error"] < 0.10
    assert payload["converged"] is True


def test_shape_grad_check_flags_an_unconverged_step(tmp_path, monkeypatch):
    args = ["shape-grad-check", "--domain", "disk", "--radius", "1",
            "--resolution", "0.2", "--out", str(tmp_path)]
    assert main(args + ["--run-id", "ok"]) == 0
    # every transported solve, that is every solve of a hole other than
    # the first, the base one, reports that it did not converge
    solve, holes = shape_derivative.solve_trace_constant, []

    def flagged(mesh, cfg, hole):
        holes.append(hole)
        res = solve(mesh, cfg, hole)
        return res if hole == holes[0] else dataclasses.replace(
            res, converged=False)
    monkeypatch.setattr(shape_derivative, "solve_trace_constant", flagged)
    assert main(args + ["--run-id", "cap"]) == 2
    ok, cap = read_summary(tmp_path, "ok"), read_summary(tmp_path, "cap")
    assert cap.pop("converged") is False and ok.pop("converged") is True
    assert cap == ok
    assert (tmp_path / "cap" / "data.csv").read_bytes() == \
        (tmp_path / "ok" / "data.csv").read_bytes()


def _reject_constant(name):
    raise ValueError(f"{name} in JSON")


def test_shape_grad_check_with_an_unconverged_base_solve(tmp_path):
    # the base solve stops at --max-iter: exit 2 with every artifact
    code = main(["shape-grad-check", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.1", "--max-iter", "3",
                 "--out", str(tmp_path), "--run-id", "cap"])
    assert code == 2
    payload = json.loads((tmp_path / "cap" / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert payload["converged"] is False
    assert len(payload["rows"]) == 3
    rows = (tmp_path / "cap" / "data.csv").read_text().splitlines()
    assert len(rows) == 4


def test_sweep_alpha_curve(tmp_path):
    code = main(["sweep-alpha", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "-p", "2", "-q", "2",
                 "--alphas", "0.2", "0.5", "0.8", "--n-starts", "1",
                 "--out", str(tmp_path), "--run-id", "sa"])
    assert code == 0
    payload = read_summary(tmp_path, "sa")
    assert payload["strictly_increasing"]


def test_sweep_alpha_pool_matches_serial(tmp_path, monkeypatch):
    pools, spawned = [], []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def shutdown(self, *args, **kwargs):
            spawned.append(len(self._processes))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    args = ["sweep-alpha", "--domain", "disk", "--radius", "1",
            "--resolution", "0.25", "-p", "2", "-q", "2",
            "--alphas", "0.2", "0.4", "0.6", "--n-starts", "2",
            "--out", str(tmp_path)]
    assert main(args + ["--workers", "1", "--run-id", "serial"]) == 0
    assert pools == []
    assert main(args + ["--workers", "2", "--run-id", "pool"]) == 0
    assert pools == [2] and 1 <= spawned[0] <= 2
    for name in ("data.csv", "summary.json"):
        assert (tmp_path / "pool" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes()


def test_sweep_alpha_starts_no_idle_workers(tmp_path, monkeypatch):
    pools = []

    class InProcessPool:
        """Records its worker count and runs the work in this process."""
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ["sweep-alpha", "--domain", "disk", "--radius", "1",
            "--resolution", "0.3", "--n-starts", "1", "--workers", "5000",
            "--out", str(tmp_path)]
    # one alpha runs serially, however many workers are asked for
    assert main(args + ["--alphas", "0.5", "--run-id", "one"]) == 0
    assert pools == []
    # three alphas on two cores: two workers
    assert main(args + ["--alphas", "0.2", "0.5", "0.8",
                        "--run-id", "cores"]) == 0
    assert pools == [2]
    # an unknown core count runs serially
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(args + ["--alphas", "0.2", "0.5", "0.8",
                        "--run-id", "serial"]) == 0
    assert pools == [2]
    for name in ("data.csv", "summary.json"):
        assert (tmp_path / "cores" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes()


def test_sweep_mu_summary(tmp_path):
    code = main(["sweep-mu", "--alpha", "0.5", "-p", "2", "-q", "2",
                 "--mu-values", "0.5", "0.25", "--n-starts", "1",
                 "--out", str(tmp_path), "--run-id", "sm"])
    assert code == 0
    payload = read_summary(tmp_path, "sm")
    assert payload["exponent"] == 1.0
    assert "note" in payload
    assert len(payload["records"]) == 2
    rows = (tmp_path / "sm" / "data.csv").read_text().splitlines()
    assert rows[0] == "mu,S_mu,rescaled,slope_estimate"


def _write_config(tmp_path, payload):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(payload))
    return str(cfgfile)


NESTED_INTERVAL = {"domain": {"kind": "interval", "params": {"a": 0, "b": 2}}}


def test_verify_1d_reads_nested_domain_params(tmp_path):
    args = ["verify-1d", "-p", "2", "--alpha", "0.5", "--n-cells", "200",
            "--out", str(tmp_path)]
    assert main(args + ["--config", _write_config(tmp_path, NESTED_INTERVAL),
                        "--run-id", "nested"]) == 0
    assert main(args + ["--a", "0", "--b", "2", "--run-id", "flags"]) == 0
    nested = read_summary(tmp_path, "nested")
    flags = read_summary(tmp_path, "flags")
    assert nested["closed_form"] == pytest.approx(3.4674, abs=1e-3)
    assert nested == flags


def test_sweep_mu_reads_nested_domain_params(tmp_path):
    args = ["sweep-mu", "--alpha", "0.5", "-p", "2", "-q", "2",
            "--mu-values", "0.5", "--n-starts", "1", "--out", str(tmp_path)]
    assert main(args + ["--config", _write_config(tmp_path, NESTED_INTERVAL),
                        "--run-id", "nested"]) == 0
    assert main(args + ["--a", "0", "--b", "2", "--run-id", "flags"]) == 0
    assert main(args + ["--run-id", "unit"]) == 0
    nested = read_summary(tmp_path, "nested")
    assert nested == read_summary(tmp_path, "flags")
    assert nested["target_limit"] != read_summary(tmp_path, "unit")["target_limit"]


def test_flags_override_nested_domain_params(tmp_path):
    nested = _write_config(tmp_path, {
        "domain": {"kind": "disk", "params": {"radius": 1.0}}})
    solve = ["solve", "--resolution", "0.25", "--out", str(tmp_path)]
    assert main(solve + ["--config", nested, "--radius", "2",
                         "--run-id", "solve-nested"]) == 0
    assert main(solve + ["--domain", "disk", "--radius", "2",
                         "--run-id", "solve-flags"]) == 0
    assert read_summary(tmp_path, "solve-nested") \
        == read_summary(tmp_path, "solve-flags")
    # --domain sets only the kind: the config's radius stays, and the
    # --resolution flag still wins over the config's
    flat = _write_config(tmp_path, {
        "domain": {"kind": "disk", "radius": 2.0}, "resolution": 0.3})
    assert main(solve + ["--config", flat, "--domain", "disk",
                         "--run-id", "solve-kind"]) == 0
    assert read_summary(tmp_path, "solve-kind") \
        == read_summary(tmp_path, "solve-flags")
    verify = ["verify-1d", "-p", "2", "--alpha", "0.5", "--n-cells", "200",
              "--out", str(tmp_path)]
    assert main(verify + ["--config", _write_config(tmp_path, NESTED_INTERVAL),
                          "--b", "3", "--run-id", "1d-nested"]) == 0
    assert main(verify + ["--a", "0", "--b", "3", "--run-id", "1d-flags"]) == 0
    assert read_summary(tmp_path, "1d-nested") \
        == read_summary(tmp_path, "1d-flags")


def test_one_dim_commands_reject_other_domains(tmp_path, capsys):
    assert main(["verify-1d", "-p", "2", "--alpha", "0.5", "--domain", "disk",
                 "--radius", "1", "--out", str(tmp_path)]) == 1
    assert "interval" in capsys.readouterr().err


def test_verify_1d_flags_an_unconverged_sweep(tmp_path):
    # at p = 5 the 1000-cell solve converges in 54 iterations, and the
    # sweep's one batched solve needs 93: it must be held to --max-iter
    code = main(["verify-1d", "-p", "5", "--alpha", "0.25", "--max-iter",
                 "70", "--out", str(tmp_path), "--run-id", "cap"])
    assert code == 2
    payload = read_summary(tmp_path, "cap")
    assert payload["converged"] and not payload["sweep_converged"]


def test_verify_1d_sweep_is_mirror_symmetric(tmp_path):
    # the unweighted sweep is symmetric under x -> a + b - x, and a tie
    # between the two endpoint holes goes to the first
    assert main(["verify-1d", "-p", "3", "--alpha", "0.5", "--n-cells", "256",
                 "--out", str(tmp_path), "--run-id", "m"]) == 0
    assert read_summary(tmp_path, "m")["sweep_best_hole"] == [0.0, 0.5]
    rows = (tmp_path / "m" / "data.csv").read_text().splitlines()[1:]
    values = [float(row.split(",")[1]) for row in rows]
    assert len(values) == 129
    assert values == values[::-1]
    assert min(values) == values[0]


def test_run_spec_api(tmp_path):
    spec = RunSpec(command="verify-1d", p=3, alpha=0.5, n_cells=500,
                   out=str(tmp_path), run_id="api")
    assert run(spec) == 0
    payload = read_summary(tmp_path, "api")
    assert payload["closed_form"] == pytest.approx(29.2888, abs=1e-3)
    with pytest.raises(cli.SpecError, match="domain must be a table, got 3"):
        run(RunSpec(command="solve", domain=3))


@pytest.mark.parametrize("flags,config", [
    (["-p", "inf"], None),
    (["--epsilon", "nan"], None),
    ([], {"p": "2"}),
])
def test_invalid_problem_numbers_rejected(tmp_path, capsys, flags, config):
    args = ["solve", "--domain", "disk", "--radius", "1",
            "--resolution", "0.3", "--out", str(tmp_path), "--run-id", "bad"]
    if config is not None:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        args += ["--config", str(cfgfile)]
    assert main(args + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command,flags,config,field", [
    ("optimize", [], {"alpha": "0.5"}, "alpha"),
    ("solve", ["--resolution", "nan"], None, "resolution"),
    ("solve", ["--radius", "nan"], None, "radius"),
    ("optimize", ["--alpha", "0.25", "--n-starts", "0"], None, "n_starts"),
    ("sweep-alpha", ["--alphas", "0.5", "1.5"], None, "alphas"),
    ("solve", [], {"domain": 3}, "domain"),
    ("solve", [], {"domain": "disk"}, "domain"),
    ("solve", [], [1, 2], "config"),
    ("optimize", ["--bogus", "1"], None, "--bogus"),
    ("solve", ["--resolution", "abc"], None, "resolution"),
    ("optimize", ["--alpha", "0.25", "--strategy", "combined"], None,
     "--strategy"),
    ("optimize", ["--alpha", "0.25"], {"strategy": "combined"}, "strategy"),
    # unreadable paths: {tmp} is the test's directory, where the config
    # of a case with one is written as run.json
    ("solve", ["--config", "{tmp}/missing.json"], None, "No such file"),
    ("solve", ["--config", "{tmp}"], None, "Is a directory"),
    ("solve", ["--out", "{tmp}/run.json"], {}, "Not a directory"),
    # eps**2 overflows a float, and a hole shorter than half a facet
    # snaps to no facet at all
    ("solve", ["-p", "1.5", "--epsilon", "1e155"], None,
     "epsilon must have a finite square"),
    ("shape-grad-check", ["--hole-length", "0.001"], None,
     "the hole must be one arc of whole facets"),
])
def test_invalid_run_numbers_rejected(tmp_path, capsys, command, flags,
                                      config, field):
    args = [command, "--domain", "disk", "--radius", "1",
            "--resolution", "0.3", "--out", str(tmp_path), "--run-id", "bad"]
    if config is not None:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        args += ["--config", str(cfgfile)]
    assert main(args + [f.format(tmp=tmp_path) for f in flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not (tmp_path / "bad").exists()


def _special_values(n, seed=0):
    """n floats across the whole exponent range, led by -0.0, subnormals
    and negatives."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
    lead = [-0.0, 0.0, 5e-324, -2.5e-310, -1.0, 1e16, 1e-5, 0.1]
    v[:len(lead)] = lead[:n]
    return v


@pytest.mark.parametrize("domain,res", [
    (Interval(0.0, 1.0), 0.05),
    (Disk(1.0), 0.2),
    (ThinRectangle(0.0, 1.0, 1 / 16), 1 / 64),
])
def test_artifact_writers_match_standard_formatters(tmp_path, domain, res):
    mesh = generate_mesh(domain, res)
    _write_json(tmp_path / "mesh.json", _mesh_arrays(mesh))
    assert (tmp_path / "mesh.json").read_bytes() == \
        json_text(mesh_to_json(mesh)).encode()

    u = _special_values(mesh.n_vertices)
    _write_extremal(tmp_path / "extremal.csv", mesh.vertices, u)
    if mesh.dim == 1:
        rows = [(x, 0.0, v) for x, v in zip(mesh.vertices[:, 0], u)]
    else:
        rows = [(x, y, v) for (x, y), v in zip(mesh.vertices, u)]
    assert (tmp_path / "extremal.csv").read_bytes() == \
        csv_text(("x", "y", "u"), rows).encode()

    # a 1D extremal given as bare nodes, as verify-1d passes it
    _write_extremal(tmp_path / "nodes.csv", mesh.vertices[:, 0], u)
    rows = [(x, 0.0, v) for x, v in zip(mesh.vertices[:, 0], u)]
    assert (tmp_path / "nodes.csv").read_bytes() == \
        csv_text(("x", "y", "u"), rows).encode()

    # arrays of special values, and of no values, in the JSON writer
    arrays = {"vertices": _special_values(3 * mesh.dim, 1).reshape(3, -1),
              "cells": -mesh.cells, "boundary": mesh.boundary[:0]}
    _write_json(tmp_path / "arrays.json", arrays)
    assert (tmp_path / "arrays.json").read_bytes() == json_text(
        {k: a.tolist() for k, a in arrays.items()}).encode()


def test_integer_arrays_match_json_on_both_paths(tmp_path, monkeypatch):
    # a nonnegative integer array whose max + 1 is at most its size is
    # formatted through a table of index strings, any other by repr per
    # element; both give json.dumps's bytes
    mesh = generate_mesh(Disk(1.0), 0.2)
    arrays = {"cells": mesh.cells, "boundary": mesh.boundary,
              "far": np.array([[0, 3], [10**12, 7]]),
              "negative": -mesh.cells[:4], "zeros": np.zeros((3, 2), np.int32),
              "small": np.arange(6, dtype=np.uint8).reshape(2, 3)}
    tables = []
    fromiter = np.fromiter

    def counted(values, *args, **kwargs):
        table = fromiter(values, *args, **kwargs)
        tables.append(table.size)
        return table
    monkeypatch.setattr(cli.np, "fromiter", counted)
    _write_json(tmp_path / "arrays.json", arrays)
    assert (tmp_path / "arrays.json").read_bytes() == json_text(
        {k: a.tolist() for k, a in arrays.items()}).encode()
    # sorted keys: boundary takes the fallback (its max is past its size)
    assert mesh.boundary.max() + 1 > mesh.boundary.size
    assert tables == [mesh.n_vertices, 6, 1]


@pytest.mark.parametrize("domain,res", [
    (Interval(0.0, 1.0), 0.05),
    (Disk(1.0), 0.2),
    (ThinRectangle(0.0, 1.0, 1 / 16), 1 / 64),
])
def test_shared_vertex_text_matches_standard_formatters(tmp_path, monkeypatch,
                                                        domain, res):
    # run formats the vertices once for mesh.json and for the x,y columns
    # of extremal.csv; blocks of 8 rows leave a short last block here
    monkeypatch.setattr(cli, "_CSV_BLOCK", 8)
    mesh = generate_mesh(domain, res)
    u = _special_values(mesh.n_vertices)
    monkeypatch.setitem(cli._DISPATCH, "solve", lambda spec: (
        True, mesh, {}, (("s",), []), (mesh.vertices, u)))
    assert main(["solve", "--out", str(tmp_path), "--run-id", "s"]) == 0
    assert (tmp_path / "s" / "mesh.json").read_bytes() == \
        json_text(mesh_to_json(mesh)).encode()
    points = mesh.vertices if mesh.dim == 2 else \
        np.column_stack([mesh.vertices[:, 0], np.zeros(mesh.n_vertices)])
    rows = [(x, y, v) for (x, y), v in zip(points, u)]
    assert (tmp_path / "s" / "extremal.csv").read_bytes() == \
        csv_text(("x", "y", "u"), rows).encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_artifact_writers_reject_non_finite(tmp_path, bad):
    mesh = generate_mesh(Disk(1.0), 0.3)
    arrays = _mesh_arrays(mesh)
    arrays["vertices"] = mesh.vertices.copy()
    arrays["vertices"][5, 1] = bad
    with pytest.raises(ValueError):
        _write_json(tmp_path / "mesh.json", arrays)
    u = np.ones(mesh.n_vertices)
    u[7] = bad
    with pytest.raises(ValueError):
        _write_extremal(tmp_path / "extremal.csv", mesh.vertices, u)
    with pytest.raises(ValueError):
        _write_extremal(tmp_path / "extremal.csv", arrays["vertices"],
                        np.ones(mesh.n_vertices))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out,run_id", [("out", "x"), (".", "out")])
def test_unwritable_out_fails_before_the_command(tmp_path, capsys,
                                                 monkeypatch, out, run_id):
    # the regular file is the output root, or it sits where the run's
    # directory would go
    (tmp_path / "out").write_text("")
    calls = []
    monkeypatch.setitem(cli._DISPATCH, "solve", calls.append)
    code = main(["solve", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "--out", str(tmp_path / out),
                 "--run-id", run_id])
    assert code == 1 and not calls
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_unknown_command_is_one_error_line(capsys):
    # one parser serves every command: a command it does not know is
    # invalid input, like an unknown flag
    assert main(["bogus", "--domain", "disk", "--radius", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'bogus'")
    assert err.count("\n") == 1
