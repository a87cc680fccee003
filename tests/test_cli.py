import json
import math
from pathlib import Path

import pytest

from traceholes.cli import RunSpec, main, run


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


def test_sweep_alpha_curve(tmp_path):
    code = main(["sweep-alpha", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "-p", "2", "-q", "2",
                 "--alphas", "0.2", "0.5", "0.8", "--n-starts", "1",
                 "--out", str(tmp_path), "--run-id", "sa"])
    assert code == 0
    payload = read_summary(tmp_path, "sa")
    assert payload["strictly_increasing"]


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


def test_run_spec_api(tmp_path):
    spec = RunSpec(command="verify-1d", p=3, alpha=0.5, n_cells=500,
                   out=str(tmp_path), run_id="api")
    assert run(spec) == 0
    payload = read_summary(tmp_path, "api")
    assert payload["closed_form"] == pytest.approx(29.2888, abs=1e-3)


def test_optimize_combined_strategy(tmp_path):
    code = main(["optimize", "--domain", "disk", "--radius", "1",
                 "--resolution", "0.3", "-p", "2", "-q", "2",
                 "--alpha", "0.25", "--strategy", "combined",
                 "--n-starts", "1", "--out", str(tmp_path),
                 "--run-id", "comb"])
    assert code in (0, 2)
    payload = read_summary(tmp_path, "comb")
    assert payload["strategy"] == "combined"
    assert payload["hole_intervals"]


@pytest.mark.parametrize("strategy", ["shape_gradient", "combined"])
def test_optimize_shape_gradient_on_thin_domain(tmp_path, strategy):
    # three cells of tube do not fit across mu = 1/16 at this resolution;
    # the default field width must shrink to fit instead of failing
    code = main(["optimize", "--domain", "thin", "--a", "0", "--b", "1",
                 "--mu", "0.0625", "--resolution", "0.015625",
                 "-p", "2", "-q", "2", "--alpha", "0.5",
                 "--strategy", strategy, "--n-starts", "1",
                 "--out", str(tmp_path), "--run-id", strategy])
    assert code in (0, 2)
    payload = read_summary(tmp_path, strategy)
    assert math.isfinite(payload["best_value"]) and payload["best_value"] > 0


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
