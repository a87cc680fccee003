"""Batch front end: config ingestion, experiment orchestration, and
plot-ready result files.

Every command writes results/<run-id>/summary.json plus CSV companions;
identical inputs and seed produce byte-identical JSON (no timestamps).
Exit codes: 0 converged, 2 finished without convergence (artifacts still
written), 1 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .fem import NotAdmissibleError, ProblemConfig
from .geometry import (
    Disk, Interval, MeshResolutionError, Rectangle, ThinRectangle,
    arc_interval, generate_mesh, hole_arcs, make_hole_from_arc, mesh_to_json,
    plateau_speed, tangential_field,
)
from .hole_optimizer import (
    optimize_hole_alternating, optimize_hole_shape_gradient, zero_set_measure,
)
from .one_dim import (
    OneDimProblem, closed_form_limit_constant, optimize_limit_hole,
    solve_limit_problem,
)
from .shape_derivative import fd_check
from .thin_domain import run_mu_sweep
from .trace_solver import solve_trace_constant

COMMANDS = ("solve", "optimize", "shape-grad-check", "sweep-alpha",
            "sweep-mu", "verify-1d")
OUTPUT_ROOT_ENV = "TRACEHOLES_RESULTS"


@dataclass
class RunSpec:
    command: str
    domain: dict = field(default_factory=dict)
    p: float = 2.0
    q: float = 2.0
    resolution: float = 0.1
    alpha: Optional[float] = None
    hole_start: Optional[float] = None
    hole_length: Optional[float] = None
    epsilon: Optional[float] = None
    dof_tolerance: float = 1e-8
    max_inner_iterations: int = 20000
    seed: int = 0
    workers: int = 1
    out: Optional[str] = None
    run_id: Optional[str] = None
    strategy: str = "alternating"
    n_starts: int = 5
    alphas: list = field(default_factory=lambda: [round(0.1 * k, 1) for k in range(1, 10)])
    mu_values: list = field(default_factory=lambda: [0.5, 0.25, 0.125, 0.0625])
    n_cells: int = 1000
    fd_steps_rel: list = field(default_factory=lambda: [1e-2, 1e-3, 1e-4])
    speed_amplitude: Optional[float] = None

    def config(self) -> ProblemConfig:
        return ProblemConfig(self.p, self.q, epsilon=self.epsilon,
                             dof_tolerance=self.dof_tolerance,
                             max_inner_iterations=self.max_inner_iterations)


class SpecError(ValueError):
    pass


def _build_domain(block: dict):
    if not block or "kind" not in block:
        raise SpecError("domain block must carry a 'kind' field")
    kind = str(block["kind"]).lower()
    params = block.get("params", block)
    try:
        if kind == "interval":
            return Interval(float(params["a"]), float(params["b"]))
        if kind == "rectangle":
            return Rectangle(float(params["width"]), float(params["height"]))
        if kind == "disk":
            return Disk(float(params["radius"]))
        if kind in ("thin", "thinrectangle", "thin_rectangle"):
            return ThinRectangle(float(params["a"]), float(params["b"]),
                                 float(params["mu"]))
    except KeyError as exc:
        raise SpecError(f"domain {kind!r} is missing parameter {exc}") from exc
    raise SpecError(f"unknown domain kind {kind!r}")


def _out_dir(spec: RunSpec) -> Path:
    root = Path(spec.out or os.environ.get(OUTPUT_ROOT_ENV, "results"))
    run_id = spec.run_id or f"{spec.command}-p{spec.p}-q{spec.q}-seed{spec.seed}"
    return root / run_id


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_extremal(path: Path, mesh, u):
    if mesh.dim == 1:
        _write_extremal_1d(path, mesh.vertices[:, 0], u)
    else:
        _write_csv(path, ("x", "y", "u"),
                   [(x, y, v) for (x, y), v in zip(mesh.vertices, u)])


def _write_extremal_1d(path: Path, x, u):
    _write_csv(path, ("x", "y", "u"), [(xi, 0.0, v) for xi, v in zip(x, u)])


def _cmd_solve(spec: RunSpec, out: Path) -> int:
    domain = _build_domain(spec.domain)
    mesh = generate_mesh(domain, spec.resolution)
    cfg = spec.config()
    cfg.validate_subcritical(mesh.dim)
    if spec.hole_length is None:
        hole = make_hole_from_arc(mesh, 0.0, 0.0)
    else:
        hole = make_hole_from_arc(mesh, spec.hole_start or 0.0,
                                  spec.hole_length)
    result = solve_trace_constant(mesh, cfg, hole)
    summary = result.export(cfg)
    summary["converged"] = result.converged
    summary["hole_measure"] = hole.measure
    _write_json(out / "summary.json", summary)
    _write_json(out / "mesh.json", mesh_to_json(mesh))
    _write_extremal(out / "extremal.csv", mesh, result.extremal)
    _write_csv(out / "data.csv",
               ("s_value", "lambda", "el_residual", "iterations"),
               [(result.s_value, result.lam, result.el_residual,
                 result.iterations)])
    return 0 if result.converged else 2


def _cmd_optimize(spec: RunSpec, out: Path) -> int:
    if spec.alpha is None:
        raise SpecError("optimize needs --alpha")
    domain = _build_domain(spec.domain)
    mesh = generate_mesh(domain, spec.resolution)
    cfg = spec.config()
    cfg.validate_subcritical(mesh.dim)
    if spec.strategy == "shape_gradient":
        init = make_hole_from_arc(mesh, spec.hole_start or 0.0,
                                  spec.alpha * mesh.perimeter)
        run = optimize_hole_shape_gradient(mesh, cfg, spec.alpha, init)
    elif spec.strategy == "combined":
        warm = optimize_hole_alternating(mesh, cfg, spec.alpha,
                                         n_starts=spec.n_starts,
                                         seed=spec.seed)
        run = optimize_hole_shape_gradient(mesh, cfg, spec.alpha,
                                           warm.best_hole)
        run.history = warm.history + [
            (i + len(warm.history), m, v) for i, m, v in run.history]
        run.strategy = "combined"
    else:
        run = optimize_hole_alternating(mesh, cfg, spec.alpha,
                                        n_starts=spec.n_starts,
                                        seed=spec.seed)
    intervals = [list(arc_interval(mesh, a, c))
                 for a, c in hole_arcs(mesh, run.best_hole)]
    summary = {
        "p": spec.p, "q": spec.q, "alpha": run.alpha,
        "alpha_effective": run.alpha_effective,
        "strategy": run.strategy,
        "best_value": run.best_value,
        "hole_intervals": intervals,
        "hole_facets": sorted(run.best_hole.facet_indices),
        "zero_set_measure": zero_set_measure(mesh, run.best_result),
        "n_solves": run.n_solves,
        "converged": run.converged,
        "mesh": {"resolution": mesh.resolution, "n_vertices": mesh.n_vertices},
    }
    _write_json(out / "summary.json", summary)
    _write_csv(out / "data.csv", ("iteration", "hole_measure", "s_value"),
               run.history)
    _write_json(out / "mesh.json", mesh_to_json(mesh))
    _write_extremal(out / "extremal.csv", mesh, run.best_result.extremal)
    return 0 if run.converged else 2


def _cmd_shape_grad_check(spec: RunSpec, out: Path) -> int:
    domain = _build_domain(spec.domain)
    if not isinstance(domain, Disk):
        raise SpecError("shape-grad-check runs on disk domains")
    mesh = generate_mesh(domain, spec.resolution)
    cfg = spec.config()
    cfg.validate_subcritical(mesh.dim)
    P = mesh.perimeter
    length = spec.hole_length if spec.hole_length is not None else 0.25 * P
    hole = make_hole_from_arc(mesh, spec.hole_start or 0.0, length)
    fmid = float(np.max(mesh.facet_lengths))
    steps = sorted(h * P for h in spec.fd_steps_rel)
    h_mid, h_max = steps[len(steps) // 2], steps[-1]
    (first, count), = hole_arcs(mesh, hole)
    s_start, s_end = arc_interval(mesh, first, count)
    arc_len = s_end - s_start
    amp = spec.speed_amplitude
    if amp is None:
        # one facet of displacement at the middle step, capped so the
        # largest step cannot collapse the arc or wrap its complement,
        # and snapped to a whole-facet displacement at that largest step
        amp = min(fmid / h_mid, 0.35 * min(arc_len, P - arc_len) / h_max)
        amp = max(1, round(amp * h_max / fmid)) * fmid / h_max
    # keep the moving-end plateau away from the fixed endpoint and from
    # wrapping around the complement, whatever the facet count
    half = min(12 * fmid, 0.3 * arc_len, 0.3 * (P - arc_len))
    ramp = min(10 * fmid, 0.2 * arc_len, 0.2 * (P - arc_len))
    speed, dspeed = plateau_speed(mesh, s_end - half, s_end + half, ramp, amp)
    V = tangential_field(mesh, speed, dspeed)
    check = fd_check(mesh, cfg, hole, V, [h * P for h in spec.fd_steps_rel])
    rows = [(h, fd, check.analytic, rel) for h, fd, rel in check.rows]
    _write_csv(out / "data.csv",
               ("h", "fd_value", "analytic_value", "relative_error"), rows)
    best = min(check.rows, key=lambda r: r[2])
    summary = {
        "p": spec.p, "q": spec.q,
        "analytic": check.analytic,
        "speed_amplitude": amp,
        "rows": [{"h": h, "fd": fd, "relative_error": rel}
                 for h, fd, rel in check.rows],
        "best_h": best[0],
        "best_relative_error": best[2],
        "mesh": {"resolution": mesh.resolution, "n_vertices": mesh.n_vertices},
    }
    _write_json(out / "summary.json", summary)
    return 0


def _sweep_alpha_one(args):
    (domain_block, resolution, p, q, epsilon, dof_tol, max_iter, alpha,
     n_starts, seed) = args
    domain = _build_domain(domain_block)
    mesh = generate_mesh(domain, resolution)
    cfg = ProblemConfig(p, q, epsilon=epsilon, dof_tolerance=dof_tol,
                        max_inner_iterations=max_iter)
    run = optimize_hole_alternating(mesh, cfg, alpha, n_starts=n_starts,
                                    seed=seed)
    return alpha, run.best_value, run.alpha_effective, run.converged


def _cmd_sweep_alpha(spec: RunSpec, out: Path) -> int:
    cfg = spec.config()
    domain = _build_domain(spec.domain)
    mesh = generate_mesh(domain, spec.resolution)
    cfg.validate_subcritical(mesh.dim)
    jobs = [(spec.domain, spec.resolution, spec.p, spec.q, spec.epsilon,
             spec.dof_tolerance, spec.max_inner_iterations, a,
             spec.n_starts, spec.seed) for a in spec.alphas]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(_sweep_alpha_one, jobs))
    else:
        rows = [_sweep_alpha_one(j) for j in jobs]
    _write_csv(out / "data.csv",
               ("alpha", "s_alpha", "alpha_effective", "converged"), rows)
    summary = {
        "p": spec.p, "q": spec.q,
        "alphas": [r[0] for r in rows],
        "values": [r[1] for r in rows],
        "strictly_increasing": all(a < b for a, b in
                                   zip([r[1] for r in rows],
                                       [r[1] for r in rows][1:])),
        "mesh": {"resolution": spec.resolution, "n_vertices": mesh.n_vertices},
    }
    _write_json(out / "summary.json", summary)
    return 0 if all(r[3] for r in rows) else 2


def _cmd_sweep_mu(spec: RunSpec, out: Path) -> int:
    block = dict(spec.domain or {"kind": "interval", "a": 0.0, "b": 1.0})
    block.setdefault("kind", "interval")
    base = _build_domain({"kind": "interval",
                          "a": block.get("a", 0.0), "b": block.get("b", 1.0)})
    if spec.alpha is None:
        raise SpecError("sweep-mu needs --alpha")
    cfg = spec.config()
    sweep = run_mu_sweep(base, spec.alpha, cfg, spec.mu_values,
                         n_starts=spec.n_starts, seed=spec.seed)
    rows = [(r.mu, r.s_mu, r.rescaled, sweep.slope) for r in sweep.records]
    _write_csv(out / "data.csv", ("mu", "S_mu", "rescaled", "slope_estimate"),
               rows)
    summary = {
        "p": spec.p, "q": spec.q, "alpha": spec.alpha,
        "exponent": sweep.exponent,
        "target_limit": sweep.target_limit,
        "fitted_limit": sweep.fitted_limit,
        "slope": sweep.slope,
        "note": sweep.note,
        "records": [{"mu": r.mu, "s_mu": r.s_mu, "rescaled": r.rescaled,
                     "relative_gap": (r.rescaled - sweep.target_limit)
                     / sweep.target_limit,
                     "alpha_effective": r.alpha_effective,
                     "hole_intervals": r.hole_intervals,
                     "converged": r.converged}
                    for r in sweep.records],
    }
    _write_json(out / "summary.json", summary)
    return 0 if all(r.converged for r in sweep.records) else 2


def _cmd_verify_1d(spec: RunSpec, out: Path) -> int:
    if spec.alpha is None:
        raise SpecError("verify-1d needs --alpha")
    block = spec.domain or {}
    a, b = float(block.get("a", 0.0)), float(block.get("b", 1.0))
    length = b - a
    # the closed form's alpha is the free fraction: pair formula(alpha)
    # with a hole covering the remaining (1 - alpha) of the interval
    closed = closed_form_limit_constant(spec.p, spec.alpha, length)
    hole_fraction = 1.0 - spec.alpha
    problem = OneDimProblem(a, b, spec.p, spec.p, hole_fraction,
                            dof_tolerance=spec.dof_tolerance,
                            max_inner_iterations=spec.max_inner_iterations)
    fem_res = solve_limit_problem(
        problem, (a + spec.alpha * length, b), spec.n_cells)
    sweep_cells = min(spec.n_cells, 256)
    sweep = optimize_limit_hole(
        OneDimProblem(a, b, spec.p, spec.p, hole_fraction), sweep_cells)
    lo, hi = sweep.best_hole
    abuts = (abs(lo - a) < 1.5 * length / sweep_cells
             or abs(hi - b) < 1.5 * length / sweep_cells)
    summary = {
        "p": spec.p,
        "alpha": spec.alpha,
        "free_fraction": spec.alpha,
        "hole_fraction": hole_fraction,
        "closed_form": closed,
        "fem_value": fem_res.value,
        "relative_gap": (fem_res.value - closed) / closed,
        "n_cells": spec.n_cells,
        "sweep_best_hole": [lo, hi],
        "sweep_endpoint_optimal": bool(abuts),
        "converged": fem_res.converged,
    }
    _write_json(out / "summary.json", summary)
    _write_csv(out / "data.csv", ("hole_start", "value"),
               list(zip(sweep.starts, sweep.values)))
    _write_extremal_1d(out / "extremal.csv", fem_res.nodes, fem_res.extremal)
    return 0 if fem_res.converged else 2


_DISPATCH = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "shape-grad-check": _cmd_shape_grad_check,
    "sweep-alpha": _cmd_sweep_alpha,
    "sweep-mu": _cmd_sweep_mu,
    "verify-1d": _cmd_verify_1d,
}


def run(spec: RunSpec) -> int:
    """Validate and dispatch a run; returns the process exit code."""
    if spec.command not in _DISPATCH:
        raise SpecError(f"unknown command {spec.command!r}")
    spec.config()       # exponents and tolerances, before any command reads them
    out = _out_dir(spec)
    return _DISPATCH[spec.command](spec, out)


def _load_config(path: str) -> dict:
    text = Path(path).read_text()
    if path.endswith((".toml", ".tml")):
        try:
            import tomllib
        except ImportError as exc:
            raise SpecError(
                "TOML configs need Python >= 3.11; use JSON instead") from exc
        return tomllib.loads(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed config {path}: line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from exc


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="traceholes",
        description="Trace constants with boundary holes: solve, optimize, "
                    "and verify.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON/TOML config file")
        sp.add_argument("--domain", choices=["interval", "rectangle", "disk",
                                             "thin"])
        sp.add_argument("--a", type=float)
        sp.add_argument("--b", type=float)
        sp.add_argument("--width", type=float)
        sp.add_argument("--height", type=float)
        sp.add_argument("--radius", type=float)
        sp.add_argument("--mu", type=float)
        sp.add_argument("-p", type=float, dest="p")
        sp.add_argument("-q", type=float, dest="q")
        sp.add_argument("--resolution", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--alphas", type=float, nargs="+")
        sp.add_argument("--mu-values", type=float, nargs="+")
        sp.add_argument("--hole-start", type=float)
        sp.add_argument("--hole-length", type=float)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--dof-tol", type=float)
        sp.add_argument("--max-iter", type=int)
        sp.add_argument("--n-cells", type=int)
        sp.add_argument("--n-starts", type=int)
        sp.add_argument("--strategy", choices=["alternating", "shape_gradient",
                                               "combined"])
        sp.add_argument("--seed", type=int)
        sp.add_argument("--workers", type=int)
        sp.add_argument("--out")
        sp.add_argument("--run-id")
        sp.add_argument("--speed-amplitude", type=float)
    return ap


_FLAG_FIELDS = {
    "p": "p", "q": "q", "resolution": "resolution", "alpha": "alpha",
    "alphas": "alphas", "mu_values": "mu_values", "hole_start": "hole_start",
    "hole_length": "hole_length", "epsilon": "epsilon",
    "dof_tol": "dof_tolerance", "max_iter": "max_inner_iterations",
    "n_cells": "n_cells", "n_starts": "n_starts", "strategy": "strategy",
    "seed": "seed", "workers": "workers", "out": "out", "run_id": "run_id",
    "speed_amplitude": "speed_amplitude",
}


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    payload = {}
    if args.config:
        payload.update(_load_config(args.config))
    spec = RunSpec(command=args.command)
    domain = dict(payload.pop("domain", {}))
    if "resolution" in payload:
        spec.resolution = float(payload.pop("resolution"))
    for key, value in payload.items():
        if not hasattr(spec, key):
            raise SpecError(f"unknown config field {key!r}")
        setattr(spec, key, value)
    if args.domain:
        domain = {"kind": args.domain}
    for name in ("a", "b", "width", "height", "radius", "mu"):
        val = getattr(args, name, None)
        if val is not None:
            domain[name] = val
    spec.domain = domain
    for flag, attr in _FLAG_FIELDS.items():
        val = getattr(args, flag, None)
        if val is not None:
            setattr(spec, attr, val)
    return spec


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return run(spec)
    except (SpecError, NotAdmissibleError, MeshResolutionError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
