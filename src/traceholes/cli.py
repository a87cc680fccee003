"""Batch front end: config ingestion, experiment orchestration, and
plot-ready result files.

``run`` writes every artifact: results/<run-id>/summary.json plus CSV
companions; identical inputs produce byte-identical JSON.
Exit codes: 0 converged, 2 finished without convergence (artifacts still
written), 1 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .fem import NotAdmissibleError, ProblemConfig
from .geometry import (
    Disk, Interval, MeshResolutionError, Rectangle, ThinRectangle,
    generate_mesh, hole_intervals, make_hole_from_arc, plateau_speed,
    tangential_field,
)
from .hole_optimizer import optimize_hole_alternating, zero_set_measure
from .one_dim import (
    OneDimProblem, closed_form_limit_constant, optimize_limit_hole,
    solve_limit_problem,
)
from .shape_derivative import fd_check
from .thin_domain import run_mu_sweep
from .trace_solver import solve_trace_constant

OUTPUT_ROOT_ENV = "TRACEHOLES_RESULTS"


@dataclass
class RunSpec:
    command: str
    domain: dict = field(default_factory=dict)
    p: float = 2.0
    q: Optional[float] = None   # 2.0 unless given; verify-1d takes only q = p
    resolution: float = 0.1
    alpha: Optional[float] = None
    hole_start: Optional[float] = None
    hole_length: Optional[float] = None
    epsilon: Optional[float] = None
    dof_tolerance: float = 1e-8
    max_inner_iterations: int = 20000
    seed: int = 0           # names the run directory, nothing else
    workers: int = 1
    out: Optional[str] = None
    run_id: Optional[str] = None
    n_starts: int = 5       # range-checked, then unused: no search has starts
    alphas: list = field(default_factory=lambda: [round(0.1 * k, 1) for k in range(1, 10)])
    mu_values: list = field(default_factory=lambda: [0.5, 0.25, 0.125, 0.0625])
    n_cells: int = 1000
    fd_steps_rel: list = field(default_factory=lambda: [1e-2, 1e-3, 1e-4])
    speed_amplitude: Optional[float] = None

    def config(self) -> ProblemConfig:
        return ProblemConfig(self.p, self.q, epsilon=self.epsilon,
                             dof_tolerance=self.dof_tolerance,
                             max_inner_iterations=self.max_inner_iterations)

    def validate(self) -> None:
        """Type, finiteness and range of every numeric field and domain
        parameter, and the alpha of the commands that need one, before any
        command reads them.  A q not given becomes 2.0."""
        if self.command == "verify-1d" and self.q not in (None, self.p):
            raise SpecError(f"verify-1d solves at q = p; got q = {self.q!r} "
                            f"with p = {self.p!r}")
        self.q = 2.0 if self.q is None else self.q
        self.config()
        for name, (low, high, integer) in _NUMBERS.items():
            value = getattr(self, name)
            if value is not None or getattr(RunSpec, name) is not None:
                _check_number(name, value, low, high, integer)
        for name, (low, high) in _NUMBER_LISTS.items():
            values = getattr(self, name)
            if not isinstance(values, list) or not values:
                raise SpecError(f"{name} must be a nonempty list, got {values!r}")
            for value in values:
                _check_number(name, value, low, high)
        for name in _DOMAIN_NUMBERS:
            if name in self.domain:
                _check_number(f"domain {name}", self.domain[name])
        if self.alpha is None and self.command in _NEEDS_ALPHA:
            raise SpecError(f"{self.command} needs --alpha")


class SpecError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are input errors: one line, exit 1."""

    def error(self, message):
        raise SpecError(message)


# field: (low, high, integer).  Reals must lie in (low, high), integers
# must be at least low; a field whose default is None may be None.
_INF = math.inf
_NUMBERS = {
    "resolution": (0, _INF, False), "alpha": (0, 1, False),
    "hole_start": (-_INF, _INF, False), "hole_length": (-_INF, _INF, False),
    "speed_amplitude": (-_INF, _INF, False),
    "max_inner_iterations": (1, _INF, True), "seed": (0, _INF, True),
    "workers": (1, _INF, True), "n_starts": (1, _INF, True),
    "n_cells": (1, _INF, True),
}
_NUMBER_LISTS = {"alphas": (0, 1), "mu_values": (0, 1),
                 "fd_steps_rel": (0, _INF)}
_DOMAIN_NUMBERS = ("a", "b", "width", "height", "radius", "mu")
_NEEDS_ALPHA = ("optimize", "sweep-mu", "verify-1d")


def _check_number(name, value, low=-_INF, high=_INF, integer=False):
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not math.isfinite(value):
        raise SpecError(f"{name} must be a finite "
                        f"{'integer' if integer else 'number'}, got {value!r}")
    if integer and value < low:
        raise SpecError(f"{name} must be at least {low}, got {value!r}")
    if not integer and not low < value < high:
        raise SpecError(f"{name} must lie in ({low}, {high}), got {value!r}")


def _flat_domain(block) -> dict:
    """The domain block with its ``params`` table merged into the top
    level, where an entry at the top level wins."""
    if not isinstance(block, dict):
        raise SpecError(f"domain must be a table, got {block!r}")
    params = block.get("params") or {}
    if not isinstance(params, dict):
        raise SpecError(f"domain params must be a table, got {params!r}")
    return {**params, **{k: v for k, v in block.items() if k != "params"}}


def _build_domain(params: dict):
    if not params or "kind" not in params:
        raise SpecError("domain block must carry a 'kind' field")
    kind = str(params["kind"]).lower()
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


def _mesh_and_config(spec: RunSpec):
    """The run's mesh and problem config, with q subcritical on it."""
    mesh = generate_mesh(_build_domain(spec.domain), spec.resolution)
    cfg = spec.config()
    cfg.validate_subcritical(mesh.dim)
    return mesh, cfg


def _base_interval(spec: RunSpec) -> Interval:
    """The interval (a, b) of the one-dimensional commands: the domain
    block's bounds, of an interval or a thin rectangle, each 0 and 1 by
    default."""
    block = {"kind": "interval", "a": 0.0, "b": 1.0, **spec.domain}
    domain = _build_domain(block)
    if not isinstance(domain, (Interval, ThinRectangle)):
        raise SpecError(f"{spec.command} runs on an interval (a, b), "
                        f"not on a {block['kind']} domain")
    return Interval(domain.a, domain.b)


# rows per formatted block of extremal.csv: a whole-file block held about
# twice csv.writer's streaming memory on a 1k-node extremal
_CSV_BLOCK = 256


def _finite(values) -> np.ndarray:
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError("out of range float values are not written")
    return values


class _Numbers(NamedTuple):
    """An array's shape and the ``repr`` of each of its numbers in C order
    (the text json.dumps and csv.writer give a number), made with no Python
    call per number, so that files writing the same numbers share it."""

    shape: tuple
    text: tuple

    @classmethod
    def of(cls, values: np.ndarray) -> "_Numbers":
        flat = values.ravel()
        if (flat.dtype.kind in "iu" and flat.size and flat.min() >= 0
                and flat.max() < flat.size):
            # indices such as cells repeat: each value's text is made once,
            # in a table of 0..max no longer than the array
            n = int(flat.max()) + 1
            table = np.fromiter(map(repr, range(n)), dtype=object, count=n)
            return cls(values.shape, tuple(table[flat]))
        return cls(values.shape, tuple(map(repr, flat.tolist())))


def _json_template(shape, level=1) -> str:
    """json.dumps(indent=2) layout of a nested list of ``shape`` opened
    ``level`` deep, with ``%s`` for each number."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    items = ("," + pad).join([_json_template(shape[1:], level + 1)] * shape[0])
    return "[" + pad + items + "\n" + "  " * level + "]"


def _write_json(path: Path, payload: dict, keep: Optional[str] = None):
    """``payload`` as json.dumps(indent=2, sort_keys=True) writes it.  A
    payload of arrays (mesh.json) is formatted from their text instead, one
    array at a time, because json's indenting encoder is pure Python; the
    text of the array under ``keep`` is returned, for another file."""
    if not (payload and all(isinstance(v, np.ndarray)
                            for v in payload.values())):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")
        return None
    for a in payload.values():
        _finite(a)      # before the file is opened
    kept, sep = None, "{\n"
    with path.open("w") as fh:
        for key, a in sorted(payload.items()):
            a = _Numbers.of(a)
            fh.write(f"{sep}  {json.dumps(key)}: ")
            fh.write(_json_template(a.shape) % a.text)
            sep = ",\n"
            if key == keep:
                kept = a
        fh.write("\n}\n")
    return kept


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_extremal(path: Path, points, u):
    """extremal.csv: one ``x,y,u`` row per node (``y = 0`` in 1D), the
    bytes csv.writer writes for these rows.  ``points`` is an array of
    nodes or their ``_Numbers``.  Rows are formatted in blocks, so the text
    of one block of values at a time is held in memory."""
    u = _finite(np.asarray(u, dtype=float))
    n = len(u)
    if not isinstance(points, _Numbers):
        points = _Numbers.of(
            _finite(np.asarray(points, dtype=float).reshape(n, -1)))
    dim = points.shape[1]
    with path.open("w", newline="") as fh:
        fh.write("x,y,u\r\n")
        for lo in range(0, n, _CSV_BLOCK):
            m = min(n - lo, _CSV_BLOCK)
            fields = [repr(0.0)] * (3 * m)
            for k in range(dim):
                fields[k::3] = points.text[dim * lo + k:dim * (lo + m):dim]
            fields[2::3] = map(repr, u[lo:lo + m].tolist())
            fh.write("%s,%s,%s\r\n" * m % tuple(fields))


def _mesh_arrays(mesh) -> dict:
    return {"vertices": mesh.vertices, "cells": mesh.cells,
            "boundary": mesh.boundary}


def _cmd_solve(spec: RunSpec):
    mesh, cfg = _mesh_and_config(spec)
    hole = make_hole_from_arc(mesh, spec.hole_start or 0.0,
                              spec.hole_length or 0.0)
    result = solve_trace_constant(mesh, cfg, hole)
    summary = {
        "p": spec.p, "q": spec.q,
        "alpha_or_hole": sorted(hole.facet_indices),
        "s_value": result.s_value,
        "lambda": result.lam,
        "el_residual": result.el_residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "hole_measure": hole.measure,
    }
    table = (("s_value", "lambda", "el_residual", "iterations"),
             [(result.s_value, result.lam, result.el_residual,
               result.iterations)])
    return (result.converged, mesh, summary, table,
            (mesh.vertices, result.extremal))


def _cmd_optimize(spec: RunSpec):
    mesh, cfg = _mesh_and_config(spec)
    run = optimize_hole_alternating(mesh, cfg, spec.alpha)
    summary = {
        "p": spec.p, "q": spec.q, "alpha": run.alpha,
        "alpha_effective": run.alpha_effective,
        "strategy": "alternating",
        "best_value": run.best_value,
        "hole_intervals": hole_intervals(mesh, run.best_hole),
        "hole_facets": sorted(run.best_hole.facet_indices),
        "zero_set_measure": zero_set_measure(mesh, run.best_result),
        "n_solves": run.n_solves,
        "n_unconverged": run.n_unconverged,
        "converged": run.converged,
    }
    return (run.converged, mesh, summary,
            (("iteration", "hole_measure", "s_value"), run.history),
            (mesh.vertices, run.best_result.extremal))


def _cmd_shape_grad_check(spec: RunSpec):
    if not isinstance(_build_domain(spec.domain), Disk):
        raise SpecError("shape-grad-check runs on disk domains")
    mesh, cfg = _mesh_and_config(spec)
    P = mesh.perimeter
    length = spec.hole_length if spec.hole_length is not None else 0.25 * P
    hole = make_hole_from_arc(mesh, spec.hole_start or 0.0, length)
    fmid = float(np.max(mesh.facet_lengths))
    steps = sorted(h * P for h in spec.fd_steps_rel)
    h_mid, h_max = steps[len(steps) // 2], steps[-1]
    intervals = hole_intervals(mesh, hole)
    if len(intervals) != 1:
        raise SpecError(f"the hole must be one arc of whole facets; hole length "
                        f"{length!r} covers {len(hole.facet_indices)} facets")
    (s_start, s_end), = intervals
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
    best = min(check.rows, key=lambda r: r[2])
    summary = {
        "p": spec.p, "q": spec.q,
        "analytic": check.analytic,
        "speed_amplitude": amp,
        "rows": [{"h": h, "fd": fd, "relative_error": rel}
                 for h, fd, rel in check.rows],
        "best_h": best[0],
        "best_relative_error": best[2],
        "converged": check.converged,
    }
    return (check.converged, mesh, summary,
            (("h", "fd_value", "analytic_value", "relative_error"), rows), None)


def _sweep_alpha_one(spec: RunSpec, alpha: float):
    mesh, cfg = _mesh_and_config(spec)
    run = optimize_hole_alternating(mesh, cfg, alpha)
    return alpha, run.best_value, run.alpha_effective, run.converged


def _cmd_sweep_alpha(spec: RunSpec):
    mesh, _ = _mesh_and_config(spec)
    specs = [spec] * len(spec.alphas)
    # a pool forks all its workers at its first submit
    workers = min(spec.workers, len(spec.alphas), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_alpha_one, specs, spec.alphas))
    else:
        rows = list(map(_sweep_alpha_one, specs, spec.alphas))
    values = [r[1] for r in rows]
    summary = {
        "p": spec.p, "q": spec.q,
        "alphas": [r[0] for r in rows],
        "values": values,
        "strictly_increasing": all(a < b for a, b in zip(values, values[1:])),
    }
    return (all(r[3] for r in rows), mesh, summary,
            (("alpha", "s_alpha", "alpha_effective", "converged"), rows), None)


def _cmd_sweep_mu(spec: RunSpec):
    base = _base_interval(spec)
    cfg = spec.config()
    sweep = run_mu_sweep(base, spec.alpha, cfg, spec.mu_values)
    rows = [(r.mu, r.s_mu, r.rescaled, sweep.slope) for r in sweep.records]
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
    return (all(r.converged for r in sweep.records), None, summary,
            (("mu", "S_mu", "rescaled", "slope_estimate"), rows), None)


def _cmd_verify_1d(spec: RunSpec):
    base = _base_interval(spec)
    a, b = base.a, base.b
    length = b - a
    # the closed form's alpha is the free fraction: pair formula(alpha)
    # with a hole covering the remaining (1 - alpha) of the interval
    closed = closed_form_limit_constant(spec.p, spec.alpha, length)
    hole_fraction = 1.0 - spec.alpha
    problem = OneDimProblem(a, b, spec.p, spec.p, hole_fraction,
                            epsilon=spec.epsilon,
                            dof_tolerance=spec.dof_tolerance,
                            max_inner_iterations=spec.max_inner_iterations)
    fem_res = solve_limit_problem(
        problem, (a + spec.alpha * length, b), spec.n_cells)
    sweep_cells = min(spec.n_cells, 256)
    sweep = optimize_limit_hole(problem, sweep_cells)
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
        "sweep_n_cells": sweep_cells,
        "sweep_best_hole": [lo, hi],
        "sweep_endpoint_optimal": bool(abuts),
        "converged": fem_res.converged,
        "sweep_converged": sweep.converged,
    }
    return (fem_res.converged and sweep.converged, None, summary,
            (("hole_start", "value"), list(zip(sweep.starts, sweep.values))),
            (fem_res.nodes, fem_res.extremal))


_DISPATCH = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "shape-grad-check": _cmd_shape_grad_check,
    "sweep-alpha": _cmd_sweep_alpha,
    "sweep-mu": _cmd_sweep_mu,
    "verify-1d": _cmd_verify_1d,
}


def _check_creatable(out: Path) -> None:
    """Raise, before the command runs and creating nothing, the error that
    making the output directory would raise where its nearest existing
    ancestor is not a writable directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 str(existing))
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                              str(existing))


def run(spec: RunSpec) -> int:
    """Validate and dispatch a run, then write the summary, table, mesh and
    extremal its command returns; returns the process exit code."""
    if spec.command not in _DISPATCH:
        raise SpecError(f"unknown command {spec.command!r}")
    spec.domain = _flat_domain(spec.domain)
    spec.validate()
    root = Path(spec.out or os.environ.get(OUTPUT_ROOT_ENV, "results"))
    run_id = spec.run_id or f"{spec.command}-p{spec.p}-q{spec.q}-seed{spec.seed}"
    out = root / run_id
    _check_creatable(out)
    converged, mesh, summary, table, extremal = _DISPATCH[spec.command](spec)
    if mesh is not None:
        summary["mesh"] = {"resolution": mesh.resolution,
                           "n_vertices": mesh.n_vertices}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json", summary)
    _write_csv(out / "data.csv", *table)
    if extremal is not None:
        points, u = extremal
        if mesh is not None:
            # the extremal's nodes are the mesh's vertices: format them once
            points = _write_json(out / "mesh.json", _mesh_arrays(mesh),
                                 keep="vertices")
        _write_extremal(out / "extremal.csv", points, u)
    return 0 if converged else 2


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
    """One parser for every command: they all take the same flags."""
    ap = _Parser(
        prog="traceholes",
        description="Trace constants with boundary holes: solve, optimize, "
                    "and verify.")
    ap.add_argument("command", choices=list(_DISPATCH))
    ap.add_argument("--config", help="JSON/TOML config file")
    ap.add_argument("--domain", choices=["interval", "rectangle", "disk",
                                         "thin"])
    ap.add_argument("-p", type=float, dest="p")
    ap.add_argument("-q", type=float, dest="q")
    for flag in _DOMAIN_NUMBERS + ("resolution", "alpha", "hole-start",
                                   "hole-length", "epsilon", "dof-tol",
                                   "speed-amplitude"):
        ap.add_argument("--" + flag, type=float)
    for flag in ("alphas", "mu-values"):
        ap.add_argument("--" + flag, type=float, nargs="+")
    for flag in ("max-iter", "n-cells", "n-starts", "seed", "workers"):
        ap.add_argument("--" + flag, type=int)
    ap.add_argument("--out")
    ap.add_argument("--run-id")
    return ap


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    payload = _load_config(args.config) if args.config else {}
    if not isinstance(payload, dict):
        raise SpecError(f"config must be a table, got {payload!r}")
    spec = RunSpec(command=args.command)
    domain = _flat_domain(payload.pop("domain", {}))
    for key, value in payload.items():
        if not hasattr(spec, key):
            raise SpecError(f"unknown config field {key!r}")
        setattr(spec, key, value)
    if args.domain:
        domain["kind"] = args.domain
    renamed = {"dof_tol": "dof_tolerance", "max_iter": "max_inner_iterations"}
    for flag, val in vars(args).items():
        if val is None or flag in ("command", "config", "domain"):
            continue
        if flag in _DOMAIN_NUMBERS:
            domain[flag] = val
        else:
            setattr(spec, renamed.get(flag, flag), val)
    spec.domain = domain
    return spec


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        spec = _spec_from_args(args)
        return run(spec)
    except (SpecError, NotAdmissibleError, MeshResolutionError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
