"""Benchmark of the traceholes CLI: time to a checked constant.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (every job of it once, closed loop, one client)
for ``--seconds``, each pass in a fresh process so
that memory and timing describe one pass and not the history of earlier
ones.  Every job's output is checked against ``reference.json``.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
medians over passes.  Times are scaled to a reference host speed measured
by a calibration kernel in each pass (see ``_speed``).  With ``--trace 1``
untraced and traced passes alternate; the per-layer metrics come from the
traced passes (medians), the per-command times from the untraced ones, and
``trace.overhead_s`` is the difference of their median pass times.

The last line of standard output is the result object; the line before it
is a detail record with per-pass numbers, failures and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "pass_child.py"
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0      # every run must end within 180 s
# The calibration kernel's time on a quiet host (2-core Intel Xeon VM).
# Times are reported at this host speed: see _speed().
REF_CALIBRATION_S = 0.08
KINDS = ("solve", "optimize", "shape-grad-check", "sweep-mu", "verify-1d")
# BLAS and OpenMP pools are pinned so that one pass uses one core and the
# arithmetic (hence every count) repeats exactly.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}


def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload, seed, traced, index, timeout):
    """One pass in a fresh process; None if the process failed."""
    out = OUT / f"{workload}-{os.getpid()}-{index}"
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(seed),
             "1" if traced else "0", str(out)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass {index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _speed(p):
    """How much faster the host ran during pass ``p`` than at reference
    speed: the shared host slows every process on it by up to 1.5x in
    phases of seconds to minutes, and the calibration kernel, timed between
    jobs of the same process, slows with it."""
    return REF_CALIBRATION_S / _median(p["calibration_s"])


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio") or name.endswith("s_dev_max"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def _environment(passes):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = passes[0]["versions"] if passes else {}
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "threads": THREAD_ENV, "results_fs": _filesystem(OUT),
            "load": "one client, closed loop, no --workers"}


def aggregate(passes, n_jobs, n_crashed, traced_run):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    jobs = [j for p in passes for j in p["jobs"]]
    attempted = len(jobs) + n_crashed * n_jobs
    failures = [f"{j['id']}: {'; '.join(j['problems'])}"
                for j in jobs if j["problems"]]
    failed = len(failures) + n_crashed * n_jobs
    devs = [j["s_dev"] for j in jobs if j["s_dev"] is not None]
    # a median pass at reference host speed: each job's median scaled time
    # over the untraced passes
    job_s = [(p0["kind"],
              _median([p["jobs"][i]["seconds"] * _speed(p) for p in plain]))
             for i, p0 in enumerate(plain[0]["jobs"] if plain else ())]
    kind_s = {k: sum(s for kind, s in job_s if kind == k) for k in KINDS}
    detail = {
        "passes": [{**{k: p[k] for k in ("traced", "wall_s", "setup_s",
                                         "peak_rss_mb", "calibration_s")},
                    "job_s": [j["seconds"] for j in p["jobs"]],
                    "speed": _speed(p)}
                   for p in passes],
        "crashed_passes": n_crashed,
        "command_s": kind_s,
        "fail_ratio": failed / max(attempted, 1),
        "s_dev_max": max(devs) if devs else None,
        "failures": failures,
        "environment": _environment(passes),
    }
    if not traced_run:
        metrics = {
            "wall_s": sum(kind_s.values()),
            "setup_s": _median([p["setup_s"] * _speed(p) for p in passes]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        }
    else:
        metrics = {name: _median([p["layers"][name] for p in traced])
                   for name in (traced[0]["layers"] if traced else ())}
        metrics["trace.overhead_s"] = (
            _median([p["wall_s"] * _speed(p) for p in traced])
            - _median([p["wall_s"] * _speed(p) for p in plain]))
        metrics["fem.retained_meshes"] = _median(
            [p["retained_meshes"] for p in plain])
        metrics["cli.bytes_written"] = _median([p["bytes_written"] for p in plain])
        for k in KINDS:
            metrics[f"cmd.{k.replace('-', '_')}_s"] = kind_s[k]
        metrics["check.fail_ratio"] = detail["fail_ratio"]
        metrics["check.s_dev_max"] = detail["s_dev_max"] or 0.0
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "traceholes" / "cli.py").is_file():
        print(f"error: no traceholes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    n_jobs = len(workloads.jobs(args.workload, args.seed))
    cycle = (False, True) if args.trace else (False,)
    passes, n_crashed = [], 0
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        ran = len(passes) + n_crashed
        # start another pass only if it should end within --seconds
        if ran >= len(cycle) and elapsed + _median(durations) > args.seconds:
            break
        if elapsed >= RUN_LIMIT_S - 15:
            break
        traced = cycle[ran % len(cycle)]
        rec = run_pass(args.workload, args.seed, traced, ran,
                       RUN_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - start - elapsed)
        if rec is None:
            n_crashed += 1
        else:
            passes.append(rec)
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    detail, result = aggregate(passes, n_jobs, n_crashed, bool(args.trace))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
