"""One pass of a workload in a fresh process.

    python3 pass_child.py WORKLOAD SEED TRACE OUT_DIR

Imports the package from ``src/``, makes one tiny warm-up solve through the
CLI (the first solve in a process pays scipy's lazy imports), then runs
every job of the workload once, closed loop, through ``cli.main``.  Before,
between and after the jobs, outside their timings, a fixed calibration
kernel measures how fast the shared host runs at that moment.  Checks run
after the timed loop.  The last line of standard output is one JSON record
of the pass.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WARMUP = ["solve", "--domain", "disk", "--radius", "1", "--resolution", "0.25",
          "-p", "2", "-q", "2", "--hole-start", "0", "--hole-length", "1.5"]


def _run_job(cli, argv):
    """Exit code of one CLI call; an exception counts as a failed job."""
    try:
        return cli.main(argv), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def _summary(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def calibrate() -> float:
    """Seconds taken by a fixed kernel shaped like the P1 energy on a
    1.3k-vertex mesh: gathers, small-vector arithmetic, interpreter calls.
    It never touches the package, so its time moves only with the host."""
    import numpy as np
    rng = np.random.default_rng(0)
    u = rng.random(1300)
    cells = rng.integers(0, u.size, size=(2500, 3))
    coeff = rng.random((2500, 3))
    start = time.perf_counter()
    for _ in range(1000):
        g = np.sum(coeff * u[cells], axis=1)
        float(np.sum((1e-16 + g * g) ** 1.5) + np.sum(np.abs(u) ** 2.0))
    return time.perf_counter() - start


def main(argv):
    workload, seed, traced, out = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    import numpy
    import scipy
    from traceholes import cli
    from traceholes.geometry import Mesh
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"traceholes imported from {cli.__file__}, not {ROOT / 'src'}")
    rc = cli.main(WARMUP + ["--out", str(out), "--run-id", "warmup"])
    setup_s = time.perf_counter() - T0
    if rc != 0:
        sys.exit(f"warm-up solve exited {rc}")
    shutil.rmtree(out / "warmup")

    jobs = workloads.jobs(workload, seed)
    calibrate()                     # first call pays numpy's warm-up
    calibration = [calibrate()]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    runs = []
    wall_s = 0.0
    for i, job in enumerate(jobs):
        t = time.perf_counter()
        rc, error = _run_job(cli, job.argv + ["--out", str(out),
                                              "--run-id", f"j{i:02d}"])
        seconds = time.perf_counter() - t
        runs.append((rc, error, seconds))
        wall_s += seconds
        calibration.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    retained = sum(isinstance(o, Mesh) for o in gc.get_objects())
    bytes_written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())

    reference = json.loads(REFERENCE.read_text())
    records = []
    for i, (job, (rc, error, seconds)) in enumerate(zip(jobs, runs)):
        summary = _summary(out / f"j{i:02d}" / "summary.json")
        if error is not None:
            problems, s_dev = [error], None
        else:
            problems, s_dev = workloads.check(job, rc, summary, reference)
        records.append({
            "id": job.id, "kind": job.kind, "rc": rc, "seconds": seconds,
            "problems": problems, "s_dev": s_dev,
            "observed": workloads.observed(job, summary) if summary else None,
        })
    result = {
        "traced": traced, "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb, "retained_meshes": retained,
        "bytes_written": bytes_written, "jobs": records,
        "calibration_s": calibration,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        result["layers"] = tracer.metrics(wall_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
