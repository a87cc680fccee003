"""The benchmark's workloads and the checks on their outputs.

A workload is a list of CLI jobs derived from the benchmark seed; the
program sees only the resulting argument lists.  The seed sets ``--seed``
for ``optimize`` and ``sweep-mu`` and rotates every disk hole by
``seed mod 6`` sectors of the six-fold symmetric disk mesh, so a single
reference table holds for every seed.

Each job's ``summary.json`` is checked against ``reference.json`` two-sided
at ``REL_TOL``: a constraint that stops being enforced lowers ``S``, so a
lower value is a failure just like a higher one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

REL_TOL = 1e-6          # |S - S_ref| / S_ref and |lambda - S| / S
FD_TOL = 0.02           # shape-grad-check: best finite-difference error
GAP_TOL = 5e-3          # verify-1d: FEM value against the closed form
SECTORS = 6             # disk meshes have six congruent 60-degree sectors

WORKLOADS = ("solve-ladder", "hole-search", "thin-limit")


class Job(NamedTuple):
    id: str             # stable across seeds; keys the reference table
    kind: str           # CLI subcommand
    argv: list


def disk_hole_start(resolution: float, seed: int) -> float:
    """Arclength start of the disk hole, rotated by ``seed mod 6`` sectors.

    The start sits half a facet past the sector boundary.  A start exactly
    at ``k P / 6`` lands within an ulp of a facet boundary, and for some
    sectors the snap then drops the first facet, which shifts the hole by a
    whole facet and changes ``S``.
    """
    rings = round(1.0 / resolution)
    facet = 2.0 * math.sin(math.pi / (SECTORS * rings))    # unit radius
    return ((seed % SECTORS) * rings + 0.5) * facet


def _disk(resolution):
    return ["--domain", "disk", "--radius", "1",
            "--resolution", repr(resolution)]


def _thin(mu, resolution):
    return ["--domain", "thin", "--a", "0", "--b", "1", "--mu", repr(mu),
            "--resolution", repr(resolution)]


def _pq(p, q):
    return ["-p", repr(float(p)), "-q", repr(float(q))]


def _solve_ladder(seed):
    cases = [(r, p) for r in (0.05, 0.025, 0.0125) for p in (1.5, 2, 3)]
    cases.append((0.00625, 2))
    return [Job(f"solve-disk-r{r}-p{p}", "solve",
                ["solve", *_disk(r), *_pq(p, 2),
                 "--hole-start", repr(disk_hole_start(r, seed)),
                 "--hole-length", repr(math.pi / 2)])
            for r, p in cases]


def _hole_search(seed):
    return [
        Job("optimize-disk-r0.05-a0.25", "optimize",
            ["optimize", *_disk(0.05), *_pq(2, 2), "--alpha", "0.25",
             "--n-starts", "5", "--seed", str(seed)]),
        Job("optimize-thin-mu1/64-a0.5", "optimize",
            ["optimize", *_thin(1 / 64, 1 / 256), *_pq(2, 2),
             "--alpha", "0.5", "--n-starts", "3", "--seed", str(seed)]),
        Job("shape-grad-check-disk-r0.05", "shape-grad-check",
            ["shape-grad-check", *_disk(0.05), *_pq(2, 2),
             "--hole-start", repr(disk_hole_start(0.05, seed))]),
    ]


def _thin_limit(seed):
    jobs = [Job(f"solve-thin-mu1/16-p{p}-q{q}", "solve",
                ["solve", *_thin(1 / 16, 1 / 64), *_pq(p, q),
                 "--hole-start", "0", "--hole-length", "1.0625"])
            for p, q in ((1.5, 1.5), (3, 3), (2, 2))]
    jobs += [Job(f"verify-1d-p{p}-a0.5", "verify-1d",
                 ["verify-1d", "-p", repr(float(p)), "--alpha", "0.5"])
             for p in (2, 3)]
    jobs.append(Job("sweep-mu-a0.5", "sweep-mu",
                    ["sweep-mu", *_pq(2, 2), "--alpha", "0.5",
                     "--mu-values", "0.5", "0.25", "0.125", "0.0625",
                     "--n-starts", "3", "--seed", str(seed)]))
    return jobs


_WORKLOAD_JOBS = {"solve-ladder": _solve_ladder,
                  "hole-search": _hole_search, "thin-limit": _thin_limit}


def jobs(workload: str, seed: int) -> list:
    return _WORKLOAD_JOBS[workload](seed)


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def observed(job: Job, summary: dict):
    """The job's constant(s) as the reference table stores them."""
    if job.kind == "solve":
        return summary["s_value"]
    if job.kind == "optimize":
        return summary["best_value"]
    if job.kind == "verify-1d":
        return summary["fem_value"]
    if job.kind == "sweep-mu":
        return [r["s_mu"] for r in summary["records"]]
    return None


def check(job: Job, rc: int, summary, reference: dict):
    """Return (problems, s_dev): problems is a list of strings, empty when
    the job passed; s_dev is the largest |S - S_ref| / S_ref seen."""
    if rc != 0:
        return [f"exit code {rc}"], None
    if summary is None:
        return ["no summary.json"], None
    problems = []
    if job.kind == "shape-grad-check":
        err = summary["best_relative_error"]
        if not err <= FD_TOL:
            problems.append(f"best FD error {err:.3g} > {FD_TOL}")
        return problems, None

    ref = reference.get(job.id)
    value = observed(job, summary)
    if ref is None:
        return [f"no reference for {job.id}"], None
    if job.kind == "sweep-mu":
        records = summary["records"]
        if len(value) != len(ref):
            return [f"{len(value)} records, reference has {len(ref)}"], None
        devs = [_rel(v, r) for v, r in zip(value, ref)]
        if not all(rec["converged"] for rec in records):
            problems.append("unconverged sweep record")
    else:
        devs = [_rel(value, ref)]
    s_dev = max(devs)
    if not s_dev <= REL_TOL:
        problems.append(f"|S - S_ref|/S_ref = {s_dev:.3g}")

    if job.kind == "solve":
        if not summary["converged"]:
            problems.append("not converged")
        lam_dev = _rel(summary["lambda"], summary["s_value"])
        if not lam_dev <= REL_TOL:
            problems.append(f"|lambda - S|/S = {lam_dev:.3g}")
    elif job.kind == "optimize":
        if not summary["converged"]:
            problems.append("not converged")
        if "disk" in job.id and len(summary["hole_intervals"]) != 1:
            problems.append("disk hole is not one contiguous arc")
    elif job.kind == "verify-1d":
        if not summary["converged"]:
            problems.append("not converged")
        if not abs(summary["relative_gap"]) <= GAP_TOL:
            problems.append(f"closed-form gap {summary['relative_gap']:.3g}")
        if not summary["sweep_endpoint_optimal"]:
            problems.append("sweep optimum does not abut an endpoint")
    return problems, s_dev
