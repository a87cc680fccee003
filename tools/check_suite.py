"""Gate on the expected state of the tier-1 test suite.

    python tools/check_suite.py [extra pytest arguments]

Runs the suite from the repository root with ``src`` on the import path and
a JUnit XML report, and exits 0 only when the set of failing tests is
exactly ``EXPECTED_RED``.  A new failure fails the gate, and so does an
expected-red test turning green: criterion 5's windows are unattainable at
the thicknesses it tests (see README, "Expected suite state"), so a pass
there means the test or its windows changed.  An expected-red test must also
fail for its stated reasons alone: its failure message must hold exactly the
``[FAIL]`` lines listed for it, so an exception or another of its checks
turning red fails the gate.  The verdict line also gives
the line count of ``src/traceholes/``, the code size the roadmap tracks.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each expected-red test, with the start of every [FAIL] line its failure
# message must hold, in order: criterion 5 fails on its two windows only.
EXPECTED_RED = {
    "test_criterion_5_thin_domain_scaling": (
        "[FAIL] criterion 5: rescaled S/mu at mu=1/16",
        "[FAIL] criterion 5: log-log slope"),
}


def outcomes(report: Path):
    """(names of all test cases, failure message of each failed or errored
    one by name)."""
    ran, failed = set(), {}
    for case in ET.parse(report).getroot().iter("testcase"):
        ran.add(case.get("name"))
        for tag in ("failure", "error"):
            bad = case.find(tag)
            if bad is not None:
                failed[case.get("name")] = bad.get("message") or ""
                break
    return ran, failed


def fails_as_stated(message: str, windows) -> bool:
    """Whether the [FAIL] lines of an acceptance test's failure message
    start, one each and in order, with the stated windows."""
    lines = (line.strip() for line in
             message.removeprefix("AssertionError: ").splitlines())
    fails = [line for line in lines if line.startswith("[FAIL]")]
    return len(fails) == len(windows) and all(map(str.startswith, fails, windows))


def source_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src" / "traceholes").glob("*.py"))


def main(argv) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={report}", *argv],
            cwd=ROOT, env=env)
        if not report.exists():
            print(f"check_suite: pytest wrote no report (exit {proc.returncode})")
            return 1
        ran, failed = outcomes(report)
    problems = [f"unexpected failure: {name}"
                for name in sorted(failed.keys() - EXPECTED_RED.keys())]
    problems += [f"expected-red test did not run: {name}"
                 for name in sorted(EXPECTED_RED.keys() - ran)]
    problems += [f"expected-red test passed: {name}"
                 for name in sorted((EXPECTED_RED.keys() & ran) - failed.keys())]
    for name in sorted(EXPECTED_RED.keys() & failed.keys()):
        if not fails_as_stated(failed[name], EXPECTED_RED[name]):
            first = (failed[name].splitlines() or ["(no message)"])[0]
            problems.append(f"expected-red test failed outside its windows: "
                            f"{name}: {first}")
    for line in problems:
        print(f"check_suite: {line}")
    size = f"src/traceholes: {source_lines()} lines"
    if problems:
        print(f"check_suite: FAIL ({size})")
        return 1
    print(f"check_suite: {len(ran)} tests, failures exactly "
          f"{sorted(EXPECTED_RED)} ({size})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
