"""Two traced passes at one seed must count exactly the same work.

    python3 -m pytest perfbench/test_counts.py

A later change may claim a gain from a count only if the count repeats
exactly; this checks that it does for every workload.  About a minute on
a 2-core Xeon VM.
"""

import pytest

from run import run_pass
from tracer import COUNT_METRICS
from workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (run_pass(workload, 3, True, i, 170) for i in range(2))
    assert first is not None and second is not None
    for rec in (first, second):
        assert not [j["problems"] for j in rec["jobs"] if j["problems"]]
    differ = {name: (first["layers"][name], second["layers"][name])
              for name in COUNT_METRICS
              if first["layers"][name] != second["layers"][name]}
    assert not differ
