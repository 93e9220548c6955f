"""Every benchmark workload still runs and checks out on its smoke inputs.

``perfbench/workloads.py`` reads what netsynth's public functions return,
for example the ``counts`` of every cycle-basis vector.  An API change that
breaks one of those reads would otherwise only show at benchmark time.
This test builds each workload's smoke-sized operations, runs them in
order, and requires every check to pass and every verdict and report to be
readable.  Report digests are not compared: they are the benchmark's drift
record, not a pin.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_operations_pass_their_checks(workload):
    ns = SimpleNamespace(**{m: importlib.import_module("netsynth." + m)
                            for m in MODULES})
    passes = WORKLOADS[workload].build(ns, ROOT, 0, True)
    assert passes and all(passes)
    for ops in passes:
        for op in ops:
            result = op.call()
            assert op.check(result) is None, op.key
            assert op.verdict(result), op.key
            assert op.report(result), op.key
