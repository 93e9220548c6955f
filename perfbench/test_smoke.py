"""Smoke tests of the benchmark itself, on a few inputs per workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, synthesis_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 60):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"] for line in lines)
    # the smoke inputs are a subset of the recorded run
    assert "verdict_drift 0  report_drift 0" in done.stdout


def fig1_brac_op(ns):
    lts = ns.lts.parse_lts((ROOT / "tests/fixtures/fig1.lts").read_text())
    return synthesis_op(ns, "fig1/brac", "brac", lts, "success")


def test_verdict_check_rejects_a_corrupted_report():
    ns = run.load_netsynth()
    op = fig1_brac_op(ns)
    report = op.call()
    assert report.ok and op.check(report) is None
    net = report.net
    arc = min(net.consume)
    corrupted = [
        # an empty extra place in front of the first transition
        replace(net, places=net.places + ("p_empty",), m0=net.m0 + (0,),
                consume={**net.consume, (len(net.places), 0): 1}),
        # a weighted arc, outside the plain BRAC class
        replace(net, consume={**net.consume, arc: 2}),
    ]
    for bad in corrupted:
        assert op.check(replace(report, net=bad)) is not None
    wrong_verdict = replace(report, outcome="failure", net=None)
    assert op.check(wrong_verdict) == "expected success, got failure"


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, ns, passes = run.setup(WORKLOADS["brac-roundtrip"], 3, True)
        tracer = Tracer(ns)
        with tracer:
            rows, cut = run.run_loop(passes, 60, SpeedProbe())
        assert not cut and not any(r["error"] for r in rows)
        counts.append((tracer.counts, sorted(tracer.rows)))
        # every wrapped name is restored
        assert ns.synthesis.solve_integer.__module__ == "netsynth.linsys"
    assert counts[0] == counts[1]
    assert counts[0][0]["linsys.solves"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_cut_by_the_limit_is_not_correct(trace):
    done = smoke("brac-roundtrip", trace, seconds=1e-6)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # one operation (and its traced twin) runs, then the limit cuts
    ops = 11 * (1 + trace)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (ops, ops - 1 - trace)
    assert "CUT:" in done.stderr


def test_tail_percentile_leaves_ten_operations_beyond():
    assert run.tail_percentile(100) == (90, 89)
    assert run.tail_percentile(1220) == (99, 1207)
    assert run.tail_percentile(10) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke("brac-roundtrip", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
