"""netsynth benchmark: one seeded workload per run, verdicts checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload brac-roundtrip --seed 0 \
        --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s``,
``total_s``, ``op_p50_ms``, ``op_tail_ms`` and ``peak_rss_mb``.  With
``--trace 1`` it runs every operation untraced and a twin of it traced,
side by side, and prints per-module metrics instead.  Every run does the
workload's fixed work; ``--seconds`` limits its calibrated operation
time, and a run the limit cuts short is reported as not correct.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same numbers for people, with
the error ratio, the drift counts and the run conditions.  A full record
of the run goes to ``.perfbench_out/`` in the checkout.

The benchmark imports netsynth from ``src/`` of the checkout and nothing
else; without it the run fails before it measures anything.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402

SETUP_REPEATS = 9
MODULES = ("lts", "linsys", "relations", "separation", "petri", "synthesis",
           "oracle")
OUT_DIR = ROOT / ".perfbench_out"
DRIFT_DIR = HERE / "drift"


class Raised:
    """An exception an operation raised, kept as its result."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __str__(self) -> str:
        return f"{type(self.exc).__name__}: {self.exc}"


def load_netsynth() -> SimpleNamespace:
    """Import netsynth afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules
                 if n == "netsynth" or n.startswith("netsynth.")]:
        del sys.modules[name]
    importlib.import_module("netsynth")
    return SimpleNamespace(**{m: sys.modules["netsynth." + m]
                              for m in MODULES})


def setup(workload, seed: int, smoke: bool):
    """Import netsynth and build the workload's inputs.

    Returns the wall time in ns, the netsynth modules and the passes.
    """
    start = time.perf_counter_ns()
    ns = load_netsynth()
    passes = workload.build(ns, ROOT, seed, smoke)
    return time.perf_counter_ns() - start, ns, passes


def timed(op):
    """Run one operation; an exception it raises is its result."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:  # an operation failing is a result
        result = Raised(exc)
    return result, time.perf_counter_ns() - t0


def evaluate(index: int, op, result, ns: int) -> dict:
    """Check one result and record its verdict and report digest."""
    row = {"id": f"p{index}/{op.key}", "ms": ns / 1e6}
    if isinstance(result, Raised):
        row["error"] = f"raised {result}"
        row["verdict"] = f"raised:{type(result.exc).__name__}"
        row["sha256"] = sha256(str(result).encode())
        return row
    try:
        row["error"] = op.check(result)
        row["verdict"] = op.verdict(result)
        row["sha256"] = sha256(op.report(result))
    except Exception as exc:  # a result the check cannot read
        row["error"] = f"check raised {type(exc).__name__}: {exc}"
        row.setdefault("verdict", "unreadable")
        row.setdefault("sha256", "")
    return row


def take(passes: list, index: int) -> list:
    """Pass ``index`` in reverse, released from ``passes``.

    Popping each operation as it runs, and checking its result at once,
    frees it: nothing of earlier operations stays alive for the garbage
    collector to scan during later ones.
    """
    ops, passes[index] = passes[index], None
    ops.reverse()
    return ops


def run_loop(passes: list, seconds: float,
             probe: SpeedProbe) -> tuple[list[dict], int]:
    """Run every operation of every pass, unless the limit cuts the run.

    Each result is checked right after its operation, outside the
    operation's timing, and dropped.  Returns one row per operation run,
    with its wall time as ``wall_ms`` and its calibrated time as ``ms``,
    and the number of operations the limit cut (see ``over_limit``).
    """
    rows, intervals = [], []
    left = sum(len(ops) for ops in passes)
    spent_ns = 0.0
    for index in range(len(passes)):
        ops = take(passes, index)
        gc.collect()
        while ops:
            op = ops.pop()
            probe.sample_if_due()
            began = time.perf_counter_ns()
            result, ns = timed(op)
            intervals.append((began, began + ns))
            rows.append(evaluate(index, op, result, ns))
            left -= 1
            probe.sample_if_due()
            spent_ns += ns * probe.scale(began, began + ns)
            if left and over_limit(spent_ns, seconds):
                return calibrate(rows, intervals, probe), left
    return calibrate(rows, intervals, probe), left


def over_limit(spent_ns: float, seconds: float) -> bool:
    """Whether a run has spent its ``--seconds`` of calibrated time.

    The workloads are fixed work, sized to take well under
    ``--seconds``, and every figure covers all of it.  A run that is
    still going at the limit stops, and the operations it did not run
    count as failed: its figures would cover less work than the
    parent's, and a slower program would read as faster.
    """
    return spent_ns >= seconds * 1e9


def calibrate(rows: list[dict], intervals: list, probe: SpeedProbe):
    probe.sample()
    for row, (began, ended) in zip(rows, intervals):
        row["wall_ms"] = row["ms"]
        row["ms"] = row["wall_ms"] * probe.scale(began, ended)
    return rows


def run_paired(passes: list, twins: list, tracer: Tracer, seconds: float,
               probe: SpeedProbe) -> tuple[list[dict], list[dict], int]:
    """Each operation untraced and its twin traced, side by side.

    Both halves run at the same moments, so the difference between their
    totals is the tracing overhead and not a change in machine speed.
    The limit counts the calibrated time of the untraced half only.
    Returns both halves' rows and the number of pairs the limit cut.
    """
    plain, traced = [], []
    left = sum(len(ops) for ops in passes)
    spent_ns = 0.0

    def untraced(index, op):
        nonlocal spent_ns
        probe.sample_if_due()
        began = time.perf_counter_ns()
        result, ns = timed(op)
        plain.append(evaluate(index, op, result, ns))
        probe.sample_if_due()
        spent_ns += ns * probe.scale(began, began + ns)

    for index in range(len(passes)):
        ops, twin_ops = take(passes, index), take(twins, index)
        gc.collect()
        while ops:
            op, twin = ops.pop(), twin_ops.pop()
            # alternate which half runs first, so warm caches favour neither
            if len(ops) % 2:
                untraced(index, op)
            with tracer:
                result, ns = timed(twin)
            traced.append(evaluate(index, twin, result, ns))
            if not len(ops) % 2:
                untraced(index, op)
            left -= 1
            if left and over_limit(spent_ns, seconds):
                return plain, traced, left
    return plain, traced, left


def drift(rows: list[dict], workload: str) -> dict:
    """Compare verdicts and report digests with the stored record.

    Every seed runs the same operations, so every seed is compared with
    the one record.
    """
    path = DRIFT_DIR / f"{workload}.json"
    if not path.is_file():
        return {"record": None, "compared": 0, "verdict_drift": None,
                "report_drift": None}
    stored = json.loads(path.read_text())["ops"]
    both = [r for r in rows if r["id"] in stored]
    return {
        "record": str(path.relative_to(ROOT)),
        "compared": len(both),
        "verdict_drift": sum(r["verdict"] != stored[r["id"]][0]
                             for r in both),
        "report_drift": sum(r["sha256"] != stored[r["id"]][1]
                            for r in both),
    }


def record_drift(rows: list[dict], workload: str, seed: int) -> Path:
    DRIFT_DIR.mkdir(exist_ok=True)
    path = DRIFT_DIR / f"{workload}.json"
    ops = sorted((r["id"], [r["verdict"], r["sha256"]]) for r in rows)
    # one operation per line, so that a changed report shows as one line
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ops)
    path.write_text(f'{{"seed": {seed}, "ops": {{\n{lines}\n}}}}\n')
    return path


def tail_percentile(n: int):
    """The highest whole percentile with at least 10 operations beyond it.

    Returns ``(percentile, index)`` into the sorted samples (nearest
    rank), or None when there are 10 operations or fewer.
    """
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, rank - 1
    return None


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def conditions(args, workload, passes_run: int) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "params": workload.params,
        "passes": f"{passes_run} of {workload.passes}",
        "seed_draws": "the order of inputs",
    }


def end_to_end(setups, rows) -> tuple[dict, dict]:
    times = sorted(r["ms"] for r in rows)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (sum(times) / 1e3, "s"),
        "op_p50_ms": (statistics.median(times), "ms"),
    }
    samples = {"setup_s": len(setups), "op_p50_ms": len(times)}
    tail = tail_percentile(len(times))
    if tail is not None:
        p, index = tail
        metrics["op_tail_ms"] = (times[index], "ms")
        samples["op_tail_ms"] = {"percentile": p, "ops": len(times),
                                 "beyond": len(times) - index - 1}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="limit of calibrated operation time; a run "
                        "cut by it is not correct")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few inputs per workload, for the tests")
    parser.add_argument("--record-drift", action="store_true",
                        help="store this run's verdicts and report digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netsynth" / "__init__.py").is_file():
        print(f"error: no src/netsynth under {ROOT}", file=sys.stderr)
        return 2
    if args.record_drift and (args.smoke or args.trace):
        parser.error("--record-drift needs a full untraced run")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    # the first import loads numpy and writes bytecode; it is not timed
    load_netsynth()
    extra = {}
    cond_extra = {}
    if args.trace:
        ns = load_netsynth()
        passes = workload.build(ns, ROOT, args.seed, args.smoke)
        twins = workload.build(ns, ROOT, args.seed, args.smoke)
        tracer = Tracer(ns)
        plain, traced, cut = run_paired(passes, twins, tracer,
                                        args.seconds, SpeedProbe())
        rows = plain + traced
        metrics = tracer.metrics(sum(r["ms"] for r in traced) / 1e3,
                                 sum(r["ms"] for r in plain) / 1e3)
        samples = {"linsys.rows_median": len(tracer.rows)}
        extra["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / (f"{workload.name}-seed{args.seed}"
                                f"{'-smoke' if args.smoke else ''}"
                                "-spans.json")
        spans_path.write_text(json.dumps({"spans": tracer.spans}))
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        probe = SpeedProbe()
        setups, wall_setups, passes = [], [], None
        for _ in range(SETUP_REPEATS):
            passes = None
            gc.collect()
            probe.sample()
            began = time.perf_counter_ns()
            elapsed, _, passes = setup(workload, args.seed, args.smoke)
            probe.sample()
            wall_setups.append(elapsed / 1e9)
            setups.append(elapsed / 1e9 * probe.scale(began, began + elapsed))
        rows, cut = run_loop(passes, args.seconds, probe)
        metrics, samples = end_to_end(setups, rows)
        cond_extra = {"uncalibrated": {
            "setup_s": statistics.median(wall_setups),
            "total_s": sum(r["wall_ms"] for r in rows) / 1e3,
            "probe_median_ms": statistics.median(probe.costs) / 1e6,
            "probes": len(probe.costs)}}

    passes_run = len({r["id"].split("/")[0] for r in rows})
    failed = [r for r in rows if r["error"]]
    # a traced run cuts an untraced operation and its traced twin
    unrun = cut * (2 if args.trace else 1)
    attempted = len(rows) + unrun
    drift_counts = drift(rows, workload.name)
    if args.record_drift:
        extra["recorded"] = str(record_drift(rows, workload.name,
                                             args.seed).relative_to(ROOT))
    cond = conditions(args, workload, passes_run)
    cond["samples"] = samples
    cond["cut_by_limit"] = unrun
    cond.update(cond_extra)
    if args.trace:
        cond["tracing_overhead_s"] = metrics["trace.overhead_s"][0]

    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace} passes={passes_run} ops={len(rows)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if "op_tail_ms" in samples:
        t = samples["op_tail_ms"]
        print(f"  op_tail_ms is p{t['percentile']}: {t['beyond']} of "
              f"{t['ops']} operations beyond it")
    if "uncalibrated" in cond:
        wall = cond["uncalibrated"]
        print(f"  uncalibrated: setup_s {wall['setup_s']:.6g} s, total_s "
              f"{wall['total_s']:.6g} s; probe median "
              f"{wall['probe_median_ms']:.4g} ms over {wall['probes']}")
    print(f"  error_ratio {(len(failed) + unrun) / attempted:.6g} "
          f"({len(failed)} of {len(rows)} operations run failed, "
          f"{unrun} cut by the limit)")
    print(f"  verdict_drift {drift_counts['verdict_drift']}  "
          f"report_drift {drift_counts['report_drift']}  "
          f"(compared {drift_counts['compared']} against "
          f"{drift_counts['record']})")
    for row in failed[:10]:
        print(f"  FAILED {row['id']}: {row['error']}", file=sys.stderr)
    if unrun:
        print(f"  CUT: {unrun} operations not run, the limit of "
              f"{args.seconds:g} s of calibrated time passed",
              file=sys.stderr)
    print("conditions " + json.dumps(cond, sort_keys=True))

    result = {"correct": not failed and not unrun, "attempted": attempted,
              "failed": len(failed) + unrun,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                     f"{'-smoke' if args.smoke else ''}.json")
    out.write_text(json.dumps({"result": result, "conditions": cond,
                               "drift": drift_counts, "extra": extra,
                               "operations": rows}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
