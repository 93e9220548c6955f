"""Every small net round-trips, or fails on a documented limit.

The sweep takes every plain net with 2 places and 3 transitions and 0 to
2 initial tokens on each place in which every transition fires within 40
markings: 6,349 nets with 1,276 distinct reachability graphs, 952 of them
from BRAC nets.  Each graph of a BRAC net goes through `synthesize_brac`,
each graph of a WPI net through `synthesize_wpi` (`small_nets.round_trip`).
Every success must verify, and every failure must be one of `LIMITS`.
The last test keeps `small_nets.py`'s own run of the sampled families
working, on 300 draws a family.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from netsynth.lts import parse_lts

from small_nets import PIPELINES, SAMPLED_FAMILIES, distinct_graphs, \
    exhaustive_nets, graph_key, round_trip, witness_kind

# The relation stage merges t0, t1 and t2 into one class, since all three
# are enabled exactly at m0 to m3 (case 3), and BRAC then gives the class
# one preset.  In each graph below a word of one label twice and the word
# of the other two labels reach the same state, so every 0/1 place has
# 2·F_x = F_y + F_z, hence F_t0 = F_t1 = F_t2, and marks m1 (after t0)
# and m2 (after t1) alike.  The generating BRAC net instead gives one
# member a private place that stays marked while the shared place is, a
# choice block no event separation asks for.  README's "Known limits"
# names this limit of the case-3 class merge.
_PREFIX = "initial m0\nm0 t0 m1\nm0 t1 m2\nm0 t2 m3\n"
LIMITS = {
    # t0·t0 and t1·t2 reach m4
    "merge-t0t0-t1t2": _PREFIX + "m1 t0 m4\nm1 t1 m5\nm1 t2 m6\n"
    "m2 t0 m5\nm2 t1 m7\nm2 t2 m4\nm3 t0 m6\nm3 t1 m4\nm3 t2 m8\n",
    # t1·t1 and t0·t2 reach m6
    "merge-t1t1-t0t2": _PREFIX + "m1 t0 m4\nm1 t1 m5\nm1 t2 m6\n"
    "m2 t0 m5\nm2 t1 m6\nm2 t2 m7\nm3 t0 m6\nm3 t1 m7\nm3 t2 m8\n",
    # t2·t2 and t0·t1 reach m5
    "merge-t2t2-t0t1": _PREFIX + "m1 t0 m4\nm1 t1 m5\nm1 t2 m6\n"
    "m2 t0 m5\nm2 t1 m7\nm2 t2 m8\nm3 t0 m6\nm3 t1 m8\nm3 t2 m5\n",
}


@pytest.fixture(scope="module")
def sweep():
    kept, graphs = distinct_graphs(exhaustive_nets(2, 3, 2))
    return kept, graphs, round_trip(graphs)


def test_sweep_size(sweep):
    kept, graphs, _ = sweep
    assert kept == 6349
    assert len(graphs) == 1276
    assert sum("brac" in classes for _, classes in graphs.values()) == 952


def test_wpi_fails_on_no_graph(sweep):
    assert sweep[2]["wpi"] == []


def test_brac_fails_only_on_the_documented_limits(sweep):
    _, graphs, failures = sweep
    limits = {graph_key(parse_lts(text)): name
              for name, text in LIMITS.items()}
    assert limits.keys() <= graphs.keys()
    failed = {}
    for lts, report in failures["brac"]:
        failed[limits.get(graph_key(lts), lts.edges)] = report
    assert sorted(failed, key=str) == sorted(LIMITS)
    for report in failed.values():
        assert witness_kind(report) == "ssp"
        assert report.witness["states"] == ["m1", "m2"]


def test_sampled_families_script_runs():
    # tier-1 runs the sampled families only this far; a full run takes
    # about 45 s
    tests = pathlib.Path(__file__).parent
    proc = subprocess.run(
        [sys.executable, str(tests / "small_nets.py"), "--draws", "300"],
        env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()
            if " nets " in line]
    assert rows == [[family, name] for family in SAMPLED_FAMILIES
                    for name in PIPELINES]
