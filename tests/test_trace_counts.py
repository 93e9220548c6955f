"""The benchmark tracer's counters on both pipelines, pinned.

Loads ``perfbench/tracer.py`` as it is and runs ``synthesize_wpi`` and
``synthesize_brac`` under its ``Tracer`` on every fixture and on the
reachability graphs of ``random_brac_net(0..9)``, and on
``random_lts(2655, 16, 4)``, where BRAC has no choice block and stops
at its first free-choice leftover, and on
``random_lts(331, 8, 4)``, where BRAC assigns its leftover state
separations to choice blocks.  Every nonzero counter
of every run is compared with ``fixtures/trace_counts.json``: systems
built by kind, solves, pivots, branch-and-bound nodes, region checks and
hits, base rows, chords and markings.  A refactor that must not change
what the pipelines compute keeps every count.

``PYTHONPATH=src python tests/test_trace_counts.py`` rewrites the record
and prints the keys whose counts it changed.
"""

import importlib
import json
import pathlib
from types import SimpleNamespace

from netsynth.lts import parse_lts
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph

from conftest import load_tracer, rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "trace_counts.json"
MODULES = ("lts", "linsys", "relations", "separation", "petri", "synthesis",
           "oracle")


def inputs() -> dict:
    """Case name -> Lts, fixtures first."""
    cases = {f"fixture/{p.stem}": parse_lts(p.read_text())
             for p in sorted(FIXTURES.glob("*.lts"))}
    cases.update({f"random_brac_net/{i}":
                  reachability_graph(random_brac_net(i), 100_000)
                  for i in range(10)})
    cases["random_lts/2655"] = random_lts(2655, 16, 4)
    cases["random_lts/331"] = random_lts(331, 8, 4)
    return cases


def traced_counts() -> dict[str, dict[str, int]]:
    tracer_module = load_tracer()
    ns = SimpleNamespace(**{m: importlib.import_module(f"netsynth.{m}")
                            for m in MODULES})
    out = {}
    for pipeline in ("wpi", "brac"):
        synthesize = getattr(ns.synthesis, "synthesize_" + pipeline)
        for name, lts in inputs().items():
            tracer = tracer_module.Tracer(ns)
            with tracer:
                synthesize(lts)
            out[f"{pipeline}/{name}"] = {k: v for k, v
                                         in tracer.counts.items() if v}
    return out


def test_counts_unchanged():
    counts = traced_counts()
    expected = json.loads(RECORD.read_text())
    assert sorted(counts) == sorted(expected)
    changed = {k: (expected[k], counts[k]) for k in counts
               if counts[k] != expected[k]}
    assert not changed, f"traced counts changed: {changed}"


if __name__ == "__main__":
    rewrite_record(RECORD, traced_counts())
