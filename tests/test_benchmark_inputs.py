"""Benchmark-input regression guard.

perfbench builds every workload from the generators of the checkout it
measures (``netsynth.oracle``), so a change to a generator changes the
benchmark's own inputs.  This pins a SHA-256 of each workload's inputs,
serialized as ``.lts`` or ``.pn`` text and joined in order:

- ``verdict-mix``: ``random_lts(0..299, 24, 6)``;
- ``roundtrip``: the graphs ``reachability_graph(random_brac_net(i),
  2000)`` for ``i`` in 0..99, which brac-roundtrip and wpi-roundtrip share;
- ``scale-ladder``: ``random_brac_net(44|17|38, 6, 4)``.

``PYTHONPATH=src python tests/test_benchmark_inputs.py`` rewrites
``fixtures/benchmark_input_digests.json`` and prints the keys it changed.
"""

import hashlib
import json
import pathlib

from netsynth.lts import serialize_lts
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph, serialize_net

from conftest import rewrite_record

RECORD = pathlib.Path(__file__).parent / "fixtures" / \
    "benchmark_input_digests.json"


def inputs() -> dict[str, list[str]]:
    """Workload -> the serialized texts of its generated inputs, in order."""
    return {
        "verdict-mix": [serialize_lts(random_lts(i, 24, 6))
                        for i in range(300)],
        "roundtrip": [serialize_lts(reachability_graph(random_brac_net(i),
                                                       2000))
                      for i in range(100)],
        "scale-ladder": [serialize_net(random_brac_net(seed, 6, 4))
                         for seed in (44, 17, 38)],
    }


def digests() -> dict[str, str]:
    return {name: hashlib.sha256("".join(texts).encode()).hexdigest()
            for name, texts in inputs().items()}


def test_benchmark_inputs_unchanged():
    assert digests() == json.loads(RECORD.read_text())


if __name__ == "__main__":
    rewrite_record(RECORD, digests())
