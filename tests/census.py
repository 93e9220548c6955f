"""A census of every tiny LTS through both pipelines.

`census` enumerates every deterministic LTS of a shape (states, labels)
that is reachable from ``s0`` and uses every label.  States are numbered
in the order a breadth-first walk from ``s0`` meets them, taking each
state's labels in index order, so no two LTSs differ only in their
state names.  Labels keep their index: two LTSs that differ only in
their label names both count.  The states are ``s0, s1, ...``, the
labels ``a, b, c``, and the edges are in (state, label) order.

`SHAPES` (1 to 4 states with 1 or 2 labels, 1 or 2 states with 3)
gives 21,464 LTSs, which `test_census.py` runs; `FULL_SHAPES` adds the
3-state, 3-label shape, 100,884 LTSs in all, which take about 45 s.
This file runs the full census and prints, per shape and pipeline, the
successes and the failures by witness kind, then the totals, and how many
solved regions have least count 0, how many have a tight edge R(s) = B_t,
and how many have neither (which must be none):

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import time
from typing import Iterator

import netsynth.synthesis
from netsynth.lts import Lts

from small_nets import PIPELINES, witness_kind

SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2),
          (1, 3), (2, 3))
FULL_SHAPES = SHAPES + ((3, 3),)


def _numbered_in_bfs_order(targets: tuple, states: int, labels: int) -> bool:
    """Whether the transition table ``targets`` (one entry per (state,
    label), ``None`` for no edge) reaches every state from state 0 and
    numbers them as a breadth-first walk meets them."""
    met = 1
    for s in range(states):
        if s >= met:
            return False
        for t in targets[s * labels:(s + 1) * labels]:
            if t == met:
                met += 1
            elif t is not None and t > met:
                return False
    return True


def census(states: int, labels: int) -> Iterator[Lts]:
    """Every LTS of the shape, as the module docstring gives them, in the
    lexicographic order of their transition tables."""
    names = tuple(f"s{s}" for s in range(states))
    label_names = "abc"[:labels]
    for targets in itertools.product((None, *range(states)),
                                     repeat=states * labels):
        if not _numbered_in_bfs_order(targets, states, labels):
            continue
        if any(all(targets[s * labels + a] is None for s in range(states))
               for a in range(labels)):
            continue
        yield Lts(names, tuple(label_names),
                  tuple((i // labels, i % labels, t)
                        for i, t in enumerate(targets) if t is not None), 0)


def run_shape(states: int, labels: int) \
        -> dict[str, tuple[str, collections.Counter]]:
    """Per pipeline, the SHA-256 over the sorted-key JSON reports of the
    shape's LTSs, one line each, and the count of each verdict: a success
    or a failure's witness kind.  Raises if a success does not verify."""
    hashes = {name: hashlib.sha256() for name in PIPELINES}
    verdicts = {name: collections.Counter() for name in PIPELINES}
    for lts in census(states, labels):
        for name, pipeline in PIPELINES.items():
            report = pipeline(lts)
            if report.ok and not report.verification.ok:
                raise RuntimeError(f"{name} net does not verify on\n"
                                   f"{lts.edges}")
            hashes[name].update(json.dumps(report.to_json(lts.labels),
                                           sort_keys=True).encode() + b"\n")
            verdicts[name][witness_kind(report)] += 1
    return {name: (hashes[name].hexdigest(), verdicts[name])
            for name in PIPELINES}


def count_regions() -> collections.Counter:
    """Wrap `netsynth.synthesis.solution_to_region` to count, from then
    on, the solved regions with least count 0, those with a tight edge and
    those with neither."""
    real = netsynth.synthesis.solution_to_region
    counts = collections.Counter()

    def counted(solution, tree):
        region = real(solution, tree)
        zero = min(region.marks) == 0
        tight = any(region.marks[s] == region.b[t]
                    for s, t, _ in tree.lts.edges)
        counts.update(zero=zero, tight=tight, neither=not (zero or tight),
                      regions=1)
        return region
    netsynth.synthesis.solution_to_region = counted
    return counts


def main() -> None:
    regions = count_regions()
    totals = {name: collections.Counter() for name in PIPELINES}
    for shape in FULL_SHAPES:
        start = time.perf_counter()
        for name, (_, verdicts) in run_shape(*shape).items():
            totals[name] += verdicts
            print(f"{shape[0]}x{shape[1]}  {name:4}  "
                  f"{sum(verdicts.values()):6}  "
                  f"{dict(sorted(verdicts.items()))}")
        print(f"{shape[0]}x{shape[1]}  {time.perf_counter() - start:.1f} s")
    for name, verdicts in totals.items():
        print(f"all  {name:4}  {sum(verdicts.values()):6}  "
              f"{dict(sorted(verdicts.items()))}")
    print(f"regions {regions['regions']}: least count 0 {regions['zero']}, "
          f"a tight edge {regions['tight']}, neither {regions['neither']}")


if __name__ == "__main__":
    main()
