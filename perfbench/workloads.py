"""The benchmark's workloads: their inputs, operations and checks.

Every workload runs a fixed input population, the traffic the project's
roadmap names.  The seed shuffles the order in which the inputs run, so
every seed does the same work and has the same verdicts and reports.
Every operation gets its own copy of its input, so no operation finds
properties cached by an earlier one.  README.md says why the seed does
not draw the population or the order of states, labels and edges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from recheck import class_problem, net_matches_lts

RG_CAP = 2000
ROUNDTRIP_NETS = 100
MIX_LTS = 300
MIX_SHAPE = (24, 6)         # random_lts(seed, max_states, max_labels)
LADDER_SHAPE = (6, 4)       # random_brac_net(seed, max_rings, max_stages)
# (net seed, reachable markings, edges) of each ladder rung
LADDER = ((44, 300, 2710), (17, 600, 6880), (38, 1296, 15984))
# verdicts the acceptance tests pin for the fixtures
KNOWN = {("fig1", "brac"): "success", ("brac7", "brac"): "success",
         ("case6a", "wpi"): "success", ("case6b", "wpi"): "success",
         ("genx", "wpi"): "failure", ("genx", "brac"): "failure"}


@dataclass
class Op:
    """One timed operation and what is checked about its result.

    ``key`` names the underlying input and step, the same on every seed.
    ``check`` returns an error or None and, like ``verdict`` and
    ``report``, runs only after the timed loop.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    verdict: Callable[[object], str]
    report: Callable[[object], bytes]


@dataclass
class Workload:
    name: str
    passes: int
    params: dict
    build: Callable[..., list[list[Op]]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh(obj):
    """A copy of a frozen Lts or PetriNet without its cached properties."""
    return dataclasses.replace(obj)


def synthesis_op(ns, key: str, pipeline: str, lts,
                 known: Optional[str]) -> Op:
    def call():
        return getattr(ns.synthesis, "synthesize_" + pipeline)(lts)

    def check(report) -> Optional[str]:
        if report.outcome == "cap-exceeded":
            return f"hit the {report.cap} cap"
        if known is not None and report.outcome != known:
            return f"expected {known}, got {report.outcome}"
        if report.ok:
            return net_matches_lts(report.net, lts) or \
                class_problem(report.net, pipeline)
        return None

    def verdict(report) -> str:
        kind = (report.witness or {}).get("kind")
        return report.outcome + (f":{kind}" if kind else "")

    def report_bytes(report) -> bytes:
        # the bytes `netsynth synth --report` writes
        return (json.dumps(report.to_json(lts.labels), indent=2,
                           sort_keys=True) + "\n").encode()

    return Op(key, call, check, verdict, report_bytes)


def _passes(name: str, seed: int, count: int, inputs: list, make_ops):
    """Per pass: the operations of every input, in a shuffled order."""
    passes = []
    for index in range(count):
        rng = random.Random(f"{name}/{seed}/{index}")
        order = list(range(len(inputs)))
        rng.shuffle(order)
        ops = []
        for i in order:
            ops += make_ops(inputs[i])
        passes.append(ops)
    return passes


def build_roundtrip(pipeline: str):
    def build(ns, root: Path, seed: int, smoke: bool) -> list[list[Op]]:
        count = 11 if smoke else ROUNDTRIP_NETS
        inputs = [(f"net{i}", ns.petri.reachability_graph(
            ns.oracle.random_brac_net(i), RG_CAP)) for i in range(count)]

        def make_ops(item):
            name, rg = item
            # roundtrip inputs succeed by construction
            return [synthesis_op(ns, f"{name}/{pipeline}", pipeline,
                                 fresh(rg), "success")]
        name = pipeline + "-roundtrip"
        return _passes(name, seed, WORKLOADS[name].passes, inputs, make_ops)
    return build


def build_mix(ns, root: Path, seed: int, smoke: bool) -> list[list[Op]]:
    fixtures = sorted((root / "tests" / "fixtures").glob("*.lts"))
    if not fixtures:
        raise FileNotFoundError("no tests/fixtures/*.lts in the checkout")
    inputs = [(p.stem, ns.lts.parse_lts(p.read_text())) for p in fixtures]
    count = 1 if smoke else MIX_LTS
    inputs += [(f"lts{i}", ns.oracle.random_lts(i, *MIX_SHAPE))
               for i in range(count)]
    for name, lts in inputs:
        if not ns.lts.validate(lts).ok:
            raise ValueError(f"input {name} is not a valid LTS")

    def make_ops(item):
        name, lts = item
        return [synthesis_op(ns, f"{name}/{pipeline}", pipeline, fresh(lts),
                             KNOWN.get((name, pipeline)))
                for pipeline in ("brac", "wpi")]
    return _passes("verdict-mix", seed, WORKLOADS["verdict-mix"].passes,
                   inputs, make_ops)


def _ladder_rung(ns, name: str, net, markings: int,
                 edges: int) -> list[Op]:
    """The seven steps of one rung, each reading its inputs from ``state``.

    Every step has a known answer: the net is BRAC by construction and
    its reachability graph has a pinned size, so the relation stage finds
    no contradiction and verification succeeds.
    """
    state: dict = {}

    def step(key, call, check, verdict, report):
        def run():
            state[key] = result = call()
            return result
        return Op(f"{name}/{key}", run, check, verdict,
                  lambda r: repr(report(r)).encode())

    def rg_check(rg):
        if (len(rg.states), len(rg.edges)) != (markings, edges):
            return (f"{len(rg.states)} markings and {len(rg.edges)} edges, "
                    f"expected {markings} and {edges}")
        return net_matches_lts(net, rg)

    def tree_check(tree):
        rg = state["rg"]
        if len(tree.parent) != len(rg.states) - 1:
            return "spanning tree misses states"
        edges_of = set(rg.edges)
        if any((p, t, s) not in edges_of
               for s, (p, t) in tree.parent.items()):
            return "tree edge not in the graph"
        return None

    def basis_check(basis):
        if len(basis) > len(state["rg"].labels) or \
                any(not v.counts for v in basis):
            return "basis has zero vectors or too many vectors"
        return None

    def relation_stage():
        rel = ns.relations
        graph = rel.build_relation_graph(state["rg"])
        if isinstance(graph, rel.Contradiction):
            return graph
        quotiented = rel.quotient_by_equivalence(graph)
        if isinstance(quotiented, rel.Contradiction):
            return quotiented
        graph = rel.strengthen_wpi(quotiented[0])
        if isinstance(graph, rel.Contradiction):
            return graph
        return rel.strengthen_brac(graph)

    def relation_verdict(graph):
        if isinstance(graph, ns.relations.Contradiction):
            return f"contradiction:{graph.rule}"
        return f"classes={len(graph.classes)}"

    return [
        step("rg", lambda: ns.petri.reachability_graph(net, 100_000),
             rg_check,
             lambda rg: f"markings={len(rg.states)} edges={len(rg.edges)}",
             lambda rg: (rg.states, rg.labels, rg.edges)),
        step("validate", lambda: ns.lts.validate(state["rg"]),
             lambda v: None if v.ok else "graph reported invalid",
             lambda v: f"ok={v.ok}",
             lambda v: (v.ok, sorted(v.self_loop_labels))),
        step("spanning_tree", lambda: ns.lts.spanning_tree(state["rg"]),
             tree_check, lambda tree: "tree",
             lambda tree: sorted(tree.parent.items())),
        step("cycle_basis",
             lambda: ns.lts.cycle_basis(state["rg"], state["spanning_tree"]),
             basis_check, lambda basis: f"rank={len(basis)}",
             lambda basis: [v.counts for v in basis]),
        step("context",
             lambda: ns.separation.SystemContext(state["rg"],
                                                 state["spanning_tree"],
                                                 state["cycle_basis"]),
             lambda ctx: None, lambda ctx: "built",
             lambda ctx: [(r.coeffs, r.rel, r.tag)
                          for r in ctx.base_rows()]),
        step("relations", relation_stage,
             lambda g: "relation contradiction on a BRAC net's graph"
             if isinstance(g, ns.relations.Contradiction) else None,
             relation_verdict, relation_verdict),
        step("verify",
             lambda: ns.synthesis.verify_solution(net, state["rg"],
                                                  "brac"),
             lambda rec: None if rec.ok else "verification rejected",
             lambda rec: f"ok={rec.ok}",
             lambda rec: (rec.isomorphic, rec.mismatch, sorted(rec.classes),
                          rec.target_ok)),
    ]


def build_ladder(ns, root: Path, seed: int, smoke: bool) -> list[list[Op]]:
    rungs = LADDER[:1] if smoke else LADDER
    inputs = [(f"rung{markings}", ns.oracle.random_brac_net(s, *LADDER_SHAPE),
               markings, edges) for s, markings, edges in rungs]

    def make_ops(item):
        name, net, markings, edges = item
        return _ladder_rung(ns, name, fresh(net), markings, edges)
    return _passes("scale-ladder", seed, WORKLOADS["scale-ladder"].passes,
                   inputs, make_ops)


WORKLOADS = {w.name: w for w in (
    Workload("brac-roundtrip", 1,
             {"nets": f"random_brac_net(0..{ROUNDTRIP_NETS - 1})",
              "rg_cap": RG_CAP, "pipeline": "synthesize_brac"},
             build_roundtrip("brac")),
    Workload("wpi-roundtrip", 1,
             {"nets": f"random_brac_net(0..{ROUNDTRIP_NETS - 1})",
              "rg_cap": RG_CAP, "pipeline": "synthesize_wpi"},
             build_roundtrip("wpi")),
    Workload("verdict-mix", 2,
             {"inputs": "tests/fixtures/*.lts + random_lts(0..%d, %d, %d)"
              % (MIX_LTS - 1, *MIX_SHAPE),
              "pipelines": ["synthesize_brac", "synthesize_wpi"]},
             build_mix),
    Workload("scale-ladder", 3,
             {"nets": [f"random_brac_net({s}, max_rings={LADDER_SHAPE[0]}, "
                       f"max_stages={LADDER_SHAPE[1]})" for s, _, _ in LADDER],
              "markings": [m for _, m, _ in LADDER],
              "steps": ["reachability_graph", "validate", "spanning_tree",
                        "cycle_basis", "SystemContext", "relation stage",
                        "verify_solution"]},
             build_ladder),
)}
