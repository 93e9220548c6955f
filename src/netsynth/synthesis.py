"""End-to-end synthesis pipelines and result verification.

Both pipelines run: validation, the relation stage (relation graph,
equivalence quotient, strengthening), then the spanning tree, cycle basis
and system context, then separation solving.  The context is built only
once the relation stage has returned a graph, so a contradiction (or, in
WPI, the self-loop cap) costs no tree, basis or context.  State
separation checks only the pairs that no pooled region separates yet,
and a pair whose Parikh difference lies in the cycle span, which no
region separates, gets no system at all.

The comparable-preset target enumerates the residual doi interpretations
(all-disjoint first) and solves one rational system per separation
problem.  The block-reduced target solves 0/1 integer systems: one
shared and one private system per asymmetric choice block, per-problem
systems for free labels, a feasibility probe plus maximum matching for
self-loop inclusion edges, and a bounded assignment search for state
separations that no free-choice place can solve.  Without a choice
block, the first state pair that no free-choice place separates is the
failure, and no later pair is tried.

One frame, `_synthesize`, validates, runs the relation stage, reports
and prunes for both pipelines.  It reports a relation contradiction
itself; a later stage that proves no net exists, or hits a cap, raises
``_Unsolvable``, which only the frame catches.  Without a config the
pipelines share one frozen default.
Every reported success has been re-verified: the reachability graph of the
output is isomorphic to the input, which firing the net along the input
shows without building the graph, and the net lies in the target class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from netsynth.linsys import (LinearSystem, lift_homogeneous_to_integer,
                             solve_integer, solve_rational)
from netsynth.lts import Lts, spanning_tree, cycle_basis, validate
from netsynth.petri import (CapExceeded, Mismatch, PetriNet, classify_net,
                            isomorphic, net_from_regions, reachability_graph,
                            realises)
from netsynth.relations import (Contradiction, MatchingFailure,
                                RelationGraph, build_relation_graph,
                                quotient_by_equivalence,
                                resolve_inclusion_matching, strengthen_brac,
                                strengthen_wpi)
from netsynth.separation import (ESSP, Region, SSP, SeparationProblem,
                                 StatePartition, SystemContext,
                                 brac_block_systems,
                                 brac_ssp_system_freechoice, essp_system_wpi,
                                 # the tracer looks normalize_region up here
                                 normalize_region, region_to_place,
                                 solution_to_region, ssp_system_wpi)

WPI = "wpi"
BRAC = "brac"

SUCCESS = "success"
FAILURE = "failure"
CAP_EXCEEDED = "cap-exceeded"


@dataclass(frozen=True)
class SynthesisConfig:
    selfloop_cap: int = 12
    ssp_combo_cap: int = 4096
    prune: bool = False

    def __post_init__(self):
        for name in ("selfloop_cap", "ssp_combo_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


class VerificationRecord(NamedTuple):
    isomorphic: bool
    mismatch: Optional[str]
    classes: frozenset[str]
    target_ok: bool

    @property
    def ok(self) -> bool:
        return self.isomorphic and self.target_ok

    def to_json(self) -> dict:
        return {"isomorphic": self.isomorphic, "mismatch": self.mismatch,
                "classes": sorted(self.classes), "target_ok": self.target_ok}


@dataclass
class SynthesisReport:
    outcome: str
    target_class: str
    net: Optional[PetriNet] = None
    regions: list[Region] = field(default_factory=list)
    witness: Optional[dict] = None
    interpretation: list[tuple[str, str, str]] = field(default_factory=list)
    inclusion_candidates: list[tuple[str, str]] = field(default_factory=list)
    matching: dict[str, str] = field(default_factory=dict)
    verification: Optional[VerificationRecord] = None
    cap: Optional[str] = None
    interpretations_tried: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == SUCCESS

    def to_json(self, labels: tuple[str, ...]) -> dict:
        regions = [{"r0": r.r0,
                    "b": {labels[t]: w for t, w in enumerate(r.b) if w},
                    "f": {labels[t]: w for t, w in enumerate(r.f) if w}}
                   for r in self.regions]
        ver = None if self.verification is None \
            else self.verification.to_json()
        return {
            "schema": 1,
            "outcome": self.outcome,
            "target_class": self.target_class,
            "witness": self.witness,
            "interpretation": [list(x) for x in self.interpretation],
            "inclusion_candidates": [list(x)
                                     for x in self.inclusion_candidates],
            "matching": dict(sorted(self.matching.items())),
            "regions": regions,
            "places": len(self.regions),
            "verification": ver,
            "cap": self.cap,
            "interpretations_tried": self.interpretations_tried,
        }


_DEFAULT_CONFIG = SynthesisConfig()


class _Unsolvable(Exception):
    """A synthesis stage proved that no net exists, or a cap was hit."""

    def __init__(self, witness: Optional[dict] = None,
                 cap: Optional[str] = None):
        super().__init__(witness or cap)
        self.witness = witness
        self.cap = cap


def _contradiction_witness(c: Contradiction, names) -> dict:
    return {"kind": "contradiction",
            "rule": c.rule,
            "labels": [names[i] for i in c.labels],
            "detail": c.detail}


def _problem_witness(problem, lts: Lts, tried: list[str]) -> dict:
    if isinstance(problem, SSP):
        return {"kind": "ssp",
                "states": [lts.states[problem.s1], lts.states[problem.s2]],
                "systems_tried": tried}
    return {"kind": "essp",
            "state": lts.states[problem.state],
            "label": lts.labels[problem.label],
            "systems_tried": tried}


def _verification_witness(record: VerificationRecord) -> dict:
    return {"kind": "verification",
            "detail": record.mismatch or "class check failed"}


def verify_solution(net: PetriNet, lts: Lts,
                    target_class: str) -> VerificationRecord:
    """Check that the net's reachability graph is isomorphic to ``lts``,
    and re-check class membership.

    The net is first fired along ``lts`` (`realises`); a walk that passes
    is the isomorphism, and no reachability graph is built.  Only a net
    the walk rejects gets its graph, to name the mismatch: a net
    isomorphic to ``lts`` reaches exactly its |S| markings, so the graph
    is explored up to |S| + 1 markings only, and a net that reaches more
    is not isomorphic ("state counts differ"), bounded or not.  The
    classes are checked either way.
    """
    mismatch = None
    if not realises(net, lts):
        try:
            found = isomorphic(lts,
                               reachability_graph(net, len(lts.states) + 1))
        except CapExceeded:
            found = Mismatch("state counts differ")
        if isinstance(found, Mismatch):
            mismatch = found.reason
    classes = classify_net(net)
    return VerificationRecord(isomorphic=mismatch is None, mismatch=mismatch,
                              classes=classes,
                              target_ok=target_class.upper() in classes)


def _verified_net(lts: Lts, regions: list[Region],
                  target_class: str) -> tuple[PetriNet, VerificationRecord]:
    net = net_from_regions(lts.labels, [region_to_place(r) for r in regions])
    return net, verify_solution(net, lts, target_class)


def _prepare(lts: Lts) -> SystemContext:
    """The system context of a valid ``lts``."""
    tree = spanning_tree(lts)
    return SystemContext(lts, tree, cycle_basis(lts, tree))


def relation_stage(graph: RelationGraph | Contradiction, brac: bool) \
        -> RelationGraph | Contradiction:
    """Quotient a raw relation graph by equivalence and strengthen it, by
    the BRAC rules too when ``brac``.  The first contradiction, a given one
    included, is returned as it is."""
    if isinstance(graph, Contradiction):
        return graph
    quotiented = quotient_by_equivalence(graph)
    if isinstance(quotiented, Contradiction):
        return quotiented
    graph = strengthen_wpi(quotiented[0])
    if brac and not isinstance(graph, Contradiction):
        graph = strengthen_brac(graph)
    return graph


def _region(ctx: SystemContext, system: LinearSystem) -> Optional[Region]:
    """The region of a solution of ``system``, or None if it has none;
    the pivot limit raises ``RuntimeError``, not None.

    A system with 0/1 columns is solved in integers.  R0 is its one column
    outside the 0/1 set, with coefficient 0 or 1 in every BRAC row, and
    every entry is an integer, so at a basic solution whose 0/1 columns
    are integral R0 is integral too: the search never branches on R0 and
    needs no bound row on it.  Any other system is solved over the
    rationals and lifted to integers.  No region is shifted: unless R0 =
    0, a tight row of the basic witness holds R0, an edge row R(s) = B_t
    that a shift breaks or a margin R(s) - B_a = -1.  That is R(s) = 0 in
    BRAC (B_a <= 1); in WPI a tight edge row holds R0 too, else x would
    be a multiple of e_R0, whose B = 0 breaks the margin.
    """
    if system.zero_one:
        solution = solve_integer(system)
    else:
        solution = solve_rational(system)
        if solution.feasible:
            solution = lift_homogeneous_to_integer(solution, system)
    if not solution.feasible:
        return None
    region = solution_to_region(solution, ctx.tree)
    if not region.is_valid(ctx.lts):
        raise AssertionError("a solved system gave an invalid region")
    return region


def _separate(ctx: SystemContext, pool: list[Region],
              problems: Iterable[SeparationProblem],
              systems: Callable[[SeparationProblem], Iterator[
                  tuple[str, Optional[LinearSystem]]]]) \
        -> Iterator[tuple[SeparationProblem, list[str]]]:
    """Pool a region for every problem that no pooled region solves yet.

    ``systems(problem)`` builds the tagged candidate systems of a problem
    one at a time; the region of the first feasible one is pooled.  Yields
    every problem no candidate solves, with the tags of those tried.  A
    candidate without a system is one of a state pair in the cycle span
    (`SystemContext.separable`), which no region separates: it is tried
    without a solve.

    A region is pooled only for a problem that no pooled region solves,
    and it solves that problem, so it differs from every pooled region:
    the pool never holds a region twice.
    """
    for problem in problems:
        if any(r.solves(problem) for r in pool):
            continue
        tags = []
        for tag, system in systems(problem):
            tags.append(tag)
            region = None if system is None else _region(ctx, system)
            if region is not None:
                pool.append(region)
                break
        else:
            yield problem, tags


def _candidates(ctx: SystemContext, graph: RelationGraph, reps: list[int],
                brac: bool) \
        -> Callable[[SeparationProblem],
                    Iterator[tuple[str, Optional[LinearSystem]]]]:
    """One `essp_system_wpi` per event separation, 0/1 under ``brac``; per
    state separation, `ssp_system_wpi`, or `brac_ssp_system_freechoice`
    under ``brac``, for every label of ``reps`` and both signs.  A state
    pair that is not `SystemContext.separable` gets the same tags with no
    system: every system of it would be infeasible."""
    def systems(problem):
        if isinstance(problem, ESSP):
            system = essp_system_wpi(ctx, graph, problem, zero_one=brac)
            yield system.rows.parts[0].tag, system
            return
        settled = not ctx.separable(problem)
        build = brac_ssp_system_freechoice if brac else ssp_system_wpi
        tag = ctx.ssp_tag(problem)
        for a in reps:
            for sign in ("<", ">"):
                yield (f"{tag}:{ctx.lts.labels[a]}:{sign}", None if settled
                       else build(ctx, graph, problem, a, sign))
    return systems


def _interpret(lts: Lts, graph: RelationGraph,
               pairs: list[tuple[int, int]]) -> list[tuple[str, str, str]]:
    """Each doi pair's label names and its edge kind in ``graph``."""
    return [(lts.labels[lo], lts.labels[hi], graph.edge(lo, hi).kind)
            for lo, hi in pairs]


def _synthesize(lts: Lts, cfg: Optional[SynthesisConfig], target: str,
                solve: Callable[[Lts, SynthesisConfig, RelationGraph,
                                 SynthesisReport], None]) -> SynthesisReport:
    """Validate ``lts``, relate its labels and let ``solve`` fill in the
    report, raising ``_Unsolvable`` if it fails; prune a success.  A
    relation contradiction is reported as it is, without ``solve``."""
    cfg = cfg or _DEFAULT_CONFIG
    validate(lts).raise_if_invalid()
    report = SynthesisReport(FAILURE, target)
    graph = relation_stage(build_relation_graph(lts), brac=target == BRAC)
    if isinstance(graph, Contradiction):
        report.witness = _contradiction_witness(graph, lts.labels)
        return report
    try:
        solve(lts, cfg, graph, report)
    except _Unsolvable as exc:
        report.outcome = CAP_EXCEEDED if exc.cap else FAILURE
        report.witness, report.cap = exc.witness, exc.cap
        return report
    report.outcome = SUCCESS
    return _maybe_prune(report, lts, cfg)


def synthesize_wpi(lts: Lts, cfg: Optional[SynthesisConfig] = None) \
        -> SynthesisReport:
    """Synthesis towards weighted comparable presets.

    Residual doi edges are enumerated over all disjoint/included
    interpretations, cheapest (all-disjoint) first; within one
    interpretation every separation problem gets a rational system whose
    solution lifts to an integer region.  The first interpretation whose
    regions verify wins.
    """
    return _synthesize(lts, cfg, WPI, _solve_wpi)


def _solve_wpi(lts: Lts, cfg: SynthesisConfig, graph: RelationGraph,
               report: SynthesisReport) -> None:
    """The WPI stages; a failure reports the first interpretation's witness."""
    doi_pairs = graph.doi_edges()
    if len(doi_pairs) > cfg.selfloop_cap:
        raise _Unsolvable(cap="selfloop-cap")
    ctx = _prepare(lts)

    reps = sorted(graph.classes)
    # event separations first, each at its class representative only
    essps = [ESSP(s, a) for s, en in enumerate(lts.label_masks)
             for a in reps if not en >> a & 1]

    first_witness: Optional[dict] = None
    for mask in sorted(range(1 << len(doi_pairs)),
                       key=lambda v: (bin(v).count("1"), v)):
        report.interpretations_tried += 1
        resolved = graph.resolved(doi_pairs, [
            pair for i, pair in enumerate(doi_pairs) if mask >> i & 1])
        systems = _candidates(ctx, resolved, reps, brac=False)
        pool: list[Region] = []
        problems = itertools.chain(
            essps, StatePartition(len(lts.states)).pairs(pool))
        unsolved = next(_separate(ctx, pool, problems, systems), None)
        if unsolved is not None:
            witness = _problem_witness(unsolved[0], lts, unsolved[1])
        else:
            net, record = _verified_net(lts, pool, WPI)
            if record.ok:
                report.net, report.regions = net, pool
                report.verification = record
                report.interpretation = _interpret(lts, resolved, doi_pairs)
                return
            witness = _verification_witness(record)
        first_witness = first_witness or witness
    raise _Unsolvable(first_witness)


def _maybe_prune(report: SynthesisReport, lts: Lts,
                 cfg: SynthesisConfig) -> SynthesisReport:
    """With ``cfg.prune``, drop in pool order each place whose net without
    it and the places dropped before still `realises` ``lts``, keeping at
    least one; only the kept net is verified.  `realises` agrees with
    `isomorphic`, and deleting a place keeps the target class: WPI columns
    stay comparable on fewer places, and every other BRAC pair keeps its
    postsets and its block presets ``{p, q}`` or ``{q}``, which lack it."""
    if not cfg.prune:
        return report
    regions, report.regions = report.regions, []
    for i, region in enumerate(regions):
        candidate = report.regions + regions[i + 1:]
        if not candidate or not realises(net_from_regions(
                lts.labels, [region_to_place(r) for r in candidate]), lts):
            report.regions.append(region)
    report.net, report.verification = _verified_net(
        lts, report.regions, report.target_class)
    if not report.verification.ok:
        raise AssertionError("the pruned net failed verification")
    return report


class _Block(NamedTuple):
    """A choice block: label pair, shared and private system, place indices."""

    pair: tuple[int, int]
    systems: tuple[LinearSystem, LinearSystem]
    indices: list[int]


def _brac_block(ctx: SystemContext, graph: RelationGraph,
                pair: tuple[int, int], pool: list[Region], detail: str,
                shared: Optional[Region] = None) -> _Block:
    """Pool the shared and the private place of the choice block ``pair``.

    A ``shared`` region that is already solved is pooled as it is, and
    only the private system is solved.  An infeasible block system raises
    an ``essp-block`` witness naming its label and ``detail``.
    """
    systems = brac_block_systems(ctx, graph, pair)
    regions = [] if shared is None else [shared]
    for label, system in list(zip(pair, systems))[len(regions):]:
        region = _region(ctx, system)
        if region is None:
            raise _Unsolvable({"kind": "essp-block",
                               "pair": [ctx.lts.labels[x] for x in pair],
                               "label": ctx.lts.labels[label],
                               "detail": detail})
        regions.append(region)
    pool += regions
    return _Block(pair, systems, [len(pool) - 2, len(pool) - 1])


def synthesize_brac(lts: Lts, cfg: Optional[SynthesisConfig] = None) \
        -> SynthesisReport:
    """Synthesis towards block-reduced asymmetric choice.

    Labels on an inclusion edge share an asymmetric choice block solved by
    exactly two 0/1 systems.  A self-loop label keeps all its doi edges
    disjoint when its problems stay solvable that way; otherwise one
    combined system per candidate target collects the feasible inclusion
    pairs and a maximum matching picks the interpretation.  Unsolved state
    separations are assigned to choice blocks by bounded enumeration.
    Without a block, the first state pair that no free-choice place
    separates is the failure, and no later pair is tried.
    """
    return _synthesize(lts, cfg, BRAC, _solve_brac)


def _solve_brac(lts: Lts, cfg: SynthesisConfig, graph: RelationGraph,
                report: SynthesisReport) -> None:
    """The BRAC stages; the matching stage and the net fill in the report."""
    ctx = _prepare(lts)
    reps = sorted(graph.classes)
    doi_pairs = graph.doi_edges()
    solid_pairs = graph.included_edges()
    solid_labels = {x for pair in solid_pairs for x in pair}
    out_doi = {lo for lo, _ in doi_pairs}
    in_doi = {hi for _, hi in doi_pairs}
    if out_doi & in_doi:
        raise AssertionError("doi chains must be resolved")

    pool: list[Region] = []
    # event separation reads every doi edge as disjoint
    systems = _candidates(ctx, graph.resolved(doi_pairs), reps, brac=True)

    # feasible inclusion candidates and the shared region of each
    lam: dict[tuple[int, int], Region] = {}
    gate_regions: dict[int, list[Region]] = {}

    # event separation, representative label by label
    for a in reps:
        if a in solid_labels:
            continue
        own: list[Region] = []
        essps = [ESSP(s, a) for s, en in enumerate(lts.label_masks)
                 if not en >> a & 1]
        unsolved = next(_separate(ctx, own, essps, systems), None)
        if unsolved is None:
            if a in in_doi:
                # a doi target may end up matched, in which case the
                # block places replace these; pooled after the matching
                gate_regions[a] = own
            else:
                pool += own
            continue
        essp, tags = unsolved
        if a not in out_doi:
            raise _Unsolvable(_problem_witness(essp, lts, tags))
        # some outgoing doi edge must be a proper inclusion
        targets = [hi for lo, hi in doi_pairs if lo == a]
        for hi in targets:
            shared, _ = brac_block_systems(ctx, graph, (a, hi))
            region = _region(ctx, shared)
            if region is not None:
                lam[(a, hi)] = region
        if not any((a, hi) in lam for hi in targets):
            tags = ["all-disjoint"] + [f"inclusion:{lts.labels[hi]}"
                                       for hi in targets]
            raise _Unsolvable(_problem_witness(essp, lts, tags))

    # asymmetric choice blocks from strengthened inclusions
    blocks = [_brac_block(ctx, graph, pair, pool, "no single region covers "
                          "the block's event separations")
              for pair in solid_pairs]

    # inclusion matching for self-loop labels
    report.inclusion_candidates = [(lts.labels[x], lts.labels[y])
                                   for x, y in lam]
    matching: dict[int, int] = {}
    if lam:
        result = resolve_inclusion_matching(lam)
        if isinstance(result, MatchingFailure):
            raise _Unsolvable({
                "kind": "matching",
                "unmatched": [lts.labels[u] for u in result.unmatched],
                "detail": "no inclusion target assignment covers "
                          "every self-loop needing one"})
        matching = result
    report.matching = {lts.labels[k]: lts.labels[v]
                       for k, v in matching.items()}
    graph = graph.resolved(doi_pairs, matching.items())
    for pair in sorted(matching.items()):
        blocks.append(_brac_block(ctx, graph, pair, pool,
                                  "no single private region covers "
                                  "the matched block", shared=lam[pair]))
        # the block places replace the target's provisional
        # per-problem regions: its preset may hold at most two places
        gate_regions.pop(pair[1], None)
    # no region repeats across stages: a free label's regions consume
    # its own class only, a block's places lo and hi or hi only, and a
    # matched target's gate regions are dropped
    for label in sorted(gate_regions):
        pool += gate_regions[label]

    # state separation: free-choice first, then block assignment;
    # only a block could take a leftover, so without one the first
    # leftover is the failure
    leftovers = []
    for ssp, _ in _separate(ctx, pool,
                            StatePartition(len(lts.states)).pairs(pool),
                            _candidates(ctx, graph, reps, brac=True)):
        if not blocks:
            raise _Unsolvable(_problem_witness(
                ssp, lts, ["freechoice:all-labels"]))
        leftovers.append(ssp)
    if leftovers:
        _assign_ssps_to_blocks(ctx, pool, blocks, leftovers, cfg)

    net, record = _verified_net(lts, pool, BRAC)
    report.regions, report.verification = pool, record
    report.interpretation = _interpret(lts, graph, doi_pairs)
    if not record.ok:
        raise _Unsolvable(_verification_witness(record))
    report.net = net


def _assign_ssps_to_blocks(ctx: SystemContext, pool: list[Region],
                           blocks: list[_Block], leftovers: list[SSP],
                           cfg: SynthesisConfig) -> None:
    """Re-solve block systems with disequality rows, in all combinations.

    Each unsolved state separation is assigned to one block system with one
    sign branch; combinations come in index order and count against the
    combination cap.  Replaces the pooled block places once an assignment
    works; otherwise raises the failure or the cap.
    """
    lts = ctx.lts
    # (system, pool index) of every block place, block by block
    targets = [(system, index) for block in blocks
               for system, index in zip(block.systems, block.indices)]
    choices = [(si, sign) for si in range(len(targets))
               for sign in ("<", ">")]
    cache: dict[tuple, Optional[Region]] = {}
    for combos, assignment in enumerate(
            itertools.product(choices, repeat=len(leftovers)), 1):
        if combos > cfg.ssp_combo_cap:
            raise _Unsolvable(cap="ssp-combo-cap")
        grouped: dict[int, list[tuple[SSP, str]]] = {}
        for ssp, (si, sign) in zip(leftovers, assignment):
            grouped.setdefault(si, []).append((ssp, sign))
        solutions: dict[int, Region] = {}
        for si, extras in sorted(grouped.items()):
            key = (si, frozenset((ssp.s1, ssp.s2, sign)
                                 for ssp, sign in extras))
            if key not in cache:
                rows = targets[si][0].rows.parts + tuple(
                    ctx.ssp_row(ssp, sign) for ssp, sign in extras)
                cache[key] = _region(ctx, ctx.system(rows, zero_one=True))
            if cache[key] is None:
                break
            solutions[si] = cache[key]
        else:
            for si, region in solutions.items():
                pool[targets[si][1]] = region
            return
    raise _Unsolvable(_problem_witness(
        leftovers[0], lts,
        [f"block:{lts.labels[lo]}:{lts.labels[hi]}"
         for (lo, hi), _, _ in blocks]))
