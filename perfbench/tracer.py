"""Outside-in tracing of netsynth: spans around calls into each module.

The tracer rebinds public functions at the names their callers look up
(``netsynth.synthesis.solve_integer``, ``netsynth.linsys.solve_rational``,
``netsynth.separation.Region.solves``, ...) to wrappers that record a
span with its parent.  Nothing inside netsynth changes; the originals are
put back on exit.  Counts come only from values the public API already
returns: ``Solution.pivots`` and ``.status``, row and graph sizes, and
the results of region checks and relation stages.
"""

from __future__ import annotations

import statistics
import time

# layer -> the names it wraps, as "module:qualname" inside netsynth.  A
# name bound in several modules is wrapped once and rebound everywhere.
LAYERS = {
    "linsys.solve_rational": ["linsys:solve_rational",
                              "synthesis:solve_rational"],
    "linsys.solve_integer": ["linsys:solve_integer",
                             "synthesis:solve_integer"],
    "linsys.lift": ["linsys:lift_homogeneous_to_integer",
                    "synthesis:lift_homogeneous_to_integer"],
    "lts.validate": ["lts:validate", "synthesis:validate"],
    "lts.spanning_tree": ["lts:spanning_tree", "synthesis:spanning_tree"],
    "lts.cycle_basis": ["lts:cycle_basis", "synthesis:cycle_basis"],
    "petri.reachability_graph": ["petri:reachability_graph",
                                 "synthesis:reachability_graph"],
    "petri.isomorphic": ["petri:isomorphic", "synthesis:isomorphic"],
    "petri.classify_net": ["petri:classify_net", "synthesis:classify_net"],
    "separation.context": ["separation:SystemContext",
                           "synthesis:SystemContext"],
    "separation.build": ["separation:essp_system_wpi",
                         "synthesis:essp_system_wpi",
                         "separation:ssp_system_wpi",
                         "synthesis:ssp_system_wpi",
                         "separation:brac_block_systems",
                         "synthesis:brac_block_systems",
                         "separation:brac_ssp_system_freechoice",
                         "synthesis:brac_ssp_system_freechoice",
                         "separation:SystemContext.system"],
    "separation.region": ["separation:solution_to_region",
                          "synthesis:solution_to_region",
                          "separation:normalize_region",
                          "synthesis:normalize_region",
                          "separation:region_to_place",
                          "synthesis:region_to_place",
                          "separation:Region.is_valid",
                          "separation:Region.solves"],
    "relations": ["relations:build_relation_graph",
                  "synthesis:build_relation_graph",
                  "relations:quotient_by_equivalence",
                  "synthesis:quotient_by_equivalence",
                  "relations:strengthen_wpi", "synthesis:strengthen_wpi",
                  "relations:strengthen_brac", "synthesis:strengthen_brac",
                  "relations:resolve_inclusion_matching",
                  "synthesis:resolve_inclusion_matching"],
    "synthesis.pipeline": ["synthesis:synthesize_wpi",
                           "synthesis:synthesize_brac"],
    "synthesis.verify_solution": ["synthesis:verify_solution"],
}

SYSTEM_KIND = {"essp_system_wpi": "essp", "ssp_system_wpi": "ssp",
               "brac_block_systems": "block",
               "brac_ssp_system_freechoice": "freechoice"}

COUNTERS = ("linsys.solves", "linsys.pivots", "linsys.bb_nodes",
            "linsys.feasible", "lts.cycle_basis.chords",
            "petri.markings", "separation.context.base_rows",
            "separation.systems.essp", "separation.systems.ssp",
            "separation.systems.block", "separation.systems.freechoice",
            "separation.region_checks", "separation.region_hits",
            "relations.contradictions")


class Tracer:
    """Spans and counts of one traced loop, kept in memory.

    A span is ``[layer, parent index, start ns, end ns]``; the parent is
    the span open when the call began, -1 at the top.
    """

    def __init__(self, ns):
        self.ns = ns
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rows: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        # resolve every name before rebinding any, so that a class is found
        # under its module name even after that name is wrapped
        targets = [(layer, *self._resolve(target))
                   for layer, names in LAYERS.items() for target in names]
        wrappers: dict[int, object] = {}
        for layer, owner, attr in targets:
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(layer, attr, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _resolve(self, target: str):
        module, qualname = target.split(":")
        owner = getattr(self.ns, module)
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        return owner, attr

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        count = self._counter(layer, name)

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, span)
            return result

        traced.__name__ = name
        traced.__doc__ = fn.__doc__
        return traced

    def _counter(self, layer: str, name: str):
        c, spans = self.counts, self.spans
        contradiction = self.ns.relations.Contradiction

        if name == "solve_rational":
            def count(args, kwargs, sol, span):
                c["linsys.solves"] += 1
                c["linsys.pivots"] += sol.pivots
                c["linsys.feasible"] += sol.status == "feasible"
                extra = args[1] if len(args) > 1 else \
                    kwargs.get("extra_rows", ())
                self.rows.append(len(args[0].rows) + (
                    len(extra) if isinstance(extra, (tuple, list)) else 0))
                if span[1] >= 0 and \
                        spans[span[1]][0] == "linsys.solve_integer":
                    c["linsys.bb_nodes"] += 1
        elif name == "cycle_basis":
            def count(args, kwargs, basis, span):
                lts = args[0]
                # a spanning tree of a reachable LTS has |S| - 1 edges
                c["lts.cycle_basis.chords"] += \
                    len(lts.edges) - len(lts.states) + 1
        elif name == "reachability_graph":
            def count(args, kwargs, rg, span):
                c["petri.markings"] += len(rg.states)
        elif name == "SystemContext":
            def count(args, kwargs, ctx, span):
                c["separation.context.base_rows"] += len(ctx.base_rows())
        elif name in SYSTEM_KIND:
            key = "separation.systems." + SYSTEM_KIND[name]

            def count(args, kwargs, result, span):
                c[key] += len(result) if isinstance(result, tuple) else 1
        elif name == "solves":
            def count(args, kwargs, hit, span):
                c["separation.region_checks"] += 1
                c["separation.region_hits"] += bool(hit)
        elif layer == "relations":
            def count(args, kwargs, result, span):
                c["relations.contradictions"] += \
                    isinstance(result, contradiction)
        else:
            count = None
        return count

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, parent, start, end) in enumerate(self.spans):
            out[layer] += (end - start - child[i]) / 1e9
        return out

    def metrics(self, traced_total_s: float,
                untraced_total_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit)."""
        selfs = self.self_seconds()
        c = self.counts
        out = {f"{layer}.self_s": (value, "s")
               for layer, value in selfs.items()}
        rg_s = selfs["petri.reachability_graph"]
        out.update({
            "linsys.solves": (c["linsys.solves"], "count"),
            "linsys.pivots": (c["linsys.pivots"], "count"),
            "linsys.rows_median": (statistics.median(self.rows)
                                   if self.rows else 0, "count"),
            "linsys.bb_nodes": (c["linsys.bb_nodes"], "count"),
            "linsys.feasible_ratio": (
                c["linsys.feasible"] / c["linsys.solves"]
                if c["linsys.solves"] else 0.0, "ratio"),
            "lts.cycle_basis.chords": (c["lts.cycle_basis.chords"],
                                       "count"),
            "petri.markings_per_s": (c["petri.markings"] / rg_s
                                     if rg_s else 0.0, "1/s"),
            "separation.context.base_rows": (
                c["separation.context.base_rows"], "count"),
            "trace.total_s": (traced_total_s, "s"),
            "trace.untraced_total_s": (untraced_total_s, "s"),
            "trace.overhead_s": (traced_total_s - untraced_total_s, "s"),
            "trace.unattributed_s": (traced_total_s - sum(selfs.values()),
                                     "s"),
        })
        for kind in SYSTEM_KIND.values():
            key = "separation.systems." + kind
            out[key] = (c[key], "count")
        for key in ("separation.region_checks", "separation.region_hits",
                    "relations.contradictions"):
            out[key] = (c[key], "count")
        return out
