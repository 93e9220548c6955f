"""Command line interface.

Exit codes: 0 success, 1 synthesis impossible or a check failed (witness
printed), 2 invalid input (a file that cannot be read or parsed, an
output path that cannot be written, or a cap option below 1), 3 a
configured cap was exceeded, 4 internal error (a solver's pivot limit
or a broken invariant, whatever the exception; never a verdict).
Reports are deterministic JSON (schema 1, no timestamps): identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from typing import Optional

from netsynth.lts import Lts, LtsError, parse_lts, serialize_lts, validate
from netsynth.petri import (CapExceeded, PetriNetError, classify_net,
                            parse_net, reachability_graph, render_dot,
                            serialize_net)
from netsynth.relations import (DOI, INCLUDED, Contradiction,
                                build_relation_graph, classify_case,
                                scan_pairs)
from netsynth.synthesis import (CAP_EXCEEDED, SynthesisConfig,
                                relation_stage, synthesize_brac,
                                synthesize_wpi, verify_solution)

OK = 0
IMPOSSIBLE = 1
INVALID = 2
CAP = 3
INTERNAL = 4


class _OptionError(Exception):
    """An option value the command cannot run with."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fp:
            return fp.read()
    except OSError as exc:
        raise LtsError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise LtsError(f"cannot read {path}: not UTF-8 text")


def _write(*outputs: tuple[Optional[str], str]) -> None:
    """Write each ``(path, text)``: the files all or none, then the texts
    bound for standard output (path ``None`` or ``-``), in order.

    A new path, or a regular file this process may write (symlinks
    followed), is written to a temporary name beside it; these are renamed
    into place, with the old file's mode and, where it can, its owner,
    once every write succeeded, and removed otherwise.  Other paths are
    written through once every output is open and every temporary file
    written, the pipes last, as a pipe cannot be un-written (a second
    pipe can still fail after the first got its text).  A directory, a
    read-only file or a file named twice fails before any write.
    """
    stdout = [text for path, text in outputs if path in (None, "-")]
    temps: dict[str, str] = {}  # temporary name -> its output's real path
    through = []  # (path, open file, text) of the outputs written through
    try:
        for path, text in outputs:
            if path in (None, "-"):
                continue
            exists = os.path.exists(path)
            if exists and not (os.path.isfile(path)
                               and os.access(path, os.W_OK)):
                through.append((path, open(path, "w", encoding="utf-8"),
                                text))
                continue
            real = os.path.realpath(path)
            if real in temps.values():
                raise _OptionError(f"two outputs name {path}")
            head, tail = os.path.split(real)
            name = os.path.join(
                head, f".{tail}.{os.getpid()}-{len(temps)}.tmp")
            temps[name] = real
            with open(name, "w", encoding="utf-8") as fp:
                fp.write(text)
            if exists:
                st = os.stat(path)
                os.chmod(name, stat.S_IMODE(st.st_mode))
                with contextlib.suppress(OSError):
                    os.chown(name, st.st_uid, st.st_gid)
        through.sort(key=lambda out: stat.S_ISFIFO(
            os.fstat(out[1].fileno()).st_mode))
        for path, fp, text in through:
            with fp:
                fp.write(text)
        for name, path in list(temps.items()):
            os.replace(name, path)
            del temps[name]
    except OSError as exc:
        raise _OptionError(f"cannot write {path}: {exc.strerror}")
    finally:
        for _, fp, _ in through:
            fp.close()
        for name in temps:
            with contextlib.suppress(OSError):
                os.remove(name)
    sys.stdout.write("".join(stdout))


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_valid_lts(path: str) -> Lts:
    lts = parse_lts(_read(path))
    validate(lts).raise_if_invalid()
    return lts


def _cmd_validate(args) -> int:
    lts = parse_lts(_read(args.file))
    report = validate(lts)
    loops = sorted(lts.labels[t] for t in report.self_loop_labels)
    payload = {
        "schema": 1,
        "deterministic": report.deterministic,
        "reachable": report.reachable,
        "self_loop_labels": loops,
        "unreachable_states": [lts.states[s]
                               for s in report.unreachable_states],
    }
    if report.nondeterministic_witness:
        e1, e2 = report.nondeterministic_witness
        payload["nondeterministic_witness"] = [
            [lts.states[e1[0]], lts.labels[e1[1]], lts.states[e1[2]]],
            [lts.states[e2[0]], lts.labels[e2[1]], lts.states[e2[2]]]]
    _write((args.json, _json(payload)))
    return OK if report.ok else INVALID


def _cmd_relations(args) -> int:
    lts = _load_valid_lts(args.file)
    pairs = [{"a": lts.labels[a], "b": lts.labels[b], "kind": kind,
              "merge": bool(merge), "case": classify_case(kind, merge)}
             for a, b, kind, merge in scan_pairs(lts)]
    contradictions = []
    graph_entries = []
    raw = build_relation_graph(lts)
    stage = relation_stage(raw, brac=False)
    if isinstance(stage, Contradiction):
        contradictions.append({"rule": stage.rule,
                               "labels": [lts.labels[i]
                                          for i in stage.labels],
                               "detail": stage.detail})
    else:
        # representative pairs carry the strengthened edge; pairs inside
        # or across equivalence classes keep their raw edge
        for (a, b), edge in sorted(raw.edges.items()):
            if a in stage.nodes and b in stage.nodes:
                edge = stage.edge(a, b)
            entry = {"a": lts.labels[a], "b": lts.labels[b],
                     "edge": edge.kind, "origin": edge.origin}
            if edge.kind in (INCLUDED, DOI):
                entry["below"] = lts.labels[edge.lo]
                entry["above"] = lts.labels[edge.hi]
            graph_entries.append(entry)
    payload = {"schema": 1, "pairs": pairs, "graph": graph_entries,
               "contradictions": contradictions}
    _write((args.json, _json(payload)))
    return OK if not contradictions else IMPOSSIBLE


def _cmd_synth(args) -> int:
    lts = parse_lts(_read(args.file))
    try:
        cfg = SynthesisConfig(selfloop_cap=args.selfloop_cap,
                              ssp_combo_cap=args.ssp_combo_cap,
                              prune=args.prune)
    except ValueError as exc:
        raise _OptionError(str(exc)) from None
    run = synthesize_brac if args.target_class == "brac" else synthesize_wpi
    report = run(lts, cfg)
    outputs = []
    if report.ok:
        if report.net is None:
            raise AssertionError("success reported without a net")
        outputs.append((args.output, serialize_net(report.net)))
        if args.dot:
            outputs.append((args.dot, render_dot(report.net)))
    if args.report:
        outputs.append((args.report, _json(report.to_json(lts.labels))))
    _write(*outputs)
    if report.ok:
        print(f"synthesised {len(report.net.places)} places, "
              f"{len(report.net.transitions)} transitions "
              f"({args.target_class})", file=sys.stderr)
        return OK
    if report.outcome == CAP_EXCEEDED:
        print(f"cap exceeded: {report.cap}", file=sys.stderr)
        return CAP
    print(f"synthesis impossible: {json.dumps(report.witness)}",
          file=sys.stderr)
    return IMPOSSIBLE


def _cmd_check(args) -> int:
    net = parse_net(_read(args.file))
    classes = classify_net(net)
    _write((args.json, _json({"schema": 1, "flags": sorted(classes)})))
    return OK if args.target_class.upper() in classes else IMPOSSIBLE


def _cmd_rg(args) -> int:
    net = parse_net(_read(args.file))
    if args.rg_cap < 1:
        raise _OptionError("rg_cap must be at least 1")
    _write((args.output, serialize_lts(reachability_graph(net, args.rg_cap))))
    return OK


def _cmd_verify(args) -> int:
    net = parse_net(_read(args.net))
    lts = _load_valid_lts(args.lts)
    record = verify_solution(net, lts, args.target_class)
    _write((args.json, _json({"schema": 1, **record.to_json()})))
    return OK if record.ok else IMPOSSIBLE


def _cmd_dot(args) -> int:
    net = parse_net(_read(args.file))
    _write((args.output, render_dot(net)))
    return OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsynth",
        description="Petri net synthesis from labelled transition systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class(p):
        p.add_argument("--class", dest="target_class", required=True,
                       choices=["wpi", "brac"],
                       help="target net class")

    p = sub.add_parser("validate", help="check an .lts file")
    p.add_argument("file")
    p.add_argument("--json", default=None, help="write the report here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("relations", help="label relation table and graph")
    p.add_argument("file")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("synth", help="synthesise a net from an .lts file")
    p.add_argument("file")
    add_class(p)
    p.add_argument("-o", "--output", default="-",
                   help="output .pn file (default stdout)")
    p.add_argument("--dot", default=None, help="also write a dot rendering")
    p.add_argument("--report", default=None, help="write a JSON report")
    p.add_argument("--selfloop-cap", type=int,
                   default=SynthesisConfig.selfloop_cap)
    p.add_argument("--ssp-combo-cap", type=int,
                   default=SynthesisConfig.ssp_combo_cap)
    p.add_argument("--prune", action="store_true",
                   help="greedily drop redundant places")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("check", help="classify a .pn file")
    p.add_argument("file")
    add_class(p)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rg", help="reachability graph of a .pn file")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--rg-cap", type=int, default=100_000)
    p.set_defaults(func=_cmd_rg)

    p = sub.add_parser("verify", help="check a net against an .lts file")
    p.add_argument("net")
    p.add_argument("lts")
    add_class(p)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="render a .pn file as graphviz")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_dot)
    return parser


def run(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INVALID if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return CAP
    except (LtsError, PetriNetError, _OptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
