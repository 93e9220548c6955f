"""Report-byte regression guard.

Pins the SHA-256 of the bytes ``netsynth synth --report`` writes for every
fixture, for ``random_lts(0..39, 24, 6)``, for the reachability graphs
of ``random_brac_net(0..9)`` and for ``random_lts(127, 24, 6)`` and
``random_lts(396, 24, 6)`` (family ``gate``: BRAC keeps the event
separation regions of an unmatched doi target there), under both
pipelines.  A refactor of the pipelines must leave every digest in
``fixtures/report_digests.json`` unchanged.
``fixtures/prune_digests.json`` pins ``synth --prune --report`` the same
way on the fixtures, the ``random_brac_net`` graphs, the ``gate`` inputs
and the 1,296-marking scale graph, and
``fixtures/scale_report_digests.json`` pins ``synth --report`` on the
graphs of ``random_brac_net(44, 6, 4)`` (300 markings),
``random_brac_net(17, 6, 4)`` (600) and ``random_brac_net(38, 6, 4)``
(1,296), the largest systems the tests solve.

``fixtures/large_report_digests.json`` pins ``synth --report`` and
``synth --prune --report`` on the graph of ``random_brac_net(37, 6, 4)``
(3,200 markings), and ``synth --report`` alone on the graph of
``random_brac_net(0, 8, 4)`` (11,520 markings).  Both pipelines take
about 9 s on the first and 34 s on the second, too long for the test
suite, so that pin is checked by running this file:
``PYTHONPATH=src python tests/test_report_digests.py`` exits 0 when all
six digests hold, and with ``--record`` rewrites them, printing the keys
it changed.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from netsynth.cli import run
from netsynth.lts import serialize_lts
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph

from conftest import rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DIGESTS = json.loads((FIXTURES / "report_digests.json").read_text())
PRUNE_DIGESTS = json.loads((FIXTURES / "prune_digests.json").read_text())
SCALE_DIGESTS = json.loads(
    (FIXTURES / "scale_report_digests.json").read_text())
# random_brac_net(seed, 6, 4) of the scale cases, by markings
SCALE_NETS = {300: 44, 600: 17, 1296: 38}
# random_brac_net(seed, max_rings, max_stages) of the large cases, by
# markings, and whether the pruned report is pinned too
LARGE_NETS = {3200: ((37, 6, 4), True), 11520: ((0, 8, 4), False)}
# random_lts(seed, 24, 6) of the gate family
GATE_SEEDS = (127, 396)
LARGE_RECORD = FIXTURES / "large_report_digests.json"


def family_inputs(family: str) -> dict[str, str]:
    """Case name -> .lts text for one input family."""
    if family == "fixture":
        return {f"fixture/{p.stem}": p.read_text()
                for p in sorted(FIXTURES.glob("*.lts"))}
    if family == "random_lts":
        return {f"random_lts/{i}": serialize_lts(random_lts(i, 24, 6))
                for i in range(40)}
    if family == "gate":
        return {f"gate/{i}": serialize_lts(random_lts(i, 24, 6))
                for i in GATE_SEEDS}
    if family == "scale":
        return {f"scale/{m}": serialize_lts(
                    reachability_graph(random_brac_net(s, 6, 4), 100_000))
                for m, s in SCALE_NETS.items()}
    if family.startswith("large/"):
        shape, _ = LARGE_NETS[int(family[6:])]
        return {family: serialize_lts(
                    reachability_graph(random_brac_net(*shape), 100_000))}
    return {f"random_brac_net/{i}": serialize_lts(
                reachability_graph(random_brac_net(i), 100_000))
            for i in range(10)}


def report_digest(pipeline: str, lts_file: pathlib.Path,
                  workdir: pathlib.Path, *options: str) -> str:
    report = workdir / "report.json"
    run(["synth", str(lts_file), "--class", pipeline,
         "-o", str(workdir / "out.pn"), "--report", str(report), *options])
    return hashlib.sha256(report.read_bytes()).hexdigest()


def family_digests(family: str, pipeline: str, workdir: pathlib.Path,
                   *options: str) -> dict[str, str]:
    out = {}
    lts_file = workdir / "input.lts"
    for name, text in family_inputs(family).items():
        lts_file.write_text(text)
        out[f"{pipeline}/{name}"] = report_digest(pipeline, lts_file, workdir,
                                                  *options)
    return out


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
@pytest.mark.parametrize("family",
                         ["fixture", "random_lts", "random_brac_net", "gate"])
def test_report_bytes_unchanged(family, pipeline, tmp_path):
    got = family_digests(family, pipeline, tmp_path)
    expected = {k: v for k, v in DIGESTS.items()
                if k.startswith(f"{pipeline}/{family}/")}
    assert len(expected) == len(got)
    changed = sorted(k for k in got if got[k] != expected.get(k))
    assert not changed, f"report bytes changed: {changed}"


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
@pytest.mark.parametrize("family", ["fixture", "random_brac_net", "gate"])
def test_pruned_report_bytes_unchanged(family, pipeline, tmp_path):
    got = family_digests(family, pipeline, tmp_path, "--prune")
    expected = {k: v for k, v in PRUNE_DIGESTS.items()
                if k.startswith(f"{pipeline}/{family}/")}
    assert len(expected) == len(got)
    changed = sorted(k for k in got if got[k] != expected.get(k))
    assert not changed, f"pruned report bytes changed: {changed}"


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
def test_pruned_scale_report_bytes_unchanged(pipeline, tmp_path):
    lts_file = tmp_path / "input.lts"
    lts_file.write_text(serialize_lts(reachability_graph(
        random_brac_net(SCALE_NETS[1296], 6, 4), 100_000)))
    key = f"{pipeline}/scale/1296"
    assert report_digest(pipeline, lts_file, tmp_path, "--prune") \
        == PRUNE_DIGESTS[key]


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
def test_scale_report_bytes_unchanged(pipeline, tmp_path):
    got = family_digests("scale", pipeline, tmp_path)
    expected = {k: v for k, v in SCALE_DIGESTS.items()
                if k.startswith(f"{pipeline}/")}
    assert len(expected) == len(got) == len(SCALE_NETS)
    changed = sorted(k for k in got if got[k] != expected.get(k))
    assert not changed, f"report bytes changed: {changed}"


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
@pytest.mark.parametrize("family", ["fixture", "random_brac_net"])
def test_pipelines_never_write_out_base_rows(family, pipeline, tmp_path,
                                             monkeypatch):
    """The systems hold the context as the block of base rows, which the
    solver splices in and checks without building a `Row` for any of them.
    """
    def written_out(ctx):
        raise AssertionError("a pipeline built the base rows as Row objects")
    monkeypatch.setattr("netsynth.separation.SystemContext.base_rows",
                        written_out)
    got = family_digests(family, pipeline, tmp_path)
    expected = {k: v for k, v in DIGESTS.items()
                if k.startswith(f"{pipeline}/{family}/")}
    assert got == expected


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
@pytest.mark.parametrize("family", ["fixture", "random_brac_net"])
def test_simplex_sees_no_strict_row(family, pipeline, tmp_path,
                                    monkeypatch):
    """Every strict row reaches the simplex as a unit margin, so a simplex
    that refuses ``<`` and ``>`` rows gives the same reports.  A block's
    rows are ``>=`` and ``=`` rows."""
    import netsynth.linsys
    seen = []

    class NoStrictRows(netsynth.linsys._Simplex):
        def __init__(self, system):
            strict = [p.tag for p in system.rows.parts
                      if isinstance(p, netsynth.linsys.Row)
                      and p.rel in ("<", ">")]
            seen.extend(strict)
            if strict:
                raise AssertionError(f"strict rows reached the simplex: "
                                     f"{strict}")
            super().__init__(system)
    monkeypatch.setattr(netsynth.linsys, "_Simplex", NoStrictRows)
    got = family_digests(family, pipeline, tmp_path)
    expected = {k: v for k, v in DIGESTS.items()
                if k.startswith(f"{pipeline}/{family}/")}
    assert not seen
    assert got == expected


def check_large(record: bool) -> int:
    """Compare (or with ``record`` rewrite) the large report digests of
    both pipelines, plain and, where `LARGE_NETS` says so, pruned; 0 when
    every digest holds."""
    with tempfile.TemporaryDirectory() as tmp:
        got = {}
        for markings, (_, prune) in LARGE_NETS.items():
            family = f"large/{markings}"
            for pipeline in ("wpi", "brac"):
                got.update(family_digests(family, pipeline,
                                          pathlib.Path(tmp)))
                if prune:
                    pruned = family_digests(family, pipeline,
                                            pathlib.Path(tmp), "--prune")
                    got.update((f"{key}/prune", digest)
                               for key, digest in pruned.items())
    if record:
        rewrite_record(LARGE_RECORD, got)
        return 0
    expected = json.loads(LARGE_RECORD.read_text())
    changed = sorted(k for k in expected if got.get(k) != expected[k])
    print("report bytes changed: " + ", ".join(changed) if changed
          else f"{len(expected)} large report digests hold")
    return 1 if changed or sorted(got) != sorted(expected) else 0


if __name__ == "__main__":
    sys.exit(check_large("--record" in sys.argv[1:]))
