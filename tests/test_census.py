"""The census of every tiny LTS (`census.SHAPES`, 21,464 LTSs) through
both pipelines.

Every success must verify (`census.run_shape` raises otherwise).  One
SHA-256 per shape and pipeline, over the sorted-key JSON report of each
LTS, is pinned in ``fixtures/census_digests.json``, so a change that
moves a verdict, a witness or a region names the shape it moved.  The
verdict counts are pinned below.  Both pipelines take about 12 s.

Of the 3-state, 3-label shape, which only ``tests/census.py`` runs whole,
the 18 LTSs on which WPI ends in `verification` are pinned by their
position in `census(3, 3)`; enumerating the shape takes about 1 s.

``PYTHONPATH=src python tests/test_census.py`` rewrites the record and
prints the keys whose digests it changed.
"""

import collections
import json
import pathlib

import pytest

from netsynth.synthesis import synthesize_brac, synthesize_wpi

from census import SHAPES, census, run_shape
from conftest import rewrite_record

RECORD = pathlib.Path(__file__).parent / "fixtures" / "census_digests.json"
# pipeline -> verdict -> LTSs of `SHAPES`
VERDICTS = {
    "brac": {"success": 113, "contradiction": 2189, "essp": 5266,
             "essp-block": 8240, "ssp": 5656},
    "wpi": {"success": 217, "contradiction": 2165, "essp": 13404,
            "ssp": 5678},
}

# positions in `census(3, 3)` of the LTSs whose WPI witness is the failed
# class check of the assembled net; BRAC ends each in a contradiction
WPI_VERIFICATION = (2484, 2932, 7080, 7528, 11100, 12920, 14952, 15016,
                    19768, 19832, 34252, 34508, 37296, 37788, 42460, 42524,
                    63306, 63644)


def digests_and_verdicts() -> tuple[dict[str, str], dict]:
    """``pipeline/SxL`` -> digest, and pipeline -> verdict counts, over
    every shape of `SHAPES`."""
    digests = {}
    verdicts = collections.defaultdict(collections.Counter)
    for states, labels in SHAPES:
        for name, (digest, counts) in run_shape(states, labels).items():
            digests[f"{name}/{states}x{labels}"] = digest
            verdicts[name] += counts
    return digests, verdicts


@pytest.fixture(scope="module")
def census_run():
    return digests_and_verdicts()


def test_verdict_counts(census_run):
    _, verdicts = census_run
    assert {name: dict(counts) for name, counts in verdicts.items()} == \
        VERDICTS


def test_report_digests_unchanged(census_run):
    digests, _ = census_run
    assert digests == json.loads(RECORD.read_text())


def test_wpi_verification_verdicts_by_position():
    wanted = set(WPI_VERIFICATION)
    picked = [lts for i, lts in enumerate(census(3, 3)) if i in wanted]
    assert len(picked) == 18
    for lts in picked:
        wpi, brac = synthesize_wpi(lts), synthesize_brac(lts)
        assert wpi.witness == {"kind": "verification",
                               "detail": "class check failed"}, lts.edges
        assert brac.witness["kind"] == "contradiction", lts.edges
        assert not wpi.ok and not brac.ok


if __name__ == "__main__":
    rewrite_record(RECORD, digests_and_verdicts()[0])
