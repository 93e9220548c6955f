"""The classes `classify_net` finds, pinned over four families of nets.

The families are the fixture `.pn` nets, ``random_brac_net(0..999)``,
the weighted nets ``test_acceptance._random_general_net(0..999)`` and
every plain net of ``small_nets.exhaustive_nets(2, 3, 2)`` (36,864
nets).  ``fixtures/class_digests.json`` holds, per family, the SHA-256
over one line per net: the sorted names of the net's classes, joined by
commas.  A change to how a net is classified must keep every digest.
``PYTHONPATH=src python tests/test_class_digests.py`` rewrites the
record and prints the keys it changed.
"""

import functools
import hashlib
import json
import pathlib
from typing import Iterable

from netsynth.oracle import random_brac_net
from netsynth.petri import PetriNet, classify_net, parse_net

from conftest import rewrite_record
from small_nets import exhaustive_nets
from test_acceptance import _random_general_net

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "class_digests.json"
CLASSES = {"PLAIN", "MG", "CF", "EC", "EFC", "WPI", "WAC", "AC", "RAC",
           "BRAC"}


def families() -> dict[str, Iterable[PetriNet]]:
    """Family name -> its nets, in a fixed order."""
    return {
        "fixture": [parse_net(p.read_text())
                    for p in sorted(FIXTURES.glob("*.pn"))],
        "random_brac_net": map(random_brac_net, range(1000)),
        "random_general_net": map(_random_general_net, range(1000)),
        "exhaustive_nets(2, 3, 2)": exhaustive_nets(2, 3, 2),
    }


@functools.cache
def class_lines() -> dict[str, list[str]]:
    """Family name -> per net, the sorted names of its classes, joined
    by commas."""
    return {name: [",".join(sorted(classify_net(net)))
                   for net in nets] for name, nets in families().items()}


def recorded() -> dict[str, str]:
    return {name: hashlib.sha256("".join(f"{line}\n" for line in lines)
                                 .encode()).hexdigest()
            for name, lines in class_lines().items()}


def test_class_sets_unchanged():
    expected = json.loads(RECORD.read_text())
    got = recorded()
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"class sets changed: {changed}"


def test_every_class_occurs():
    """The families reach every class and its absence."""
    sets = [set(line.split(",")) - {""}
            for lines in class_lines().values() for line in lines]
    assert set().union(*sets) == CLASSES
    assert all(any(name not in names for names in sets)
               for name in CLASSES)


if __name__ == "__main__":
    rewrite_record(RECORD, recorded())
