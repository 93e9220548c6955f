import importlib.util
import json
import pathlib

import pytest

from netsynth.lts import parse_lts
from netsynth.petri import parse_net

from reference import integer_row

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"

# the least LTSs of a census of every tiny LTS that take two paths of the
# relation stage: case 6 where the more broadly enabled label, b, is no
# self-loop, so a and b are disjoint; and equivalent labels b and c that
# relate to a differently (an equivalence-conflict contradiction)
CASE6_DISJOINT = ("initial s0\ns0 b s1\ns1 a s0\ns1 b s2\ns2 a s0\n"
                  "s2 b s1\n")
EQUIVALENCE_CONFLICT = ("initial s0\ns0 b s0\ns0 c s1\ns1 a s0\ns1 b s0\n"
                        "s1 c s2\ns2 a s0\ns2 b s0\ns2 c s1\n")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_lts(name: str):
    return parse_lts(fixture_text(name + ".lts"))


def load_net(name: str):
    return parse_net(fixture_text(name + ".pn"))


def margin_row(coeffs, rel, const=0):
    """`integer_row` that also takes ``<`` and ``>`` and writes them as the
    unit margin of the row scaled to integers: ``< c`` as ``<= c - 1``
    and ``> c`` as ``>= c + 1``."""
    shift = {"<": -1, ">": 1}.get(rel, 0)
    row = integer_row(coeffs, rel + "=" if shift else rel, const)
    return row._replace(const=row.const + shift)


def rewrite_record(path: pathlib.Path, record: dict) -> None:
    """Write ``record`` to the JSON pin ``path``, first printing each key
    whose value differs from the file's: ``~`` changed, ``+`` new, ``-``
    gone.  A re-record so shows its own diff."""
    old = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in old.keys() | record.keys()
                    if old.get(k) != record.get(k))
    for key in differ:
        print("-" if key not in record else "+" if key not in old else "~",
              key)
    print(f"{len(differ)} of {len(record)} keys differ from {path.name}")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def load_tracer():
    """``perfbench/tracer.py``, loaded by path as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fig1():
    return load_lts("fig1")


@pytest.fixture(scope="session")
def genx():
    return load_lts("genx")


@pytest.fixture(scope="session")
def case6a():
    return load_lts("case6a")


@pytest.fixture(scope="session")
def case6b():
    return load_lts("case6b")


@pytest.fixture(scope="session")
def brac7():
    return load_lts("brac7")


@pytest.fixture(scope="session")
def fig1_net():
    return load_net("fig1-net")


@pytest.fixture(scope="session")
def brac7_net():
    return load_net("brac7-net")
