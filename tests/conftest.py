import dataclasses
import pathlib

import pytest

from netsynth.linsys import make_row
from netsynth.lts import parse_lts
from netsynth.petri import parse_net

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def load_lts(name: str):
    return parse_lts(fixture_text(name + ".lts"))


def load_net(name: str):
    return parse_net(fixture_text(name + ".pn"))


def margin_row(coeffs, rel, const=0):
    """`make_row` that also takes ``<`` and ``>`` and writes them as the
    unit margin of the row scaled to integers: ``< c`` as ``<= c - 1``
    and ``> c`` as ``>= c + 1``."""
    shift = {"<": -1, ">": 1}.get(rel, 0)
    row = make_row(coeffs, rel + "=" if shift else rel, const)
    return dataclasses.replace(row, const=row.const + shift)


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
