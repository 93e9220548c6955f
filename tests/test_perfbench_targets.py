"""Every name the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` rebinds each ``module:qualname`` of its ``LAYERS``
in the owner's ``__dict__``.  A refactor that renames or moves one of those
names would only fail at benchmark time; this test makes it fail here.
A method of a `NamedTuple` record is rebound on its class like any other.
"""

import importlib
import json
from types import SimpleNamespace

import pytest

from conftest import load_tracer


def load_layers() -> dict[str, list[str]]:
    return load_tracer().LAYERS


TARGETS = [target for names in load_layers().values() for target in names]


def test_every_layer_has_targets():
    layers = load_layers()
    assert layers and all(layers.values())


@pytest.mark.parametrize("target", TARGETS)
def test_target_in_owner_dict(target):
    module, qualname = target.split(":")
    owner = importlib.import_module(f"netsynth.{module}")
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    assert attr in owner.__dict__


def test_tracer_wraps_and_restores_namedtuple_region(fig1):
    ns = SimpleNamespace(**{
        m: importlib.import_module(f"netsynth.{m}")
        for m in ("lts", "linsys", "relations", "separation", "petri",
                  "synthesis")})
    region = ns.separation.Region
    assert issubclass(region, tuple)
    methods = {name: region.__dict__[name] for name in ("is_valid", "solves")}

    def report() -> str:
        return json.dumps(ns.synthesis.synthesize_brac(fig1).to_json(
            fig1.labels), indent=2, sort_keys=True)

    untraced = report()
    tracer = load_tracer().Tracer(ns)
    with tracer:
        assert all(region.__dict__[name] is not method
                   for name, method in methods.items())
        traced = report()
    assert all(region.__dict__[name] is method
               for name, method in methods.items())
    assert traced == untraced
    assert tracer.counts["separation.region_checks"] > 0
    assert "separation.region" in {span[0] for span in tracer.spans}
