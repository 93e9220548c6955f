"""Every name the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` rebinds each ``module:qualname`` of its ``LAYERS``
in the owner's ``__dict__``.  A refactor that renames or moves one of those
names would only fail at benchmark time; this test makes it fail here.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
