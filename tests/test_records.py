"""Lint: a record of ``src/netsynth`` is a `typing.NamedTuple` unless it
needs what only a dataclass gives.

Each ``@dataclass`` runs its generated methods' source through ``exec``
when its module is imported, which every ``netsynth`` command pays before
it reads its input; a `NamedTuple` class is made without.  So every
dataclass must be on `ALLOWED` with the reason it cannot be a tuple, and
an entry of `ALLOWED` must still name a dataclass.
"""

import dataclasses
import importlib
import inspect
import pathlib

from netsynth.separation import ESSP, SSP

SRC = pathlib.Path(__file__).parents[1] / "src" / "netsynth"

# "module.Class" -> why it stays a dataclass.  "check:" marks a class
# whose ``__post_init__`` checks or converts its fields, "replace:" one
# that callers copy with `dataclasses.replace`, "mutated:" one whose
# fields are set after it is made, and "type:" one whose instances must
# not equal those of another class with equal fields.
ALLOWED = {
    "lts.Lts": "check: names and edge ends; replace: perfbench's `fresh` "
               "and tests copy it, and `_Table` fills its instance dict",
    "linsys.LinearSystem": "check: wraps its rows and checks their columns",
    "petri.PetriNet": "check: names, weights and marking; replace: "
                      "perfbench's `fresh` and tests copy it",
    "relations.RelationGraph": "mutated: `set_edge` and the default "
                               "`rep` and `classes`",
    "separation.SSP": "type: as tuples `SSP(0, 1) == ESSP(0, 1)`, and "
                      "the two would hash alike",
    "separation.ESSP": "type: see `SSP`",
    "synthesis.SynthesisConfig": "check: each cap is at least 1",
    "synthesis.SynthesisReport": "mutated: the pipelines fill it in",
}


def dataclasses_in_src() -> list[str]:
    """``module.Class`` of every dataclass each module of ``src`` defines."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"netsynth.{path.stem}")
        found += [f"{path.stem}.{name}"
                  for name, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__
                  and dataclasses.is_dataclass(cls)]
    return found


def test_every_dataclass_is_allowed():
    assert sorted(dataclasses_in_src()) == sorted(ALLOWED)


def test_separation_problems_of_two_kinds_differ():
    assert SSP(0, 1) != ESSP(0, 1)
