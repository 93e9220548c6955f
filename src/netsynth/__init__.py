"""Petri net synthesis from labelled transition systems.

Targets two net classes: weighted comparable presets (all transitions
sharing a preset place have componentwise-comparable consume vectors) and
block-reduced asymmetric choice (plain nets whose shared presets form
free-choice blocks or two-block asymmetric choices).
"""

from netsynth.lts import (Lts, SpanningTree, ParikhVector, ValidationReport,
                          parse_lts, serialize_lts, validate, spanning_tree,
                          parikh_of_edge, cycle_basis)
from netsynth.linsys import (LinearSystem, Row, Solution, make_row,
                             solve_rational, solve_integer,
                             lift_homogeneous_to_integer, dump_lp)
from netsynth.relations import (RelationGraph, Contradiction,
                                classify_case, build_relation_graph,
                                quotient_by_equivalence,
                                strengthen_wpi, strengthen_brac,
                                resolve_inclusion_matching)
from netsynth.separation import (SeparationProblem, Region,
                                 essp_system_wpi, ssp_system_wpi,
                                 brac_block_systems,
                                 brac_ssp_system_freechoice, region_to_place)
from netsynth.petri import (PetriNet, Marking,
                            reachability_graph, classify_net, isomorphic,
                            parse_net, serialize_net, render_dot)
from netsynth.synthesis import (SynthesisConfig, SynthesisReport,
                                synthesize_wpi, synthesize_brac,
                                verify_solution)
from netsynth.oracle import random_lts, random_brac_net

__version__ = "0.1.0"
