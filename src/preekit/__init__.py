"""Partial multiplication tables and the groups they generate.

The core object is a finite table with identity, inverses, and a
partially defined product closed under the six readings of each
product triangle.  On top of it: strong word reduction, an identity
solver, geodesic and combing automata, triangular diagrams with exact
curvature accounting, and a verification suite tying them together.
"""

import importlib

from .pree import Pree, PreeError, load_pree, dump_pree, validate_pree, check_axiom
from .words import parse_word, render_word, strongly_reduce, is_geodesic_word
from .group import (
    axioms_hold,
    bfs_identity_oracle,
    cayley_ball,
    equals_identity,
    fellow_traveler_check,
    verify_embedding,
    verify_short_identities,
    verify_surjectivity,
)

__all__ = [
    "Pree",
    "PreeError",
    "load_pree",
    "dump_pree",
    "validate_pree",
    "check_axiom",
    "parse_word",
    "render_word",
    "strongly_reduce",
    "is_geodesic_word",
    "axioms_hold",
    "bfs_identity_oracle",
    "cayley_ball",
    "equals_identity",
    "fellow_traveler_check",
    "verify_embedding",
    "verify_short_identities",
    "verify_surjectivity",
    "FiniteAutomaton",
    "combing_acceptor",
    "geodesic_acceptor",
    "strip_reduction_pair_recognizer",
    "word_difference_machine",
    "Diagram",
    "curvature_check",
    "diagram_stats",
    "find_minimal_diagram",
]


_LAZY = {
    "fsa": ("FiniteAutomaton", "combing_acceptor", "geodesic_acceptor",
            "strip_reduction_pair_recognizer", "word_difference_machine"),
    "diagrams": ("Diagram", "curvature_check", "diagram_stats", "find_minimal_diagram"),
}


def __getattr__(name: str):
    """Import fsa and diagrams on first use, so that a command which needs
    neither never loads them."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            # not "from . import fsa", which would call this hook again
            mod = importlib.import_module("." + module, __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
