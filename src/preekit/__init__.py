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
from .fsa import (
    FiniteAutomaton,
    combing_acceptor,
    geodesic_acceptor,
    strip_reduction_pair_recognizer,
    word_difference_machine,
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


def __getattr__(name: str):
    """Import diagrams on first use, so the word and verify commands never load it."""
    if name == "diagrams" or name in ("Diagram", "curvature_check", "diagram_stats", "find_minimal_diagram"):
        # not "from . import diagrams", which would call this hook again
        diagrams = importlib.import_module(".diagrams", __name__)
        return diagrams if name == "diagrams" else getattr(diagrams, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
