"""The strip relation, the reducer and the geodesic language against
the code they replaced.

``words.strip_masks`` is the one encoding of the strip relation, and
``words.geodesic_step`` its one reader for whether a strip exists.  The
references are the strip search, its dynamic program and the pair
recognizer as they were written before the masks, each scanning the
table on its own; the reducer as it was written before it folded its
words through ``contract_push``, rescanning from the left after every
step; and the geodesic test and acceptor as they were written before
``geodesic_step``: a strip search per word, and the pair recognizer's
top-tape projection, determinized, complemented and intersected with
the irreducible words.  They are kept unchanged in ``oracles.py`` as
differential oracles for the witnesses, the reduction traces, the
geodesic test and the automata built on the masks.  The solver's
one-pass ``irreducible_form`` is checked against the traced reducer.
"""

import random

import pytest

from conftest import (
    a2_fano_pree,
    corrupt_cyclic_pree,
    dihedral_subtable,
    free_product_pree,
    load_fixture,
    random_words,
    solver_and_cycle_tables,
    solver_tables,
)
from oracles import (
    reference_find_strip,
    reference_geodesic_acceptor,
    reference_is_geodesic_word,
    reference_pair_recognizer,
    reference_strongly_reduce,
)
from preekit import words
from preekit.fsa import geodesic_acceptor, strip_reduction_pair_recognizer
from preekit.group import equals_identity
from preekit.words import (
    find_strip,
    inverse_word,
    irreducible_form,
    is_geodesic_word,
    strip_masks,
    strongly_reduce,
)

_TABLES = solver_and_cycle_tables()
TABLES = pytest.mark.parametrize("name,p", _TABLES, ids=[name for name, _ in _TABLES])


@TABLES
def test_strip_witnesses_match_the_reference(name, p):
    found = 0
    for w in random_words(p, 1, 150, 20):
        got = find_strip(p, w)
        assert got == reference_find_strip(p, w), (name, w)
        found += got is not None
    assert found


@TABLES
def test_traces_and_geodesic_verdicts_match_the_reference(name, p, monkeypatch):
    """Geodesic verdicts on words up to 256 letters and on their reduced
    forms, which are strip-free; traces with the reference strip search
    in place of ``find_strip``."""
    ws = random_words(p, 2, 60, 30)
    ws += [strongly_reduce(p, w)[0] for w in ws]
    long = random_words(p, 5, 10, 256)
    long += [strongly_reduce(p, w)[0] for w in long]
    for w in ws + long:
        assert is_geodesic_word(p, w) == reference_is_geodesic_word(p, w), (name, w)
    got = [strongly_reduce(p, w) for w in ws]
    monkeypatch.setattr(words, "find_strip", reference_find_strip)
    assert got == [strongly_reduce(p, w) for w in ws], name


@TABLES
def test_reductions_match_the_rescanning_reducer(name, p):
    """Same reduced word and same steps, on short words and on words up
    to 256 letters; the records compare each step's kind, position
    and every witness field."""
    for w in random_words(p, 3, 100, 20) + random_words(p, 4, 10, 256):
        assert strongly_reduce(p, w) == reference_strongly_reduce(p, w), (name, w)


_SOLVER_TABLES = solver_tables() + [("A2", a2_fano_pree()), ("FP(s3)", free_product_pree(load_fixture("s3")))]


def _strip_block_words(p, seed, count):
    """Words made of strip tops found in random words, and identity words
    made of tops each followed by the inverse of its strip's output."""
    rng = random.Random(seed)
    tops = [wit for w in random_words(p, seed, 100, 20) if (wit := find_strip(p, w))]
    out = []
    for _ in range(count if tops else 0):
        picks = [rng.choice(tops) for _ in range(rng.randint(1, 12))]
        out.append(sum((wit.top for wit in picks), ()))
        out.append(sum((wit.top + inverse_word(p, wit.output) for wit in picks), ()))
    return out


@pytest.mark.parametrize("name,p", _SOLVER_TABLES, ids=[name for name, _ in _SOLVER_TABLES])
def test_one_pass_form_matches_the_traced_reducer(name, p):
    """On random words, identity words and strip-block words: the same
    verdict and the same length as ``strongly_reduce``, the same element,
    and a geodesic or the word 1."""
    ws = random_words(p, 6, 120, 30) + random_words(p, 7, 4, 400)
    ws += [u + inverse_word(p, strongly_reduce(p, u)[0]) for u in ws[::4]]
    ws += _strip_block_words(p, 8, 40)
    one = (p.identity,)
    identities = 0
    for w in ws:
        form, (reduced, _) = irreducible_form(p, w), strongly_reduce(p, w)
        assert len(form) == len(reduced), (name, w)
        assert (form == one) == (reduced == one) == equals_identity(p, w), (name, w)
        assert form == one or is_geodesic_word(p, form), (name, w)
        assert strongly_reduce(p, form + inverse_word(p, reduced))[0] == one, (name, w)
        identities += form == one
    assert identities >= len(ws) // 5, name


def _machine(m):
    return m.n_states, m.alphabet, m.transitions, m.initial, m.accepting


_ACCEPTOR_TABLES = _TABLES + [("FP2", free_product_pree(load_fixture("zxz")))]


@pytest.mark.parametrize("name,p", _ACCEPTOR_TABLES, ids=[name for name, _ in _ACCEPTOR_TABLES])
def test_pair_recognizer_and_geodesic_acceptor_match_the_reference(name, p):
    assert _machine(strip_reduction_pair_recognizer(p)) == _machine(reference_pair_recognizer(p))
    assert _machine(geodesic_acceptor(p)) == _machine(reference_geodesic_acceptor(p))


def test_masks_are_built_once_per_table(zxz):
    assert strip_masks(zxz) is strip_masks(zxz)


def test_every_strip_column_holds_the_identity_diagonal():
    """x*1 is defined for every x, so ``right[x]`` holds the identity, and so
    does every nonzero ``step[a][d]``, which is a ``right`` row: a strip
    column starting from ``right`` is never empty."""
    tables = solver_and_cycle_tables() + [
        ("broken_closure", load_fixture("broken_closure")),
        ("FP2", free_product_pree(load_fixture("zxz"))),
        ("A2", a2_fano_pree()),
        ("corrupt Z_6", corrupt_cyclic_pree()),
    ]
    tables += [("D_%d/%d" % (n, seed), dihedral_subtable(n, seed)) for n in range(3, 7) for seed in range(40)]
    for name, p in tables:
        right, step, _ = strip_masks(p)
        one = 1 << p.identity
        assert all(mask & one for mask in right), name
        assert all(mask & one for row in step for mask in row if mask), name
