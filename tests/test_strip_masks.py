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
``irreducible_form`` and ``is_geodesic_word`` as they were before
``geodesic_step`` kept one advance per walk state, running the bit loop
on every letter, are kept too, and the advance table is checked against
them and against the walk's states.  The strip witness as it was before
its callers pulled its columns back, with its own backward pass, checks
the witnesses of ``find_strip`` and ``irreducible_form``.
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
    reference_irreducible_form,
    reference_is_geodesic_word,
    reference_pair_recognizer,
    reference_strip_search_is_geodesic,
    reference_strongly_reduce,
    reference_witness,
)
from preekit import words
from preekit.fsa import _explore, _geodesic_moves, geodesic_acceptor, strip_reduction_pair_recognizer
from preekit.group import equals_identity
from preekit.pree import UNDEF
from preekit.words import (
    find_strip,
    inverse_word,
    irreducible_form,
    is_geodesic_word,
    parse_word,
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
        assert is_geodesic_word(p, w) == reference_strip_search_is_geodesic(p, w), (name, w)
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


_ADVANCE_TABLES = solver_and_cycle_tables() + [
    ("FP2", free_product_pree(load_fixture("zxz"))),
    ("A2", a2_fano_pree()),
    ("D_7/3", dihedral_subtable(7, 3, keep=0.2)),
]


def _advance(p):
    return p.derived("geodesic_advance", dict)


def _walk_keys(p):
    """The advance keys of the states of the unminimised geodesic walk."""
    order, _ = _explore(None, lambda state: _geodesic_moves(p, state))
    return {mask * p.size + x for x, mask in order[1:]}


@pytest.mark.parametrize("name,p", _ADVANCE_TABLES, ids=[name for name, _ in _ADVANCE_TABLES])
def test_advance_table_matches_the_bit_loops(name, p):
    """The same forms and verdicts as the bit loops, on a fresh table and
    again on the warm one; every key is a walk state, every value the
    union of ``right`` and the ``step`` rows of the mask, and the second
    pass adds no key."""
    advance = _advance(p)
    assert not advance, name
    ws = random_words(p, 9, 100, 60)
    for warm in (False, True):
        for w in ws:
            form = irreducible_form(p, w)
            assert form == reference_irreducible_form(p, w), (name, w, warm)
            for u in (w, form):
                assert is_geodesic_word(p, u) == reference_is_geodesic_word(p, u), (name, u, warm)
        if not warm:
            keys = set(advance)
    # a full table reduces every word to one letter and never steps
    assert bool(keys) == any(UNDEF in row for row in p.table), name
    assert set(advance) == keys, name
    assert keys <= _walk_keys(p), name
    right, step, _ = strip_masks(p)
    for key, nxt in advance.items():
        mask, x = divmod(key, p.size)
        union = right[x]
        for d in p.elements():
            if mask >> d & 1:
                union |= step[x][d]
        assert nxt == union, (name, x, mask)


@pytest.mark.parametrize("name,states", [("zxz", 36), ("FP2", 216)])
def test_geodesic_acceptor_fills_the_advance_table(name, states):
    """Building the acceptor walks every state once, so the table then
    holds one key per state of the walk, and no query adds another."""
    p = load_fixture("zxz")
    if name == "FP2":
        p = free_product_pree(p)
    geodesic_acceptor(p)
    assert set(_advance(p)) == _walk_keys(p) and len(_advance(p)) == states
    for w in random_words(p, 10, 50, 60):
        equals_identity(p, w)
        is_geodesic_word(p, w)
    assert len(_advance(p)) == states


def _forward_columns(p, top):
    """The diagonals reachable in each column of a strip on ``top``,
    stepped forward from ``right`` and never pulled back."""
    right, step, _ = strip_masks(p)
    cols = [right[top[0]]]
    for a in top[1:-2]:
        cols.append(0)
        for d in p.elements():
            if cols[-2] >> d & 1:
                cols[-1] |= step[a][d]
    return cols


@pytest.mark.parametrize("name,p", _ADVANCE_TABLES, ids=[name for name, _ in _ADVANCE_TABLES])
def test_pulled_back_witnesses_match_the_reference_witness(name, p):
    """Every witness ``find_strip`` reads from its pulled-back columns is
    the one the reference reads from the forward columns, on random and
    strip-block words; the one-pass form, which hands its walked-back
    masks to the witness, equals the reference's on the same words."""
    ws = random_words(p, 12, 100, 40) + _strip_block_words(p, 13, 20)
    found = 0
    for w in ws:
        wit = find_strip(p, w)
        if wit is not None:
            found += 1
            assert wit == reference_witness(p, wit.start, wit.top, _forward_columns(p, wit.top)), (name, w)
        assert irreducible_form(p, w) == reference_irreducible_form(p, w), (name, w)
    assert found, name


def _count_pulls(monkeypatch):
    """Count ``_pull`` calls, and collect the tops ``_witness`` is given."""
    pulls, tops = [], []
    pull, witness = words._pull, words._witness
    monkeypatch.setattr(words, "_pull", lambda *args: pulls.append(1) or pull(*args))
    monkeypatch.setattr(words, "_witness", lambda p, start, top, live: tops.append(top) or witness(p, start, top, live))
    return pulls, tops


def test_a_closing_strip_pulls_each_column_back_once(zxz, monkeypatch):
    """A strip of n letters makes n - 3 pulls in ``find_strip`` and in
    ``irreducible_form``: the closing column is cut by ``close`` and the
    first by ``right``, and every column between is pulled once."""
    pulls, tops = _count_pulls(monkeypatch)
    for k in range(1, 9):
        w = parse_word(zxz, "(0,1) " + "(1,1) " * k + "(1,0)")
        for solve in (find_strip, irreducible_form):
            del pulls[:], tops[:]
            solve(zxz, w)
            assert tops == [w] and len(pulls) == len(w) - 3, (solve.__name__, k)
    for name, p in _ADVANCE_TABLES:
        for w in random_words(p, 14, 40, 60) + _strip_block_words(p, 15, 10):
            for solve in (find_strip, irreducible_form):
                del pulls[:], tops[:]
                solve(p, w)
                assert len(pulls) == sum(len(top) - 3 for top in tops), (name, solve.__name__, w)
