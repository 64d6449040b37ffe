"""Generic automaton algebra and the pree-specific languages.

The generic half is exercised against a frontier simulation written
here; the language half against the word-level predicates they are
supposed to match.
"""

import itertools
import random

from conftest import all_words, load_fixture, solver_tables
from preekit import group
from preekit.fsa import (
    PAD,
    FailureWitness,
    FiniteAutomaton,
    build_combing_table,
    combing_acceptor,
    fsa_to_dot,
    fsa_to_text,
    geodesic_acceptor,
    irreducible_acceptor,
    render_symbol,
    strip_reduction_pair_recognizer,
    word_difference_machine,
)
from preekit.group import cayley_ball, equals_identity, verify_short_identities
from preekit.pree import UNDEF
from preekit.words import find_strip, is_geodesic_word, parse_word, strip_reduce_once


def _sim(m, w):
    cur = set(m.initial)
    for sym in w:
        cur = {t for s in cur for t in m.transitions.get((s, sym), ())}
        if not cur:
            return False
    return bool(cur & set(m.accepting))


def _random_nfa(rng, max_states=6):
    n = rng.randrange(1, max_states + 1)
    trans = {}
    for s in range(n):
        for sym in "ab":
            ts = [t for t in range(n) if rng.random() < 0.35]
            if ts:
                trans[(s, sym)] = tuple(ts)
    initial = [s for s in range(n) if rng.random() < 0.4] or [0]
    accepting = [s for s in range(n) if rng.random() < 0.4]
    return FiniteAutomaton(n, "ab", trans, initial, accepting)


def _short_words(max_len):
    for length in range(max_len + 1):
        yield from itertools.product("ab", repeat=length)


def test_boolean_algebra_on_random_nfas():
    rng = random.Random(29)
    for _ in range(40):
        m = _random_nfa(rng)
        d = m.determinize()
        mini = m.minimize()
        comp = m.complement()
        assert d.deterministic and mini.deterministic and comp.deterministic
        assert mini.n_states <= d.complete().n_states
        for w in _short_words(5):
            want = _sim(m, w)
            assert d.accepts(w) == want
            assert mini.accepts(w) == want
            assert comp.accepts(w) == (not want)


def test_intersect_union_on_random_nfas():
    rng = random.Random(31)
    for _ in range(25):
        m1, m2 = _random_nfa(rng), _random_nfa(rng)
        both = m1.intersect(m2)
        either = m1.union(m2)
        for w in _short_words(4):
            assert both.accepts(w) == (_sim(m1, w) and _sim(m2, w))
            assert either.accepts(w) == (_sim(m1, w) or _sim(m2, w))


def test_enumerate_words_is_length_lex_and_complete():
    rng = random.Random(37)
    for _ in range(25):
        m = _random_nfa(rng)
        got = m.enumerate_words(5)
        want = [w for w in _short_words(5) if _sim(m, w)]
        want.sort(key=lambda w: (len(w), tuple("ab".index(s) for s in w)))
        assert got == want


def test_enumerate_words_below_length_zero_is_empty():
    assert FiniteAutomaton(1, "a", {}, [0], [0]).enumerate_words(-1) == []


def test_minimize_is_idempotent():
    rng = random.Random(41)
    for _ in range(10):
        mini = _random_nfa(rng).minimize()
        assert mini.minimize().n_states == mini.n_states


def test_minimize_collapses_even_parity_machine():
    # two redundant copies of the odd state
    trans = {(0, "a"): (1,), (1, "a"): (2,), (2, "a"): (3,), (3, "a"): (0,),
             (0, "b"): (0,), (1, "b"): (1,), (2, "b"): (2,), (3, "b"): (3,)}
    m = FiniteAutomaton(4, "ab", trans, [0], [0, 2])
    mini = m.minimize()
    assert mini.n_states == 2
    for w in _short_words(6):
        assert mini.accepts(w) == (w.count("a") % 2 == 0)


def test_is_empty():
    m = FiniteAutomaton(2, "ab", {(0, "a"): (0,)}, [0], [1])
    assert m.is_empty()
    m2 = FiniteAutomaton(2, "ab", {(0, "a"): (1,)}, [0], [1])
    assert not m2.is_empty()


def test_render_symbol(zxz):
    assert render_symbol(zxz, PAD) == "$"
    assert render_symbol(zxz, zxz.id_of("(1,0)")) == "(1,0)"
    assert render_symbol(zxz, (zxz.id_of("(1,0)"), PAD)) == "(1,0),$"


def test_fsa_text_and_dot_are_stable():
    m = FiniteAutomaton(2, "ab", {(0, "a"): (1,), (1, "b"): (0,)}, [0], [1])
    text = fsa_to_text(m, str)
    assert text == "states 2\ninitial 0\naccepting 1\n0 a 1\n1 b 0\n"
    dot = fsa_to_dot(m, str)
    assert dot.startswith("digraph fsa {")
    assert 'q0 -> q1 [label="a"];' in dot


def test_irreducible_acceptor(zxz):
    acc = irreducible_acceptor(zxz)
    assert acc.accepts(())
    assert acc.accepts((zxz.identity,))
    assert acc.accepts(parse_word(zxz, "(1,0) (1,0)"))
    assert not acc.accepts(parse_word(zxz, "(1,0) (0,1)"))
    assert not acc.accepts(parse_word(zxz, "(1,0) (-1,0)"))


def test_geodesic_acceptor_matches_word_predicate(zxz):
    acc = geodesic_acceptor(zxz)
    # the empty word is the geodesic spelling of the identity, even
    # though the word predicate refuses degenerate inputs
    assert acc.accepts(())
    for n in range(1, 5):
        for w in itertools.product(zxz.elements(), repeat=n):
            assert acc.accepts(w) == is_geodesic_word(zxz, w), w


def test_geodesic_acceptor_on_full_table_is_tiny(s3):
    acc = geodesic_acceptor(s3)
    assert acc.deterministic
    assert acc.n_states == 3
    for a in s3.nonidentity():
        assert acc.accepts((a,))
    for w in all_words(s3, 2):
        assert not acc.accepts(w)


def test_strip_pair_recognizer_accepts_the_witnessed_pair(zxz):
    rec = strip_reduction_pair_recognizer(zxz)
    w = parse_word(zxz, "(0,1) (1,1) (1,0)")
    out, _ = strip_reduce_once(zxz, w)
    pair = list(zip(w, out + (PAD,)))
    assert rec.accepts(pair)
    bad = list(zip(w, (w[0],) + out[:1] + (PAD,)))
    assert not rec.accepts(bad)


def test_strip_pair_projection_matches_find_strip(zxz):
    rec = strip_reduction_pair_recognizer(zxz)
    proj = rec.map_symbols(lambda s: s[0] if s[0] != PAD else None).determinize()
    for n in (3, 4):
        for w in all_words(zxz, n):
            assert proj.accepts(w) == (find_strip(zxz, w) is not None), w


def test_combing_is_a_sublanguage_of_geodesics(zxz):
    comb = combing_acceptor(zxz)
    geo = geodesic_acceptor(zxz)
    words = comb.enumerate_words(4)
    for w in words:
        assert geo.accepts(w)
    assert len(comb.enumerate_words(2)) == 25


def test_combing_table_matches_per_word_solver():
    for name, p in solver_tables():
        letters = p.nonidentity()
        want = {}
        for x, y in itertools.product(letters, repeat=2):
            want[(x, y)] = frozenset(
                c for a, b, c in itertools.product(letters, repeat=3)
                if p.table[b][c] == UNDEF and equals_identity(p, (a, b, c, p.inv[y], p.inv[x]))
            )
        assert build_combing_table(p).sprime == want, name


def test_combing_table_reads_verdicts_left_by_the_sweep(monkeypatch):
    p = load_fixture("zxz")
    verify_short_identities(p)
    calls = []
    solver = group.equals_identity
    monkeypatch.setattr(group, "equals_identity", lambda q, w: calls.append(w) or solver(q, w))
    got = build_combing_table(p)
    # only five-letter folds, which the sweep does not keep, are judged again
    assert len(calls) == len(set(calls)) == 486
    assert all(len(w) == 5 for w in calls)
    monkeypatch.undo()
    assert got == build_combing_table(load_fixture("zxz"))


def test_word_difference_machine_small(zxz):
    m = word_difference_machine(zxz, combing_acceptor(zxz), 3, 3)
    assert isinstance(m, FiniteAutomaton)
    assert m.deterministic
    u = parse_word(zxz, "(0,1) (1,1)")
    v = parse_word(zxz, "(1,1) (0,1)")
    assert m.accepts(list(zip(u, v)))
    assert m.accepts([(u[0], PAD)])
    far = parse_word(zxz, "(1,0) (1,0)")
    assert not m.accepts(list(zip(far, (PAD, PAD))))


def test_word_difference_machine_reports_tight_bound_failures(zxz):
    got = word_difference_machine(zxz, combing_acceptor(zxz), 0, 3)
    assert isinstance(got, FailureWitness)
    assert "difference exceeds" in got.render(zxz)


def test_word_difference_machine_language_is_sound(zxz):
    """Every accepted padded pair must name two combed words whose
    difference walk stays small and ends at distance <= 1."""
    m = word_difference_machine(zxz, combing_acceptor(zxz), 3, 3)
    comb = combing_acceptor(zxz)
    ball = cayley_ball(zxz, 4)
    for pair in m.enumerate_words(3):
        u = tuple(x for x, _ in pair if x != PAD)
        v = tuple(y for _, y in pair if y != PAD)
        assert comb.accepts(u) and comb.accepts(v)
        eu, ev = ball.element_of_word(u), ball.element_of_word(v)
        neighbors = {eu} | {ball.step[eu][g] for g in zxz.nonidentity()}
        assert ev in neighbors
