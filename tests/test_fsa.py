"""Generic automaton algebra and the pree-specific languages.

The generic half is exercised against a frontier simulation,
``oracles.nfa_accepts``; the language half against the word-level
predicates they are supposed to match.
"""

import itertools
import random

from conftest import (
    a2_fano_pree, all_words, free_product_pree, load_fixture, random_words,
    solver_and_cycle_tables, solver_tables,
)
from oracles import (
    nfa_accepts, reference_combing_acceptor, reference_geodesic_acceptor, reference_pre_sweep, top_projection,
)
from preekit import group
from preekit.fsa import (
    PAD,
    FiniteAutomaton,
    build_combing_table,
    combing_acceptor,
    fsa_to_dot,
    fsa_to_text,
    geodesic_acceptor,
    render_symbol,
    strip_reduction_pair_recognizer,
    word_difference_machine,
)
from preekit.group import FellowTravelerReport, cayley_ball, equals_identity, verify_short_identities
from preekit.pree import UNDEF
from preekit.words import find_strip, is_geodesic_word, parse_word, strongly_reduce


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
            want = nfa_accepts(m, w)
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
            assert both.accepts(w) == (nfa_accepts(m1, w) and nfa_accepts(m2, w))
            assert either.accepts(w) == (nfa_accepts(m1, w) or nfa_accepts(m2, w))


def test_enumerate_words_is_length_lex_and_complete():
    rng = random.Random(37)
    for _ in range(25):
        m = _random_nfa(rng)
        got = m.enumerate_words(5)
        want = [w for w in _short_words(5) if nfa_accepts(m, w)]
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


def test_is_empty_matches_bounded_enumeration_on_random_nfas():
    # an accepted word, if any, has one no longer than the number of states
    rng = random.Random(43)
    verdicts = set()
    for _ in range(3000):
        m = _random_nfa(rng)
        empty = m.is_empty()
        assert empty == (m.enumerate_words(m.n_states) == [])
        verdicts.add(empty)
    assert verdicts == {True, False}


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


def test_geodesic_acceptor_matches_word_predicate():
    for name, p in solver_and_cycle_tables():
        acc = geodesic_acceptor(p)
        # the empty word is the geodesic spelling of the identity, even
        # though the word predicate refuses degenerate inputs
        assert acc.accepts(()), name
        # every word of up to four letters, or three on the larger tables
        top = 4 if p.size ** 4 <= 10_000 else 3
        short = [w for n in range(1, top + 1) for w in itertools.product(p.elements(), repeat=n)]
        long = random_words(p, 6, 30, 256)
        long += [strongly_reduce(p, w)[0] for w in long]
        for w in short + long:
            assert acc.accepts(w) == is_geodesic_word(p, w), (name, w)


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
    wit = find_strip(zxz, w)
    assert wit.top == w  # the strip covers the word, so the output is all of it
    out = wit.output
    pair = list(zip(w, out + (PAD,)))
    assert rec.accepts(pair)
    bad = list(zip(w, (w[0],) + out[:1] + (PAD,)))
    assert not rec.accepts(bad)


def test_strip_pair_projection_matches_find_strip(zxz):
    rec = strip_reduction_pair_recognizer(zxz)
    proj = top_projection(rec).determinize()
    for n in (3, 4):
        for w in all_words(zxz, n):
            assert proj.accepts(w) == (find_strip(zxz, w) is not None), w


def test_acceptors_print_the_reference_machines():
    tables = solver_tables() + [
        ("FP2", free_product_pree(load_fixture("zxz"))), ("A2", a2_fano_pree()),
    ]
    for name, p in tables:
        text = lambda m: fsa_to_text(m, lambda sym: render_symbol(p, sym))
        assert text(geodesic_acceptor(p)) == text(reference_geodesic_acceptor(p)), name
        assert text(combing_acceptor(p)) == text(reference_combing_acceptor(p)), name


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
    # the sweep grew the radius-3 ball, and the table only reads it
    assert calls == []
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
    assert isinstance(got, FellowTravelerReport)
    assert not got.ok
    assert got.max_separation == 1
    assert "worst pair: [] [(0,1)]" in got.render(zxz)


def test_machine_fails_exactly_when_the_pre_sweep_did():
    for name in ("zxz", "s3", "z6", "q8"):
        p = load_fixture(name)
        lang = combing_acceptor(p)
        for K in range(4):
            for R in range(5):
                got = word_difference_machine(p, lang, K, R)
                failed = reference_pre_sweep(p, lang, K, R) is not None
                assert isinstance(got, FellowTravelerReport) == failed, (name, K, R)
                assert isinstance(got, FiniteAutomaton) != failed, (name, K, R)


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
