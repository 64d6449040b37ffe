"""The strip relation against the code it replaced.

``words.strip_masks`` is the one encoding of the strip relation.  The
references below are the strip search, its dynamic program and the pair
recognizer as they were written before it, each scanning the table on
its own; they are kept unchanged as differential oracles for the
witnesses, the reduction traces, the geodesic test and the automata
built on the masks.
"""

import random
from typing import Optional

import pytest

from conftest import load_fixture, solver_tables
from preekit import fsa, words
from preekit.fsa import PAD, FiniteAutomaton, geodesic_acceptor, pair_alphabet, strip_reduction_pair_recognizer
from preekit.pree import UNDEF, Pree
from preekit.words import StripWitness, Word, find_strip, is_geodesic_word, strip_masks, strongly_reduce


def reference_strip_dp(p: Pree, a: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Diagonals and output for a strip covering all of ``a``, or None.

    Among all witnesses the lexicographically smallest diagonal sequence
    is chosen.  Backward viability sets are computed first so the greedy
    forward walk cannot dead-end.
    """
    n = len(a)
    table = p.table
    inv = p.inv
    elems = range(p.size)

    last = [False] * p.size
    an1 = a[n - 1]
    ian2 = inv[a[n - 2]]
    for d in elems:
        g = table[ian2][d]
        if g != UNDEF and table[inv[g]][an1] != UNDEF:
            last[d] = True
    viable = [last]
    for j in range(n - 4, -1, -1):
        nxt = viable[0]
        ia = inv[a[j + 1]]
        cur = [False] * p.size
        for d in elems:
            g = table[ia][d]
            if g == UNDEF:
                continue
            ig = inv[g]
            row = table[ig]
            for d2 in elems:
                if nxt[d2] and row[d2] != UNDEF:
                    cur[d] = True
                    break
        viable.insert(0, cur)

    a0 = a[0]
    first = None
    for d in elems:
        if viable[0][d] and table[a0][d] != UNDEF:
            first = d
            break
    if first is None:
        return None

    diagonals = [first]
    output = [table[a0][first]]
    for j in range(1, n - 2):
        g = table[inv[a[j]]][diagonals[j - 1]]
        ig = inv[g]
        row = table[ig]
        for d in elems:
            if viable[j][d] and row[d] != UNDEF:
                diagonals.append(d)
                output.append(row[d])
                break
    g = table[inv[a[n - 2]]][diagonals[n - 3]]
    output.append(table[inv[g]][a[n - 1]])
    return tuple(diagonals), tuple(output)


def reference_find_strip(p: Pree, w: Word) -> Optional[StripWitness]:
    """Leftmost, then shortest, then diagonal-minimal strip in ``w``.

    Feasibility is decided with forward viability sets grown one column
    at a time, so each start position costs one sweep instead of one
    dynamic program per substring; the full program runs only on the
    matched substring to pick the diagonal-minimal witness.
    """
    m = len(w)
    table = p.table
    inv = p.inv
    size = p.size
    elems = range(size)
    for start in range(m - 2):
        a0 = w[start]
        row0 = table[a0]
        cur = [row0[d] != UNDEF for d in elems]
        if not any(cur):
            continue
        # cur holds the viable diagonals entering column j; the strip of
        # length n ends the moment its last letter closes off a diagonal
        for n in range(3, m - start + 1):
            an2, an1 = w[start + n - 2], w[start + n - 1]
            ian2 = inv[an2]
            done = False
            for d in elems:
                if not cur[d]:
                    continue
                g = table[ian2][d]
                if g != UNDEF and table[inv[g]][an1] != UNDEF:
                    done = True
                    break
            if done:
                top = w[start : start + n]
                got = reference_strip_dp(p, top)
                return StripWitness(start=start, top=top, diagonals=got[0], output=got[1])
            if start + n == m:
                break
            ia = ian2
            nxt = [False] * size
            alive = False
            for d in elems:
                if not cur[d]:
                    continue
                g = table[ia][d]
                if g == UNDEF:
                    continue
                row = table[inv[g]]
                for d2 in elems:
                    if row[d2] != UNDEF:
                        nxt[d2] = True
                        alive = True
            if not alive:
                break
            cur = nxt
    return None


def reference_pair_recognizer(p: Pree) -> FiniteAutomaton:
    """Pairs (u, v$) where v is u with one strip reduction applied.

    States: 0 copies the common prefix; 1+d carries the last diagonal
    of a strip in progress; after the strip, v runs one letter behind u
    (states 1+size+e expect u to emit e next); the final state pairs
    u's last letter with the pad.
    """
    size = p.size
    copy, accept = 0, 1 + 2 * size
    strip = lambda d: 1 + d
    expect = lambda e: 1 + size + e
    table, inv = p.table, p.inv
    trans: dict = {}

    def add(s, sym, t):
        trans.setdefault((s, sym), []).append(t)

    for x in p.elements():
        add(copy, (x, x), copy)
    for a in p.elements():
        for d in p.elements():
            c = table[a][d]
            if c != UNDEF:
                add(copy, (a, c), strip(d))
    for d in p.elements():
        for a in p.elements():
            g = table[inv[a]][d]
            if g == UNDEF:
                continue
            for c in p.elements():
                t = table[g][c]
                if t != UNDEF:
                    add(strip(d), (a, c), strip(t))
                    add(strip(d), (a, c), expect(t))
    for e in p.elements():
        for y in p.elements():
            add(expect(e), (e, y), expect(y))
        add(expect(e), (e, PAD), accept)
    return FiniteAutomaton(2 + 2 * size, pair_alphabet(p), trans, [copy], [accept])


_TABLES = solver_tables() + [(name, load_fixture(name)) for name in ("cycle4", "cycle5")]
TABLES = pytest.mark.parametrize("name,p", _TABLES, ids=[name for name, _ in _TABLES])


def _words(p, seed, count, max_len):
    """Random words, and as many whose adjacent pairs have no product,
    so that the strip search runs on words no contraction shortens."""
    rng = random.Random(seed)
    elems = list(p.elements())
    out = []
    for _ in range(count):
        n = rng.randint(3, max_len)
        out.append(tuple(rng.choice(elems) for _ in range(n)))
        w = [rng.choice(elems)]
        while len(w) < n:
            nxt = [x for x in elems if p.table[w[-1]][x] == UNDEF]
            if not nxt:
                break
            w.append(rng.choice(nxt))
        out.append(tuple(w))
    return out


@TABLES
def test_strip_witnesses_match_the_reference(name, p):
    found = 0
    for w in _words(p, 1, 150, 20):
        got = find_strip(p, w)
        assert got == reference_find_strip(p, w), (name, w)
        found += got is not None
    assert found


@TABLES
def test_traces_and_geodesic_verdicts_match_the_reference(name, p, monkeypatch):
    ws = _words(p, 2, 60, 30)
    ws += [strongly_reduce(p, w)[0] for w in ws]
    got = [(strongly_reduce(p, w), is_geodesic_word(p, w)) for w in ws]
    monkeypatch.setattr(words, "find_strip", reference_find_strip)
    assert got == [(strongly_reduce(p, w), is_geodesic_word(p, w)) for w in ws], name


def _machine(m):
    return m.n_states, m.alphabet, m.transitions, m.initial, m.accepting


@TABLES
def test_pair_recognizer_and_geodesic_acceptor_match_the_reference(name, p, monkeypatch):
    assert _machine(strip_reduction_pair_recognizer(p)) == _machine(reference_pair_recognizer(p))
    geo = geodesic_acceptor(p)
    monkeypatch.setattr(fsa, "strip_reduction_pair_recognizer", reference_pair_recognizer)
    assert _machine(geo) == _machine(geodesic_acceptor(p))


def test_masks_are_built_once_per_table(zxz):
    assert strip_masks(zxz) is strip_masks(zxz)
