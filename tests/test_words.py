"""Word parsing and the two shortening moves, checked against lattice
and table-fold oracles that never touch the rewriting code."""

import random

import pytest

from conftest import all_words, table_fold, zxz_distance, zxz_vector
from preekit.pree import UNDEF, PreeError
from preekit.words import (
    ReductionTrace,
    StripWitness,
    apply_trace,
    find_strip,
    inverse_word,
    is_geodesic_word,
    parse_word,
    render_word,
    strongly_reduce,
)


def _random_word(rng, p, length):
    letters = p.nonidentity()
    return tuple(rng.choice(letters) for _ in range(length))


def _has_defined_pair(p, w):
    return any(p.table[a][b] != UNDEF for a, b in zip(w, w[1:]))


def _strip(p, w):
    """The word after its leftmost strip, and the strip's witness."""
    wit = find_strip(p, w)
    assert wit is not None
    return w[: wit.start] + wit.output + w[wit.start + wit.top_length :], wit


def test_parse_render_roundtrip(zxz, s3):
    for p, text in ((zxz, "(1,0) (0,1) (-1,-1)"), (s3, "r s r2")):
        w = parse_word(p, text)
        assert render_word(p, w) == text


def test_parse_accepts_abutted_parens(zxz):
    assert parse_word(zxz, "(1,1)(0,1)") == parse_word(zxz, "(1,1) (0,1)")


def test_parse_rejects_garbage(zxz):
    with pytest.raises(PreeError):
        parse_word(zxz, "")
    with pytest.raises(PreeError):
        parse_word(zxz, "(1,0")
    with pytest.raises(PreeError):
        parse_word(zxz, "nope")


def test_inverse_word_cancels(zxz):
    rng = random.Random(3)
    for _ in range(50):
        w = _random_word(rng, zxz, rng.randrange(1, 7))
        iw = inverse_word(zxz, w)
        vx, vy = zxz_vector(zxz, w + iw)
        assert (vx, vy) == (0, 0)
        red, _ = strongly_reduce(zxz, w + iw)
        assert red == (zxz.identity,)


def test_first_step_contracts_leftmost(zxz):
    w = parse_word(zxz, "(1,0) (0,1) (1,0) (0,1)")
    _, trace = strongly_reduce(zxz, w)
    assert trace.steps
    first = trace.steps[0]
    assert first.kind == "simple"
    assert first.position == 0
    assert apply_trace(zxz, w, ReductionTrace(trace.steps[:1])) == parse_word(zxz, "(1,1) (1,0) (0,1)")


def test_strip_reduces_the_known_nongeodesic(zxz):
    # No adjacent product is defined here, yet the word is one letter too
    # long; only a strip can see that.
    w = parse_word(zxz, "(0,1) (1,1) (1,0)")
    assert not _has_defined_pair(zxz, w)
    out, wit = _strip(zxz, w)
    wit.validate(zxz)
    assert wit.start == 0 and wit.top == w
    assert len(out) == 2
    assert zxz_vector(zxz, out) == zxz_vector(zxz, w) == (2, 2)


def test_strip_witness_validate_rejects_tampering(zxz):
    w = parse_word(zxz, "(0,1) (1,1) (1,0)")
    wit = find_strip(zxz, w)
    wrong = zxz.identity if wit.output[0] != zxz.identity else zxz.nonidentity()[0]
    bad = StripWitness(start=wit.start, top=wit.top, diagonals=wit.diagonals,
                       output=(wrong,) + wit.output[1:])
    with pytest.raises(PreeError):
        bad.validate(zxz)


def test_strip_prefers_leftmost_start(zxz):
    # A length-3 strip exists at position 1, but position 0 carries a
    # length-4 strip and the leftmost start wins.
    w = parse_word(zxz, "(0,1) (0,1) (1,1) (1,0)")
    assert not _has_defined_pair(zxz, w)
    _, wit = _strip(zxz, w)
    wit.validate(zxz)
    assert wit.start == 0
    assert wit.top_length == 4


def test_strip_prefers_shortest_at_one_start(zxz):
    w = parse_word(zxz, "(0,1) (1,1) (1,0) (0,1)")
    _, wit = _strip(zxz, w)
    assert wit.start == 0
    assert wit.top_length == 3


def test_strongly_reduce_hits_the_metric(zxz):
    """The reduced length must equal the plane word metric, the oracle
    computed without any rewriting."""
    rng = random.Random(11)
    for _ in range(300):
        w = _random_word(rng, zxz, rng.randrange(1, 11))
        red, trace = strongly_reduce(zxz, w)
        x, y = zxz_vector(zxz, w)
        assert zxz_vector(zxz, red) == (x, y)
        d = zxz_distance(x, y)
        if d == 0:
            assert red == (zxz.identity,)
        else:
            assert len(red) == d
        assert apply_trace(zxz, w, trace) == red
        assert not _has_defined_pair(zxz, red)
        assert find_strip(zxz, red) is None


def test_strongly_reduce_on_full_table_is_left_fold(s3, q8):
    for p in (s3, q8):
        for n in range(1, 5):
            for w in all_words(p, n):
                red, _ = strongly_reduce(p, w)
                assert red == (table_fold(p, w),)


def test_strongly_reduce_without_products(taxicab):
    # Only inverse pairs contract; nothing else moves.
    w = parse_word(taxicab, "(1,0) (-1,0)")
    red, _ = strongly_reduce(taxicab, w)
    assert red == (taxicab.identity,)
    w2 = parse_word(taxicab, "(1,0) (0,1)")
    red2, _ = strongly_reduce(taxicab, w2)
    assert red2 == w2


def test_is_geodesic_word(zxz):
    assert not is_geodesic_word(zxz, ())
    assert not is_geodesic_word(zxz, (zxz.identity,))
    for a in zxz.nonidentity():
        assert is_geodesic_word(zxz, (a,))
    assert is_geodesic_word(zxz, parse_word(zxz, "(1,1) (1,1) (0,1)"))
    assert not is_geodesic_word(zxz, parse_word(zxz, "(0,1) (1,1) (1,0)"))
    assert not is_geodesic_word(zxz, parse_word(zxz, "(1,0) (0,1)"))


def test_geodesic_agrees_with_metric_on_short_words(zxz):
    for n in range(1, 5):
        for w in all_words(zxz, n):
            want = zxz_distance(*zxz_vector(zxz, w)) == len(w)
            assert is_geodesic_word(zxz, w) == want, render_word(zxz, w)


def test_trace_replay_rejects_mismatched_word(zxz):
    w = parse_word(zxz, "(0,1) (1,1) (1,0)")
    _, trace = strongly_reduce(zxz, w)
    other = parse_word(zxz, "(1,0) (1,0) (1,0)")
    with pytest.raises(PreeError):
        apply_trace(zxz, other, trace)
