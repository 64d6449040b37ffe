"""Acceptance gate: twelve checks, one printed verdict line each.

Each test prints "criterion NN: pass/FAIL (detail)" through the capture
bypass so the verdicts always reach the terminal, then asserts.  The
numbers pinned here (ball sizes, word counts, separation bounds) are
frozen expectations; a run that changes them is a behavior change and
must be investigated, not re-pinned.
"""

import itertools
import os
import random
import time

from conftest import GOLDEN, GOLDEN_CASES, _run, fixture_path, load_fixture
from oracles import nfa_accepts, reference_canonical, table_fold
from preekit.diagrams import diagram_stats, find_minimal_diagram, grow_random, curvature_check
from preekit.fsa import FiniteAutomaton, combing_acceptor, geodesic_acceptor, word_difference_machine
from preekit.group import (
    bfs_identity_oracle,
    cayley_ball,
    equals_identity,
    fellow_traveler_check,
    verify_embedding,
    verify_short_identities,
    verify_surjectivity,
)
from preekit.pree import check_axiom, validate_pree
from preekit.words import parse_word


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print("criterion %02d: %s (%s)" % (num, "pass" if ok else "FAIL", detail))
    assert ok, detail


def test_c01_validation_and_axioms(capsys):
    t0 = time.perf_counter()
    zxz = load_fixture("zxz")
    ok = validate_pree(zxz).ok
    ok = ok and check_axiom(zxz, 4) is None and check_axiom(zxz, 5) is None
    elapsed = time.perf_counter() - t0

    c4 = load_fixture("cycle4")
    w4 = check_axiom(c4, 4)
    ok = ok and w4 is not None and [c4.name(a) for a in w4.cycle] == ["x1", "x2", "x3", "x4"]
    ok = ok and check_axiom(c4, 5) is None

    c5 = load_fixture("cycle5")
    w5 = check_axiom(c5, 5)
    ok = ok and w5 is not None and [c5.name(a) for a in w5.cycle] == ["x1", "x2", "x3", "x4", "x5"]
    ok = ok and check_axiom(c5, 4) is None

    ok = ok and elapsed < 1.0
    _verdict(capsys, 1, ok, "validate+axioms %.3fs, planted witnesses recovered" % elapsed)


def test_c02_short_identity_words(capsys):
    zxz = load_fixture("zxz")
    t0 = time.perf_counter()
    rep = verify_short_identities(zxz)
    elapsed = time.perf_counter() - t0
    counted = any("words checked: 19208" in n for n in rep.notes)
    ok = rep.ok and counted and elapsed < 30.0
    _verdict(capsys, 2, ok, "19208 words, 0 irreducible identities, %.2fs" % elapsed)


def test_c03_curvature_on_random_diagrams(capsys, zxz, s3):
    rng = random.Random(101)
    built = 0
    exact = True
    biggest = 0
    for p in (zxz, s3):
        for _ in range(500):
            d = grow_random(p, rng, rng.randrange(1, 21))
            lhs, rhs, same = curvature_check(d)
            exact = exact and same
            built += 1
            biggest = max(biggest, d.area)
    ok = exact and built >= 1000
    _verdict(capsys, 3, ok, "%d diagrams, max area %d, identity exact" % (built, biggest))


def test_c04_solver_against_oracle(capsys, zxz):
    disagreements = undecided = identities = 0
    for w in itertools.product(zxz.elements(), repeat=5):
        s = equals_identity(zxz, w)
        o = bfs_identity_oracle(zxz, w, length_bound=12)
        identities += s
        if o is None:
            undecided += 1
        elif o != s:
            disagreements += 1
    rng = random.Random(202)
    for _ in range(10000):
        w = tuple(rng.randrange(zxz.size) for _ in range(rng.randrange(1, 9)))
        s = equals_identity(zxz, w)
        o = bfs_identity_oracle(zxz, w, length_bound=12)
        if o is None:
            undecided += 1
        elif o != s:
            disagreements += 1
    ok = disagreements == 0 and undecided == 0 and identities == 991
    _verdict(
        capsys, 4,
        ok,
        "7^5 + 10000 words, %d disagreements, %d undecided, %d identities"
        % (disagreements, undecided, identities),
    )


def test_c05_geodesic_acceptor_is_the_metric(capsys, zxz):
    acc = geodesic_acceptor(zxz)
    ball = cayley_ball(zxz, 6)
    mismatches = 0
    total = 0
    for n in range(6):
        for w in itertools.product(zxz.elements(), repeat=n):
            e = ball.element_of_word(w)
            want = e is not None and ball.dist[e] == len(w)
            if acc.accepts(w) != want:
                mismatches += 1
            total += 1
    ok = mismatches == 0
    ok = ok and acc.accepts(parse_word(zxz, "(1,1)(1,1)(0,1)"))
    ok = ok and not acc.accepts(parse_word(zxz, "(0,1)(1,1)(1,0)"))
    _verdict(capsys, 5, ok, "%d words, %d mismatches, pinned pair behaves" % (total, mismatches))


def test_c06_embedding(capsys, zxz, s3, z6, q8):
    ok = True
    for p in (zxz, s3, z6, q8):
        ok = ok and verify_embedding(p).ok
    size = cayley_ball(zxz, 1).size
    ok = ok and size == 7
    _verdict(capsys, 6, ok, "four tables embed, radius-1 ball has %d elements" % size)


def test_c07_full_tables_saturate(capsys, s3, z6, q8):
    ok = True
    pairs = 0
    for p, order in ((s3, 6), (z6, 6), (q8, 8)):
        ok = ok and cayley_ball(p, 1).size == order
        ok = ok and cayley_ball(p, 2).size == order
        for a in p.elements():
            for b in p.elements():
                want = table_fold(p, (a, b)) == p.identity
                ok = ok and equals_identity(p, (a, b)) == want
                pairs += 1
    _verdict(capsys, 7, ok, "balls stop at group order, %d product pairs agree" % pairs)


def test_c08_minimal_diagrams_for_identity_words(capsys, zxz):
    letters = zxz.nonidentity()
    per_length = {}
    classes = set()
    for n in range(2, 7):
        cnt = 0
        for w in itertools.product(letters, repeat=n):
            if bfs_identity_oracle(zxz, w, length_bound=12) is True:
                cnt += 1
                classes.add(reference_canonical(zxz, w))
        per_length[n] = cnt
    ok = per_length == {2: 6, 3: 12, 4: 90, 5: 360, 6: 2040}

    # The degree bound assumes boundary length >= 3; the only shorter
    # identity words are the aa^-1 digons, which the hub clause covers.
    found = 0
    tight = 0
    degree2 = 0
    for c in sorted(classes):
        d = find_minimal_diagram(zxz, c, max_area=12)
        if d is None:
            ok = False
            continue
        found += 1
        s = diagram_stats(d)
        if len(c) >= 3:
            lhs = 2 * s.delta2 + s.delta3
            rhs = 6 + s.delta5
            ok = ok and lhs >= rhs
            if lhs == rhs:
                tight += 1
                ok = ok and all(x == 6 for x in s.internal_degrees)
        if any(x == 2 for x in s.internal_degrees):
            degree2 += 1
            bw = d.boundary_word()
            ok = ok and d.area == 2 and len(bw) == 2 and bw[1] == zxz.inv[bw[0]]
    ok = ok and found == len(classes) and tight > 0 and degree2 == 3
    _verdict(
        capsys, 8,
        ok,
        "2508 identity words in %d classes, all found, %d tight, %d with a degree-2 hub"
        % (len(classes), tight, degree2),
    )


def test_c09_combed_words_reach_everything(capsys, zxz, s3, z6, q8):
    ok = verify_surjectivity(zxz, combing_acceptor(zxz), 6).ok
    for p in (s3, z6, q8):
        ok = ok and verify_surjectivity(p, combing_acceptor(p), 6).ok
    size = cayley_ball(zxz, 6).size
    ok = ok and size == 127
    _verdict(capsys, 9, ok, "radius-6 ball of %d elements covered at geodesic length" % size)


def test_c10_fellow_traveling_reproducible(capsys, zxz):
    rep1 = fellow_traveler_check(zxz, combing_acceptor(zxz), 6, 5)
    rep2 = fellow_traveler_check(zxz, combing_acceptor(zxz), 6, 5)
    same = (
        rep1.max_separation == rep2.max_separation
        and rep1.words_checked == rep2.words_checked
        and rep1.pairs_checked == rep2.pairs_checked
        and rep1.worst_u == rep2.worst_u
        and rep1.worst_v == rep2.worst_v
    )
    ok = rep1.ok and same and rep1.max_separation == 3
    machine = word_difference_machine(zxz, combing_acceptor(zxz), 5, 6)
    ok = ok and isinstance(machine, FiniteAutomaton) and machine.n_states == 21262
    _verdict(
        capsys, 10,
        ok,
        "max separation %d twice, difference machine with %s states"
        % (rep1.max_separation, getattr(machine, "n_states", "no")),
    )


def test_c11_automaton_algebra_random(capsys):
    rng = random.Random(301)
    words = [w for n in range(11) for w in itertools.product("ab", repeat=n)]
    bad = 0
    for _ in range(100):
        n = rng.randrange(1, 9)
        trans = {}
        for s in range(n):
            for sym in "ab":
                ts = [t for t in range(n) if rng.random() < 0.3]
                if ts:
                    trans[(s, sym)] = tuple(ts)
        m = FiniteAutomaton(
            n, "ab", trans,
            [s for s in range(n) if rng.random() < 0.4] or [0],
            [s for s in range(n) if rng.random() < 0.4],
        )
        direct = [w for w in words if nfa_accepts(m, w)]
        accepted = set(direct)
        rest = [w for w in words if w not in accepted]
        key = lambda w: (len(w), tuple("ab".index(s) for s in w))
        if m.determinize().enumerate_words(10) != direct:
            bad += 1
        elif m.minimize().enumerate_words(10) != direct:
            bad += 1
        elif m.complement().enumerate_words(10) != sorted(rest, key=key):
            bad += 1
    _verdict(capsys, 11, bad == 0, "100 machines through determinize/minimize/complement, %d broken" % bad)


def test_c12_cli_verify_and_goldens(capsys):
    code, _, _ = _run(["verify", fixture_path("zxz")])
    ok = code == 0
    stable = 0
    for name, argv, want in GOLDEN_CASES:
        got_code, out, _ = _run(argv)
        with open(os.path.join(GOLDEN, name + ".txt")) as fh:
            if got_code == want and out == fh.read():
                stable += 1
            else:
                ok = False
    _verdict(
        capsys, 12,
        ok and stable == len(GOLDEN_CASES),
        "verify exits 0, %d/%d golden transcripts byte-identical" % (stable, len(GOLDEN_CASES)),
    )
