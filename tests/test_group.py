"""Axiom checking, the identity solvers, balls, and fellow traveling.

The lattice table is checked against plane vectors, the free table
against stack cancellation, the full tables against direct folding, and
the faster searches against the code they replaced (``oracles.py``).
"""

import dataclasses
import gc
import itertools
import random
import weakref

import pytest

from conftest import (
    a2_fano_pree,
    a2_sphere_size,
    corrupt_cyclic_pree,
    cyclic_pree,
    dihedral_subtable,
    fixture_path,
    load_fixture,
    solver_and_cycle_tables,
    solver_tables,
)
from oracles import (
    build_ball,
    free_reduce,
    reference_check_axiom,
    reference_lattice_contains,
    reference_short_identities,
    table_fold,
    zxz_distance,
    zxz_vector,
)
from preekit import cli, group, pree
from preekit.fsa import FiniteAutomaton, combing_acceptor, word_difference_machine
from preekit.group import (
    abelian_obstruction,
    axioms_hold,
    bfs_identity_oracle,
    cayley_ball,
    equals_identity,
    fellow_traveler_check,
    neighbor_pairs,
    sync_separation,
    verify_embedding,
    verify_short_identities,
    verify_surjectivity,
)
from preekit.pree import UNDEF, PreeError, check_axiom
from preekit.words import parse_word


ALL_FIXTURES = ("zxz", "s3", "z6", "q8", "taxicab", "cycle4", "cycle5", "broken_closure")


def _axiom_outcome(search, p, n):
    try:
        return search(p, n)
    except PreeError as exc:
        return "raised: %s" % exc


def _plane_ball_count(r):
    return sum(1 for x in range(-r, r + 1) for y in range(-r, r + 1)
               if zxz_distance(x, y) <= r)


def test_axioms_hold_on_all_good_fixtures(zxz, s3, z6, q8, taxicab):
    for p in (zxz, s3, z6, q8, taxicab):
        assert check_axiom(p, 4) is None
        assert check_axiom(p, 5) is None
        assert axioms_hold(p)


def test_cycle_fixtures_fail_exactly_one_axiom(cycle4, cycle5):
    w4 = check_axiom(cycle4, 4)
    assert w4 is not None
    assert [cycle4.name(a) for a in w4.cycle] == ["x1", "x2", "x3", "x4"]
    assert check_axiom(cycle4, 5) is None

    w5 = check_axiom(cycle5, 5)
    assert w5 is not None
    assert [cycle5.name(a) for a in w5.cycle] == ["x1", "x2", "x3", "x4", "x5"]
    assert check_axiom(cycle5, 4) is None


def test_axiom_witness_is_a_real_counterexample(cycle4):
    w = check_axiom(cycle4, 4)
    n = len(w.cycle)
    for i in range(n):
        q = cycle4.product(cycle4.inv[w.cycle[i]], w.cycle[(i + 1) % n])
        assert q == w.quotients[i]
    for i in range(n):
        assert cycle4.product(w.quotients[i], w.quotients[(i + 1) % n]) is None


def test_check_axiom_rejects_other_lengths(zxz):
    with pytest.raises(PreeError):
        check_axiom(zxz, 3)


def test_check_axiom_matches_unpruned_search():
    tables = [(name, load_fixture(name)) for name in ALL_FIXTURES]
    tables += [("Z_%d" % n, cyclic_pree(n, seed=n)) for n in range(5, 11)]
    tables += [("D_6/%d" % seed, dihedral_subtable(6, seed)) for seed in range(10)]
    for name, p in tables:
        for n in (4, 5):
            want = _axiom_outcome(reference_check_axiom, p, n)
            assert _axiom_outcome(check_axiom, p, n) == want, (name, n)


def test_axiom_witnesses_stay_out_of_equality():
    a, b = load_fixture("cycle4"), load_fixture("cycle4")
    assert a.axiom_witnesses[0] is not None
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    a, b = load_fixture("zxz"), load_fixture("zxz")
    before = hash(a), repr(a)
    cayley_ball(a, 2)
    abelian_obstruction(a)
    assert a.factorizations
    assert a == b and (hash(a), repr(a)) == before == (hash(b), repr(b))


def test_tables_are_freed_after_use():
    p = load_fixture("zxz")
    cayley_ball(p, 2)
    abelian_obstruction(p)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_axiom_witnesses_are_searched_once_per_table(monkeypatch):
    calls = []

    def counting(p, n):
        calls.append(n)
        return check_axiom(p, n)

    # every module-level binding, so a caller holding its own reference counts too
    for module in (pree, group, cli):
        if hasattr(module, "check_axiom"):
            monkeypatch.setattr(module, "check_axiom", counting)
    for name in ("s3", "z6", "cycle4", "cycle5", "broken_closure"):
        calls.clear()
        cli.main(["verify", fixture_path(name)])
        assert calls == [4, 5], name


def test_tables_are_validated_once_per_command(monkeypatch):
    calls = []
    validate = pree.validate_pree
    for module in (pree, group, cli):
        if hasattr(module, "validate_pree"):
            monkeypatch.setattr(module, "validate_pree", lambda p: calls.append(p) or validate(p))
    for argv in (["verify", fixture_path("zxz")], ["reduce", fixture_path("zxz"), "(1,0) (0,1)"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == 1, argv


def test_obstruction_rules_out_unbalanced_words(taxicab, zxz):
    x = taxicab.id_of("(1,0)")
    assert bfs_identity_oracle(taxicab, (x, x)) is False
    obs = abelian_obstruction(zxz)
    w = parse_word(zxz, "(1,0) (1,0) (-1,0)")
    assert not obs.might_be_identity(w)


def test_residue_is_an_element_invariant(zxz):
    obs = abelian_obstruction(zxz)
    rng = random.Random(5)
    letters = zxz.nonidentity()
    for _ in range(100):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
        a = rng.choice(letters)
        padded = w + (a, zxz.inv[a])
        assert obs.residue(w) == obs.residue(padded)
        assert obs.residue(w) == obs.residue(w + (zxz.identity,))


def _word_congruent_to(p, obs, vec):
    """A word whose vector equals vec modulo the lattice.  The column of
    a*inv(a) = 1 is e_a + e_inv(a), so -e_a is e_inv(a) modulo it."""
    counts = dict.fromkeys(obs.index, 0)
    for a, i in obs.index.items():
        counts[a if vec[i] >= 0 else p.inv[a]] += abs(vec[i])
    return tuple(a for a in counts for _ in range(counts[a]))


def test_residue_membership_matches_reference_loop():
    tables = solver_and_cycle_tables()
    tables.append(("broken_closure", load_fixture("broken_closure")))
    rng = random.Random(29)
    verdicts = set()
    for name, p in tables:
        obs = abelian_obstruction(p)
        letters = p.nonidentity()
        for _ in range(300):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 10)))
            want = reference_lattice_contains(obs, obs.vector(w))
            assert obs.might_be_identity(w) == want, (name, w)
            verdicts.add(want)
        for _ in range(300):
            # a lattice vector, half the time moved off by one unit
            vec = [0] * len(obs.index)
            for _, col in obs.pivots:
                k = rng.randrange(-3, 4)
                vec = [x + k * c for x, c in zip(vec, col)]
            if rng.random() < 0.5:
                vec[rng.randrange(len(vec))] += 1
            want = reference_lattice_contains(obs, vec)
            w = _word_congruent_to(p, obs, vec)
            assert reference_lattice_contains(obs, obs.vector(w)) == want, (name, vec)
            assert obs.might_be_identity(w) == want, (name, vec)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_bfs_oracle_verdicts(zxz, taxicab):
    assert bfs_identity_oracle(zxz, parse_word(zxz, "(1,0) (-1,0)")) is True
    assert bfs_identity_oracle(zxz, parse_word(zxz, "(1,1) (-1,0) (0,-1)")) is True
    assert bfs_identity_oracle(zxz, parse_word(zxz, "(0,1)")) is False
    # Free commutator: balanced letter counts, still not the identity.
    w = parse_word(taxicab, "(1,0) (0,1) (-1,0) (0,-1)")
    assert bfs_identity_oracle(taxicab, w, length_bound=6) is None


def test_bfs_oracle_rejects_empty_word(zxz):
    with pytest.raises(PreeError):
        bfs_identity_oracle(zxz, ())


def test_equals_identity_matches_vector_oracle(zxz):
    for n in range(1, 4):
        for w in itertools.product(zxz.elements(), repeat=n):
            want = zxz_vector(zxz, w) == (0, 0)
            assert equals_identity(zxz, w) == want
    rng = random.Random(17)
    letters = zxz.nonidentity()
    for _ in range(400):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 9)))
        assert equals_identity(zxz, w) == (zxz_vector(zxz, w) == (0, 0))


def test_equals_identity_matches_free_oracle(taxicab):
    rng = random.Random(23)
    letters = taxicab.nonidentity()
    for _ in range(400):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 9)))
        assert equals_identity(taxicab, w) == (free_reduce(taxicab, w) == ())


def test_equals_identity_on_full_tables(s3, z6, q8):
    for p in (s3, z6, q8):
        for a in p.elements():
            for b in p.elements():
                want = table_fold(p, (a, b)) == p.identity
                assert equals_identity(p, (a, b)) == want


def test_equals_identity_needs_axioms(cycle4):
    with pytest.raises(PreeError):
        equals_identity(cycle4, (1, 2))


def test_solver_problem_names_the_reason(zxz, cycle4, cycle5):
    assert zxz.solver_problem is None and axioms_hold(zxz)
    for p in (cycle4, cycle5):
        assert p.solver_problem == "a short-cycle axiom fails"
    p = corrupt_cyclic_pree()
    first = pree.validate_pree(p).problems[0]
    assert first.startswith("closure violation")
    assert p.axiom_witnesses == (None, None)
    assert p.solver_problem == "the table is invalid: " + first
    assert not axioms_hold(p)


def test_solver_refuses_an_invalid_table():
    """Both axioms hold on the corrupt Z_6, so an axioms-only gate would
    let the solver, the ball and the combing answer on it."""
    p = corrupt_cyclic_pree()
    first = pree.validate_pree(p).problems[0]
    for build in (
        lambda: equals_identity(p, (1, 2, 2)),
        lambda: cayley_ball(p, 2),
        lambda: combing_acceptor(p),
    ):
        with pytest.raises(PreeError) as info:
            build()
        assert "short-cycle axioms" in str(info.value)
        assert first in str(info.value)


def test_verify_sweeps_assert_nothing_on_an_invalid_table():
    p = corrupt_cyclic_pree()
    note = "precondition unmet: the table is invalid: %s, nothing asserted" % pree.validate_pree(p).problems[0]
    for check in (verify_embedding, verify_short_identities):
        rep = check(p)
        assert rep.ok and rep.notes == [note], check.__name__


def test_ball_sizes_match_plane_count(zxz):
    for r in range(5):
        ball = cayley_ball(zxz, r)
        assert ball.size == _plane_ball_count(r) == 3 * r * (r + 1) + 1


def test_ball_sizes_match_free_count(taxicab):
    for r in range(5):
        assert cayley_ball(taxicab, r).size == 2 * 3 ** r - 1


def test_a2_table_is_a_solver_table():
    p = a2_fano_pree()
    assert p.size == 15
    assert p.validation.ok, p.validation.problems
    assert p.solver_problem is None


def test_a2_ball_sizes_match_the_building_count():
    p = a2_fano_pree()
    sizes = [cayley_ball(p, r).size for r in range(4)]
    assert sizes == [sum(a2_sphere_size(k) for k in range(r + 1)) for r in range(4)]
    assert sizes == [1, 15, 113, 673]


def test_a2_verify_sweeps_pass():
    p = a2_fano_pree()
    emb = verify_embedding(p)
    assert emb.ok and emb.problems == []
    shorts = verify_short_identities(p)
    assert shorts.ok and shorts.problems == []
    assert shorts.notes == ["words checked: 810000, identity words found: 7660"]


def test_ball_is_cached(zxz):
    assert cayley_ball(zxz, 2) is cayley_ball(zxz, 2)


def _ball_tables():
    """Tables with the radii their snapshots are checked at."""
    tables = [(name, load_fixture(name), range(9)) for name in ("zxz", "s3", "z6", "q8")]
    tables.append(("taxicab", load_fixture("taxicab"), range(6)))
    tables += [("Z_%d" % n, cyclic_pree(n, seed=n), range(9)) for n in (7, 8, 9)]
    return tables


def test_every_snapshot_equals_a_fresh_build(monkeypatch):
    """Whatever radii are asked, in whatever order, each ball equals a fresh
    build of that radius, and the table's one build reduces each candidate
    word once: as often as one fresh build of the largest radius does."""
    reduce = group.strongly_reduce
    reduced = []
    monkeypatch.setattr(group, "strongly_reduce", lambda q, w: reduced.append(w) or reduce(q, w))
    rng = random.Random(16)
    for name, p, radii in _ball_tables():
        want = {r: build_ball(p, r, "dehn") for r in radii}
        reduced.clear()
        cayley_ball(dataclasses.replace(p), max(radii))
        once = len(reduced)
        orders = [list(reversed(radii))] + [rng.sample(radii, len(radii)) for _ in range(2)]
        for order in orders:
            q = dataclasses.replace(p)  # an equal table with an empty store
            reduced.clear()
            for r in order:
                assert cayley_ball(q, r) == want[r], (name, order, r)
            assert len(reduced) == once, (name, order)


def test_oracle_snapshots_equal_fresh_builds_at_the_bound_of_the_radius_asked(monkeypatch):
    """Layers grown for radius r search to length 2r + 6, as a fresh build of
    radius r does; a snapshot of layers already grown runs no search."""
    p = load_fixture("zxz")
    search = group.bfs_identity_oracle
    bounds = []
    monkeypatch.setattr(
        group, "bfs_identity_oracle",
        lambda q, w, length_bound: bounds.append(length_bound) or search(q, w, length_bound=length_bound),
    )
    for r, grown in ((2, {10}), (0, set()), (1, set()), (3, {12})):
        bounds.clear()
        assert cayley_ball(p, r, method="oracle") == build_ball(load_fixture("zxz"), r, "oracle"), r
        assert set(bounds) == grown, r


def test_a_growth_that_raises_leaves_no_half_grown_build(monkeypatch):
    """After a raise in the middle of a layer, the next call builds afresh."""
    p = load_fixture("zxz")
    cayley_ball(p, 1)
    # the zxz ball of radius 3 has 37 elements; 36 lets a part of layer 3 in
    monkeypatch.setattr(group, "BALL_ELEMENT_CAP", 36)
    with pytest.raises(PreeError, match="ball exceeds element cap"):
        cayley_ball(p, 4)
    monkeypatch.undo()
    assert cayley_ball(p, 4) == build_ball(load_fixture("zxz"), 4, "dehn")

    p = load_fixture("zxz")
    cayley_ball(p, 1, method="oracle")
    search = group.bfs_identity_oracle
    calls = []

    def undecided_after_three(q, w, length_bound):
        calls.append(w)
        return None if len(calls) > 3 else search(q, w, length_bound=length_bound)

    # radius 2 makes six searches, so the fourth one fails inside layer 2
    monkeypatch.setattr(group, "bfs_identity_oracle", undecided_after_three)
    with pytest.raises(PreeError, match="oracle undecided"):
        cayley_ball(p, 3, method="oracle")
    monkeypatch.undo()
    assert cayley_ball(p, 3, method="oracle") == build_ball(load_fixture("zxz"), 3, "oracle")


def test_ball_past_the_element_cap_raises(monkeypatch):
    # the zxz ball of radius 3 has 37 elements
    monkeypatch.setattr(group, "BALL_ELEMENT_CAP", 36)
    with pytest.raises(PreeError, match="ball exceeds element cap"):
        cayley_ball(load_fixture("zxz"), 3)


def test_ball_reps_biject_onto_the_plane_ball(zxz):
    r = 3
    ball = cayley_ball(zxz, r)
    seen = {}
    for e in range(ball.size):
        w = ball.reps[e]
        assert len(w) == ball.dist[e]
        v = zxz_vector(zxz, w)
        assert zxz_distance(*v) == ball.dist[e]
        assert v not in seen
        seen[v] = e
    assert ball.reps[0] == ()
    assert len(seen) == _plane_ball_count(r)


def test_ball_step_rows_are_sound_and_interior_total(zxz):
    r = 3
    ball = cayley_ball(zxz, r)
    vecs = [zxz_vector(zxz, ball.reps[e]) for e in range(ball.size)]
    for e in range(ball.size):
        for x in zxz.nonidentity():
            vx, vy = zxz_vector(zxz, (x,))
            want = (vecs[e][0] + vx, vecs[e][1] + vy)
            f = ball.step[e][x]
            if f != -1:
                assert vecs[f] == want
            elif ball.dist[e] < r:
                # interior rows only point outside when the target is outside
                assert zxz_distance(*want) > r


def test_ball_left_rows_multiply_on_the_left(s3):
    ball = cayley_ball(s3, 2)
    assert ball.size == 6
    fold = [table_fold(s3, ball.reps[e]) for e in range(ball.size)]
    for e in range(ball.size):
        for x in s3.nonidentity():
            f = ball.step[e][x]
            g = ball.left[e][x]
            assert f != -1 and g != -1
            assert fold[f] == s3.product(fold[e], x)
            assert fold[g] == s3.product(x, fold[e])


def test_ball_left_row_of_the_identity_is_its_step_row():
    # x * 1 = 1 * x, so the root's left row needs no lookups of its own
    for name in ("zxz", "s3", "z6", "q8", "taxicab", "cycle4", "cycle5"):
        p = load_fixture(name)
        # the oracle decides the cycle tables' balls up to radius 1
        method, radii = ("dehn", range(5)) if axioms_hold(p) else ("oracle", range(2))
        for r in radii:
            ball = cayley_ball(p, r, method=method)
            assert ball.left[0] == ball.step[0], (name, r)


def test_oracle_ball_of_radius_zero_is_the_identity(s3, q8):
    # the root's left row holds no letters at radius 0, so no oracle search runs
    for p in (s3, q8):
        ball = cayley_ball(p, 0, method="oracle")
        assert ball.size == 1
        assert ball.left[0] == ball.step[0]


def test_full_table_balls_saturate(s3, z6, q8):
    for p, order in ((s3, 6), (z6, 6), (q8, 8)):
        assert cayley_ball(p, 1).size == order
        assert cayley_ball(p, 2).size == order


def test_element_of_word_follows_the_step_table(zxz):
    ball = cayley_ball(zxz, 2)
    w = parse_word(zxz, "(1,0) (0,1)")
    e = ball.element_of_word(w)
    assert e is not None
    assert zxz_vector(zxz, ball.reps[e]) == (1, 1)
    # a prefix that leaves the ball kills the walk even if the endpoint
    # would fit
    out = parse_word(zxz, "(1,0) (1,0) (1,0) (-1,0)")
    assert ball.element_of_word(out) is None


def test_ball_rejects_negative_radius(zxz):
    with pytest.raises(PreeError):
        cayley_ball(zxz, -1)


def test_oracle_ball_agrees_with_dehn_ball(zxz):
    for r in range(3):
        assert cayley_ball(zxz, r, method="oracle").size == cayley_ball(zxz, r).size


def test_verify_embedding_passes_on_good_fixtures(zxz, s3, z6, q8, taxicab):
    for p in (zxz, s3, z6, q8, taxicab):
        rep = verify_embedding(p)
        assert rep.ok, rep.problems


def test_verify_embedding_asserts_nothing_without_axioms(cycle4):
    rep = verify_embedding(cycle4)
    assert rep.ok
    assert any("precondition" in n for n in rep.notes)


def test_verify_short_identities(zxz, s3, taxicab):
    for p in (zxz, s3, taxicab):
        rep = verify_short_identities(p)
        assert rep.ok, rep.problems


def test_short_identities_match_per_word_solver():
    for name, p in solver_tables():
        assert axioms_hold(p), name
        got, want = verify_short_identities(p), reference_short_identities(p)
        assert (got.ok, got.problems, got.notes) == (want.ok, want.problems, want.notes), name


def test_short_identities_list_irreducible_words_in_word_order(monkeypatch):
    """With every irreducible 4- and 5-letter word called the identity, the
    report lists the same words in the same order as the per-word loop."""
    irreducible = lambda p, w: len(w) in (4, 5) and all(p.table[a][b] == UNDEF for a, b in zip(w, w[1:]))
    solver, decide = group.equals_identity, group.CayleyBall.is_identity
    for name in ("zxz", "taxicab"):
        # the ball is built by the true solver before either decision is patched
        p = load_fixture(name)
        cayley_ball(p, 3)
        monkeypatch.setattr(group.CayleyBall, "is_identity", lambda b, w: irreducible(b.pree, w) or decide(b, w))
        monkeypatch.setattr(group, "equals_identity", lambda q, w: irreducible(q, w) or solver(q, w))
        got = verify_short_identities(p)
        want = reference_short_identities(load_fixture(name))
        monkeypatch.undo()
        assert got.problems, name
        assert got.problems == want.problems, name


def test_short_identity_sweep_keeps_no_five_letter_folds():
    """A sparse table has about (|P|-1)^5 folds; the sweep stores a verdict
    on none of them, only the radius-3 ball that it reads."""
    p = load_fixture("taxicab")
    verify_short_identities(p)
    for key, value in p._derived.items():
        assert isinstance(key, str) or key == ("cayley_ball", 3, "dehn"), key
        assert not (isinstance(value, dict) and any(isinstance(k, tuple) for k in value)), key


def test_verify_short_identities_asserts_nothing_without_axioms(cycle4, cycle5):
    for p in (cycle4, cycle5):
        rep = verify_short_identities(p)
        assert rep.ok and not rep.problems
        assert rep.notes == ["precondition unmet: a short-cycle axiom fails, nothing asserted"]


def test_verify_surjectivity(zxz, s3):
    assert verify_surjectivity(zxz, combing_acceptor(zxz), 3).ok
    assert verify_surjectivity(s3, combing_acceptor(s3), 2).ok


def test_fellow_traveler_frozen_run(zxz):
    rep = fellow_traveler_check(zxz, combing_acceptor(zxz), 4, 5)
    assert rep.ok
    assert rep.words_checked == 121
    assert rep.pairs_checked == 672
    assert rep.max_separation == 2
    # replay the reported worst pair through the raw separation routine
    arena = cayley_ball(zxz, 7)
    sep, over = sync_separation(arena, rep.worst_u, rep.worst_v)
    assert (sep, over) == (2, False)


def test_fellow_traveler_full_table(s3):
    rep = fellow_traveler_check(s3, combing_acceptor(s3), 2, 5)
    assert rep.ok
    assert rep.max_separation <= 1


def test_fellow_ball_is_bounded_by_the_word_length():
    """Same-time prefixes of words of length <= 2 differ by at most 4, so
    target 30 needs no ball past radius 5 and reads as target 3 does; the
    word-difference machine reuses the check's ball."""
    p = load_fixture("taxicab")
    lang = combing_acceptor(p)
    far = fellow_traveler_check(p, lang, 2, 30)
    assert far == dataclasses.replace(fellow_traveler_check(p, lang, 2, 3), target=30)
    assert isinstance(word_difference_machine(p, lang, 30, 2), FiniteAutomaton)
    radii = [key[1] for key in p._derived if key[0] == "cayley_ball"]
    assert max(radii) == 5


def test_neighbor_pairs_match_brute_force(zxz):
    words = [tuple(w) for w in combing_acceptor(zxz).enumerate_words(4)]
    got = list(neighbor_pairs(zxz, cayley_ball(zxz, 5), words))
    steps = {(0, 0)} | {zxz_vector(zxz, (g,)) for g in zxz.nonidentity()}
    want = set()
    for u, v in itertools.combinations(words, 2):
        (ux, uy), (vx, vy) = zxz_vector(zxz, u), zxz_vector(zxz, v)
        if (vx - ux, vy - uy) in steps:
            want.add(frozenset((u, v)))
    assert len(got) == len({frozenset(pair) for pair in got}) == 672
    assert {frozenset(pair) for pair in got} == want
    with pytest.raises(PreeError, match="leaves the ball"):
        list(neighbor_pairs(zxz, cayley_ball(zxz, 1), words))


def test_sync_separation_identities(zxz):
    arena = cayley_ball(zxz, 3)
    w = parse_word(zxz, "(1,0) (0,1)")
    assert sync_separation(arena, w, w) == (0, False)
    x = parse_word(zxz, "(1,0)")
    assert sync_separation(arena, x, ()) == (1, False)
