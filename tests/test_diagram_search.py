"""The minimal-diagram search against the code it replaced.

``find_minimal_diagram`` runs A* on words coded one chr per letter, with
per-table move tables, and returns a diagram whose area equals
``max_area``.  The tuple search and its canonical form are kept in
``oracles.py`` as they were written before, as differential oracles: on
every input both answer, the diagrams must be identical, and where only
the new search answers, the area must be exactly ``max_area``.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from conftest import a2_fano_pree, dihedral_subtable, free_product_pree, load_fixture, solver_and_cycle_tables
from oracles import reference_canonical, reference_find_minimal_diagram
from preekit.diagrams import _canonical, _diagram_moves, _first_reading, find_minimal_diagram, grow_random
from preekit.pree import UNDEF
from preekit.words import inverse_word, parse_word


def fields(d):
    return None if d is None else (d.n_vertices, d.edges, d.faces, d.boundary)


# (table, areas grown, boundaries per area)
CASES = [
    ("zxz", range(2, 11), 8),
    ("s3", range(2, 10), 8),
    ("q8", range(2, 9), 6),
    ("z6", range(2, 9), 6),
    ("D_6/14", range(2, 10), 8),
    ("FP2", range(2, 11), 8),
    ("A2", range(2, 10), 8),
]


def case_table(name):
    if name == "D_6/14":
        return dihedral_subtable(6, 14, keep=0.3)
    if name == "FP2":
        return free_product_pree(load_fixture("zxz"))
    return a2_fano_pree() if name == "A2" else load_fixture(name)


@pytest.mark.parametrize("name,areas,per_area", CASES, ids=[c[0] for c in CASES])
def test_search_matches_reference(name, areas, per_area):
    p = case_table(name)
    rng = random.Random(1009)
    past_reference = 0
    for area in areas:
        for _ in range(per_area):
            w = grow_random(p, random.Random(rng.getrandbits(32)), area).boundary_word()
            r = rng.randrange(len(w))
            w = w[r:] + w[:r]
            want = reference_find_minimal_diagram(p, w, max_area=area + 1)
            assert want is not None
            assert fields(find_minimal_diagram(p, w, max_area=area + 1)) == fields(want)
            # slack above the minimal area lets both searches push children
            # that no pop reaches; the diagrams must not change
            slack = reference_find_minimal_diagram(p, w, max_area=area + 3)
            assert fields(find_minimal_diagram(p, w, max_area=area + 3)) == fields(slack)
            least = want.area
            d = find_minimal_diagram(p, w, max_area=least)
            assert d is not None and d.area == least
            # the reference misses a diagram whose area equals max_area,
            # unless w is itself a triangle word
            missed = reference_find_minimal_diagram(p, w, max_area=least)
            assert missed is None if least > 1 else fields(missed) == fields(d)
            assert w in {word for _, _, word in d.readings()}
            assert find_minimal_diagram(p, w, max_area=least - 1) is None
            past_reference += least > 1
    assert past_reference > 0


def test_every_reading_matches_reference():
    """All 18 readings of the area-9 boundary, at and above its area.

    Many paths of equal length reach the same words here, so the parent
    each word keeps, and with it the diagram, depends on the order in
    which nodes are popped and their children pushed.  The reference's
    bound is exclusive, so it runs one unit higher.
    """
    p = load_fixture("zxz")
    w = parse_word(p, " ".join(["(0,1)"] * 3 + ["(1,0)"] * 3 + ["(-1,-1)"] * 3))
    readings = [t[r:] + t[:r] for t in (w, inverse_word(p, w)) for r in range(len(w))]
    assert len(set(readings)) == 18
    for max_area in (9, 10, 12):
        for x in readings:
            want = reference_find_minimal_diagram(p, x, max_area=max_area + 1)
            assert want is not None and want.area == 9
            assert fields(find_minimal_diagram(p, x, max_area=max_area)) == fields(want)


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_digons_match_reference(name):
    """A digon a a^-1 has area 2: the search starts below a triangle word."""
    p = case_table(name)
    for a in range(1, p.size):
        w = (a, p.inv[a])
        for max_area in range(2, 6):
            want = reference_find_minimal_diagram(p, w, max_area=max_area + 1)
            assert want is not None and want.area == 2
            assert fields(find_minimal_diagram(p, w, max_area=max_area)) == fields(want)
        assert find_minimal_diagram(p, w, max_area=1) is None


def test_canonical_codes_large_alphabets():
    """The str encoding holds for letters far above one byte."""
    rng = random.Random(2027)
    top = 0
    for size in (300, 1000):
        ids = list(range(1, size))
        rng.shuffle(ids)
        inv = list(range(size))
        for a, b in zip(ids[::2], ids[1::2]):
            inv[a], inv[b] = b, a
        p = SimpleNamespace(inv=tuple(inv))
        for _ in range(400):
            # a few letters per word, so least letters repeat
            letters = rng.sample(range(size), rng.randrange(1, 6))
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(2, 14)))
            got = _canonical(dict(enumerate(inv)), "".join(map(chr, w)))
            assert tuple(map(ord, got)) == reference_canonical(p, w)
            # the search skips _canonical on a child that is already a key
            assert _canonical(dict(enumerate(inv)), got) == got
            top = max(top, *w)
    assert top > 900


READINGS_TABLES = solver_and_cycle_tables() + [
    ("FP2", free_product_pree(load_fixture("zxz"))),
    ("A2", a2_fano_pree()),
    # partial tables that often break an axiom
    ("D_7/3", dihedral_subtable(7, 3, keep=0.2)),
    ("D_4/8", dihedral_subtable(4, 8, keep=0.5)),
]


@pytest.mark.parametrize("name,p", READINGS_TABLES, ids=[t[0] for t in READINGS_TABLES])
def test_triangle_readings_table(name, p):
    """The readings table holds exactly the 3-letter words, over all |P|^3,
    that some rotation or direction reads as x1 x2 x3 with x1 x2 = x3^-1,
    each mapped to its canonical word."""
    inv, want = dict(enumerate(p.inv)), {}
    for w in itertools.product(range(p.size), repeat=3):
        readings = [t[r:] + t[:r] for t in (w, tuple(p.inv[a] for a in reversed(w))) for r in range(3)]
        if any(p.table[x1][x2] != UNDEF and p.table[x1][x2] == p.inv[x3] for x1, x2, x3 in readings):
            coded = "".join(map(chr, w))
            want[coded] = _canonical(inv, coded)
    assert 0 < len(want) < p.size ** 3
    assert _diagram_moves(p)[3] == want


def assert_first_readings(p, d):
    """_first_reading picks the first of d.readings() for every reading."""
    inv = dict(enumerate(p.inv))
    fwd = "".join(chr(d.side_label(s)) for s in d.boundary)
    readings = d.readings()
    for _, _, word in readings:
        exact = "".join(map(chr, word))
        first = next((s, dr) for s, dr, x in readings if x == word)
        assert _first_reading(inv, fwd, exact) == first
    return len(readings) - len({word for _, _, word in readings})


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_first_reading_matches_readings(name):
    p = case_table(name)
    rng = random.Random(4099)
    for _ in range(60):
        assert_first_readings(p, grow_random(p, random.Random(rng.getrandbits(32)), rng.randrange(1, 12)))
    # digons, and boundaries that are periodic or a rotation of their
    # inverse, have several readings of one word
    repeats = 0
    for a in range(1, p.size):
        for w in ((a, p.inv[a]), (a, p.inv[a]) * 2, (a,) * 3 + (p.inv[a],) * 3):
            d = find_minimal_diagram(p, w, max_area=8)
            if d is not None:
                repeats += assert_first_readings(p, d)
    assert repeats > 0
    a = next(x for x in range(p.size) if p.inv[x] != x)
    assert _first_reading(dict(enumerate(p.inv)), chr(a) + chr(p.inv[a]), chr(a) * 2) == (-1, 1)
