"""Triangulated discs: moves, curvature bookkeeping, minimal search.

Minimal areas are cross-checked by a forward breadth-first search over
boundary words (``oracles.forward_min_area``) that shares no code with
the production A* search.
"""

import random

import pytest

from oracles import forward_min_area, reference_canonical, reference_diagram_stats, zxz_vector
from preekit.diagrams import (
    DiagramError,
    _fold,
    attach_triangle,
    curvature_check,
    diagram_from_strip,
    diagram_stats,
    diagram_to_dot,
    diagram_to_text,
    fan_diagram,
    find_minimal_diagram,
    grow_random,
    reduce_internal_vertex,
    single_triangle,
)
from preekit.words import find_strip, inverse_word, parse_word


def _tri(zxz):
    a = zxz.id_of("(1,0)")
    b = zxz.id_of("(0,1)")
    return single_triangle(zxz, a, b)  # third side reads (-1,-1)


def test_single_triangle_reading(zxz):
    d = _tri(zxz)
    assert d.area == 1
    assert d.boundary_word() == parse_word(zxz, "(1,0) (0,1) (-1,-1)")
    lhs, rhs, ok = curvature_check(d)
    assert ok and lhs == 6


def test_single_triangle_needs_defined_product(taxicab):
    with pytest.raises(DiagramError):
        single_triangle(taxicab, taxicab.id_of("(1,0)"), taxicab.id_of("(0,1)"))


def test_readings_cover_rotations_and_reversal(zxz):
    d = _tri(zxz)
    rs = d.readings()
    assert len(rs) == 6
    words = {r for _, _, r in rs}
    w = d.boundary_word()
    assert w in words
    assert inverse_word(zxz, w) in words


def test_attach_split_then_remove_restores_boundary(zxz):
    d = _tri(zxz)
    x = d.side_label(d.boundary[0])
    pairs = [(a, b) for a, b, c in zxz.defined_pairs() if c == x]
    e, f = pairs[0]
    d2 = attach_triangle(d, 0, (e, f))
    assert d2.area == 2
    assert len(d2.boundary) == len(d.boundary) + 1
    assert curvature_check(d2)[2]


def test_attach_fold_shrinks_boundary(zxz):
    d = _tri(zxz)
    pairs = [(a, b) for a, b, c in zxz.defined_pairs() if c == d.side_label(d.boundary[0])]
    d2 = attach_triangle(d, 0, pairs[0])
    # the two new sides read a pair with a defined product; fold it back
    d3 = attach_triangle(d2, 0)
    assert d3.area == 3
    assert len(d3.boundary) == len(d2.boundary) - 1
    assert curvature_check(d3)[2]


def test_attach_rejects_factors_of_another_label(zxz):
    d = _tri(zxz)  # side 0 reads (1,0)
    with pytest.raises(DiagramError, match="do not multiply to"):
        attach_triangle(d, 0, (zxz.id_of("(0,1)"), zxz.id_of("(1,0)")))


def test_attach_rejects_fold_with_undefined_product(zxz):
    d = attach_triangle(_tri(zxz), 0, (zxz.id_of("(0,-1)"), zxz.id_of("(1,1)")))
    assert d.boundary_word() == parse_word(zxz, "(0,-1) (1,1) (0,1) (-1,-1)")
    with pytest.raises(DiagramError, match="product of .* is not defined"):
        attach_triangle(d, 1)  # (1,1) (0,1)


def test_attach_rejects_fold_of_a_digon(zxz):
    d = attach_triangle(_tri(zxz), 0)
    assert d.boundary_word() == parse_word(zxz, "(1,1) (-1,-1)")
    for pos in (0, 1):
        with pytest.raises(DiagramError, match="cannot fold a boundary of length 2"):
            attach_triangle(d, pos)


def test_fold_rejects_a_pinch(zxz):
    """A validated diagram has a simple boundary, so a fold on three or
    more sides never pinches it; the raw parts that find_minimal_diagram
    folds between validations can, and the fold itself must refuse."""
    a = zxz.id_of("(1,0)")
    edges = ((0, 1, a), (1, 0, zxz.inv[a]), (0, 1, a))
    parts = (2, edges, (), ((0, True), (1, True), (2, True)))
    with pytest.raises(DiagramError, match="fold would pinch the boundary"):
        _fold(zxz, parts, 0)


def test_curvature_identity_on_random_diagrams(zxz, s3, q8):
    rng = random.Random(47)
    for p in (zxz, s3, q8):
        for _ in range(60):
            d = grow_random(p, rng, rng.randrange(1, 14))
            lhs, rhs, ok = curvature_check(d)
            assert ok, (lhs, rhs)


def test_strip_diagram_reads_top_then_inverse_output(zxz):
    w = parse_word(zxz, "(0,1) (1,1) (1,0)")
    wit = find_strip(zxz, w)
    d = diagram_from_strip(zxz, wit)
    n = len(wit.top)
    assert d.area == 2 * n - 3
    assert d.boundary_word() == wit.top + inverse_word(zxz, wit.output)
    assert curvature_check(d)[2]


def test_fan_diagram_hexagon(zxz):
    spokes = [zxz.id_of(s) for s in
              ["(1,0)", "(1,1)", "(0,1)", "(-1,0)", "(-1,-1)", "(0,-1)"]]
    d = fan_diagram(zxz, spokes)
    assert d.area == 6
    assert d.internal_vertices() == [0]
    assert d.degrees()[0] == 6
    assert curvature_check(d)[2]
    stats = diagram_stats(d)
    assert stats.internal_degrees == (6,)


def test_fan_needs_three_spokes(zxz):
    with pytest.raises(DiagramError):
        fan_diagram(zxz, [zxz.id_of("(1,0)")] * 2)


def test_reduce_internal_degree_four_vertex(zxz):
    x, diag = zxz.id_of("(1,0)"), zxz.id_of("(1,1)")
    d = fan_diagram(zxz, [x, diag, x, diag])
    assert d.degrees()[0] == 4
    before = reference_canonical(zxz, d.boundary_word())
    d2 = reduce_internal_vertex(zxz, d, 0)
    assert d2.area == d.area - 2
    assert reference_canonical(zxz, d2.boundary_word()) == before
    assert curvature_check(d2)[2]


def test_stats_match_the_reference_on_random_diagrams(zxz, s3, q8):
    rng = random.Random(59)
    seen = set()
    for p in (zxz, s3, q8):
        for _ in range(1500):
            d = grow_random(p, rng, rng.randrange(1, 21))
            stats = diagram_stats(d)
            assert stats == reference_diagram_stats(d)
            deg = d.degrees()
            anchors = sum(1 for v in d.boundary_vertices() if deg[v] in (2, 3))
            seen.add((min(anchors, 2), stats.galleries))
    # the sample reaches the cases the reference spells out: no anchor, and
    # one anchor with and without a gallery
    assert {(0, 0), (1, 0), (1, 1)} <= seen


def test_stats_render_is_stable(zxz):
    stats = diagram_stats(_tri(zxz))
    assert stats.area == 1
    assert stats.boundary_length == 3
    assert stats.delta2 == 3
    assert stats.render() == (
        "area 1, boundary 3, delta2 3, delta3 0, delta5 0, "
        "internal degrees [], galleries 3"
    )


def test_minimal_diagram_for_cancelling_pair(zxz):
    x = zxz.id_of("(1,0)")
    d = find_minimal_diagram(zxz, (x, zxz.inv[x]))
    assert d is not None
    assert d.area == 2
    assert diagram_stats(d).internal_degrees == (2,)


def test_minimal_diagram_for_triangle_word(zxz):
    w = parse_word(zxz, "(1,0) (0,1) (-1,-1)")
    d = find_minimal_diagram(zxz, w)
    assert d is not None and d.area == 1


def test_minimal_diagram_rejects_nonidentity_words(zxz):
    assert find_minimal_diagram(zxz, parse_word(zxz, "(1,0) (1,0)")) is None


def test_minimal_areas_match_forward_search(zxz):
    rng = random.Random(53)
    letters = zxz.nonidentity()
    checked = 0
    while checked < 15:
        w = tuple(rng.choice(letters) for _ in range(4))
        if zxz_vector(zxz, w) != (0, 0):
            continue
        checked += 1
        want = forward_min_area(zxz, w, 6)
        d = find_minimal_diagram(zxz, w, max_area=6)
        if want is None:
            assert d is None
        else:
            assert d is not None and d.area == want
            assert reference_canonical(zxz, d.boundary_word()) == reference_canonical(zxz, w)
            s = diagram_stats(d)
            assert 2 * s.delta2 + s.delta3 >= 6 + s.delta5


def test_minimal_diagram_respects_budget(zxz):
    w = parse_word(zxz, "(1,0) (-1,0)")
    assert find_minimal_diagram(zxz, w, max_area=1) is None


def test_max_area_is_inclusive(zxz):
    w = parse_word(zxz, "(1,0) (-1,0)")
    d = find_minimal_diagram(zxz, w, max_area=2)
    assert d is not None and d.area == 2
    k3 = parse_word(zxz, "(0,1) (0,1) (0,1) (1,0) (1,0) (1,0) (-1,-1) (-1,-1) (-1,-1)")
    assert find_minimal_diagram(zxz, k3, max_area=9).area == 9
    assert find_minimal_diagram(zxz, k3, max_area=8) is None


def test_diagram_text_and_dot(zxz):
    d = _tri(zxz)
    text = diagram_to_text(d)
    assert text.splitlines()[0] == "vertices 3 edges 3 faces 1"
    assert text.splitlines()[-1] == "boundary word (1,0) (0,1) (-1,-1)"
    dot = diagram_to_dot(d)
    assert dot.startswith("graph diagram {")
    assert 'v0 -- v1 [label="(1,0)", penwidth=2];' in dot
