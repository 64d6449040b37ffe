"""Triangulated discs: moves, curvature bookkeeping, minimal search.

Minimal areas are cross-checked by a forward breadth-first search over
boundary words (``oracles.forward_min_area``) that shares no code with
the production A* search.
"""

import itertools
import random

import pytest

from conftest import a2_fano_pree, free_product_pree, random_words, solver_tables
from oracles import (
    forward_min_area,
    reference_canonical,
    reference_diagram_from_strip,
    reference_diagram_stats,
    reference_fan_diagram,
    reference_grow_random,
    reference_reduce_internal_vertex,
    reference_validate,
    zxz_vector,
)
from preekit.diagrams import (
    Diagram,
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
from preekit.pree import UNDEF, Pree
from preekit.words import StripWitness, find_strip, inverse_word, parse_word


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
    more sides never pinches it; the raw parts that grow_random and
    find_minimal_diagram fold before they validate can, and the fold itself
    must refuse."""
    a = zxz.id_of("(1,0)")
    edges = ((0, 1, a), (1, 0, zxz.inv[a]), (0, 1, a))
    parts = (2, edges, (), ((0, True), (1, True), (2, True)))
    with pytest.raises(DiagramError, match="fold would pinch the boundary"):
        _fold(zxz, parts, 0)


def test_a_side_that_names_no_edge_is_refused(zxz):
    """A negative id, an id past the end and a direction that is not a bool
    each alias or miss a real edge side; validation refuses all three, on a
    face and on the boundary."""
    d = single_triangle(zxz, 1, 3)
    (face,) = d.faces
    for bad in ((-1, False), (len(d.edges), True), (0, 2)):
        on_face = ((bad,) + face[1:],)
        on_boundary = (bad,) + d.boundary[1:]
        for faces, boundary in ((on_face, d.boundary), (d.faces, on_boundary)):
            with pytest.raises(DiagramError, match="names no edge"):
                Diagram(zxz, d.n_vertices, d.edges, faces, boundary)


def test_grow_random_matches_the_reference(zxz, s3, q8):
    """The grower on raw parts makes the same moves, from the same random
    draws, as the one that attached and validated triangle by triangle."""
    for p in (zxz, s3, q8, free_product_pree(zxz), a2_fano_pree()):
        for seed in range(20):
            for area in range(1, 25):
                d = grow_random(p, random.Random(seed), area)
                ref = reference_grow_random(p, random.Random(seed), area)
                assert (d.n_vertices, d.edges, d.faces, d.boundary) == (
                    ref.n_vertices, ref.edges, ref.faces, ref.boundary), (p.names, seed, area)


def _corruptions(p, n, edges, faces, boundary):
    """Fixed corruptions of a diagram's raw parts, each a (name, parts) pair."""
    i = len(edges) // 2
    u, v, lab = edges[i]
    for other in range(p.size):
        if other != lab:
            yield "relabel", (n, edges[:i] + ((u, v, other),) + edges[i + 1 :], faces, boundary)
    (e1, f1), s2, (e3, f3) = faces[0]
    yield "flip", (n, edges, (((e1, not f1), s2, (e3, f3)),) + faces[1:], boundary)
    yield "swap", (n, edges, faces, (boundary[1], boundary[0]) + boundary[2:])
    yield "drop face", (n, edges, faces[:-1], boundary)
    yield "duplicate", (n, edges, faces, boundary + boundary[:1])
    yield "endpoint", (n, ((u, n, lab),) + edges[1:], faces, boundary)
    # the last side of the first face starts at that face's first vertex
    a, b, lab3 = edges[e3]
    u1 = edges[e1][0] if f1 else edges[e1][1]
    yield "pinch", (n, edges[:e3] + ((u1, b, lab3) if f3 else (a, u1, lab3),) + edges[e3 + 1 :], faces, boundary)
    # a disjoint triangle n, n+1, n+2 labelled as the first three edges, which
    # grow_random lays around its first face: one face, and its other sides on
    # the boundary or on a second face
    m = len(edges)
    tri = tuple((n + k, n + (k + 1) % 3, edges[k][2]) for k in range(3))
    inner, outer = ((m, True), (m + 1, True), (m + 2, True)), ((m + 2, False), (m + 1, False), (m, False))
    yield "disjoint triangle", (n + 3, edges + tri, faces + (inner,), boundary + outer)
    yield "disjoint sphere", (n + 3, edges + tri, faces + (inner, outer), boundary)


def test_validate_matches_the_reference(zxz, s3, q8):
    """The one-walk validator accepts every grown diagram, as the one it
    replaced does, and refuses each corruption of it with the same first
    message, or accepts it too.  A table with a third of its products
    removed leaves many faces a relator in one rotation only."""
    seen = set()
    for p in (zxz, s3, q8, free_product_pree(zxz), a2_fano_pree()):
        thin = Pree(p.names, p.identity, p.inv, tuple(
            tuple(c if (a * a + b) % 3 else UNDEF for b, c in enumerate(row)) for a, row in enumerate(p.table)))
        for seed in range(20):
            for area in range(1, 17):
                d = grow_random(p, random.Random(seed), area)
                parts = (d.n_vertices, d.edges, d.faces, d.boundary)
                reference_validate(p, *parts)
                cases = [(p, name, bad) for name, bad in _corruptions(p, *parts)] + [(thin, "thin", parts)]
                for q, name, bad in cases:
                    got = want = None
                    try:
                        Diagram(q, *bad)
                    except DiagramError as exc:
                        got = str(exc)
                    try:
                        reference_validate(q, *bad)
                    except DiagramError as exc:
                        want = str(exc)
                    assert got == want, (p.names, seed, area, name)
                    seen.add(got and got.split(":")[0])
    assert {"face labels are not a relator", "edge side used twice", "unused edge side",
            "edge endpoint out of range", "boundary walk does not close", "Euler relation fails",
            "face vertices not distinct"} <= seen


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


def test_each_build_validates_once(zxz, monkeypatch):
    """Each builder validates the Diagram it returns and builds no other."""
    x, y = zxz.id_of("(1,0)"), zxz.id_of("(0,1)")
    t = single_triangle(zxz, x, y)
    k3 = parse_word(zxz, "(0,1) (0,1) (0,1) (1,0) (1,0) (1,0) (-1,-1) (-1,-1) (-1,-1)")
    wit = find_strip(zxz, parse_word(zxz, "(0,1) (1,1) (1,1) (1,0)"))
    hexagon = [zxz.id_of(s) for s in ["(1,0)", "(1,1)", "(0,1)", "(-1,0)", "(-1,-1)", "(0,-1)"]]
    builds = {
        "k3 search": lambda: find_minimal_diagram(zxz, k3),
        "digon search": lambda: find_minimal_diagram(zxz, (x, zxz.inv[x])),
        "strip": lambda: diagram_from_strip(zxz, wit),
        "fan": lambda: fan_diagram(zxz, hexagon),
        "triangle": lambda: single_triangle(zxz, x, y),
        "attach": lambda: attach_triangle(t, 0, zxz.factorizations[x][0]),
        "grow": lambda: grow_random(zxz, random.Random(3), 20),
    }
    validated = []
    validate = Diagram._validate
    monkeypatch.setattr(Diagram, "_validate", lambda d: (validated.append(d), validate(d))[1])
    for name, build in builds.items():
        validated.clear()
        d = build()
        assert d.area > 0 and validated == [d], name


def test_fan_needs_three_spokes(zxz):
    with pytest.raises(DiagramError):
        fan_diagram(zxz, [zxz.id_of("(1,0)")] * 2)


def _summary(d):
    """What a diagram shows apart from its numbering."""
    p, deg = d.pree, d.degrees()
    faces = sorted(reference_canonical(p, tuple(d.side_label(s) for s in f)) for f in d.faces)
    return (
        d.boundary_word(),
        d.area,
        faces,
        [deg[v] for v in d.boundary_vertices()],
        diagram_stats(d),
    )


def test_strip_diagrams_match_the_reference():
    count = 0
    for name, p in solver_tables():
        for w in random_words(p, 61, 150, 11):
            wit = find_strip(p, w)
            if wit is None:
                continue
            count += 1
            d = diagram_from_strip(p, wit)
            assert _summary(d) == _summary(reference_diagram_from_strip(p, wit)), (name, w)
            assert d.boundary_word() == wit.top + inverse_word(p, wit.output)
    assert count > 1500


def _spoke_tuples(zxz, s3, z6, q8):
    """Every tuple of nonidentity spokes, of degree 3 to 5 on zxz and 3 to 4
    on the full tables."""
    for p, degrees in ((zxz, (3, 4, 5)), (s3, (3, 4)), (z6, (3, 4)), (q8, (3, 4))):
        for n in degrees:
            for spokes in itertools.product(p.nonidentity(), repeat=n):
                yield p, list(spokes)


def _attempt(build, *args):
    """The diagram built, or the message it was refused with."""
    try:
        return build(*args), None
    except DiagramError as exc:
        return None, str(exc)


def test_fans_match_the_reference(zxz, s3, z6, q8):
    built = refused = 0
    for p, spokes in _spoke_tuples(zxz, s3, z6, q8):
        d, why = _attempt(fan_diagram, p, spokes)
        ref, ref_why = _attempt(reference_fan_diagram, p, spokes)
        assert why == ref_why, spokes
        if d is None:
            refused += 1
            continue
        built += 1
        assert _summary(d) == _summary(ref), spokes
        assert d.internal_vertices() == ref.internal_vertices() == [0]
        assert d.degrees()[0] == len(spokes)
    assert (built, refused) == (4706, 8826)


def test_reduce_internal_vertex_on_every_small_fan(zxz, s3, z6, q8):
    for p, spokes in _spoke_tuples(zxz, s3, z6, q8):
        d, _ = _attempt(fan_diagram, p, spokes)
        if d is None:
            continue
        d2 = reduce_internal_vertex(p, d, 0)
        assert d2.area == d.area - 2
        assert d2.n_vertices == d.n_vertices - 1
        assert reference_canonical(p, d2.boundary_word()) == reference_canonical(p, d.boundary_word())
        assert curvature_check(d2)[2]


def _repeats_a_neighbour(d, v):
    around = [a if b == v else b for a, b, _ in d.edges if v in (a, b)]
    return len(set(around)) < len(around)


def test_reduce_internal_vertex_covers_the_reference_on_grown_diagrams(zxz, s3, z6, q8):
    """Every internal vertex of degree 3 to 5 in 200 grown diagrams per
    table.  Wherever the reference's first ear would join a vertex to
    itself, the folds try the other orders of ears."""
    counts = {}
    tables = [("zxz", zxz), ("s3", s3), ("z6", z6), ("q8", q8), ("A2", a2_fano_pree()),
              ("FP2", free_product_pree(zxz))]
    for name, p in tables:
        rng = random.Random(7)
        tried = by_reference = reduced = 0
        for _ in range(200):
            d = grow_random(p, rng, rng.randrange(3, 25))
            deg = d.degrees()
            for v in d.internal_vertices():
                if deg[v] not in (3, 4, 5):
                    continue
                tried += 1
                ref, ref_why = _attempt(reference_reduce_internal_vertex, p, d, v)
                got, why = _attempt(reduce_internal_vertex, p, d, v)
                assert ref_why in (None, "degenerate re-triangulation")
                by_reference += ref is not None
                if got is None:
                    assert ref is None and why == "no re-triangulation of the hole"
                    assert _repeats_a_neighbour(d, v)
                    continue
                reduced += 1
                assert got.area == d.area - 2
                assert got.n_vertices == d.n_vertices - 1
                assert got.boundary_word() == d.boundary_word()
        counts[name] = (tried, by_reference, reduced)
    assert counts == {
        "zxz": (326, 273, 307),
        "s3": (421, 377, 421),
        "z6": (421, 377, 421),
        "q8": (398, 353, 398),
        "A2": (312, 245, 272),
        "FP2": (305, 236, 282),
    }


def test_reduce_internal_vertex_with_a_pinched_link(zxz):
    """The first diagram of the zxz sample above: vertex 1 has two spokes
    to one neighbour, and the reference's first ear joins that neighbour to
    itself."""
    rng = random.Random(7)
    d = grow_random(zxz, rng, rng.randrange(3, 25))
    assert _repeats_a_neighbour(d, 1)
    with pytest.raises(DiagramError, match="degenerate re-triangulation"):
        reference_reduce_internal_vertex(zxz, d, 1)
    d2 = reduce_internal_vertex(zxz, d, 1)
    assert (d2.area, d2.n_vertices) == (d.area - 2, d.n_vertices - 1)
    assert d2.boundary_word() == d.boundary_word()


def test_tampered_strip_witness_is_refused():
    """Each output letter changed to each other letter, c_1 included, which
    the move-built diagram reads off its first triangle."""
    tampered = 0
    for _, p in solver_tables():
        wits = [find_strip(p, w) for w in random_words(p, 67, 20, 11)]
        for wit in [x for x in wits if x is not None][:5]:
            for k, c in enumerate(wit.output):
                for x in p.elements():
                    if x == c:
                        continue
                    out = wit.output[:k] + (x,) + wit.output[k + 1 :]
                    bad = StripWitness(wit.start, wit.top, wit.diagonals, out)
                    tampered += 1
                    for build in (diagram_from_strip, reference_diagram_from_strip):
                        with pytest.raises(DiagramError):
                            build(p, bad)
    assert tampered > 800


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
