"""Triangulated disc diagrams over a pree.

A diagram is a combinatorial map: edges carry a label read in the
forward direction (the reverse side reads the inverse), every face is a
triangle of three sides whose labels multiply to the identity through a
defined product, and the leftover sides form the outer boundary.  Each
edge side is used exactly once, so orientation consistency is forced.
A Diagram validates itself once, on construction, in one walk: one loop
over the edges checks them and builds the degrees and adjacency; every
side, of a face or of the boundary, is (edge id in range(len(edges)),
bool), is resolved once, and no side is used twice or left unused; each
face reads one of the table's relator readings around three distinct
vertices, the boundary is a simple closed walk, and the Euler relation,
connectivity and the curvature identity, from those degrees and boundary
vertices, rule out non-disc gluings.

Side convention: a side is (edge_id, forward); (e, True) runs u -> v
reading the stored label, (e, False) runs v -> u reading its inverse.
"""

from __future__ import annotations

import heapq

from .pree import TYPE_CHECKING, UNDEF, Pree, PreeError, Record
from .words import Word, StripWitness, render_word
from .group import abelian_obstruction

if TYPE_CHECKING:
    from random import Random

Side = tuple[int, bool]


def _oriented(p: Pree, edges: tuple, s: Side) -> tuple[int, int, int]:
    """Tail, head and label of side s."""
    u, v, lab = edges[s[0]]
    return (u, v, lab) if s[1] else (v, u, p.inv[lab])


class DiagramError(Exception):
    pass


class Diagram:
    """Immutable triangulated disc; validates itself on construction."""

    def __init__(
        self,
        pree: Pree,
        n_vertices: int,
        edges: tuple[tuple[int, int, int], ...],
        faces: tuple[tuple[Side, Side, Side], ...],
        boundary: tuple[Side, ...],
    ):
        self.pree = pree
        self.n_vertices = n_vertices
        self.edges = tuple(edges)
        self.faces = tuple(tuple(f) for f in faces)
        self.boundary = tuple(boundary)
        self._validate()

    @property
    def area(self) -> int:
        return len(self.faces)

    def side_label(self, s: Side) -> int:
        return _oriented(self.pree, self.edges, s)[2]

    def degrees(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def boundary_vertices(self) -> list[int]:
        return [_oriented(self.pree, self.edges, s)[0] for s in self.boundary]

    def internal_vertices(self) -> list[int]:
        on_b = set(self.boundary_vertices())
        return [v for v in range(self.n_vertices) if v not in on_b]

    def boundary_word(self, start: int = 0, direction: int = 1) -> Word:
        n = len(self.boundary)
        if direction == 1:
            return tuple(self.side_label(self.boundary[(start + k) % n]) for k in range(n))
        return tuple(
            self.pree.inv[self.side_label(self.boundary[(start - k) % n])] for k in range(n)
        )

    def readings(self) -> list[tuple[int, int, Word]]:
        out = []
        for start in range(len(self.boundary)):
            for direction in (1, -1):
                out.append((start, direction, self.boundary_word(start, direction)))
        return out

    def _validate(self) -> None:
        p, n, edges, faces, boundary = self.pree, self.n_vertices, self.edges, self.faces, self.boundary
        if n < 2:
            raise DiagramError("too few vertices")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v, lab in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DiagramError("edge endpoint out of range")
            if not (0 <= lab < p.size):
                raise DiagramError("edge label out of range")
            adj[u].append(v)
            adj[v].append(u)
        if any(len(f) != 3 for f in faces):
            raise DiagramError("face is not a triangle")
        sides = [s for f in faces for s in f] + list(boundary)
        m, inv = len(edges), p.inv
        walk = []
        for s in sides:
            if not (type(s) is tuple and len(s) == 2 and type(s[0]) is int
                    and 0 <= s[0] < m and type(s[1]) is bool):
                raise DiagramError("side %r names no edge" % (s,))
            u, v, lab = e = edges[s[0]]
            walk.append(e if s[1] else (v, u, inv[lab]))
        if len(set(sides)) != len(sides):
            raise DiagramError("edge side used twice")
        if len(sides) != 2 * m:
            raise DiagramError("unused edge side")
        relators, k = _relators(p), 3 * len(faces)
        it = iter(walk[:k])
        for (u1, v1, l1), (u2, v2, l2), (u3, v3, l3) in zip(it, it, it):
            if u1 == u2 or u2 == u3 or u3 == u1:
                raise DiagramError("face vertices not distinct")
            if v1 != u2 or v2 != u3 or v3 != u1:
                raise DiagramError("face walk does not close")
            if (l1, l2, l3) not in relators:
                raise DiagramError(
                    "face labels are not a relator: " + " ".join(p.name(x) for x in (l1, l2, l3))
                )
        if len(boundary) < 2:
            raise DiagramError("boundary shorter than 2")
        bwalk = walk[k:]
        bverts = [u for u, _, _ in bwalk]
        if len(set(bverts)) != len(bverts):
            raise DiagramError("boundary is not simple")
        if [v for _, v, _ in bwalk] != bverts[1:] + bverts[:1]:
            raise DiagramError("boundary walk does not close")
        deg = list(map(len, adj))
        if min(deg) < 2:
            raise DiagramError("vertex of degree < 2")
        if n - m + len(faces) != 1:
            raise DiagramError("Euler relation fails")
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise DiagramError("diagram is not connected")
        lhs, rhs, equal = _curvature(deg, bverts)
        if not equal:
            raise DiagramError("curvature identity fails: %d != %d" % (lhs, rhs))


def _curvature(deg: list[int], bverts: list[int]) -> tuple[int, int, bool]:
    """Both sides of the identity sum over boundary vertices of (4 - deg)
    = 6 + sum over internal vertices of (deg - 6), from the degrees."""
    on_b = set(bverts)
    bdeg = sum([deg[v] for v in on_b])
    lhs = 4 * len(on_b) - bdeg
    rhs = 6 + sum(deg) - bdeg - 6 * (len(deg) - len(on_b))
    return lhs, rhs, lhs == rhs


def curvature_check(d: Diagram) -> tuple[int, int, bool]:
    """Both sides of the boundary/internal degree identity."""
    return _curvature(d.degrees(), d.boundary_vertices())


def _relators(p: Pree) -> set[tuple[int, int, int]]:
    """The relator readings, built once per table: every (x1, x2, x3)
    with x1*x2 = x3^-1 defined, and its other two rotations."""
    return p.derived("relators", lambda: {
        r for x3, c in enumerate(p.inv) for x1, x2 in p.factorizations[c]
        for r in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2))
    })


def single_triangle(p: Pree, a: int, b: int) -> Diagram:
    """One face; boundary reads a, b, (ab)^-1 from vertex 0."""
    return Diagram(p, *_triangle_parts(p, a, b))


def attach_triangle(
    d: Diagram, pos: int, factors: tuple[int, int] | None = None
) -> Diagram:
    """Attach one triangle along the boundary.

    With factors (e, f): the boundary side at pos, reading x, is covered
    by a new triangle with e*f = x; the boundary grows by one.  Without
    factors: the sides at pos and pos+1, reading x and y with x*y
    defined, are covered together; the boundary shrinks by one.
    """
    return _attach(d.pree, (d.n_vertices, d.edges, d.faces, d.boundary), [(pos, factors)])


# _split and _fold map the raw parts (n_vertices, edges, faces, boundary)
# of a diagram to those of the next and check only the move itself.
Parts = tuple[int, tuple, tuple, tuple]


def _attach(p: Pree, parts: Parts, moves: list) -> Diagram:
    """Apply the (pos, factors) moves of attach_triangle in turn to raw
    parts, and build one Diagram, which validates itself."""
    for pos, factors in moves:
        parts = _fold(p, parts, pos) if factors is None else _split(p, parts, pos, *factors)
    return Diagram(p, *parts)


def _triangle_parts(p: Pree, a: int, b: int) -> Parts:
    """The raw parts of single_triangle(p, a, b)."""
    c = p.table[a][b]
    if c == UNDEF:
        raise DiagramError(
            "product of %s and %s is not defined" % (p.name(a), p.name(b))
        )
    edges = ((0, 1, a), (1, 2, b), (2, 0, p.inv[c]))
    return 3, edges, (((2, False), (1, False), (0, False)),), ((0, True), (1, True), (2, True))


def _split(p: Pree, parts: Parts, pos: int, e: int, f: int) -> Parts:
    m, edges, faces, boundary = parts
    pos %= len(boundary)
    s = boundary[pos]
    u, v, x = _oriented(p, edges, s)
    if p.table[e][f] != x:
        raise DiagramError(
            "factors %s %s do not multiply to %s" % (p.name(e), p.name(f), p.name(x))
        )
    e1 = len(edges)
    e2 = e1 + 1
    edges = edges + ((u, m, e), (m, v, f))
    faces = faces + ((s, (e2, False), (e1, False)),)
    boundary = boundary[:pos] + ((e1, True), (e2, True)) + boundary[pos + 1 :]
    return m + 1, edges, faces, boundary


def _fold(p: Pree, parts: Parts, pos: int) -> Parts:
    m, edges, faces, boundary = parts
    n = len(boundary)
    if n < 3:
        raise DiagramError("cannot fold a boundary of length 2")
    pos %= n
    s1 = boundary[pos]
    s2 = boundary[(pos + 1) % n]
    u, _, x = _oriented(p, edges, s1)
    _, w, y = _oriented(p, edges, s2)
    z = p.table[x][y]
    if z == UNDEF:
        raise DiagramError(
            "product of %s and %s is not defined" % (p.name(x), p.name(y))
        )
    if u == w:
        raise DiagramError("fold would pinch the boundary")
    eid = len(edges)
    faces = faces + ((s1, s2, (eid, False)),)
    if pos == n - 1:
        boundary = ((eid, True),) + boundary[1 : n - 1]
    else:
        boundary = boundary[:pos] + ((eid, True),) + boundary[pos + 2 :]
    return m, edges + ((u, w, z),), faces, boundary


def diagram_from_strip(p: Pree, witness: StripWitness) -> Diagram:
    """Strip gallery as a diagram: boundary reads top then inverse output.

    The first triangle reads a_1 d_1 c_1^-1.  Each interior top letter a_i
    then splits the side d_{i-1} into a_i g_i, and g_i into d_i c_i^-1, or
    into a_n c_{n-1}^-1 for the last one (see StripWitness).
    """
    a, d, c = witness.top, witness.diagonals, witness.output
    n, inv = len(a), p.inv
    # c_1 is read off the first triangle, so it is checked here
    g = [p.table[inv[a[i - 1]]][d[i - 2]] for i in range(2, n)]
    if UNDEF in g or p.table[a[0]][d[0]] != c[0]:
        raise DiagramError("strip witness does not hold in the table")
    moves = []
    for i in range(2, n):
        moves.append((i - 1, (a[i - 1], g[i - 2])))
        moves.append((i, (d[i - 1] if i < n - 1 else a[n - 1], inv[c[i - 1]])))
    return _attach(p, _triangle_parts(p, a[0], d[0]), moves)


def fan_diagram(p: Pree, spokes: list[int]) -> Diagram:
    """Hub of the given degree: spoke labels read outward from vertex 0.

    Consecutive spokes must have a defined quotient; the rim closes up
    and the hub becomes an internal vertex of degree len(spokes).  The
    first triangle reads s_1 q_0^-1 s_0^-1 from the hub; each next spoke
    splits the side s_i into s_{i+1} q_i^-1, and a fold of s_0^-1 s_{n-1}
    closes the rim, which reads q_{n-1}^-1 ... q_0^-1 from its vertex 0.
    """
    n, inv = len(spokes), p.inv
    if n < 3:
        raise DiagramError("need at least 3 spokes")
    quot = []
    for i in range(n):
        q = p.table[inv[spokes[i]]][spokes[(i + 1) % n]]
        if q == UNDEF:
            raise DiagramError("spoke quotient %d is not defined" % i)
        quot.append(q)
    moves = [(0, (spokes[i + 1], inv[quot[i]])) for i in range(1, n - 1)] + [(n, None)]
    return _attach(p, _triangle_parts(p, spokes[1], inv[quot[0]]), moves)


def reduce_internal_vertex(p: Pree, d: Diagram, v: int) -> Diagram:
    """Remove an internal vertex of degree 3..5 and re-cover the hole.

    Each face at v, turned to start at its side out of v, has its middle
    side on the hole and its last side running back into v along the next
    face's side out.  The middle sides, face after face, thus walk the
    hole as _fold walks a boundary, and the short-cycle axioms let folds
    re-cover it with deg(v) - 2 faces; _recover finds an order of folds
    that joins no vertex to itself.  One Diagram is built at the end.
    """
    if v in d.boundary_vertices():
        raise DiagramError("vertex is on the boundary")
    turned, rest = {}, []
    for f in d.faces:
        tails = [_oriented(p, d.edges, s)[0] for s in f]
        if v in tails:
            k = tails.index(v)
            turned[f[k][0]] = f[k:] + f[:k]
        else:
            rest.append(f)
    if len(turned) not in (3, 4, 5):
        raise DiagramError("vertex degree %d is not 3, 4, or 5" % len(turned))
    fan = [next(iter(turned.values()))]
    while len(fan) < len(turned):
        fan.append(turned[fan[-1][2][0]])
    hole = tuple(f[1] for f in fan)
    _, edges, faces, _ = _recover(p, (d.n_vertices, d.edges, tuple(rest), hole))
    # renumber without v and its spokes
    keep = [i for i, (a, b, _) in enumerate(edges) if v not in (a, b)]
    emap = {i: k for k, i in enumerate(keep)}
    side = lambda s: (emap[s[0]], s[1])
    edges = tuple((a - (a > v), b - (b > v), lab) for a, b, lab in (edges[i] for i in keep))
    faces = tuple(tuple(map(side, f)) for f in faces)
    return Diagram(p, d.n_vertices - 1, edges, faces, tuple(map(side, d.boundary)))


def _recover(p: Pree, parts: Parts) -> Parts:
    """Cover the boundary of parts, 3 to 5 sides, with faces: fold ears
    in walk order, backtracking when a fold is refused, and close the last
    three sides as one face."""
    m, edges, faces, hole = parts
    if len(hole) == 3:
        (u1, _, x), (u2, _, y), (u3, _, z) = [_oriented(p, edges, s) for s in hole]
        if len({u1, u2, u3}) != 3 or p.table[x][y] != p.inv[z]:
            raise DiagramError("no re-triangulation of the hole")
        return m, edges, faces + (hole,), ()
    for pos in range(len(hole)):
        try:
            return _recover(p, _fold(p, parts, pos))
        except DiagramError:
            pass
    raise DiagramError("no re-triangulation of the hole")


class DiagramStats(Record):
    """Boundary degree census and gallery count."""

    __slots__ = _fields = (
        "area", "boundary_length", "delta2", "delta3", "delta5", "internal_degrees", "galleries",
    )

    def __init__(self, area: int, boundary_length: int, delta2: int, delta3: int, delta5: int,
                 internal_degrees: tuple[int, ...], galleries: int):
        self.area, self.boundary_length, self.delta2, self.delta3 = area, boundary_length, delta2, delta3
        self.delta5, self.internal_degrees, self.galleries = delta5, internal_degrees, galleries

    def render(self) -> str:
        return (
            "area %d, boundary %d, delta2 %d, delta3 %d, delta5 %d, "
            "internal degrees %s, galleries %d"
            % (
                self.area,
                self.boundary_length,
                self.delta2,
                self.delta3,
                self.delta5,
                list(self.internal_degrees) or "[]",
                self.galleries,
            )
        )


def diagram_stats(d: Diagram) -> DiagramStats:
    deg = d.degrees()
    bverts = d.boundary_vertices()
    on_b = set(bverts)
    d2 = sum(1 for v in on_b if deg[v] == 2)
    d3 = sum(1 for v in on_b if deg[v] == 3)
    d5 = sum(1 for v in on_b if deg[v] > 4)
    internal = tuple(sorted(deg[v] for v in range(d.n_vertices) if v not in on_b))
    n = len(bverts)
    anchors = [q for q in range(n) if deg[bverts[q]] in (2, 3)]
    # a gallery is a run of degree-4 vertices from one anchor to the next; a
    # lone anchor is its own successor, and its gap is the rest of the boundary
    galleries = sum(
        all(deg[bverts[(a + k) % n]] == 4 for k in range(1, (b - a - 1) % n + 1))
        for a, b in zip(anchors, anchors[1:] + anchors[:1])
    )
    return DiagramStats(
        area=d.area,
        boundary_length=n,
        delta2=d2,
        delta3=d3,
        delta5=d5,
        internal_degrees=internal,
        galleries=galleries,
    )


def grow_random(p: Pree, rng: Random, target_area: int) -> Diagram:
    """Random diagram grown on raw parts one triangle at a time: a fold,
    with chance 0.35 where one is defined and does not pinch, else a split
    of a random side; one Diagram is built at the end."""
    pairs = list(p.defined_pairs())
    a, b, _ = pairs[rng.randrange(len(pairs))]
    parts = _triangle_parts(p, a, b)
    fact = p.factorizations
    guard = 0
    while len(parts[2]) < target_area and guard < 200 * target_area:
        guard += 1
        labels = [_oriented(p, parts[1], s)[2] for s in parts[3]]
        n = len(labels)
        folds = [q for q in range(n) if p.table[labels[q]][labels[(q + 1) % n]] != UNDEF] if n >= 3 else []
        if folds and rng.random() < 0.35:
            try:
                parts = _fold(p, parts, folds[rng.randrange(len(folds))])
                continue
            except DiagramError:
                pass
        q = rng.randrange(n)
        fs = fact[labels[q]]
        parts = _split(p, parts, q, *fs[rng.randrange(len(fs))])
    return Diagram(p, *parts)


def _canonical(inv: dict[int, int], w: str) -> str:
    """Least rotation of the coded word w or of its inverse.

    A coded word has one chr per letter, and ``inv`` is the inverse as a
    str.translate map.  chr keeps the letter order, so this codes the
    least tuple rotation.  Only rotations that start with the least
    letter can be least, so only they are compared.
    """
    iw = w.translate(inv)[::-1]
    m = min(w + iw)
    best = None
    for t in (w, iw):
        r = t.find(m)
        while r >= 0:
            cand = t[r:] + t[:r]
            if best is None or cand < best:
                best = cand
            r = t.find(m, r + 1)
    return best


def _diagram_moves(p: Pree) -> tuple[dict, dict, dict, dict]:
    """The search's move tables on coded words, built once per table.

    The inverse as a translate map, the product of each defined
    two-letter word, each letter's two-letter factorizations in id order,
    and the triangle readings: each relator reading and its inverse,
    mapped to their canonical word.
    """

    def build():
        inv = dict(enumerate(p.inv))
        prod = {chr(a) + chr(b): chr(c) for a, b, c in p.defined_pairs()}
        fact = {chr(c): [chr(a) + chr(b) for a, b in fs] for c, fs in enumerate(p.factorizations)}
        triangles = {}
        for r in _relators(p):
            t = "".join(map(chr, r))
            triangles[t] = triangles[t.translate(inv)[::-1]] = _canonical(inv, t)
        return inv, prod, fact, triangles

    return p.derived("diagram_moves", build)


def _first_reading(inv: dict[int, int], fwd: str, exact: str) -> tuple[int, int]:
    """Start and direction of the first of Diagram.readings() spelling exact.

    fwd codes the boundary labels as in _canonical.  The forward reading
    from s rotates fwd by s, the backward one rotates bwd by n - 1 - s, and
    readings() orders by start, forward first.  (-1, 1) if none spells it.
    """
    n = len(fwd)
    bwd = fwd.translate(inv)[::-1]
    s, r = (fwd + fwd).find(exact), (bwd + bwd).rfind(exact, 0, 2 * n - 1)
    return (n - 1 - r, -1) if r >= 0 and (s < 0 or n - 1 - r < s) else (s, 1)


def find_minimal_diagram(p: Pree, w: Word, max_area: int = 12) -> Diagram | None:
    """Smallest diagram whose boundary reads w up to rotation/inversion.

    Searches the move graph on cyclic boundary words: contracting an
    adjacent pair undoes a two-edge attachment, expanding a letter into
    a defined factorization undoes a one-edge attachment.  Each move is
    one triangle, so area = 1 + move distance to a triangle word, and
    max_area is inclusive.  A* keys a word n long, g moves from w, by
    f = g + max(1, n - 3).  Below a word that is not a triangle word this
    key is at most the area minus one; on a triangle word it is the area
    itself.  Every goal is keyed alike, so the first one popped is
    minimal, and a triangle child may take the key max_area where any
    other child is pruned.  Expansion is partial (Yoshizumi et al. 2000):
    a popped word pushes its contractions, while its expansions wait in
    one entry (g + n - 1, -1, (g, rep)).  For n >= 3 that is the key of
    every expansion, and for n = 2 it is f, so the entry pops next.  It
    sorts before every word of its key, where a child's contracting
    parents pop; its expanding parents are all one length, so they popped
    in (g, rep) order and their entries sort alike.  Every child thus gets
    the parent, and w the diagram, of an eager search.  Words are coded as
    str (see _canonical).  A triangle child reads its key from the table
    of triangle readings; with no room left, any other child is dropped
    without a _canonical call.  The search refuses an invalid table: on a
    valid one the table is closed, so every triangle word, the goal too,
    reads x1 x2 = x3^-1 from its first letter.  The path found is replayed
    on raw diagram parts, from those of the goal's own triangle, by the
    split and fold of attach_triangle, each step reading the boundary
    labels off the raw parts and finding its reading by str.find, and the
    one Diagram built at the end validates itself.
    """
    if len(w) < 2:
        raise PreeError("boundary word needs length >= 2")
    if not p.validation.ok:
        raise PreeError("the diagram search needs a valid table: " + p.validation.problems[0])
    if max_area < 1:
        return None
    if not abelian_obstruction(p).might_be_identity(w):
        return None
    inv, prod, fact, triangles = _diagram_moves(p)
    start = _canonical(inv, "".join(map(chr, w)))
    best_g = {start: 0}
    parents: dict[str, tuple[str, tuple[str, int], str]] = {}
    heap = [(max(1, len(start) - 3), 0, start)]
    goal = None
    while heap:
        f, g, rep = heapq.heappop(heap)
        if g < 0:  # the deferred expansions of a popped word, all n + 1 long
            g, rep = rep
            room = max_area - 2 - g
            children = [(("e", i), rep[:i] + ef + rep[i + 1 :]) for i in range(len(rep)) for ef in fact[rep[i]]]
        else:
            if g > best_g[rep]:
                continue
            n = len(rep)
            if n == 3 and rep in triangles:
                goal = rep
                break
            # a child k letters long needs max(1, k - 3) units of room, or none
            # if it is a triangle word: so contractions (n - 1 long) need n - 4,
            # or 1 from n = 3, and expansions (n + 1 long) need n - 2
            room, children = max_area - 2 - g, []
            if n >= 3 and room >= (n - 4 if n > 3 else 1):
                ring = rep + rep[0]
                for i in range(n):
                    c = prod.get(ring[i : i + 2])
                    if c is not None:
                        children.append((("c", i), rep[:i] + c + rep[i + 2 :] if i < n - 1 else c + rep[1 : n - 1]))
            if room >= n - 2:
                heapq.heappush(heap, (g + n - 1, -1, (g, rep)))
        ng = g + 1
        for move, child in children:
            cc = triangles.get(child)
            if cc is None:
                if room == 0:
                    continue
                # keys of best_g are canonical, and _canonical is idempotent
                cc = child if child in best_g else _canonical(inv, child)
            if ng < best_g.get(cc, ng + 1):
                best_g[cc] = ng
                parents[cc] = (rep, move, child)
                heapq.heappush(heap, (ng + max(1, len(cc) - 3), ng, cc))
    if goal is None:
        return None

    parts = _triangle_parts(p, ord(goal[0]), ord(goal[1]))
    node, pinv = goal, p.inv
    while node != start:
        parent, (kind, i), exact = parents[node]
        edges = parts[1]
        fwd = "".join([chr(edges[e][2] if fw else pinv[edges[e][2]]) for e, fw in parts[3]])
        offset, direction = _first_reading(inv, fwd, exact)
        n = len(fwd)
        if kind == "c":  # split the letter that pair i of parent became
            x, y = ord(parent[i]), ord(parent[(i + 1) % (n + 1)])
            pos = (offset + direction * (i if i < n else 0)) % n
            parts = _split(p, parts, pos, *((x, y) if direction == 1 else (inv[y], inv[x])))
        else:  # fold the pair that letter i of parent became
            parts = _fold(p, parts, (offset + i if direction == 1 else offset - i - 1) % n)
        node = parent
    return Diagram(p, *parts)


def diagram_to_text(d: Diagram) -> str:
    p = d.pree
    deg = d.degrees()
    on_b = set(d.boundary_vertices())
    lines = ["vertices %d edges %d faces %d" % (d.n_vertices, len(d.edges), d.area)]
    for v in range(d.n_vertices):
        where = "boundary" if v in on_b else "internal"
        lines.append("vertex %d degree %d %s" % (v, deg[v], where))
    for i, (u, v, lab) in enumerate(d.edges):
        lines.append("edge %d %d %d %s" % (i, u, v, p.name(lab)))
    for i, f in enumerate(d.faces):
        walk = " ".join(
            "%d%s" % (s[0], "+" if s[1] else "-") for s in f
        )
        word = " ".join(p.name(d.side_label(s)) for s in f)
        lines.append("face %d sides %s word %s" % (i, walk, word))
    lines.append(
        "boundary "
        + " ".join("%d%s" % (s[0], "+" if s[1] else "-") for s in d.boundary)
    )
    lines.append("boundary word " + render_word(p, d.boundary_word()))
    return "\n".join(lines) + "\n"


def diagram_to_dot(d: Diagram) -> str:
    p = d.pree
    deg = d.degrees()
    on_b = set(d.boundary_vertices())
    bedges = {s[0] for s in d.boundary}
    lines = ["graph diagram {"]
    for v in range(d.n_vertices):
        shape = "circle" if v in on_b else "doublecircle"
        lines.append('  v%d [shape=%s, label="%d (d%d)"];' % (v, shape, v, deg[v]))
    for i, (u, v, lab) in enumerate(d.edges):
        style = ", penwidth=2" if i in bedges else ""
        lines.append('  v%d -- v%d [label="%s"%s];' % (u, v, p.name(lab), style))
    lines.append("}")
    return "\n".join(lines) + "\n"
