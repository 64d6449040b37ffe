"""Triangulated disc diagrams over a pree.

A diagram is a combinatorial map: edges carry a label read in the
forward direction (the reverse side reads the inverse), every face is a
triangle of three sides whose labels multiply to the identity through a
defined product, and the leftover sides form the outer boundary.  Each
edge side is used exactly once, so orientation consistency is forced.
Validation re-checks the full invariant set on every construction, and
the Euler relation plus connectivity rule out non-disc gluings.

Side convention: a side is (edge_id, forward); (e, True) runs u -> v
reading the stored label, (e, False) runs v -> u reading its inverse.
"""

from __future__ import annotations

import heapq
from random import Random

from .pree import UNDEF, Pree, PreeError, Record
from .words import Word, StripWitness, inverse_word, render_word
from .group import abelian_obstruction

Side = tuple[int, bool]


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

    def side_tail(self, s: Side) -> int:
        e, fwd = s
        return self.edges[e][0] if fwd else self.edges[e][1]

    def side_head(self, s: Side) -> int:
        e, fwd = s
        return self.edges[e][1] if fwd else self.edges[e][0]

    def side_label(self, s: Side) -> int:
        e, fwd = s
        lab = self.edges[e][2]
        return lab if fwd else self.pree.inv[lab]

    def degrees(self) -> list[int]:
        deg = [0] * self.n_vertices
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def boundary_vertices(self) -> list[int]:
        return [self.side_tail(s) for s in self.boundary]

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
        p = self.pree
        if self.n_vertices < 2:
            raise DiagramError("too few vertices")
        for u, v, lab in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise DiagramError("edge endpoint out of range")
            if not (0 <= lab < p.size):
                raise DiagramError("edge label out of range")
        used: set[Side] = set()
        for f in self.faces:
            if len(f) != 3:
                raise DiagramError("face is not a triangle")
            verts = [self.side_tail(s) for s in f]
            if len(set(verts)) != 3:
                raise DiagramError("face vertices not distinct")
            for k in range(3):
                if self.side_head(f[k]) != self.side_tail(f[(k + 1) % 3]):
                    raise DiagramError("face walk does not close")
            labs = [self.side_label(s) for s in f]
            ok = False
            for r in range(3):
                x1, x2, x3 = labs[r], labs[(r + 1) % 3], labs[(r + 2) % 3]
                c = p.table[x1][x2]
                if c != UNDEF and c == p.inv[x3]:
                    ok = True
                    break
            if not ok:
                raise DiagramError(
                    "face labels are not a relator: " + " ".join(p.name(x) for x in labs)
                )
            for s in f:
                if s in used:
                    raise DiagramError("edge side used twice")
                used.add(s)
        if len(self.boundary) < 2:
            raise DiagramError("boundary shorter than 2")
        bverts = self.boundary_vertices()
        if len(set(bverts)) != len(bverts):
            raise DiagramError("boundary is not simple")
        n = len(self.boundary)
        for k in range(n):
            if self.side_head(self.boundary[k]) != self.side_tail(self.boundary[(k + 1) % n]):
                raise DiagramError("boundary walk does not close")
        for s in self.boundary:
            if s in used:
                raise DiagramError("edge side used twice")
            used.add(s)
        if len(used) != 2 * len(self.edges):
            raise DiagramError("unused edge side")
        deg = self.degrees()
        if any(d < 2 for d in deg):
            raise DiagramError("vertex of degree < 2")
        if self.n_vertices - len(self.edges) + len(self.faces) != 1:
            raise DiagramError("Euler relation fails")
        adj: dict[int, list[int]] = {}
        for u, v, _ in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n_vertices:
            raise DiagramError("diagram is not connected")
        lhs, rhs, equal = curvature_check(self)
        if not equal:
            raise DiagramError("curvature identity fails: %d != %d" % (lhs, rhs))


def curvature_check(d: Diagram) -> tuple[int, int, bool]:
    """Both sides of the boundary/internal degree identity."""
    deg = d.degrees()
    on_b = set(d.boundary_vertices())
    lhs = sum(4 - deg[v] for v in on_b)
    rhs = 6 + sum(deg[v] - 6 for v in range(d.n_vertices) if v not in on_b)
    return lhs, rhs, lhs == rhs


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


def _oriented(p: Pree, edges: tuple, s: Side) -> tuple[int, int, int]:
    """Tail, head and label of side s."""
    u, v, lab = edges[s[0]]
    return (u, v, lab) if s[1] else (v, u, p.inv[lab])


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


def _rebuild(
    p: Pree,
    n_vertices: int,
    edges: list,
    faces: list,
    boundary: list,
    drop_vertices: set[int],
    drop_edges: set[int],
) -> Diagram:
    vmap = {}
    for v in range(n_vertices):
        if v not in drop_vertices:
            vmap[v] = len(vmap)
    emap = {}
    new_edges = []
    for i, (u, v, lab) in enumerate(edges):
        if i in drop_edges:
            continue
        emap[i] = len(new_edges)
        new_edges.append((vmap[u], vmap[v], lab))
    remap = lambda s: (emap[s[0]], s[1])
    new_faces = [tuple(remap(s) for s in f) for f in faces]
    new_boundary = [remap(s) for s in boundary]
    return Diagram(p, len(vmap), tuple(new_edges), tuple(new_faces), tuple(new_boundary))


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

    The spoke labels around v form a short cycle whose quotients are the
    hole's perimeter labels; the short-cycle axioms provide the diagonal
    products, and each re-cover step drops the area by removing deg(v)
    faces and adding deg(v) - 2.
    """
    if v in d.boundary_vertices():
        raise DiagramError("vertex is on the boundary")
    fan = []
    for fi, face in enumerate(d.faces):
        if any(d.side_tail(s) == v for s in face):
            fan.append(fi)
    deg = len(fan)
    if deg not in (3, 4, 5):
        raise DiagramError("vertex degree %d is not 3, 4, or 5" % deg)
    # orient each fan face around its corner at v
    corner = {}
    by_in_edge = {}
    for fi in fan:
        face = d.faces[fi]
        k = next(i for i in range(3) if d.side_head(face[i]) == v)
        s_in, s_out, s_per = face[k], face[(k + 1) % 3], face[(k + 2) % 3]
        corner[fi] = (s_in, s_out, s_per)
        by_in_edge[s_in[0]] = fi
    chain = [fan[0]]
    while len(chain) < deg:
        out_edge = corner[chain[-1]][1][0]
        chain.append(by_in_edge[out_edge])
    # after the shift, chain[i] walks rim[i] -> v -> rim[i+1]; its third
    # side runs rim[i+1] -> rim[i], the freed side of that hole edge
    rim = [d.side_head(corner[fi][1]) for fi in chain]
    sigma = [d.side_label(corner[fi][1]) for fi in chain]
    rim = rim[-1:] + rim[:-1]
    sigma = sigma[-1:] + sigma[:-1]
    per_side = [corner[fi][2] for fi in chain]
    pi = []
    for i in range(deg):
        q = p.table[p.inv[sigma[i]]][sigma[(i + 1) % deg]]
        if q == UNDEF:
            raise DiagramError("fan quotient undefined; diagram is inconsistent")
        pi.append(q)
    spoke_edges = {corner[fi][0][0] for fi in chain}
    new_edges = list(d.edges)
    new_faces = [f for i, f in enumerate(d.faces) if i not in set(fan)]
    # hole entries: (tail rim vertex, head rim vertex, quotient, freed side head->tail)
    hole = [(rim[i], rim[(i + 1) % deg], pi[i], per_side[i]) for i in range(deg)]
    while len(hole) > 3:
        n_h = len(hole)
        cut = -1
        for k in range(n_h):
            if p.table[hole[k][2]][hole[(k + 1) % n_h][2]] != UNDEF:
                cut = k
                break
        if cut == -1:
            raise DiagramError("no short-cycle witness for the hole")
        k1, k2 = hole[cut], hole[(cut + 1) % n_h]
        delta = p.table[k1[2]][k2[2]]
        if k1[0] == k2[1]:
            raise DiagramError("degenerate re-triangulation")
        eid = len(new_edges)
        new_edges.append((k1[0], k2[1], delta))
        new_faces.append((k2[3], k1[3], (eid, True)))
        merged = (k1[0], k2[1], delta, (eid, False))
        rest = [hole[(cut + 1 + i) % n_h] for i in range(1, n_h - 1)]
        hole = [merged] + rest
    if len({hole[0][0], hole[1][0], hole[2][0]}) != 3:
        raise DiagramError("degenerate re-triangulation")
    if p.table[hole[0][2]][hole[1][2]] != p.inv[hole[2][2]]:
        raise DiagramError("no short-cycle witness for the hole")
    new_faces.append((hole[2][3], hole[1][3], hole[0][3]))
    return _rebuild(
        p, d.n_vertices, new_edges, new_faces, list(d.boundary), {v}, spoke_edges
    )


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
    """Random diagram built by attaching triangles one at a time."""
    pairs = list(p.defined_pairs())
    a, b, _ = pairs[rng.randrange(len(pairs))]
    d = single_triangle(p, a, b)
    fact = p.factorizations
    guard = 0
    while d.area < target_area and guard < 200 * target_area:
        guard += 1
        n = len(d.boundary)
        folds = []
        if n >= 3:
            for q in range(n):
                x = d.side_label(d.boundary[q])
                y = d.side_label(d.boundary[(q + 1) % n])
                if p.table[x][y] != UNDEF:
                    folds.append(q)
        if folds and rng.random() < 0.35:
            q = folds[rng.randrange(len(folds))]
            try:
                d = attach_triangle(d, q)
                continue
            except DiagramError:
                pass
        q = rng.randrange(n)
        x = d.side_label(d.boundary[q])
        e, f = fact[x][rng.randrange(len(fact[x]))]
        d = attach_triangle(d, q, (e, f))
    return d


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
    and the triangle readings: each of the six readings (three rotations,
    two directions) of every triangle word, mapped to its canonical word.
    """

    def build():
        inv = dict(enumerate(p.inv))
        prod = {chr(a) + chr(b): chr(c) for a, b, c in p.defined_pairs()}
        fact = {chr(c): [chr(a) + chr(b) for a, b in fs] for c, fs in enumerate(p.factorizations)}
        triangles = {}
        for ab, c in prod.items():
            t = ab + chr(p.inv[ord(c)])
            rep = _canonical(inv, t)
            for u in (t, t.translate(inv)[::-1]):
                for r in range(3):
                    triangles[u[r:] + u[:r]] = rep
        return inv, prod, fact, triangles

    return p.derived("diagram_moves", build)


def _triangle_reading(p: Pree, rep: Word) -> Word | None:
    if len(rep) != 3:
        return None
    for t in (rep, inverse_word(p, rep)):
        for r in range(3):
            x1, x2, x3 = t[r], t[(r + 1) % 3], t[(r + 2) % 3]
            c = p.table[x1][x2]
            if c != UNDEF and c == p.inv[x3]:
                return (x1, x2, x3)
    return None


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
    without a _canonical call.  The path found is replayed on raw diagram
    parts, from those of the goal's triangle, by the split and fold of
    attach_triangle, each step finding its reading by str.find, and the
    one Diagram built at the end validates itself.
    """
    if len(w) < 2:
        raise PreeError("boundary word needs length >= 2")
    if max_area < 1:
        return None
    if not abelian_obstruction(p).might_be_identity(w):
        return None
    inv, prod, fact, triangles = _diagram_moves(p)

    def fits(length: int, room: int) -> bool:
        # a triangle word ends the search, so it may take the last unit of room
        return max(1, length - 3) <= room or (room == 0 and length == 3)

    def push(g: int, rep: str, children: list) -> None:
        ng, room = g + 1, max_area - 2 - g
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

    start = _canonical(inv, "".join(map(chr, w)))
    best_g = {start: 0}
    parents: dict[str, tuple[str, tuple[str, int], str]] = {}
    heap = [(max(1, len(start) - 3), 0, start)]
    goal = None
    while heap:
        f, g, rep = heapq.heappop(heap)
        if g < 0:  # the deferred expansions of a popped word, all n + 1 long
            g, rep = rep
            push(g, rep, [(("e", i), rep[:i] + ef + rep[i + 1 :]) for i in range(len(rep)) for ef in fact[rep[i]]])
            continue
        if g > best_g[rep]:
            continue
        n = len(rep)
        if n == 3 and rep in triangles:
            goal = rep
            break
        room = max_area - 2 - g
        # contractions are n - 1 long and expansions n + 1: bound each kind once
        children = []
        if n >= 3 and fits(n - 1, room):
            ring = rep + rep[0]
            for i in range(n):
                c = prod.get(ring[i : i + 2])
                if c is not None:
                    children.append((("c", i), rep[:i] + c + rep[i + 2 :] if i < n - 1 else c + rep[1 : n - 1]))
        if fits(n + 1, room):
            heapq.heappush(heap, (g + n - 1, -1, (g, rep)))
        push(g, rep, children)
    if goal is None:
        return None

    x1, x2, x3 = _triangle_reading(p, tuple(map(ord, goal)))
    parts = _triangle_parts(p, x1, x2)
    node = goal
    while node != start:
        parent, (kind, i), exact = parents[node]
        fwd = "".join(chr(_oriented(p, parts[1], s)[2]) for s in parts[3])
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
