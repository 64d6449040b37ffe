"""The group presented by a pree, made computable at small scale.

Generators are the pree letters, one relator ``a b (ab)^-1`` per defined
product.  Everything here works on bounded regions: an identity oracle
that searches the rewrite neighbor graph (with an abelianized lattice
obstruction so that "not the identity" can be certified), breadth-first
Cayley balls, and verification sweeps for the embedding of the letters,
the reducibility of short identity words, combing surjectivity, and the
fellow-traveler bound.
"""

from __future__ import annotations

import bisect
import heapq

# check_axiom and strongly_reduce are no longer called here; they stay
# importable as group.check_axiom and group.strongly_reduce
from .pree import TYPE_CHECKING, UNDEF, Pree, PreeError, Record, VerificationReport, check_axiom  # noqa: F401
from .words import (
    Word,
    contract_push,
    inverse_word,
    irreducible_form,
    render_word,
    strongly_reduce,  # noqa: F401
)

if TYPE_CHECKING:
    from collections.abc import Iterator

# limits of the bounded searches: words the identity oracle visits, elements of a ball
ORACLE_MAX_STATES = 500_000
BALL_ELEMENT_CAP = 250_000


def axioms_hold(p: Pree) -> bool:
    """True when the word solver may run: ``Pree.solver_problem`` is None."""
    return p.solver_problem is None


def require_solver(p: Pree) -> None:
    """Raise PreeError, with the reason, unless the word solver may run."""
    if p.solver_problem is not None:
        raise PreeError("the word solver needs a valid table and the short-cycle axioms; " + p.solver_problem)


class AbelianObstruction:
    """Image of words in the free abelian group modulo relator columns.

    A word that represents the identity must map into the lattice spanned
    by the vectors e_a + e_b - e_c over all defined products, so lattice
    non-membership certifies "not the identity".  Columns are kept in
    Hermite-style triangular form for an exact integer membership test.
    """

    def __init__(self, p: Pree):
        self.p = p
        idx = {}
        for a in p.elements():
            if a != p.identity:
                idx[a] = len(idx)
        self.index = idx
        m = len(idx)
        cols = []
        seen = set()
        for a, b, c in p.defined_pairs():
            v = [0] * m
            for e, s in ((a, 1), (b, 1), (c, -1)):
                if e != p.identity:
                    v[idx[e]] += s
            t = tuple(v)
            if any(t) and t not in seen:
                seen.add(t)
                cols.append(v)
        self.pivots = self._triangulate(cols, m)

    @staticmethod
    def _triangulate(cols: list[list[int]], m: int) -> list[tuple[int, list[int]]]:
        pivots = []
        for r in range(m):
            live = [c for c in cols if c[r] != 0]
            if not live:
                continue
            while len(live) > 1:
                live.sort(key=lambda c: abs(c[r]))
                base = live[0]
                for c in live[1:]:
                    q = c[r] // base[r]
                    for i in range(m):
                        c[i] -= q * base[i]
                live = [c for c in live if c[r] != 0]
            piv = live[0]
            if piv[r] < 0:
                for i in range(m):
                    piv[i] = -piv[i]
            cols = [c for c in cols if c is not piv and any(c)]
            pivots.append((r, piv))
        return pivots

    def vector(self, w: Word) -> tuple[int, ...]:
        v = [0] * len(self.index)
        one = self.p.identity
        for a in w:
            if a != one:
                v[self.index[a]] += 1
        return tuple(v)

    def residue(self, w: Word) -> tuple[int, ...]:
        """Canonical representative of vector(w) modulo the lattice.

        Words for the same group element share a residue, so it is a
        sound bucket key when testing word equality.
        """
        v = list(self.vector(w))
        for r, col in self.pivots:
            q = v[r] // col[r]
            if q:
                for i in range(len(v)):
                    v[i] -= q * col[i]
        return tuple(v)

    def might_be_identity(self, w: Word) -> bool:
        # the pivots are in echelon form, so the lattice is the residue-zero vectors
        return not any(self.residue(w))


def abelian_obstruction(p: Pree) -> AbelianObstruction:
    """The table's obstruction, built once per table instance."""
    return p.derived("abelian_obstruction", lambda: AbelianObstruction(p))


def bfs_identity_oracle(p: Pree, w: Word, length_bound: int = 8) -> bool | None:
    """Decide whether ``w`` represents the identity, independently.

    Neighbor moves replace an adjacent pair by its product or a letter by
    a two-letter factorization.  Shorter words are explored first.
    Returns True when the one-letter identity word is reached, False when
    the abelianized obstruction rules the word out or the component is
    exhausted without any truncated expansion, and None when the length
    bound (or ``ORACLE_MAX_STATES``) cut the exploration short.
    """
    if len(w) == 0:
        raise PreeError("empty word")
    if not abelian_obstruction(p).might_be_identity(w):
        return False

    target = (p.identity,)
    fact = p.factorizations
    table = p.table
    truncated = False
    seen = {w}
    heap: list[tuple[int, Word]] = [(len(w), w)]
    while heap:
        _, u = heapq.heappop(heap)
        if u == target:
            return True
        m = len(u)
        for i in range(m - 1):
            c = table[u[i]][u[i + 1]]
            if c != UNDEF:
                v = u[:i] + (c,) + u[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    heapq.heappush(heap, (m - 1, v))
        if m + 1 > length_bound:
            truncated = True
            continue
        for i in range(m):
            for e, f in fact[u[i]]:
                v = u[:i] + (e, f) + u[i + 1 :]
                if v not in seen:
                    seen.add(v)
                    heapq.heappush(heap, (m + 1, v))
        if len(seen) > ORACLE_MAX_STATES:
            return None
    return None if truncated else False


def equals_identity(p: Pree, w: Word) -> bool:
    """Dehn-style decision: whether ``irreducible_form`` is the word 1.

    Under the axioms a strongly irreducible word is geodesic unless it is
    the word 1, so any strip serves: the untraced one-pass reduction
    answers, and ``strongly_reduce``'s leftmost search is not needed.
    Refuses unless ``Pree.solver_problem`` is None; bfs_identity_oracle
    needs no precondition.
    """
    if len(w) == 0:
        raise PreeError("empty word")
    require_solver(p)
    return irreducible_form(p, w) == (p.identity,)


class CayleyBall(Record):
    """Ball of a given radius with representatives and step tables.

    ``reps[e]`` is a shortest word for element ``e`` (the identity is the
    empty word), ``dist[e]`` its length.  ``step[e][x]`` is the element
    of rep(e)*x and ``left[e][x]`` the element of x*rep(e); both hold -1
    when the result was not identified inside the ball.
    """

    __slots__ = _fields = ("pree", "radius", "reps", "dist", "step", "left")

    def __init__(self, pree: Pree, radius: int, reps: tuple[Word, ...], dist: tuple[int, ...],
                 step: tuple[tuple[int, ...], ...], left: tuple[tuple[int, ...], ...]):
        self.pree, self.radius, self.reps, self.dist, self.step, self.left = pree, radius, reps, dist, step, left

    @property
    def size(self) -> int:
        return len(self.reps)

    def element_of_word(self, w: Word) -> int | None:
        e = 0
        for x in w:
            e = self.step[e][x]
            if e == -1:
                return None
        return e

    def is_identity(self, w: Word) -> bool:
        """Whether ``w``, of at most 2 * radius letters, is the identity:
        its first ceil(n/2) letters and the inverse of the rest name one
        element, and both halves stay inside the ball."""
        if len(w) > 2 * self.radius:
            raise PreeError("a word of %d letters is longer than twice the radius" % len(w))
        h = (len(w) + 1) // 2
        return self.element_of_word(w[:h]) == self.element_of_word(inverse_word(self.pree, w[h:]))

    def render_rows(self) -> list[str]:
        out = []
        for e in range(self.size):
            rep = render_word(self.pree, self.reps[e]) if self.reps[e] else self.pree.name(self.pree.identity)
            out.append("%d\t%d\t%s" % (e, self.dist[e], rep))
        return out


def cayley_ball(p: Pree, radius: int, method: str = "dehn") -> CayleyBall:
    """Breadth-first ball over the nonidentity letters.

    Element identity is decided by equals_identity ("dehn") or by the
    neighbor-search oracle ("oracle", length bound 2 * radius + 6).  A
    candidate is looked up by its ``irreducible_form`` first, and the
    expensive check runs only within its abelianized bucket.  Each table
    keeps one breadth-first build per method, grown only past the radius
    already reached, so every element is identified once per table; the
    ball of radius r is a snapshot of its first r layers, equal to a fresh
    build, and is cached too.  A ball with more than ``BALL_ELEMENT_CAP`` elements
    raises PreeError, and a growth that raises drops the build.
    """
    if radius < 0:
        raise PreeError("radius must be nonnegative")
    return p.derived(("cayley_ball", radius, method), lambda: _snapshot(p, _grown(p, radius, method), radius))


class _Build:
    """A table's breadth-first build: elements in layer order, their parents,
    the step rows below ``radius``, the frontier, and the identify lookups."""

    def __init__(self, p: Pree):
        self.reps: list[Word] = [()]
        self.dist: list[int] = [0]
        self.parent: list[int] = [-1]
        self.rows: list[list[int]] = []
        self.frontier = [0]
        self.radius = 0
        self.buckets: dict[tuple[int, ...], list[int]] = {abelian_obstruction(p).residue(()): [0]}
        # irreducible forms give a sound fast path: one such word never
        # names two elements, though one element may have several
        self.by_reduced: dict[Word, int] = {(p.identity,): 0}


def _grown(p: Pree, radius: int, method: str) -> _Build:
    """The table's build for ``method``, grown to at least ``radius``.  It is
    taken out of the table while it grows, so a growth that raises leaves
    none behind, and the next call starts afresh."""
    if method == "dehn":
        require_solver(p)

        def same(u: Word, v: Word) -> bool:
            return equals_identity(p, u + inverse_word(p, v))

    elif method == "oracle":
        bound = 2 * radius + 6

        def same(u: Word, v: Word) -> bool:
            got = bfs_identity_oracle(p, u + inverse_word(p, v), length_bound=bound)
            if got is None:
                raise PreeError("oracle undecided while building ball")
            return got

    else:
        raise PreeError("unknown ball method %r" % method)

    builds = p.derived("ball_builds", dict)
    b = builds.pop(method, None) or _Build(p)
    obs = abelian_obstruction(p)
    gens = p.nonidentity()
    reps, dist, parent, buckets, by_reduced = b.reps, b.dist, b.parent, b.buckets, b.by_reduced

    def identify(w: Word) -> tuple[int | None, Word]:
        rw = irreducible_form(p, w)
        hit = by_reduced.get(rw)
        if hit is not None:
            return hit, rw
        for e in buckets.get(obs.residue(rw), ()):
            if same(rw, reps[e]):
                by_reduced[rw] = e
                return e, rw
        return None, rw

    for layer in range(b.radius + 1, radius + 1):
        new: list[int] = []
        for e in b.frontier:
            row = [-1] * p.size
            for g in gens:
                w = reps[e] + (g,)
                t, rw = identify(w)
                if t is None:
                    t = len(reps)
                    reps.append(w)
                    dist.append(layer)
                    parent.append(e)
                    buckets.setdefault(obs.residue(rw), []).append(t)
                    by_reduced[rw] = t
                    new.append(t)
                    if len(reps) > BALL_ELEMENT_CAP:
                        raise PreeError("ball exceeds element cap")
                row[g] = t
            b.rows.append(row)
        b.frontier = new
        b.radius = layer
    builds[method] = b
    return b


def _snapshot(p: Pree, b: _Build, radius: int) -> CayleyBall:
    """The ball of ``radius`` read off a build grown at least that far."""
    n = bisect.bisect_right(b.dist, radius)
    gens = p.nonidentity()
    step_rows = [b.rows[e][:] if b.dist[e] < radius else [-1] * p.size for e in range(n)]
    for e in range(n):
        step_rows[e][p.identity] = e
    # Boundary rows are filled from the interior side: e2*g = f exactly
    # when f*inv(g) = e2, and interior rows are total.  Entries whose
    # source and target both sit on the boundary stay -1.
    for f in range(n):
        if b.dist[f] == radius:
            continue
        frow = step_rows[f]
        for g in gens:
            e2 = frow[p.inv[g]]
            if e2 != -1:
                row2 = step_rows[e2]
                if row2[g] == -1:
                    row2[g] = f
    step = tuple(tuple(row) for row in step_rows)

    # left[e][x] propagates along the BFS tree: with e = parent * h,
    # x * e = (x * parent) * h; at the root, x * 1 = 1 * x.
    left_rows = [list(step[0])] + [[-1] * p.size for _ in range(n - 1)]
    for e in range(1, n):
        pe, h = b.parent[e], b.reps[e][-1]
        for x in p.elements():
            xp = left_rows[pe][x]
            left_rows[e][x] = -1 if xp == -1 else step[xp][h]
    left = tuple(tuple(r) for r in left_rows)

    reps, dist = tuple(b.reps[:n]), tuple(b.dist[:n])
    return CayleyBall(pree=p, radius=radius, reps=reps, dist=dist, step=step, left=left)


def verify_embedding(p: Pree) -> VerificationReport:
    """Letters stay distinct, products hold, undefined pairs stay apart, on the radius-3 ball."""
    r = VerificationReport("embedding")
    if p.solver_problem is not None:
        r.note("precondition unmet: %s, nothing asserted" % p.solver_problem)
        return r
    is_identity = cayley_ball(p, 3).is_identity
    letters = list(p.elements())
    for a in letters:
        for b in letters:
            if a < b and is_identity((a, p.inv[b])):
                r.problem("letters %s and %s collapse" % (p.name(a), p.name(b)))
    for a, b, c in p.defined_pairs():
        if not is_identity((a, b, p.inv[c])):
            r.problem("product relation fails: %s %s %s" % (p.name(a), p.name(b), p.name(c)))
    undefined = 0
    for a in letters:
        for b in letters:
            if p.defined(a, b):
                continue
            undefined += 1
            for c in letters:
                if is_identity((a, b, p.inv[c])):
                    r.problem(
                        "undefined pair %s %s collapses to letter %s"
                        % (p.name(a), p.name(b), p.name(c))
                    )
    r.note("letter pairs checked: %d, undefined pairs checked: %d" % (len(letters) ** 2, undefined))
    return r


def verify_short_identities(p: Pree) -> VerificationReport:
    """Length 4 and 5 words that represent 1 must be reducible.

    Identity is read off the radius-3 ball that the word solver built
    (``CayleyBall.is_identity``), so nothing is asserted unless
    ``Pree.solver_problem`` is None; the solver also strips, so the
    adjacency assertion stays independent of it.  Words of four letters are
    counted per leftmost-contraction fold, the same element; each fold is
    then extended by every letter, so a five-letter word gets the verdict
    on its fold.  A word is irreducible exactly when its fold keeps all of
    its letters.
    """
    r = VerificationReport("short-identity-reducibility")
    if p.solver_problem is not None:
        r.note("precondition unmet: %s, nothing asserted" % p.solver_problem)
        return r
    counts: dict[Word, int] = {(): 1}
    for _ in range(4):
        folded: dict[Word, int] = {}
        for stack, k in counts.items():
            for x in p.elements():
                t = contract_push(p.table, stack, x)
                folded[t] = folded.get(t, 0) + k
        counts = folded
    is_identity = cayley_ball(p, 3).is_identity
    hits = 0
    irreducible: list[Word] = []
    for s in sorted(counts):
        # s folds counts[s] four-letter words; pushing x folds as many of five
        for t, n in [(s, 4)] + [(contract_push(p.table, s, x), 5) for x in p.elements()]:
            if is_identity(t):
                hits += counts[s]
                if len(t) == n:
                    irreducible.append(t)
    for w in sorted(irreducible, key=len):  # stable, so word order within a length
        r.problem("irreducible identity word: " + render_word(p, w))
    r.note("words checked: %d, identity words found: %d" % (p.size**4 + p.size**5, hits))
    return r


class FellowTravelerReport(Record):
    """Observed synchronous separation over all compared word pairs."""

    __slots__ = _fields = (
        "target", "max_separation", "worst_u", "worst_v", "words_checked", "pairs_checked", "exceeded_arena",
    )

    def __init__(self, target: int, max_separation: int, worst_u: Word, worst_v: Word, words_checked: int,
                 pairs_checked: int, exceeded_arena: bool = False):
        self.target, self.max_separation, self.worst_u, self.worst_v = target, max_separation, worst_u, worst_v
        self.words_checked, self.pairs_checked, self.exceeded_arena = words_checked, pairs_checked, exceeded_arena

    @property
    def ok(self) -> bool:
        return self.max_separation <= self.target and not self.exceeded_arena

    def render(self, p: Pree) -> str:
        lines = [
            "fellow-traveling: %s" % ("pass" if self.ok else "FAIL"),
            "  observed max separation: %d (target %d)" % (self.max_separation, self.target),
            "  words: %d, pairs: %d" % (self.words_checked, self.pairs_checked),
        ]
        if self.max_separation:
            lines.append("  worst pair: [%s] [%s]" % (render_word(p, self.worst_u), render_word(p, self.worst_v)))
        if self.exceeded_arena:
            lines.append("  a difference left the tracked arena")
        return "\n".join(lines)


def sync_separation(arena: CayleyBall, u: Word, v: Word) -> tuple[int, bool]:
    """Max distance between same-time prefixes, end-padded.

    Returns (max separation, exceeded) where exceeded means some
    difference left the arena ball and the reported value is only a
    lower bound (arena radius + 1).
    """
    left, step, dist, inv = arena.left, arena.step, arena.dist, arena.pree.inv
    d = 0
    worst = 0
    for i in range(max(len(u), len(v))):
        if i < len(u):
            d = left[d][inv[u[i]]]
            if d == -1:
                return arena.radius + 1, True
        if i < len(v):
            d = step[d][v[i]]
            if d == -1:
                return arena.radius + 1, True
        if dist[d] > worst:
            worst = dist[d]
    return worst, False


def neighbor_pairs(p: Pree, ball: CayleyBall, words: list[Word]) -> Iterator[tuple[Word, Word]]:
    """Each unordered pair of words whose endpoints coincide or differ by one generator.

    Pairs come in endpoint order.  ``ball`` must have total rows at every
    endpoint; a word that leaves it raises.
    """
    by_end: dict[int, list[Word]] = {}
    for w in words:
        e = ball.element_of_word(w)
        if e is None:
            raise PreeError("accepted word leaves the ball; language is not geodesic")
        by_end.setdefault(e, []).append(w)
    gens = p.nonidentity()
    for e1 in sorted(by_end):
        targets = {e1}
        for g in gens:
            t = ball.step[e1][g]
            if t != -1:
                targets.add(t)
        for e2 in sorted(targets):
            if e2 < e1 or e2 not in by_end:
                continue
            for i, u in enumerate(by_end[e1]):
                for j, v in enumerate(by_end[e2]):
                    if e1 != e2 or i < j:
                        yield u, v


def fellow_ball(p: Pree, R: int, K: int) -> CayleyBall:
    """The fellow-traveler ball: radius R + 1 keeps endpoints interior, and
    the arena reaches K + 2 or 2R + 1, past every difference of two words
    of length <= R."""
    return cayley_ball(p, max(R + 1, min(K + 2, 2 * R + 1)))


def fellow_traveler_check(p: Pree, language, R: int, K: int) -> FellowTravelerReport:
    """Compare all same-start pairs of accepted words of length <= R.

    Pairs qualify when their endpoints coincide or differ by one
    generator.  The shorter word idles at its endpoint once exhausted.
    One ball, ``fellow_ball(p, R, K)``, serves both roles, and its
    radius never exceeds 2R + 1, however large K is.
    """
    ball = fellow_ball(p, R, K)
    words = [tuple(w) for w in language.enumerate_words(R)]
    max_sep = 0
    worst = ((), ())
    pairs = 0
    exceeded = False
    for u, v in neighbor_pairs(p, ball, words):
        pairs += 1
        sep, over = sync_separation(ball, u, v)
        exceeded = exceeded or over
        if sep > max_sep:
            max_sep = sep
            worst = (u, v)
    return FellowTravelerReport(
        target=K,
        max_separation=max_sep,
        worst_u=worst[0],
        worst_v=worst[1],
        words_checked=len(words),
        pairs_checked=pairs,
        exceeded_arena=exceeded,
    )


def verify_surjectivity(p: Pree, language, R: int) -> VerificationReport:
    """Every ball element needs an accepted word of geodesic length."""
    r = VerificationReport("combing-surjectivity")
    ball = cayley_ball(p, R)
    covered = set()
    for w in language.enumerate_words(R):
        w = tuple(w)
        e = ball.element_of_word(w)
        if e is not None and len(w) == ball.dist[e]:
            covered.add(e)
    missing = [e for e in range(ball.size) if e != 0 and e not in covered]
    for e in missing:
        r.problem(
            "element %s (distance %d) has no accepted representative"
            % (render_word(p, ball.reps[e]), ball.dist[e])
        )
    r.note("ball size %d at radius %d; identity covered by convention" % (ball.size, R))
    return r
