"""Reference implementations that the suite compares the fast paths against.

Each object has one oracle here.  Some compute the answer another way (plane
vectors, stack cancellation, table folding, a forward breadth-first search);
the rest are the code a fast path replaced, kept as it was written.  An
oracle reads the names it imports, so a test that patches ``group`` or
``words`` does not reach it; ``reference_short_identities`` alone looks its
solver up on ``group``, so that a patch does.
"""

import heapq
import itertools
from collections import deque
from typing import Optional

from preekit import group
from preekit.diagrams import (
    Diagram,
    DiagramError,
    DiagramStats,
    _triangle_reading,
    attach_triangle,
    single_triangle,
)
from preekit.fsa import PAD, FiniteAutomaton, build_combing_table, pair_alphabet
from preekit.group import (
    BALL_ELEMENT_CAP,
    CayleyBall,
    abelian_obstruction,
    bfs_identity_oracle,
    cayley_ball,
    equals_identity,
    neighbor_pairs,
    require_solver,
)
from preekit.pree import UNDEF, AxiomWitness, Pree, PreeError, VerificationReport, closure_products
from preekit.words import (
    ReductionTrace,
    StripWitness,
    TraceStep,
    Word,
    find_strip,
    inverse_word,
    render_word,
    strongly_reduce,
)


def reference_closure(inv, table):
    """load_pree's closure completion as it was: passes over the table until
    one fills no entry, each undefined companion of a defined entry taking
    the first value offered."""
    table = [list(row) for row in table]
    changed = True
    while changed:
        changed = False
        for a in range(len(table)):
            for b in range(len(table)):
                c = table[a][b]
                if c == UNDEF:
                    continue
                for x, y, z in closure_products(inv, a, b, c):
                    if table[x][y] == UNDEF:
                        table[x][y] = z
                        changed = True
    return tuple(tuple(row) for row in table)


def zxz_vector(p, w):
    """Independent oracle: letters are lattice vectors, words sum them.

    The group the zxz table presents is the integer plane, so a word is
    the identity exactly when its letter vectors cancel.
    """
    x = y = 0
    for a in w:
        nx, ny = p.name(a).strip("()").split(",")
        x += int(nx)
        y += int(ny)
    return x, y


def zxz_distance(x: int, y: int) -> int:
    """Word metric on the plane with unit axis steps and the two
    diagonal steps (1,1) and (-1,-1)."""
    if x * y >= 0:
        return max(abs(x), abs(y))
    return abs(x) + abs(y)


def table_fold(p, w):
    """Oracle for full tables: fold the word through the table."""
    e = p.identity
    for a in w:
        c = p.product(e, a)
        assert c is not None
        e = c
    return e


def free_reduce(p, w):
    """Stack cancellation, the whole story for a table with no products."""
    out = []
    for a in w:
        if a == p.identity:
            continue
        if out and out[-1] == p.inv[a]:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


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


def reference_reduce_once(p: Pree, w: Word) -> Optional[tuple[Word, int]]:
    """Contract the leftmost adjacent pair with a defined product."""
    for i in range(len(w) - 1):
        c = p.table[w[i]][w[i + 1]]
        if c != UNDEF:
            return w[:i] + (c,) + w[i + 2 :], i
    return None


def reference_strip_reduce_once(p: Pree, w: Word) -> Optional[tuple[Word, StripWitness]]:
    wit = find_strip(p, w)
    if wit is None:
        return None
    out = w[: wit.start] + wit.output + w[wit.start + wit.top_length :]
    return out, wit


def reference_strongly_reduce(p: Pree, w: Word) -> tuple[Word, ReductionTrace]:
    """Contract and strip to a fixpoint, simple reductions first.

    Each step shortens the word by one, so at most len(w) - 1 steps run.
    """
    if len(w) == 0:
        raise PreeError("empty word")
    steps: list[TraceStep] = []
    while True:
        got = reference_reduce_once(p, w)
        if got is not None:
            w, pos = got
            steps.append(TraceStep(kind="simple", position=pos))
            continue
        got2 = reference_strip_reduce_once(p, w)
        if got2 is not None:
            w, wit = got2
            steps.append(TraceStep(kind="strip", position=wit.start, witness=wit))
            continue
        return w, ReductionTrace(steps=tuple(steps))


def reference_is_geodesic_word(p: Pree, w: Word) -> bool:
    """Irreducible, strip-free, and not the one-letter identity word."""
    if len(w) == 0 or w == (p.identity,):
        return False
    if any(p.table[a][b] != UNDEF for a, b in zip(w, w[1:])):
        return False
    return reference_find_strip(p, w) is None


def nfa_accepts(m, w):
    """Whether ``m`` accepts ``w``: the set of reachable states, one letter at a time."""
    cur = set(m.initial)
    for sym in w:
        cur = {t for s in cur for t in m.transitions.get((s, sym), ())}
        if not cur:
            return False
    return bool(cur & set(m.accepting))


def top_projection(m):
    """The words on the top tape of a pair machine, the padding dropped."""
    trans: dict = {}
    for (s, (x, _)), ts in m.transitions.items():
        if x != PAD:
            trans.setdefault((s, x), set()).update(ts)
    alphabet = list(dict.fromkeys(x for x, _ in m.alphabet if x != PAD))
    return FiniteAutomaton(m.n_states, alphabet, trans, m.initial, m.accepting)


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


def reference_irreducible(p: Pree) -> FiniteAutomaton:
    """Words with no identity letter and no adjacent defined product, the
    empty word included.  State 0 starts; state 1+x means the last letter was x."""
    trans: dict = {}
    for x in p.nonidentity():
        trans[(0, x)] = (1 + x,)
    for x in p.elements():
        for y in p.elements():
            if p.table[x][y] == UNDEF:
                trans[(1 + x, y)] = (1 + y,)
    return FiniteAutomaton(
        1 + p.size,
        p.elements(),
        trans,
        [0],
        [0] + [1 + x for x in p.elements()],
    )


def reference_geodesic_acceptor(p: Pree) -> FiniteAutomaton:
    """Irreducible words with no strip reduction, except the word "1"."""
    pair = reference_pair_recognizer(p)
    has_strip = top_projection(pair)
    no_strip = has_strip.determinize().complement()
    irr = reference_irreducible(p)
    return irr.intersect(no_strip).minimize()


def reference_combing_acceptor(p):
    """The combing acceptor as a window automaton run in product with
    ``reference_geodesic_acceptor``."""
    table = build_combing_table(p)
    size = p.size
    # state 0: even number of letters consumed, no pending window
    # 1+x: one pending letter x (odd position); 1+size+(x*size+y): two pending
    pend1 = lambda x: 1 + x
    pend2 = lambda x, y: 1 + size + x * size + y
    n_states = 1 + size + size * size
    trans: dict = {}
    for x in p.elements():
        trans[(0, x)] = (pend1(x),)
        for y in p.elements():
            trans[(pend1(x), y)] = (pend2(x, y),)
            for z in p.elements():
                if (x, y, z) not in table.forbidden:
                    trans[(pend2(x, y), z)] = (pend1(z),)
    windows = FiniteAutomaton(
        n_states, p.elements(), trans, [0], range(n_states)
    )
    return reference_geodesic_acceptor(p).intersect(windows).minimize()


def reference_pre_sweep(p, language, K, R):
    """The word-difference machine's own pair sweep before it ran the
    fellow-traveler check, verbatim but for returning the failing pair."""
    arena = cayley_ball(p, K + 1)
    dist, step, left, inv = arena.dist, arena.step, arena.left, p.inv

    # endpoints live at distance <= R; one extra layer keeps their
    # neighbor lookups inside complete rows
    ball = cayley_ball(p, R + 1)
    words = [tuple(w) for w in language.enumerate_words(R)]
    for u, v in neighbor_pairs(p, ball, words):
        d = 0
        for s in range(max(len(u), len(v))):
            if s < len(u):
                d = left[d][inv[u[s]]]
            if d != -1 and s < len(v):
                d = step[d][v[s]]
            if d == -1 or dist[d] > K:
                return u, v
    return None


def reference_cycle_fails(p, cycle):
    n = len(cycle)
    quot = []
    for i in range(n):
        q = p.table[p.inv[cycle[i]]][cycle[(i + 1) % n]]
        if q == UNDEF:
            return None
        quot.append(q)
    for i in range(n):
        if p.table[quot[i]][quot[(i + 1) % n]] != UNDEF:
            return None
    return tuple(quot)


def reference_check_axiom(p, n):
    """The unpruned search: every cycle whose quotients are all defined."""
    cycle = [0] * n

    def extend(i):
        if i == n:
            return reference_cycle_fails(p, cycle)
        for a in range(p.size):
            cycle[i] = a
            if i > 0 and p.table[p.inv[cycle[i - 1]]][a] == UNDEF:
                continue
            got = extend(i + 1)
            if got is not None:
                return got
        return None

    quot = extend(0)
    if quot is None:
        return None
    witness = AxiomWitness(cycle=tuple(cycle), quotients=quot)
    for r in range(1, n):
        if reference_cycle_fails(p, witness.cycle[r:] + witness.cycle[:r]) is None:
            raise PreeError("witness not rotation-closed: %s" % witness.render(p))
    if reference_cycle_fails(p, tuple(reversed(witness.cycle))) is None:
        raise PreeError("witness not reversal-closed: %s" % witness.render(p))
    return witness


def reference_short_identities(p):
    """The per-word loop: one solver call for every word of length 4 and 5.

    The solver is looked up on the module, so a test's patch reaches it."""
    r = VerificationReport("short-identity-reducibility")
    checked = 0
    hits = 0
    for n in (4, 5):
        for w in itertools.product(p.elements(), repeat=n):
            checked += 1
            if not group.equals_identity(p, w):
                continue
            hits += 1
            if all(p.table[w[i]][w[i + 1]] == UNDEF for i in range(n - 1)):
                r.problem("irreducible identity word: " + render_word(p, w))
    r.note("words checked: %d, identity words found: %d" % (checked, hits))
    return r


def reference_lattice_contains(obs, vec):
    """The membership loop might_be_identity used before it read the residue."""
    v = list(vec)
    for r, col in obs.pivots:
        if v[r] == 0:
            continue
        if v[r] % col[r] != 0:
            return False
        q = v[r] // col[r]
        for i in range(len(v)):
            v[i] -= q * col[i]
    return not any(v)


def build_ball(p: Pree, radius: int, method: str) -> CayleyBall:
    """One fresh breadth-first build of exactly ``radius`` layers: the
    reference that each snapshot of a table's one build must equal."""
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

    obs = abelian_obstruction(p)
    gens = p.nonidentity()
    reps: list[Word] = [()]
    dist: list[int] = [0]
    buckets: dict[tuple[int, ...], list[int]] = {obs.residue(()): [0]}
    # strongly reduced forms give a sound fast path: one reduced word
    # never names two elements, though one element may have several
    by_reduced: dict[Word, int] = {(): 0, (p.identity,): 0}

    def identify(w: Word) -> tuple[Optional[int], Word]:
        rw, _ = strongly_reduce(p, w)
        hit = by_reduced.get(rw)
        if hit is not None:
            return hit, rw
        for e in buckets.get(obs.residue(rw), ()):
            if same(rw, reps[e]):
                by_reduced[rw] = e
                return e, rw
        return None, rw

    step_rows: dict[int, list[int]] = {}
    frontier = [0]
    for layer in range(1, radius + 1):
        new: list[int] = []
        for e in frontier:
            row = step_rows.setdefault(e, [-1] * p.size)
            for g in gens:
                w = reps[e] + (g,)
                t, rw = identify(w)
                if t is None:
                    t = len(reps)
                    reps.append(w)
                    dist.append(layer)
                    buckets.setdefault(obs.residue(rw), []).append(t)
                    by_reduced[rw] = t
                    new.append(t)
                    if len(reps) > BALL_ELEMENT_CAP:
                        raise PreeError("ball exceeds element cap")
                row[g] = t
        frontier = new

    n = len(reps)
    for e in range(n):
        step_rows.setdefault(e, [-1] * p.size)[p.identity] = e
    # Boundary rows are filled from the interior side: e2*g = f exactly
    # when f*inv(g) = e2, and interior rows are total.  Entries whose
    # source and target both sit on the boundary stay -1.
    for f in range(n):
        if dist[f] == radius and radius > 0:
            continue
        frow = step_rows[f]
        for g in gens:
            e2 = frow[p.inv[g]]
            if e2 != -1:
                row2 = step_rows[e2]
                if row2[g] == -1:
                    row2[g] = f
    step = tuple(tuple(step_rows[e]) for e in range(n))

    # left[e][x] propagates along the BFS tree: with e = parent * h,
    # x * e = (x * parent) * h; at the root, x * 1 = 1 * x.
    left_rows = [list(step[0])] + [[-1] * p.size for _ in range(n - 1)]
    for e in range(1, n):
        parent_word, h = reps[e][:-1], reps[e][-1]
        pe = 0
        for y in parent_word:
            pe = step[pe][y]
        for x in p.elements():
            xp = left_rows[pe][x]
            left_rows[e][x] = -1 if xp == -1 else step[xp][h]
    left = tuple(tuple(r) for r in left_rows)

    return CayleyBall(
        pree=p, radius=radius, reps=tuple(reps), dist=tuple(dist), step=step, left=left
    )


def reference_canonical(p: Pree, w: Word) -> Word:
    iw = inverse_word(p, w)
    n = len(w)
    best = None
    for t in (w, iw):
        for r in range(n):
            cand = t[r:] + t[:r]
            if best is None or cand < best:
                best = cand
    return best


def reference_diagram_from_strip(p: Pree, witness: StripWitness) -> Diagram:
    """Strip gallery as a diagram: boundary reads top then inverse output."""
    a = witness.top
    n = len(a)
    d = witness.diagonals
    c = witness.output
    inv = p.inv
    g = [0] * n  # g[i] defined for 2..n-1
    for i in range(2, n):
        g[i] = p.table[inv[a[i - 1]]][d[i - 2]]
        if g[i] == UNDEF:
            raise DiagramError("strip witness does not hold in the table")
    # vertices: t0..tn are 0..n, b1..b_{n-2} are n+1..2n-2
    t = list(range(n + 1))
    b = [0] + [n + i for i in range(1, n - 1)] + [n]
    edges = []
    top = []
    for i in range(1, n + 1):
        top.append(len(edges))
        edges.append((t[i - 1], t[i], a[i - 1]))
    bot = []
    for i in range(1, n):
        bot.append(len(edges))
        edges.append((b[i - 1], b[i], c[i - 1]))
    dia = {}
    for i in range(1, n - 1):
        dia[i] = len(edges)
        edges.append((t[i], b[i], d[i - 1]))
    ged = {}
    for i in range(2, n):
        ged[i] = len(edges)
        edges.append((t[i], b[i - 1], g[i]))
    faces = [((top[0], False), (bot[0], True), (dia[1], False))]
    for i in range(2, n):
        faces.append(((top[i - 1], False), (dia[i - 1], True), (ged[i], False)))
    for i in range(2, n - 1):
        faces.append(((ged[i], True), (bot[i - 1], True), (dia[i], False)))
    faces.append(((ged[n - 1], True), (bot[n - 2], True), (top[n - 1], False)))
    boundary = [(e, True) for e in top] + [(e, False) for e in reversed(bot)]
    return Diagram(p, 2 * n - 1, tuple(edges), tuple(faces), tuple(boundary))


def reference_fan_diagram(p: Pree, spokes: list[int]) -> Diagram:
    """Hub of the given degree: spoke labels read outward from vertex 0.

    Consecutive spokes must have a defined quotient; the rim closes up
    and the hub becomes an internal vertex of degree len(spokes).
    """
    n = len(spokes)
    if n < 3:
        raise DiagramError("need at least 3 spokes")
    quot = []
    for i in range(n):
        q = p.table[p.inv[spokes[i]]][spokes[(i + 1) % n]]
        if q == UNDEF:
            raise DiagramError("spoke quotient %d is not defined" % i)
        quot.append(q)
    # vertices: hub 0, rim 1..n
    edges = []
    spoke_eid = []
    for i in range(n):
        spoke_eid.append(len(edges))
        edges.append((0, 1 + i, spokes[i]))
    rim_eid = []
    for i in range(n):
        rim_eid.append(len(edges))
        edges.append((1 + i, 1 + (i + 1) % n, quot[i]))
    faces = []
    for i in range(n):
        faces.append(
            (
                (spoke_eid[i], True),
                (rim_eid[i], True),
                (spoke_eid[(i + 1) % n], False),
            )
        )
    boundary = [(rim_eid[(n - 1 - k)], False) for k in range(n)]
    return Diagram(p, n + 1, tuple(edges), tuple(faces), tuple(boundary))


def reference_find_minimal_diagram(p: Pree, w: Word, max_area: int = 12) -> Optional[Diagram]:
    """Smallest diagram whose boundary reads w up to rotation/inversion.

    Searches the move graph on cyclic boundary words: contracting an
    adjacent pair undoes a two-edge attachment, expanding a letter into
    a defined factorization undoes a one-edge attachment.  Each move is
    one triangle, so area = 1 + move distance to a triangle word; A*
    with the admissible bound max(1, length - 3) keeps it exact.  The
    winning path is replayed through attach_triangle.
    """
    if len(w) < 2:
        raise PreeError("boundary word needs length >= 2")
    if max_area < 1:
        return None
    if not abelian_obstruction(p).might_be_identity(w):
        return None
    table, inv, fact = p.table, p.inv, p.factorizations

    def h(n: int) -> int:
        return max(1, n - 3)

    start = reference_canonical(p, w)
    best_g = {start: 0}
    parents: dict[Word, tuple[Word, tuple, Word]] = {}
    heap = [(h(len(start)), 0, start)]
    goal = None
    while heap:
        f, g, rep = heapq.heappop(heap)
        if g > best_g.get(rep, -1):
            continue
        if _triangle_reading(p, rep) is not None:
            goal = rep
            break
        n = len(rep)
        children = []
        if n >= 3:
            for i in range(n):
                c = table[rep[i]][rep[(i + 1) % n]]
                if c == UNDEF:
                    continue
                if i < n - 1:
                    child = rep[:i] + (c,) + rep[i + 2 :]
                else:
                    child = (c,) + rep[1 : n - 1]
                children.append((("c", i), child))
        for i in range(n):
            for e, fa in fact[rep[i]]:
                children.append((("e", i, e, fa), rep[:i] + (e, fa) + rep[i + 1 :]))
        for move, child in children:
            ng = g + 1
            if ng + h(len(child)) > max_area - 1:
                continue
            cc = reference_canonical(p, child)
            if ng < best_g.get(cc, ng + 1):
                best_g[cc] = ng
                parents[cc] = (rep, move, child)
                heapq.heappush(heap, (ng + h(len(cc)), ng, cc))
    if goal is None:
        return None

    x1, x2, x3 = _triangle_reading(p, goal)
    d = single_triangle(p, x1, x2)
    node = goal
    while node != start:
        parent, move, exact = parents[node]
        match = next(
            (s, dr) for s, dr, word in d.readings() if word == exact
        )
        offset, direction = match
        n_child = len(exact)
        if move[0] == "c":
            i = move[1]
            np_ = len(parent)
            j = i if i < np_ - 1 else 0
            x, y = parent[i], parent[(i + 1) % np_]
            pos = (offset + direction * j) % n_child
            if direction == 1:
                d = attach_triangle(d, pos, (x, y))
            else:
                d = attach_triangle(d, pos, (inv[y], inv[x]))
        else:
            i = move[1]
            if direction == 1:
                d = attach_triangle(d, (offset + i) % n_child)
            else:
                d = attach_triangle(d, (offset - i - 1) % n_child)
        node = parent
    return d


def forward_min_area(p, w, cap):
    """Grow boundary words triangle by triangle, breadth-first."""
    target = reference_canonical(p, w)
    fact = [[] for _ in range(p.size)]
    triangles = set()
    for a, b, c in p.defined_pairs():
        fact[c].append((a, b))
        triangles.add(reference_canonical(p, (a, b, p.inv[c])))
    if target in triangles:
        return 1
    seen = set(triangles)
    layer = deque((t, 1) for t in sorted(triangles))
    while layer:
        u, area = layer.popleft()
        if area >= cap:
            continue
        n = len(u)
        succs = []
        for i in range(n):
            x, y = u[i], u[(i + 1) % n]
            c = p.table[x][y]
            if c != -1 and n >= 3:
                succs.append(u[:i] + (c,) + u[i + 2 :] if i + 1 < n else (c,) + u[1:-1])
        for i in range(n):
            for e, f in fact[u[i]]:
                succs.append(u[:i] + (e, f) + u[i + 1 :])
        for v in succs:
            cv = reference_canonical(p, v)
            if cv == target:
                return area + 1
            if cv not in seen:
                seen.add(cv)
                layer.append((cv, area + 1))
    return None


def reference_diagram_stats(d):
    """``diagram_stats`` with the no-anchor and one-anchor cases spelled out."""
    deg = d.degrees()
    bverts = d.boundary_vertices()
    on_b = set(bverts)
    d2 = sum(1 for v in on_b if deg[v] == 2)
    d3 = sum(1 for v in on_b if deg[v] == 3)
    d5 = sum(1 for v in on_b if deg[v] > 4)
    internal = tuple(sorted(deg[v] for v in range(d.n_vertices) if v not in on_b))
    n = len(bverts)
    anchors = [q for q in range(n) if deg[bverts[q]] in (2, 3)]
    if not anchors:
        galleries = 0
    elif len(anchors) == 1:
        others = [deg[bverts[q]] for q in range(n) if q != anchors[0]]
        galleries = 1 if all(x == 4 for x in others) else 0
    else:
        galleries = 0
        for ai in range(len(anchors)):
            a, bq = anchors[ai], anchors[(ai + 1) % len(anchors)]
            gap_ok = True
            q = (a + 1) % n
            while q != bq:
                if deg[bverts[q]] != 4:
                    gap_ok = False
                    break
                q = (q + 1) % n
            if gap_ok:
                galleries += 1
    return DiagramStats(
        area=d.area,
        boundary_length=n,
        delta2=d2,
        delta3=d3,
        delta5=d5,
        internal_degrees=internal,
        galleries=galleries,
    )

