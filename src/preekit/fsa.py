"""Finite automata and the regular languages attached to a pree.

The toolkit half is generic (NFA/DFA, determinize, minimize, boolean
algebra, bounded enumeration); every machine it builds numbers its
states with one breadth-first walk, ``_explore``.  The language half
builds the recognizer for the pair relation "one strip reduction apart",
the geodesic acceptor and the combing sublanguage (both walks over
``words.geodesic_step``), and the synchronous word-difference machine
over padded pairs.

Symbols are plain hashable values: element ids for word languages,
(x, y) tuples for pair languages.  PAD (-2) marks the end-padding on
the shorter tape and renders as "$".
"""

from __future__ import annotations

from .pree import TYPE_CHECKING, UNDEF, Pree, Record
from .words import geodesic_step, strip_masks
# equals_identity is not called here; it stays importable as an fsa attribute
from .group import (  # noqa: F401
    FellowTravelerReport, cayley_ball, equals_identity, fellow_ball, fellow_traveler_check,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

PAD = -2


def _explore(start, moves: Callable) -> tuple[list, dict]:
    """Number the states reachable from ``start`` breadth-first, where
    ``moves(state)`` yields (symbol, next state); returns the states in
    that order and the transitions (number, symbol) -> (next number,)."""
    index = {start: 0}
    order = [start]
    trans: dict = {}
    for i, state in enumerate(order):  # reaches the states appended as it runs
        for sym, nxt in moves(state):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(order)
                order.append(nxt)
            trans[(i, sym)] = (j,)
    return order, trans


class FiniteAutomaton:
    """Automaton with integer states 0..n-1 and hashable symbols.

    Transitions map (state, symbol) to a sorted tuple of targets;
    missing keys mean no move.  The instance is treated as immutable.
    """

    def __init__(
        self,
        n_states: int,
        alphabet: Iterable,
        transitions: dict,
        initial: Iterable[int],
        accepting: Iterable[int],
    ):
        self.n_states = n_states
        self.alphabet = tuple(alphabet)
        self.transitions = {
            k: tuple(sorted(set(v))) for k, v in transitions.items() if v
        }
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.deterministic = len(self.initial) == 1 and all(
            len(v) == 1 for v in self.transitions.values()
        )

    def targets(self, state: int, sym) -> tuple[int, ...]:
        return self.transitions.get((state, sym), ())

    def accepts(self, word: Iterable) -> bool:
        cur = self.initial
        for sym in word:
            cur = frozenset(t for s in cur for t in self.targets(s, sym))
            if not cur:
                return False
        return bool(cur & self.accepting)

    def determinize(self) -> "FiniteAutomaton":
        if self.deterministic:
            return self

        def moves(cur):
            for sym in self.alphabet:
                nxt = frozenset(t for s in cur for t in self.targets(s, sym))
                if nxt:
                    yield sym, nxt

        order, trans = _explore(frozenset(self.initial), moves)
        accepting = [i for i, ss in enumerate(order) if ss & self.accepting]
        return FiniteAutomaton(len(order), self.alphabet, trans, [0], accepting)

    def complete(self) -> "FiniteAutomaton":
        d = self.determinize()
        missing = [
            (s, a) for s in range(d.n_states) for a in d.alphabet if not d.targets(s, a)
        ]
        if not missing and d.n_states > 0:
            return d
        sink = d.n_states
        trans = dict(d.transitions)
        for key in missing:
            trans[key] = (sink,)
        for a in d.alphabet:
            trans[(sink, a)] = (sink,)
        initial = d.initial if d.initial else frozenset([sink])
        return FiniteAutomaton(sink + 1, d.alphabet, trans, initial, d.accepting)

    def complement(self) -> "FiniteAutomaton":
        c = self.complete()
        return FiniteAutomaton(
            c.n_states,
            c.alphabet,
            c.transitions,
            c.initial,
            [s for s in range(c.n_states) if s not in c.accepting],
        )

    def minimize(self) -> "FiniteAutomaton":
        c = self.complete()
        block = [1 if s in c.accepting else 0 for s in range(c.n_states)]
        while True:
            sigs: dict = {}
            nxt = [0] * c.n_states
            for s in range(c.n_states):
                sig = (block[s],) + tuple(
                    block[c.targets(s, a)[0]] for a in c.alphabet
                )
                if sig not in sigs:
                    sigs[sig] = len(sigs)
                nxt[s] = sigs[sig]
            if nxt == block:
                break
            block = nxt
        # quotient, then BFS renumber from the initial block for stability
        rep_of = {}
        for s in range(c.n_states):
            rep_of.setdefault(block[s], s)

        def moves(b):
            s = rep_of[b]
            for a in c.alphabet:
                yield a, block[c.targets(s, a)[0]]

        order, qtrans = _explore(block[next(iter(c.initial))], moves)
        accepted = {block[s] for s in c.accepting}
        accepting = [i for i, b in enumerate(order) if b in accepted]
        return FiniteAutomaton(len(order), c.alphabet, qtrans, [0], accepting)

    def intersect(self, other: "FiniteAutomaton") -> "FiniteAutomaton":
        a, b = self.determinize(), other.determinize()
        if not (a.initial and b.initial):
            return FiniteAutomaton(1, a.alphabet, {}, [0], [])

        def moves(pair):
            sa, sb = pair
            for sym in a.alphabet:
                ta, tb = a.targets(sa, sym), b.targets(sb, sym)
                if ta and tb:
                    yield sym, (ta[0], tb[0])

        order, trans = _explore((next(iter(a.initial)), next(iter(b.initial))), moves)
        accepting = [i for i, (sa, sb) in enumerate(order) if sa in a.accepting and sb in b.accepting]
        return FiniteAutomaton(len(order), a.alphabet, trans, [0], accepting)

    def union(self, other: "FiniteAutomaton") -> "FiniteAutomaton":
        off = self.n_states
        trans = dict(self.transitions)
        for (s, sym), ts in other.transitions.items():
            trans[(s + off, sym)] = tuple(t + off for t in ts)
        alphabet = list(self.alphabet)
        for sym in other.alphabet:
            if sym not in alphabet:
                alphabet.append(sym)
        return FiniteAutomaton(
            off + other.n_states,
            alphabet,
            trans,
            list(self.initial) + [s + off for s in other.initial],
            list(self.accepting) + [s + off for s in other.accepting],
        )

    def is_empty(self) -> bool:
        return not (self.initial & self._coaccessible())

    def _coaccessible(self) -> frozenset:
        rev: dict[int, set[int]] = {}
        for (s, _), ts in self.transitions.items():
            for t in ts:
                rev.setdefault(t, set()).add(s)
        seen = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            s = stack.pop()
            for r in rev.get(s, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    def enumerate_words(self, max_len: int) -> list[tuple]:
        """Accepted words of length <= max_len in length-lex order."""
        if max_len < 0:
            return []
        live = self._coaccessible()
        out: list[tuple] = []
        start = frozenset(self.initial) & live
        if self.initial & self.accepting:
            out.append(())
        layer: list[tuple[tuple, frozenset]] = [((), start)] if start else []
        for _ in range(max_len):
            nxt: list[tuple[tuple, frozenset]] = []
            for w, states in layer:
                for sym in self.alphabet:
                    t = frozenset(
                        x for s in states for x in self.targets(s, sym) if x in live
                    )
                    if not t:
                        continue
                    word = w + (sym,)
                    if t & self.accepting:
                        out.append(word)
                    nxt.append((word, t))
            layer = nxt
        return out


def render_symbol(p: Pree, sym) -> str:
    if isinstance(sym, tuple):
        return ",".join(render_symbol(p, s) for s in sym)
    if sym == PAD:
        return "$"
    return p.name(sym)


def fsa_to_text(m: FiniteAutomaton, name: Callable) -> str:
    lines = ["states %d" % m.n_states]
    lines.append("initial " + " ".join(str(s) for s in sorted(m.initial)))
    lines.append("accepting " + " ".join(str(s) for s in sorted(m.accepting)))
    for s in range(m.n_states):
        for i, sym in enumerate(m.alphabet):
            for t in m.targets(s, sym):
                lines.append("%d %s %d" % (s, name(sym), t))
    return "\n".join(lines) + "\n"


def fsa_to_dot(m: FiniteAutomaton, name: Callable) -> str:
    lines = ["digraph fsa {", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    for s in range(m.n_states):
        shape = "doublecircle" if s in m.accepting else "circle"
        lines.append('  q%d [shape=%s, label="%d"];' % (s, shape, s))
    for s in sorted(m.initial):
        lines.append("  hidden -> q%d;" % s)
    for s in range(m.n_states):
        for sym in m.alphabet:
            for t in m.targets(s, sym):
                lines.append('  q%d -> q%d [label="%s"];' % (s, t, name(sym)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def pair_alphabet(p: Pree) -> list[tuple[int, int]]:
    letters = p.elements()
    out = [(x, y) for x in letters for y in letters]
    out += [(x, PAD) for x in letters]
    out += [(PAD, y) for y in letters]
    return out


def strip_reduction_pair_recognizer(p: Pree) -> FiniteAutomaton:
    """Pairs (u, v$) where v is u with one strip reduction applied.

    States: 0 copies the common prefix; 1+d carries the last diagonal
    of a strip in progress; after the strip, v runs one letter behind u
    (states 1+size+e expect u to emit e next); the final state pairs
    u's last letter with the pad.  A strip opens on the diagonals in
    ``right`` and moves along ``step`` of ``words.strip_masks``.
    """
    size = p.size
    copy, accept = 0, 1 + 2 * size
    strip = lambda d: 1 + d
    expect = lambda e: 1 + size + e
    table, inv = p.table, p.inv
    right, step, _ = strip_masks(p)
    bits = lambda mask: (d for d in p.elements() if mask >> d & 1)
    trans: dict = {}

    def add(s, sym, t):
        trans.setdefault((s, sym), []).append(t)

    for x in p.elements():
        add(copy, (x, x), copy)
    for a in p.elements():
        for d in bits(right[a]):
            add(copy, (a, table[a][d]), strip(d))
    for d in p.elements():
        for a in p.elements():
            for e in bits(step[a][d]):
                c = table[inv[table[inv[a]][d]]][e]
                add(strip(d), (a, c), strip(e))
                add(strip(d), (a, c), expect(e))
    for e in p.elements():
        for y in p.elements():
            add(expect(e), (e, y), expect(y))
        add(expect(e), (e, PAD), accept)
    return FiniteAutomaton(2 + 2 * size, pair_alphabet(p), trans, [copy], [accept])


def _geodesic_moves(p: Pree, state):
    """One geodesic step: the (letter, next state) pairs after ``state``.
    The states are None for the empty word and the (last letter, mask)
    pairs of ``words.geodesic_step``."""
    if state is None:
        for y in p.nonidentity():
            yield y, (y, 0)
        return
    x, mask = state
    for y in p.elements():
        nxt = geodesic_step(p, x, mask, y)
        if nxt is not None:
            yield y, (y, nxt)


def geodesic_acceptor(p: Pree) -> FiniteAutomaton:
    """Irreducible words with no strip reduction, except the word "1"; every
    state of the walk accepts."""
    order, trans = _explore(None, lambda state: _geodesic_moves(p, state))
    return FiniteAutomaton(len(order), p.elements(), trans, [0], range(len(order))).minimize()


class CombingTable(Record):
    """Per-triple predicate driving the combing language.

    forbidden holds the triples (x, y, z) banned at odd block starts.
    sprime[x, y] is the set of third letters c completing some defined
    abc with bc undefined and abc equal to xy in the group.
    """

    __slots__ = _fields = ("sprime", "forbidden")

    def __init__(self, sprime: dict[tuple[int, int], frozenset], forbidden: frozenset):
        self.sprime, self.forbidden = sprime, forbidden


def build_combing_table(p: Pree) -> CombingTable:
    """Tabulate the banned triples.

    abc equals xy in the group exactly when both name one element of the
    radius-3 ball, so each a b c with bc undefined files c under its
    element, and sprime(x, y) is what is filed under the element of x y:
    O(|P|^3) lookups, and no solver call once the ball is built.  A triple
    (x, y, z) is banned when some c in sprime(x, y) has a defined product
    c*z.  Refuses unless the word solver may run on ``p``.
    """
    step = cayley_ball(p, 3).step
    letters = p.nonidentity()
    table = p.table
    filed: dict[int, set] = {}
    for a in letters:
        for b in letters:
            ab = step[step[0][a]][b]
            for c in letters:
                if table[b][c] == UNDEF:
                    filed.setdefault(step[ab][c], set()).add(c)
    sprime = {
        (x, y): frozenset(filed.get(step[step[0][x]][y], ())) for x in letters for y in letters
    }
    forbidden = frozenset(
        (x, y, z) for (x, y), cs in sprime.items() for z in letters
        if any(table[c][z] != UNDEF for c in cs)
    )
    return CombingTable(sprime=sprime, forbidden=forbidden)


def combing_acceptor(p: Pree) -> FiniteAutomaton:
    """Geodesics whose odd-position windows avoid the banned triples.

    Positions are 1-indexed; a window (w_j, w_j+1, w_j+2) is checked for
    every odd j with j+2 <= n.  One walk carries the geodesic state and
    the letters of the open window: a third letter closes the window,
    unless the three are banned, and opens the next one.
    """
    forbidden = build_combing_table(p).forbidden

    def moves(state):
        geo, window = state
        for y, nxt in _geodesic_moves(p, geo):
            if len(window) < 2:
                yield y, (nxt, window + (y,))
            elif window + (y,) not in forbidden:
                yield y, (nxt, (y,))

    order, trans = _explore((None, ()), moves)
    return FiniteAutomaton(len(order), p.elements(), trans, [0], range(len(order))).minimize()


def word_difference_machine(
    p: Pree, language: FiniteAutomaton, K: int, R: int
) -> FiniteAutomaton | FellowTravelerReport:
    """Synchronous pair machine with word differences as ball elements.

    First runs ``fellow_traveler_check(p, language, R, K)``; a failing
    report is returned as the witness, naming the worst pair.  Otherwise
    builds the product machine (language state, language state,
    difference, pad flags) on the check's ball, pruning transitions
    whose difference leaves the radius-K ball, and accepts padded pairs
    that end with both words accepted and difference of length <= 1.
    """
    report = fellow_traveler_check(p, language, R, K)
    if not report.ok:
        return report
    ball = fellow_ball(p, R, K)
    dist, step, left, inv = ball.dist, ball.step, ball.left, p.inv

    D = language.determinize()
    q0 = next(iter(D.initial))
    start = (q0, q0, 0, False, False)
    # breadth-first, so the first depth set for a state is its least
    depth = {start: 0}
    letters = list(D.alphabet)

    def moves(state):
        qu, qv, d, pu, pv = state
        if depth[state] >= R:
            return
        xs = [PAD] if pu else [x for x in letters if D.targets(qu, x)]
        if not pu and qu in D.accepting:
            xs.append(PAD)
        ys = [PAD] if pv else [y for y in letters if D.targets(qv, y)]
        if not pv and qv in D.accepting:
            ys.append(PAD)
        for x in xs:
            for y in ys:
                if x == PAD and y == PAD:
                    continue
                nd = d
                if x != PAD:
                    nd = left[nd][inv[x]]
                    if nd == -1:
                        continue
                if y != PAD:
                    nd = step[nd][y]
                    if nd == -1:
                        continue
                if dist[nd] > K:
                    continue
                nqu = qu if x == PAD else D.targets(qu, x)[0]
                nqv = qv if y == PAD else D.targets(qv, y)[0]
                key = (nqu, nqv, nd, pu or x == PAD, pv or y == PAD)
                depth.setdefault(key, depth[state] + 1)
                yield (x, y), key

    order, trans = _explore(start, moves)
    accepting = [
        i for i, (qu, qv, d, pu, pv) in enumerate(order)
        if (pu or qu in D.accepting) and (pv or qv in D.accepting) and dist[d] <= 1
    ]
    return FiniteAutomaton(len(order), pair_alphabet(p), trans, [0], accepting)
