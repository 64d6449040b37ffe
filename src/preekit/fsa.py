"""Finite automata and the regular languages attached to a pree.

The toolkit half is generic (NFA/DFA, determinize, minimize, boolean
algebra, bounded enumeration).  The language half builds acceptors for
irreducible words, for the pair relation "one strip reduction apart",
for geodesics, for the combing sublanguage, and the synchronous
word-difference machine over padded pairs.

Symbols are plain hashable values: element ids for word languages,
(x, y) tuples for pair languages.  PAD (-2) marks the end-padding on
the shorter tape and renders as "$".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .pree import UNDEF, Pree
from .words import Word, render_word, strip_masks
# equals_identity is no longer called here; it stays importable as fsa.equals_identity
from .group import cayley_ball, contract_push, equals_identity, neighbor_pairs, stack_is_identity  # noqa: F401

PAD = -2


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
        start = frozenset(self.initial)
        index = {start: 0}
        order = [start]
        trans: dict = {}
        qi = 0
        while qi < len(order):
            cur = order[qi]
            for sym in self.alphabet:
                nxt = frozenset(t for s in cur for t in self.targets(s, sym))
                if not nxt:
                    continue
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                trans[(qi, sym)] = (index[nxt],)
            qi += 1
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
        q0 = block[next(iter(c.initial))]
        order = {q0: 0}
        queue = [q0]
        qtrans: dict = {}
        rep_of = {}
        for s in range(c.n_states):
            rep_of.setdefault(block[s], s)
        qi = 0
        while qi < len(queue):
            b = queue[qi]
            s = rep_of[b]
            for a in c.alphabet:
                tb = block[c.targets(s, a)[0]]
                if tb not in order:
                    order[tb] = len(order)
                    queue.append(tb)
                qtrans[(order[b], a)] = (order[tb],)
            qi += 1
        accepting = sorted(
            {order[block[s]] for s in c.accepting if block[s] in order}
        )
        return FiniteAutomaton(len(order), c.alphabet, qtrans, [0], accepting)

    def intersect(self, other: "FiniteAutomaton") -> "FiniteAutomaton":
        a, b = self.determinize(), other.determinize()
        if not (a.initial and b.initial):
            return FiniteAutomaton(1, a.alphabet, {}, [0], [])
        start = (next(iter(a.initial)), next(iter(b.initial)))
        index = {start: 0}
        order = [start]
        trans: dict = {}
        qi = 0
        while qi < len(order):
            sa, sb = order[qi]
            for sym in a.alphabet:
                ta, tb = a.targets(sa, sym), b.targets(sb, sym)
                if ta and tb:
                    key = (ta[0], tb[0])
                    if key not in index:
                        index[key] = len(order)
                        order.append(key)
                    trans[(qi, sym)] = (index[key],)
            qi += 1
        accepting = [
            i
            for i, (sa, sb) in enumerate(order)
            if sa in a.accepting and sb in b.accepting
        ]
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

    def map_symbols(self, f: Callable) -> "FiniteAutomaton":
        """Relabel symbols through f; None drops the transition."""
        trans: dict = {}
        alphabet = []
        for sym in self.alphabet:
            m = f(sym)
            if m is not None and m not in alphabet:
                alphabet.append(m)
        for (s, sym), ts in self.transitions.items():
            m = f(sym)
            if m is None:
                continue
            key = (s, m)
            trans[key] = tuple(sorted(set(trans.get(key, ()) + ts)))
        return FiniteAutomaton(self.n_states, alphabet, trans, self.initial, self.accepting)

    def is_empty(self) -> bool:
        seen = set(self.initial)
        stack = list(self.initial)
        while stack:
            s = stack.pop()
            if s in self.accepting:
                return False
            for sym in self.alphabet:
                for t in self.targets(s, sym):
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        return True

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


def irreducible_acceptor(p: Pree) -> FiniteAutomaton:
    """Words with no adjacent defined product, the empty word included.

    State 0 starts; state 1+x means the last letter was x.  The word
    "1" is accepted: a lone identity letter has no adjacent pair.
    """
    return _irreducible(p, allow_word_one=True)


def _irreducible(p: Pree, allow_word_one: bool) -> FiniteAutomaton:
    trans: dict = {}
    for x in p.elements():
        if allow_word_one or x != p.identity:
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


def geodesic_acceptor(p: Pree) -> FiniteAutomaton:
    """Irreducible words with no strip reduction, except the word "1"."""
    pair = strip_reduction_pair_recognizer(p)
    has_strip = pair.map_symbols(lambda s: s[0] if s[0] != PAD else None)
    no_strip = has_strip.determinize().complement()
    irr = _irreducible(p, allow_word_one=False)
    return irr.intersect(no_strip).minimize()


@dataclass
class CombingTable:
    """Per-triple predicate driving the combing language.

    forbidden holds the triples (x, y, z) banned at odd block starts.
    sprime[x, y] is the set of third letters c completing some defined
    abc with bc undefined and abc equal to xy in the group.
    """

    sprime: dict[tuple[int, int], frozenset]
    forbidden: frozenset


def build_combing_table(p: Pree) -> CombingTable:
    """Tabulate the banned triples.

    For sprime, each a b c with bc undefined is folded once, extended by
    inv(y) and then inv(x), and judged by ``stack_is_identity``, whose
    memo of folds up to four letters ``verify_short_identities`` fills.
    A triple (x, y, z) is banned when some c in sprime(x, y) has a defined
    product c*z.
    """
    letters = p.nonidentity()
    table, inv = p.table, p.inv
    hits: dict[tuple[int, int], set] = {(x, y): set() for x in letters for y in letters}
    for a in letters:
        for b in letters:
            ab = contract_push(table, (a,), b)
            for c in letters:
                if table[b][c] != UNDEF:
                    continue
                abc = contract_push(table, ab, c)
                for y in letters:
                    abcy = contract_push(table, abc, inv[y])
                    for x in letters:
                        if stack_is_identity(p, contract_push(table, abcy, inv[x])):
                            hits[(x, y)].add(c)
    sprime = {xy: frozenset(cs) for xy, cs in hits.items()}
    forbidden = frozenset(
        (x, y, z) for (x, y), cs in sprime.items() for z in letters
        if any(table[c][z] != UNDEF for c in cs)
    )
    return CombingTable(sprime=sprime, forbidden=forbidden)


def combing_acceptor(p: Pree) -> FiniteAutomaton:
    """Geodesics whose odd-position windows avoid the banned triples.

    Positions are 1-indexed; a window (w_j, w_j+1, w_j+2) is checked for
    every odd j with j+2 <= n.  The window automaton runs in product
    with the geodesic acceptor.
    """
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
    return geodesic_acceptor(p).intersect(windows).minimize()


@dataclass
class FailureWitness:
    """A candidate pair whose difference left the tracked ball."""

    u: Word
    v: Word
    step: int

    def render(self, p: Pree) -> str:
        return "difference exceeds bound at step %d for pair [%s] [%s]" % (
            self.step,
            render_word(p, self.u),
            render_word(p, self.v),
        )


def word_difference_machine(
    p: Pree, language: FiniteAutomaton, K: int, R: int
) -> Union[FiniteAutomaton, FailureWitness]:
    """Synchronous pair machine with word differences as ball elements.

    First sweeps all pairs of accepted words of length <= R whose
    endpoints coincide or differ by a generator; if any such pair's
    running difference leaves the radius-K ball, that is a failure
    witness.  Otherwise builds the product machine (language state,
    language state, difference, pad flags), pruning transitions whose
    difference exits the ball, and accepts padded pairs that end with
    both words accepted and difference of length <= 1.
    """
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
                return FailureWitness(u=u, v=v, step=s + 1)

    D = language.determinize()
    q0 = next(iter(D.initial))
    start = (q0, q0, 0, False, False)
    index = {start: 0}
    order = [start]
    depth = [0]
    trans: dict = {}
    accepting = []
    letters = list(D.alphabet)
    qi = 0
    while qi < len(order):
        qu, qv, d, pu, pv = order[qi]
        u_done = pu or qu in D.accepting
        v_done = pv or qv in D.accepting
        if u_done and v_done and dist[d] <= 1:
            accepting.append(qi)
        if depth[qi] >= R:
            qi += 1
            continue
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
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                    depth.append(depth[qi] + 1)
                trans[(qi, (x, y))] = (index[key],)
        qi += 1
    return FiniteAutomaton(len(order), pair_alphabet(p), trans, [0], accepting)
