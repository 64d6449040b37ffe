"""Words over a pree and the rewriting moves that shorten them.

Two moves preserve the represented group element while shortening a
word.  A simple reduction contracts an adjacent pair with a defined
product.  A strip reduction replaces a length-n subword (n >= 3) by a
length-(n-1) word through a zigzag of triangles whose interior state is
a sequence of diagonal letters; its data is a :class:`StripWitness`.
A word is strongly irreducible when neither move applies, and it is
geodesic exactly when it is strongly irreducible and not the one-letter
identity word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pree import UNDEF, Pree, PreeError

Word = tuple[int, ...]


def parse_word(p: Pree, text: str) -> Word:
    """Tokenize a word string; parenthesized names may abut without spaces."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "(":
            j = text.find(")", i)
            if j == -1:
                raise PreeError("unbalanced '(' in word %r" % text)
            toks.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] != "(":
                j += 1
            toks.append(text[i:j])
            i = j
    if not toks:
        raise PreeError("empty word")
    return tuple(p.id_of(t) for t in toks)


def render_word(p: Pree, w: Word) -> str:
    return " ".join(p.name(a) for a in w)


def inverse_word(p: Pree, w: Word) -> Word:
    return tuple(p.inv[a] for a in reversed(w))


def reduce_once(p: Pree, w: Word) -> Optional[tuple[Word, int]]:
    """Contract the leftmost adjacent pair with a defined product."""
    for i in range(len(w) - 1):
        c = p.table[w[i]][w[i + 1]]
        if c != UNDEF:
            return w[:i] + (c,) + w[i + 2 :], i
    return None


@dataclass(frozen=True)
class StripWitness:
    """Certificate that letters ``top`` rewrite to ``output``.

    With top = a_1..a_n (1-indexed) and diagonals d_1..d_{n-2}:

      c_1 = a_1 * d_1
      g_i = inv(a_i) * d_{i-1}   and   c_i = inv(g_i) * d_i     (2 <= i <= n-2)
      g_{n-1} = inv(a_{n-1}) * d_{n-2}   and   c_{n-1} = inv(g_{n-1}) * a_n

    every product being defined in the pree.
    """

    start: int
    top: tuple[int, ...]
    diagonals: tuple[int, ...]
    output: tuple[int, ...]

    @property
    def top_length(self) -> int:
        return len(self.top)

    def validate(self, p: Pree) -> None:
        a, d, c = self.top, self.diagonals, self.output
        n = len(a)
        if n < 3 or len(d) != n - 2 or len(c) != n - 1:
            raise PreeError("malformed strip witness")
        if p.product(a[0], d[0]) != c[0]:
            raise PreeError("strip witness: first triangle fails")
        for j in range(1, n - 2):
            g = p.product(p.inv[a[j]], d[j - 1])
            if g is None or p.product(p.inv[g], d[j]) != c[j]:
                raise PreeError("strip witness: interior fails at %d" % j)
        g = p.product(p.inv[a[n - 2]], d[n - 3])
        if g is None or p.product(p.inv[g], a[n - 1]) != c[n - 2]:
            raise PreeError("strip witness: last triangle fails")


def _strip_dp(p: Pree, a: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
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


def find_strip(p: Pree, w: Word) -> Optional[StripWitness]:
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
                got = _strip_dp(p, top)
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


def strip_reduce_once(p: Pree, w: Word) -> Optional[tuple[Word, StripWitness]]:
    wit = find_strip(p, w)
    if wit is None:
        return None
    out = w[: wit.start] + wit.output + w[wit.start + wit.top_length :]
    return out, wit


@dataclass(frozen=True)
class TraceStep:
    kind: str  # "simple" | "strip"
    position: int
    witness: object = None


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]


def apply_trace(p: Pree, w: Word, trace: ReductionTrace) -> Word:
    """Replay a trace; each step recomputes its rewrite from the table."""
    for step in trace.steps:
        i = step.position
        if step.kind == "simple":
            c = p.product(w[i], w[i + 1])
            if c is None:
                raise PreeError("trace replay: undefined product at %d" % i)
            w = w[:i] + (c,) + w[i + 2 :]
        elif step.kind == "strip":
            wit = step.witness
            if w[i : i + wit.top_length] != wit.top:
                raise PreeError("trace replay: strip top mismatch at %d" % i)
            wit.validate(p)
            w = w[:i] + wit.output + w[i + wit.top_length :]
        else:
            raise PreeError("trace replay: unknown step kind %r" % step.kind)
    return w


def strongly_reduce(p: Pree, w: Word) -> tuple[Word, ReductionTrace]:
    """Contract and strip to a fixpoint, simple reductions first.

    Each step shortens the word by one, so at most len(w) - 1 steps run.
    """
    if len(w) == 0:
        raise PreeError("empty word")
    steps: list[TraceStep] = []
    while True:
        got = reduce_once(p, w)
        if got is not None:
            w, pos = got
            steps.append(TraceStep(kind="simple", position=pos))
            continue
        got2 = strip_reduce_once(p, w)
        if got2 is not None:
            w, wit = got2
            steps.append(TraceStep(kind="strip", position=wit.start, witness=wit))
            continue
        return w, ReductionTrace(steps=tuple(steps))


def is_geodesic_word(p: Pree, w: Word) -> bool:
    """Irreducible, strip-free, and not the one-letter identity word."""
    if len(w) == 0:
        return False
    if len(w) == 1:
        return w[0] != p.identity
    if reduce_once(p, w) is not None:
        return False
    return find_strip(p, w) is None
