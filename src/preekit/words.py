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


def contract_push(table, stack: Word, x: int) -> Word:
    """Push ``x`` onto a stack with no defined adjacent pair, then combine
    the top two letters while their product is defined.  Pushing a word's
    letters in turn is repeated leftmost contraction."""
    while stack:
        c = table[stack[-1]][x]
        if c == UNDEF:
            break
        stack, x = stack[:-1], c
    return stack + (x,)


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


def strip_masks(p: Pree) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The strip relation as bitmasks over diagonals, built once per table.

    ``right[x]`` holds the diagonals d for which x*d is defined: the
    first triangle of a strip on top letter x.  ``step[a][d]`` holds the
    diagonals e for which g = inv(a)*d and inv(g)*e are defined: a strip
    on d crosses the top letter a onto e and emits the letter inv(g)*e.
    ``close[a][b]`` holds the diagonals d whose ``step[a][d]`` holds b,
    so that a strip on d closes on the top letters a b.  These three
    tables are the only encoding of the relation; the strip search, its
    witness, the geodesic step and the pair recognizer all read them.
    """

    def build():
        table, inv, elems = p.table, p.inv, p.elements()
        right = [sum(1 << d for d in elems if row[d] != UNDEF) for row in table]
        step = [
            [0 if (g := table[inv[a]][d]) == UNDEF else right[inv[g]] for d in elems]
            for a in elems
        ]
        close = [[sum(1 << d for d in elems if row[d] >> b & 1) for b in elems] for row in step]
        return right, step, close

    return p.derived("strip_masks", build)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _witness(p: Pree, start: int, top: Word, cols: list[int]) -> StripWitness:
    """The diagonal-minimal witness of a strip covering ``top``.

    ``cols[j]`` holds the diagonals d_{j+1} reachable from the left.  A
    backward pass keeps the live ones, those from which the strip still
    closes; walking forward, the lowest live successor is always taken.
    """
    _, step, close = strip_masks(p)
    table, inv = p.table, p.inv
    n = len(top)
    live = [0] * (n - 2)
    live[-1] = cols[-1] & close[top[-2]][top[-1]]
    for j in range(n - 4, -1, -1):
        row, nxt, col, keep = step[top[j + 1]], live[j + 1], cols[j], 0
        while col:
            low = col & -col
            if row[low.bit_length() - 1] & nxt:
                keep |= low
            col ^= low
        live[j] = keep
    d = _lowest(live[0])
    diagonals, output = [d], [table[top[0]][d]]
    for j in range(1, n - 2):
        g = table[inv[top[j]]][d]
        d = _lowest(step[top[j]][d] & live[j])
        diagonals.append(d)
        output.append(table[inv[g]][d])
    g = table[inv[top[-2]]][d]
    output.append(table[inv[g]][top[-1]])
    return StripWitness(start=start, top=top, diagonals=tuple(diagonals), output=tuple(output))


def find_strip(p: Pree, w: Word) -> Optional[StripWitness]:
    """Leftmost, then shortest, then diagonal-minimal strip in ``w``.

    From each start one int per column holds the diagonals reachable so
    far (``strip_masks``): the next column is the OR of ``step`` over the
    set bits of the current one, and the shortest strip ends at the
    first column that meets ``close`` of the next two letters.  The
    kept columns then give the diagonal-minimal witness.
    """
    right, step, close = strip_masks(p)
    m = len(w)
    for start in range(m - 2):
        cur = right[w[start]]
        cols = [cur]
        # cur holds the diagonals entering column n - 2 of a strip of
        # length n, which closes the moment cur meets close[a][b]
        for n in range(3, m - start + 1):
            a = w[start + n - 2]
            if cur & close[a][w[start + n - 1]]:
                return _witness(p, start, w[start : start + n], cols)
            if start + n == m:
                break
            row, nxt = step[a], 0
            while cur:
                low = cur & -cur
                nxt |= row[low.bit_length() - 1]
                cur ^= low
            cur = nxt
            cols.append(cur)
    return None


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

    Letters fold through ``contract_push``, which contracts leftmost; a
    strip leaves a prefix with no defined pair, and the fold resumes after
    it.  Each step shortens the word by one, so at most len(w) - 1 run.
    """
    if len(w) == 0:
        raise PreeError("empty word")
    steps: list[TraceStep] = []
    stack: Word = ()
    while True:
        for x in w:
            n = len(stack)
            stack = contract_push(p.table, stack, x)
            for i in range(n - 1, len(stack) - 2, -1):
                steps.append(TraceStep(kind="simple", position=i))
        wit = find_strip(p, stack)
        if wit is None:
            return stack, ReductionTrace(steps=tuple(steps))
        steps.append(TraceStep(kind="strip", position=wit.start, witness=wit))
        stack, w = stack[: wit.start], wit.output + stack[wit.start + wit.top_length :]


def geodesic_step(p: Pree, x: int, mask: int, y: int) -> Optional[int]:
    """The mask after ``y`` follows ``x``, or None when ``x y`` contracts or
    closes a strip.  ``mask`` holds the diagonals of the strips from all
    earlier starts whose next top letter is ``x``; the next one holds the
    strips crossing ``x`` and those opening on it.  The union tells whether
    a strip exists, not which is leftmost (``find_strip``)."""
    right, step, close = strip_masks(p)
    if p.table[x][y] != UNDEF or mask & close[x][y]:
        return None
    row, nxt = step[x], right[x]
    while mask:
        low = mask & -mask
        nxt |= row[low.bit_length() - 1]
        mask ^= low
    return nxt


def is_geodesic_word(p: Pree, w: Word) -> bool:
    """Irreducible, strip-free, and not the one-letter identity word: one
    left-to-right pass of ``geodesic_step``."""
    if len(w) == 0 or w == (p.identity,):
        return False
    mask = 0
    for x, y in zip(w, w[1:]):
        mask = geodesic_step(p, x, mask, y)
        if mask is None:
            return False
    return True
