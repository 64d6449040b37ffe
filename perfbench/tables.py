"""Tables the benchmark runs on, and the reference answers it checks against.

Every reference here comes from lattice arithmetic, syllable normal forms
or free reduction, never from preekit.  The zxz letters are the six
nonzero lattice vectors within one taxicab step of the diagonal; the free
product FP2 joins two zxz copies at the identity with no cross products.
"""

from __future__ import annotations

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")

# zxz directions in cyclic order around the origin; neighbours in this
# order span a sector, and words over one sector are geodesic.
HEX = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def vec_name(v: tuple[int, int]) -> str:
    return "(%d,%d)" % v


def hex_dist(v: tuple[int, int]) -> int:
    """Word length of a lattice vector over the zxz letters."""
    x, y = v
    return max(abs(x), abs(y)) if x * y >= 0 else abs(x) + abs(y)


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXTURES, name + ".pree")) as fh:
        return fh.read()


def _text(comment, elements, identity, inverses, products) -> str:
    lines = ["# " + comment, "elements: " + " ".join(elements), "identity: " + identity]
    lines += ["inverse: %s %s" % pair for pair in inverses]
    lines += ["product: %s %s %s" % triple for triple in products]
    return "\n".join(lines) + "\n"


def cyclic_text(n: int, rng) -> str:
    """Full table of Z_n; rng shuffles the element order, hence the ids."""
    name = lambda k: "g%d" % k if k else "e"
    order = [name(k) for k in range(1, n)]
    rng.shuffle(order)
    inverses = [(name(k), name(n - k)) for k in range(1, n) if k < n - k]
    products = [
        (name(a), name(b), name((a + b) % n))
        for a in range(1, n)
        for b in range(1, n)
        if (a + b) % n
    ]
    return _text("Z_%d, full table" % n, ["e"] + order, "e", inverses, products)


def free_product_text(factors: str = "ab") -> str:
    """Copies of zxz, one per factor letter, sharing only the identity."""
    elements, inverses, products = ["1"], [], []
    for f in factors:
        nm = lambda v: f + vec_name(v)
        elements += [nm(v) for v in HEX]
        inverses += [(nm(v), nm((-v[0], -v[1]))) for v in HEX[:3]]
        for u in HEX:
            for v in HEX:
                w = (u[0] + v[0], u[1] + v[1])
                if w in HEX:
                    products.append((nm(u), nm(v), nm(w)))
    return _text("free product of %d zxz copies" % len(factors), elements, "1", inverses, products)


class Reference:
    """Independent word arithmetic for one table.

    ``letter[id]`` is (factor, vector) for a lattice letter and None for
    the identity.  Lattice tables (zxz, FP2) reduce words to syllable
    normal forms: adjacent same-factor letters merge by vector sum and
    zero syllables drop.  The free table (taxicab) reduces freely.
    """

    def __init__(self, p, free: bool = False):
        self.free = free
        self.letter = []
        for a, nm in enumerate(p.names):
            if a == p.identity:
                self.letter.append(None)
                continue
            head, vec = nm.split("(")
            x, y = vec.rstrip(")").split(",")
            self.letter.append((head.rsplit(".", 1)[-1], (int(x), int(y))))
        self.index = {fv: a for a, fv in enumerate(self.letter) if fv is not None}
        self.factors = sorted({f for f, _ in self.index})
        self.inv = [
            a if fv is None else self.index[(fv[0], (-fv[1][0], -fv[1][1]))]
            for a, fv in enumerate(self.letter)
        ]

    def normal_form(self, w, start: tuple = ()) -> tuple:
        """Normal form of ``start`` followed by the letters of ``w``."""
        out = list(start)
        for a in w:
            fv = self.letter[a]
            if fv is None:
                continue
            f, (x, y) = fv
            if self.free:
                if out and out[-1] == (f, (-x, -y)):
                    out.pop()
                else:
                    out.append(fv)
            elif out and out[-1][0] == f:
                px, py = out[-1][1]
                s = (px + x, py + y)
                if s == (0, 0):
                    out.pop()
                else:
                    out[-1] = (f, s)
            else:
                out.append(fv)
        return tuple(out)

    def length(self, w) -> int:
        """Geodesic length of the element w represents."""
        nf = self.normal_form(w)
        return len(nf) if self.free else sum(hex_dist(v) for _, v in nf)

    def is_identity(self, w) -> bool:
        return not self.normal_form(w)


def ball_sizes(letters: list, reference: Reference, radius: int) -> list[int]:
    """Sphere sizes of the word metric, by BFS over normal forms."""
    seen = {()}
    frontier = [()]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for nf in frontier:
            for a in letters:
                t = reference.normal_form((a,), nf)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes
