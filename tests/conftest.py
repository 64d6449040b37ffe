import os
import random

import pytest

from preekit.fsa import PAD, FiniteAutomaton
from preekit.pree import UNDEF, Pree, load_pree

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name + ".pree")


def load_fixture(name: str):
    with open(fixture_path(name)) as fh:
        return load_pree(fh.read())


@pytest.fixture(scope="session")
def zxz():
    return load_fixture("zxz")


@pytest.fixture(scope="session")
def s3():
    return load_fixture("s3")


@pytest.fixture(scope="session")
def z6():
    return load_fixture("z6")


@pytest.fixture(scope="session")
def q8():
    return load_fixture("q8")


@pytest.fixture(scope="session")
def taxicab():
    return load_fixture("taxicab")


@pytest.fixture(scope="session")
def cycle4():
    return load_fixture("cycle4")


@pytest.fixture(scope="session")
def cycle5():
    return load_fixture("cycle5")


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


def all_words(p, length: int):
    letters = p.nonidentity()
    if length == 0:
        yield ()
        return
    for prefix in all_words(p, length - 1):
        for a in letters:
            yield prefix + (a,)


def cyclic_pree(n, seed=0):
    """Full table of Z_n, element ids shuffled by ``seed``."""
    name = lambda k: "g%d" % k if k else "e"
    order = [name(k) for k in range(1, n)]
    random.Random(seed).shuffle(order)
    lines = ["elements: e " + " ".join(order), "identity: e"]
    lines += ["inverse: %s %s" % (name(k), name(n - k)) for k in range(1, n) if k < n - k]
    lines += [
        "product: %s %s %s" % (name(a), name(b), name((a + b) % n))
        for a in range(1, n) for b in range(1, n) if (a + b) % n
    ]
    return load_pree("\n".join(lines) + "\n")


def corrupt_cyclic_pree():
    """The full table of Z_6 built directly as a Pree, with one entry
    changed: g1*g2 = g4.  The table fails validation (closure violations),
    yet both short-cycle axioms hold on it."""
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    table[1][2] = 4
    return Pree(
        names=("e", "g1", "g2", "g3", "g4", "g5"),
        identity=0,
        inv=tuple(-a % 6 for a in range(6)),
        table=tuple(map(tuple, table)),
    )


def dihedral_subtable(n, seed, keep=0.1):
    """Part of the table of the dihedral group of order 2n: each product is
    kept with probability ``keep``, and load_pree adds the identity and
    inverse laws and the triangle closure.  Such tables often break an
    axiom, and their quotient products do not commute."""
    rng = random.Random(seed)
    els = [(f, k) for f in (0, 1) for k in range(n)]
    name = lambda e: ("s%d" if e[0] else "r%d") % e[1]
    mul = lambda x, y: ((x[0] + y[0]) % 2, ((-x[1] if y[0] else x[1]) + y[1]) % n)
    inv = {e: next(f for f in els if mul(e, f) == (0, 0)) for e in els}
    lines = ["elements: " + " ".join(map(name, els)), "identity: r0"]
    lines += ["inverse: %s %s" % (name(e), name(inv[e])) for e in els]
    lines += [
        "product: %s %s %s" % (name(a), name(b), name(mul(a, b)))
        for a in els for b in els if rng.random() < keep
    ]
    return load_pree("\n".join(lines) + "\n")


def free_product_pree(p):
    """Two copies of ``p``, a and b, sharing only the identity; no product
    joins letters of two copies.  On zxz this is FP2."""
    factors = "ab"
    e, letters = p.identity, p.nonidentity()
    name = lambda f, a: f + p.name(a)
    lines = ["elements: " + " ".join([p.name(e)] + [name(f, a) for f in factors for a in letters])]
    lines += ["identity: " + p.name(e)]
    lines += ["inverse: %s %s" % (name(f, a), name(f, p.inv[a])) for f in factors for a in letters if a <= p.inv[a]]
    lines += [
        "product: %s %s %s" % (name(f, a), name(f, b), name(f, c))
        for f in factors for a in letters for b in letters
        if (c := p.table[a][b]) not in (UNDEF, e)
    ]
    return load_pree("\n".join(lines) + "\n")


A2_FANO_TRIPLES = ((0, 0, 3), (0, 1, 4), (1, 1, 2), (2, 5, 6), (2, 6, 3), (3, 6, 5), (4, 4, 5))


def a2_fano_pree():
    """A triangle presentation over the Fano plane: letters a0..a6 and their
    inverses A0..A6, with a_x a_y = A_z for each rotation (x, y, z) of each
    triple.  Its group acts simply transitively on the vertices of an
    Ã2 building of order 2 (Cartwright, Mantero, Steger and Zappa, 1993)."""
    lines = ["elements: e " + " ".join("a%d A%d" % (x, x) for x in range(7)), "identity: e"]
    lines += ["inverse: a%d A%d" % (x, x) for x in range(7)]
    lines += [
        "product: a%d a%d A%d" % t
        for x, y, z in A2_FANO_TRIPLES for t in ((x, y, z), (y, z, x), (z, x, y))
    ]
    return load_pree("\n".join(lines) + "\n")


def a2_sphere_size(r):
    """Elements at word length ``r`` in the Ã2 group of order 2: the building
    has 7·4^(m-1) vertices at N(m,0) and at N(0,m), and 42·4^(m+n-2) at
    N(m,n) with m, n >= 1."""
    if r == 0:
        return 1
    # N(r,0) and N(0,r), then the r-1 types N(m, r-m) with 0 < m < r
    return 2 * 7 * 4 ** (r - 1) + (r - 1) * 42 * 4 ** max(r - 2, 0)


def top_projection(m):
    """The words on the top tape of a pair machine, the padding dropped."""
    trans: dict = {}
    for (s, (x, _)), ts in m.transitions.items():
        if x != PAD:
            trans.setdefault((s, x), set()).update(ts)
    alphabet = list(dict.fromkeys(x for x, _ in m.alphabet if x != PAD))
    return FiniteAutomaton(m.n_states, alphabet, trans, m.initial, m.accepting)


def solver_tables():
    """Fresh tables on which both short-cycle axioms hold: the five good
    fixtures, full cyclic tables Z_5 to Z_10 and two partial dihedral tables."""
    tables = [(name, load_fixture(name)) for name in ("zxz", "s3", "z6", "q8", "taxicab")]
    tables += [("Z_%d" % n, cyclic_pree(n, seed=n)) for n in range(5, 11)]
    tables += [("D_6/14", dihedral_subtable(6, 14, keep=0.3)), ("D_5/5", dihedral_subtable(5, 5, keep=0.2))]
    return tables
