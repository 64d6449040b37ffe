import contextlib
import io
import os
import random

import pytest

from preekit import cli
from preekit.pree import UNDEF, Pree, load_pree

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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


def solver_tables():
    """Fresh tables on which both short-cycle axioms hold: the five good
    fixtures, full cyclic tables Z_5 to Z_10 and two partial dihedral tables."""
    tables = [(name, load_fixture(name)) for name in ("zxz", "s3", "z6", "q8", "taxicab")]
    tables += [("Z_%d" % n, cyclic_pree(n, seed=n)) for n in range(5, 11)]
    tables += [("D_6/14", dihedral_subtable(6, 14, keep=0.3)), ("D_5/5", dihedral_subtable(5, 5, keep=0.2))]
    return tables


def solver_and_cycle_tables():
    """``solver_tables()`` and the two fixtures on which one short-cycle
    axiom fails."""
    return solver_tables() + [(name, load_fixture(name)) for name in ("cycle4", "cycle5")]


def random_words(p, seed, count, max_len):
    """Random words, and as many whose adjacent pairs have no product,
    so that the strip search runs on words no contraction shortens."""
    rng = random.Random(seed)
    elems = list(p.elements())
    out = []
    for _ in range(count):
        n = rng.randint(3, max_len)
        out.append(tuple(rng.choice(elems) for _ in range(n)))
        w = [rng.choice(elems)]
        while len(w) < n:
            nxt = [x for x in elems if p.table[w[-1]][x] == UNDEF]
            if not nxt:
                break
            w.append(rng.choice(nxt))
        out.append(tuple(w))
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


TRACE_WORD = "(-1,-1) (-1,0) (0,1) (1,1)"
# 600 letters: each (1,0) after the first closes a strip over a (0,1) and
# all the (1,1) letters before it, and the (-1,-1) letters cancel the rest
SOLVE_IDENTITY_WORD = " ".join(["(0,1)"] * 200 + ["(1,0)"] * 200 + ["(-1,-1)"] * 200)
# 402 letters, one strip, and (1,1)^401 after it
SOLVE_STRIP_WORD = " ".join(["(0,1)"] + ["(1,1)"] * 400 + ["(1,0)"])
DIAGRAM_K3_WORD = "(0,1) (0,1) (0,1) (1,0) (1,0) (1,0) (-1,-1) (-1,-1) (-1,-1)"

GOLDEN_CASES = [
    ("zxz_verify", ["verify", fixture_path("zxz")], 0),
    ("s3_verify", ["verify", fixture_path("s3")], 0),
    ("z6_verify", ["verify", fixture_path("z6")], 0),
    ("q8_verify", ["verify", fixture_path("q8")], 0),
    # an axiom fails, so verify skips the rows that need both axioms
    ("cycle4_verify", ["verify", fixture_path("cycle4")], 1),
    (
        "broken_closure_verify_records",
        ["verify", fixture_path("broken_closure"), "--format", "records"],
        1,
    ),
    ("taxicab_axioms", ["axioms", fixture_path("taxicab")], 0),
    ("taxicab_ball_r2", ["ball", fixture_path("taxicab"), "-r", "2"], 0),
    ("zxz_ball_r4", ["ball", fixture_path("zxz"), "-r", "4"], 0),
    # one short-cycle axiom fails, so the ball is built by the neighbor-search oracle
    (
        "cycle4_ball_r1_records",
        ["ball", fixture_path("cycle4"), "-r", "1", "--format", "records"],
        0,
    ),
    ("cycle4_axioms", ["axioms", fixture_path("cycle4")], 1),
    ("cycle5_axioms", ["axioms", fixture_path("cycle5")], 1),
    ("broken_closure_validate", ["validate", fixture_path("broken_closure")], 3),
    # a strip at 0, then a contraction at 1
    ("zxz_reduce_trace", ["reduce", fixture_path("zxz"), TRACE_WORD, "--trace"], 0),
    (
        "zxz_reduce_trace_records",
        ["reduce", fixture_path("zxz"), TRACE_WORD, "--trace", "--format", "records"],
        0,
    ),
    ("zxz_fellow_r4_k3", ["fellow", fixture_path("zxz"), "-r", "4", "-k", "3"], 0),
    # fails, with the empty word in the worst pair
    ("zxz_fellow_r3_k0", ["fellow", fixture_path("zxz"), "-r", "3", "-k", "0"], 1),
    (
        "zxz_fellow_r3_k0_records",
        ["fellow", fixture_path("zxz"), "-r", "3", "-k", "0", "--format", "records"],
        1,
    ),
    ("zxz_fellow_r2_k12", ["fellow", fixture_path("zxz"), "-r", "2", "-k", "12"], 0),
    ("zxz_export_geodesic", ["export-fsa", fixture_path("zxz"), "--which", "geodesic"], 0),
    ("zxz_export_combing", ["export-fsa", fixture_path("zxz"), "--which", "combing"], 0),
    (
        "taxicab_comb_n3_records",
        ["comb", fixture_path("taxicab"), "--enumerate", "3", "--format", "records"],
        0,
    ),
    ("zxz_geodesic_yes", ["geodesic", fixture_path("zxz"), "(1,0) (1,1) (1,1)"], 0),
    # no contraction, but the whole word is one strip
    ("zxz_geodesic_no", ["geodesic", fixture_path("zxz"), "(0,1) (1,1) (1,0)"], 1),
    # FP2's names print with a '(' past their first letter and read back whole
    ("fp2_solve", ["solve", fixture_path("fp2"), "a(0,1) b(1,0) a(0,-1) b(-1,0)"], 1),
    ("fp2_geodesic", ["geodesic", fixture_path("fp2"), "a(0,1) a(1,1) b(1,0) a(1,0)"], 0),
    ("zxz_solve_identity_long", ["solve", fixture_path("zxz"), SOLVE_IDENTITY_WORD], 0),
    ("zxz_solve_strip_long", ["solve", fixture_path("zxz"), SOLVE_STRIP_WORD], 1),
    # the hexagon with sides of length 3: area 9, and none within area 8
    ("zxz_diagram_k3", ["diagram", fixture_path("zxz"), "--boundary", DIAGRAM_K3_WORD], 0),
    (
        "zxz_diagram_k3_none",
        ["diagram", fixture_path("zxz"), "--boundary", DIAGRAM_K3_WORD, "--max-area", "8"],
        1,
    ),
    (
        "s3_diagram_records",
        ["diagram", fixture_path("s3"), "--boundary", "r s r s r r2 r2 r", "--format", "records"],
        0,
    ),
]
