"""Regenerate the .pree fixtures and assert their advertised properties.

Run from the repository root:  python3 tools/make_fixtures.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from preekit.pree import check_axiom, load_pree, validate_pree  # noqa: E402
from preekit.group import cayley_ball  # noqa: E402

OUT = os.path.join(HERE, os.pardir, "fixtures")


def write(name: str, text: str) -> str:
    path = os.path.join(OUT, name + ".pree")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def lines_to_text(comment: str, elements, identity, inverses, products) -> str:
    out = ["# " + comment]
    out.append("elements: " + " ".join(elements))
    out.append("identity: " + identity)
    for a, b in inverses:
        out.append("inverse: %s %s" % (a, b))
    for a, b, c in products:
        out.append("product: %s %s %s" % (a, b, c))
    return "\n".join(out) + "\n"


def group_products(names, mul, identity):
    # full table minus the rows the loader fills on its own
    inv = {}
    for a in names:
        for b in names:
            if mul(a, b) == identity:
                inv[a] = b
    prods = []
    for a in names:
        for b in names:
            if a == identity or b == identity or inv[a] == b:
                continue
            prods.append((a, b, mul(a, b)))
    invs = []
    done = set()
    for a in names:
        if a != identity and a not in done and inv[a] != a:
            invs.append((a, inv[a]))
            done.add(a)
            done.add(inv[a])
    return invs, prods


def make_zxz() -> str:
    pts = [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)]
    nm = {v: "(%d,%d)" % v for v in pts}
    in_set = set(pts)
    prods = []
    for u in pts[1:]:
        for v in pts[1:]:
            w = (u[0] + v[0], u[1] + v[1])
            if w == (0, 0) or w not in in_set:
                continue
            prods.append((nm[u], nm[v], nm[w]))
    invs = [(nm[(0, 1)], nm[(0, -1)]), (nm[(1, 0)], nm[(-1, 0)]), (nm[(1, 1)], nm[(-1, -1)])]
    return lines_to_text(
        "lattice points within one taxicab step of the diagonal; sums stay in the set",
        [nm[v] for v in pts],
        nm[(0, 0)],
        invs,
        prods,
    )


def make_taxicab() -> str:
    pts = [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)]
    nm = {v: "(%d,%d)" % v for v in pts}
    invs = [(nm[(0, 1)], nm[(0, -1)]), (nm[(1, 0)], nm[(-1, 0)])]
    return lines_to_text(
        "axis neighbors of the origin only; no nonidentity product is defined",
        [nm[v] for v in pts],
        nm[(0, 0)],
        invs,
        [],
    )


def make_s3() -> str:
    perms = {
        "1": (0, 1, 2),
        "r": (1, 2, 0),
        "r2": (2, 0, 1),
        "s": (1, 0, 2),
        "sr": (2, 1, 0),
        "sr2": (0, 2, 1),
    }
    names = list(perms)
    by_perm = {v: k for k, v in perms.items()}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return by_perm[tuple(pa[pb[i]] for i in range(3))]

    invs, prods = group_products(names, mul, "1")
    return lines_to_text("symmetric group on three points, full table", names, "1", invs, prods)


def make_z6() -> str:
    names = ["1", "g", "g2", "g3", "g4", "g5"]

    def mul(a, b):
        return names[(names.index(a) + names.index(b)) % 6]

    invs, prods = group_products(names, mul, "1")
    return lines_to_text("cyclic group of order six, full table", names, "1", invs, prods)


def make_q8() -> str:
    base = {("1", "1"): ("+", "1")}
    units = ["1", "i", "j", "k"]
    tbl = {
        ("i", "i"): ("-", "1"),
        ("j", "j"): ("-", "1"),
        ("k", "k"): ("-", "1"),
        ("i", "j"): ("+", "k"),
        ("j", "k"): ("+", "i"),
        ("k", "i"): ("+", "j"),
        ("j", "i"): ("-", "k"),
        ("k", "j"): ("-", "i"),
        ("i", "k"): ("-", "j"),
    }
    for u in units:
        base[("1", u)] = ("+", u)
        base[(u, "1")] = ("+", u)
    base.update(tbl)

    def name(sign, u):
        return u if sign == "+" else "m" + u

    # order: 1 m1 i mi j mj k mk
    names = ["1", "m1", "i", "mi", "j", "mj", "k", "mk"]

    def split(n):
        return ("-", n[1:]) if n.startswith("m") else ("+", n)

    def mul(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        sc, uc = base[(ua, ub)]
        neg = [sa, sb, sc].count("-") % 2
        return name("-" if neg else "+", uc)

    invs, prods = group_products(names, mul, "1")
    return lines_to_text("quaternion units, full table", names, "1", invs, prods)


def make_cycle(m: int) -> str:
    xs = ["x%d" % (i + 1) for i in range(m)]
    ixs = ["ix%d" % (i + 1) for i in range(m)]
    ys = ["y%d" % (i + 1) for i in range(m)]
    iys = ["iy%d" % (i + 1) for i in range(m)]
    elements = ["1"] + xs + ixs + ys + iys
    invs = list(zip(xs, ixs)) + list(zip(ys, iys))
    prods = [(ixs[i], xs[(i + 1) % m], ys[i]) for i in range(m)]
    return lines_to_text(
        "planted %d-cycle with defined quotients and no consecutive quotient product" % m,
        elements,
        "1",
        invs,
        prods,
    )


def make_broken_closure() -> str:
    elements = ["1", "a", "ia", "b", "ib", "c", "ic"]
    invs = [("a", "ia"), ("b", "ib"), ("c", "ic")]
    # the second declaration contradicts a closure companion of the first
    prods = [("a", "b", "c"), ("b", "ic", "c")]
    return lines_to_text(
        "two declarations whose closure companions collide", elements, "1", invs, prods
    )


def load(name: str, text: str):
    path = write(name, text)
    with open(path) as fh:
        return load_pree(fh.read())


def main() -> None:
    p = load("zxz", make_zxz())
    assert p.solver_problem is None
    assert cayley_ball(p, 1).size == 7
    assert cayley_ball(p, 2).size == 19

    p = load("taxicab", make_taxicab())
    assert p.solver_problem is None
    assert cayley_ball(p, 2).size == 17

    for maker, order in ((make_s3, 6), (make_z6, 6), (make_q8, 8)):
        name = maker.__name__[len("make_") :]
        p = load(name, maker())
        assert p.solver_problem is None, name
        assert cayley_ball(p, 1).size == order, name

    for m in (4, 5):
        p = load("cycle%d" % m, make_cycle(m))
        # valid: an invalid table would give "the table is invalid: ..."
        assert p.solver_problem == "a short-cycle axiom fails", m
        w = check_axiom(p, m)
        assert w is not None and [p.name(a) for a in w.cycle] == [
            "x%d" % (i + 1) for i in range(m)
        ], m
        other = 4 if m == 5 else 5
        assert check_axiom(p, other) is None, m

    p = load("broken_closure", make_broken_closure())
    rep = validate_pree(p)
    assert not rep.ok and any("closure" in msg or "reading" in msg for msg in rep.problems), (
        rep.problems
    )
    assert p.solver_problem == "the table is invalid: " + rep.problems[0]

    print("fixtures written to %s" % os.path.relpath(OUT))


if __name__ == "__main__":
    sys.exit(main())
