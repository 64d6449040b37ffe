"""Time the word families the README quotes, doubling the size each row.

Run from the repository root:  python3 tools/doubling.py

For each family it prints the size n, the word's letters, the best of
three wall-clock times and the doubling slope log2(t(2n) / t(n)): about
1 for a linear pass, 2 for a quadratic one.  Every word is over the zxz
fixture, and every call starts from a warm table, so the per-table strip
masks and advance dict are built before the first timing.
"""

import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from preekit.pree import load_pree  # noqa: E402
from preekit.words import irreducible_form, is_geodesic_word, parse_word, strongly_reduce  # noqa: E402

LINEAR = [400 << i for i in range(9)]  # 400 to 102,400


def best_of_3(fn, p, w) -> float:
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        fn(p, w)
        best = min(best, time.perf_counter() - t)
    return best


def series(title, fn, p, sizes, word):
    print(title)
    print("%10s %10s %12s %7s" % ("n", "letters", "best ms", "slope"))
    prev = None
    for n in sizes:
        w = word(n)
        fn(p, w)  # warm the table's derived data
        t = best_of_3(fn, p, w)
        slope = "" if prev is None else "%.2f" % math.log2(t / prev)
        print("%10d %10d %12.3f %7s" % (n, len(w), t * 1e3, slope))
        prev = t
    print()


def main() -> int:
    with open(os.path.join(HERE, os.pardir, "fixtures", "zxz.pree")) as fh:
        p = load_pree(fh.read())
    a, b, c, d = (parse_word(p, x)[0] for x in ("(0,1)", "(1,1)", "(1,0)", "(-1,-1)"))
    chain = lambda n: (a,) + (b,) * n + (c,)
    blocks = lambda k: (a,) * k + (c,) * k + (d,) * k
    series("is_geodesic_word, (1,1)^n", is_geodesic_word, p, LINEAR, lambda n: (b,) * n)
    series("irreducible_form, (0,1)(1,1)^n(1,0)", irreducible_form, p, LINEAR, chain)
    series("irreducible_form, strip blocks (0,1)^n(1,0)^n(-1,-1)^n", irreducible_form, p,
           [100 << i for i in range(5)], blocks)
    series("strongly_reduce, (0,1)(1,1)^n(1,0)", strongly_reduce, p, [200 << i for i in range(5)], chain)
    return 0


if __name__ == "__main__":
    sys.exit(main())
