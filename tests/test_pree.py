"""Table loading, closure completion, and the structural validator."""

import random

import pytest

from conftest import fixture_path, load_fixture
from oracles import reference_closure
from preekit import pree
from preekit.pree import PreeError, closure_products, dump_pree, load_pree, validate_pree

MINI = """
elements: 1 a ia
identity: 1
inverse: a ia
product: a a ia
"""


def test_load_assigns_ids_in_declaration_order():
    p = load_pree(MINI)
    assert p.names == ("1", "a", "ia")
    assert p.identity == 0
    assert p.inv == (0, 2, 1)


def test_identity_products_are_filled_in():
    p = load_pree(MINI)
    for e in p.elements():
        assert p.product(p.identity, e) == e
        assert p.product(e, p.identity) == e
    assert p.product(1, 2) == 0
    assert p.product(2, 1) == 0


def test_closure_completes_the_declared_product():
    p = load_pree(MINI)
    # a*a = ia forces five companion readings, among them ia*ia = a.
    assert p.product(2, 2) == 1


def test_closure_products_lists_five_companions():
    inv = (0, 2, 1, 4, 3, 6, 5)
    got = closure_products(inv, 1, 3, 5)
    assert got == [(2, 5, 3), (5, 4, 1), (3, 6, 2), (6, 1, 4), (4, 2, 6)]


def _random_table_text(rng):
    """3 to 8 elements, random inverse pairs, and up to 3n products on pairs
    that no law fixes; a product need not agree with the others, so the
    closure often meets a conflict."""
    n = rng.randint(3, 8)
    letters = list(range(1, n))
    rng.shuffle(letters)
    inv = list(range(n))
    lines = ["elements: " + " ".join("g%d" % k for k in range(n)), "identity: g0"]
    while len(letters) >= 2 and rng.random() < 0.6:
        a, b = letters.pop(), letters.pop()
        inv[a], inv[b] = b, a
        lines.append("inverse: g%d g%d" % (a, b))
    declared = set()
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        if b != inv[a] and (a, b) not in declared:
            declared.add((a, b))
            lines.append("product: g%d g%d g%d" % (a, b, rng.randrange(n)))
    return "\n".join(lines) + "\n"


def test_one_closure_pass_reaches_the_fixpoint(monkeypatch):
    """The loaded table equals the declared one closed by passes until
    nothing changes, on the fixtures and on random, often conflicting, tables."""
    texts = []
    for name in ("zxz", "s3", "z6", "q8", "taxicab", "cycle4", "cycle5", "broken_closure"):
        with open(fixture_path(name)) as fh:
            texts.append(fh.read())
    rng = random.Random(23)
    texts += [_random_table_text(rng) for _ in range(2000)]
    conflicts = 0
    for text in texts:
        with monkeypatch.context() as m:
            m.setattr(pree, "closure_products", lambda inv, a, b, c: ())
            declared = load_pree(text)
        p = load_pree(text)
        assert p.table == reference_closure(declared.inv, declared.table), text
        conflicts += any(
            p.table[x][y] != z for a, b, c in p.defined_pairs() for x, y, z in closure_products(p.inv, a, b, c)
        )
    assert conflicts > 100


def test_missing_identity_rejected():
    with pytest.raises(PreeError):
        load_pree("elements: a ia\nidentity: 1\ninverse: a ia\n")


def test_unknown_name_in_product_rejected():
    with pytest.raises(PreeError):
        load_pree(MINI + "product: a b a\n")


def test_conflicting_declared_products_rejected():
    with pytest.raises(PreeError):
        load_pree(MINI + "product: a a 1\n")


def test_undeclared_inverse_defaults_to_self():
    p = load_pree("elements: 1 a\nidentity: 1\n")
    assert p.inv == (0, 1)
    assert p.product(1, 1) == 0
    assert validate_pree(p).ok


def test_dump_load_roundtrip(zxz):
    again = load_pree(dump_pree(zxz))
    assert again.names == zxz.names
    assert again.inv == zxz.inv
    assert again.table == zxz.table


def test_validate_accepts_all_good_fixtures():
    for name in ("zxz", "taxicab", "s3", "z6", "q8", "cycle4", "cycle5"):
        rep = validate_pree(load_fixture(name))
        assert rep.ok, (name, rep.problems)


def test_validate_flags_broken_closure():
    p = load_fixture("broken_closure")
    rep = validate_pree(p)
    assert not rep.ok
    assert any("closure" in line for line in rep.problems)


def test_validate_flags_missing_inverse_product():
    # Drop one inverse product from a copy of the mini table.
    p = load_pree(MINI)
    table = [list(row) for row in p.table]
    table[1][2] = -1
    crippled = type(p)(names=p.names, identity=p.identity, inv=p.inv,
                       table=tuple(tuple(r) for r in table))
    rep = validate_pree(crippled)
    assert not rep.ok


def test_full_tables_are_total(s3, z6, q8):
    for p in (s3, z6, q8):
        for a in p.elements():
            for b in p.elements():
                assert p.product(a, b) is not None


def test_zxz_partiality(zxz):
    # Only sums landing back in the seven points are defined.
    defined = sum(1 for a in zxz.elements() for b in zxz.elements()
                  if zxz.product(a, b) is not None)
    assert defined < zxz.size * zxz.size
    assert defined == len(list(zxz.defined_pairs()))
