"""Finite partial multiplication tables with identity and inverses.

The central object is :class:`Pree`: a finite carrier set, a total
involution ``inv``, a distinguished identity, and a partial product.
Whenever a product ``a*b = c`` is defined, the five companion products
obtained by reading the triangle ``a, b, c`` from its other corners are
required to be defined and consistent, and the restricted associative
law must hold: if ``a*b`` and ``b*c`` are both defined, then ``(a*b)*c``
is defined exactly when ``a*(b*c)`` is, with equal values.

The module also decides the short-cycle axioms used by everything
downstream: for every cycle ``a_1 .. a_n`` (n = 4 or 5) whose quotients
``b_i = inv(a_i) * a_{i+1}`` are all defined, at least one product
``b_i * b_{i+1}`` must be defined as well.  ``Pree.solver_problem``
combines validity with both axioms into the word solver's precondition.
"""

from __future__ import annotations

# names for annotations only: typing costs a cold process several milliseconds
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterator, Sequence
    from typing import TypeVar

    T = TypeVar("T")

UNDEF = -1


class PreeError(Exception):
    """Malformed pree input or misuse of a pree operation."""


_set = object.__setattr__  # how a frozen record's __init__ sets its slots


class Record:
    """Base of the record classes: value equality and a ``Name(field=value, ...)``
    repr over ``_fields``.  A subclass names its attributes in ``__slots__`` and
    sets every one in ``__init__``.  A record that may change does not hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class FrozenRecord(Record):
    """A record that refuses assignment and hashes by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):  # pickle and copy through __init__, which takes the fields in order
        return type(self), self._values()


class Pree(FrozenRecord):
    """Immutable partial multiplication table over dense integer ids.

    ``names[i]`` is the display token of element ``i``; ``identity`` is the
    id of the identity element; ``inv`` is a total involution given as a
    tuple; ``table[a][b]`` is the product id or ``UNDEF``.
    """

    _fields = ("names", "identity", "inv", "table")
    __slots__ = _fields + ("_derived", "__weakref__")

    def __init__(self, names: tuple[str, ...], identity: int, inv: tuple[int, ...],
                 table: tuple[tuple[int, ...], ...]):
        _set(self, "names", names)
        _set(self, "identity", identity)
        _set(self, "inv", inv)
        _set(self, "table", table)
        _set(self, "_derived", {})

    @property
    def size(self) -> int:
        return len(self.names)

    def product(self, a: int, b: int) -> int | None:
        """Table lookup: the id of ``a*b``, or None when undefined."""
        c = self.table[a][b]
        return None if c == UNDEF else c

    def defined(self, a: int, b: int) -> bool:
        return self.table[a][b] != UNDEF

    def name(self, a: int) -> str:
        return self.names[a]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PreeError("unknown element %r" % name) from None

    def elements(self) -> range:
        return range(len(self.names))

    def derived(self, key, build: Callable[[], T]) -> T:
        """The value stored under ``key``, made by ``build()`` on first use.

        The store belongs to this instance and takes no part in equality,
        hashing or repr, so equal tables loaded twice do not share it.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    @property
    def axiom_witnesses(self) -> tuple[AxiomWitness | None, AxiomWitness | None]:
        """(witness4, witness5) from check_axiom, searched once per table.

        None entries mean the axiom holds.
        """
        return self.derived("axiom_witnesses", lambda: (check_axiom(self, 4), check_axiom(self, 5)))

    @property
    def validation(self) -> VerificationReport:
        """validate_pree's report on this table, made once per table."""
        return self.derived("validation", lambda: validate_pree(self))

    @property
    def solver_problem(self) -> str | None:
        """Why the word solver's verdicts do not hold on this table, or None.

        The Dehn solver is sound on a valid table with both short-cycle
        axioms; this is the one place that decides it, once per table.
        """

        def build():
            rep = self.validation
            if not rep.ok:
                return "the table is invalid: " + rep.problems[0]
            return None if self.axiom_witnesses == (None, None) else "a short-cycle axiom fails"

        return self.derived("solver_problem", build)

    @property
    def factorizations(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``factorizations[c]`` lists every (a, b) with a*b = c, in id order."""

        def build():
            fact: list[list[tuple[int, int]]] = [[] for _ in self.elements()]
            for a, b, c in self.defined_pairs():
                fact[c].append((a, b))
            return tuple(tuple(f) for f in fact)

        return self.derived("factorizations", build)

    def nonidentity(self) -> list[int]:
        return [a for a in self.elements() if a != self.identity]

    def defined_pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield every (a, b, c) with a*b = c defined, in id order."""
        for a in self.elements():
            row = self.table[a]
            for b in self.elements():
                if row[b] != UNDEF:
                    yield a, b, row[b]


class VerificationReport(Record):
    """Outcome of a checker: problems fail it, notes are informational."""

    __slots__ = _fields = ("name", "problems", "notes")

    def __init__(self, name: str, problems: list[str] | None = None, notes: list[str] | None = None):
        self.name = name
        self.problems = [] if problems is None else problems
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return not self.problems

    def problem(self, msg: str) -> None:
        self.problems.append(msg)

    def note(self, msg: str) -> None:
        self.notes.append(msg)

    def render(self) -> str:
        lines = ["%s: %s" % (self.name, "pass" if self.ok else "FAIL")]
        for p in self.problems:
            lines.append("  problem: " + p)
        for n in self.notes:
            lines.append("  note: " + n)
        return "\n".join(lines)


class AxiomWitness(FrozenRecord):
    """A failing short cycle: no consecutive quotient product is defined."""

    __slots__ = _fields = ("cycle", "quotients")

    def __init__(self, cycle: tuple[int, ...], quotients: tuple[int, ...]):
        _set(self, "cycle", cycle)
        _set(self, "quotients", quotients)

    def render(self, p: Pree) -> str:
        cyc = " ".join(p.name(a) for a in self.cycle)
        quo = " ".join(p.name(b) for b in self.quotients)
        return "cycle [%s] quotients [%s]" % (cyc, quo)


# The six readings of one product triangle a*b = c.  Given (a, b, c) the
# companion entries are returned as further (x, y, z) triples meaning
# x*y = z.
def closure_products(p_inv: Sequence[int], a: int, b: int, c: int) -> list[tuple[int, int, int]]:
    ia, ib, ic = p_inv[a], p_inv[b], p_inv[c]
    return [
        (ia, c, b),
        (c, ib, a),
        (b, ic, ia),
        (ic, a, ib),
        (ib, ia, ic),
    ]


def load_pree(text: str) -> Pree:
    """Parse the line-oriented pree file format.

    Grammar (one directive per line, '#' starts a comment):

        elements: <name> <name> ...
        identity: <name>
        inverse: <name> <name>
        product: <a> <b> <c>      # meaning a*b = c

    The first ``elements:`` line must contain the identity.  Identity and
    inverse products are filled in automatically, and declared products
    are completed under the six-way triangle closure.  Conflicting
    *declared* products are a load error; conflicts that only appear
    during closure completion are left for validate_pree to report.
    """
    names: list[str] = []
    seen: dict[str, int] = {}
    first_elements_line: list[str] | None = None
    identity_name: str | None = None
    inverse_decls: list[tuple[int, str, str]] = []
    product_decls: list[tuple[int, str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PreeError("line %d: expected 'directive: args'" % lineno)
        head, rest = line.split(":", 1)
        head = head.strip()
        args = rest.split()
        if head == "elements":
            if not args:
                raise PreeError("line %d: empty elements line" % lineno)
            for nm in args:
                if nm in seen:
                    raise PreeError("line %d: duplicate element %r" % (lineno, nm))
                seen[nm] = len(names)
                names.append(nm)
            if first_elements_line is None:
                first_elements_line = args
        elif head == "identity":
            if len(args) != 1:
                raise PreeError("line %d: identity wants one name" % lineno)
            if identity_name is not None:
                raise PreeError("line %d: identity declared twice" % lineno)
            identity_name = args[0]
        elif head == "inverse":
            if len(args) != 2:
                raise PreeError("line %d: inverse wants two names" % lineno)
            inverse_decls.append((lineno, args[0], args[1]))
        elif head == "product":
            if len(args) != 3:
                raise PreeError("line %d: product wants three names" % lineno)
            product_decls.append((lineno, args[0], args[1], args[2]))
        else:
            raise PreeError("line %d: unknown directive %r" % (lineno, head))

    if not names:
        raise PreeError("no elements declared")
    if identity_name is None:
        raise PreeError("missing identity line")
    if identity_name not in seen:
        raise PreeError("identity %r is not a declared element" % identity_name)
    if first_elements_line is None or identity_name not in first_elements_line:
        raise PreeError("identity %r must appear in the first elements line" % identity_name)

    def eid(lineno: int, nm: str) -> int:
        if nm not in seen:
            raise PreeError("line %d: unknown element %r" % (lineno, nm))
        return seen[nm]

    n = len(names)
    one = seen[identity_name]

    inv = list(range(n))
    inv_fixed = [False] * n
    inv[one] = one
    inv_fixed[one] = True
    for lineno, na, nb in inverse_decls:
        a, b = eid(lineno, na), eid(lineno, nb)
        for x, y in ((a, b), (b, a)):
            if inv_fixed[x] and inv[x] != y:
                raise PreeError(
                    "line %d: inverse of %s declared as both %s and %s"
                    % (lineno, names[x], names[inv[x]], names[y])
                )
            inv[x] = y
            inv_fixed[x] = True

    table = [[UNDEF] * n for _ in range(n)]

    def set_declared(lineno: int, a: int, b: int, c: int) -> None:
        if table[a][b] != UNDEF and table[a][b] != c:
            raise PreeError(
                "line %d: product %s %s declared as both %s and %s"
                % (lineno, names[a], names[b], names[table[a][b]], names[c])
            )
        table[a][b] = c

    # Identity and inverse laws come first so that explicit contradictory
    # declarations are reported against them.
    for a in range(n):
        set_declared(0, one, a, a)
        set_declared(0, a, one, a)
    for a in range(n):
        set_declared(0, a, inv[a], one)
        set_declared(0, inv[a], a, one)
    for lineno, na, nb, nc in product_decls:
        set_declared(lineno, eid(lineno, na), eid(lineno, nb), eid(lineno, nc))

    # Closure completion in one pass: inv is an involution, so the companions
    # of a companion are the first triangle's own six readings, all filled
    # when it is read.  Derived conflicts are not load errors: the first
    # value wins and validate_pree reports the inconsistency.
    for a in range(n):
        for b in range(n):
            c = table[a][b]
            if c == UNDEF:
                continue
            for x, y, z in closure_products(inv, a, b, c):
                if table[x][y] == UNDEF:
                    table[x][y] = z

    return Pree(
        names=tuple(names),
        identity=one,
        inv=tuple(inv),
        table=tuple(tuple(row) for row in table),
    )


def dump_pree(p: Pree) -> str:
    """Serialize a pree; load_pree(dump_pree(p)) reproduces the tables."""
    lines = ["elements: " + " ".join(p.names)]
    lines.append("identity: " + p.name(p.identity))
    for a in p.elements():
        b = p.inv[a]
        if a < b:
            lines.append("inverse: %s %s" % (p.name(a), p.name(b)))
    for a, b, c in p.defined_pairs():
        lines.append("product: %s %s %s" % (p.name(a), p.name(b), p.name(c)))
    return "\n".join(lines) + "\n"


def validate_pree(p: Pree) -> VerificationReport:
    """Exhaustively check every structural invariant of the table."""
    r = VerificationReport("pree-structure")
    n = p.size
    one = p.identity

    if len(set(p.names)) != n:
        r.problem("duplicate element names")
    for nm in p.names:
        if not nm or any(ch.isspace() for ch in nm):
            r.problem("bad element name %r" % nm)

    if p.inv[one] != one:
        r.problem("inverse of identity is %s" % p.name(p.inv[one]))
    for a in p.elements():
        if p.inv[p.inv[a]] != a:
            r.problem("inverse not involutive at %s" % p.name(a))

    for a in p.elements():
        if p.table[one][a] != a:
            r.problem("identity law fails: 1*%s" % p.name(a))
        if p.table[a][one] != a:
            r.problem("identity law fails: %s*1" % p.name(a))
        if p.table[a][p.inv[a]] != one:
            r.problem("inverse law fails: %s*%s" % (p.name(a), p.name(p.inv[a])))
        if p.table[p.inv[a]][a] != one:
            r.problem("inverse law fails: %s*%s" % (p.name(p.inv[a]), p.name(a)))

    for a, b, c in p.defined_pairs():
        if c == one and b != p.inv[a]:
            r.problem(
                "inverse not unique: %s*%s = 1 but inv(%s) = %s"
                % (p.name(a), p.name(b), p.name(a), p.name(p.inv[a]))
            )
        for x, y, z in closure_products(p.inv, a, b, c):
            got = p.table[x][y]
            if got != z:
                r.problem(
                    "closure violation at %s*%s=%s: expected %s*%s=%s, table has %s"
                    % (
                        p.name(a), p.name(b), p.name(c),
                        p.name(x), p.name(y), p.name(z),
                        p.name(got) if got != UNDEF else "undefined",
                    )
                )

    for a in p.elements():
        for b in p.elements():
            ab = p.table[a][b]
            if ab == UNDEF:
                continue
            for c in p.elements():
                bc = p.table[b][c]
                if bc == UNDEF:
                    continue
                left = p.table[ab][c]
                right = p.table[a][bc]
                if (left == UNDEF) != (right == UNDEF):
                    r.problem(
                        "associativity definedness fails at (%s,%s,%s)"
                        % (p.name(a), p.name(b), p.name(c))
                    )
                elif left != UNDEF and left != right:
                    r.problem(
                        "associativity value fails at (%s,%s,%s): %s vs %s"
                        % (p.name(a), p.name(b), p.name(c), p.name(left), p.name(right))
                    )
    return r


def _cycle_fails(p: Pree, cycle: Sequence[int]) -> tuple[int, ...] | None:
    """Quotients of the cycle if it is a counterexample, else None.

    None is also returned when some quotient is undefined (the cycle is
    then outside the axiom's hypothesis).
    """
    n = len(cycle)
    quot = []
    for i in range(n):
        q = p.table[p.inv[cycle[i]]][cycle[(i + 1) % n]]
        if q == UNDEF:
            return None
        quot.append(q)
    for i in range(n):
        if p.table[quot[i]][quot[(i + 1) % n]] != UNDEF:
            return None
    return tuple(quot)


def check_axiom(p: Pree, n: int) -> AxiomWitness | None:
    """Search all length-n cycles with defined quotients for a violation.

    Returns None when the axiom holds, otherwise the lexicographically
    first counterexample.  Any witness found is re-verified to be closed
    under rotation and traversal reversal (reversal inverts the
    quotients); a failure of that symmetry indicates a corrupt table and
    raises.

    The search walks cycles in lexicographic order and skips a prefix as
    soon as a quotient is undefined or the last two quotients have a
    defined product.  Every completion of such a prefix is outside the
    hypothesis or already satisfies the axiom, so only subtrees without a
    counterexample are skipped and the first witness found is unchanged.
    """
    if n not in (4, 5):
        raise PreeError("cycle length must be 4 or 5, got %r" % n)

    table, inv = p.table, p.inv
    size = p.size
    cycle = [0] * n
    quots = [0] * n

    def extend(i: int) -> tuple[int, ...] | None:
        if i == n:
            return _cycle_fails(p, cycle)
        for a in range(size):
            if i > 0:
                q = table[inv[cycle[i - 1]]][a]
                if q == UNDEF or (i > 1 and table[quots[i - 2]][q] != UNDEF):
                    continue
                quots[i - 1] = q
            cycle[i] = a
            got = extend(i + 1)
            if got is not None:
                return got
        return None

    quot = extend(0)
    if quot is None:
        return None
    witness = AxiomWitness(cycle=tuple(cycle), quotients=quot)

    for r in range(1, n):
        rot = witness.cycle[r:] + witness.cycle[:r]
        if _cycle_fails(p, rot) is None:
            raise PreeError("witness not rotation-closed: %s" % witness.render(p))
    rev = tuple(reversed(witness.cycle))
    if _cycle_fails(p, rev) is None:
        raise PreeError("witness not reversal-closed: %s" % witness.render(p))
    return witness
