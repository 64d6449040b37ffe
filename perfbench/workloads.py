"""The four workloads: seeded inputs, one op, and the check of its answer.

Each workload has a set-up (timed as ``setup_s``), a fixed input set made
from the seed, an op that the worker times, and a check against
hand-written expectations or ``tables.Reference``.  Ops call preekit
through module attributes (``group.cayley_ball``, not a local name) so
that the traced pass can rebind them.  README.md says why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from random import Random

from preekit import diagrams, fsa, group, pree, words

from tables import (
    HEX,
    ROOT,
    Reference,
    ball_sizes,
    cyclic_text,
    fixture_text,
    free_product_text,
    vec_name,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".perfbench")


class SetupError(Exception):
    """A table the workload needs is missing, invalid, or breaks an axiom."""


class Failure:
    """Why an op has no verified answer.

    ``wrong`` marks an answer that contradicts the reference; the other
    failures (an exception, or no answer where one must exist) leave
    ``wrong`` false.
    """

    def __init__(self, message: str, wrong: bool = True):
        self.message = message
        self.wrong = wrong


def load_valid(text: str, name: str):
    p = pree.load_pree(text)
    rep = pree.validate_pree(p)
    if not rep.ok:
        raise SetupError("%s fails validation: %s" % (name, rep.problems[0]))
    return p


def require_axioms(p, name: str) -> None:
    for n in (4, 5):
        if pree.check_axiom(p, n) is not None:
            raise SetupError("%s breaks the %d-cycle axiom" % (name, n))


def prime_axioms(p, name: str) -> None:
    # group.axioms_hold runs both check_axiom calls and caches the answer
    # on the table, which is the per-table state the solver relies on.
    if not group.axioms_hold(p):
        raise SetupError("%s breaks a short-cycle axiom" % name)


def inverse(ref: Reference, w) -> tuple:
    return tuple(ref.inv[a] for a in reversed(w))


class Workload:
    """Tables built at set-up, and the hooks the worker calls around ops."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tables: dict = {}
        self.refs: dict = {}

    def add_table(self, name: str, p, free: bool = False) -> None:
        self.tables[name] = p
        self.refs[name] = Reference(p, free)

    def describe(self) -> dict:
        return {name: p.size for name, p in self.tables.items()}

    def prepare(self, specs: list, tag: str) -> list:
        """Per-pass op arguments, built before the pass clock starts."""
        return specs

    def attach(self, tracer) -> None:
        """Called before the traced pass; ops in other processes need it."""


# ---------------------------------------------------------------- verify

CHECK_NAMES = (
    "pree-structure",
    "axiom-4-cycles",
    "axiom-5-cycles",
    "embedding",
    "short-identity-reducibility",
    "combing-surjectivity",
    "fellow-traveling",
)
ALL_PASS = (0, ("pass",) * 7)
SKIP3 = ("skipped",) * 3
# Exit code and verdict column per table, from how each table is built:
# cycle4/cycle5 plant one failing short cycle, broken_closure has two
# declarations whose closure companions collide (which also leaves a
# failing 4-cycle), and full group tables pass everything.
VERIFY_EXPECT = {
    "zxz": ALL_PASS,
    "s3": ALL_PASS,
    "z6": ALL_PASS,
    "q8": ALL_PASS,
    "cycle4": (1, ("pass", "FAIL", "pass", "pass") + SKIP3),
    "cycle5": (1, ("pass", "pass", "FAIL", "pass") + SKIP3),
    "broken_closure": (1, ("FAIL", "FAIL", "pass", "pass") + SKIP3),
    "Z7": ALL_PASS,
    "Z8": ALL_PASS,
    "Z9": ALL_PASS,
}
GOLDEN = ("zxz", "s3", "z6", "q8")


class Verify(Workload):
    """`preekit verify <table>` as a fresh process per op: cold by design."""

    def setup(self) -> None:
        rng = Random(self.seed)
        os.makedirs(os.path.join(SCRATCH, "tables"), exist_ok=True)
        self.paths = {}
        for name in VERIFY_EXPECT:
            if name.startswith("Z"):
                text = cyclic_text(int(name[1:]), rng)
                path = os.path.join(SCRATCH, "tables", name + ".pree")
                with open(path, "w") as fh:
                    fh.write(text)
                self.tables[name] = load_valid(text, name)
                require_axioms(self.tables[name], name)
            else:
                path = os.path.join(ROOT, "fixtures", name + ".pree")
                p = pree.load_pree(fixture_text(name))
                if pree.validate_pree(p).ok != (VERIFY_EXPECT[name][1][0] == "pass"):
                    raise SetupError("%s: validation verdict differs from expectation" % name)
                self.tables[name] = p
            self.paths[name] = path
        self.golden = {}
        for name in GOLDEN:
            with open(os.path.join(ROOT, "tests", "golden", name + "_verify.txt"), "rb") as fh:
                self.golden[name] = fh.read()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.tracer = None

    def inputs(self) -> list:
        names = list(VERIFY_EXPECT)
        Random(self.seed + 1).shuffle(names)
        return names

    def attach(self, tracer) -> None:
        self.tracer = tracer
        os.makedirs(os.path.join(SCRATCH, "trace"), exist_ok=True)

    def run(self, name: str):
        cmd = [sys.executable, "-m", "preekit.cli", "verify", self.paths[name]]
        if self.tracer is None:
            r = subprocess.run(cmd, capture_output=True, env=self.env, timeout=150)
            return r.returncode, r.stdout, None
        op = self.tracer.current_op
        spans_file = os.path.join(SCRATCH, "trace", "verify-op%d.tsv" % op)
        cmd[1:3] = [os.path.join(HERE, "verify_launcher.py"), spans_file, str(op)]
        span = self.tracer.open("cli.process")
        try:
            r = subprocess.run(cmd, capture_output=True, env=self.env, timeout=150)
        finally:
            self.tracer.close(span)
        return r.returncode, r.stdout, (spans_file, span)

    def check(self, name: str, result):
        code, out, spans_at = result
        if spans_at is not None:
            self.tracer.merge(*spans_at)
            os.remove(spans_at[0])
        want_code, want_verdicts = VERIFY_EXPECT[name]
        if code != want_code:
            return Failure("verify %s: exit %d, expected %d" % (name, code, want_code))
        lines = out.decode().splitlines()
        if len(lines) != 8:
            return Failure("verify %s: %d lines of output" % (name, len(lines)))
        for line, check_name, verdict in zip(lines, CHECK_NAMES, want_verdicts):
            cols = line.split()
            if cols[:2] != [check_name, verdict]:
                return Failure("verify %s: row %r, expected %s %s" % (name, line, check_name, verdict))
        summary = "summary: all 7 checks pass" if want_code == 0 else "summary: FAIL"
        if lines[7] != summary:
            return Failure("verify %s: summary %r" % (name, lines[7]))
        if name in self.golden and out != self.golden[name]:
            return Failure("verify %s: output differs from tests/golden/%s_verify.txt" % (name, name))
        return None


# ----------------------------------------------------------------- words

MIN_LEN, MAX_LEN = 8, 256
WORD_KINDS = ("random", "identity", "strip", "geodesic")
QUERIES = ("solve", "reduce", "geodesic")



def _sector(rng: Random, ref: Reference, f: str, s: int, n: int) -> list:
    """n letters of factor f from directions s and s+1: a geodesic."""
    pick = (ref.index[(f, HEX[s % 6])], ref.index[(f, HEX[(s + 1) % 6])])
    return [pick[rng.random() < 0.5] for _ in range(n)]


def _geodesic(rng: Random, ref: Reference, n: int) -> list:
    """Syllables of alternating factors, each a sector word."""
    f = rng.choice(ref.factors)
    out: list = []
    while len(out) < n:
        m = n - len(out) if len(ref.factors) == 1 else min(n - len(out), rng.randint(1, 24))
        out += _sector(rng, ref, f, rng.randrange(6), m)
        f = ref.factors[(ref.factors.index(f) + 1) % len(ref.factors)]
    return out


def _strip(rng: Random, ref: Reference, n: int) -> list:
    """A geodesic with the block d(s+2) d(s+1)^k d(s) inside one syllable.

    The block's value is (k+1) d(s+1), so the word is one letter longer
    than its geodesic length and needs a strip step; the letters next to
    the block do not contract with it.
    """
    k = rng.randint(1, max(1, n // 2))
    rest = max(0, n - k - 2)
    f, s = rng.choice(ref.factors), rng.randrange(6)
    d = lambda j: ref.index[(f, HEX[(s + j) % 6])]
    outer = rng.randint(0, rest // 2) if len(ref.factors) > 1 else 0
    a = rng.randint(0, rest - outer)
    left = _sector(rng, ref, f, s, a)
    if left:
        left[-1] = d(1)
    seg = left + [d(2)] + [d(1)] * k + [d(0)] + _sector(rng, ref, f, s, rest - outer - a)
    if outer:
        g = [x for x in ref.factors if x != f][0]
        b = rng.randint(0, outer)
        seg = _sector(rng, ref, g, rng.randrange(6), b) + seg + _sector(rng, ref, g, rng.randrange(6), outer - b)
    return seg


def make_word(rng: Random, ref: Reference, kind: str, n: int) -> tuple:
    letters = list(ref.index.values())
    if kind == "random":
        return tuple(rng.choice(letters) for _ in range(n))
    if kind == "identity":
        # u, then the inverse of u with the letters of each same-factor run
        # permuted; each factor is abelian, so the value is kept
        u = [rng.choice(letters) for _ in range(max(1, n // 2))]
        v, i = [], 0
        while i < len(u):
            j = i
            while j < len(u) and ref.letter[u[j]][0] == ref.letter[u[i]][0]:
                j += 1
            run = u[i:j]
            rng.shuffle(run)
            v += run
            i = j
        return tuple(u) + inverse(ref, v)
    if kind == "strip":
        return tuple(_strip(rng, ref, n))
    return tuple(_geodesic(rng, ref, n))


class Words(Workload):
    """Queries on long words against tables that stay warm all run."""

    ops_per_pass = 1000

    def setup(self) -> None:
        self.add_table("zxz", load_valid(fixture_text("zxz"), "zxz"))
        self.add_table("fp2", load_valid(free_product_text(), "fp2"))
        self.acceptors = {}
        for name, p in self.tables.items():
            prime_axioms(p, name)
            self.acceptors[name] = fsa.geodesic_acceptor(p)

    def inputs(self) -> list:
        """Lengths are stratified: op i draws from the i-th of N equal
        slices of log-length, and the 24 (table, query, kind) combinations
        take every 24th slice, so each seed has the same length profile per
        combination and differs only in the words and their order."""
        rng = Random(self.seed)
        combos = [(t, q, k) for t in ("zxz", "fp2") for q in QUERIES for k in WORD_KINDS]
        n_ops = self.ops_per_pass
        specs = []
        for i in range(n_ops):
            name, query, kind = combos[i % len(combos)]
            frac = (i + rng.random()) / n_ops
            n = round(MIN_LEN * (MAX_LEN / MIN_LEN) ** frac)
            specs.append((name, query, make_word(rng, self.refs[name], kind, n)))
        rng.shuffle(specs)
        return specs

    def run(self, spec):
        name, query, w = spec
        p = self.tables[name]
        if query == "solve":
            return group.equals_identity(p, w)
        if query == "reduce":
            return words.strongly_reduce(p, w)
        return words.is_geodesic_word(p, w)

    def check(self, spec, result):
        name, query, w = spec
        p, ref = self.tables[name], self.refs[name]
        if query == "solve":
            if result != ref.is_identity(w):
                return Failure("solve on %s, length %d: got %s" % (name, len(w), result))
        elif query == "reduce":
            rw, trace = result
            if words.apply_trace(p, w, trace) != rw:
                return Failure("reduce on %s, length %d: trace does not replay" % (name, len(w)))
            if ref.normal_form(rw) != ref.normal_form(w):
                return Failure("reduce on %s, length %d: value changed" % (name, len(w)))
            want = ref.length(w) or 1
            if len(rw) != want:
                return Failure("reduce on %s, length %d: reduced length %d, geodesic %d" % (name, len(w), len(rw), want))
        else:
            want = len(w) == ref.length(w) and w != (p.identity,)
            dfa = self.acceptors[name].accepts(w)
            if result != want or dfa != want:
                return Failure("geodesic on %s, length %d: search %s, DFA %s, reference %s" % (name, len(w), result, dfa, want))
        return None


# ----------------------------------------------------------------- balls

# (op, table, radius); taxicab runs at r=6 (1,457 elements) because r=7
# alone takes longer than one run may.
BALL_OPS = (
    ("ball", "zxz", 20),
    ("ball", "zxz", 24),
    ("ball", "taxicab", 6),
    ("ball", "fp2", 4),
    ("geodesic", "zxz", 0),
    ("geodesic", "fp2", 0),
    ("combing", "zxz", 0),
    ("combing", "fp2", 0),
    ("wdm", "zxz", 0),
    ("fellow", "zxz", 0),
)
WDM_K, WDM_R = 5, 6
FELLOW_R, FELLOW_K = 6, 5


class Balls(Workload):
    """One structure build per op, each on a table no earlier op has seen.

    preekit caches balls and axiom verdicts per table value and keeps every
    table it has seen alive, so an equal table reloaded in the same process
    would hit those caches.  Each op therefore gets a copy whose element
    names carry a per-op tag: the same work on a different value.
    """

    def setup(self) -> None:
        self.add_table("zxz", load_valid(fixture_text("zxz"), "zxz"))
        self.add_table("taxicab", load_valid(fixture_text("taxicab"), "taxicab"), free=True)
        self.add_table("fp2", load_valid(free_product_text(), "fp2"))
        for name, p in self.tables.items():
            require_axioms(p, name)

    def inputs(self) -> list:
        ref = self.refs["fp2"]
        self.fp2_spheres = ball_sizes(list(ref.index.values()), ref, 4)
        ops = list(BALL_OPS)
        Random(self.seed).shuffle(ops)
        return ops

    def ball_size(self, name: str, r: int) -> int:
        if name == "zxz":
            return 1 + 3 * r * (r + 1)
        if name == "taxicab":
            return 2 * 3 ** r - 1
        return sum(self.fp2_spheres[: r + 1])

    def prepare(self, specs: list, tag: str) -> list:
        out = []
        for i, (op, name, r) in enumerate(specs):
            base = self.tables[name]
            p = dataclasses.replace(base, names=tuple("%so%d.%s" % (tag, i, nm) for nm in base.names))
            lang = fsa.combing_acceptor(p) if op in ("wdm", "fellow") else None
            out.append((op, name, r, p, lang))
        return out

    def run(self, spec):
        op, _, r, p, lang = spec
        if op == "ball":
            return group.cayley_ball(p, r)
        if op == "geodesic":
            return fsa.geodesic_acceptor(p)
        if op == "combing":
            return fsa.combing_acceptor(p)
        if op == "wdm":
            return fsa.word_difference_machine(p, lang, WDM_K, WDM_R)
        return group.fellow_traveler_check(p, lang, FELLOW_R, FELLOW_K)

    def check(self, spec, result):
        op, name, r, p, lang = spec
        ref = Reference(p, free=name == "taxicab")
        label = "%s on %s" % (op, name)
        if op == "ball":
            want = self.ball_size(name, r)
            if result.size != want:
                return Failure("%s r=%d: %d elements, expected %d" % (label, r, result.size, want))
            forms = set()
            for rep, d in zip(result.reps, result.dist):
                if d != len(rep) or d != ref.length(rep):
                    return Failure("%s r=%d: dist %d for a word of geodesic length %d" % (label, r, d, ref.length(rep)))
                forms.add(ref.normal_form(rep))
            if len(forms) != result.size:
                return Failure("%s r=%d: two representatives name one element" % (label, r))
        elif op == "geodesic":
            letters = [a for a in p.elements() if a != p.identity]
            layer = [()]
            for _ in range(3):
                layer = [w + (a,) for w in layer for a in letters]
                for w in layer:
                    if result.accepts(w) != (ref.length(w) == len(w)):
                        return Failure("%s: wrong verdict on a word of length %d" % (label, len(w)))
        elif op == "combing":
            radius = 4 if name == "zxz" else 3
            forms = set()
            for w in result.enumerate_words(radius):
                if ref.length(w) != len(w):
                    return Failure("%s: accepts a word that is not geodesic" % label)
                forms.add(ref.normal_form(w))
            missing = self.ball_size(name, radius) - len(forms)
            if missing:
                return Failure("%s: combed words of length <= %d miss %d elements" % (label, radius, missing))
        elif op == "wdm":
            if not isinstance(result, fsa.FiniteAutomaton):
                return Failure("%s: failure witness %s" % (label, result.render(p)))
            combed = [tuple(w) for w in lang.enumerate_words(3)]
            for u in combed:
                for v in combed:
                    n = max(len(u), len(v))
                    pair = [(u[i] if i < len(u) else fsa.PAD, v[i] if i < len(v) else fsa.PAD) for i in range(n)]
                    if result.accepts(pair) != (ref.length(inverse(ref, u) + v) <= 1):
                        return Failure("%s: wrong verdict on a combed pair" % label)
        else:
            return self._check_fellow(label, ref, lang, result)
        return None

    def _check_fellow(self, label, ref, lang, report):
        combed = [tuple(w) for w in lang.enumerate_words(FELLOW_R)]
        pairs = worst = 0
        for i, u in enumerate(combed):
            for v in combed[i + 1 :]:
                if ref.length(inverse(ref, u) + v) > 1:
                    continue
                pairs += 1
                for t in range(1, max(len(u), len(v)) + 1):
                    worst = max(worst, ref.length(inverse(ref, u[:t]) + v[:t]))
        got = (report.words_checked, report.pairs_checked, report.max_separation, report.ok)
        want = (len(combed), pairs, worst, worst <= FELLOW_K)
        if got != want:
            return Failure("%s: (words, pairs, separation, ok) %s, expected %s" % (label, got, want))
        return None


# -------------------------------------------------------------- diagrams

MIN_AREA, MAX_AREA = 2, 10
PER_CELL = 45  # boundaries per (table, area)
# Search cost is heavy-tailed in the boundary: across ten seeds, sets
# grown independently with the same areas varied by 11% (IQR over median)
# in total search work.  So the boundaries are grown once from this fixed
# seed, and the run's seed picks how each one is read (rotation, direction)
# and the op order.  find_minimal_diagram canonicalises its input, so every
# seed does the same search work on different words.
CATALOG_SEED = 1406


class Diagrams(Workload):
    """Minimal-diagram searches for boundaries of randomly grown diagrams."""

    def setup(self) -> None:
        # the checks need no word arithmetic, so s3 needs no Reference
        for name, text in (("zxz", fixture_text("zxz")), ("s3", fixture_text("s3")), ("fp2", free_product_text())):
            self.tables[name] = load_valid(text, name)
            prime_axioms(self.tables[name], name)

    def inputs(self) -> list:
        zxz = self.tables["zxz"]
        catalog = []
        for k in (2, 3):
            w = tuple(zxz.id_of(vec_name(v)) for v in ((0, 1),) * k + ((1, 0),) * k + ((-1, -1),) * k)
            catalog.append(("zxz", w, k * k, k * k))
        grow = Random(CATALOG_SEED)
        for name in ("zxz", "s3", "fp2"):
            for area in range(MIN_AREA, MAX_AREA + 1):
                for _ in range(PER_CELL):
                    d = diagrams.grow_random(self.tables[name], Random(grow.getrandbits(32)), area)
                    catalog.append((name, d.boundary_word(), area, d.area))
        rng = Random(self.seed)
        specs = []
        for name, w, area, grown in catalog:
            r = rng.randrange(len(w))
            w = w[r:] + w[:r]
            if rng.random() < 0.5:
                inv = self.tables[name].inv
                w = tuple(inv[a] for a in reversed(w))
            specs.append((name, w, area, grown))
        rng.shuffle(specs)
        return specs

    def run(self, spec):
        name, w, area, _ = spec
        return diagrams.find_minimal_diagram(self.tables[name], w, max_area=area)

    def check(self, spec, d):
        name, w, area, grown = spec
        if d is None:
            # known defect: the search prunes the last move when the minimal
            # area equals max_area, so an existing diagram is not returned
            return Failure("no diagram on %s within max_area %d (grown area %d)" % (name, area, grown), wrong=False)
        if d.area > min(area, grown):
            return Failure("diagram on %s: area %d above max_area %d or grown area %d" % (name, d.area, area, grown))
        if w not in {word for _, _, word in d.readings()}:
            return Failure("diagram on %s: boundary does not read the word" % name)
        if not diagrams.curvature_check(d)[2]:
            return Failure("diagram on %s: curvature identity fails" % name)
        return None


WORKLOADS = {"verify": Verify, "words": Words, "balls": Balls, "diagrams": Diagrams}
