"""Spans for the traced pass, recorded by rebinding preekit's module attributes.

A span has a name (``<layer>.<function>``), a start, an end, a parent and
an op id, plus an optional count taken from the call's arguments or
result (letters in, states built, ...).  Spans are kept in memory in flat
arrays and written out as tab-separated rows when the run ends.  A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import math
import statistics
import time
from array import array
from collections import defaultdict

LAYERS = ("pree", "words", "group", "fsa", "diagrams", "cli")


def _reduce_note(args, result):
    steps = result[1].steps
    return (len(args[1]), len(steps), sum(1 for s in steps if s.kind == "strip"))


# count recorded with each span of that name
NOTES = {
    "words.strongly_reduce": _reduce_note,
    "group.cayley_ball": lambda args, r: (r.size,),
    "group.fellow_traveler_check": lambda args, r: (r.pairs_checked,),
    "fsa.geodesic_acceptor": lambda args, r: (r.n_states,),
    "fsa.combing_acceptor": lambda args, r: (r.n_states,),
    "fsa.word_difference_machine": lambda args, r: (getattr(r, "n_states", 0),),
    "diagrams.find_minimal_diagram": lambda args, r: (-1 if r is None else r.area,),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.info: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.current_op = -1

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if note is not None:
                tracer.info[i] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write every span as a row, then one ``trace.dump`` row timing
        the writing itself, so that readers can subtract it."""
        start = time.perf_counter_ns()
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", **({"compresslevel": 1} if path.endswith(".gz") else {})) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\tcount\n")
            for i, name in enumerate(self.names):
                fh.write(
                    "%d\t%s\t%d\t%d\t%d\t%d\t%s\n"
                    % (i, name, self.start[i], self.end[i], self.parent[i], self.op[i],
                       ",".join(map(str, self.info.get(i, ()))))
                )
            fh.write("%d\ttrace.dump\t%d\t%d\t-1\t%d\t\n"
                     % (len(self.names), start, time.perf_counter_ns(), self.current_op))

    def merge(self, path: str, parent: int) -> None:
        """Append spans dumped by another process; its roots hang under parent."""
        base = len(self.names)
        with open(path) as fh:
            next(fh)
            for line in fh:
                i, name, start, end, par, op, count = line.rstrip("\n").split("\t")
                j = base + int(i)
                self.names.append(name)
                self.start.append(int(start))
                self.end.append(int(end))
                self.parent.append(parent if par == "-1" else base + int(par))
                self.op.append(int(op))
                if count:
                    self.info[j] = tuple(int(x) for x in count.split(","))


def install(tracer: Tracer) -> list:
    """Rebind the traced names; returns what uninstall needs to undo it."""
    from preekit import cli, diagrams, fsa, group, pree, words

    targets = [
        (pree, "load_pree"), (pree, "validate_pree"), (pree, "check_axiom"),
        (words, "strongly_reduce"), (words, "is_geodesic_word"),
        (group, "equals_identity"), (group, "cayley_ball"), (group, "fellow_traveler_check"),
        (group, "verify_embedding"), (group, "verify_short_identities"),
        (group, "verify_surjectivity"),
        (group, "strongly_reduce"), (group, "check_axiom"),
        (fsa, "geodesic_acceptor"), (fsa, "combing_acceptor"), (fsa, "word_difference_machine"),
        (fsa, "equals_identity"), (fsa, "cayley_ball"),
        (diagrams, "find_minimal_diagram"), (diagrams, "curvature_check"),
        (fsa.FiniteAutomaton, "accepts"),
    ]
    # every function cli imports from the other modules
    targets += [
        (cli, name)
        for name, obj in sorted(vars(cli).items())
        if inspect.isfunction(obj) and obj.__module__.startswith("preekit.")
        and obj.__module__ != "preekit.cli"
    ]
    saved = []
    for owner, attr in targets:
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = "fsa.accepts" if attr == "accepts" else "%s.%s" % (layer, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, fn in saved:
        setattr(owner, attr, fn)


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(length)."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def layer_metrics(t: Tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    n = len(t.names)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if t.parent[i] >= 0:
            child[t.parent[i]] += dur[i]
    total = defaultdict(int)
    calls = defaultdict(int)
    own = defaultdict(int)
    counts = defaultdict(lambda: [0, 0, 0])
    for i, name in enumerate(t.names):
        total[name] += dur[i]
        calls[name] += 1
        own[name.split(".", 1)[0]] += dur[i] - child[i]
        for k, v in enumerate(t.info.get(i, ())):
            counts[name][k] += v

    # words.reduce_slope: median reducer time per doubling length bucket
    buckets = defaultdict(list)
    for i, name in enumerate(t.names):
        if name == "words.strongly_reduce":
            length = t.info[i][0]
            if length >= 8:
                buckets[min(int(math.log2(length)), 8)].append((length, dur[i]))
    points = [
        (statistics.median(x for x, _ in b), statistics.median(y for _, y in b))
        for b in buckets.values()
        if len(b) >= 5
    ]

    def sec(name):
        return total[name] / 1e9

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    finds = [t.info[i][0] for i, name in enumerate(t.names) if name == "diagrams.find_minimal_diagram"]
    reduce_count = counts["words.strongly_reduce"]
    m = {
        "pree.load_s": (sec("pree.load_pree"), "s"),
        "pree.validate_s": (sec("pree.validate_pree"), "s"),
        "pree.check_axiom_s": (sec("pree.check_axiom"), "s"),
        "pree.check_axiom_calls": (calls["pree.check_axiom"], "count"),
        "words.strongly_reduce_s": (sec("words.strongly_reduce"), "s"),
        "words.strongly_reduce_calls": (calls["words.strongly_reduce"], "count"),
        "words.letters_in": (reduce_count[0], "count"),
        "words.rewrite_steps": (reduce_count[1], "count"),
        "words.strip_steps": (reduce_count[2], "count"),
        "words.us_per_letter": (per(sec("words.strongly_reduce"), reduce_count[0], 1e6), "us/letter"),
        "words.is_geodesic_s": (sec("words.is_geodesic_word"), "s"),
        "words.reduce_slope": (_slope(points), "1"),
        "group.equals_identity_s": (sec("group.equals_identity"), "s"),
        "group.equals_identity_calls": (calls["group.equals_identity"], "count"),
        "group.cayley_ball_s": (sec("group.cayley_ball"), "s"),
        "group.ball_elements": (counts["group.cayley_ball"][0], "count"),
        "group.us_per_element": (per(sec("group.cayley_ball"), counts["group.cayley_ball"][0], 1e6), "us"),
        "group.elements_per_s": (per(counts["group.cayley_ball"][0], sec("group.cayley_ball")), "1/s"),
        "group.verify_short_identities_s": (sec("group.verify_short_identities"), "s"),
        "group.verify_embedding_s": (sec("group.verify_embedding"), "s"),
        "group.fellow_traveler_s": (sec("group.fellow_traveler_check"), "s"),
        "group.fellow_pairs": (counts["group.fellow_traveler_check"][0], "count"),
        "fsa.geodesic_acceptor_s": (sec("fsa.geodesic_acceptor"), "s"),
        "fsa.geodesic_states": (counts["fsa.geodesic_acceptor"][0], "count"),
        "fsa.combing_acceptor_s": (sec("fsa.combing_acceptor"), "s"),
        "fsa.combing_states": (counts["fsa.combing_acceptor"][0], "count"),
        "fsa.wdm_s": (sec("fsa.word_difference_machine"), "s"),
        "fsa.wdm_states": (counts["fsa.word_difference_machine"][0], "count"),
        "fsa.accepts_s": (sec("fsa.accepts"), "s"),
        "diagrams.find_minimal_s": (sec("diagrams.find_minimal_diagram"), "s"),
        "diagrams.found_ratio": (per(sum(1 for a in finds if a >= 0), len(finds)), "ratio"),
        "diagrams.area_sum": (sum(a for a in finds if a >= 0), "count"),
        "diagrams.curvature_check_s": (sec("diagrams.curvature_check"), "s"),
        "cli.process_s": (sec("cli.process"), "s"),
        "cli.main_s": (sec("cli.main"), "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (own[layer] / 1e9, "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
