"""Command-line surface.

Exit codes: 0 success or property true; 1 property false or a
counterexample was found; 2 usage error (including unparseable words)
or a library refusal, such as the word solver's precondition; 3 invalid
pree input.  Output is deterministic: identical invocations
print identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .pree import Pree, PreeError, load_pree
from .words import (
    ReductionTrace, apply_trace, is_geodesic_word, parse_word, render_word, strongly_reduce,
)
from .group import (
    axioms_hold,
    bfs_identity_oracle,
    cayley_ball,
    equals_identity,
    fellow_traveler_check,
    verify_embedding,
    verify_short_identities,
    verify_surjectivity,
)
from .fsa import (
    combing_acceptor,
    fsa_to_dot,
    fsa_to_text,
    geodesic_acceptor,
    render_symbol,
    strip_reduction_pair_recognizer,
)


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _fail(code: int, msg: str) -> "_Exit":
    print("error: " + msg, file=sys.stderr)
    return _Exit(code)


def _load(path: str) -> Pree:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _fail(2, "cannot read %s: %s" % (path, exc.strerror or exc))
    try:
        return load_pree(text)
    except PreeError as exc:
        raise _fail(3, "%s: %s" % (path, exc))


def _load_valid(path: str) -> Pree:
    """The table, for commands that trust it: exit 3 unless it validates."""
    p = _load(path)
    rep = p.validation
    if not rep.ok:
        raise _fail(3, "%s: %s" % (path, rep.problems[0]))
    return p


def _word(p: Pree, text: str):
    try:
        return parse_word(p, text)
    except PreeError as exc:
        raise _fail(2, str(exc))


def _write(path: str, content: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        raise _fail(2, "cannot write %s: %s" % (path, exc.strerror or exc))


def _show(p: Pree, w) -> str:
    # the empty word prints as the identity name; unambiguous because
    # the lone identity letter never appears in machine output
    return render_word(p, w) if w else p.name(p.identity)


def _row(fmt: str, key: str, value: str) -> str:
    """One ``key: value`` line, or ``key<TAB>value`` in the records format."""
    return key + ("\t" if fmt == "records" else ": ") + value


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _report_lines(rep, fmt: str) -> list[str]:
    if fmt == "records":
        lines = ["check\t" + rep.name, "result\t" + ("pass" if rep.ok else "fail")]
        lines += ["problem\t" + m for m in rep.problems]
        lines += ["note\t" + m for m in rep.notes]
        return lines
    return [rep.render()]


def cmd_validate(args) -> int:
    p = _load(args.pree)
    rep = p.validation
    _emit(_report_lines(rep, args.format))
    return 0 if rep.ok else 3


def cmd_axioms(args) -> int:
    p = _load(args.pree)
    lines = []
    code = 0
    for n, w in zip((4, 5), p.axiom_witnesses):
        if args.format == "records":
            lines.append("axiom%d\t%s" % (n, "pass" if w is None else "fail"))
            if w is not None:
                lines.append("witness%d\t%s" % (n, w.render(p)))
        else:
            if w is None:
                lines.append("axiom %d-cycles: pass" % n)
            else:
                lines.append("axiom %d-cycles: FAIL" % n)
                lines.append("  witness: " + w.render(p))
        if w is not None:
            code = 1
    _emit(lines)
    return code


def cmd_reduce(args) -> int:
    p = _load_valid(args.pree)
    w = _word(p, args.word)
    reduced, trace = strongly_reduce(p, w)
    lines = [_row(args.format, "input", _show(p, w))]
    if args.trace:
        cur = w
        for i, step in enumerate(trace.steps):
            cur = apply_trace(p, cur, ReductionTrace((step,)))
            if args.format == "records":
                lines.append(
                    "step\t%d\t%s\t%d\t%s" % (i + 1, step.kind, step.position, _show(p, cur))
                )
            else:
                lines.append(
                    "step %d: %s at %d -> %s" % (i + 1, step.kind, step.position, _show(p, cur))
                )
    lines.append(_row(args.format, "reduced", _show(p, reduced)))
    lines.append(_row(args.format, "steps", str(len(trace.steps))))
    _emit(lines)
    return 0


def cmd_solve(args) -> int:
    p = _load_valid(args.pree)
    w = _word(p, args.word)
    oracle_verdict: str | None = None
    if args.oracle:
        got = bfs_identity_oracle(p, w, length_bound=args.bound)
        oracle_verdict = "yes" if got is True else ("no" if got is False else "inconclusive")
    fmt = args.format
    lines = [_row(fmt, "word", _show(p, w))]
    try:
        ident = equals_identity(p, w)
    except PreeError:
        if oracle_verdict is None:
            raise _fail(2, "the word solver needs the short-cycle axioms; rerun with --oracle")
        lines.append(_row(fmt, "identity", "unknown" if fmt == "records" else "unknown (axioms fail)"))
        lines.append(_row(fmt, "oracle", oracle_verdict))
        _emit(lines)
        return 0 if oracle_verdict == "yes" else 1
    lines.append(_row(fmt, "identity", "yes" if ident else "no"))
    if oracle_verdict is not None:
        lines.append(_row(fmt, "oracle", oracle_verdict))
    _emit(lines)
    return 0 if ident else 1


def cmd_geodesic(args) -> int:
    p = _load_valid(args.pree)
    w = _word(p, args.word)
    ok = is_geodesic_word(p, w)  # one pass; parse_word never returns the empty word
    _emit([_row(args.format, "word", _show(p, w)), _row(args.format, "geodesic", "yes" if ok else "no")])
    return 0 if ok else 1


def cmd_comb(args) -> int:
    p = _load_valid(args.pree)
    acc = combing_acceptor(p)
    words = acc.enumerate_words(args.enumerate)
    if args.format == "records":
        lines = ["max_length\t%d" % args.enumerate, "count\t%d" % len(words)]
        lines += ["word\t" + _show(p, w) for w in words]
    else:
        lines = ["combed words up to length %d: %d" % (args.enumerate, len(words))]
        lines += [_show(p, w) for w in words]
    _emit(lines)
    return 0


def cmd_ball(args) -> int:
    p = _load_valid(args.pree)
    method = "dehn" if axioms_hold(p) else "oracle"
    ball = cayley_ball(p, args.radius, method=method)
    rows = ball.render_rows()
    if args.out:
        _write(args.out, "\n".join(rows) + "\n")
    if args.format == "records":
        lines = ["radius\t%d" % args.radius, "size\t%d" % ball.size, "method\t" + method]
        lines += ["element\t" + r for r in rows]
    else:
        lines = [
            "ball radius %d: %d elements" % (args.radius, ball.size),
            "method: " + method,
        ]
        lines += rows
    _emit(lines)
    return 0


def cmd_fellow(args) -> int:
    p = _load_valid(args.pree)
    rep = fellow_traveler_check(p, combing_acceptor(p), args.radius, args.k)
    if args.format == "records":
        lines = [
            "target\t%d" % rep.target,
            "max_separation\t%d" % rep.max_separation,
            "result\t" + ("pass" if rep.ok else "fail"),
            "words\t%d" % rep.words_checked,
            "pairs\t%d" % rep.pairs_checked,
        ]
        if rep.max_separation:
            lines.append("worst_u\t" + _show(p, rep.worst_u))
            lines.append("worst_v\t" + _show(p, rep.worst_v))
    else:
        lines = [rep.render(p)]
    _emit(lines)
    return 0 if rep.ok else 1


def cmd_diagram(args) -> int:
    # imported here so that the other commands never load the diagram module
    from .diagrams import curvature_check, diagram_stats, diagram_to_dot, find_minimal_diagram
    p = _load_valid(args.pree)
    w = _word(p, args.boundary)
    d = find_minimal_diagram(p, w, max_area=args.max_area)
    fmt = args.format
    rec = fmt == "records"
    lines = [_row(fmt, "boundary", _show(p, w))]
    if rec:
        lines.append("found\t" + ("no" if d is None else "yes"))
    if d is None:
        lines.append("max_area\t%d" % args.max_area if rec else "no diagram within area %d" % args.max_area)
        _emit(lines)
        return 1
    stats = diagram_stats(d)
    lhs, rhs, _ = curvature_check(d)
    if args.dot:
        _write(args.dot, diagram_to_dot(d))
    lines += [_row(fmt, "area", str(d.area)), _row(fmt, "reading", _show(p, d.boundary_word()))]
    if rec:
        lines += [
            "curvature\t%d\t%d" % (lhs, rhs),
            "delta2\t%d" % stats.delta2,
            "delta3\t%d" % stats.delta3,
            "delta5\t%d" % stats.delta5,
            "internal_degrees\t" + " ".join(str(x) for x in stats.internal_degrees),
            "galleries\t%d" % stats.galleries,
        ]
    else:
        lines += ["curvature: %d = %d" % (lhs, rhs), "stats: " + stats.render()]
    _emit(lines)
    return 0


def cmd_export_fsa(args) -> int:
    p = _load_valid(args.pree)
    if args.which == "geodesic":
        m = geodesic_acceptor(p)
    elif args.which == "combing":
        m = combing_acceptor(p)
    else:
        m = strip_reduction_pair_recognizer(p)
    name = lambda sym: render_symbol(p, sym)
    table = fsa_to_text(m, name)
    if args.dot:
        _write(args.dot, fsa_to_dot(m, name))
    if args.text:
        _write(args.text, table)
    lines = [
        "machine %s: %d states, %d symbols, %s"
        % (
            args.which,
            m.n_states,
            len(m.alphabet),
            "deterministic" if m.deterministic else "nondeterministic",
        )
    ]
    if not args.dot and not args.text:
        lines.append(table.rstrip("\n"))
    _emit(lines)
    return 0


def _verify_row(name: str, rep) -> tuple[str, bool | None, str]:
    """A verify row for a report: its verdict, and its first problem when it fails."""
    return name, rep.ok, "" if rep.ok else rep.problems[0]


def cmd_verify(args) -> int:
    p = _load(args.pree)
    rows = [_verify_row("pree-structure", p.validation)]
    w4, w5 = p.axiom_witnesses
    rows.append(("axiom-4-cycles", w4 is None, "" if w4 is None else w4.render(p)))
    rows.append(("axiom-5-cycles", w5 is None, "" if w5 is None else w5.render(p)))
    rows.append(_verify_row("embedding", verify_embedding(p)))
    if axioms_hold(p):
        rows.append(_verify_row("short-identity-reducibility", verify_short_identities(p)))
        language = combing_acceptor(p)
        rows.append(_verify_row("combing-surjectivity", verify_surjectivity(p, language, 6)))
        ft = fellow_traveler_check(p, language, 6, 5)
        rows.append(
            ("fellow-traveling", ft.ok, "max separation %d of %d" % (ft.max_separation, ft.target))
        )
    else:
        for nm in ("short-identity-reducibility", "combing-surjectivity", "fellow-traveling"):
            rows.append((nm, None, "needs a valid pree with both axioms"))
    ok = all(res for _, res, _ in rows)  # a skipped check (None) fails the summary too
    lines = []
    if args.format == "records":
        for nm, res, detail in rows:
            verdict = "skipped" if res is None else ("pass" if res else "fail")
            lines.append("check\t%s\t%s%s" % (nm, verdict, "\t" + detail if detail else ""))
        lines.append("summary\t" + ("pass" if ok else "fail"))
    else:
        width = max(len(r[0]) for r in rows)
        for nm, res, detail in rows:
            verdict = "skipped" if res is None else ("pass" if res else "FAIL")
            lines.append(
                "%-*s  %s%s" % (width, nm, verdict, "  (%s)" % detail if detail else "")
            )
        lines.append(
            "summary: %s" % ("all %d checks pass" % len(rows) if ok else "FAIL")
        )
    _emit(lines)
    return 0 if ok else 1


def _count(text: str) -> int:
    """argparse type for counts and bounds: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %d" % n)
    return n


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="preekit",
        description="Partial multiplication tables, their word problem, and the verification suite.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "records"), default="text", help="output style"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", parents=[common], help="check the table laws")
    s.add_argument("pree")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("axioms", parents=[common], help="check the 4- and 5-cycle axioms")
    s.add_argument("pree")
    s.set_defaults(func=cmd_axioms)

    s = sub.add_parser("reduce", parents=[common], help="strongly reduce a word")
    s.add_argument("pree")
    s.add_argument("word")
    s.add_argument("--trace", action="store_true", help="print every rewrite step")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("solve", parents=[common], help="decide whether a word is the identity")
    s.add_argument("pree")
    s.add_argument("word")
    s.add_argument("--oracle", action="store_true", help="also run the bounded search oracle")
    s.add_argument("--bound", type=_count, default=8, help="oracle length bound")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("geodesic", parents=[common], help="test geodesic acceptor membership")
    s.add_argument("pree")
    s.add_argument("word")
    s.set_defaults(func=cmd_geodesic)

    s = sub.add_parser("comb", parents=[common], help="enumerate the combed language")
    s.add_argument("pree")
    s.add_argument("--enumerate", type=_count, default=6, metavar="N", help="maximum length")
    s.set_defaults(func=cmd_comb)

    s = sub.add_parser("ball", parents=[common], help="breadth-first ball of the word metric")
    s.add_argument("pree")
    s.add_argument("-r", "--radius", type=_count, required=True)
    s.add_argument("--out", help="also write the rows to a file")
    s.set_defaults(func=cmd_ball)

    s = sub.add_parser("fellow", parents=[common], help="synchronous fellow-traveler check")
    s.add_argument("pree")
    s.add_argument("-r", "--radius", type=_count, required=True)
    s.add_argument("-k", type=_count, required=True, help="separation target")
    s.set_defaults(func=cmd_fellow)

    s = sub.add_parser("diagram", parents=[common], help="smallest diagram for a boundary word")
    s.add_argument("pree")
    s.add_argument("--boundary", required=True, metavar="WORD")
    s.add_argument("--max-area", type=_count, default=12)
    s.add_argument("--dot", metavar="FILE", help="write the diagram as DOT")
    s.set_defaults(func=cmd_diagram)

    s = sub.add_parser("export-fsa", parents=[common], help="export an automaton")
    s.add_argument("pree")
    s.add_argument("--which", required=True, choices=("geodesic", "combing", "pair"))
    s.add_argument("--dot", metavar="FILE")
    s.add_argument("--text", metavar="FILE")
    s.set_defaults(func=cmd_export_fsa)

    s = sub.add_parser("verify", parents=[common], help="run the whole verification suite")
    s.add_argument("pree")
    s.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code
    except PreeError as exc:
        # the one path for a library refusal that no command handles itself
        return _fail(2, str(exc)).code


if __name__ == "__main__":
    sys.exit(main())
