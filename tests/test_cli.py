"""Exit codes, output shapes, and the pinned golden transcripts."""

import os
import subprocess
import sys

import pytest

from conftest import GOLDEN, GOLDEN_CASES, _run, fixture_path
from preekit import group


@pytest.mark.parametrize("name,argv,want", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, want):
    code, out, _ = _run(argv)
    assert code == want
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        assert out == fh.read()


def test_golden_dir_holds_exactly_the_cases():
    """One transcript per case and nothing else, so a renamed case leaves no stale file."""
    assert sorted(os.listdir(GOLDEN)) == sorted(name + ".txt" for name, _, _ in GOLDEN_CASES)


def test_validate_ok():
    code, out, err = _run(["validate", fixture_path("zxz")])
    assert code == 0
    assert out.splitlines()[0] == "pree-structure: pass"
    assert err == ""


def test_validate_missing_file():
    code, _, err = _run(["validate", fixture_path("no_such")])
    assert code == 2
    assert err.startswith("error: cannot read")


def test_validate_broken_table_mentions_closure():
    code, out, _ = _run(["validate", fixture_path("broken_closure")])
    assert code == 3
    assert "closure violation" in out


GATED_COMMANDS = [
    ["reduce", "a"],
    ["solve", "a"],
    ["geodesic", "a"],
    ["comb"],
    ["ball", "-r", "1"],
    ["fellow", "-r", "2", "-k", "3"],
    ["diagram", "--boundary", "a ia"],
    ["export-fsa", "--which", "geodesic"],
]


@pytest.mark.parametrize("argv", GATED_COMMANDS, ids=[c[0] for c in GATED_COMMANDS])
def test_commands_that_trust_the_table_reject_an_invalid_one(argv):
    path = fixture_path("broken_closure")
    first_problem = _run(["validate", path, "--format", "records"])[1].splitlines()[2]
    assert first_problem.startswith("problem\t")
    code, out, err = _run([argv[0], path] + argv[1:])
    assert code == 3
    assert out == ""
    assert err == "error: %s: %s\n" % (path, first_problem[len("problem\t"):])


NEGATIVE_COUNTS = [
    ["ball", "-r", "-1"],
    ["fellow", "-r", "-1", "-k", "3"],
    ["fellow", "-r", "2", "-k", "-1"],
    ["comb", "--enumerate", "-1"],
    ["solve", "(1,0)", "--oracle", "--bound", "-1"],
    ["diagram", "--boundary", "(1,0) (-1,0)", "--max-area", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS, ids=[" ".join(c) for c in NEGATIVE_COUNTS])
def test_negative_counts_are_usage_errors(argv):
    code, out, err = _run([argv[0], fixture_path("zxz")] + argv[1:])
    assert code == 2
    assert out == ""
    assert "must be non-negative, got -1" in err


def test_cli_import_leaves_diagrams_unloaded():
    """Nor fsa, which a verify whose table fails an axiom never loads either.
    Nor does any preekit module load dataclasses, inspect or typing, which
    cost a cold process several milliseconds, or random, which diagrams
    names only in an annotation; -S keeps site hooks from loading them."""
    script = (
        "import contextlib, io, sys, preekit.cli\n"
        "assert not {'preekit.diagrams', 'preekit.fsa'} & set(sys.modules)\n"
        "assert not {'dataclasses', 'inspect', 'typing'} & set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert preekit.cli.main(['verify', %r]) == 1\n"
        "assert 'preekit.fsa' not in sys.modules\n"
        "import preekit.diagrams\n"
        "assert 'random' not in sys.modules\n"
        "import preekit\n"
        "ns = {}\n"
        "exec('from preekit import *', ns)\n"
        "assert len(preekit.__all__) == 27 and all(n in ns for n in preekit.__all__)\n"
        "assert preekit.diagrams.find_minimal_diagram is ns['find_minimal_diagram']\n"
        "assert preekit.fsa.combing_acceptor is ns['combing_acceptor']\n"
        "assert not {'dataclasses', 'inspect', 'typing'} & set(sys.modules)\n"
    ) % fixture_path("cycle4")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr


def test_usage_errors():
    assert _run(["frobnicate", "x"])[0] == 2
    assert _run(["ball", fixture_path("zxz")])[0] == 2
    code, _, err = _run(["solve", fixture_path("zxz"), "bogus letter"])
    assert code == 2
    assert err.startswith("error: ")


def test_reduce_with_trace():
    code, out, _ = _run(["reduce", fixture_path("zxz"), "(1,0) (0,1) (-1,-1)", "--trace"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "input: (1,0) (0,1) (-1,-1)"
    assert lines[-2] == "reduced: (0,0)"
    assert lines[-1] == "steps: 2"
    assert all(l.startswith("step ") for l in lines[1:-2])


def test_solve_exit_codes():
    assert _run(["solve", fixture_path("zxz"), "(0,1)"])[0] == 1
    code, out, _ = _run(["solve", fixture_path("zxz"), "(1,0) (-1,0)"])
    assert code == 0
    assert "identity: yes" in out


def test_solve_without_axioms_needs_oracle():
    code, _, err = _run(["solve", fixture_path("cycle4"), "x1 ix1"])
    assert code == 2
    assert "rerun with --oracle" in err
    code, out, _ = _run(["solve", fixture_path("cycle4"), "x1 ix1", "--oracle"])
    assert code == 0
    assert "oracle: yes" in out
    code, out, _ = _run(["solve", fixture_path("cycle4"), "x1 x2", "--oracle"])
    assert code == 1


def test_geodesic_membership():
    assert _run(["geodesic", fixture_path("zxz"), "(1,1)(1,1)(0,1)"])[0] == 0
    assert _run(["geodesic", fixture_path("zxz"), "(0,1)(1,1)(1,0)"])[0] == 1


def test_comb_counts():
    code, out, _ = _run(["comb", fixture_path("zxz"), "--enumerate", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "combed words up to length 2: 25"
    assert lines[1] == "(0,0)"
    assert len(lines) == 26


def test_comb_requires_axioms():
    """Every command built on the combing is refused, by the library, on
    the same exit-2 path."""
    for name in ("cycle4", "cycle5"):
        for argv in (["comb"], ["fellow", "-r", "2", "-k", "3"], ["export-fsa", "--which", "combing"]):
            code, out, err = _run([argv[0], fixture_path(name)] + argv[1:])
            assert (code, out) == (2, ""), (name, argv)
            assert err.startswith("error: ") and "short-cycle axioms" in err, (name, argv)


def test_ball_method_switches_to_oracle():
    code, out, _ = _run(["ball", fixture_path("cycle4"), "-r", "1"])
    assert code == 0
    assert "method: oracle" in out


def test_ball_refusals_exit_2(monkeypatch):
    code, out, err = _run(["ball", fixture_path("cycle4"), "-r", "2"])
    assert (code, out, err) == (2, "", "error: oracle undecided while building ball\n")
    monkeypatch.setattr(group, "BALL_ELEMENT_CAP", 5)
    code, out, err = _run(["ball", fixture_path("zxz"), "-r", "2"])
    assert (code, out, err) == (2, "", "error: ball exceeds element cap\n")


def test_ball_out_file(tmp_path):
    target = tmp_path / "rows.tsv"
    code, out, _ = _run(["ball", fixture_path("zxz"), "-r", "1", "--out", str(target)])
    assert code == 0
    assert target.read_text().count("\n") == 7
    assert "ball radius 1: 7 elements" in out


def test_fellow_passes():
    code, out, _ = _run(["fellow", fixture_path("zxz"), "-r", "4", "-k", "5"])
    assert code == 0
    assert "fellow-traveling: pass" in out
    assert "observed max separation: 2 (target 5)" in out


def test_diagram_found_and_not_found(tmp_path):
    code, out, _ = _run(["diagram", fixture_path("zxz"), "--boundary", "(1,0) (-1,0)"])
    assert code == 0
    assert "area: 2" in out
    assert "curvature: " in out

    code, out, _ = _run(["diagram", fixture_path("zxz"), "--boundary", "(1,0) (1,0)"])
    assert code == 1
    assert "no diagram within area 12" in out

    # max_area is inclusive: the digon has area exactly 2
    code, out, _ = _run(["diagram", fixture_path("zxz"), "--boundary", "(1,0) (-1,0)", "--max-area", "2"])
    assert code == 0
    assert "area: 2" in out.splitlines()
    code, out, _ = _run(["diagram", fixture_path("zxz"), "--boundary", "(1,0) (-1,0)", "--max-area", "1"])
    assert code == 1
    assert "no diagram within area 1" in out

    dot = tmp_path / "d.dot"
    code, _, _ = _run(["diagram", fixture_path("zxz"), "--boundary", "(1,0) (-1,0)",
                       "--dot", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("graph diagram {")


def test_export_fsa(tmp_path):
    code, out, _ = _run(["export-fsa", fixture_path("s3"), "--which", "geodesic"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "machine geodesic: 3 states, 6 symbols, deterministic"
    assert lines[1] == "states 3"

    text = tmp_path / "m.txt"
    code, out, _ = _run(["export-fsa", fixture_path("zxz"), "--which", "pair",
                         "--text", str(text)])
    assert code == 0
    assert out.splitlines()[0].startswith("machine pair: ")
    assert text.read_text().startswith("states ")


def test_verify_skips_when_axioms_fail():
    code, out, _ = _run(["verify", fixture_path("cycle4")])
    assert code == 1
    assert "axiom-4-cycles" in out
    assert out.count("skipped") == 3
    assert out.splitlines()[-1] == "summary: FAIL"


def test_records_format():
    code, out, _ = _run(["validate", fixture_path("zxz"), "--format", "records"])
    assert code == 0
    assert out.splitlines()[0] == "check\tpree-structure"
    assert out.splitlines()[1] == "result\tpass"

    code, out, _ = _run(["axioms", fixture_path("cycle4"), "--format", "records"])
    assert code == 1
    assert out.splitlines()[0] == "axiom4\tfail"

    code, out, _ = _run(["ball", fixture_path("zxz"), "-r", "1", "--format", "records"])
    assert code == 0
    assert out.splitlines()[0] == "radius\t1"
    assert out.splitlines()[1] == "size\t7"


def test_verify_records_summary():
    code, out, _ = _run(["verify", fixture_path("zxz"), "--format", "records"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary\tpass"
    assert len([l for l in lines if l.startswith("check\t")]) == 7
