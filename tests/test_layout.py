"""The repository's layout: shared test code lives in ``conftest.py`` and
``oracles.py``, and the README's library example and CLI transcripts run."""

import ast
import os
import re
import shlex

from conftest import _run

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_no_file_imports_a_test_module():
    offenders = []
    for folder in ("tests", "tools"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, folder)):
            for path in [os.path.join(dirpath, f) for f in sorted(files) if f.endswith(".py")]:
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    if any(part.startswith("test_") for m in modules for part in m.split(".")):
                        offenders.append("%s:%d" % (os.path.relpath(path, ROOT), node.lineno))
    assert offenders == []


def test_readme_library_example_runs(monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_cli_transcripts_replay(monkeypatch):
    """Each fenced block that starts with ``$ preekit`` exits 0 and prints
    the rest of the block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```\n\$ preekit (.*?)\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)
    for command, shown in blocks:
        code, out, _ = _run(shlex.split(command))
        assert (code, out) == (0, shown), command
