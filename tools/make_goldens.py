"""Regenerate the golden CLI outputs under tests/golden/.

Run after any deliberate output change, then review the diff before
committing.  The cases are tests/test_cli.py's GOLDEN_CASES: each pins
stdout bytes and the exit code of one invocation, and the tests replay
them.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_cli import GOLDEN, GOLDEN_CASES, _run  # noqa: E402


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv, want_code in GOLDEN_CASES:
        code, out, _ = _run(argv)
        if code != want_code:
            print("%s: exit %d, expected %d" % (name, code, want_code), file=sys.stderr)
            return 1
        path = os.path.join(GOLDEN, name + ".txt")
        with open(path, "w") as fh:
            fh.write(out)
        print("wrote %s (%d bytes)" % (path, len(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
