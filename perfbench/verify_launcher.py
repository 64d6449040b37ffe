"""Run the preekit CLI with spans recorded, then write them out.

    python3 perfbench/verify_launcher.py SPANS_FILE OP_ID <preekit arguments>

Prints and exits exactly as ``python3 -m preekit.cli <arguments>`` would;
the traced pass of the verify workload runs its ops through this file.
"""

import sys

from spans import Tracer, install


def main() -> int:
    out, op = sys.argv[1], int(sys.argv[2])
    from preekit import cli

    tracer = Tracer()
    tracer.current_op = op
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(sys.argv[3:])
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
