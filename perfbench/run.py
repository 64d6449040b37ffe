"""preekit benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload verify|words|balls|diagrams \\
        --seed N --seconds S --trace 0|1

The run is SEGMENTS rounds, one after another: a fresh process that only
sets up, then a worker process that sets up and runs the workload's
passes (closed loop: one op at a time, one process alive) for its share
of --seconds.  So set-up is timed twice per round, spread over the run.
Passes and set-ups take the CPUs in turn, and times are the fastest of
their repeats in the run, see end_to_end().  With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced pass.  Every op's answer is checked; the last stdout line
is the result object, the line before it the run's details.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import CPUS, MAX_FAILURE_MESSAGES, pin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "words", "balls", "diagrams")
SEGMENTS = 4
TIME_LIMIT_S = 170


def run_worker(args: list, deadline: float) -> dict:
    """Start worker.py in its own process group and wait for its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker %s exceeded the time limit" % args[:4])
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (args[:4], proc.returncode))
    return json.loads(out.decode().splitlines()[-1])


def merge(segments: list) -> dict:
    """One report for the run from the worker reports of its rounds."""
    r = dict(segments[0])
    for key in ("walls", "latencies"):
        r[key] = [x for s in segments for x in s[key]]
    for key in ("attempted", "failed", "wrong"):
        r[key] = sum(s[key] for s in segments)
    r["failures"] = sorted({m for s in segments for m in s["failures"]})[:MAX_FAILURE_MESSAGES]
    r["peak_rss_mb"] = max(s["peak_rss_mb"] for s in segments)
    return r


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(setups: list, r: dict) -> tuple[dict, dict]:
    # The host's speed for the same work switches between a fast and a
    # slow state (about 1.4x apart) that lasts seconds to minutes.  A median
    # over such a mix jumps between the two states from run to run, while
    # the fastest repeat reads the fast state wherever the run met it.  So
    # an op's latency is the fastest of its repeats over the run's passes,
    # wall_s is the input set's time at those latencies, and setup_s is the
    # fastest set-up.
    best = [min(rep) for rep in zip(*r["latencies"])]
    lat_ms = [x * 1e3 for x in best]
    p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": (min(setups), "s"),
        "wall_s": (sum(best), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p99_ms": (p99, "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "ok_ratio": ((r["attempted"] - r["failed"]) / r["attempted"], "ratio"),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(r["walls"]),
        "op_p50_ms": len(lat_ms),
        "op_p99_ms": len(lat_ms),
        "beyond_p99": sum(1 for x in lat_ms if x > p99),
    }
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in ("src/preekit/__init__.py", "fixtures/zxz.pree", "tests/golden/zxz_verify.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("error: %s not found; run from a preekit checkout" % need, file=sys.stderr)
            return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = [args.workload, args.seed]

    setups, segments = [], []
    try:
        if args.trace:
            segments.append(run_worker(base + [args.seconds, "traced"], deadline))
        else:
            for k in range(SEGMENTS):
                pin(k)  # the set-up process inherits the CPU
                setups.append(run_worker(base + [0, "setup"], deadline)["setup_s"])
                if CPUS:
                    os.sched_setaffinity(0, CPUS)
                share = (args.seconds - (time.monotonic() - start)) / (SEGMENTS - k)
                segments.append(run_worker(base + [share, "plain"], deadline))
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    r = merge(segments)
    setups += [s["setup_s"] for s in segments]

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "platform": platform.platform()},
        "python": platform.python_version(),
        "tables": r["tables"],
        "pass_walls_s": r["walls"],
        "ops_per_pass": r["ops_per_pass"],
        "fail_ratio": r["failed"] / r["attempted"],
        "wrong_answers": r["wrong"],
        "failures": r["failures"],
    }
    if args.trace:
        metrics = r["layers"]
        details["trace_overhead_ratio"] = metrics["trace.overhead_ratio"][0]
        details["spans_file"] = ".perfbench/trace/%s-seed%d.tsv.gz" % (args.workload, args.seed)
    else:
        metrics, details["samples"] = end_to_end(setups, r)
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in details.get("samples", {}):
            extra = "  (n=%d" % details["samples"][name]
            extra += ", %d beyond)" % details["samples"]["beyond_p99"] if name == "op_p99_ms" else ")"
        print("%-34s %14.6g %s%s" % (name, value, unit, extra))
    print("%-34s %14.6g %s" % ("fail_ratio", details["fail_ratio"], "ratio"))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": r["wrong"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
