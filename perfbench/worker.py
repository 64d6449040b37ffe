"""One benchmark process: set up a workload, run its passes, report JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up, report the time, stop), ``plain`` (untraced
passes over the workload's fixed input set while they fit in SECONDS,
at least one) or ``traced`` (one untraced pass, then one traced pass).
run.py starts it; the last line of stdout is the result.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_FAILURE_MESSAGES = 5
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def pin(k: int) -> None:
    """Keep this process (and the processes it starts) on the k-th CPU it
    may use, round robin.  The host slows each CPU at its own times, so
    repeats spread over the CPUs let the fastest repeat find a fast one."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def run_pass(wl, ops: list, tracer=None) -> dict:
    """Run every op once.  Checks run between ops with the clock paused."""
    from workloads import Failure

    latencies, failures = [], []
    paused = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            result, failure = wl.run(op), None
        except Exception as exc:  # an op that raises is one failure; the run goes on
            failure = Failure("%s: %s" % (type(exc).__name__, exc), wrong=False)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if failure is None:
            try:
                failure = wl.check(op, result)
            except Exception as exc:  # a malformed answer is a wrong one
                failure = Failure("check raised %s: %s" % (type(exc).__name__, exc))
        if failure is not None:
            failures.append(failure)
        paused += time.perf_counter() - t1
    elapsed = time.perf_counter() - start
    return {"wall": elapsed - paused, "elapsed": elapsed, "latencies": latencies, "failures": failures}


def main() -> int:
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    traced = mode == "traced"

    t0 = time.perf_counter()
    import workloads  # imports preekit: part of set-up

    tracer = saved = None
    if traced:
        import spans

        tracer = spans.Tracer()
        saved = spans.install(tracer)
    wl = workloads.WORKLOADS[workload](seed)
    wl.setup()
    setup_s = time.perf_counter() - t0
    if traced:
        spans.uninstall(saved)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    specs = wl.inputs()
    passes = []
    if traced:
        passes.append(run_pass(wl, wl.prepare(specs, "p0")))
        ops = wl.prepare(specs, "p1")
        saved = spans.install(tracer)
        wl.attach(tracer)
        passes.append(run_pass(wl, ops, tracer))
        spans.uninstall(saved)
    else:
        start = time.perf_counter()
        while True:
            pin(len(passes))
            passes.append(run_pass(wl, wl.prepare(specs, "p%d" % len(passes))))
            if time.perf_counter() - start + passes[-1]["elapsed"] > seconds:
                break

    who = resource.RUSAGE_CHILDREN if workload == "verify" else resource.RUSAGE_SELF
    failures = [f for p in passes for f in p["failures"]]
    report = {
        "setup_s": setup_s,
        "walls": [p["wall"] for p in passes],
        "latencies": [p["latencies"] for p in passes],
        "ops_per_pass": len(specs),
        "attempted": len(specs) * len(passes),
        "failed": len(failures),
        "wrong": sum(f.wrong for f in failures),
        "failures": sorted({f.message for f in failures})[:MAX_FAILURE_MESSAGES],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "tables": wl.describe(),
    }
    if traced:
        out = os.path.join(workloads.SCRATCH, "trace")
        os.makedirs(out, exist_ok=True)
        tracer.dump(os.path.join(out, "%s-seed%d.tsv.gz" % (workload, seed)))
        overhead = passes[1]["wall"] / passes[0]["wall"]
        report["layers"] = spans.layer_metrics(tracer, overhead)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
