"""One workload in one process: set up, warm up, run timed cycles, check.

Started by run.py with samurai on PYTHONPATH, SAMURAI_THREADS unset and
BLAS pinned to one thread.  Prints ``READY`` once samurai is imported and
the inputs are made; run.py times that as a fresh start.  The last line of
standard output is a JSON object for run.py to complete.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/worker.py --workload NAME --seed N --setup-only
  python3 perfbench/worker.py --workload NAME --seed N --smoke   # one checked cycle
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


class Spool:
    """Records of every operation, on disk until the checks read them back,
    so holding them raises neither the timed loop's memory nor its time."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "wb")

    def add(self, record: dict):
        pickle.dump(record, self._fh, protocol=pickle.HIGHEST_PROTOCOL)

    def __iter__(self):
        self._fh.close()
        with open(self.path, "rb") as fh:  # written by this process only
            while True:
                try:
                    yield pickle.load(fh)
                except EOFError:
                    return


def tail_line(times: list) -> str:
    """The median and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    p50 = statistics.median(times)
    if n < 40:
        return f"op time: p50 {p50:.6g} s over {n} operations (too few for a tail percentile)"
    q = statistics.quantiles(times, n=1000, method="inclusive")
    p = max(p for p in PERCENTILES if n * (100 - p) / 100 >= 10)
    return f"op time: p50 {p50:.6g} s, p{p:g} {q[round(p * 10) - 1]:.6g} s over {n} operations"


def run_cycles(cycle, spool, seconds: float, counter: list, tracer=None):
    """Whole cycles, at least one, until ``seconds`` of wall time have
    passed; returns the per-operation times and the number of failed
    operations."""
    times, failed = [], 0
    start = time.perf_counter()
    while True:
        for op in cycle:
            k = counter[0]
            counter[0] += 1
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            raw = op.run(k, False)
            times.append(time.perf_counter() - t0)
            rec = op.record(raw)
            failed += bool(rec.get("failed"))
            spool.add(rec)
        if time.perf_counter() - start >= seconds:
            return times, failed


def check_all(spool) -> tuple[int, list]:
    import checks

    checked, errors = 0, []
    for rec in spool:
        try:
            checks.check_record(rec)
        except checks.CheckFailed as exc:
            errors.append(str(exc))
        checked += 1
    return checked, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads  # imports numpy and samurai

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        cycle = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(args, cycle, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cycle, workdir) -> int:
    spool = Spool(os.path.join(workdir, "spool.pkl"))
    counter = [0]
    for op in cycle:  # warm-up: lazy imports, first-call costs; checked, not counted
        spool.add(op.record(op.run(counter[0], True)))
        counter[0] += 1
    if args.smoke:
        checked, errors = check_all(spool)
        for e in errors:
            sys.stderr.write(f"check failed: {e}\n")
        print(json.dumps({"workload": args.workload, "checked": checked, "correct": not errors}))
        return 0 if not errors else 1

    metrics = {}
    if args.trace:
        import tracing

        times, failed = run_cycles(cycle, spool, args.seconds / 2, counter)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_failed = run_cycles(cycle, spool, args.seconds / 2, counter, tracer)
        finally:
            tracer.uninstall()
        memory = tracing.Tracer(memory=True)  # one more cycle, for the peaks only
        memory.install()
        tracemalloc.start()
        try:
            mem_times, mem_failed = run_cycles(cycle, spool, 0.0, counter, memory)
        finally:
            tracemalloc.stop()
            memory.uninstall()
        layer, glue, inside = tracer.layer_metrics(sum(traced), len(traced))
        metrics.update(layer)
        metrics.update(memory.peaks_mib())
        metrics["bench.glue_s"] = glue
        overhead = statistics.median(traced) / statistics.median(times)
        metrics["trace.overhead_ratio"] = overhead
        print(f"traced op time {sum(traced) / len(traced):.6g} s/op = layer self time {inside:.6g} "
              f"+ benchmark glue {glue:.6g}; tracing overhead x{overhead:.4f} on op_p50_s "
              f"({len(traced)} traced, {len(times)} untraced operations; "
              f"x{statistics.median(mem_times) / statistics.median(times):.4f} with tracemalloc)")
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        memory.dump(os.path.join(RESULTS, f"spans-memory-{args.workload}-seed{args.seed}.jsonl"))
        attempted = len(times) + len(traced) + len(mem_times)
        failed += traced_failed + mem_failed
    else:
        times, failed = run_cycles(cycle, spool, args.seconds, counter)
        attempted = len(times)
        metrics["op_p50_s"] = statistics.median(times)
        metrics["ops_per_s"] = len(times) / sum(times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(tail_line(times))

    checked, errors = check_all(spool)
    for e in errors[:5]:
        sys.stderr.write(f"check failed: {e}\n")
    print(f"checked {checked} operations ({attempted} timed), {len(errors)} check failures, "
          f"{failed} failed operations")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
