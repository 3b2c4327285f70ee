"""Benchmark entry point: one workload, one seed, one run.

  python3 perfbench/run.py --workload fine-grid --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload runs in its own process
(perfbench/worker.py) as a closed loop with one client: one operation at a
time, on one thread, with SAMURAI_THREADS unset and BLAS pinned to one
thread.  samurai is imported from ./src.

setup_s is the median over several fresh starts of the time from spawning
an interpreter to the worker's READY line (import samurai, numpy included,
plus input generation).  With --trace 1 the run reports the per-layer
metrics of BENCHMARK.json instead of the end-to-end ones.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FRESH_STARTS = 7          # setup_s samples per run: 6 set-up-only starts and the measured worker
DEADLINE_S = 170.0        # the whole run, after which every worker still running is killed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SAMURAI_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


class WorkerError(Exception):
    pass


def start_worker(args, extra: list, deadline: float):
    """Spawn the worker; returns (process, seconds from spawn to READY,
    watchdog that kills it at the deadline)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    with stopped_on_error(proc, watchdog):
        for line in proc.stdout:
            if line.strip() == "READY":
                return proc, time.perf_counter() - t0, watchdog
            sys.stdout.write(line)
    finish(proc, watchdog)
    raise WorkerError(f"worker exited with code {proc.returncode} before it was ready")


def finish(proc, watchdog):
    """Wait for the worker (the watchdog bounds the wait) and stop the watchdog."""
    proc.wait()
    watchdog.cancel()


@contextlib.contextmanager
def stopped_on_error(proc, watchdog):
    try:
        yield
    except BaseException:
        proc.terminate()  # the worker removes its scratch directory on SIGTERM
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
        finish(proc, watchdog)
        raise


def measure(args, deadline: float):
    """Set-up-only fresh starts (untraced runs), then the measured worker;
    returns the set-up times and the measured worker's output lines."""
    setups = []
    for _ in range(0 if args.trace else FRESH_STARTS - 1):
        proc, ready, watchdog = start_worker(args, ["--setup-only"], deadline)
        with stopped_on_error(proc, watchdog):
            proc.stdout.read()
        finish(proc, watchdog)
        if proc.returncode != 0:
            raise WorkerError(f"set-up-only worker exited with code {proc.returncode}")
        setups.append(ready)
    proc, ready, watchdog = start_worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                                         deadline)
    setups.append(ready)
    with stopped_on_error(proc, watchdog):
        lines = proc.stdout.readlines()
    finish(proc, watchdog)
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setups, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "samurai", "__init__.py")):
        sys.stderr.write(f"no samurai sources under {os.path.join(ROOT, 'src')}; run from a checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    # a terminated run stops its worker too (SystemExit reaches stopped_on_error)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups, lines = measure(args, deadline)
    except WorkerError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    sys.stdout.writelines(lines[:-1])
    result = json.loads(lines[-1])
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.stderr.write(f"worker did not measure {missing}\n")
        return 1
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
