"""Size sweep of the construct and tighten stages: time and peak memory of
construct, deviation_loss_table (the menu minimum), virtual_loss (the
envelope), tighten and the crossover from 10^3 to 6.4x10^4 grid points.

    python3 tools/menu_sweep.py --src before=/path/to/old/src --src after=src --out BENCH.json

Each --src names a samurai source tree (the directory holding the samurai
package) under a label.  Every (tree, loss, grid) point runs in its own
child process whose address space is capped with RLIMIT_AS, so an n^2
allocation is recorded as a MemoryError at that size instead of exhausting
the machine.  The trees run back to back at each (loss, grid) point, and
the tree that goes first alternates from point to point, so load that
drifts over the sweep reaches every tree alike.  A stage's time is the best
and the median of seven calls; its peak is the tracemalloc peak of one more
call.

Inputs: environment [0, 1], tau 0.5, linear audit cost k 0.1.  The random
loss is random_loss_function with seed 1; the curved loss is y - y^2/2 on
1000 even breakpoints.  construct is build_efficient at the grid size;
deviation_loss_table and tighten take its output, virtual_loss lifts
its deviation loss as tighten does, and crossover builds the audit schedule
of that deviation loss table (AuditSchedule.from_table) and finds its
crossover.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

SIZES = (1_001, 4_001, 16_001, 64_001)
LOSSES = ("random", "curved")
REPEATS = 7
ADDRESS_SPACE = 4 * 2**30  # bytes per child


def _child(src: str, loss: str, grid: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    import samurai as S

    env = S.Environment(0.0, 1.0, 0.5, S.CostFn("linear", 0.1))
    if loss == "random":
        lam = S.random_loss_function(env, np.random.default_rng(1))
    else:
        xs = np.linspace(0.0, 1.0, 1000)
        lam = S.validate_lambda(S.PwlFunction(xs, xs - xs**2 / 2), env)
    m = S.build_efficient(lam, env, grid)
    lam_m = S.deviation_loss_table(m)
    stages = {
        "construct": lambda: S.build_efficient(lam, env, grid),
        "deviation_loss_table": lambda: S.deviation_loss_table(m),
        "virtual_loss": lambda: S.virtual_loss(m.grid, lam_m, m.a, env),
        "tighten": lambda: S.tighten(m, env),
        "crossover": lambda: S.AuditSchedule.from_table(m.grid, lam_m, env).crossover(),
    }
    point = {"points": len(m)}
    for name, run in stages.items():
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        point[name] = {
            "best_s": round(min(times), 4),
            "median_s": round(statistics.median(times), 4),
            "peak_mib": round(peak / 2**20, 2),
        }
    return point


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run_point(src: str, loss: str, grid: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, loss, str(grid)],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space,
    )
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {last}"}
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", metavar="LABEL=DIR")
    parser.add_argument("--out")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        src, loss, grid = args.child
        print(json.dumps(_child(src, loss, int(grid))))
        return 0
    if not args.src or not args.out:
        parser.error("--src and --out are required")
    result = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "address_space_cap_bytes": ADDRESS_SPACE,
        "repeats": REPEATS,
        "sweeps": {},
    }
    trees = [spec.split("=", 1) for spec in args.src]
    for label, _ in trees:
        result["sweeps"][label] = {}
    points = [(loss, grid) for loss in LOSSES for grid in SIZES]
    for k, (loss, grid) in enumerate(points):
        for label, src in trees if k % 2 == 0 else trees[::-1]:
            point = _run_point(os.path.abspath(src), loss, grid)
            result["sweeps"][label][f"{loss}/{grid}"] = point
            print(label, loss, grid, json.dumps(point), file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
