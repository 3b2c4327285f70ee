"""Checker self-tests: every check must reject a deliberately corrupted output.

  python3 perfbench/selftest.py           # corruptions only, about 1 s
  python3 perfbench/selftest.py --smoke   # then one checked cycle of each workload

Run from the repository root.  Real outputs come from small instances of
each workload's operations; each is first checked as it is (it must pass),
then corrupted in one way (it must fail).  Exit code 0 means every
corrupted output was rejected and every genuine one accepted.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

DELTA = 1e-6


def expect(name: str, rec: dict, ok: bool, results: list):
    try:
        checks.check_record(rec)
        passed, why = True, ""
    except checks.CheckFailed as exc:
        passed, why = False, str(exc)
    good = passed == ok
    results.append(good)
    verdict = "accepted" if passed else f"rejected ({why})"
    print(f"{'PASS' if good else 'FAIL'}  {name}: {verdict}")


def _raise_revenue(m: dict, i: int, delta: float = DELTA) -> dict:
    """Lower the refunds of type i so its revenue rises by ``delta``."""
    m = {k: np.array(v, float) for k, v in m.items()}
    a, r_p, r_e = m["a"][i], m["r_p"][i], m["r_empty"][i]
    if (1 - a) * r_e >= delta:
        m["r_empty"][i] -= delta / (1 - a)
    else:
        m["r_p"][i] -= delta / a
    return m


def _type_with_refund(m: dict, delta: float = DELTA) -> int:
    a, r_p, r_e = (np.asarray(m[k], float) for k in ("a", "r_p", "r_empty"))
    ok = np.nonzero(((1 - a) * r_e >= delta) | (a * r_p >= delta))[0]
    return int(ok[len(ok) // 2])


def _interior_audit(m: dict) -> int:
    a = np.asarray(m["a"], float)
    ok = np.nonzero(a < 1 - 2 * DELTA)[0]
    return int(ok[len(ok) // 2])


def _copy_dir(rec: dict) -> dict:
    new = dict(rec, dir=tempfile.mkdtemp(dir=os.path.dirname(rec["dir"])))
    shutil.copytree(rec["dir"], new["dir"], dirs_exist_ok=True)
    return new


def _edit_json(rec: dict, name: str, edit) -> dict:
    new = _copy_dir(rec)
    path = os.path.join(new["dir"], name)
    with open(path) as fh:
        data = json.load(fh)
    data = edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh, default=lambda x: x.tolist())
    return new


def pipeline_cases(workdir: str, results: list):
    workloads.FINE_GRID_N = 101
    op = workloads.fine_grid(7, workdir)[0]
    rec = op.record(op.run(0, True))
    expect("pipeline as produced", rec, True, results)

    def construct_revenue(m):
        return _raise_revenue(m, _type_with_refund(m))

    expect("construct: revenue raised by 1e-6 at one type", _edit_json(rec, "construct.json", construct_revenue),
           False, results)

    def construct_audit(m):
        m["a"][_interior_audit(m)] += DELTA
        return m

    expect("construct: one audit raised by 1e-6", _edit_json(rec, "construct.json", construct_audit), False, results)

    def construct_audit_same_revenue(m):
        i = _interior_audit(m)
        a, r_p, r_e = m["a"][i], m["r_p"][i], m["r_empty"][i]
        m["a"][i] = a + DELTA  # and r_empty moved so that revenue stays put
        m["r_empty"][i] = (a * r_p + (1 - a) * r_e - (a + DELTA) * r_p) / (1 - a - DELTA)
        return m

    expect("construct: one audit raised by 1e-6, revenue kept",
           _edit_json(rec, "construct.json", construct_audit_same_revenue), False, results)

    def tighten_audit(t):
        t["mechanism_out"]["a"][_interior_audit(t["mechanism_out"])] += DELTA
        return t

    expect("tighten: one output audit raised by 1e-6", _edit_json(rec, "tighten.json", tighten_audit), False, results)

    def tighten_revenue(t):
        t["mechanism_out"] = _raise_revenue(t["mechanism_out"], _type_with_refund(t["mechanism_out"]))
        return t

    expect("tighten: output revenue raised by 1e-6 at one type", _edit_json(rec, "tighten.json", tighten_revenue),
           False, results)

    def check_refuted(c):
        c["efficient"]["verdict"] = "refuted"
        return c

    expect("check: verdict changed to refuted", _edit_json(rec, "check.json", check_refuted), False, results)

    def swap(c):
        c["efficiency"], c["tightness"] = c["tightness"], c["efficiency"]
        return c

    expect("compare: verdicts swapped", _edit_json(rec, "compare.json", swap), False, results)

    new = _copy_dir(rec)
    path = os.path.join(new["dir"], "export.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("R")
    rows[len(rows) // 2][col] = repr(float(rows[len(rows) // 2][col]) + DELTA)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    expect("export: R raised by 1e-6 in one row", new, False, results)


def small_batch_cases(results: list):
    by_kind = {}
    for op in workloads.small_batch(7, ""):
        by_kind.setdefault(op.kind, op)
    rec = by_kind["efficient"].record(by_kind["efficient"].run(0, True))
    expect("efficient task as produced", rec, True, results)
    bad = copy.deepcopy(rec)
    bad["report"]["revenue"][len(bad["report"]["revenue"]) // 2] += DELTA
    expect("report: revenue raised by 1e-6 at one type", bad, False, results)
    bad = copy.deepcopy(rec)
    bad["crossover"] = rec["env"]["x_hi"] if rec["crossover"] < 0.5 else rec["env"]["x_lo"]
    expect("crossover moved to the far end of the domain", bad, False, results)

    rec = by_kind["tighten"].record(by_kind["tighten"].run(0, True))
    expect("tighten task as produced", rec, True, results)
    bad = copy.deepcopy(rec)
    m_out = bad["tight"]["mechanism_out"]
    idx = np.searchsorted(m_out["grid"], rec["m"]["grid"])
    i = int(idx[np.nonzero(m_out["a"][idx] < 1 - 2 * DELTA)[0][0]])
    m_out["a"] = m_out["a"].copy()
    m_out["a"][i] += DELTA
    expect("tighten task: one output audit raised by 1e-6", bad, False, results)


def oracle_cases(results: list):
    found = {}
    for op in workloads.lattice_oracle(7, ""):
        rec = op.record(op.run(0, True))
        found.setdefault(rec["expect_undominated"], rec)
        if len(found) == 2:
            break
    undominated, dominated = found[True], found[False]
    expect("undominated verdict as produced", undominated, True, results)
    expect("dominated verdict as produced", dominated, True, results)
    bad = copy.deepcopy(undominated)
    bad["verdict"]["candidates_checked"] -= 1
    expect("undominated: candidates_checked one short of the lattice", bad, False, results)
    bad = copy.deepcopy(dominated)
    bad["verdict"]["witness"] = _ic_violation(dominated)
    expect("dominated: witness with one IC violation", bad, False, results)
    bad = copy.deepcopy(dominated)
    bad["verdict"]["witness"] = copy.deepcopy(bad["m"])
    expect("dominated: the target itself as witness", bad, False, results)


def _ic_violation(rec: dict) -> dict:
    """The witness with one type moved to another lattice option so that
    incentive compatibility fails at exactly one type."""
    types, q, levels = (rec["instance"][k] for k in ("types", "q", "levels"))
    tau = rec["env"]["tau"]
    w = {k: np.array(v, float) for k, v in rec["verdict"]["witness"].items()}
    for t in range(len(types) - 1, 0, -1):
        for a in np.linspace(0, 1, q + 1):
            for r in checks.refund_levels(types[t], tau, levels):
                cand = {k: v.copy() for k, v in w.items()}
                cand["a"][t], cand["r_p"][t], cand["r_empty"][t] = a, r, r
                gap = checks.menu_min(cand) - checks.revenue(cand)
                if np.sum(gap < -checks.LATTICE_EPS) == 1:
                    return cand
    raise RuntimeError("no single-type IC violation found")


def smoke() -> bool:
    sys.path.insert(0, HERE)
    import run

    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", "1",
                               "--smoke"], cwd=ROOT, env=run.child_env(), capture_output=True, text=True)
        print(f"{'PASS' if proc.returncode == 0 else 'FAIL'}  smoke {name}: {proc.stdout.strip().splitlines()[-1:]}")
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        ok &= proc.returncode == 0
    return ok


def main() -> int:
    results: list = []
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "_work"))
    try:
        pipeline_cases(workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    small_batch_cases(results)
    oracle_cases(results)
    ok = all(results)
    if "--smoke" in sys.argv[1:]:
        ok &= smoke()
    print(f"{sum(results)}/{len(results)} checker self-tests passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
