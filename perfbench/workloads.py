"""The three workloads: their inputs, made from the seed, and their operations.

A workload is a cycle of operations, returned by its factory in WORKLOADS.  Every run repeats whole cycles, so
each run has the same mix of operations.  An operation's ``run`` is the
timed call into samurai; its ``record`` turns what came back into plain
arrays for the checker (untimed).  The program sees only the generated
inputs, never the seed.

Calls go through module attributes (``S.tighten``, ``cli.main``) at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import samurai as S
import samurai.cli as cli

COST_K = 0.1
GUARANTEE_FAULT = "tightening guarantee violated"

# fine-grid: the CLI pipeline on a few-thousand-point grid
FINE_GRID_N = 2001
CURVED_BREAKPOINTS = 300

# small-batch: library tasks at property-test sizes
SMALL_TASKS = 12            # inputs per task in one cycle
SMALL_GRID = 201
SCALED_GRID = 401
SCALED_ENV = {"x_lo": 0.0, "x_hi": 1e6, "tau": 5e5, "k": COST_K}
SCALED_INPUT_SEED = 5       # the scaled losses do not depend on --seed

# lattice-oracle: the acceptance-suite instances with 10^4 to 1.3x10^6
# candidates; the 2x10^7-candidate instance is left out (13-24 s a verdict)
LATTICE_INSTANCES = [
    # (types, q, refund levels, tau, loss: ("debt", threshold) or ("identity",))
    ((0.0, 0.5, 1.0), 2, 5, 0.0, ("debt", 0.5)),
    ((0.0, 0.5, 1.0), 5, 5, 0.0, ("debt", 0.5)),
    ((0.0, 0.25, 0.5, 1.0), 2, 5, 0.0, ("debt", 0.5)),
    ((0.0, 0.5, 1.0), 2, 4, 0.5, ("debt", 0.5)),
    ((0.0, 0.5, 1.0), 2, 5, 0.0, ("debt", 0.0)),
    ((0.0, 0.25, 0.5, 1.0), 1, 5, 0.0, ("identity",)),
    ((0.0, 0.25, 1.0), 2, 5, 0.0, ("debt", 0.25)),
]


@dataclass
class Op:
    kind: str
    run: Callable[[int, bool], Any]     # (operation number, warm-up?) -> raw outputs
    record: Callable[[Any], dict]       # raw outputs -> plain record for checks.py


def _env(d: dict) -> S.Environment:
    return S.Environment(x_lo=d["x_lo"], x_hi=d["x_hi"], tau=d["tau"], cost=S.CostFn("linear", d["k"]))


def _env_dict(tau: float) -> dict:
    return {"x_lo": 0.0, "x_hi": 1.0, "tau": tau, "k": COST_K}


def _mech(m) -> dict:
    return {"grid": m.grid, "a": m.a, "r_p": m.r_p, "r_empty": m.r_empty}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


# -- input generators (the benchmark's own) -----------------------------------

def random_loss(rng: np.random.Generator, x_lo: float, x_hi: float, max_kinks: int = 10):
    """Admissible loss breakpoints: up to ``max_kinks`` interior kinks,
    nonincreasing slopes in (0, 1], anchored at x_lo, first slope 1 with
    probability 0.3 so the loss may start on the identity."""
    span = x_hi - x_lo
    k = int(rng.integers(0, max_kinks + 1))
    kinks = np.sort(rng.uniform(x_lo + 0.02 * span, x_hi - 0.02 * span, size=k))
    if k:
        kinks = kinks[np.concatenate([[True], np.diff(kinks) > 1e-3 * span])]
    xs = np.concatenate([[x_lo], kinks, [x_hi]])
    slopes = np.sort(rng.uniform(0.05, 1.0, size=len(xs) - 1))[::-1]
    first = 1.0 if rng.uniform() < 0.3 else rng.uniform(0.2, 1.0)
    slopes = slopes * (first / slopes[0])
    vs = x_lo + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return xs, vs


def curved_loss(rng: np.random.Generator, n: int = CURVED_BREAKPOINTS):
    """y - y^2/2 on [0, 1], sampled at ``n`` jittered points: concave and
    increasing, with a kink at every breakpoint."""
    xs = (np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, n)) / (n - 1)
    xs[0], xs[-1] = 0.0, 1.0
    return xs, xs - xs**2 / 2


def random_ic_mechanism(rng: np.random.Generator, env: dict, n: int = SMALL_GRID) -> dict:
    """Random feasible IC mechanism: random tables, then revenue lowered type
    by type (audit refund first) until no lower type's menu line undercuts it."""
    grid = np.linspace(env["x_lo"], env["x_hi"], n)
    style = rng.integers(0, 3)
    if style == 0:
        a = rng.uniform(0, 1, n)
    elif style == 1:
        a = np.sort(rng.uniform(0, 1, n))[::-1]
    else:
        a = np.repeat(rng.uniform(0, 1, 8), int(np.ceil(n / 8)))[:n]
    u = rng.uniform(size=n)
    a = np.where(u < 0.1, 0.0, np.where(u > 0.9, 1.0, a))
    cap = grid + env["tau"]
    r_p = rng.uniform(0, cap)
    r_e = rng.uniform(0, cap)
    c = (1.0 - a) * (grid - r_e)
    for j in range(1, n):
        need = grid[j] - (a[j] * r_p[j] + (1 - a[j]) * r_e[j]) - np.min(a[:j] * grid[j] + c[:j])
        if need > 0:
            if a[j] > 0:
                dr = min(need / a[j], cap[j] - r_p[j])
                r_p[j] += dr
                need -= a[j] * dr
            if need > 1e-18 and a[j] < 1:
                r_e[j] = min(r_e[j] + need / (1 - a[j]), cap[j])
                c[j] = (1 - a[j]) * (grid[j] - r_e[j])
    return {"grid": grid, "a": a, "r_p": r_p, "r_empty": r_e}


# -- fine-grid ------------------------------------------------------------------

def fine_grid(seed: int, workdir: str) -> list:
    """The CLI pipeline on one loss file per operation.  A cycle has five
    random losses (three at tau 0, two at tau 0.5) and the curved loss at
    both taus.  The random operations cost within about 10% of each other
    and the curved ones about twice as much, so the median falls
    among 5 of every 7 operations and rests on many samples."""
    rng = np.random.default_rng([seed, 1])
    curved = curved_loss(rng)
    plan = [("random", 0.0), ("random", 0.5), ("curved", 0.0), ("random", 0.0), ("random", 0.5),
            ("random", 0.0), ("curved", 0.5)]
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    for tau in (0.0, 0.5):
        _write_json(os.path.join(inputs, f"env_{tau}.json"),
                    {"x_lo": 0.0, "x_hi": 1.0, "tau": tau, "cost": {"kind": "linear", "k": COST_K, "p": 1.0}})
    cycle = []
    for i, (shape, tau) in enumerate(plan):
        loss = random_loss(rng, 0.0, 1.0) if shape == "random" else curved
        loss_path = os.path.join(inputs, f"loss_{i}.json")
        _write_json(loss_path, {"breakpoints": [[float(x), float(v)] for x, v in zip(*loss)]})
        cycle.append(_pipeline_op(workdir, i, loss, _env_dict(tau=tau), os.path.join(inputs, f"env_{tau}.json"),
                                  loss_path))
    return cycle


def _write_wasteful(construct_path: str, loss, path: str):
    """Same grid, every type audited, no no-audit refund, r_p = x - loss(x):
    the same revenue with weakly higher audits."""
    with open(construct_path) as fh:
        grid = np.asarray(json.load(fh)["grid"], float)
    r_p = grid - np.interp(grid, *loss)
    _write_json(path, {"grid": grid.tolist(), "a": [1.0] * len(grid), "r_p": r_p.tolist(),
                       "r_empty": [0.0] * len(grid)})


def _pipeline_op(workdir, i, loss, env, env_path, loss_path) -> Op:
    waste = os.path.join(workdir, "inputs", f"wasteful_{i}.json")

    def run(k: int, warm: bool):
        d = os.path.join(workdir, "ops", str(k))
        os.makedirs(d)
        m = os.path.join(d, "construct.json")
        rc = {"construct": cli.main(["construct", "--env", env_path, "--lambda", loss_path,
                                     "--grid", str(FINE_GRID_N), "--out", m])}
        if warm:  # the compare baseline needs the constructed grid; made once, untimed
            _write_wasteful(m, loss, waste)
        rc["tighten"] = cli.main(["tighten", "--env", env_path, "--mechanism", m,
                                  "--out", os.path.join(d, "tighten.json")])
        rc["check"] = cli.main(["check", "--env", env_path, "--mechanism", m,
                                "--out", os.path.join(d, "check.json")])
        rc["compare"] = cli.main(["compare", "--env", env_path, "--mechanism", m, "--mechanism", waste,
                                  "--out", os.path.join(d, "compare.json")])
        rc["export"] = cli.main(["export", "--env", env_path, "--mechanism", m,
                                 "--out", os.path.join(d, "export.csv")])
        return d, rc

    def record(raw):
        d, rc = raw
        return {"kind": "pipeline", "env": env, "loss": loss, "dir": d, "rc": rc, "waste": waste}

    return Op("pipeline", run, record)


# -- small-batch ----------------------------------------------------------------

def small_batch(seed: int, workdir: str) -> list:
    """Three library tasks, interleaved: an efficient build with its
    certificate and crossover, a tighten of a random IC mechanism, and a
    build-then-tighten on the scaled environment."""
    rng = np.random.default_rng([seed, 2])
    fixed = np.random.default_rng([SCALED_INPUT_SEED, 3])
    taus = (0.0, 0.5, 1.0)
    cycle = []
    for i in range(SMALL_TASKS):
        env = _env_dict(tau=taus[i % 3])
        cycle.append(_efficient_op(env, random_loss(rng, 0.0, 1.0)))
        cycle.append(_tighten_op(env, random_ic_mechanism(rng, env)))
        cycle.append(_scaled_op(random_loss(fixed, SCALED_ENV["x_lo"], SCALED_ENV["x_hi"])))
    return cycle


def _efficient_op(env: dict, loss) -> Op:
    e = _env(env)

    def run(k, warm):
        lam = S.validate_lambda(S.PwlFunction(*loss), e)
        m = S.build_efficient(lam, e, SMALL_GRID)
        rep = S.report(m, e)
        cert = S.certify_efficient(m, e, rep=rep)
        schedule = S.AuditSchedule.from_loss(lam, e)
        return m, rep, cert, schedule.crossover(), schedule.check_single_crossing(SMALL_GRID)

    def record(raw):
        m, rep, cert, crossover, sc = raw
        report = {"revenue": rep.revenue, "utility": rep.utility, "profit": rep.profit,
                  "deviation_loss": rep.deviation_loss, "ic": rep.ic}
        return {"kind": "efficient", "env": env, "loss": loss, "m": _mech(m), "report": report,
                "verdict": cert.verdict, "crossover": crossover, "single_crossing": sc.passed}

    return Op("efficient", run, record)


def _tight_record(t) -> dict:
    return {"mechanism_out": _mech(t.mechanism_out), "lambda_m_in": t.lambda_m_in,
            "star": (t.lambda_star.xs, t.lambda_star.vs)}


def _tighten_op(env: dict, mech: dict) -> Op:
    e = _env(env)
    m = S.Mechanism(**mech)

    def run(k, warm):
        t = S.tighten(m, e)
        return t, S.certify_tight_necessary(t.mechanism_out, e)

    def record(raw):
        t, cert = raw
        return {"kind": "tighten", "env": env, "m": mech, "tight": _tight_record(t), "verdict": cert.verdict}

    return Op("tighten", run, record)


def _scaled_op(loss) -> Op:
    e = _env(SCALED_ENV)

    def run(k, warm):
        lam = S.validate_lambda(S.PwlFunction(*loss), e)
        m = S.build_efficient(lam, e, SCALED_GRID)
        try:
            return m, S.tighten(m, e), None
        except RuntimeError as exc:  # the absolute GUARANTEE_TOL at span 1e6
            if not str(exc).startswith(GUARANTEE_FAULT):
                raise
            return m, None, str(exc)

    def record(raw):
        m, t, error = raw
        return {"kind": "scaled", "env": SCALED_ENV, "loss": loss, "m": _mech(m), "failed": error is not None,
                "error": error, "tight": None if t is None else _tight_record(t)}

    return Op("scaled", run, record)


# -- lattice-oracle ---------------------------------------------------------------

def _lattice_loss(spec, env: S.Environment):
    if spec[0] == "identity":
        pts = [[0.0, 0.0], [1.0, 1.0]]
    elif spec[1] <= 0.0:
        pts = [[0.0, 0.0], [1.0, 0.0]]
    else:
        pts = [[0.0, 0.0], [spec[1], spec[1]], [1.0, spec[1]]]
    return S.validate_lambda(S.PwlFunction.from_pairs(pts), env)


def _wasteful_lattice(m: dict, rng: np.random.Generator) -> dict:
    """Audit a seeded nonempty subset of the never-audited types, moving the
    no-audit refund to the audit refund: revenue unchanged, audits higher,
    every menu line weakly higher, so the result stays IC and is dominated."""
    idle = np.nonzero(np.asarray(m["a"]) <= 1e-12)[0]
    pick = idle[rng.permutation(len(idle))[: int(rng.integers(1, len(idle) + 1))]]
    out = {k: np.array(v, float) for k, v in m.items()}
    out["a"][pick] = 1.0
    out["r_p"][pick] = out["r_empty"][pick]
    out["r_empty"][pick] = 0.0
    return out


def lattice_oracle(seed: int, workdir: str) -> list:
    """Per instance: the constructed mechanism (efficiency mode), its
    tightened output (tightness mode), and a wasteful variant, in efficiency
    mode on every other instance and tightness mode on the rest.  Three
    verdicts per instance keep the cycle odd (21), so its median is one
    verdict's own.  The seed picks the wasteful variants and the order of
    the verdicts."""
    rng = np.random.default_rng([seed, 4])
    cycle = []
    for i, (types, q, levels, tau, spec) in enumerate(LATTICE_INSTANCES):
        env = _env_dict(tau=tau)
        e = _env(env)
        inst = S.DiscreteInstance(types=types, q=q, refund_levels=levels, env=e)
        grid = np.asarray(types)
        lam = _lattice_loss(spec, e)
        a = S.AuditSchedule.from_loss(lam, e).audit_prob_table(grid)
        pair = S.refunds_from(grid, lam.eval(grid), a, e)
        built = S.Mechanism(grid=grid, a=a, r_p=pair.r_p, r_empty=pair.r_empty)
        tight = S.tighten(built, e).mechanism_out
        meta = {"types": list(types), "q": q, "levels": levels}
        cycle += [
            _verdict_op(env, inst, meta, _mech(built), "efficiency", True),
            _verdict_op(env, inst, meta, _mech(tight), "tightness", True),
            _verdict_op(env, inst, meta, _wasteful_lattice(_mech(built), rng),
                        "efficiency" if i % 2 == 0 else "tightness", False),
        ]
    return [cycle[i] for i in rng.permutation(len(cycle))]


def _verdict_op(env: dict, inst, meta: dict, mech: dict, mode: str, expect_undominated: bool) -> Op:
    m = S.Mechanism(**mech)

    def run(k, warm):
        return S.is_undominated(m, inst, mode)

    def record(v):
        verdict = {"undominated": v.undominated, "rounding_error": v.rounding_error,
                   "candidates_checked": v.candidates_checked,
                   "witness": None if v.witness is None else _mech(v.witness)}
        return {"kind": "oracle", "env": env, "instance": meta, "mode": mode, "m": mech,
                "expect_undominated": expect_undominated, "verdict": verdict}

    return Op("oracle", run, record)


WORKLOADS = {"fine-grid": fine_grid, "small-batch": small_batch, "lattice-oracle": lattice_oracle}
