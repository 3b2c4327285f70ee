"""Output checks made apart from samurai.

Nothing here imports the package under test: every quantity is recomputed
from the raw tables with plain numpy, in memory linear in the table length
(menu minima and chord suprema are taken in blocks).  No check compares
against a stored copy of earlier output.

Each check raises CheckFailed with the first violated property.  Value
tolerances scale with max(1, span) so the same checks hold on the scaled
environment of the small-batch workload; audit probabilities are
dimensionless and keep absolute tolerances.
"""

from __future__ import annotations

import csv
import json

import numpy as np

TOL = 1e-9          # equalities and inequalities of the model (criteria 1, 2, 5)
FIXED_TOL = 1e-8    # fixed point of tighten, certificate tolerance (criterion 3)
COMPARE_TOL = 1e-9  # the CLI's default tolerance of the two partial orders
LATTICE_EPS = 1e-9  # strictness and IC slack of the lattice dominance orders
BLOCK = 256         # rows per block of a menu minimum

CERTIFIED_EFFICIENT = "certified-efficient"
TIGHT_NECESSARY = "satisfies-tightness-necessary-conditions"
EXPORT_HEADER = ["x", "a", "r_p", "r_empty", "R", "U", "Pi", "lambda_m", "alpha", "beta"]


class CheckFailed(Exception):
    """An output of the program violates a property the benchmark checks."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def _span(env: dict) -> float:
    return max(1.0, env["x_hi"] - env["x_lo"])


def _arrays(m: dict):
    return (np.asarray(m["grid"], float), np.asarray(m["a"], float),
            np.asarray(m["r_p"], float), np.asarray(m["r_empty"], float))


# -- the benchmark's own formulas ---------------------------------------------

def revenue(m: dict) -> np.ndarray:
    grid, a, r_p, r_e = _arrays(m)
    return grid - (a * r_p + (1.0 - a) * r_e)


def cost(env: dict, a) -> np.ndarray:
    return env["k"] * np.asarray(a, float)


def menu_min(m: dict, block: int = BLOCK) -> np.ndarray:
    """Deviation loss: min over types y_i <= x_j of a_i*x_j + (1-a_i)*(y_i - r_empty_i).

    Rows are taken ``block`` at a time, so memory is block x n.
    """
    grid, a, _, r_e = _arrays(m)
    n = len(grid)
    c = (1.0 - a) * (grid - r_e)
    out = np.full(n, np.inf)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        terms = a[i0:i1, None] * grid[None, i0:] + c[i0:i1, None]
        below = np.arange(i0, i1)[:, None] > np.arange(i0, n)[None, :]
        terms[below] = np.inf
        np.minimum(out[i0:], terms.min(axis=0), out=out[i0:])
    return out


def chord_suprema(xs, vs, ys, env: dict, block_cells: int = 1 << 18):
    """Brute-force alpha and beta at ``ys`` over the breakpoints of the loss.

    alpha(y) = sup over breakpoints x > y of (loss(x) - y) / (x - y), plus the
    right slope at y when the loss touches the identity there; beta(y) = sup
    over breakpoints x > y of (loss(x) - loss(y)) / (x + tau).  Both ratios
    are monotone on each segment, so breakpoints are the whole candidate set.
    """
    xs = np.asarray(xs, float)
    vs = np.asarray(vs, float)
    ys = np.asarray(ys, float)
    tau = env["tau"]
    ly = np.interp(ys, xs, vs)
    alpha = np.full(len(ys), -np.inf)
    beta = np.full(len(ys), -np.inf)
    step = max(1, block_cells // len(xs))
    X, V = xs[:, None], vs[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for j0 in range(0, len(ys), step):
            y = ys[None, j0:j0 + step]
            right = X > y
            ra = np.where(right, (V - y) / (X - y), -np.inf)
            rb = np.where(right & (X + tau > 0), (V - ly[None, j0:j0 + step]) / (X + tau), -np.inf)
            alpha[j0:j0 + step] = ra.max(axis=0)
            beta[j0:j0 + step] = rb.max(axis=0)
    slopes = np.diff(vs) / np.diff(xs)
    seg = np.clip(np.searchsorted(xs, ys, side="right") - 1, 0, len(xs) - 2)
    on_identity = np.abs(ly - ys) <= 1e-12 * _span(env)
    alpha = np.where(on_identity, np.maximum(alpha, slopes[seg]), alpha)
    top = ys >= env["x_hi"]
    alpha = np.where(top, 0.0, np.clip(alpha, 0.0, 1.0))
    beta = np.where(top, 0.0, np.clip(beta, 0.0, 1.0))
    return alpha, beta


def partial_order(d_first: np.ndarray, d_second: np.ndarray, tol: float) -> str:
    """Verdict of the candidate against the baseline from two pointwise
    differences oriented so that >= 0 favours the candidate."""
    fwd = bool(np.all(d_first >= -tol) and np.all(d_second >= -tol))
    bwd = bool(np.all(d_first <= tol) and np.all(d_second <= tol))
    if fwd and bwd:
        return "equal"
    if fwd:
        return "more-efficient"
    if bwd:
        return "less-efficient"
    return "incomparable"


# -- mechanisms ---------------------------------------------------------------

def check_feasible(m: dict, env: dict, what: str):
    grid, a, r_p, r_e = _arrays(m)
    span = _span(env)
    tol = 1e-12 * span
    require(grid.ndim == 1 and len(grid) >= 1 and grid.shape == a.shape == r_p.shape == r_e.shape,
            f"{what}: tables are not aligned")
    require(bool(np.all(np.diff(grid) > 0)), f"{what}: grid is not strictly increasing")
    require(abs(grid[0] - env["x_lo"]) <= 1e-9 * span and abs(grid[-1] - env["x_hi"]) <= 1e-9 * span,
            f"{what}: grid [{grid[0]}, {grid[-1]}] does not span the environment")
    require(bool(np.all((a >= -1e-12) & (a <= 1 + 1e-12))), f"{what}: audit probability outside [0, 1]")
    cap = grid + env["tau"] + tol
    for name, r in (("r_p", r_p), ("r_empty", r_e)):
        require(bool(np.all((r >= -tol) & (r <= cap))), f"{what}: {name} outside [0, x + tau]")


def check_constructed(loss, env: dict, m: dict, what: str = "construct"):
    """Efficient mechanism built from ``loss`` = (xs, vs)."""
    xs, vs = (np.asarray(v, float) for v in loss)
    grid, a, _, _ = _arrays(m)
    tol = TOL * _span(env)
    check_feasible(m, env, what)
    rev = revenue(m)
    gap = np.abs(rev - np.interp(grid, xs, vs))
    require(gap.max() <= tol, f"{what}: revenue differs from the loss by {gap.max():.3g}")
    ic = menu_min(m) - rev
    require(ic.min() >= -tol, f"{what}: not incentive compatible, menu below revenue by {-ic.min():.3g}")
    pos = np.clip(np.searchsorted(grid, xs), 0, len(grid) - 1)
    require(bool(np.all(np.abs(grid[pos] - xs) <= 1e-12 * _span(env))),
            f"{what}: a loss breakpoint is missing from the grid")
    alpha, beta = chord_suprema(xs, vs, grid, env)
    agap = np.abs(a - np.maximum(alpha, beta))
    require(agap.max() <= TOL, f"{what}: audits differ from max(alpha, beta) by {agap.max():.3g}")


def check_tightened(env: dict, m_in: dict, out: dict, fixed_point: bool, what: str = "tighten"):
    """One tightening pass: ``out`` holds grid_out-aligned ``mechanism_out``,
    the lifted loss breakpoints ``star`` and the reported ``lambda_m_in``."""
    tol = TOL * _span(env)
    m_out = out["mechanism_out"]
    check_feasible(m_out, env, what)
    grid_in, a_in, _, _ = _arrays(m_in)
    grid_out, a_out, _, _ = _arrays(m_out)
    idx = np.clip(np.searchsorted(grid_out, grid_in), 0, len(grid_out) - 1)
    require(np.array_equal(grid_out[idx], grid_in), f"{what}: output grid lost input types")
    dev_in = menu_min(m_in)
    rev_in = revenue(m_in)
    gap = np.abs(np.asarray(out["lambda_m_in"], float) - dev_in)
    require(gap.max() <= tol, f"{what}: reported input deviation loss off by {gap.max():.3g}")
    star_xs, star_vs = (np.asarray(v, float) for v in out["star"])
    star_out = np.interp(grid_out, star_xs, star_vs)
    star_in = star_out[idx]
    rev_out = revenue(m_out)
    dev_out = menu_min(m_out)
    rise = a_out[idx] - a_in
    require(rise.max() <= TOL, f"{what}: audit rose by {rise.max():.3g}")
    drop = dev_in - star_in
    require(drop.max() <= tol, f"{what}: lifted loss below the input deviation loss by {drop.max():.3g}")
    gap = np.abs(rev_out - star_out)
    require(gap.max() <= tol, f"{what}: output revenue differs from the lifted loss by {gap.max():.3g}")
    over = rev_out - dev_out
    require(over.max() <= tol, f"{what}: output revenue above the output deviation loss by {over.max():.3g}")
    fall = (rev_in - cost(env, a_in)) - (star_in - cost(env, a_out[idx]))
    require(fall.max() <= tol, f"{what}: profit fell by {fall.max():.3g}")
    if fixed_point:
        moved = np.abs(star_in - rev_in).max()
        require(moved <= FIXED_TOL * _span(env), f"{what}: constructed input moved, lifted loss by {moved:.3g}")
        moved = np.abs(a_out[idx] - a_in).max()
        require(moved <= FIXED_TOL, f"{what}: constructed input moved, audits by {moved:.3g}")


def check_report(env: dict, m: dict, rep: dict):
    tol = TOL * _span(env)
    grid, a, _, _ = _arrays(m)
    rev = revenue(m)
    dev = menu_min(m)
    for name, own in (("revenue", rev), ("utility", grid - rev), ("profit", rev - cost(env, a)),
                      ("deviation_loss", dev)):
        gap = np.abs(np.asarray(rep[name], float) - own)
        require(gap.max() <= tol, f"report: {name} off by {gap.max():.3g}")
    require(rep["ic"] == bool(np.all(dev - rev >= -tol)), "report: wrong incentive-compatibility flag")


def check_crossover(loss, env: dict, crossover: float, single_crossing: bool, samples: int = 257):
    require(single_crossing, "crossover: single-crossing check failed")
    require(env["x_lo"] <= crossover <= env["x_hi"], f"crossover {crossover} outside the domain")
    xs, vs = (np.asarray(v, float) for v in loss)
    ys = np.linspace(env["x_lo"], env["x_hi"], samples)
    alpha, beta = chord_suprema(xs, vs, ys, env)
    near = 1e-9 * _span(env)
    below = ys < crossover - near
    above = ys > crossover + near
    require(bool(np.all(alpha[below] >= beta[below] - TOL)), "crossover: alpha < beta below the crossover")
    require(bool(np.all(alpha[above] <= beta[above] + TOL)), "crossover: alpha > beta above the crossover")


# -- CLI pipeline -------------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_compare(env: dict, cand: dict, base: dict, verdicts: dict):
    grid_c, a_c, _, _ = _arrays(cand)
    grid_b, a_b, _, _ = _arrays(base)
    require(np.array_equal(grid_c, grid_b), "compare: the two mechanisms have different grids")
    rev_c, rev_b = revenue(cand), revenue(base)
    eff = partial_order(rev_c - rev_b, a_b - a_c, COMPARE_TOL)
    tight = partial_order((rev_c - cost(env, a_c)) - (rev_b - cost(env, a_b)),
                          menu_min(cand) - menu_min(base), COMPARE_TOL)
    require(verdicts.get("efficiency") == eff, f"compare: efficiency {verdicts.get('efficiency')!r}, expected {eff!r}")
    require(verdicts.get("tightness") == tight, f"compare: tightness {verdicts.get('tightness')!r}, expected {tight!r}")


def check_export(env: dict, m: dict, path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == EXPORT_HEADER, f"export: header {rows[0] if rows else None}")
    table = np.asarray(rows[1:], dtype=float)
    grid, a, r_p, r_e = _arrays(m)
    require(table.shape == (len(grid), len(EXPORT_HEADER)), f"export: table shape {table.shape}")
    col = dict(zip(EXPORT_HEADER, table.T))
    tol = TOL * _span(env)
    for name, own in (("x", grid), ("a", a), ("r_p", r_p), ("r_empty", r_e)):
        gap = np.abs(col[name] - own)
        require(gap.max() <= tol, f"export: column {name} off by {gap.max():.3g}")
    rev = revenue(m)
    for name, own in (("R", rev), ("U", grid - rev), ("Pi", rev - cost(env, a)), ("lambda_m", menu_min(m))):
        gap = np.abs(col[name] - own)
        require(gap.max() <= tol, f"export: column {name} off by {gap.max():.3g}")
    for name in ("alpha", "beta"):
        require(bool(np.all((col[name] >= 0) & (col[name] <= 1))), f"export: {name} outside [0, 1]")
    gap = np.abs(np.maximum(col["alpha"], col["beta"]) - a)
    require(gap.max() <= FIXED_TOL, f"export: max(alpha, beta) differs from a by {gap.max():.3g}")


def check_pipeline(rec: dict):
    """One fine-grid operation: construct, tighten, check, compare, export."""
    env, d = rec["env"], rec["dir"]
    require(rec["rc"] == {"construct": 0, "tighten": 0, "check": 0, "compare": 0, "export": 0},
            f"pipeline: exit codes {rec['rc']}")
    m = _load_json(f"{d}/construct.json")
    check_constructed(rec["loss"], env, m)
    t = _load_json(f"{d}/tighten.json")
    out = {"mechanism_out": t["mechanism_out"], "lambda_m_in": t["lambda_m_in"],
           "star": np.asarray(t["lambda_star"]["breakpoints"], float).T}
    require(np.array_equal(np.asarray(t["grid"], float), np.asarray(m["grid"], float)),
            "tighten: reported input grid differs from the input")
    check_tightened(env, m, out, fixed_point=True)
    c = _load_json(f"{d}/check.json")
    require(c["efficient"]["verdict"] == CERTIFIED_EFFICIENT, f"check: {c['efficient']['verdict']}")
    require(c["tightness_necessary"]["verdict"] == TIGHT_NECESSARY, f"check: {c['tightness_necessary']['verdict']}")
    check_compare(env, m, _load_json(rec["waste"]), _load_json(f"{d}/compare.json"))
    check_export(env, m, f"{d}/export.csv")


# -- lattice oracle -----------------------------------------------------------

def refund_levels(y: float, tau: float, levels: int) -> np.ndarray:
    cap = y + tau
    return np.array([0.0]) if cap <= 0 else np.unique(np.linspace(0.0, cap, levels))


def lattice_size(types, q: int, levels: int, tau: float) -> int:
    return int(np.prod([(q + 1) * len(refund_levels(y, tau, levels)) ** 2 for y in types]))


def _on_lattice(m: dict, types, q: int, levels: int, tau: float, what: str):
    _, a, r_p, r_e = _arrays(m)
    require(bool(np.all(np.abs(a * q - np.round(a * q)) <= 1e-12)) and bool(np.all((a >= 0) & (a <= 1))),
            f"{what}: audit off the lattice")
    for t, y in enumerate(types):
        lat = refund_levels(y, tau, levels)
        for name, r in (("r_p", r_p[t]), ("r_empty", r_e[t])):
            require(np.min(np.abs(lat - r)) <= 1e-12, f"{what}: {name}={r} off the lattice at type {y}")


def _round_to_lattice(m: dict, types, q: int, levels: int, tau: float) -> dict:
    _, a, r_p, r_e = _arrays(m)
    out = {"grid": list(types), "a": np.round(a * q) / q, "r_p": [], "r_empty": []}
    for t, y in enumerate(types):
        lat = refund_levels(y, tau, levels)
        out["r_p"].append(lat[np.argmin(np.abs(lat - r_p[t]))])
        out["r_empty"].append(lat[np.argmin(np.abs(lat - r_e[t]))])
    return out


def check_verdict(rec: dict):
    env, inst, v = rec["env"], rec["instance"], rec["verdict"]
    types, q, levels, tau = inst["types"], inst["q"], inst["levels"], env["tau"]
    what = f"oracle {rec['mode']} on {tuple(types)}, q={q}"
    size = lattice_size(types, q, levels, tau)
    require(v["rounding_error"] <= TOL, f"{what}: rounding error {v['rounding_error']:.3g}")
    if rec["expect_undominated"]:
        require(v["undominated"] and v["witness"] is None, f"{what}: dominated, expected undominated")
        require(v["candidates_checked"] == size,
                f"{what}: {v['candidates_checked']} candidates checked, lattice has {size}")
        return
    require(not v["undominated"] and v["witness"] is not None, f"{what}: undominated, expected a witness")
    require(0 < v["candidates_checked"] <= size, f"{what}: {v['candidates_checked']} candidates checked of {size}")
    w = v["witness"]
    require(np.array_equal(np.asarray(w["grid"], float), np.asarray(types, float)), f"{what}: witness grid")
    _on_lattice(w, types, q, levels, tau, what + " witness")
    check_feasible(w, env, what + " witness")
    r_w = revenue(w)
    ic = menu_min(w) - r_w
    require(ic.min() >= -LATTICE_EPS, f"{what}: witness not incentive compatible by {-ic.min():.3g}")
    target = _round_to_lattice(rec["m"], types, q, levels, tau)
    r_t = revenue(target)
    a_w, a_t = np.asarray(w["a"], float), np.asarray(target["a"], float)
    if rec["mode"] == "efficiency":
        first, second = r_w - r_t, a_t - a_w
    else:
        first = (r_w - cost(env, a_w)) - (r_t - cost(env, a_t))
        second = menu_min(w) - menu_min(target)
    require(bool(np.all(first >= -LATTICE_EPS) and np.all(second >= -LATTICE_EPS)),
            f"{what}: witness does not weakly dominate the target")
    require(max(first.max(), second.max()) > LATTICE_EPS, f"{what}: witness does not strictly dominate")


# -- small-batch library tasks ------------------------------------------------

def check_efficient_task(rec: dict):
    env, m = rec["env"], rec["m"]
    check_constructed(rec["loss"], env, m)
    check_report(env, m, rec["report"])
    require(rec["verdict"] == CERTIFIED_EFFICIENT, f"certify_efficient: {rec['verdict']}")
    check_crossover(rec["loss"], env, rec["crossover"], rec["single_crossing"])


def check_tighten_task(rec: dict):
    check_tightened(rec["env"], rec["m"], rec["tight"], fixed_point=False)
    require(rec["verdict"] == TIGHT_NECESSARY, f"certify_tight_necessary: {rec['verdict']}")


def check_scaled_task(rec: dict):
    env, m = rec["env"], rec["m"]
    check_constructed(rec["loss"], env, m)
    if rec["failed"]:
        require(rec["error"].startswith("tightening guarantee violated"), f"scaled: {rec['error']}")
        return
    check_tightened(env, m, rec["tight"], fixed_point=True)


CHECKS = {
    "pipeline": check_pipeline,
    "oracle": check_verdict,
    "efficient": check_efficient_task,
    "tighten": check_tighten_task,
    "scaled": check_scaled_task,
}


def check_record(rec: dict):
    CHECKS[rec["kind"]](rec)
