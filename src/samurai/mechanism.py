"""Tabulated tax mechanisms and their derived quantities.

A mechanism is a table over a type grid: audit probability and the two
refunds per grid point.  Deviations are restricted to grid points, so the
loss from under-reporting is an exact minimum over the tabulated menu.
Interpolation between grid points is deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .environment import Environment, cost_eval
from .errors import DomainError, PreconditionError
from .tolerances import GATE, NOISE, POINT, rounding_bound, scale

# Columns per block of the menu minimum.  Whatever the grid size, its
# working memory is at most about 1.4 * len(a) * MENU_BLOCK floats: the
# evaluated lines of one block (every line at worst; on constructed
# mechanisms 1-5% on average, up to about half right after a long linear
# piece of the loss), held while the next MENU_BLOCK // 8 blocks are
# scanned for lines to skip (23 bytes per line and block, about a third of
# a full block).
MENU_BLOCK = 128
_SCAN_GROUP = MENU_BLOCK // 8
_BELOW_DIAG = np.tri(MENU_BLOCK, k=-1, dtype=bool)
_BELOW_DIAG.setflags(write=False)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class Mechanism:
    """Triple (a, r_p, r_empty) tabulated on an increasing type grid."""

    grid: np.ndarray
    a: np.ndarray
    r_p: np.ndarray
    r_empty: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        a = np.asarray(self.a, dtype=float)
        r_p = np.asarray(self.r_p, dtype=float)
        r_empty = np.asarray(self.r_empty, dtype=float)
        if not (grid.shape == a.shape == r_p.shape == r_empty.shape) or grid.ndim != 1:
            raise ValueError("grid and tables must be aligned 1-d arrays")
        if len(grid) < 1:
            raise ValueError("mechanism needs at least one grid point")
        for name, arr in (("grid", grid), ("a", a), ("r_p", r_p), ("r_empty", r_empty)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        for arr in (grid, a, r_p, r_empty):
            arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r_p", r_p)
        object.__setattr__(self, "r_empty", r_empty)

    def __len__(self) -> int:
        return len(self.grid)

    def index_of(self, x: float) -> int:
        """Index of x on the grid; off-grid x is a domain error."""
        slack = POINT * scale(float(self.grid[-1] - self.grid[0]))
        i = int(np.searchsorted(self.grid, x))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.grid) and abs(self.grid[j] - x) <= slack:
                return j
        raise DomainError(f"x={x} is not a grid point of this mechanism")

    def to_dict(self) -> dict:
        return {
            "grid": [float(v) for v in self.grid],
            "a": [float(v) for v in self.a],
            "r_p": [float(v) for v in self.r_p],
            "r_empty": [float(v) for v in self.r_empty],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mechanism":
        return cls(
            grid=np.asarray(data["grid"], dtype=float),
            a=np.asarray(data["a"], dtype=float),
            r_p=np.asarray(data["r_p"], dtype=float),
            r_empty=np.asarray(data["r_empty"], dtype=float),
        )


@dataclass(frozen=True)
class MechanismReport:
    """All per-type tables of a mechanism, computed once."""

    grid: np.ndarray
    revenue: np.ndarray
    utility: np.ndarray
    profit: np.ndarray
    deviation_loss: np.ndarray
    ic: bool
    ic_witnesses: list = field(default_factory=list)


@dataclass(frozen=True)
class CheckResult:
    """Report-style verdict with per-point violation witnesses."""

    name: str
    passed: bool
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "violations": self.violations}


# -- per-type tables --------------------------------------------------------

def revenue_table(m: Mechanism) -> np.ndarray:
    return m.grid - (m.a * m.r_p + (1.0 - m.a) * m.r_empty)

def profit_table(m: Mechanism, env: Environment) -> np.ndarray:
    return revenue_table(m) - cost_eval(env.cost, m.a)

def deviation_loss_table(m: Mechanism) -> np.ndarray:
    """Loss from the cheapest under-report, per type.

    Each grid point y contributes the menu line a(y)*x + (1-a(y))*(y - r_empty(y));
    the loss at x is the minimum over the lines with y <= x.
    """
    return _menu_min(m.a, m.grid, (1.0 - m.a) * (m.grid - m.r_empty))


def _menu_min(a: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimum over the menu lines a[i]*x + c[i] open to each type.

    a, x and c are aligned and x is increasing: entry k is the minimum of
    a[i]*x[k] + c[i] over i <= k.  The terms are evaluated MENU_BLOCK
    columns at a time: first the lines open on all of the block that can
    reach its minimum, in index order, then its diagonal tile, the lines
    that open inside it, each set to +inf at the columns of the types below
    its own.

    Skip rule.  A block with more than MENU_BLOCK lines before its tile
    (fewer would save less than the scan costs) gets two probes: at its
    first and at its last column, the first minimizer among the lines open
    on all of it.  A line is skipped when, at both columns, its term
    exceeds the same probe's term by more than the margin

        8 * eps * (max|a| * max|x| + max|c|) + 4 * tiny.

    A computed term is within eps * (max|a| * max|x| + max|c|) of its real
    line, and the real difference of two lines is linear in x.  So a line
    more than four such errors above the probe at both ends is strictly above
    it at every column between; the margin is twice that, which also covers
    the rounding of the comparison and any underflow.  A probe skipped this
    way is strictly above the other probe, which is kept.  Ties are kept, as
    is anything compared with a non-finite term or margin.  A line that
    repeats the line before it bit for bit is skipped too.

    Exactness.  The result is bitwise the minimum over the full table of
    terms: each term is the same float product and sum as in that table,
    min is exact, and along the lines of a block it folds in index order.
    A skipped line is strictly above an evaluated line at every column of
    the block, and a repeat comes right after an identical line, so neither
    changes the fold, not even the sign of a zero.
    """
    n = len(x)
    width = min(MENU_BLOCK, n)
    out = np.empty(n)
    work = np.empty(0)
    for group in _block_lines(a, x, c):
        need = max(rows for _, _, rows in group) * width
        if work.size < need:
            work = np.empty(need)
        for k0, lines, rows in group:
            k1 = min(k0 + MENU_BLOCK, n)
            w = k1 - k0
            # rows keep a stride of `width` columns: numpy folds a strided
            # column in line order, as every wider block
            block = work[: rows * width].reshape(rows, width)[:, :w]
            np.multiply.outer(a[lines], x[k0:k1], out=block)
            block += c[lines, None]
            block[rows - w :][_BELOW_DIAG[:w, :w]] = np.inf
            out[k0:k1] = block.min(axis=0)
    return out


def _block_lines(a, x, c):
    """The blocks of _menu_min, a group at a time: per block its first
    column, the lines to evaluate in index order, and their count.  Blocks
    are scanned for lines to skip (see _menu_min) _SCAN_GROUP at a time."""
    n = len(x)
    full = range(0, min(n, MENU_BLOCK + 1), MENU_BLOCK)  # at most MENU_BLOCK lines before the tile
    group = [(k0, slice(0, min(k0 + MENU_BLOCK, n)), min(k0 + MENU_BLOCK, n)) for k0 in full]
    scanned = np.arange(len(full) * MENU_BLOCK, n, MENU_BLOCK)
    if len(scanned):
        margin = rounding_bound(max(abs(x[0]), abs(x[-1])), np.abs(a).max(), np.abs(c).max()) + 4 * _TINY
        bits_a, bits_c = a.view(np.int64), c.view(np.int64)
        repeats = (bits_a[1:] == bits_a[:-1]) & (bits_c[1:] == bits_c[:-1])
    for j in range(0, len(scanned), _SCAN_GROUP):
        starts = scanned[j : j + _SCAN_GROUP]
        keep = _kept_lines(a, x, c, starts, margin, repeats)
        for k0, kept in zip(starts.tolist(), keep):
            lines = np.concatenate((np.flatnonzero(kept[:k0]), np.arange(k0, min(k0 + MENU_BLOCK, n))))
            group.append((k0, lines, len(lines)))
        yield group
        group = []
    if group:
        yield group


def _kept_lines(a, x, c, starts, margin, repeats):
    """keep[j, i]: whether line i, open on all of the block starting at
    column starts[j], may reach that block's minimum (see _menu_min).  Its
    tables are freed on return, before the blocks are evaluated."""
    g = len(starts)
    opened = starts.tolist()
    rows = opened[-1] + 1
    ends = x[np.concatenate((starts, np.minimum(starts + MENU_BLOCK, len(x)) - 1))]
    terms = np.multiply.outer(ends, a[:rows])
    terms += c[:rows]
    for j, last in enumerate(opened[:-1]):
        # a line that opens inside a block bounds nothing before it opens
        terms[j, last + 1 :] = np.inf
        terms[g + j, last + 1 :] = np.inf
    terms = terms.reshape(2, g, rows)  # (end, block, line)
    probe = terms.argmin(axis=2)  # (end the probe minimizes, block)
    bound = terms[:, np.arange(g), probe]  # (end, probe's end, block)
    bound += margin
    above = terms[:, None] > bound[..., None]
    skip = np.logical_and(above[0], above[1])
    skip = np.logical_or(skip[0], skip[1])
    skip[:, 1:] |= repeats[: rows - 1]
    return np.logical_not(skip, out=skip)


# -- scalar accessors --------------------------------------------------------

def revenue(m: Mechanism, x: float) -> float:
    i = m.index_of(x)
    return float(m.grid[i] - (m.a[i] * m.r_p[i] + (1.0 - m.a[i]) * m.r_empty[i]))

def utility(m: Mechanism, x: float) -> float:
    i = m.index_of(x)
    return float(m.grid[i] - revenue(m, x))

def profit(m: Mechanism, env: Environment, x: float) -> float:
    i = m.index_of(x)
    return revenue(m, x) - cost_eval(env.cost, float(m.a[i]))

def deviation_loss(m: Mechanism, x: float) -> float:
    j = m.index_of(x)
    return float(deviation_loss_table(m)[j])


def report(m: Mechanism, env: Environment) -> MechanismReport:
    rev = revenue_table(m)
    dev = deviation_loss_table(m)
    gap = rev - dev
    witnesses = [
        {"x": float(m.grid[i]), "revenue": float(rev[i]), "deviation_loss": float(dev[i])}
        for i in np.nonzero(gap > GATE * scale(env.span))[0]
    ]
    return MechanismReport(
        grid=m.grid,
        revenue=rev,
        utility=m.grid - rev,
        profit=rev - cost_eval(env.cost, m.a),
        deviation_loss=dev,
        ic=not witnesses,
        ic_witnesses=witnesses,
    )


# -- feasibility, incentive compatibility, and the refund system ------------

def check_feasible(m: Mechanism, env: Environment) -> CheckResult:
    """Pointwise feasibility: probabilities in [0,1], refunds in [0, y+tau],
    grid endpoints matching the environment bounds.  Probabilities are
    unitless and get the absolute NOISE; refunds get it times scale(span)."""
    tol = NOISE * scale(env.span)
    violations = []
    if abs(m.grid[0] - env.x_lo) > POINT * scale(env.span):
        violations.append({"index": 0, "field": "grid", "value": float(m.grid[0]), "bound": env.x_lo})
    if abs(m.grid[-1] - env.x_hi) > POINT * scale(env.span):
        violations.append({"index": len(m) - 1, "field": "grid", "value": float(m.grid[-1]), "bound": env.x_hi})
    cap = m.grid + env.tau
    for name, arr, lo_ok, hi_lim in (
        ("a", m.a, -NOISE, 1.0 + NOISE),
        ("r_p", m.r_p, -tol, None),
        ("r_empty", m.r_empty, -tol, None),
    ):
        bad_lo = np.nonzero(arr < lo_ok)[0]
        bad_hi = np.nonzero(arr > (hi_lim if hi_lim is not None else cap + tol))[0]
        for i in bad_lo:
            violations.append({"index": int(i), "field": name, "value": float(arr[i]), "bound": 0.0})
        for i in bad_hi:
            bound = 1.0 if hi_lim is not None else float(cap[i])
            violations.append({"index": int(i), "field": name, "value": float(arr[i]), "bound": bound})
    return CheckResult("feasible", not violations, violations)


def check_ic(m: Mechanism, env: Environment, rep: MechanismReport | None = None) -> CheckResult:
    """Incentive compatibility: deviation loss >= revenue at every grid point."""
    if rep is None:
        rep = report(m, env)
    return CheckResult("incentive-compatible", rep.ic, rep.ic_witnesses)


def _require_feasible_ic(m: Mechanism, env: Environment, rep: MechanismReport | None = None) -> MechanismReport:
    """The report of a feasible IC mechanism; PreconditionError, carrying the
    failed check, otherwise."""
    feas = check_feasible(m, env)
    if not feas.passed:
        raise PreconditionError("mechanism is not feasible", certificate=feas)
    if rep is None:
        rep = report(m, env)
    ic = check_ic(m, env, rep)
    if not ic.passed:
        raise PreconditionError("mechanism is not incentive compatible", certificate=ic)
    return rep


def _sampled_tables(grid, lam_values, a_values):
    """The (grid, loss table, audit table) triple as float arrays, checked to
    be aligned and finite (a NaN passes every comparison) with a strictly
    increasing grid; DomainError otherwise."""
    grid = np.asarray(grid, dtype=float)
    lam = np.asarray(lam_values, dtype=float)
    a = np.asarray(a_values, dtype=float)
    if grid.shape != lam.shape or grid.shape != a.shape:
        raise DomainError("grid, loss table and audit table must be aligned")
    for name, arr in (("grid", grid), ("loss table", lam), ("audit table", a)):
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("grid must be strictly increasing")
    return grid, lam, a


def system_holds(grid, lam_values, a_values, env: Environment) -> CheckResult:
    """The downward-deviation inequality system for a sampled (loss, audit) pair.

    Checks, for all grid pairs y <= x,
        loss(x) <= a(y)*x + min{(1-a(y))*y, loss(y) + a(y)*tau} + GATE * scale(span).
    The tables must be aligned and finite and the grid strictly increasing,
    else DomainError.
    """
    grid, lam, a = _sampled_tables(grid, lam_values, a_values)
    phi = np.minimum((1.0 - a) * grid, lam + a * env.tau)
    slack = _menu_min(a, grid, phi) - lam
    bad = np.nonzero(slack < -GATE * scale(env.span))[0]
    violations = []
    for j in bad:
        terms = a[: j + 1] * grid[j] + phi[: j + 1]
        i = int(np.argmin(terms))
        violations.append(
            {
                "x": float(grid[j]),
                "y": float(grid[i]),
                "lhs": float(lam[j]),
                "rhs": float(terms[i]),
            }
        )
    return CheckResult("refund-system", len(bad) == 0, violations)
