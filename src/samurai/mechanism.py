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
from .errors import DomainError

IC_TOL = 1e-9
FEAS_TOL = 1e-12
# Columns per block of the menu minimum: its working memory is
# len(a) * MENU_BLOCK floats, whatever the grid size.
MENU_BLOCK = 128


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
        span = max(1.0, float(self.grid[-1] - self.grid[0]))
        i = int(np.searchsorted(self.grid, x))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.grid) and abs(self.grid[j] - x) <= 1e-9 * span:
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
    return _menu_min(m.a, m.grid, _menu_offsets(m))


def _menu_offsets(m: Mechanism) -> np.ndarray:
    return (1.0 - m.a) * (m.grid - m.r_empty)


def _menu_min(a: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Minimum over the menu lines a[i]*x + c[i] open to each type.

    x is aligned with the last len(x) lines: entry k is the minimum of
    a[i]*x[k] + c[i] over i <= len(a) - len(x) + k.  The terms are evaluated
    MENU_BLOCK columns at a time, with the lines of types above each column's
    own set to +inf.  Each term is the same float product and sum as in a
    full table and min is exact, so the block width does not change the result.
    """
    shift = len(a) - len(x)
    width = min(MENU_BLOCK, len(x))
    buf = np.empty((len(a), width))
    below_diag = np.tri(width, k=-1, dtype=bool)
    out = np.empty(len(x))
    for k0 in range(0, len(x), MENU_BLOCK):
        k1 = min(k0 + MENU_BLOCK, len(x))
        rows, w = shift + k1, k1 - k0
        block = np.multiply.outer(a[:rows], x[k0:k1], out=buf[:rows, :w])
        block += c[:rows, None]
        block[rows - w :][below_diag[:w, :w]] = np.inf
        out[k0:k1] = block.min(axis=0)
    return out


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
    return float(_menu_min(m.a[: j + 1], m.grid[j : j + 1], _menu_offsets(m)[: j + 1])[0])


def report(m: Mechanism, env: Environment) -> MechanismReport:
    rev = revenue_table(m)
    dev = deviation_loss_table(m)
    gap = rev - dev
    witnesses = [
        {"x": float(m.grid[i]), "revenue": float(rev[i]), "deviation_loss": float(dev[i])}
        for i in np.nonzero(gap > IC_TOL)[0]
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
    grid endpoints matching the environment bounds."""
    tol = FEAS_TOL * max(1.0, env.span)
    violations = []
    if abs(m.grid[0] - env.x_lo) > 1e-9 * max(1.0, env.span):
        violations.append({"index": 0, "field": "grid", "value": float(m.grid[0]), "bound": env.x_lo})
    if abs(m.grid[-1] - env.x_hi) > 1e-9 * max(1.0, env.span):
        violations.append({"index": len(m) - 1, "field": "grid", "value": float(m.grid[-1]), "bound": env.x_hi})
    cap = m.grid + env.tau
    for name, arr, lo_ok, hi_lim in (
        ("a", m.a, -tol, 1.0 + tol),
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


def system_holds(grid, lam_values, a_values, env: Environment, tol: float = IC_TOL) -> CheckResult:
    """The downward-deviation inequality system for a sampled (loss, audit) pair.

    Checks, for all grid pairs y <= x,
        loss(x) <= a(y)*x + min{(1-a(y))*y, loss(y) + a(y)*tau} + tol.
    """
    grid = np.asarray(grid, dtype=float)
    lam = np.asarray(lam_values, dtype=float)
    a = np.asarray(a_values, dtype=float)
    if grid.shape != lam.shape or grid.shape != a.shape:
        raise ValueError("grid, loss table and audit table must be aligned")
    phi = np.minimum((1.0 - a) * grid, lam + a * env.tau)
    slack = _menu_min(a, grid, phi) - lam
    bad = np.nonzero(slack < -tol)[0]
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
