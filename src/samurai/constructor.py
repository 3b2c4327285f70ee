"""Refunds from a (loss, audit) pair, and the efficient mechanism builder.

Refunds are chosen so that the no-audit transfer exhausts the binding branch
of the deviation system and the audited transfer tops revenue up to the loss
value.  Free choices (fully audited or never audited types) are pinned to
zero refunds for determinism; they affect neither revenue nor utility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audit_schedule import AuditSchedule
from .environment import Environment
from .errors import PreconditionError
from .lambda_space import LossFunction
from .mechanism import Mechanism, system_holds
from .tolerances import GRID_MERGE, NOISE


@dataclass(frozen=True)
class RefundPair:
    """Aligned refund tables, each value in [0, y + tau]."""

    r_p: np.ndarray
    r_empty: np.ndarray


def refunds_from(grid, lam_values, a_values, env: Environment) -> RefundPair:
    """Refund tables making revenue equal the loss table, type by type.

    Requires the (loss, audit) pair to satisfy the downward-deviation system;
    violated pairs raise PreconditionError with a witness.
    """
    grid = np.asarray(grid, dtype=float)
    lam = np.asarray(lam_values, dtype=float)
    a = np.asarray(a_values, dtype=float)
    cert = system_holds(grid, lam, a, env)
    if not cert.passed:
        raise PreconditionError(
            f"refund system violated at (x={cert.violations[0]['x']}, "
            f"y={cert.violations[0]['y']})",
            certificate=cert,
        )
    tau = env.tau
    cap = grid + tau

    # no-audit refund: zero when the bare-advance branch binds, else the
    # amount that leaves exactly the loss-plus-audited-funds branch
    r_empty = np.zeros_like(grid)
    free = a >= 1.0
    t = lam + a * tau
    loss_branch = (~free) & ((1.0 - a) * grid > t)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_empty[loss_branch] = grid[loss_branch] - t[loss_branch] / (1.0 - a[loss_branch])

    # audit refund: maxed out when the floor branch binds, else tops revenue
    # up to the loss value
    r_p = np.zeros_like(grid)
    audited = a > 0.0
    u = lam - (1.0 - a) * grid
    floor_branch = audited & (u < -a * tau)
    r_p[floor_branch] = cap[floor_branch]
    mid = audited & ~floor_branch
    with np.errstate(divide="ignore", invalid="ignore"):
        r_p[mid] = grid[mid] - u[mid] / a[mid]

    # the exact values lie in [0, y + tau]; clamp away float noise only
    r_empty = np.clip(r_empty, 0.0, cap)
    r_p = np.clip(r_p, 0.0, cap)
    return RefundPair(r_p=r_p, r_empty=r_empty)


def support_types(lam: LossFunction, env: Environment) -> np.ndarray:
    """Types whose menu line coincides with a whole segment of the loss.

    For each segment (slope s, intercept b) there is a type whose deterrence
    line equals the extended segment: either where the extension meets the
    identity (no-refund regime, y = b/(1-s)) or where the loss passes through
    b - s*tau (maxed-refund regime).  Both candidates are returned; spurious
    ones are harmless extra grid points.
    """
    xs, vs = lam.xs, lam.vs
    slopes = (vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1])
    snap_tol = GRID_MERGE * env.span

    def snapped(y: float) -> float:
        # a candidate this close to a kink IS that kink up to float noise,
        # and the kink carries the correct right-hand audit probability
        j = int(np.argmin(np.abs(xs - y)))
        if abs(xs[j] - y) <= snap_tol:
            return float(xs[j])
        return min(max(y, env.x_lo), env.x_hi)

    out = []
    for i, s in enumerate(slopes):
        if s >= 1.0 - NOISE:
            continue  # slope-1 segments sit on the identity; breakpoints suffice
        b = float(vs[i] - s * xs[i])
        y_id = b / (1.0 - s)
        if env.x_lo - NOISE <= y_id <= env.x_hi + NOISE:
            out.append(snapped(y_id))
        target = b - s * env.tau
        if vs[0] <= target <= vs[-1]:
            j = int(np.searchsorted(vs, target, side="left"))
            j = min(max(j, 1), len(xs) - 1)
            v0, v1 = float(vs[j - 1]), float(vs[j])
            if v1 > v0:
                y_inv = float(xs[j - 1]) + (target - v0) / (v1 - v0) * float(xs[j] - xs[j - 1])
            else:
                y_inv = float(xs[j - 1])
            out.append(snapped(y_inv))
    return np.asarray(sorted(out))


def merge_grid(primary, extra, env: Environment) -> np.ndarray:
    """Union of grids, keeping every primary point and dropping extra points
    within GRID_MERGE * span of a primary point or of the extra before them."""
    primary = np.unique(np.asarray(primary, dtype=float))
    extra = np.sort(np.asarray(extra, dtype=float))
    tol = GRID_MERGE * env.span
    pos = np.searchsorted(primary, extra)
    left = primary[np.clip(pos - 1, 0, len(primary) - 1)]
    right = primary[np.clip(pos, 0, len(primary) - 1)]
    extra = extra[(np.abs(extra - left) > tol) & (np.abs(extra - right) > tol)]
    extra = extra[np.diff(extra, prepend=-np.inf) > tol]
    return np.union1d(primary, extra)


def build_grid(lam: LossFunction, env: Environment, grid_size: int) -> np.ndarray:
    """Default construction grid: breakpoints and support types first, then a
    uniform fill of ``grid_size`` points."""
    anchors = merge_grid([env.x_lo, env.x_hi], np.concatenate([lam.xs, support_types(lam, env)]), env)
    uniform = np.linspace(env.x_lo, env.x_hi, int(grid_size))
    return merge_grid(anchors, uniform, env)


def build_efficient(lam: LossFunction, env: Environment, grid_size: int = 1001) -> Mechanism:
    """Mechanism with revenue equal to ``lam`` and the minimal audit schedule.

    Samples the loss on the default grid, sets the audit probability to the
    pointwise-larger of the two chord suprema, and derives the refunds.  The
    output is feasible, incentive compatible, and certifies as efficient.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = build_grid(lam, env, grid_size)
    schedule = AuditSchedule.from_loss(lam, env)
    a = schedule.audit_prob_table(grid)
    lam_values = lam.eval(grid)
    refunds = refunds_from(grid, lam_values, a, env)
    return Mechanism(grid=grid, a=a, r_p=refunds.r_p, r_empty=refunds.r_empty)
