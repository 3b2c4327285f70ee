"""The improvement operator: any mechanism to a tighter, more efficient one.

Pipeline: tabulate the deviation loss, lift it to its admissible upper bound
(virtual loss), recompute the minimal audit schedule for the lifted loss, and
rebuild refunds.  The guarantees - audits never rise, revenue sandwiched
between the old and new deviation losses, profit never falls - are verified
on the grid before the report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audit_schedule import AuditSchedule
from .constructor import merge_grid, refunds_from, support_types
from .environment import Environment, cost_eval
from .errors import GuaranteeError, PreconditionError
from .lambda_space import LossFunction, virtual_loss
from .mechanism import Mechanism, check_feasible, check_ic, deviation_loss_table, report, revenue_table

GUARANTEE_TOL = 1e-9
FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class TightenReport:
    """Input and output tables of one tightening pass."""

    grid_in: np.ndarray
    lambda_m_in: np.ndarray
    a_in: np.ndarray
    lambda_star: LossFunction
    grid_out: np.ndarray
    a_out: np.ndarray
    mechanism_out: Mechanism
    audit_reduced: bool
    revenue_increased: bool
    lambda_m_out: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "grid": [float(v) for v in self.grid_in],
            "lambda_m_in": [float(v) for v in self.lambda_m_in],
            "a_in": [float(v) for v in self.a_in],
            "lambda_star": self.lambda_star.to_dict(),
            "mechanism_out": self.mechanism_out.to_dict(),
            "audit_reduced": self.audit_reduced,
            "revenue_increased": self.revenue_increased,
        }


def _input_indices(grid_out: np.ndarray, grid_in: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid_out, grid_in)
    if not np.array_equal(grid_out[idx], grid_in):
        raise RuntimeError("refined grid lost input grid points")
    return idx


def tighten(m: Mechanism, env: Environment) -> TightenReport:
    """One pass of the improvement operator on a feasible IC mechanism."""
    feas = check_feasible(m, env)
    if not feas.passed:
        raise PreconditionError("mechanism is not feasible", certificate=feas)
    rep = report(m, env)
    ic = check_ic(m, env, rep)
    if not ic.passed:
        raise PreconditionError("mechanism is not incentive compatible", certificate=ic)

    lam_m = rep.deviation_loss
    star = virtual_loss(m.grid, lam_m, m.a, env)

    # sample the new schedule on the input grid refined by the envelope kinks
    # and by the lifted loss's support types, so the menu stays exact
    extras = np.concatenate([star.xs, support_types(star, env)])
    grid_out = merge_grid(m.grid, extras, env)
    schedule = AuditSchedule.from_loss(star, env)
    a_out = schedule.audit_prob_table(grid_out)
    star_values = star.eval(grid_out)
    refunds = refunds_from(grid_out, star_values, a_out, env)
    m_out = Mechanism(grid=grid_out, a=a_out, r_p=refunds.r_p, r_empty=refunds.r_empty)

    idx = _input_indices(grid_out, m.grid)
    a_out_at_in = a_out[idx]
    rev_out = revenue_table(m_out)
    lam_m_out = deviation_loss_table(m_out)
    star_at_in = star_values[idx]

    checks = [
        ("audit probabilities rose", np.max(a_out_at_in - m.a)),
        ("lifted loss fell below the input loss", np.max(lam_m - star_at_in)),
        ("revenue differs from the lifted loss", np.max(np.abs(rev_out - star_values))),
        ("output deviation loss fell below revenue", np.max(rev_out - lam_m_out)),
        (
            "profit fell",
            np.max(rep.profit - (star_at_in - cost_eval(env.cost, a_out_at_in))),
        ),
    ]
    tol = GUARANTEE_TOL * max(1.0, env.span)
    for label, worst in checks:
        if worst > tol:
            raise GuaranteeError(f"tightening guarantee violated: {label} by {worst:.3g}")

    return TightenReport(
        grid_in=m.grid,
        lambda_m_in=lam_m,
        a_in=m.a,
        lambda_star=star,
        grid_out=grid_out,
        a_out=a_out,
        mechanism_out=m_out,
        audit_reduced=bool(np.any(m.a - a_out_at_in > 1e-12)),
        revenue_increased=bool(np.any(rev_out[idx] - rep.revenue > 1e-12)),
        lambda_m_out=lam_m_out,
    )


def is_fixed_point(m: Mechanism, env: Environment, tol: float = FIXED_POINT_TOL) -> bool:
    """Whether tightening leaves the audit schedule and revenue unchanged."""
    rep = tighten(m, env)
    idx = _input_indices(rep.grid_out, m.grid)
    same_a = np.max(np.abs(rep.a_out[idx] - m.a)) <= tol
    same_r = np.max(np.abs(revenue_table(rep.mechanism_out)[idx] - revenue_table(m))) <= tol
    return bool(same_a and same_r)
