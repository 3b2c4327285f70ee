"""Certificates and the two partial-order comparisons.

A mechanism certifies as efficient when its deviation loss is an admissible
loss function, revenue matches it everywhere, and the audit schedule equals
the minimal one recomputed from the loss.  These clauses are necessary for
tightness too, but tightness has no proven converse, so the tightness
certificate never claims more than the necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audit_schedule import AuditSchedule
from .environment import Environment
from .errors import GridMismatchError, PreconditionError
from .lambda_space import lambda_violations
from .mechanism import (
    Mechanism,
    MechanismReport,
    check_feasible,
    check_ic,
    deviation_loss_table,
    profit_table,
    report,
    revenue_table,
)
from .pwl import PwlFunction

CERT_TOL = 1e-8
COMPARE_TOL = 1e-9

CERTIFIED_EFFICIENT = "certified-efficient"
TIGHT_NECESSARY = "satisfies-tightness-necessary-conditions"
REFUTED = "refuted"

MORE_EFFICIENT = "more-efficient"
LESS_EFFICIENT = "less-efficient"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: dict | None = None
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class Certificate:
    verdict: str
    clauses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "clauses": [c.to_dict() for c in self.clauses]}

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def _require_mechanism(m: Mechanism, env: Environment, rep: MechanismReport | None = None) -> MechanismReport:
    feas = check_feasible(m, env)
    if not feas.passed:
        raise PreconditionError("mechanism is not feasible", certificate=feas)
    if rep is None:
        rep = report(m, env)
    ic = check_ic(m, env, rep)
    if not ic.passed:
        raise PreconditionError("mechanism is not incentive compatible", certificate=ic)
    return rep


def _core_clauses(m: Mechanism, env: Environment, rep: MechanismReport, tol: float):
    lam_m = rep.deviation_loss
    interp = PwlFunction(m.grid.copy(), lam_m.copy())

    violations = lambda_violations(interp, env, tol=tol)
    clause_shape = Clause(
        "loss-admissible",
        not violations,
        violations[0].to_dict() if violations else None,
    )

    gap = np.abs(rep.revenue - lam_m)
    j = int(np.argmax(gap))
    clause_rev = Clause(
        "revenue-equals-loss",
        bool(gap[j] <= tol),
        None
        if gap[j] <= tol
        else {"x": float(m.grid[j]), "revenue": float(rep.revenue[j]), "deviation_loss": float(lam_m[j])},
    )

    schedule = AuditSchedule.from_table(m.grid, lam_m, env)
    alpha = schedule.alpha_table(m.grid)
    beta = schedule.beta_table(m.grid)
    minimal = np.maximum(alpha, beta)
    agap = np.abs(m.a - minimal)
    j = int(np.argmax(agap))
    clause_a = Clause(
        "audit-schedule-minimal",
        bool(agap[j] <= tol),
        None
        if agap[j] <= tol
        else {"y": float(m.grid[j]), "a": float(m.a[j]), "minimal": float(minimal[j])},
    )
    return [clause_shape, clause_rev, clause_a], alpha, beta


def certify_efficient(
    m: Mechanism, env: Environment, rep: MechanismReport | None = None, tol: float = CERT_TOL
) -> Certificate:
    """Certificate of efficiency for a feasible IC mechanism.

    All three core clauses passing is sufficient for efficiency; any failure
    refutes both efficiency and tightness.
    """
    rep = _require_mechanism(m, env, rep)
    clauses, _, _ = _core_clauses(m, env, rep, tol)
    verdict = CERTIFIED_EFFICIENT if all(c.passed for c in clauses) else REFUTED
    return Certificate(verdict=verdict, clauses=clauses)


def certify_tight_necessary(
    m: Mechanism, env: Environment, rep: MechanismReport | None = None, tol: float = CERT_TOL
) -> Certificate:
    """Necessary conditions for tightness, plus informational refund-pattern
    clauses around the crossover type.

    Refund clauses only inform: refunds may be redefined without affecting
    revenue, utility, or audits, so a deviation from the canonical pattern
    does not refute.  Never returns a "certified tight" verdict.
    """
    rep = _require_mechanism(m, env, rep)
    clauses, alpha, beta = _core_clauses(m, env, rep, tol)
    margin = 1e-9
    bad_empty = np.nonzero((alpha - beta > margin) & (m.r_empty > tol))[0]
    clause_empty = Clause(
        "no-audit-refund-zero-below-crossover",
        len(bad_empty) == 0,
        None
        if len(bad_empty) == 0
        else {"y": float(m.grid[bad_empty[0]]), "r_empty": float(m.r_empty[bad_empty[0]])},
        informational=True,
    )
    cap = m.grid + env.tau
    bad_p = np.nonzero((beta - alpha > margin) & (m.a > margin) & (m.r_p < cap - tol))[0]
    clause_p = Clause(
        "audit-refund-maxed-above-crossover",
        len(bad_p) == 0,
        None
        if len(bad_p) == 0
        else {"y": float(m.grid[bad_p[0]]), "r_p": float(m.r_p[bad_p[0]]), "cap": float(cap[bad_p[0]])},
        informational=True,
    )
    clauses.extend([clause_empty, clause_p])
    core_ok = all(c.passed for c in clauses if not c.informational)
    verdict = TIGHT_NECESSARY if core_ok else REFUTED
    return Certificate(verdict=verdict, clauses=clauses)


def _require_common_grid(m_star: Mechanism, m: Mechanism, env: Environment):
    if len(m_star) != len(m) or np.max(np.abs(m_star.grid - m.grid)) > 1e-12 * max(1.0, env.span):
        raise GridMismatchError("mechanisms are tabulated on different grids")


def _order(delta_first: np.ndarray, delta_second: np.ndarray, tol: float) -> str:
    """Classify a pair of pointwise differences into the four-verdict order.

    ``delta_first``/``delta_second`` are (first criterion, second criterion)
    of the candidate minus the baseline, both oriented so that >= 0 means the
    candidate weakly dominates.
    """
    fwd = bool(np.all(delta_first >= -tol) and np.all(delta_second >= -tol))
    bwd = bool(np.all(delta_first <= tol) and np.all(delta_second <= tol))
    if fwd and bwd:
        return EQUAL
    if fwd:
        return MORE_EFFICIENT
    if bwd:
        return LESS_EFFICIENT
    return INCOMPARABLE


def compare_efficiency(m_star: Mechanism, m: Mechanism, env: Environment, tol: float = COMPARE_TOL) -> str:
    """Pointwise efficiency order: weakly higher revenue, weakly lower audits."""
    _require_common_grid(m_star, m, env)
    d_rev = revenue_table(m_star) - revenue_table(m)
    d_aud = m.a - m_star.a
    return _order(d_rev, d_aud, tol)


def compare_tightness(m_star: Mechanism, m: Mechanism, env: Environment, tol: float = COMPARE_TOL) -> str:
    """Pointwise tightness order: weakly higher profit and deviation loss.

    Shares the efficiency verdict set; "more-efficient" here reads as
    "tighter in the (profit, deviation loss) order".
    """
    _require_common_grid(m_star, m, env)
    d_profit = profit_table(m_star, env) - profit_table(m, env)
    d_loss = deviation_loss_table(m_star) - deviation_loss_table(m)
    return _order(d_profit, d_loss, tol)
