"""Every tolerance of the package, named once with its scaling.

Probabilities get a tolerance as is; money and positions get it times
scale(span) = max(1, span), which leaves it as is up to span 1.

NOISE 1e-12  float noise.  As is: probabilities clipped into [0, 1], the
    single-crossing sign, tighten's audit_reduced, support_types' slope-1
    test and domain slack, the oracle's type-set ends and rounding limit.
    x scale(span): check_feasible's refunds, values at the identity (alpha,
    the clamp, classify_debt), tighten's revenue_increased, common grids.
    x scale(|x_lo|): the loss anchor.
POINT 1e-9  a position or loss value this far outside its interval counts
    as inside: x scale(span); as is in the oracle's grid test.
GATE 1e-9  an inequality the theory proves.  x scale(span): IC in report
    and system_holds, tighten's guarantees, the oracle's money comparisons.
    x span: the default loss-shape tol.  As is: the comparisons' default
    tol, the oracle's audit comparisons, the refund clauses' margins.
CERT 1e-8  default of certify and is_fixed_point: money x scale(span).
GRID_MERGE 1e-7 x span: closer grid points merge and support types snap to
    kinks, so chord ratios recomputed on the grid stay accurate to CERT.
"""

import numpy as np

from .errors import DomainError

NOISE = 1e-12
POINT = 1e-9
GATE = 1e-9
CERT = 1e-8
GRID_MERGE = 1e-7


def scale(span: float) -> float:
    return max(1.0, span)


def check_within(x: np.ndarray, lo: float, hi: float, span: float, what: str):
    """DomainError unless every x lies in [lo, hi] up to POINT * scale(span)."""
    slack = POINT * scale(span)
    if np.any(x < lo - slack) or np.any(x > hi + slack):
        bad = x[(x < lo - slack) | (x > hi + slack)]
        raise DomainError(f"{what}={bad.flat[0]} outside [{lo}, {hi}]")


def rounding_bound(reach, slope, intercept):
    """8 * eps * (reach * slope + intercept): eight rounding errors of a line's
    value at |x| <= reach, for a family's largest |slope| and |intercept|."""
    return 8 * np.finfo(float).eps * (reach * slope + intercept)
