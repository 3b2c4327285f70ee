"""The admissible loss-function class and its two key constructions.

A loss function is admissible when it is weakly increasing, weakly concave,
anchored at the lower surplus bound and dominated by the identity.  The
virtual-loss construction turns any sampled (loss, audit) pair into an
admissible upper bound by flooring a running maximum and taking the lower
envelope of one affine line per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment
from .errors import DomainError, LambdaValidationError
from .mechanism import _sampled_tables
from .pwl import PwlFunction, affine_lower_envelope
from .tolerances import GATE, NOISE, POINT, scale


@dataclass(frozen=True)
class Violation:
    clause: str
    x: float
    detail: str

    def to_dict(self) -> dict:
        return {"clause": self.clause, "x": self.x, "detail": self.detail}


@dataclass(frozen=True, eq=False)
class LossFunction:
    """A validated admissible loss function; construct via validate_lambda."""

    shape: PwlFunction

    @property
    def xs(self) -> np.ndarray:
        return self.shape.xs

    @property
    def vs(self) -> np.ndarray:
        return self.shape.vs

    def eval(self, x):
        return self.shape.eval(x)

    def __call__(self, x):
        return self.shape.eval(x)

    def to_dict(self) -> dict:
        return self.shape.to_dict()


def lambda_violations(f: PwlFunction, env: Environment, tol: float | None = None):
    """Check the admissibility clauses; return a list of Violation records.

    Monotonicity, concavity and range are checked with value slack ``tol``
    (default GATE * span), the anchor at NOISE * max(1, |x_lo|), and the
    identity bound after clamping overshoots of up to NOISE * max(1, span).
    """
    if tol is None:
        tol = GATE * env.span
    out = []
    xs, vs = f.xs, f.vs
    slack = POINT * scale(env.span)
    if abs(f.x_lo - env.x_lo) > slack or abs(f.x_hi - env.x_hi) > slack:
        out.append(
            Violation("domain", f.x_lo, f"breakpoints span [{f.x_lo}, {f.x_hi}], expected [{env.x_lo}, {env.x_hi}]")
        )
    if abs(vs[0] - env.x_lo) > NOISE * scale(abs(env.x_lo)):
        out.append(Violation("anchor", float(xs[0]), f"lambda(x_lo)={vs[0]}, expected {env.x_lo}"))
    over = vs - xs
    worst = int(np.argmax(over))
    if over[worst] > NOISE * scale(env.span):
        out.append(
            Violation("below-identity", float(xs[worst]), f"lambda={vs[worst]} exceeds x={xs[worst]}")
        )
    diffs = np.diff(vs)
    if np.any(diffs < -tol):
        i = int(np.argmin(diffs))
        out.append(Violation("monotonicity", float(xs[i + 1]), f"drop of {-diffs[i]:.3g}"))
    if len(xs) >= 3:
        # concavity as a chord test on consecutive triples (value-scaled,
        # robust to short segments)
        x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
        v0, v1, v2 = vs[:-2], vs[1:-1], vs[2:]
        chord = (v0 * (x2 - x1) + v2 * (x1 - x0)) / (x2 - x0)
        sag = chord - v1
        if np.any(sag > tol):
            i = int(np.argmax(sag))
            out.append(Violation("concavity", float(xs[i + 1]), f"below chord by {sag[i]:.3g}"))
    lo_bound = env.x_lo - tol
    hi_bound = env.x_hi + tol
    if np.any(vs < lo_bound) or np.any(vs > hi_bound):
        i = int(np.argmin(vs)) if np.any(vs < lo_bound) else int(np.argmax(vs))
        out.append(Violation("range", float(xs[i]), f"value {vs[i]} outside [{env.x_lo}, {env.x_hi}]"))
    return out


def validate_lambda(f: PwlFunction, env: Environment, tol: float | None = None) -> LossFunction:
    """Validate a PWL candidate and return it as a LossFunction.

    Marginal overshoots of the identity are clamped to it; any violated
    clause raises LambdaValidationError carrying witnesses.
    """
    violations = lambda_violations(f, env, tol)
    if violations:
        raise LambdaValidationError(violations)
    vs = np.minimum(f.vs, f.xs)  # clamp marginal identity overshoot
    vs = np.maximum(vs, env.x_lo)
    clamped = PwlFunction(f.xs.copy(), vs)
    return LossFunction(shape=clamped)


def running_max_floor(values, floor) -> np.ndarray:
    """Entry i is max(floor, values[0], ..., values[i]).

    At the grid points of a sampled loss this is exactly the running maximum
    of its PWL interpolation, floored.  The argument order fixes zero signs:
    on a tie numpy's maximum returns its second argument, so with ``values``
    first every zero entry takes a zero floor's sign, and the ties left for
    the accumulation are bitwise equal.  Every environment's floor x_lo is
    >= 0.
    """
    return np.maximum.accumulate(np.maximum(values, floor))


def virtual_loss(grid, lam_values, a_values, env: Environment) -> LossFunction:
    """Admissible upper bound for a sampled (loss, audit) pair.

    Floors the running maximum of the loss table at x_lo, builds one line per
    grid point y with slope a(y) and intercept
    min{(1-a(y))*y, floored_loss(y) + a(y)*tau}, and returns the lower
    envelope of the family, validated before return.

    When the pair satisfies the downward-deviation inequality system the
    result additionally dominates the input table pointwise.  The tables
    must be aligned and finite, the grid strictly increasing with >= 2
    points, else DomainError.
    """
    grid, lam, a = _sampled_tables(grid, lam_values, a_values)
    if len(grid) < 2:
        raise DomainError("grid needs at least 2 points")
    slack = POINT * scale(env.span)
    if abs(grid[0] - env.x_lo) > slack or abs(grid[-1] - env.x_hi) > slack:
        raise DomainError("grid endpoints must match the environment bounds")
    if np.any(a < -NOISE) or np.any(a > 1 + NOISE):
        raise DomainError("audit probabilities must lie in [0, 1]")
    if np.any(lam < -env.tau - slack):
        i = int(np.argmin(lam))
        raise DomainError(f"loss value {lam[i]} below -tau={-env.tau} at x={grid[i]}")
    if np.any(lam > grid + slack):
        i = int(np.argmax(lam - grid))
        raise DomainError(f"loss value {lam[i]} exceeds x={grid[i]}")
    a = np.clip(a, 0.0, 1.0)

    plus = running_max_floor(lam, env.x_lo)
    intercepts = np.minimum((1.0 - a) * grid, plus + a * env.tau)
    envelope = affine_lower_envelope(a, intercepts, (env.x_lo, env.x_hi))
    return validate_lambda(envelope, env)


def classify_debt(lam: LossFunction):
    """Threshold y0 if the loss equals min(y, y0) up to NOISE * max(1, span),
    else None."""
    xs, vs = lam.xs, lam.vs
    y0 = float(vs[-1])
    probe = np.unique(np.concatenate([xs, [min(max(y0, xs[0]), xs[-1])]]))
    ref = np.minimum(probe, y0)
    got = lam.eval(probe)
    if np.max(np.abs(got - ref)) <= NOISE * scale(float(xs[-1] - xs[0])):
        return y0
    return None


def debt_loss(env: Environment, threshold: float) -> LossFunction:
    """The loss function min(y, threshold) on the environment's domain."""
    if not env.x_lo <= threshold <= env.x_hi:
        raise DomainError(f"threshold {threshold} outside [{env.x_lo}, {env.x_hi}]")
    if threshold <= env.x_lo:
        f = PwlFunction(np.array([env.x_lo, env.x_hi]), np.array([env.x_lo, env.x_lo]))
    elif threshold >= env.x_hi:
        f = PwlFunction(np.array([env.x_lo, env.x_hi]), np.array([env.x_lo, env.x_hi]))
    else:
        f = PwlFunction(
            np.array([env.x_lo, threshold, env.x_hi]),
            np.array([env.x_lo, threshold, threshold]),
        )
    return validate_lambda(f, env)


def random_loss_function(env: Environment, rng: np.random.Generator) -> LossFunction:
    """Seeded random admissible loss function.

    Draws up to 10 interior kink positions and nonincreasing positive slopes,
    rescales so the first slope is at most 1, and anchors the values at x_lo.
    With probability 0.3 the first slope is exactly 1, so the function starts
    on the identity.
    """
    span = env.span
    k = int(rng.integers(0, 11))
    if k:
        kinks = np.sort(rng.uniform(env.x_lo + 0.02 * span, env.x_hi - 0.02 * span, size=k))
        keep = np.concatenate([[True], np.diff(kinks) > 1e-3 * span])
        kinks = kinks[keep]
    else:
        kinks = np.empty(0)
    xs = np.concatenate([[env.x_lo], kinks, [env.x_hi]])
    n_seg = len(xs) - 1
    slopes = np.sort(rng.uniform(0.05, 1.0, size=n_seg))[::-1]
    if rng.uniform() < 0.3:
        first = 1.0
    else:
        first = rng.uniform(0.2, 1.0)
    slopes = slopes * (first / slopes[0])
    vs = env.x_lo + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return validate_lambda(PwlFunction(xs, vs), env)
