"""Minimal audit probabilities for a piecewise-linear loss function.

Two chord suprema drive everything: the slope of the steepest chord from
(y, y) to the graph (the no-refund threat) and the steepest ratio of loss
gains to audited wealth, i.e. the slope from (-tau, loss(y)) (the maxed-out-
refund threat).  Both ratios are monotone on each linear segment, so each
supremum is attained at a breakpoint right of y, or in the open limit at y
itself when the loss touches the identity.  Evaluation is therefore exact
on breakpoints.

Both reference points lie left of every candidate breakpoint, so each
supremum is the tangent from that point to the upper convex hull of the
breakpoints right of y, and along that hull the slope from the point rises
to the tangent vertex and falls after it.  One right-to-left monotone-chain
pass (Andrew 1979) links every breakpoint to the next vertex of its
suffix's upper hull; jump tables over those links find each tangent in
O(log n) steps, for any table and any query set, in O(n log n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .environment import Environment
from .errors import DomainError
from .lambda_space import LossFunction
from .pwl import PwlFunction

# |loss(y) - y| below this (scaled) counts as "on the identity", which adds
# the right-hand slope at y as a supremum candidate.
IDENTITY_EQ_TOL = 1e-12

# Resolution of the crossover search.
CROSSOVER_XTOL = 1e-10

# Breakpoints within this (scaled) distance of a query are float-noise
# duplicates of the query itself: they are excluded as chord candidates and
# the right-hand slope is read past them.  Without the snap, an envelope
# kink landing one ulp to the right of a grid point would masquerade as a
# one-ulp identity stretch and flip the supremum across its discontinuity.
QUERY_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class SingleCrossingReport:
    passed: bool
    anchored: bool          # alpha >= beta at x_lo (within 1e-12)
    grid: np.ndarray = field(repr=False, default=None)
    diff: np.ndarray = field(repr=False, default=None)
    witness: tuple | None = None  # (y_neg, y_pos) violating the sign pattern

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "anchored": self.anchored,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True, eq=False)
class AuditSchedule:
    """Closed-form evaluator for the two minimal audit probabilities."""

    pwl: PwlFunction
    env: Environment

    @classmethod
    def from_loss(cls, lam: LossFunction, env: Environment) -> "AuditSchedule":
        return cls(pwl=lam.shape, env=env)

    @classmethod
    def from_table(cls, grid, values, env: Environment) -> "AuditSchedule":
        """Schedule over the interpolant of a sampled loss table."""
        return cls(pwl=PwlFunction(np.asarray(grid, float), np.asarray(values, float)), env=env)

    # -- suffix hulls and tangents -------------------------------------------

    @cached_property
    def _slopes(self) -> np.ndarray:
        return self.pwl.slopes()

    @cached_property
    def _hull(self) -> np.ndarray:
        """Jump tables over the upper hulls of the breakpoint suffixes.

        Row 0 links breakpoint k to the next vertex of the upper hull of
        breakpoints k..n-1 (the last breakpoint links to itself); row j
        jumps 2**j hull vertices.  The pop test compares float slopes, the
        quantity the tangent search compares, not cross products.
        """
        xs, vs = self.pwl.xs.tolist(), self.pwl.vs.tolist()
        n = len(xs)
        nxt = [n - 1] * n
        edge = [0.0] * n  # slope from k to nxt[k]
        stack = [n - 1]
        for k in range(n - 2, -1, -1):
            xk, vk = xs[k], vs[k]
            while len(stack) > 1 and (vs[stack[-1]] - vk) / (xs[stack[-1]] - xk) <= edge[stack[-1]]:
                stack.pop()
            a = stack[-1]
            nxt[k], edge[k] = a, (vs[a] - vk) / (xs[a] - xk)
            stack.append(k)
        jumps = [np.array(nxt)]
        while len(jumps) < (n - 1).bit_length():  # ceil(log2 n) levels
            jumps.append(jumps[-1][jumps[-1]])
        return np.stack(jumps)

    def _check_y(self, ys: np.ndarray):
        slack = 1e-9 * max(1.0, self.env.span)
        if np.any(ys < self.env.x_lo - slack) or np.any(ys > self.env.x_hi + slack):
            bad = ys[(ys < self.env.x_lo - slack) | (ys > self.env.x_hi + slack)]
            raise DomainError(f"y={bad.flat[0]} outside [{self.env.x_lo}, {self.env.x_hi}]")

    def _right_slopes(self, ys: np.ndarray) -> np.ndarray:
        """Slope of the segment to the right of each y (last segment at x_hi)."""
        xs = self.pwl.xs
        snap = QUERY_SNAP_TOL * max(1.0, self.env.span)
        seg = np.clip(np.searchsorted(xs, ys + snap, side="right") - 1, 0, len(xs) - 2)
        return self._slopes[seg]

    def _sup_ratio(self, ys: np.ndarray, kind: str) -> np.ndarray:
        """Steepest slope from the alpha or beta reference point at each y to
        a breakpoint right of y; -inf where there is none."""
        xs, vs = self.pwl.xs, self.pwl.vs
        n = len(xs)
        snap = QUERY_SNAP_TOL * max(1.0, self.env.span)
        start = np.searchsorted(xs, ys + snap, side="right")
        px, py = (ys, ys) if kind == "alpha" else (-self.env.tau, self.pwl.eval(ys))
        jumps = self._hull

        def ratio(k):
            return (vs[k] - py) / (xs[k] - px)

        def rises(k):
            return ratio(jumps[0][k]) > ratio(k)

        with np.errstate(divide="ignore", invalid="ignore"):
            # descend to the last hull vertex from which the slope still
            # rises; the tangent vertex is the one after it
            cur = np.minimum(start, n - 1)
            for level in jumps[::-1]:
                cand = level[cur]
                cur = np.where(rises(cand), cand, cur)
            cur = np.where(rises(cur), jumps[0][cur], cur)
            return np.where(start < n, ratio(cur), -np.inf)

    # -- the two suprema ------------------------------------------------------

    def alpha_table(self, ys) -> np.ndarray:
        """Smallest audit probability deterring deviation to each y when the
        no-audit refund is withheld: max over chords from (y, y) into the graph."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        self._check_y(ys)
        span = max(1.0, self.env.span)
        best = self._sup_ratio(ys, "alpha")
        ly = self.pwl.eval(ys)
        on_id = np.abs(ly - ys) <= IDENTITY_EQ_TOL * span
        if np.any(on_id):
            best = np.where(on_id, np.maximum(best, self._right_slopes(ys)), best)
        out = np.clip(np.maximum(best, 0.0), 0.0, 1.0)
        return np.where(ys >= self.env.x_hi, 0.0, out)

    def beta_table(self, ys) -> np.ndarray:
        """Smallest audit probability deterring deviation to each y when the
        audit refund is maxed out: steepest loss gain per unit audited wealth."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        self._check_y(ys)
        best = self._sup_ratio(ys, "beta")
        out = np.clip(np.maximum(best, 0.0), 0.0, 1.0)  # the x = y term is 0
        return np.where(ys >= self.env.x_hi, 0.0, out)

    def audit_prob_table(self, ys) -> np.ndarray:
        return np.maximum(self.alpha_table(ys), self.beta_table(ys))

    def alpha(self, y: float) -> float:
        return float(self.alpha_table(np.array([y]))[0])

    def beta(self, y: float) -> float:
        return float(self.beta_table(np.array([y]))[0])

    def audit_prob(self, y: float) -> float:
        return max(self.alpha(y), self.beta(y))

    # -- crossover and the single-crossing diagnostic ----------------------

    def _scan_grid(self, n: int = 4097) -> np.ndarray:
        xs = self.pwl.xs
        mids = (xs[:-1] + xs[1:]) / 2.0
        grid = np.concatenate([np.linspace(self.env.x_lo, self.env.x_hi, n), xs, mids])
        return np.unique(grid)

    def crossover(self) -> float:
        """The type above which the binding deterrence instrument switches
        from withholding the no-audit refund to maxing out the audit refund.

        Located as the right edge of {alpha > beta} to 1e-10 * max(1, x_hi),
        by rescanning the bracket at the scan grid's length; x_lo when the
        strict set is empty, x_hi when it reaches the top.
        """
        xtol = CROSSOVER_XTOL * max(1.0, self.env.x_hi)  # above the float spacing
        lo, hi = self.env.x_lo, self.env.x_hi
        grid = self._scan_grid()
        while True:
            d = self.alpha_table(grid) - self.beta_table(grid)
            pos = np.nonzero(d > 0.0)[0]
            if len(pos) == 0:
                return lo
            i = int(pos[-1])
            if i == len(grid) - 1:
                return hi
            lo, hi = float(grid[i]), float(grid[i + 1])
            if hi - lo <= xtol:
                return 0.5 * (lo + hi)
            grid = np.linspace(lo, hi, len(grid))

    def check_single_crossing(self, grid_size: int) -> SingleCrossingReport:
        """Verify the difference alpha - beta never turns positive after
        having been negative, and that alpha >= beta at x_lo."""
        if grid_size < 2:
            raise DomainError("grid_size must be >= 2")
        grid = np.linspace(self.env.x_lo, self.env.x_hi, int(grid_size))
        d = self.alpha_table(grid) - self.beta_table(grid)
        eps = 1e-12
        witness = None
        seen_negative_at = None
        for y, val in zip(grid, d):
            if val < -eps and seen_negative_at is None:
                seen_negative_at = float(y)
            elif val > eps and seen_negative_at is not None:
                witness = (seen_negative_at, float(y))
                break
        anchored = d[0] >= -1e-12
        return SingleCrossingReport(
            passed=witness is None and anchored,
            anchored=bool(anchored),
            grid=grid,
            diff=d,
            witness=witness,
        )

    def table(self, ys) -> dict:
        """Columns (y, alpha, beta, a) for CSV export."""
        ys = np.asarray(ys, dtype=float)
        alpha = self.alpha_table(ys)
        beta = self.beta_table(ys)
        return {"y": ys, "alpha": alpha, "beta": beta, "a": np.maximum(alpha, beta)}
