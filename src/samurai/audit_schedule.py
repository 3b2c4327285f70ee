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
from .tolerances import NOISE, POINT, check_within, scale


@dataclass(frozen=True)
class SingleCrossingReport:
    passed: bool
    anchored: bool          # alpha >= beta at x_lo (within NOISE)
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

    def _right_slopes(self, ys: np.ndarray) -> np.ndarray:
        """Slope of the segment to the right of each y (last segment at x_hi)."""
        xs = self.pwl.xs
        snap = POINT * scale(self.env.span)  # as in _sup_ratio
        seg = np.clip(np.searchsorted(xs, ys + snap, side="right") - 1, 0, len(xs) - 2)
        return self._slopes[seg]

    def _tangent(self, start: np.ndarray, px, py) -> np.ndarray:
        """Index of the breakpoint at or right of each start with the steepest
        slope from (px, py): the first vertex of the suffix's upper hull from
        which that slope stops rising."""
        xs, vs = self.pwl.xs, self.pwl.vs
        jumps = self._hull

        def rises(k):
            nxt = jumps[0][k]
            return (vs[nxt] - py) / (xs[nxt] - px) > (vs[k] - py) / (xs[k] - px)

        with np.errstate(divide="ignore", invalid="ignore"):
            # descend to the last hull vertex from which the slope still
            # rises; the tangent vertex is the one after it
            cur = start
            for level in jumps[::-1]:
                cand = level[cur]
                cur = np.where(rises(cand), cand, cur)
            return np.where(rises(cur), jumps[0][cur], cur)

    def _sup_ratio(self, ys: np.ndarray, kind: str) -> np.ndarray:
        """Steepest slope from the alpha or beta reference point at each y to
        a breakpoint right of y; -inf where there is none."""
        xs, vs = self.pwl.xs, self.pwl.vs
        n = len(xs)
        # breakpoints this close right of y are float-noise copies of y, no
        # candidates: else a kink one ulp right would pose as an identity stretch
        start = np.searchsorted(xs, ys + POINT * scale(self.env.span), side="right")
        px, py = (ys, ys) if kind == "alpha" else (-self.env.tau, self.pwl.eval(ys))
        k = self._tangent(np.minimum(start, n - 1), px, py)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(start < n, (vs[k] - py) / (xs[k] - px), -np.inf)

    # -- the two suprema ------------------------------------------------------

    def alpha_table(self, ys) -> np.ndarray:
        """Smallest audit probability deterring deviation to each y when the
        no-audit refund is withheld: max over chords from (y, y) into the graph."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        check_within(ys, self.env.x_lo, self.env.x_hi, self.env.span, "y")
        best = self._sup_ratio(ys, "alpha")
        ly = self.pwl.eval(ys)
        on_id = np.abs(ly - ys) <= NOISE * scale(self.env.span)
        if np.any(on_id):
            best = np.where(on_id, np.maximum(best, self._right_slopes(ys)), best)
        out = np.clip(np.maximum(best, 0.0), 0.0, 1.0)
        return np.where(ys >= self.env.x_hi, 0.0, out)

    def beta_table(self, ys) -> np.ndarray:
        """Smallest audit probability deterring deviation to each y when the
        audit refund is maxed out: steepest loss gain per unit audited wealth."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        check_within(ys, self.env.x_lo, self.env.x_hi, self.env.span, "y")
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

    def crossover(self) -> float:
        """The type above which the binding deterrence instrument switches
        from withholding the no-audit refund to maxing out the audit refund:
        the right edge of {alpha > beta}, or x_lo when that set is empty.

        alpha(y) > beta(y) exactly when beta(y) * (y + tau) > y - loss(y).
        The line of slope beta(y) through (y, y) is parallel to beta's
        tangent through (-tau, loss(y)) and lies y - loss(y) - beta(y)(y + tau)
        above it, so it passes below the tangent vertex exactly when that gap
        is negative.  On a loss between -tau and the identity, the clips into
        [0, 1] and alpha's identity stretch change none of these signs.

        On loss segment i write y = x_i + u, u in [0, w_i].  Then
        Q_j(u) = (v_j - loss(y))(y + tau) - (y - loss(y))(x_j + tau) is a
        quadratic in u, and some breakpoint j right of y has Q_j(u) > 0
        exactly when beta's tangent vertex has.  Over the segment that
        vertex lies between its places at the two ends, so each j between
        them is tried: the edge is the largest x_i + w_i with Q_j(w_i) > 0,
        or else the largest x_i plus the root where Q_j falls through 0.
        """
        xs, vs, tau = self.pwl.xs, self.pwl.vs, self.env.tau
        seg = np.arange(len(xs) - 1)
        ends = (self._tangent(seg + 1, -tau, vs[:-1]), self._tangent(seg + 1, -tau, vs[1:]))
        first, count = np.minimum(*ends), np.abs(ends[0] - ends[1]) + 1
        i = np.repeat(seg, count)
        j = first[i] + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
        # where alpha and beta meet at a shallow angle the coefficients cancel:
        # in float64 the edge lands up to 31 ulps off on random losses, in
        # long double (64-bit mantissa on x86) within an ulp
        xs, vs = xs.astype(np.longdouble), vs.astype(np.longdouble)
        slope = (np.diff(vs) / np.diff(xs))[i]
        reach, gap = xs + tau, xs - vs  # x + tau and x - loss(x) at every breakpoint
        # Q_j(u) = -slope u^2 + b u + c
        gain = vs[j] - vs[i]
        b = gain - slope * reach[i] - (1.0 - slope) * reach[j]
        c = gain * reach[i] - gap[i] * reach[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            # the root where Q_j falls through 0, in the form that does not
            # cancel; it holds for either sign of the u^2 coefficient
            root_d = np.sqrt(b * b + 4.0 * slope * c)
            root = np.where(b <= 0.0, 2.0 * c / (root_d - b), (b + root_d) / (2.0 * slope))
        falls = (root > 0.0) & (xs[i] + root <= xs[i + 1])
        ends_positive = (vs[j] - vs[i + 1]) * reach[i + 1] - gap[i + 1] * reach[j] > 0.0
        edges = np.concatenate([xs[i + 1][ends_positive], (xs[i] + root)[falls]])
        return float(edges.max()) if len(edges) else self.env.x_lo

    def check_single_crossing(self, grid_size: int) -> SingleCrossingReport:
        """Verify the difference alpha - beta never turns positive after
        having been negative, and that alpha >= beta at x_lo."""
        if grid_size < 2:
            raise DomainError("grid_size must be >= 2")
        grid = np.linspace(self.env.x_lo, self.env.x_hi, int(grid_size))
        d = self.alpha_table(grid) - self.beta_table(grid)
        witness = None
        below = np.flatnonzero(d < -NOISE)
        if len(below):
            # the first value above eps after the first value below -eps
            above = below[0] + 1 + np.flatnonzero(d[below[0] + 1 :] > NOISE)
            if len(above):
                witness = (float(grid[below[0]]), float(grid[above[0]]))
        anchored = d[0] >= -NOISE
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
