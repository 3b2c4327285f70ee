"""Exact piecewise-linear function algebra.

Everything downstream (loss functions, audit schedules, envelopes) runs on
the PWL function here and on the lower envelope of a finite affine family.
The envelope is computed on exact breakpoints, never by grid sampling,
because its kinks generally fall off any preset grid and the chord suprema
taken later need them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Breakpoints closer than this (scaled by the domain width) collapse to one.
BREAKPOINT_MERGE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction:
    """Piecewise-linear function given by breakpoints with strictly increasing x."""

    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise ValueError("breakpoints must be two aligned 1-d arrays")
        if len(xs) < 2:
            raise ValueError("a PWL function needs at least 2 breakpoints")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoint x-coordinates must be strictly increasing")
        xs.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)

    @property
    def x_lo(self) -> float:
        return float(self.xs[0])

    @property
    def x_hi(self) -> float:
        return float(self.xs[-1])

    @property
    def span(self) -> float:
        return self.x_hi - self.x_lo

    @classmethod
    def from_pairs(cls, pairs) -> "PwlFunction":
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected a sequence of (x, value) pairs")
        return cls(arr[:, 0].copy(), arr[:, 1].copy())

    def to_dict(self) -> dict:
        return {"breakpoints": [[float(x), float(v)] for x, v in zip(self.xs, self.vs)]}

    @classmethod
    def from_dict(cls, data: dict) -> "PwlFunction":
        return cls.from_pairs(data["breakpoints"])

    def _check_domain(self, x: np.ndarray):
        slack = 1e-9 * max(1.0, self.span)
        if np.any(x < self.x_lo - slack) or np.any(x > self.x_hi + slack):
            bad = x[(x < self.x_lo - slack) | (x > self.x_hi + slack)]
            raise DomainError(
                f"x={bad.flat[0]} outside domain [{self.x_lo}, {self.x_hi}]"
            )

    def eval(self, x):
        """Interpolate at ``x`` (scalar or array); exact at breakpoints."""
        arr = np.asarray(x, dtype=float)
        self._check_domain(arr)
        out = np.interp(np.clip(arr, self.x_lo, self.x_hi), self.xs, self.vs)
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out

    def slopes(self) -> np.ndarray:
        return np.diff(self.vs) / np.diff(self.xs)

    def __call__(self, x):
        return self.eval(x)


def _merge_close(xs: list, vs: list, atol: float):
    """Drop breakpoints whose x is within ``atol`` of the previous kept one."""
    out_x = [xs[0]]
    out_v = [vs[0]]
    for x, v in zip(xs[1:], vs[1:]):
        if x - out_x[-1] <= atol:
            continue
        out_x.append(x)
        out_v.append(v)
    # the right endpoint must survive; replace the last kept point if needed
    if out_x[-1] != xs[-1]:
        if xs[-1] - out_x[-1] <= atol and len(out_x) > 1:
            out_x[-1] = xs[-1]
            out_v[-1] = vs[-1]
        else:
            out_x.append(xs[-1])
            out_v.append(vs[-1])
    return out_x, out_v


def affine_lower_envelope(slopes, intercepts, domain) -> PwlFunction:
    """Pointwise minimum of the lines ``slopes[i]*x + intercepts[i]``,
    restricted to ``domain``.

    The scan is the dual of a convex hull: sort by slope descending (the
    active order left to right for a minimum), drop duplicate slopes keeping
    the lower intercept, then eliminate lines whose active interval is empty
    by pairwise intersections.  The result is concave and weakly increasing
    because every slope lies in [0, 1]; a slope outside it or a non-finite
    line is a ValueError.
    """
    s = np.asarray(slopes, dtype=float) + 0.0  # a -0.0 slope counts as +0.0
    b = np.asarray(intercepts, dtype=float)
    if s.ndim != 1 or s.shape != b.shape:
        raise ValueError("slopes and intercepts must be two aligned 1-d arrays")
    if not len(s):
        raise ValueError("need at least one line")
    if not (np.isfinite(s).all() and np.isfinite(b).all()):
        raise ValueError("slopes and intercepts must be finite")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("slopes must lie in [0, 1]")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError(f"empty domain [{lo}, {hi}]")

    order = np.lexsort((b, -s))
    slope_tol = 1e-14
    pruned: list[tuple[float, float]] = []  # (slope, intercept)
    for line in zip(s[order].tolist(), b[order].tolist()):
        if pruned and pruned[-1][0] - line[0] <= slope_tol:
            # effectively parallel: only the lower intercept can win, and the
            # slope gap moves the minimum by at most slope_tol * domain width
            if line[1] < pruned[-1][1]:
                pruned[-1] = line
            continue
        pruned.append(line)

    hull = [pruned[0]]
    starts = [-np.inf]  # where each hull line becomes active
    for line in pruned[1:]:
        s1, b1 = line
        while hull:
            # x where the steeper hull line drops below the flatter new one
            s0, b0 = hull[-1]
            xc = (b1 - b0) / (s0 - s1)
            if xc <= starts[-1]:
                hull.pop()
                starts.pop()
                continue
            hull.append(line)
            starts.append(xc)
            break
        if not hull:
            hull.append(line)
            starts.append(-np.inf)

    # clip the active intervals to [lo, hi]
    first = 0
    while first + 1 < len(hull) and starts[first + 1] <= lo:
        first += 1
    last = len(hull) - 1
    while last > first and starts[last] >= hi:
        last -= 1

    def at(k, x):
        return hull[k][0] * x + hull[k][1]

    out_x = [lo]
    out_v = [at(first, lo)]
    for k in range(first + 1, last + 1):
        out_x.append(starts[k])
        out_v.append(at(k, starts[k]))
    out_x.append(hi)
    out_v.append(at(last, hi))

    atol = BREAKPOINT_MERGE_ATOL * max(1.0, hi - lo)
    out_x, out_v = _merge_close(out_x, out_v, atol)
    return PwlFunction(np.array(out_x), np.array(out_v))
