"""Exact piecewise-linear function algebra.

Everything downstream (loss functions, audit schedules, envelopes) runs on
the PWL function here and on the lower envelope of a finite affine family.
The envelope is computed on exact breakpoints, never by grid sampling,
because its kinks generally fall off any preset grid and the chord suprema
taken later need them exactly.  Its one tolerance is the rounding bound of
one line's value, 8 * eps * (max|x| * max|slope| + max|intercept|): no line
lying deeper than that below the others is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import check_within, rounding_bound


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

    def eval(self, x):
        """Interpolate at ``x`` (scalar or array); exact at breakpoints."""
        arr = np.asarray(x, dtype=float)
        check_within(arr, self.x_lo, self.x_hi, self.span, "x")
        out = np.interp(np.clip(arr, self.x_lo, self.x_hi), self.xs, self.vs)
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out

    def slopes(self) -> np.ndarray:
        return np.diff(self.vs) / np.diff(self.xs)

    def __call__(self, x):
        return self.eval(x)


def affine_lower_envelope(slopes, intercepts, domain) -> PwlFunction:
    """Pointwise minimum of the lines ``slopes[i]*x + intercepts[i]``,
    restricted to ``domain``.

    The scan is the dual of a convex hull: sort by slope descending (the
    active order left to right for a minimum), merge nearly parallel lines,
    pop hull lines too shallow to resolve, and clip to the domain.  Every
    slope lies in [0, 1], so the result is concave and weakly increasing; a
    slope outside it or a non-finite line is a ValueError.

    A line is dropped only when it lies nowhere on the domain more than
    depth_tol = 8 * eps * (max(|lo|, |hi|) * max|s| + max|b|), the rounding
    bound of one line's value, below the lines it is dropped for:
    - a line whose slope is within depth_tol / max(|lo|, |hi|) of its
      group's steepest merges into the group's lowest intercept;
    - hull line j, between line k below it and the new line i, is popped
      when (x_ji - x_kj) * (s_k - s_j) * (s_j - s_i) / (s_k - s_i), its
      depth below min(k, i), is at most depth_tol (at 0: x_ji <= x_kj);
    - an end line goes when its width inside the domain times its slope
      gap to its neighbour is at most depth_tol.
    Rounding a crossing moves a depth by a few eps * max|b|, so the kinks
    that rounding alone makes, where nearly parallel lines cross, are popped.
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
    reach = max(abs(lo), abs(hi))
    depth_tol = rounding_bound(reach, float(s.max()), float(np.abs(b).max()))

    order = np.lexsort((b, -s))
    pruned: list[tuple[float, float]] = []  # (slope, intercept)
    for line in zip(s[order].tolist(), b[order].tolist()):
        # within depth_tol of the group's steepest slope: only the lower
        # intercept can win by more than depth_tol on the domain
        if pruned and (steepest - line[0]) * reach <= depth_tol:
            if line[1] < pruned[-1][1]:
                pruned[-1] = line
            continue
        steepest = line[0]
        pruned.append(line)

    hull = [pruned[0]]
    starts = [-np.inf]  # where each hull line becomes active
    for s_i, b_i in pruned[1:]:
        while True:
            # x where the steeper top line j drops below the flatter new one
            s_j, b_j = hull[-1]
            x_ji = (b_i - b_j) / (s_j - s_i)
            if len(hull) == 1:
                break
            s_k = hull[-2][0]
            if (x_ji - starts[-1]) * (s_k - s_j) * (s_j - s_i) / (s_k - s_i) > depth_tol:
                break
            hull.pop()
            starts.pop()
        hull.append((s_i, b_i))
        starts.append(x_ji)

    # clip the active intervals to [lo, hi]
    first = 0
    while first + 1 < len(hull) and (starts[first + 1] - lo) * (hull[first][0] - hull[first + 1][0]) <= depth_tol:
        first += 1
    last = len(hull) - 1
    while last > first and (hi - starts[last]) * (hull[last - 1][0] - hull[last][0]) <= depth_tol:
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
    return PwlFunction(np.array(out_x), np.array(out_v))
