"""Model primitives: surplus bounds, the principal's funds, and the audit cost."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tolerances import NOISE

COST_KINDS = ("linear", "power")


@dataclass(frozen=True)
class CostFn:
    """Audit cost family.

    ``linear`` evaluates to ``k*a``; ``power`` to ``k*a**p``.  Both are
    continuous and strictly increasing on [0, 1] with cost 0 at a=0.
    """

    kind: str
    k: float
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; expected one of {COST_KINDS}")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"cost scale k must be finite and > 0, got {self.k}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"cost exponent p must be >= 1, got {self.p}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.k, "p": self.p}

    @classmethod
    def from_dict(cls, data: dict) -> "CostFn":
        return cls(kind=data["kind"], k=float(data["k"]), p=float(data.get("p", 1.0)))


@dataclass(frozen=True)
class Environment:
    """Immutable bundle of model primitives; shared freely across workers."""

    x_lo: float
    x_hi: float
    tau: float
    cost: CostFn

    def __post_init__(self):
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise ValueError("surplus bounds must be finite")
        if not 0 <= self.x_lo < self.x_hi:
            raise ValueError(f"need 0 <= x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"principal funds tau must be >= 0, got {self.tau}")

    @property
    def span(self) -> float:
        return self.x_hi - self.x_lo

    def to_dict(self) -> dict:
        return {"x_lo": self.x_lo, "x_hi": self.x_hi, "tau": self.tau, "cost": self.cost.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "Environment":
        return cls(
            x_lo=float(data["x_lo"]),
            x_hi=float(data["x_hi"]),
            tau=float(data["tau"]),
            cost=CostFn.from_dict(data["cost"]),
        )


def cost_eval(cost: CostFn, a):
    """Evaluate the audit cost at probability ``a`` (scalar or array).

    Raises DomainError if any value lies outside [0, 1]; values within
    NOISE of the bounds are clipped rather than rejected.
    """
    arr = np.asarray(a, dtype=float)
    if np.any(arr < -NOISE) or np.any(arr > 1 + NOISE):
        bad = arr[(arr < -NOISE) | (arr > 1 + NOISE)]
        raise DomainError(f"audit probability outside [0, 1]: {bad.flat[0]}")
    arr = np.clip(arr, 0.0, 1.0)
    if cost.kind == "linear":
        out = cost.k * arr
    else:
        out = cost.k * arr**cost.p
    if np.isscalar(a) or arr.ndim == 0:
        return float(out)
    return out
