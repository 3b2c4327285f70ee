"""Independent brute-force verification on small discrete instances.

Every feasible IC mechanism on a finite lattice is enumerated and scanned
for a dominator in the chosen partial order; options that fail a per-type
dominance condition are dropped before the scan, and the scan drops every
partial candidate that already fails IC.  Verdicts are certified only
within the lattice; the instance description is part of the result so the
finite scope stays explicit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment, cost_eval
from .errors import InstanceSizeError, RoundingError
from .mechanism import Mechanism

ENUM_LIMIT = 1e8
LATTICE_EQ_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite type set with audit and refund lattices."""

    types: tuple
    q: int
    refund_levels: int
    env: Environment

    def __post_init__(self):
        types = tuple(float(t) for t in self.types)
        if not 1 <= len(types) <= 6:
            raise ValueError("instances support 1 to 6 types")
        if any(b <= a for a, b in zip(types, types[1:])):
            raise ValueError("types must be strictly increasing")
        if abs(types[0] - self.env.x_lo) > 1e-12 or abs(types[-1] - self.env.x_hi) > 1e-12:
            raise ValueError("type set must span the environment bounds")
        if not 1 <= self.q <= 10:
            raise ValueError("audit lattice resolution q must be in [1, 10]")
        if not 2 <= self.refund_levels <= 11:
            raise ValueError("refund lattice needs 2 to 11 levels")
        object.__setattr__(self, "types", types)
        estimate = self.candidate_count()
        if estimate > ENUM_LIMIT:
            raise InstanceSizeError(estimate, ENUM_LIMIT)

    def audit_lattice(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.q + 1)

    def refund_lattice(self, y: float) -> np.ndarray:
        cap = y + self.env.tau
        if cap <= 0:
            return np.array([0.0])
        return np.unique(np.linspace(0.0, cap, self.refund_levels))

    def options(self, t: int):
        """Lexicographic per-type option table: columns (a, r_p, r_empty)."""
        lat = self.refund_lattice(self.types[t])
        return np.asarray(list(itertools.product(self.audit_lattice(), lat, lat)), dtype=float)

    def candidate_count(self) -> float:
        total = 1.0
        for t in range(len(self.types)):
            levels = len(self.refund_lattice(self.types[t]))
            total *= (self.q + 1) * levels * levels
        return total


@dataclass(frozen=True)
class DominanceVerdict:
    undominated: bool
    mode: str
    witness: Mechanism | None
    rounding_error: float
    candidates_checked: int
    instance: DiscreteInstance = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "undominated": self.undominated,
            "mode": self.mode,
            "witness": self.witness.to_dict() if self.witness else None,
            "rounding_error": self.rounding_error,
            "candidates_checked": self.candidates_checked,
            "lattice": {
                "types": list(self.instance.types),
                "q": self.instance.q,
                "refund_levels": self.instance.refund_levels,
            }
            if self.instance
            else None,
        }


def bruteforce_deviation_loss(m: Mechanism, inst: DiscreteInstance) -> np.ndarray:
    """Deviation loss by explicit full scan, for cross-checking the table code."""
    grid = m.grid
    out = np.empty(len(grid))
    for j in range(len(grid)):
        x = float(grid[j])
        best = np.inf
        for i in range(j + 1):
            term = m.a[i] * x + (1.0 - m.a[i]) * (grid[i] - m.r_empty[i])
            if term < best:
                best = term
        out[j] = best
    return out


def _revenue(types, A, RP, RE) -> np.ndarray:
    return types - (A * RP + (1.0 - A) * RE)


def _ic_mask(inst: DiscreteInstance, A, RP, RE) -> np.ndarray:
    """Vectorized IC check for a block of candidates (rows) on the type set:
    at each type, the cheapest menu line of the types up to it covers the revenue."""
    types = np.asarray(inst.types)
    lines = A[:, :, None] * types + (1.0 - A[:, :, None]) * (types - RE)[:, :, None]  # [row, i, j]
    lam = np.where(np.tri(len(types), dtype=bool).T, lines, np.inf).min(axis=1)  # lines i <= j
    return np.all(lam >= _revenue(types, A, RP, RE) - LATTICE_EQ_TOL, axis=1)


def enumerate_feasible_ic(inst: DiscreteInstance):
    """Yield every feasible IC lattice mechanism, in lexicographic order.

    Streaming by design; callers that only need counts or scans should not
    materialize the sequence.
    """
    types = np.asarray(inst.types)
    option_tables = [inst.options(t) for t in range(len(types))]
    for combo in itertools.product(*option_tables):
        tab = np.asarray(combo)
        m = Mechanism(grid=types.copy(), a=tab[:, 0], r_p=tab[:, 1], r_empty=tab[:, 2])
        if _ic_mask(inst, tab[None, :, 0], tab[None, :, 1], tab[None, :, 2])[0]:
            yield m


def _round_to_lattice(values: np.ndarray, lattice: np.ndarray):
    idx = np.clip(np.searchsorted(lattice, values), 0, len(lattice) - 1)
    idx_lo = np.clip(idx - 1, 0, len(lattice) - 1)
    pick = np.where(
        np.abs(lattice[idx] - values) <= np.abs(lattice[idx_lo] - values), idx, idx_lo
    )
    rounded = lattice[pick]
    return rounded, float(np.max(np.abs(rounded - values), initial=0.0))


def _chunk_blocks(option_tables, max_block: int = 200_000):
    """Split the candidate product into blocks of trailing-type combinations."""
    counts = [len(t) for t in option_tables]
    split = 0
    trail = int(np.prod(counts))
    while split < len(counts) - 1 and trail > max_block:
        trail //= counts[split]
        split += 1
    return split, list(itertools.product(*[range(c) for c in counts[:split]]))


def _first_dominator(types, tables, mode, cost, target):
    """Options (rows a, r_p, r_empty) of the lexicographically first IC
    candidate in the product of ``tables`` strictly better than ``target``, or None.

    IC at a type speaks about that type's option and those below it only, so
    the product grows one type at a time and drops every prefix that fails
    it.  A prefix carries the cheapest menu line of its options at each type
    and whether it beats the target strictly somewhere.
    """
    R_t, a_hat, Pi_t, lam_t = target
    eps = LATTICE_EQ_TOL
    rows = np.zeros((1, 0), dtype=np.intp)  # option index per type of each kept prefix
    floor = np.full((1, len(types)), np.inf)
    strict = np.zeros(1, dtype=bool)
    for t, tab in enumerate(tables):
        a, rp, re = tab.T
        R = _revenue(types[t], a, rp, re)
        lines = a[:, None] * types + (1.0 - a[:, None]) * (types[t] - re[:, None])
        lam = np.minimum(floor[:, t : t + 1], lines[:, t])
        if mode == "efficiency":
            better = (R - R_t[t] > eps) | (a_hat[t] - a > eps)
        else:
            better = (R - cost_eval(cost, a) - Pi_t[t] > eps) | (lam - lam_t[t] > eps)
        strict = strict[:, None] | better
        ok = (lam >= R - eps) & (strict if t == len(tables) - 1 else True)  # a full candidate must gain
        p, c = np.nonzero(ok)  # row-major, so the prefixes stay in lexicographic order
        if not len(p):
            return None
        rows = np.column_stack([rows[p], c])
        floor = np.minimum(floor[p], lines[c])
        strict = strict[p, c]
    return np.array([tab[i] for tab, i in zip(tables, rows[0])])


def is_undominated(
    m: Mechanism,
    inst: DiscreteInstance,
    mode: str = "efficiency",
    max_rounding: float | None = None,
) -> DominanceVerdict:
    """Scan the lattice for a dominator of ``m`` in the chosen partial order.

    ``m`` is first rounded to the lattice; rounding beyond ``max_rounding``
    (default: half the smallest lattice step) is refused because the verdict
    would not speak about ``m`` anymore.  The first dominator found in
    lexicographic order is returned as the witness.
    """
    if mode not in ("efficiency", "tightness"):
        raise ValueError(f"unknown mode {mode!r}")
    types = np.asarray(inst.types)
    if len(m.grid) != len(types) or np.max(np.abs(m.grid - types)) > 1e-9:
        raise ValueError("mechanism grid must equal the instance type set")

    a_lat = inst.audit_lattice()
    a_hat, rounding_error = _round_to_lattice(m.a, a_lat)
    rp_hat, re_hat = m.r_p.astype(float), m.r_empty.astype(float)
    steps = list(np.diff(a_lat))
    for t in range(len(types)):
        lat = inst.refund_lattice(types[t])
        for hat in (rp_hat, re_hat):
            hat[t : t + 1], err = _round_to_lattice(hat[t : t + 1], lat)
            rounding_error = max(rounding_error, err)
        steps += list(np.diff(lat))
    limit = max_rounding if max_rounding is not None else 0.5 * min(steps) + 1e-12
    if rounding_error > limit:
        raise RoundingError(
            f"rounding error {rounding_error:.3g} exceeds {limit:.3g}; "
            "the lattice verdict would not describe this mechanism"
        )

    target = Mechanism(grid=types.copy(), a=a_hat, r_p=rp_hat, r_empty=re_hat)
    R_t = _revenue(types, a_hat, rp_hat, re_hat)
    lam_t = bruteforce_deviation_loss(target, inst)
    Pi_t = R_t - cost_eval(inst.env.cost, a_hat)
    eps = LATTICE_EQ_TOL

    # Every dominance condition speaks about one type's option alone, so each
    # option table is filtered first; only IC and strictness couple the types.
    # Filtering keeps lexicographic order, hence the same first witness.
    option_tables = [inst.options(t) for t in range(len(types))]
    counts = [len(table) for table in option_tables]
    keep = []
    for t, table in enumerate(option_tables):
        a, rp, re = table.T.copy()
        r = _revenue(types[t], a, rp, re)
        if mode == "efficiency":
            ok = (r >= R_t[t] - eps) & (a <= a_hat[t] + eps)
        else:
            ok = r - cost_eval(inst.env.cost, a) >= Pi_t[t] - eps
            # lambda_j is a minimum over menu lines, so it clears a floor
            # iff every line entering it does, among them this type's
            menu = a[:, None] * types[t:] + (1.0 - a[:, None]) * (types[t] - re[:, None])
            ok &= np.all(menu >= lam_t[t:] - eps, axis=1)
        keep.append(np.nonzero(ok)[0])
    survivors = [table[k] for table, k in zip(option_tables, keep)]

    split, blocks = _chunk_blocks(survivors)
    checked = int(np.prod(counts))
    witness = None
    for b, lead in enumerate(blocks):
        tables = [tab[lead[t] : lead[t] + 1] if t < split else tab for t, tab in enumerate(survivors)]
        found = _first_dominator(types, tables, mode, inst.env.cost, (R_t, a_hat, Pi_t, lam_t))
        if found is not None:
            witness = Mechanism(grid=types.copy(), a=found[:, 0], r_p=found[:, 1], r_empty=found[:, 2])
            if b + 1 < len(blocks):
                # rank in the full lattice of the first survivor left unscanned
                first = [keep[t][i] for t, i in enumerate(blocks[b + 1])] + [k[0] for k in keep[split:]]
                checked = int(np.ravel_multi_index(first, counts))
            break

    return DominanceVerdict(
        undominated=witness is None,
        mode=mode,
        witness=witness,
        rounding_error=rounding_error,
        candidates_checked=checked,
        instance=inst,
    )
