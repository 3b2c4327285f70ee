"""Independent brute-force verification on small discrete instances.

Every feasible IC mechanism on a finite lattice is enumerated and scanned
for a dominator in the chosen partial order; options that fail a per-type
dominance condition are dropped before the scan, and the scan drops every
partial candidate that already fails IC.  Verdicts are certified only
within the lattice; the instance description is part of the result so the
finite scope stays explicit.

Everything that depends on the instance alone (its lattices, option tables
and their per-option revenue, profit and menu lines) is built once, when
the instance is made, and is read-only; a verdict rounds its target, filters
those tables and scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment, cost_eval
from .errors import InstanceSizeError, RoundingError
from .mechanism import Mechanism
from .tolerances import GATE, NOISE, POINT, scale

ENUM_LIMIT = 1e8


def _frozen(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite type set with audit and refund lattices.

    The lattices, the option tables and each option's revenue, profit and
    menu lines are built once in the constructor and are read-only, so one
    instance serves any number of verdicts.
    """

    types: tuple
    q: int
    refund_levels: int
    env: Environment
    _audit: np.ndarray = field(init=False, repr=False, compare=False)
    _refunds: tuple = field(init=False, repr=False, compare=False)  # refund lattice per type
    _levels: np.ndarray = field(init=False, repr=False, compare=False)  # type x level lattice matrix
    _tables: tuple = field(init=False, repr=False, compare=False)  # per type: options, R, Pi, lines
    _limit: float = field(init=False, repr=False, compare=False)  # default rounding limit

    def __post_init__(self):
        types = tuple(float(t) for t in self.types)
        if not 1 <= len(types) <= 6:
            raise ValueError("instances support 1 to 6 types")
        if any(b <= a for a, b in zip(types, types[1:])):
            raise ValueError("types must be strictly increasing")
        if abs(types[0] - self.env.x_lo) > NOISE or abs(types[-1] - self.env.x_hi) > NOISE:
            raise ValueError("type set must span the environment bounds")
        if not 1 <= self.q <= 10:
            raise ValueError("audit lattice resolution q must be in [1, 10]")
        if not 2 <= self.refund_levels <= 11:
            raise ValueError("refund lattice needs 2 to 11 levels")
        audit = _frozen(np.linspace(0.0, 1.0, self.q + 1))
        caps = [y + self.env.tau for y in types]
        refunds = tuple(
            _frozen(np.unique(np.linspace(0.0, cap, self.refund_levels)) if cap > 0 else [0.0]) for cap in caps
        )
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "_audit", audit)
        object.__setattr__(self, "_refunds", refunds)
        estimate = self.candidate_count()
        if estimate > ENUM_LIMIT:
            raise InstanceSizeError(estimate, ENUM_LIMIT)

        # all types' options stacked in type order, so that revenue, profit
        # and menu lines take one vectorized pass, then split per type
        grid = np.asarray(types)
        blocks = [list(itertools.product(audit.tolist(), lat.tolist(), lat.tolist())) for lat in refunds]
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(blocks))
        options = np.fromiter(flat, dtype=float).reshape(-1, 3)
        counts = [len(block) for block in blocks]
        y = np.repeat(grid, counts)  # the type each option belongs to
        a, rp, re = options.T
        R = _revenue(y, a, rp, re)
        lines = a[:, None] * grid + (1.0 - a[:, None]) * (y - re)[:, None]
        columns = [_frozen(arr) for arr in (options, R, R - cost_eval(self.env.cost, a), lines)]
        ends = np.cumsum(counts).tolist()
        tables = [tuple(col[lo:hi] for col in columns) for lo, hi in zip([0, *ends], ends)]
        # rows shorter than the widest lattice repeat their last point
        width = np.arange(max(map(len, refunds)))
        levels = [lat[np.minimum(width, len(lat) - 1)] for lat in refunds]
        steps = [np.min(np.diff(lat)) for lat in (audit, *refunds) if len(lat) > 1]
        object.__setattr__(self, "_levels", _frozen(levels))
        object.__setattr__(self, "_tables", tuple(tables))
        object.__setattr__(self, "_limit", 0.5 * min(steps) + NOISE)

    def audit_lattice(self) -> np.ndarray:
        return self._audit

    def refund_lattice(self, t: int) -> np.ndarray:
        """The refund lattice [0, y + tau] of type t, y = ``types[t]``."""
        return self._refunds[t]

    def options(self, t: int):
        """Lexicographic per-type option table: columns (a, r_p, r_empty)."""
        return self._tables[t][0]

    def candidate_count(self) -> float:
        total = 1.0
        for lat in self._refunds:
            total *= (self.q + 1) * len(lat) * len(lat)
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
    return np.all(lam >= _revenue(types, A, RP, RE) - GATE * scale(inst.env.span), axis=1)


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


def _round_per_type(values: np.ndarray, levels: np.ndarray):
    """Round every ``values[..., t]`` to the nearest point of row t of
    ``levels`` (the type x level lattice matrix) in one call; a one-row
    matrix is the lattice of every type.  Returns the rounded values and the
    largest rounding error.

    Counting the points below a value gives its left insertion point, and the
    nearer of its two neighbours wins, a tie going to the upper one.  A row
    shorter than the widest lattice repeats its last point, which adds only
    neighbours equal to that point, so every row acts as its own lattice.
    """
    idx = np.minimum(np.sum(levels < values[..., None], axis=-1), levels.shape[-1] - 1)
    rows = np.arange(len(levels))
    upper, lower = levels[rows, idx], levels[rows, np.maximum(idx - 1, 0)]
    rounded = np.where(np.abs(upper - values) <= np.abs(lower - values), upper, lower)
    return rounded, float(np.max(np.abs(rounded - values), initial=0.0))


def _chunk_blocks(option_tables, max_block: int = 200_000):
    """Split the candidate product into blocks of trailing-type combinations."""
    counts = [len(t) for t in option_tables]
    split = 0
    trail = int(np.prod(counts))
    while split < len(counts) - 1 and trail > max_block:
        trail //= counts[split]
        split += 1
    return split, list(np.ndindex(*counts[:split]))


def _first_dominator(tables, mode, target, money_tol):
    """Options (rows a, r_p, r_empty) of the lexicographically first IC
    candidate in the product of ``tables`` strictly better than ``target``, or None.

    ``tables`` holds per type the options and their revenue, profit and menu
    lines at every type.  IC at a type speaks about that type's option and
    those below it only, so the product grows one type at a time and drops
    every prefix that fails it.  A prefix carries the cheapest menu line of
    its options at each type and whether it beats the target strictly somewhere.
    Money compares at ``money_tol``, audits at GATE.
    """
    R_t, a_hat, Pi_t, lam_t = target
    rows = np.zeros((1, 0), dtype=np.intp)  # option index per type of each kept prefix
    floor = np.full((1, len(tables)), np.inf)
    strict = np.zeros(1, dtype=bool)
    for t, (options, R, Pi, lines) in enumerate(tables):
        lam = np.minimum(floor[:, t : t + 1], lines[:, t])
        if mode == "efficiency":
            better = (R - R_t[t] > money_tol) | (a_hat[t] - options[:, 0] > GATE)
        else:
            better = (Pi - Pi_t[t] > money_tol) | (lam - lam_t[t] > money_tol)
        strict = strict[:, None] | better
        ok = (lam >= R - money_tol) & (strict if t == len(tables) - 1 else True)  # a full candidate must gain
        p, c = np.nonzero(ok)  # row-major, so the prefixes stay in lexicographic order
        if not len(p):
            return None
        rows = np.column_stack([rows[p], c])
        floor = np.minimum(floor[p], lines[c])
        strict = strict[p, c]
    return np.array([options[i] for (options, *_), i in zip(tables, rows[0])])


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
    if len(m.grid) != len(types) or np.max(np.abs(m.grid - types)) > POINT:
        raise ValueError("mechanism grid must equal the instance type set")

    a_hat, audit_error = _round_per_type(m.a, inst._audit[None])
    (rp_hat, re_hat), refund_error = _round_per_type(np.stack([m.r_p, m.r_empty]), inst._levels)
    rounding_error = max(audit_error, refund_error)
    limit = max_rounding if max_rounding is not None else inst._limit
    if rounding_error > limit:
        raise RoundingError(
            f"rounding error {rounding_error:.3g} exceeds {limit:.3g}; "
            "the lattice verdict would not describe this mechanism"
        )

    target = Mechanism(grid=types.copy(), a=a_hat, r_p=rp_hat, r_empty=re_hat)
    R_t = _revenue(types, a_hat, rp_hat, re_hat)
    lam_t = bruteforce_deviation_loss(target, inst)
    Pi_t = R_t - cost_eval(inst.env.cost, a_hat)
    money_tol = GATE * scale(inst.env.span)

    # Every dominance condition speaks about one type's option alone, so each
    # option table is filtered first; only IC and strictness couple the types.
    # Filtering keeps lexicographic order, hence the same first witness.
    keep = []
    for t, (options, R, Pi, lines) in enumerate(inst._tables):
        if mode == "efficiency":
            ok = (R >= R_t[t] - money_tol) & (options[:, 0] <= a_hat[t] + GATE)
        else:
            # lambda_j is a minimum over menu lines, so it clears a floor
            # iff every line entering it does, among them this type's
            ok = (Pi >= Pi_t[t] - money_tol) & np.all(lines[:, t:] >= lam_t[t:] - money_tol, axis=1)
        keep.append(np.nonzero(ok)[0])
    survivors = [tuple(arr[k] for arr in table) for table, k in zip(inst._tables, keep)]

    counts = [len(table[0]) for table in inst._tables]
    split, blocks = _chunk_blocks([options for options, *_ in survivors])
    checked = int(np.prod(counts))
    witness = None
    for b, lead in enumerate(blocks):
        tables = [
            tuple(arr[lead[t] : lead[t] + 1] for arr in table) if t < split else table
            for t, table in enumerate(survivors)
        ]
        found = _first_dominator(tables, mode, (R_t, a_hat, Pi_t, lam_t), money_tol)
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
