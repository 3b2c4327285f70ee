"""Scale property (a metamorphic test): multiplying x_hi, tau and the cost
scale k by c multiplies every type, loss value, refund, revenue and cost
by c and leaves audit probabilities unchanged.  So construct, certify and
tighten must succeed at every c where they succeed at c = 1, on grids of
the same length, with the same audits and revenue / c, and the lattice
oracle must give the same verdicts.

Two lattices carry the oracle test.  The dyadic one (types at halves,
q 2, 3 refund levels) computes exactly at every c; on the thirds one
(types (0, c/3, c), q 3, 4 refund levels) the lattice values round, so a
money comparison that does not scale with c would show.

A shift of [x_lo, x_hi] is no such symmetry: the refund cap y + tau moves
with it, so it is not tested.
"""

import functools

import numpy as np
import pytest

from samurai import (
    DiscreteInstance,
    Mechanism,
    PwlFunction,
    build_efficient,
    certify_efficient,
    is_undominated,
    random_loss_function,
    report,
    revenue_table,
    tighten,
    validate_lambda,
)
from samurai.certify import CERTIFIED_EFFICIENT

from conftest import make_env

SCALES = [1e-3, 1e3, 1e6, 1e9, 1e12]
LOSSES = 100
GRID = 201
ORACLE_SEEDS = 20
LATTICES = {"dyadic": (2, 2, 3), "thirds": (3, 3, 4)}  # middle type c / k, q, refund levels


def scaled_env(c):
    return make_env(tau=0.5 * c, k=0.1 * c, x_hi=c)


@functools.cache
def pipeline(c):
    """Per seeded loss, scaled by c: the efficient mechanism's grid length,
    audits and revenue / c, after checking that it certifies and that
    tighten accepts it."""
    env = scaled_env(c)
    out = []
    for seed in range(LOSSES):
        lam = random_loss_function(scaled_env(1.0), np.random.default_rng(seed))
        lam = validate_lambda(PwlFunction(lam.xs * c, lam.vs * c), env)
        m = build_efficient(lam, env, GRID)
        assert certify_efficient(m, env).verdict == CERTIFIED_EFFICIENT, f"seed {seed}"
        tighten(m, env)
        out.append((len(m), m.a, revenue_table(m) / c))
    return out


@pytest.mark.parametrize("c", SCALES)
def test_construct_certify_tighten_commute_with_scale(c):
    for seed, ((n, a, rev), (n1, a1, rev1)) in enumerate(zip(pipeline(c), pipeline(1.0))):
        assert n == n1, f"seed {seed}"
        assert np.max(np.abs(a - a1)) <= 1e-13, f"seed {seed}"
        assert np.max(np.abs(rev - rev1)) <= 1e-13, f"seed {seed}"


def lattice_target(inst, rng):
    """A seeded feasible IC mechanism on the instance's lattice."""
    types = np.asarray(inst.types)
    while True:
        rows = [inst.options(t)[rng.integers(len(inst.options(t)))] for t in range(len(types))]
        a, r_p, r_empty = np.array(rows).T
        m = Mechanism(grid=types.copy(), a=a, r_p=r_p, r_empty=r_empty)
        if report(m, inst.env).ic:
            return m


@functools.cache
def verdicts(c, lattice):
    """Per seed and mode, the verdicts along the chain of witnesses from a
    seeded lattice mechanism to an undominated one: the candidates checked,
    and each witness's audits and refunds / c."""
    env = scaled_env(c)
    middle, q, levels = LATTICES[lattice]
    inst = DiscreteInstance(types=(0.0, c / middle, c), q=q, refund_levels=levels, env=env)
    out = []
    for seed in range(ORACLE_SEEDS):
        for mode in ("efficiency", "tightness"):
            m = lattice_target(inst, np.random.default_rng(seed))
            chain = []
            while (v := is_undominated(m, inst, mode)).witness is not None:
                m = v.witness
                chain.append((v.candidates_checked, m.a, np.stack([m.r_p, m.r_empty]) / c))
            out.append((v.candidates_checked, chain))
    return out


def assert_same_chains(c, lattice):
    for (checked, chain), (checked1, chain1) in zip(verdicts(c, lattice), verdicts(1.0, lattice)):
        assert checked == checked1 and len(chain) == len(chain1)
        for (n, a, refunds), (n1, a1, refunds1) in zip(chain, chain1):
            assert n == n1 and np.array_equal(a, a1)
            np.testing.assert_allclose(refunds, refunds1, rtol=1e-15, atol=0)


@pytest.mark.parametrize("c", SCALES)
def test_oracle_verdicts_commute_with_scale(c):
    assert_same_chains(c, "dyadic")


@pytest.mark.parametrize("c", SCALES)
def test_thirds_lattice_verdicts_commute_with_scale(c):
    assert_same_chains(c, "thirds")
