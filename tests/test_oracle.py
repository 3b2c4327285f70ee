import numpy as np
import pytest

from samurai import (
    CostFn,
    DiscreteInstance,
    Environment,
    InstanceSizeError,
    Mechanism,
    bruteforce_deviation_loss,
    check_feasible,
    check_ic,
    cost_eval,
    debt_loss,
    deviation_loss_table,
    enumerate_feasible_ic,
    is_undominated,
)
from samurai.oracle import LATTICE_EQ_TOL

from conftest import build_on_types, make_env


def lattice_debt(env):
    """The threshold-1/2 debt mechanism on types {0, 1/2, 1}."""
    grid = np.array([0.0, 0.5, 1.0])
    return Mechanism(
        grid=grid,
        a=np.array([1.0, 0.0, 0.0]),
        r_p=np.zeros(3),
        r_empty=np.array([0.0, 0.0, 0.5]),
    )


class TestEnumeration:
    def test_single_type_counts(self, env):
        # at the lone type 0 with tau=0 the refund lattice collapses to {0},
        # leaving only the audit choice; both candidates are feasible and IC
        inst = DiscreteInstance(types=(0.0, 1.0), q=1, refund_levels=2, env=env)
        mechs = list(enumerate_feasible_ic(inst))
        assert len(mechs) == 12  # hand count: 4+8 over the two audit levels at 0
        for m in mechs:
            assert check_feasible(m, env).passed
            assert check_ic(m, env).passed

    def test_two_point_refund_lattice_spans_cap(self):
        env = make_env(tau=0.5)
        inst = DiscreteInstance(types=(0.0, 1.0), q=1, refund_levels=2, env=env)
        lat = inst.refund_lattice(1.0)
        assert lat[0] == 0.0 and lat[-1] == 1.5

    def test_instance_too_large(self, env):
        with pytest.raises(InstanceSizeError):
            DiscreteInstance(types=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), q=10, refund_levels=11, env=env)

    def test_empty_lattice_dimensions_rejected(self, env):
        with pytest.raises(ValueError):
            DiscreteInstance(types=(0.0, 1.0), q=0, refund_levels=2, env=env)
        with pytest.raises(ValueError):
            DiscreteInstance(types=(0.0, 1.0), q=1, refund_levels=1, env=env)

    def test_streaming_matches_vectorized_scan(self, env):
        # the dominance scanner and the generator must agree on the IC set
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=3, env=env)
        streamed = {
            tuple(np.concatenate([m.a, m.r_p, m.r_empty]).tolist())
            for m in enumerate_feasible_ic(inst)
        }
        from samurai.oracle import _ic_mask

        tables = [inst.options(t) for t in range(3)]
        count = 0
        import itertools

        for combo in itertools.product(*tables):
            tab = np.asarray(combo)
            if _ic_mask(inst, tab[None, :, 0], tab[None, :, 1], tab[None, :, 2])[0]:
                count += 1
                key = tuple(np.concatenate([tab[:, 0], tab[:, 1], tab[:, 2]]).tolist())
                assert key in streamed
        assert count == len(streamed)


class TestDominance:
    def test_lattice_debt_undominated_efficiency(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=5, env=env)
        verdict = is_undominated(lattice_debt(env), inst, "efficiency")
        assert verdict.undominated
        assert verdict.rounding_error == 0.0

    def test_lattice_debt_undominated_tightness(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=5, env=env)
        assert is_undominated(lattice_debt(env), inst, "tightness").undominated

    def test_wasteful_audit_dominated_with_witness(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=5, env=env)
        m = Mechanism(
            grid=np.array([0.0, 0.5, 1.0]),
            a=np.array([1.0, 0.0, 1.0]),
            r_p=np.array([0.0, 0.0, 0.5]),
            r_empty=np.zeros(3),
        )
        verdict = is_undominated(m, inst, "efficiency")
        assert not verdict.undominated
        w = verdict.witness
        assert w.a[2] < 1.0  # the witness saves the audit at the top type
        # and the witness indeed dominates: weakly better on both criteria
        r_m = m.grid - (m.a * m.r_p + (1 - m.a) * m.r_empty)
        r_w = w.grid - (w.a * w.r_p + (1 - w.a) * w.r_empty)
        assert np.all(r_w >= r_m - 1e-12) and np.all(w.a <= m.a + 1e-12)

    def test_audit_everything_undominated(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=5, env=env)
        m = Mechanism(
            grid=np.array([0.0, 0.5, 1.0]),
            a=np.array([1.0, 1.0, 0.0]),
            r_p=np.zeros(3),
            r_empty=np.zeros(3),
        )
        assert is_undominated(m, inst, "efficiency").undominated

    def test_constructor_restriction_undominated_both_modes(self):
        env = make_env(tau=0.5)
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=2, refund_levels=4, env=env)
        m = build_on_types(debt_loss(env, 0.5), env, inst.types)
        assert is_undominated(m, inst, "efficiency").undominated
        assert is_undominated(m, inst, "tightness").undominated

    def test_dominator_persists_under_refinement(self, env):
        # a dominator found at resolution q embeds at resolution 2q
        m = Mechanism(
            grid=np.array([0.0, 0.5, 1.0]),
            a=np.array([1.0, 0.0, 1.0]),
            r_p=np.array([0.0, 0.0, 0.5]),
            r_empty=np.zeros(3),
        )
        for q in (1, 2, 4):
            inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=q, refund_levels=5, env=env)
            assert not is_undominated(m, inst, "efficiency").undominated


class TestBruteforceDeviationLoss:
    def test_audit_everything(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=2, env=env)
        grid = np.array([0.0, 0.5, 1.0])
        m = Mechanism(grid=grid, a=np.ones(3), r_p=np.zeros(3), r_empty=np.zeros(3))
        assert np.array_equal(bruteforce_deviation_loss(m, inst), grid)

    def test_no_audit_no_refund(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=2, env=env)
        grid = np.array([0.0, 0.5, 1.0])
        m = Mechanism(grid=grid, a=np.zeros(3), r_p=np.zeros(3), r_empty=np.zeros(3))
        assert np.array_equal(bruteforce_deviation_loss(m, inst), np.zeros(3))

    def test_exactly_matches_table_code(self, env):
        inst = DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=5, env=env)
        m = lattice_debt(env)
        assert np.array_equal(bruteforce_deviation_loss(m, inst), deviation_loss_table(m))
        for cand in enumerate_feasible_ic(
            DiscreteInstance(types=(0.0, 0.5, 1.0), q=1, refund_levels=2, env=env)
        ):
            assert np.array_equal(bruteforce_deviation_loss(cand, inst), deviation_loss_table(cand))


def reference_witness(m, inst, mode):
    """First dominator of the lattice mechanism ``m``, straight from the definition.

    Walks every feasible IC lattice mechanism in lexicographic order and
    compares the criteria of the partial order, all oriented higher-is-better:
    revenue and negated audits for efficiency, profit and the deviation loss
    (by the explicit full scan) for tightness.
    """

    def criteria(c):
        revenue = c.grid - (c.a * c.r_p + (1.0 - c.a) * c.r_empty)
        if mode == "efficiency":
            return revenue, -c.a
        return revenue - cost_eval(inst.env.cost, c.a), bruteforce_deviation_loss(c, inst)

    eps = LATTICE_EQ_TOL
    target = criteria(m)
    for cand in enumerate_feasible_ic(inst):
        mine = criteria(cand)
        if all(np.all(x >= y - eps) for x, y in zip(mine, target)) and any(
            np.any(x - y > eps) for x, y in zip(mine, target)
        ):
            return cand
    return None


def assert_same_verdict(verdict, reference):
    assert verdict.undominated == (reference is None)
    if reference is not None:
        for key in ("grid", "a", "r_p", "r_empty"):
            assert np.array_equal(getattr(verdict.witness, key), getattr(reference, key))


class TestPrunedScanEquivalence:
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize("cost", [CostFn("linear", 0.1), CostFn("power", 0.7, 2.0), CostFn("power", 0.3, 1.5)])
    def test_random_targets_match_definition(self, tau, cost):
        env = Environment(x_lo=0.0, x_hi=1.0, tau=tau, cost=cost)
        rng = np.random.default_rng([int(tau * 2), int(cost.k * 10)])
        dominated = 0
        for _ in range(6):
            inst = None
            while inst is None or inst.candidate_count() > 6000:  # keeps the reference walk short
                types = (0.0, 1.0) if rng.integers(0, 3) == 0 else (0.0, float(rng.choice([0.25, 0.5])), 1.0)
                inst = DiscreteInstance(
                    types=types, q=int(rng.integers(1, 3)), refund_levels=int(rng.integers(2, 5)), env=env
                )
            rows = np.asarray([tab[rng.integers(0, len(tab))] for tab in map(inst.options, range(len(types)))])
            m = Mechanism(grid=np.asarray(types), a=rows[:, 0], r_p=rows[:, 1], r_empty=rows[:, 2])
            for mode in ("efficiency", "tightness"):
                verdict = is_undominated(m, inst, mode)
                reference = reference_witness(m, inst, mode)
                assert_same_verdict(verdict, reference)
                dominated += reference is not None
        assert 0 < dominated < 12  # both verdicts occur

    def test_dominator_by_deviation_loss_alone(self):
        # moving the top type's refund from the no-audit to the audit branch
        # keeps every profit but lifts that type's menu line, and with it
        # the deviation loss at the top: a dominator in tightness only
        env = make_env(tau=0.5)
        inst = DiscreteInstance(types=(0.0, 1.0), q=2, refund_levels=2, env=env)
        grid = np.array([0.0, 1.0])
        m = Mechanism(grid=grid, a=np.full(2, 0.5), r_p=np.zeros(2), r_empty=np.array([0.0, 1.5]))
        verdict = is_undominated(m, inst, "tightness")
        assert_same_verdict(verdict, reference_witness(m, inst, "tightness"))
        assert np.array_equal(verdict.witness.r_p, [0.0, 1.5])
        assert np.array_equal(verdict.witness.r_empty, [0.0, 0.0])

    def test_survivors_beyond_one_block(self, env):
        # a = 1 with r_p at the cap has the lowest revenue and the highest
        # audits possible, so every one of the 2 * 50**3 = 250,000 options
        # survives the per-type filter and the scan splits at type 0's audit
        # into two blocks of 125,000; the witness (a = 0 at type 0) lies in
        # the first, so the verdict decided the lattice up to the first
        # candidate of the second block
        types = (0.0, 0.25, 0.5, 1.0)
        inst = DiscreteInstance(types=types, q=1, refund_levels=5, env=env)
        counts = [len(inst.options(t)) for t in range(len(types))]
        assert counts == [2, 50, 50, 50]
        grid = np.asarray(types)
        m = Mechanism(grid=grid, a=np.ones(4), r_p=grid + env.tau, r_empty=np.zeros(4))
        verdict = is_undominated(m, inst, "efficiency")
        assert_same_verdict(verdict, reference_witness(m, inst, "efficiency"))
        assert verdict.witness.a[0] == 0.0
        assert verdict.candidates_checked == np.ravel_multi_index((1, 0, 0, 0), counts) == 125_000
