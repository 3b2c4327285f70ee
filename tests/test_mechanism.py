import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samurai import (
    DomainError,
    Mechanism,
    check_feasible,
    check_ic,
    deviation_loss,
    deviation_loss_table,
    profit,
    report,
    revenue,
    revenue_table,
    system_holds,
    utility,
)
from samurai.environment import CostFn, Environment
from samurai.mechanism import MENU_BLOCK

from conftest import make_env, random_mechanism


def mech(grid, a, r_p, r_e):
    return Mechanism(
        grid=np.asarray(grid, float),
        a=np.asarray(a, float),
        r_p=np.asarray(r_p, float),
        r_empty=np.asarray(r_e, float),
    )


def uniform_mech(n=11, a=1.0, r_p=0.0, r_e=0.0):
    grid = np.linspace(0, 1, n)
    return mech(grid, np.full(n, a), np.full(n, r_p), np.full(n, r_e))


class TestScalars:
    def test_revenue_full_seizure(self):
        m = uniform_mech()
        assert revenue(m, 0.7) == pytest.approx(0.7)

    def test_revenue_full_refund(self):
        grid = np.linspace(0, 1, 11)
        m = mech(grid, np.zeros(11), np.zeros(11), grid)
        assert revenue(m, 0.4) == pytest.approx(0.0)

    def test_revenue_mixed(self):
        m = mech([0, 1], [0.5, 0.5], [0.2, 0.2], [0.4, 0.4])
        assert revenue(m, 1.0) == pytest.approx(0.7)

    def test_utility_is_complement(self):
        m = mech([0, 1], [0.0, 0.0], [0.0, 0.0], [0.3, 0.3])
        assert utility(m, 1.0) == pytest.approx(0.3)
        assert utility(m, 1.0) + revenue(m, 1.0) == pytest.approx(1.0)

    def test_profit_linear_cost(self):
        env = make_env(k=0.1)
        m = uniform_mech()
        assert profit(m, env, 0.7) == pytest.approx(0.6)

    def test_profit_power_cost(self):
        env = Environment(0.0, 1.0, 0.0, CostFn("power", 1.0, 2.0))
        m = mech([0, 1], [0.5, 0.5], [0.2, 0.2], [0.4, 0.4])
        assert profit(m, env, 1.0) == pytest.approx(0.7 - 0.25)

    def test_off_grid_is_domain_error(self):
        m = uniform_mech()
        with pytest.raises(DomainError):
            revenue(m, 0.55)


class TestDeviationLoss:
    def test_audit_everything(self):
        m = uniform_mech(a=1.0)
        assert deviation_loss(m, 0.7) == pytest.approx(0.7)

    def test_no_audit_zero_refund(self):
        m = uniform_mech(a=0.0)
        assert deviation_loss(m, 0.7) == pytest.approx(0.0)

    def test_debt_mechanism_double_loop(self):
        grid = np.linspace(0, 1, 21)
        a = np.where(grid < 0.5, 1.0, 0.0)
        r_e = np.where(grid < 0.5, 0.0, grid - 0.5)
        m = mech(grid, a, np.zeros_like(grid), r_e)
        table = deviation_loss_table(m)
        # independent full double loop
        for j, x in enumerate(grid):
            best = min(
                a[i] * x + (1 - a[i]) * (grid[i] - r_e[i]) for i in range(j + 1)
            )
            assert table[j] == best
        assert np.max(np.abs(table - np.minimum(grid, 0.5))) < 1e-12

    def test_scalar_matches_table(self):
        rng = np.random.default_rng(2)
        m = random_mechanism(make_env(tau=0.5), rng, n=41)
        table = deviation_loss_table(m)
        for j in (0, 7, 40):
            assert deviation_loss(m, float(m.grid[j])) == table[j]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_drops_only_through_newly_added_menu_line(self, seed):
        # every menu line is nondecreasing in x, so the minimum over a fixed
        # prefix cannot fall; the loss can only drop where the newly added
        # type's own line undercuts the running minimum
        rng = np.random.default_rng(seed)
        n = 31
        grid = np.linspace(0, 1, n)
        a = np.sort(rng.uniform(0, 1, n))[::-1]
        r_e = rng.uniform(0, grid + 0.0)
        m = mech(grid, a, np.zeros(n), r_e)
        table = deviation_loss_table(m)
        own = a * grid + (1 - a) * (grid - r_e)
        drops = np.nonzero(np.diff(table) < -1e-12)[0] + 1
        assert np.all(np.abs(table[drops] - own[drops]) < 1e-12)

    def test_weakly_increasing_for_constructed_mechanisms(self, env):
        # constructor outputs reproduce an admissible (increasing) loss
        from samurai import build_efficient, debt_loss

        m = build_efficient(debt_loss(env, 0.4), env, 101)
        assert np.all(np.diff(deviation_loss_table(m)) >= -1e-12)


class TestFeasibility:
    def test_boundary_refund_allowed(self):
        env = make_env(tau=0.5)
        grid = np.linspace(0, 1, 5)
        m = mech(grid, np.zeros(5), grid + 0.5, np.zeros(5))
        assert check_feasible(m, env).passed

    def test_refund_above_cap_flagged(self, env):
        grid = np.linspace(0, 1, 5)
        r_e = np.zeros(5)
        r_e[2] = grid[2] + 0.01
        m = mech(grid, np.zeros(5), np.zeros(5), r_e)
        result = check_feasible(m, env)
        assert not result.passed
        assert result.violations[0]["index"] == 2

    def test_probability_above_one_flagged(self, env):
        m = uniform_mech(a=1.2)
        assert not check_feasible(m, env).passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["grid", "a", "r_p", "r_empty"])
    def test_non_finite_entry_rejected(self, name, bad):
        tables = uniform_mech(n=5).to_dict()
        for i in range(5):
            tables[name][i], kept = bad, tables[name][i]
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                Mechanism.from_dict(tables)
            tables[name][i] = kept


class TestIC:
    def test_audit_everything_full_seizure_ic(self, env):
        m = uniform_mech(a=1.0)
        assert check_ic(m, env).passed

    def test_never_audit_zero_refund_not_ic(self, env):
        m = uniform_mech(a=0.0)
        result = check_ic(m, env)
        assert not result.passed
        assert all(w["x"] > 0 for w in result.violations)

    def test_report_tables_consistent(self, env):
        rng = np.random.default_rng(8)
        m = random_mechanism(env, rng, n=51)
        rep = report(m, env)
        assert np.allclose(rep.utility + rep.revenue, m.grid)
        assert rep.ic
        assert np.array_equal(rep.revenue, revenue_table(m))


class TestSystem:
    def test_identity_audit_everything_passes(self, env):
        grid = np.linspace(0, 1, 11)
        assert system_holds(grid, grid, np.ones_like(grid), env).passed

    def test_identity_never_audit_fails_at_corner(self, env):
        grid = np.linspace(0, 1, 11)
        result = system_holds(grid, grid, np.zeros_like(grid), env)
        assert not result.passed
        worst = result.violations[-1]
        assert worst["x"] == pytest.approx(1.0)
        assert worst["y"] == pytest.approx(0.0)

    def test_smooth_pair_passes(self, env):
        grid = np.linspace(0, 1, 101)
        assert system_holds(grid, grid / 2, (1 - grid) / 2, env).passed

    def test_every_ic_mechanism_satisfies_system(self):
        rng = np.random.default_rng(12)
        for tau in (0.0, 0.5):
            env = make_env(tau=tau)
            for _ in range(20):
                m = random_mechanism(env, rng, n=61)
                rep = report(m, env)
                assert rep.ic
                assert system_holds(m.grid, rep.deviation_loss, m.a, env).passed


def menu_tables(rng, n):
    """Grid, audits and no-audit refunds with zero audits, full audits and
    tied menu lines.

    The grid and the gaps y - r_empty(y) are multiples of 1/64, so copying
    the audit and the gap of the previous type gives an exactly tied line."""
    grid = np.arange(n) / 64.0
    kind = rng.integers(0, 3, n)
    a = np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, rng.uniform(0, 1, n)))
    gap = rng.integers(-32, 32, n) / 64.0
    for i in np.nonzero(rng.uniform(size=n) < 0.3)[0]:
        if i > 0:
            a[i], gap[i] = a[i - 1], gap[i - 1]
    return grid, a, grid - gap


def reference_lowest(grid, a, c):
    """The running minimum over the full n x n table of menu terms."""
    terms = np.outer(a, grid) + c[:, None]
    return terms, np.minimum.accumulate(terms, axis=0).diagonal()


def reference_system(grid, lam, a, env, tol=1e-9):
    """Violations of the refund system by the argmin of each full column."""
    phi = np.minimum((1.0 - a) * grid, lam + a * env.tau)
    terms, lowest = reference_lowest(grid, a, phi)
    violations = []
    for j in np.nonzero(lowest - lam < -tol)[0]:
        i = int(np.argmin(terms[: j + 1, j]))
        violations.append({"x": float(grid[j]), "y": float(grid[i]), "lhs": float(lam[j]), "rhs": float(terms[i, j])})
    return violations


def same_bits(u, v):
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


def check_menu_kernel(seed, n):
    rng = np.random.default_rng(seed)
    grid, a, r_e = menu_tables(rng, n)
    m = mech(grid, a, np.zeros(n), r_e)
    table = deviation_loss_table(m)
    _, lowest = reference_lowest(grid, a, (1.0 - a) * (grid - r_e))
    assert same_bits(table, lowest)
    for j in {0, n // 2, n - 1}:
        assert same_bits(np.array([deviation_loss(m, float(grid[j]))]), table[j : j + 1])
    # an IC mechanism's deviation loss satisfies the refund system; raising
    # a tenth of its values breaks it at some of those points
    env = make_env(tau=float(rng.choice([0.0, 0.5])))
    m = random_mechanism(env, rng, n)
    lam = deviation_loss_table(m) + np.where(rng.uniform(size=n) < 0.1, rng.uniform(0, 0.05, n), 0.0)
    result = system_holds(m.grid, lam, m.a, env)
    expected = reference_system(m.grid, lam, m.a, env)
    assert result.violations == expected
    assert result.passed == (not expected)


class TestMenuKernel:
    @pytest.mark.parametrize("n", [1, MENU_BLOCK - 1, MENU_BLOCK, MENU_BLOCK + 1, 2 * MENU_BLOCK + 1])
    def test_block_edges_match_full_running_minimum(self, n):
        for seed in range(3):
            check_menu_kernel(seed, n)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 3 * MENU_BLOCK + 5))
    @settings(max_examples=30, deadline=None)
    def test_random_sizes_match_full_running_minimum(self, seed, n):
        check_menu_kernel(seed, n)

    def test_violated_systems_report_column_argmin(self, env):
        grid = np.linspace(0, 1, 2 * MENU_BLOCK + 1)
        a = np.zeros_like(grid)
        a[::7] = 1.0
        lam = grid.copy()
        lam[0] = 0.25  # above the identity: the only line at y = 0 is its own witness
        result = system_holds(grid, lam, a, env)
        assert not result.passed
        assert result.violations[0] == {"x": 0.0, "y": 0.0, "lhs": 0.25, "rhs": 0.0}
        assert result.violations == reference_system(grid, lam, a, env)

    def test_memory_stays_linear(self, env):
        n = 8001
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, n)
        m = mech(grid, rng.uniform(0, 1, n), np.zeros(n), rng.uniform(0, 1, n))
        for run in (lambda: deviation_loss_table(m), lambda: system_holds(grid, np.zeros(n), m.a, env)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20


def test_json_roundtrip_bit_identical(env):
    rng = np.random.default_rng(4)
    m = random_mechanism(env, rng, n=17)
    again = Mechanism.from_dict(m.to_dict())
    assert np.array_equal(again.grid, m.grid)
    assert np.array_equal(again.a, m.a)
    assert np.array_equal(again.r_p, m.r_p)
    assert np.array_equal(again.r_empty, m.r_empty)
