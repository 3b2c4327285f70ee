import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samurai import (
    DomainError,
    Mechanism,
    PwlFunction,
    build_efficient,
    check_feasible,
    check_ic,
    deviation_loss,
    deviation_loss_table,
    profit,
    random_loss_function,
    refunds_from,
    report,
    revenue,
    revenue_table,
    system_holds,
    utility,
    validate_lambda,
)
from samurai.environment import CostFn, Environment
from samurai.mechanism import _SCAN_GROUP, MENU_BLOCK, _block_lines, _menu_min

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

    @pytest.mark.parametrize("x_hi", [1.0, 1e6])
    @pytest.mark.parametrize("a0", [1 + 5e-7, -5e-7, 1 + 5e-13, -5e-13])
    def test_audit_bound_does_not_scale_with_the_span(self, x_hi, a0):
        # probabilities are unitless: whatever check_feasible accepts, the
        # audit cost (and so report) accepts too, at every span
        env = make_env(x_hi=x_hi)
        grid = np.linspace(0.0, x_hi, 5)
        m = mech(grid, [a0, 0, 0, 0, 0], np.zeros(5), np.zeros(5))
        accepted = check_feasible(m, env).passed
        assert accepted == (abs(a0 - np.clip(a0, 0.0, 1.0)) <= 1e-12)
        if accepted:
            report(m, env)
        else:
            with pytest.raises(DomainError):
                report(m, env)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["grid", "loss table", "audit table"])
    def test_non_finite_table_rejected(self, env, field, bad):
        # a NaN slack is never below the IC gate, so an unchecked NaN would pass
        for i in range(5):
            tables = {"grid": np.linspace(0, 1, 5), "loss table": np.minimum(np.linspace(0, 1, 5), 0.5),
                      "audit table": np.where(np.linspace(0, 1, 5) < 0.5, 1.0, 0.0)}
            tables[field][i] = bad
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                system_holds(tables["grid"], tables["loss table"], tables["audit table"], env)
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                refunds_from(tables["grid"], tables["loss table"], tables["audit table"], env)

    def test_unsorted_grid_rejected(self, env):
        grid = np.array([0.0, 0.5, 0.25, 1.0])
        with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
            system_holds(grid, grid, np.ones(4), env)

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


def lowest_by_columns(a, x, c):
    """The minimum over the full table of terms a[i]*x[k] + c[i], folded in
    line order over i <= len(a) - len(x) + k; 256 columns of the table at a
    time, so large inputs stay small."""
    shift = len(a) - len(x)
    out = np.empty(len(x))
    for k0 in range(0, len(x), 256):
        lowest = np.minimum.accumulate(np.multiply.outer(a, x[k0 : k0 + 256]) + c[:, None], axis=0)
        k = np.arange(k0, k0 + lowest.shape[1])
        out[k] = lowest[shift + k, k - k0]
    return out


def assert_exact_kernel(a, x, c):
    assert same_bits(_menu_min(a, x, c), lowest_by_columns(a, x, c))


def assert_exact_mechanism(m, env, rng):
    c = (1.0 - m.a) * (m.grid - m.r_empty)
    table = deviation_loss_table(m)
    assert same_bits(table, lowest_by_columns(m.a, m.grid, c))
    for j in {0, 1, len(m) // 2, len(m) - 1} & set(range(len(m))):
        assert same_bits(np.array([deviation_loss(m, float(m.grid[j]))]), table[j : j + 1])
    lam = table + np.where(rng.uniform(size=len(m)) < 0.1, rng.uniform(0, 0.05, len(m)), 0.0)
    assert system_holds(m.grid, lam, m.a, env).violations == reference_system(m.grid, lam, m.a, env)


# sizes at block edges, past the first blocks evaluated in full, and past a scan group
EDGE_SIZES = [1, 2, 3, MENU_BLOCK + 1, 2 * MENU_BLOCK + 1, 2 * MENU_BLOCK + 2, 3 * MENU_BLOCK, 3 * MENU_BLOCK + 3,
              5 * MENU_BLOCK + 1]
GROUP_EDGE = (2 + _SCAN_GROUP) * MENU_BLOCK + 1


class TestSkippingMenuKernel:
    """The kernel skips lines that cannot reach a block's minimum; every
    family below must still give the full table's minimum bit for bit."""

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_constructed_mechanisms(self, tau):
        env = make_env(tau=tau)
        rng = np.random.default_rng(int(tau * 10))
        xs = np.linspace(0.0, 1.0, 400)
        curved = validate_lambda(PwlFunction(xs, xs - xs**2 / 2), env)
        for lam, grid in [(random_loss_function(env, rng), 300), (random_loss_function(env, rng), 700),
                          (curved, 300), (curved, 2 * MENU_BLOCK + 1)]:
            assert_exact_mechanism(build_efficient(lam, env, grid), env, rng)

    @pytest.mark.parametrize("n", EDGE_SIZES + [GROUP_EDGE])
    def test_random_ic_mechanisms(self, n):
        rng = np.random.default_rng(n)
        env = make_env(tau=0.5)
        assert_exact_mechanism(random_mechanism(env, rng, n), env, rng)

    @pytest.mark.parametrize("n", EDGE_SIZES + [GROUP_EDGE])
    def test_identical_lines(self, n):
        # every type audited, nothing refunded: all lines are x itself
        m = uniform_mech(n, a=1.0)
        assert same_bits(deviation_loss_table(m), m.grid)
        assert_exact_kernel(m.a, m.grid, (1.0 - m.a) * (m.grid - m.r_empty))

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_tangent_lines_of_a_concave_function(self, n):
        # every line is the minimum at its own type and near it elsewhere
        grid = np.linspace(0.0, 1.0, n)
        m = mech(grid, 1.0 - grid, np.zeros(n), grid / 2)  # tangents of y - y^2/2
        assert_exact_kernel(m.a, m.grid, (1.0 - m.a) * (m.grid - m.r_empty))
        y = np.linspace(0.01, 4.0, n)  # tangents of sqrt(y)
        assert_exact_kernel(0.5 / np.sqrt(y), y, np.sqrt(y) / 2)

    def test_lines_crossing_by_rounding_alone(self):
        # Line 1 is line 0 with slope and offset one ulp apart (a pair found
        # by search).  On the third block's columns their terms differ by
        # rounding alone: line 1 is above line 0 at both ends and below it at
        # columns between, so only the margin keeps it from being skipped.
        a0, c0 = 0.744358894104683, -0.4190551478977306
        a1, c1 = np.nextafter(a0, 2.0), np.nextafter(c0, -2.0)
        x = np.concatenate((np.linspace(0.0, 0.7, 2 * MENU_BLOCK, endpoint=False),
                            np.linspace(0.7420339295567433, 0.7920339295567433, MENU_BLOCK)))
        a, c = np.full(3 * MENU_BLOCK, a0), np.full(3 * MENU_BLOCK, c0)
        a[1], c[1] = a1, c1
        gap = (a1 * x + c1) - (a0 * x + c0)
        assert gap[2 * MENU_BLOCK] > 0 and gap[-1] > 0 and (gap[2 * MENU_BLOCK :] < 0).any()
        assert_exact_kernel(a, x, c)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_negative_slopes_grids_and_signed_zeros(self, n):
        rng = np.random.default_rng(100 + n)
        x = np.linspace(-3.0, 1.0, n)
        x[np.argmin(np.abs(x))] = -0.0
        a = rng.uniform(-1.0, 1.0, n)
        c = rng.uniform(-1.0, 1.0, n)
        # lines with +-0 slope and offset tie at zero with either sign
        zero = rng.uniform(size=n) < 0.4
        a[zero] = rng.choice([0.0, -0.0], zero.sum())
        c[zero] = rng.choice([0.0, -0.0], zero.sum())
        for i in np.nonzero(rng.uniform(size=n) < 0.2)[0]:
            if i > 0:
                a[i], c[i] = a[i - 1], c[i - 1]
        assert_exact_kernel(a, x, c)
        assert_exact_kernel(a, -x[::-1], c)

    def test_shifted_columns(self):
        rng = np.random.default_rng(7)
        env = make_env(tau=0.5)
        m = random_mechanism(env, rng, 5 * MENU_BLOCK + 3)
        c = (1.0 - m.a) * (m.grid - m.r_empty)
        lowest = lowest_by_columns(m.a, m.grid, c)
        for j in (0, 1, MENU_BLOCK + 1, 2 * MENU_BLOCK + 5, len(m) - 1):
            assert same_bits(np.array([deviation_loss(m, float(m.grid[j]))]), lowest[j : j + 1])

    def test_skip_rule(self):
        # On the third block line 1 is the probe (term 0 at both ends).  Line
        # 0 lies more than the margin above it and is skipped; line 5 lies
        # exactly the margin above it and line 6 ties it, so both are kept;
        # lines 2-4 and 7 on repeat the line before them bit for bit.
        n = 3 * MENU_BLOCK
        a, c = np.zeros(n), np.zeros(n)
        c[0] = 1.0
        c[5] = 8 * np.finfo(float).eps * 1.0 + 4 * np.finfo(float).tiny
        blocks = {k0: lines for group in _block_lines(a, np.linspace(0, 1, n), c) for k0, lines, _ in group}
        lines = blocks[2 * MENU_BLOCK]
        assert lines[lines < 2 * MENU_BLOCK].tolist() == [1, 5, 6]


def test_json_roundtrip_bit_identical(env):
    rng = np.random.default_rng(4)
    m = random_mechanism(env, rng, n=17)
    again = Mechanism.from_dict(m.to_dict())
    assert np.array_equal(again.grid, m.grid)
    assert np.array_equal(again.a, m.a)
    assert np.array_equal(again.r_p, m.r_p)
    assert np.array_equal(again.r_empty, m.r_empty)
