import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samurai import (
    AuditSchedule,
    PreconditionError,
    PwlFunction,
    build_efficient,
    certify_efficient,
    check_feasible,
    check_ic,
    classify_debt,
    debt_loss,
    random_loss_function,
    refunds_from,
    report,
    validate_lambda,
)

from samurai.constructor import merge_grid
from samurai.tolerances import GRID_MERGE

from conftest import make_env


class TestRefundsFrom:
    def test_identity_full_seizure(self, env):
        grid = np.linspace(0, 1, 11)
        pair = refunds_from(grid, grid, np.ones_like(grid), env)
        assert np.allclose(pair.r_p, 0.0)
        assert np.allclose(pair.r_empty, 0.0)

    def test_debt_split(self, env):
        grid = np.linspace(0, 1, 21)
        lam = np.minimum(grid, 0.5)
        a = np.where(grid < 0.5, 1.0, 0.0)
        pair = refunds_from(grid, lam, a, env)
        below = grid < 0.5
        assert np.allclose(pair.r_p[below], 0.0)
        assert np.allclose(pair.r_empty[~below], grid[~below] - 0.5)
        rev = grid - (a * pair.r_p + (1 - a) * pair.r_empty)
        assert np.max(np.abs(rev - lam)) < 1e-12

    def test_smooth_pair_symbolic(self, env):
        # slope-1/2 loss with audits (1-y)/2: no-audit refund y^2/(1+y),
        # audit refund y, revenue y/2
        grid = np.linspace(0, 1, 101)
        lam = grid / 2
        a = (1 - grid) / 2
        pair = refunds_from(grid, lam, a, env)
        assert np.max(np.abs(pair.r_empty - grid**2 / (1 + grid))) < 1e-12
        assert np.max(np.abs(pair.r_p[1:-1] - grid[1:-1])) < 1e-12
        assert pair.r_p[-1] == 0.0  # a(1) = 0, so the audit refund is free
        rev = grid - (a * pair.r_p + (1 - a) * pair.r_empty)
        assert np.max(np.abs(rev - lam)) < 1e-12

    def test_system_violation_raises(self, env):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(PreconditionError):
            refunds_from(grid, grid, np.zeros_like(grid), env)

    def test_bounds_hold_for_random_admissible_pairs(self):
        rng = np.random.default_rng(6)
        for tau in (0.0, 0.5, 1.0):
            env = make_env(tau=tau)
            for _ in range(20):
                lam = random_loss_function(env, rng)
                grid = np.linspace(0, 1, 101)
                a = AuditSchedule.from_loss(lam, env).audit_prob_table(grid)
                pair = refunds_from(grid, lam.eval(grid), a, env)
                cap = grid + tau
                for arr in (pair.r_p, pair.r_empty):
                    assert np.all(arr >= 0.0)
                    assert np.all(arr <= cap)


class TestBuildEfficient:
    def test_debt_contract_mechanism(self, env):
        m = build_efficient(debt_loss(env, 0.5), env, 101)
        assert set(np.round(np.unique(m.a), 12)) == {0.0, 1.0}
        rep = report(m, env)
        assert rep.ic
        assert np.max(np.abs(rep.revenue - np.minimum(m.grid, 0.5))) < 1e-12

    def test_identity_audit_everything(self, env):
        lam = validate_lambda(PwlFunction.from_pairs([(0, 0), (1, 1)]), env)
        m = build_efficient(lam, env, 101)
        assert np.all(m.a[:-1] == 1.0)
        assert m.a[-1] == 0.0
        assert np.max(np.abs(report(m, env).revenue - m.grid)) < 1e-12

    def test_half_slope_random_audits(self, env):
        lam = validate_lambda(PwlFunction.from_pairs([(0, 0), (1, 0.5)]), env)
        m = build_efficient(lam, env, 101)
        assert np.max(np.abs(m.a[1:] - (1 - m.grid[1:]) / 2)) < 1e-12
        assert classify_debt(lam) is None
        interior = (m.a > 1e-9) & (m.a < 1 - 1e-9)
        assert np.any(interior)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_random_corpus_sound(self, tau):
        env = make_env(tau=tau)
        rng = np.random.default_rng(int(10 * tau) + 40)
        for _ in range(25):
            lam = random_loss_function(env, rng)
            m = build_efficient(lam, env, 501)
            rep = report(m, env)
            assert check_feasible(m, env).passed
            assert rep.ic
            assert np.max(np.abs(rep.revenue - lam.eval(m.grid))) <= 1e-9
            assert np.all(rep.deviation_loss >= lam.eval(m.grid) - 1e-9)
            assert certify_efficient(m, env, rep=rep).verdict == "certified-efficient"

    def test_refund_pattern_around_crossover(self):
        env = make_env(tau=0.5)
        rng = np.random.default_rng(77)
        for _ in range(10):
            lam = random_loss_function(env, rng)
            m = build_efficient(lam, env, 301)
            s = AuditSchedule.from_loss(lam, env)
            alpha = s.alpha_table(m.grid)
            beta = s.beta_table(m.grid)
            margin = 1e-9
            lo = alpha - beta > margin
            hi = (beta - alpha > margin) & (m.a > margin)
            assert np.all(m.r_empty[lo] <= 1e-9)
            assert np.all(m.r_p[hi] >= m.grid[hi] + env.tau - 1e-9)

    def test_debt_iff_binary_audits(self):
        env = make_env(tau=0.5)
        rng = np.random.default_rng(13)
        for _ in range(10):
            lam = random_loss_function(env, rng)
            m = build_efficient(lam, env, 301)
            binary = np.all((m.a <= 1e-9) | (m.a >= 1 - 1e-9))
            assert binary == (classify_debt(lam) is not None)
        for y0 in (0.0, 0.3, 1.0):
            m = build_efficient(debt_loss(env, y0), env, 301)
            assert np.all((m.a <= 1e-9) | (m.a >= 1 - 1e-9))


def reference_merge_grid(primary, extra, env):
    """merge_grid that also thins the surviving extras against each other
    before a final gap mask that spares primary points; merge_grid must give
    its bytes."""
    primary = np.unique(np.asarray(primary, dtype=float))
    extra = np.sort(np.asarray(extra, dtype=float))
    tol = GRID_MERGE * env.span
    if len(extra):
        pos = np.searchsorted(primary, extra)
        left = primary[np.clip(pos - 1, 0, len(primary) - 1)]
        right = primary[np.clip(pos, 0, len(primary) - 1)]
        near = (np.abs(extra - left) <= tol) | (np.abs(extra - right) <= tol)
        extra = extra[~near]
        if len(extra):
            keep = np.concatenate([[True], np.diff(extra) > tol])
            extra = extra[keep]
    kept = np.sort(np.concatenate([primary, extra]))
    return kept[np.concatenate([[True], np.diff(kept) > tol]) | np.isin(kept, primary)]


def test_merge_grid_keeps_close_primary_points(env):
    assert merge_grid([0.0, 0.5, 0.5 + 5e-8, 1.0], [], env).tolist() == [0.0, 0.5, 0.5 + 5e-8, 1.0]
    assert merge_grid([0.0, 1.0 - 5e-8, 1.0], [0.5, 0.5 + 5e-8], env).tolist() == [0.0, 0.5, 1.0 - 5e-8, 1.0]


@given(seed=st.integers(0, 2**32 - 1), x_hi=st.sampled_from([1.0, 1e6]),
       n_primary=st.integers(2, 40), n_extra=st.integers(0, 60))
@settings(max_examples=300, deadline=None)
def test_merge_grid_matches_reference(seed, x_hi, n_primary, n_extra):
    # extras clustered within 3 tolerances of primary points and of each
    # other, near-duplicate primary points, and a few uniform extras
    rng = np.random.default_rng(seed)
    env = make_env(x_hi=x_hi)
    tol = GRID_MERGE * env.span
    primary = np.concatenate([[0.0, x_hi], rng.uniform(0, x_hi, n_primary)])
    primary = np.concatenate([primary, rng.choice(primary, 3) + tol * rng.uniform(-1.5, 1.5, 3)])
    centres = np.concatenate([rng.choice(primary, n_extra), rng.uniform(0, x_hi, n_extra // 4 + 1)])
    extra = rng.choice(centres, n_extra) + tol * rng.uniform(-3, 3, n_extra)
    extra = np.concatenate([extra, extra[: n_extra // 3] + tol * rng.uniform(-1.5, 1.5, n_extra // 3)])
    extra = np.clip(extra, 0.0, x_hi)
    assert merge_grid(primary, extra, env).tobytes() == reference_merge_grid(primary, extra, env).tobytes()
