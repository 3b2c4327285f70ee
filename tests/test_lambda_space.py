import numpy as np
import pytest

from samurai import (
    DomainError,
    LambdaValidationError,
    PwlFunction,
    classify_debt,
    debt_loss,
    random_loss_function,
    running_max_floor,
    validate_lambda,
    virtual_loss,
)
from samurai.mechanism import system_holds

from conftest import make_env


def pwl(*pairs):
    return PwlFunction.from_pairs(pairs)


class TestValidate:
    def test_identity_is_admissible(self, env):
        lam = validate_lambda(pwl((0, 0), (1, 1)), env)
        assert lam.eval(0.4) == pytest.approx(0.4)

    def test_debt_form_is_admissible(self, env):
        lam = validate_lambda(pwl((0, 0), (0.5, 0.5), (1, 0.5)), env)
        assert lam.eval(0.8) == pytest.approx(0.5)

    def test_above_identity_rejected_with_witness(self, env):
        with pytest.raises(LambdaValidationError) as err:
            validate_lambda(pwl((0, 0), (1, 1.5)), env)
        clauses = {v.clause for v in err.value.violations}
        assert "below-identity" in clauses
        assert any(v.x == 1.0 for v in err.value.violations)

    def test_decreasing_rejected(self, env):
        with pytest.raises(LambdaValidationError) as err:
            validate_lambda(pwl((0, 0), (0.5, 0.4), (1, 0.2)), env)
        assert any(v.clause == "monotonicity" for v in err.value.violations)

    def test_convex_rejected(self, env):
        with pytest.raises(LambdaValidationError) as err:
            validate_lambda(pwl((0, 0), (0.5, 0.1), (1, 0.9)), env)
        assert any(v.clause == "concavity" for v in err.value.violations)

    def test_anchor_rejected(self, env):
        with pytest.raises(LambdaValidationError) as err:
            validate_lambda(pwl((0, 0.2), (1, 0.8)), env)
        assert any(v.clause == "anchor" for v in err.value.violations)

    def test_marginal_identity_overshoot_clamped(self, env):
        lam = validate_lambda(pwl((0, 0), (1, 1 + 5e-13)), env)
        assert lam.eval(1.0) <= 1.0

    def test_random_generator_always_admissible(self, env_tau):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = random_loss_function(env_tau, rng)
            grid = np.linspace(0, 1, 257)
            vals = lam.eval(grid)
            assert np.all(vals <= grid + 1e-12)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] == pytest.approx(0.0, abs=1e-12)


class TestVirtualLoss:
    def test_audit_everything_identity(self, env):
        grid = np.linspace(0, 1, 101)
        star = virtual_loss(grid, grid.copy(), np.ones_like(grid), env)
        assert np.max(np.abs(star.eval(grid) - grid)) < 1e-12

    def test_no_instruments(self, env):
        grid = np.linspace(0, 1, 101)
        star = virtual_loss(grid, np.zeros_like(grid), np.zeros_like(grid), env)
        assert np.max(np.abs(star.eval(grid))) < 1e-12

    def test_smooth_pair_against_double_loop_oracle(self, env):
        grid = np.linspace(0, 1, 101)
        lam = grid / 2
        a = (1 - grid) / 2
        star = virtual_loss(grid, lam, a, env)
        assert np.max(np.abs(star.eval(grid) - lam)) < 1e-9

        # independent oracle: direct double-loop infimum on a finer grid
        fine = np.linspace(0, 1, 1001)
        a_f = (1 - fine) / 2
        plus_f = np.maximum.accumulate(np.maximum(fine / 2, 0.0))
        inter = np.minimum((1 - a_f) * fine, plus_f + a_f * env.tau)
        oracle = np.min(a_f[:, None] * fine[None, :] + inter[:, None], axis=0)
        assert np.max(np.abs(star.eval(fine) - oracle)) < 1e-9

    def test_dominates_input_when_system_holds(self, env_tau):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lam = random_loss_function(env_tau, rng)
            grid = np.linspace(0, 1, 101)
            vals = lam.eval(grid)
            a = np.clip(rng.uniform(0.5, 1.0) * np.ones_like(grid), 0, 1)
            if not system_holds(grid, vals, a, env_tau).passed:
                continue
            star = virtual_loss(grid, vals, a, env_tau)
            assert np.all(star.eval(grid) >= vals - 1e-9)
            assert system_holds(grid, star.eval(grid), a, env_tau).passed

    def test_floored_running_max_below_output(self, env):
        rng = np.random.default_rng(21)
        grid = np.linspace(0, 1, 101)
        lam = debt_loss(env, 0.6).eval(grid)
        a = np.ones_like(grid)
        star = virtual_loss(grid, lam, a, env)
        plus = running_max_floor(lam, env.x_lo)
        assert np.all(plus <= star.eval(grid) + 1e-9)

    def test_misaligned_grids_rejected(self, env):
        with pytest.raises(DomainError):
            virtual_loss(np.linspace(0, 1, 10), np.zeros(11), np.zeros(10), env)

    @pytest.mark.parametrize("field,column", [("grid", 0), ("loss table", 1), ("audit table", 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tables_rejected(self, env, field, column, bad):
        # a NaN passes every comparison, so each table is checked up front
        grid = np.linspace(0, 1, 11)
        tables = [grid.copy(), grid / 2, np.full_like(grid, 0.5)]
        tables[column][5] = bad
        with pytest.raises(DomainError, match=f"^{field} must be finite$"):
            virtual_loss(*tables, env)

    @pytest.mark.parametrize("check", [virtual_loss, system_holds])
    @pytest.mark.parametrize("grid,message", [
        (np.linspace(0, 1, 4), "grid, loss table and audit table must be aligned"),
        (np.array([0.0, 0.5, 0.25, 1.0, 1.0]), "grid must be strictly increasing"),
    ])
    def test_one_table_check_for_both_entry_points(self, env, check, grid, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            check(grid, np.zeros(5), np.ones(5), env)

    def test_one_point_grid_rejected(self, env):
        with pytest.raises(DomainError, match="^grid needs at least 2 points$"):
            virtual_loss(np.zeros(1), np.zeros(1), np.ones(1), env)

    def test_loss_below_minus_tau_rejected(self, env):
        grid = np.linspace(0, 1, 11)
        lam = np.full_like(grid, -0.5)
        with pytest.raises(DomainError):
            virtual_loss(grid, lam, np.zeros_like(grid), env)


class TestClassifyDebt:
    def test_exact_debt_form(self, env):
        assert classify_debt(debt_loss(env, 0.5)) == pytest.approx(0.5)

    def test_identity_degenerate_threshold(self, env):
        lam = validate_lambda(pwl((0, 0), (1, 1)), env)
        assert classify_debt(lam) == pytest.approx(1.0)

    def test_constant_threshold_at_lower_bound(self, env):
        assert classify_debt(debt_loss(env, 0.0)) == pytest.approx(0.0)

    def test_strictly_concave_is_random_audit_class(self, env):
        lam = validate_lambda(pwl((0, 0), (1, 0.5)), env)
        assert classify_debt(lam) is None
