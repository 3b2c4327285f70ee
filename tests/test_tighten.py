import numpy as np
import pytest

from samurai import (
    Mechanism,
    PreconditionError,
    PwlFunction,
    build_efficient,
    cost_eval,
    debt_loss,
    is_fixed_point,
    random_loss_function,
    revenue_table,
    tighten,
    validate_lambda,
)

from conftest import make_env, random_mechanism


def audit_everything(env, n=41):
    """Constructor-form full seizure: audit certain except at the very top."""
    grid = np.linspace(env.x_lo, env.x_hi, n)
    a = np.ones(n)
    a[-1] = 0.0
    return Mechanism(grid=grid, a=a, r_p=np.zeros(n), r_empty=np.zeros(n))


class TestNamedCases:
    def test_audit_everything_is_fixed_point(self, env):
        m = audit_everything(env)
        rep = tighten(m, env)
        assert np.max(np.abs(rep.lambda_m_in - m.grid)) < 1e-12
        assert np.max(np.abs(rep.lambda_star.eval(m.grid) - m.grid)) < 1e-12
        assert is_fixed_point(m, env)

    def test_never_audit_full_refund_degenerate_fixed_point(self, env):
        n = 41
        grid = np.linspace(0, 1, n)
        m = Mechanism(grid=grid, a=np.zeros(n), r_p=np.zeros(n), r_empty=grid.copy())
        rep = tighten(m, env)
        assert np.max(np.abs(rep.lambda_m_in)) < 1e-12
        assert np.max(np.abs(revenue_table(rep.mechanism_out))) < 1e-12
        assert is_fixed_point(m, env)

    def test_wasteful_audits_on_debt_revenue(self, env):
        # audits everywhere with revenue min(y, 1/2): deviations lose
        # everything, so the lifted loss is the identity and tightening
        # escalates revenue to full seizure (and is not a fixed point)
        n = 41
        grid = np.linspace(0, 1, n)
        r_p = grid - np.minimum(grid, 0.5)
        m = Mechanism(grid=grid, a=np.ones(n), r_p=r_p, r_empty=np.zeros(n))
        rep = tighten(m, env)
        assert np.max(np.abs(rep.lambda_m_in - grid)) < 1e-12
        assert np.max(np.abs(rep.lambda_star.eval(grid) - grid)) < 1e-12
        out_rev = revenue_table(rep.mechanism_out)
        idx = np.searchsorted(rep.grid_out, grid)
        assert np.max(np.abs(out_rev[idx] - grid)) < 1e-9
        assert rep.revenue_increased
        # strict profit gain above the threshold
        gain = (out_rev[idx] - cost_eval(env.cost, rep.a_out[idx])) - (
            np.minimum(grid, 0.5) - cost_eval(env.cost, m.a)
        )
        assert np.all(gain[grid > 0.5] > 0)
        assert not is_fixed_point(m, env)

    def test_not_ic_rejected(self, env):
        n = 11
        grid = np.linspace(0, 1, n)
        m = Mechanism(grid=grid, a=np.zeros(n), r_p=np.zeros(n), r_empty=np.zeros(n))
        with pytest.raises(PreconditionError):
            tighten(m, env)

    def test_infeasible_rejected(self, env):
        grid = np.linspace(0, 1, 5)
        m = Mechanism(grid=grid, a=np.full(5, 1.2), r_p=np.zeros(5), r_empty=np.zeros(5))
        with pytest.raises(PreconditionError):
            tighten(m, env)


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
def test_constructor_outputs_tighten_at_every_scale(scale):
    # x, tau and the cost scale all grow by `scale`; the guarantees hold to
    # a tolerance relative to the span, so tightening never raises
    env = make_env(tau=0.5 * scale, k=0.1 * scale, x_hi=scale)
    rng = np.random.default_rng(70)
    for _ in range(10):
        tighten(build_efficient(random_loss_function(env, rng), env, 401), env)


class TestGuarantees:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_chains_on_random_mechanisms(self, tau):
        env = make_env(tau=tau)
        rng = np.random.default_rng(int(tau * 2) + 50)
        for _ in range(25):
            m = random_mechanism(env, rng, n=101)
            rep = tighten(m, env)
            idx = np.searchsorted(rep.grid_out, m.grid)
            a_out = rep.a_out[idx]
            assert np.all(a_out <= m.a + 1e-9)
            star_in = rep.lambda_star.eval(m.grid)
            assert np.all(rep.lambda_m_in <= star_in + 1e-9)
            out_rev = revenue_table(rep.mechanism_out)
            assert np.max(np.abs(out_rev - rep.lambda_star.eval(rep.grid_out))) <= 1e-9
            assert np.all(out_rev <= rep.lambda_m_out + 1e-9)
            # profit never falls; strictly rises where audits strictly drop
            pi_in = revenue_table(m)[idx := np.arange(len(m.grid))] - cost_eval(env.cost, m.a)
            pi_out = star_in - cost_eval(env.cost, a_out)
            assert np.all(pi_in <= pi_out + 1e-9)
            strict = m.a - a_out > 1e-9
            assert np.all(pi_out[strict] - pi_in[strict] > 0)

    def test_fixed_points_of_constructor_outputs(self):
        rng = np.random.default_rng(60)
        for tau in (0.0, 0.5):
            env = make_env(tau=tau)
            for _ in range(10):
                lam = random_loss_function(env, rng)
                m = build_efficient(lam, env, 301)
                assert is_fixed_point(m, env)

    def test_idempotent_on_constructor_outputs(self, env):
        rng = np.random.default_rng(61)
        for _ in range(5):
            lam = random_loss_function(env, rng)
            m = build_efficient(lam, env, 201)
            rep1 = tighten(m, env)
            rep2 = tighten(rep1.mechanism_out, env)
            idx = np.searchsorted(rep2.grid_out, rep1.grid_out)
            assert np.max(np.abs(rep2.a_out[idx] - rep1.a_out)) <= 1e-8
            assert (
                np.max(
                    np.abs(
                        revenue_table(rep2.mechanism_out)[idx]
                        - revenue_table(rep1.mechanism_out)
                    )
                )
                <= 1e-8
            )

    def test_report_round_trip_and_flags(self, env):
        m = audit_everything(env, n=21)
        rep = tighten(m, env)
        d = rep.to_dict()
        assert d["audit_reduced"] is False
        assert d["revenue_increased"] is False
        again = Mechanism.from_dict(d["mechanism_out"])
        assert np.array_equal(again.grid, rep.mechanism_out.grid)
