import importlib

import numpy as np
import pytest

from samurai import (
    AuditSchedule,
    GuaranteeError,
    Mechanism,
    PreconditionError,
    PwlFunction,
    build_efficient,
    cost_eval,
    debt_loss,
    is_fixed_point,
    random_loss_function,
    refunds_from,
    revenue_table,
    tighten,
    validate_lambda,
)
from samurai.cli import main as cli_main

from cli_harness import GOLD
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


@pytest.mark.parametrize("lost", ["middle", "last"])
def test_lost_input_point_is_guarantee_error(lost, monkeypatch, capsys):
    # a refined grid that drops an input grid point cannot carry the
    # guarantees back to the input types; the CLI reports one error line
    tighten_module = importlib.import_module("samurai.tighten")  # the package exports the function
    merge_grid = tighten_module.merge_grid

    def lossy_merge(grid, extras, env):
        out = merge_grid(grid, extras, env)
        return out[out != grid[len(grid) // 2 if lost == "middle" else -1]]

    monkeypatch.setattr(tighten_module, "merge_grid", lossy_merge)
    env = make_env()
    with pytest.raises(GuaranteeError, match="lost input grid points"):
        tighten(build_efficient(debt_loss(env, 0.5), env, 21), env)
    code = cli_main(
        ["tighten", "--env", str(GOLD / "env_lin.json"), "--mechanism", str(GOLD / "construct_debt.json")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: refined grid lost input grid points\n"


def test_grid_points_closer_than_the_merge_tolerance_survive():
    # 0.5 and 0.5 + 5e-8 lie within GRID_MERGE * span of each other; the
    # refined grid must keep both, or tighten refuses a feasible IC input
    env = make_env(tau=0.5)
    lam = debt_loss(env, 0.7)
    grid = np.sort(np.append(np.linspace(0.0, 1.0, 101), 0.5 + 5e-8))
    a = AuditSchedule.from_loss(lam, env).audit_prob_table(grid)
    pair = refunds_from(grid, lam.eval(grid), a, env)
    m = Mechanism(grid=grid, a=a, r_p=pair.r_p, r_empty=pair.r_empty)
    rep = tighten(m, env)
    assert np.isin(grid, rep.grid_out).all()
    assert is_fixed_point(rep.mechanism_out, env)


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
def test_constructor_outputs_tighten_at_every_scale(scale):
    # x, tau and the cost scale all grow by `scale`; the guarantees hold to
    # a tolerance relative to the span, so tightening never raises, and a
    # constructor output is a fixed point whose revenue does not rise
    env = make_env(tau=0.5 * scale, k=0.1 * scale, x_hi=scale)
    rng = np.random.default_rng(70)
    for _ in range(10):
        m = build_efficient(random_loss_function(env, rng), env, 401)
        rep = tighten(m, env)
        assert not rep.audit_reduced
        assert not rep.revenue_increased
        assert is_fixed_point(m, env)


@pytest.mark.parametrize("loss,breakpoints", [("curved", 1000), ("capped_sqrt", 3000)])
def test_curved_losses_on_fine_grids_are_fixed_points(loss, breakpoints):
    # at 64,001 points neighbouring menu lines differ in slope by O(1/n), so
    # their crossings lose most of their digits; kinks made of that rounding
    # alone once broke the refund system inside tighten
    env = make_env(tau=0.5)
    xs = np.linspace(0.0, 1.0, breakpoints)
    vs = xs - xs**2 / 2 if loss == "curved" else np.minimum(xs, 0.6 * np.sqrt(xs))
    m = build_efficient(validate_lambda(PwlFunction(xs, vs), env), env, 64001)
    assert is_fixed_point(m, env)


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
