import numpy as np
import pytest

from samurai import (
    GridMismatchError,
    Mechanism,
    PreconditionError,
    build_efficient,
    certify_efficient,
    certify_tight_necessary,
    compare_efficiency,
    compare_tightness,
    debt_loss,
    random_loss_function,
    tighten,
)
from samurai.certify import (
    CERTIFIED_EFFICIENT,
    EQUAL,
    INCOMPARABLE,
    MORE_EFFICIENT,
    REFUTED,
    TIGHT_NECESSARY,
    certify_both,
)

from conftest import make_env, random_mechanism


def wasteful_debt(env, n=41):
    grid = np.linspace(env.x_lo, env.x_hi, n)
    r_p = grid - np.minimum(grid, 0.5)
    return Mechanism(grid=grid, a=np.ones(n), r_p=r_p, r_empty=np.zeros(n))


def restrict(m, grid):
    idx = np.searchsorted(m.grid, grid)
    return Mechanism(grid=grid, a=m.a[idx], r_p=m.r_p[idx], r_empty=m.r_empty[idx])


class TestCertifyEfficient:
    def test_constructor_output_certified(self, env):
        m = build_efficient(debt_loss(env, 0.5), env, 201)
        cert = certify_efficient(m, env)
        assert cert.verdict == CERTIFIED_EFFICIENT
        assert all(c.passed for c in cert.clauses)

    def test_wasteful_audits_refuted(self, env):
        cert = certify_efficient(wasteful_debt(env), env)
        assert cert.verdict == REFUTED
        # deviations lose everything under certain audits, so revenue
        # short of the identity fails the revenue-equals-loss clause
        assert not cert.clause("revenue-equals-loss").passed
        assert cert.clause("revenue-equals-loss").witness["x"] > 0.5

    def test_not_ic_rejected_at_precondition(self, env):
        n = 11
        grid = np.linspace(0, 1, n)
        m = Mechanism(grid=grid, a=np.zeros(n), r_p=np.zeros(n), r_empty=np.zeros(n))
        with pytest.raises(PreconditionError):
            certify_efficient(m, env)

    def test_random_corpus(self, env_tau):
        rng = np.random.default_rng(70)
        for _ in range(10):
            lam = random_loss_function(env_tau, rng)
            m = build_efficient(lam, env_tau, 301)
            assert certify_efficient(m, env_tau).verdict == CERTIFIED_EFFICIENT


class TestCertifyTightNecessary:
    def test_constructor_output_all_clauses(self, env):
        m = build_efficient(debt_loss(env, 0.5), env, 201)
        cert = certify_tight_necessary(m, env)
        assert cert.verdict == TIGHT_NECESSARY
        assert all(c.passed for c in cert.clauses)

    def test_refund_redefinition_flagged_not_refuting(self, env):
        # raise the no-audit refund where audits are certain: payoffs and
        # audits are untouched, only the canonical refund pattern breaks
        m = build_efficient(debt_loss(env, 0.5), env, 101)
        r_e = m.r_empty.copy()
        audited = m.a >= 1.0
        r_e[audited] = m.grid[audited] + env.tau
        m2 = Mechanism(grid=m.grid, a=m.a, r_p=m.r_p, r_empty=r_e)
        cert = certify_tight_necessary(m2, env)
        assert cert.verdict == TIGHT_NECESSARY
        flagged = cert.clause("no-audit-refund-zero-below-crossover")
        assert flagged.informational and not flagged.passed

    def test_refuted_mechanism(self, env):
        cert = certify_tight_necessary(wasteful_debt(env), env)
        assert cert.verdict == REFUTED


class TestCertifyBoth:
    def test_equals_the_separate_certificates(self, env_tau):
        rng = np.random.default_rng(72)
        built = build_efficient(debt_loss(env_tau, 0.5), env_tau, 101)
        mechanisms = [built, tighten(built, env_tau).mechanism_out, wasteful_debt(env_tau)]
        mechanisms += [random_mechanism(env_tau, rng, n=61) for _ in range(4)]
        verdicts = set()
        for m in mechanisms:
            eff, tight = certify_both(m, env_tau)
            assert eff.to_dict() == certify_efficient(m, env_tau).to_dict()
            assert tight.to_dict() == certify_tight_necessary(m, env_tau).to_dict()
            assert len(eff.clauses) == 3  # the shared core clauses stay the efficiency certificate's own
            verdicts |= {eff.verdict, tight.verdict}
        assert {CERTIFIED_EFFICIENT, TIGHT_NECESSARY, REFUTED} <= verdicts

    def test_refuses_what_the_certificates_refuse(self, env):
        n = 11
        grid = np.linspace(0, 1, n)
        not_ic = Mechanism(grid=grid, a=np.zeros(n), r_p=np.zeros(n), r_empty=np.zeros(n))
        infeasible = Mechanism(grid=grid, a=np.full(n, 2.0), r_p=np.zeros(n), r_empty=np.zeros(n))
        for m in (not_ic, infeasible):
            with pytest.raises(PreconditionError):
                certify_both(m, env)


class TestCompare:
    def test_tighten_output_more_efficient_than_input(self, env):
        rng = np.random.default_rng(71)
        m = random_mechanism(env, rng, n=81)
        rep = tighten(m, env)
        out = restrict(rep.mechanism_out, m.grid)
        assert compare_efficiency(out, m, env) in (MORE_EFFICIENT, EQUAL)
        assert compare_tightness(out, m, env) in (MORE_EFFICIENT, EQUAL)

    def test_self_comparison_equal(self, env):
        m = build_efficient(debt_loss(env, 0.3), env, 101)
        assert compare_efficiency(m, m, env) == EQUAL
        assert compare_tightness(m, m, env) == EQUAL

    def test_debt_vs_audit_everything_incomparable(self, env):
        grid = np.linspace(0, 1, 21)
        ae = Mechanism(grid=grid, a=np.where(grid < 1, 1.0, 0.0), r_p=np.zeros(21), r_empty=np.zeros(21))
        debt = Mechanism(
            grid=grid,
            a=np.where(grid < 0.5, 1.0, 0.0),
            r_p=np.zeros(21),
            r_empty=np.where(grid < 0.5, 0.0, grid - 0.5),
        )
        # debt collects less revenue but audits less: neither dominates
        assert compare_efficiency(debt, ae, env) == INCOMPARABLE

    def test_two_debt_thresholds_incomparable_in_tightness(self, env):
        grid = np.unique(np.concatenate([np.linspace(0, 1, 101), [0.3, 0.6]]))

        def debt_mech(y0):
            a = np.where(grid < y0, 1.0, 0.0)
            r_e = np.where(grid < y0, 0.0, grid - y0)
            return Mechanism(grid=grid, a=a, r_p=np.zeros_like(grid), r_empty=r_e)

        # with audit cost 0.1: the lower threshold saves audits in the middle
        # band, the higher one collects more at the top, so profits cross
        assert compare_tightness(debt_mech(0.3), debt_mech(0.6), env) == INCOMPARABLE

    def test_grid_mismatch(self, env):
        m1 = build_efficient(debt_loss(env, 0.5), env, 101)
        m2 = build_efficient(debt_loss(env, 0.5), env, 51)
        with pytest.raises(GridMismatchError):
            compare_efficiency(m1, m2, env)
