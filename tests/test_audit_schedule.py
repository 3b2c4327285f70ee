import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samurai import (
    AuditSchedule,
    DomainError,
    PwlFunction,
    build_efficient,
    debt_loss,
    deviation_loss_table,
    random_loss_function,
    tighten,
    validate_lambda,
)
from samurai.tolerances import POINT

from conftest import grid_sup_alpha, grid_sup_beta, make_env, random_mechanism


def schedule(env, *pairs):
    return AuditSchedule.from_loss(validate_lambda(PwlFunction.from_pairs(pairs), env), env)


def exact_suprema(xs, vs, tau, y):
    """alpha(y) and beta(y) in exact arithmetic from their definitions: the
    chord slopes from (y, y) and from (-tau, loss(y)) to every breakpoint
    right of y, alpha also taking the right slope where the loss touches the
    identity at y and beta the x = y term 0, each clipped into [0, 1]."""
    xs, vs = [Fraction(x) for x in xs], [Fraction(v) for v in vs]
    tau, y = Fraction(tau), Fraction(y)
    right = [k for k in range(len(xs)) if xs[k] > y]
    if not right:
        return Fraction(0), Fraction(0)
    nxt = right[0]
    slope = (vs[nxt] - vs[nxt - 1]) / (xs[nxt] - xs[nxt - 1])
    ly = vs[nxt - 1] + slope * (y - xs[nxt - 1])
    alpha = max((vs[k] - y) / (xs[k] - y) for k in right)
    if ly == y:
        alpha = max(alpha, slope)
    beta = max([Fraction(0)] + [(vs[k] - ly) / (xs[k] + tau) for k in right])
    return min(max(alpha, Fraction(0)), Fraction(1)), min(beta, Fraction(1))


class TestAlpha:
    def test_identity_chords(self, env):
        s = schedule(env, (0, 0), (1, 1))
        for y in (0.0, 0.3, 0.99):
            assert s.alpha(y) == pytest.approx(1.0)
        assert s.alpha(1.0) == 0.0

    def test_debt_contract(self, env):
        s = AuditSchedule.from_loss(debt_loss(env, 0.5), env)
        assert s.alpha(0.25) == pytest.approx(1.0)
        assert s.alpha(0.75) == 0.0

    def test_half_slope_closed_form(self, env):
        s = schedule(env, (0, 0), (1, 0.5))
        assert s.alpha(0.0) == pytest.approx(0.5)
        assert s.alpha(0.25) == pytest.approx(1.0 / 3.0)
        ys = np.linspace(0, 0.95, 40)
        expect = np.maximum(0.0, (0.5 - ys) / (1 - ys))
        assert np.max(np.abs(s.alpha_table(ys) - expect)) < 1e-12
        for y in (0.1, 0.6, 0.9):
            assert s.alpha(y) == pytest.approx(grid_sup_alpha(s.pwl, env, y), abs=1e-9)

    def test_domain_error(self, env):
        s = schedule(env, (0, 0), (1, 1))
        with pytest.raises(DomainError):
            s.alpha(1.5)


class TestBeta:
    def test_constant_loss_zero(self, env):
        s = AuditSchedule.from_loss(debt_loss(env, 0.0), env)
        assert np.all(s.beta_table(np.linspace(0, 1, 11)) == 0.0)

    def test_half_slope_with_funds(self):
        env = make_env(tau=1.0)
        s = schedule(env, (0, 0), (1, 0.5))
        ys = np.linspace(0, 0.9, 19)
        assert np.max(np.abs(s.beta_table(ys) - (1 - ys) / 4)) < 1e-12
        for y in (0.0, 0.4, 0.8):
            assert s.beta(y) == pytest.approx(grid_sup_beta(s.pwl, env, y), abs=1e-9)

    def test_debt_no_funds(self, env):
        s = AuditSchedule.from_loss(debt_loss(env, 0.5), env)
        ys = np.linspace(0, 1, 21)
        expect = np.where(ys < 0.5, np.maximum(0.0, 1 - 2 * ys), 0.0)
        assert np.max(np.abs(s.beta_table(ys) - expect)) < 1e-12

    def test_zero_over_zero_at_origin(self, env):
        # x = y = 0 with tau = 0: the x = y term is defined as 0
        s = AuditSchedule.from_loss(debt_loss(env, 0.0), env)
        assert s.beta(0.0) == 0.0


class TestAuditProb:
    def test_debt(self, env):
        s = AuditSchedule.from_loss(debt_loss(env, 0.5), env)
        ys = np.linspace(0, 1, 101)
        a = s.audit_prob_table(ys)
        assert np.all(a[ys < 0.5] == 1.0)
        assert np.all(a[ys >= 0.5] == 0.0)

    def test_identity(self, env):
        s = schedule(env, (0, 0), (1, 1))
        assert s.audit_prob(0.5) == 1.0
        assert s.audit_prob(1.0) == 0.0

    def test_half_slope(self, env):
        s = schedule(env, (0, 0), (1, 0.5))
        ys = np.linspace(0, 1, 101)
        a = s.audit_prob_table(ys)
        assert a[0] == pytest.approx(0.5)
        assert np.max(np.abs(a[1:] - (1 - ys[1:]) / 2)) < 1e-12
        for y in (0.3, 0.7):
            oracle = max(grid_sup_alpha(s.pwl, env, y), grid_sup_beta(s.pwl, env, y))
            assert s.audit_prob(y) == pytest.approx(oracle, abs=1e-9)

    def test_smallest_feasible_probability(self, env_tau):
        # audit_prob(y) is the least a in [0,1] satisfying the deterrence
        # inequality against every higher type
        rng = np.random.default_rng(3)
        lam = random_loss_function(env_tau, rng)
        s = AuditSchedule.from_loss(lam, env_tau)
        # the binding x is a kink of the loss, so the probe grid must carry them
        xs = np.unique(np.concatenate([np.linspace(0, 1, 201), lam.xs]))
        vals = lam.eval(xs)
        for y in (0.0, 0.2, 0.55, 0.9):
            a = s.audit_prob(y)
            ly = lam.eval(y)
            sup = xs[xs >= y]
            lv = vals[xs >= y]

            def ok(p):
                rhs = p * sup + np.minimum((1 - p) * y, ly + p * env_tau.tau)
                return np.all(lv <= rhs + 1e-12)

            assert ok(a)
            if a > 1e-6:
                assert not ok(a - 1e-6)


class TestCrossover:
    def test_half_slope_zero(self, env):
        s = schedule(env, (0, 0), (1, 0.5))
        assert s.crossover() == pytest.approx(0.0, abs=1e-9)

    def test_identity_top(self, env):
        s = schedule(env, (0, 0), (1, 1))
        assert s.crossover() == pytest.approx(1.0, abs=1e-9)

    def test_debt_threshold(self, env):
        s = AuditSchedule.from_loss(debt_loss(env, 0.5), env)
        assert s.crossover() == pytest.approx(0.5, abs=1e-9)

    def test_binding_branch_switches_at_crossover(self, env_tau):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = random_loss_function(env_tau, rng)
            s = AuditSchedule.from_loss(lam, env_tau)
            y0 = s.crossover()
            for y in np.linspace(0, 1, 41):
                a = s.audit_prob(y)
                bare = (1 - a) * y
                funded = lam.eval(y) + a * env_tau.tau
                if y < y0 - 1e-6:
                    assert bare <= funded + 1e-9
                elif y > y0 + 1e-6:
                    assert funded <= bare + 1e-9

    @pytest.mark.parametrize("c", [1e-3, 1e3, 1e6])
    def test_scales_with_the_environment(self, c):
        # alpha and beta are invariant when types, loss and tau scale by c
        rng = np.random.default_rng(19)
        for i in range(30):
            env = make_env(tau=(0.0, 0.5, 1.0)[i % 3])
            lam = random_loss_function(env, rng)
            scaled = make_env(tau=env.tau * c, x_hi=c)
            s = AuditSchedule.from_table(lam.xs * c, lam.shape.vs * c, scaled)
            expect = c * AuditSchedule.from_loss(lam, env).crossover()
            assert abs(s.crossover() - expect) <= 4 * np.finfo(float).eps * c

    @pytest.mark.parametrize("x1", [1e-4, 1e-3, 0.3])
    @pytest.mark.parametrize("m", [0.6, 0.75, 0.9])
    def test_closed_form_family(self, env, x1, m):
        # on the first segment beta(y) = m (1 - y / x1), and alpha > beta
        # exactly while beta(y) y > y - m y, that is below x1 (2m - 1) / m;
        # a sampled search misses all of it at x1 = 1e-4
        s = AuditSchedule.from_table([0.0, x1, 1.0], [0.0, m * x1, m * x1], env)
        expect = x1 * (2 * m - 1) / m
        assert abs(s.crossover() - expect) <= 4 * np.spacing(expect)

    @staticmethod
    def assert_edge_is_exact(s, ulps=4):
        """alpha > beta just left of the crossover and alpha <= beta just
        right of it, in exact arithmetic."""
        env, xs, vs = s.env, s.pwl.xs, s.pwl.vs
        y0 = s.crossover()
        left, right = y0 - ulps * np.spacing(y0), y0 + ulps * np.spacing(y0)
        if y0 > env.x_lo and left >= env.x_lo:
            alpha, beta = exact_suprema(xs, vs, env.tau, left)
            assert alpha > beta, (y0, float(alpha - beta))
        if right <= env.x_hi:
            alpha, beta = exact_suprema(xs, vs, env.tau, right)
            assert alpha <= beta, (y0, float(alpha - beta))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_edge_is_exact(self, tau):
        env = make_env(tau=tau)
        rng = np.random.default_rng(67)
        for _ in range(100):
            self.assert_edge_is_exact(AuditSchedule.from_loss(random_loss_function(env, rng), env))
        for y0 in (0.1, 0.5, 0.9):
            self.assert_edge_is_exact(AuditSchedule.from_loss(debt_loss(env, y0), env))
        xs = np.linspace(0.0, 1.0, 200)
        self.assert_edge_is_exact(AuditSchedule.from_table(xs, xs - xs**2 / 2.0, env))

    def test_non_monotone_deviation_losses(self, env_tau):
        # the edge lies between the last sample of a dense scan where
        # alpha > beta and the sample after it
        rng = np.random.default_rng(61)
        ys = np.linspace(env_tau.x_lo, env_tau.x_hi, 20_001)
        for _ in range(30):
            m = random_mechanism(env_tau, rng)
            lam = deviation_loss_table(m)
            assert np.any(np.diff(lam) < 0)
            s = AuditSchedule.from_table(m.grid, lam, env_tau)
            pos = np.flatnonzero(s.alpha_table(ys) - s.beta_table(ys) > 0.0)
            last = pos[-1] if len(pos) else 0
            assert ys[last] <= s.crossover() <= ys[last + 1]


class TestSingleCrossing:
    @pytest.mark.parametrize("pairs", [((0, 0), (0.5, 0.5), (1, 0.5)), ((0, 0), (1, 1))])
    def test_named_cases_pass(self, env, pairs):
        assert schedule(env, *pairs).check_single_crossing(101).passed

    def test_half_slope_with_funds(self):
        env = make_env(tau=1.0)
        assert schedule(env, (0, 0), (1, 0.5)).check_single_crossing(101).passed

    def test_random_losses(self):
        rng = np.random.default_rng(23)
        for tau in (0.0, 0.5, 1.0):
            env = make_env(tau=tau)
            for _ in range(30):
                lam = random_loss_function(env, rng)
                rep = AuditSchedule.from_loss(lam, env).check_single_crossing(301)
                assert rep.passed and rep.anchored


    @given(diff=st.lists(
        st.sampled_from([-1.0, -2e-12, -1e-12, -0.0, 0.0, 1e-12, 2e-12, 1.0, np.nan]), min_size=2, max_size=40
    ))
    @settings(max_examples=300, deadline=None)
    def test_witness_matches_the_scan(self, diff):
        diff = np.array(diff)

        class GivenDiff(AuditSchedule):
            def alpha_table(self, ys):
                return diff

            def beta_table(self, ys):
                return np.zeros_like(diff)

        env = make_env()
        lam = validate_lambda(PwlFunction.from_pairs([(0, 0), (1, 1)]), env)
        rep = GivenDiff.from_loss(lam, env).check_single_crossing(len(diff))
        # the per-point scan: the first value below -1e-12, then the first
        # value above 1e-12 after it
        witness, negative_at = None, None
        for y, val in zip(rep.grid.tolist(), diff.tolist()):
            if val < -1e-12 and negative_at is None:
                negative_at = y
            elif val > 1e-12 and negative_at is not None:
                witness = (negative_at, y)
                break
        assert rep.witness == witness
        assert rep.anchored == (diff[0] >= -1e-12)
        assert rep.passed == (witness is None and rep.anchored)


class TestMonotoneAndBounded:
    def test_random_losses_decreasing_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for tau in (0.0, 0.5):
            env = make_env(tau=tau)
            for _ in range(40):
                lam = random_loss_function(env, rng)
                s = AuditSchedule.from_loss(lam, env)
                ys = np.linspace(0, 1, 501)
                alpha = s.alpha_table(ys)
                beta = s.beta_table(ys)
                for arr in (alpha, beta):
                    assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
                    assert np.all(np.diff(arr) <= 1e-9)


class DenseSchedule(AuditSchedule):
    """Reference suprema: every breakpoint right of y is a candidate, one
    candidates x queries ratio matrix per call."""

    def _sup_ratio(self, ys, kind):
        xs, vs = self.pwl.xs[:, None], self.pwl.vs[:, None]
        snap = POINT * max(1.0, self.env.span)
        if kind == "alpha":
            num, den = vs - ys, xs - ys
            valid = den > snap
        else:
            num, den = vs - self.pwl.eval(ys), xs + self.env.tau
            valid = (xs > ys + snap) & (den > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(valid, num / np.where(valid, den, 1.0), -np.inf).max(axis=0)


def assert_matches_dense(xs, vs, env, ys):
    pwl = PwlFunction(np.asarray(xs, float), np.asarray(vs, float))
    ys = np.asarray(ys, float)
    fast, dense = AuditSchedule(pwl=pwl, env=env), DenseSchedule(pwl=pwl, env=env)
    for name in ("alpha_table", "beta_table"):
        gap = np.max(np.abs(getattr(fast, name)(ys) - getattr(dense, name)(ys)))
        assert gap <= 1e-14, (name, gap)


def kinked_table(rng, n, x_hi, concave):
    xs = np.unique(np.concatenate([[0.0, x_hi], rng.uniform(0.0, x_hi, n)]))
    slopes = rng.uniform(0.0, 1.0, len(xs) - 1)
    if concave:
        slopes = np.sort(slopes)[::-1]
    return xs, np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])


SCALES = [1.0, 1e-3, 1e3, 1e6]


class TestSuffixHullMatchesDense:
    """The tangent search equals the all-pairs maximum on every table shape."""

    @pytest.mark.parametrize("x_hi", SCALES)
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_random_losses(self, x_hi, tau):
        env = make_env(tau=tau * x_hi, x_hi=x_hi)
        rng = np.random.default_rng(41)
        for _ in range(20):
            lam = random_loss_function(env, rng)
            ys = np.concatenate([lam.xs, np.linspace(0.0, x_hi, 101), rng.uniform(0.0, x_hi, 50)])
            assert_matches_dense(lam.xs, lam.shape.vs, env, ys)

    @pytest.mark.parametrize("x_hi", SCALES)
    def test_curved_loss(self, x_hi):
        env = make_env(tau=0.5 * x_hi, x_hi=x_hi)
        xs = np.linspace(0.0, x_hi, 200)
        vs = xs - xs**2 / (2.0 * x_hi)
        assert_matches_dense(xs, vs, env, xs)
        assert_matches_dense(xs, vs, env, np.linspace(0.0, x_hi, 401))

    @pytest.mark.parametrize("x_hi", SCALES)
    @pytest.mark.parametrize("concave", [True, False])
    def test_all_kink_tables(self, x_hi, concave):
        env = make_env(tau=0.5 * x_hi, x_hi=x_hi)
        rng = np.random.default_rng(43)
        for n in (1, 2, 50, 400):
            xs, vs = kinked_table(rng, n, x_hi, concave)
            assert_matches_dense(xs, vs, env, xs)
            assert_matches_dense(xs, vs, env, rng.uniform(0.0, x_hi, 300))

    @pytest.mark.parametrize("x_hi", SCALES)
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_mechanism_tables(self, x_hi, tau):
        # constructed, random IC and tightened deviation-loss tables, and the
        # tightened virtual loss, each queried at its own grid
        env = make_env(tau=tau * x_hi, x_hi=x_hi)
        rng = np.random.default_rng(47)
        for _ in range(2):
            m = build_efficient(random_loss_function(env, rng), env, 101)
            t = tighten(m, env)
            for mech in (m, random_mechanism(env, rng, n=101), t.mechanism_out):
                assert_matches_dense(mech.grid, deviation_loss_table(mech), env, mech.grid)
            assert_matches_dense(t.lambda_star.xs, t.lambda_star.shape.vs, env, t.grid_out)

    @pytest.mark.parametrize("x_hi", SCALES)
    def test_near_duplicate_and_collinear_breakpoints(self, x_hi):
        env = make_env(tau=0.5 * x_hi, x_hi=x_hi)
        rng = np.random.default_rng(53)
        for _ in range(5):
            base = np.sort(rng.uniform(0.01, 0.99, 60)) * x_hi
            gaps = rng.uniform(1e-12, 1e-11, 60) * max(1.0, x_hi)
            xs = np.unique(np.concatenate([[0.0, x_hi], base, base + gaps]))
            slopes = rng.uniform(0.0, 1.0, len(xs) - 1)
            slopes[rng.uniform(size=len(slopes)) < 0.5] = 0.3  # collinear runs
            vs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
            assert_matches_dense(xs, vs, env, xs)
            assert_matches_dense(xs, vs, env, rng.uniform(0.0, x_hi, 200))

    def test_breakpoints_one_picometre_apart(self, env):
        # a tightened virtual loss whose breakpoints 5 and 6 lie 1.0e-12 apart:
        # a hull popped by cross products and searched by cross-multiplied
        # slopes returns alpha = 0.8790687410349772 at this y
        xs = [0.0, 0.06849405596350736, 0.09072680597128406, 0.14721978334878638,
              0.7837103917459943, 0.9370713296644813, 0.9370713296654875, 1.0]
        vs = [0.0, 0.06849405596350736, 0.08871206548939942, 0.13989583506099754,
              0.7054578209511891, 0.8402721975601973, 0.8402721975610818, 0.846875312052599]
        y = 0.13662376190798087
        s = AuditSchedule.from_table(xs, vs, env)
        assert s.alpha(y) == pytest.approx(0.8790694055687809, abs=1e-15)
        assert_matches_dense(xs, vs, env, np.concatenate([xs, [y], np.linspace(0.0, 1.0, 1001)]))


class TestLinearMemory:
    def peak_mib(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_all_kink_table_at_its_own_grid(self, env_tau):
        xs, vs = kinked_table(np.random.default_rng(59), 3999, 1.0, concave=True)
        assert len(xs) == 4001
        s = AuditSchedule.from_table(xs, vs, env_tau)
        assert self.peak_mib(lambda: s.audit_prob_table(xs)) < 32

    def test_crossover_on_a_constructed_curved_loss_table(self, env_tau):
        xs = np.linspace(0.0, 1.0, 200)
        lam = validate_lambda(PwlFunction(xs, xs - xs**2 / 2.0), env_tau)
        m = build_efficient(lam, env_tau, 1001)
        s = AuditSchedule.from_table(m.grid, deviation_loss_table(m), env_tau)
        assert self.peak_mib(s.crossover) < 32
