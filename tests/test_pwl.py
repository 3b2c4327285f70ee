import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samurai import (
    DomainError,
    PwlFunction,
    affine_lower_envelope,
    build_efficient,
    deviation_loss_table,
    random_loss_function,
    running_max_floor,
    validate_lambda,
    virtual_loss,
)

from conftest import make_env, random_mechanism


def pwl(*pairs):
    return PwlFunction.from_pairs(pairs)


class TestEval:
    def test_identity_midpoint(self):
        assert pwl((0, 0), (1, 1)).eval(0.3) == pytest.approx(0.3)

    def test_constant_segment(self):
        assert pwl((0, 0), (0.5, 0.5), (1, 0.5)).eval(0.75) == pytest.approx(0.5)

    def test_interpolation(self):
        assert pwl((0, 0), (1, 0.5)).eval(0.5) == pytest.approx(0.25)

    def test_exact_at_breakpoints(self):
        f = pwl((0, 0.1), (0.3, 0.7), (1, 0.2))
        assert f.eval(0.3) == 0.7

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pwl((0, 0), (1, 1)).eval(1.5)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            PwlFunction(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            pwl((0, 0), (0, 1))


# reference_running_max_floor merges breakpoints closer than this (times
# the span)
MERGE_ATOL = 1e-12


def merge_close(xs: list, vs: list, atol: float):
    """Drop breakpoints whose x is within ``atol`` of the previous kept one."""
    out_x = [xs[0]]
    out_v = [vs[0]]
    for x, v in zip(xs[1:], vs[1:]):
        if x - out_x[-1] <= atol:
            continue
        out_x.append(x)
        out_v.append(v)
    # the right endpoint must survive; replace the last kept point if needed
    if out_x[-1] != xs[-1]:
        if xs[-1] - out_x[-1] <= atol and len(out_x) > 1:
            out_x[-1] = xs[-1]
            out_v[-1] = vs[-1]
        else:
            out_x.append(xs[-1])
            out_v.append(vs[-1])
    return out_x, out_v


def reference_running_max_floor(f: PwlFunction, floor: float) -> PwlFunction:
    """The floored running maximum as a PWL function: a loop over f's
    breakpoints that inserts a kink where f rises through its running max.
    Read at f's own breakpoints it must give running_max_floor's bytes."""
    xs, vs = f.xs, f.vs
    m = max(floor, float(vs[0]))
    out_x, out_v = [float(xs[0])], [m]
    for i in range(len(xs) - 1):
        x0, v0 = float(xs[i]), float(vs[i])
        x1, v1 = float(xs[i + 1]), float(vs[i + 1])
        if v1 > m:
            if v0 < m:
                xc = x0 + (m - v0) / (v1 - v0) * (x1 - x0)
                if xc > out_x[-1]:
                    out_x.append(xc)
                    out_v.append(m)
            out_x.append(x1)
            out_v.append(v1)
            m = v1
        else:
            out_x.append(x1)
            out_v.append(m)
    out_x, out_v = merge_close(out_x, out_v, MERGE_ATOL * max(1.0, f.span))
    return PwlFunction(np.array(out_x), np.array(out_v))


def adversarial_table(rng, n):
    """A loss table on a dyadic grid of n points with signed zeros, flat
    runs, equal maxima and values below the floor.

    Values are multiples of 1/64 or grid points, so a rise through the
    running max is never within the breakpoint merge distance of the next
    grid point."""
    grid = np.linspace(0.0, 1.0, n)
    vals = rng.integers(-16, 64, n) / 64.0
    for i in np.nonzero(rng.uniform(size=n) < 0.3)[0]:
        if i > 0:
            vals[i] = vals[i - 1]
    vals = np.where(vals == 0.0, rng.choice([0.0, -0.0], n), vals)
    return grid, np.minimum(vals, grid)


class TestRunningMaxFloor:
    def test_already_increasing(self):
        xs = np.linspace(0, 1, 50)
        assert np.array_equal(running_max_floor(xs, 0.0), xs)

    def test_flattens_decreasing_tail(self):
        g = running_max_floor(np.array([0.0, 0.2, 0.4, 0.3, 0.2]), 0.0)
        assert g.tolist() == [0.0, 0.2, 0.4, 0.4, 0.4]

    def test_floor_binds_everywhere(self):
        assert running_max_floor(np.full(20, -0.3), 0.0).tolist() == [0.0] * 20

    def test_crossing_breakpoint_inserted(self):
        # dips below an earlier peak, then rises through it: the PWL running
        # max gains a kink between grid points, but reads the table's at them
        f = pwl((0, 0.5), (0.4, 0.1), (1, 0.7))
        assert len(reference_running_max_floor(f, 0.0).xs) == 4
        assert running_max_floor(f.vs, 0.0).tolist() == [0.5, 0.5, 0.7]
        grid = np.linspace(0, 1, 1001)
        vals = f.eval(grid)
        same = running_max_floor(vals, 0.0) == reference_running_max_floor(PwlFunction(grid, vals), 0.0).eval(grid)
        assert same.all()

    @given(
        vals=st.lists(st.floats(-1, 1), min_size=1, max_size=10),
        floor=st.floats(-1, 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_monotone(self, vals, floor):
        vals = np.array(vals)
        g = running_max_floor(vals, floor)
        assert np.array_equal(running_max_floor(g, floor), g)
        assert np.all(np.diff(g) >= 0)
        assert np.all(g >= floor)
        assert np.all(g >= vals)
        assert np.all(running_max_floor(vals, floor + 0.5) >= g)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           floor=st.sampled_from([0.0, -0.0, 0.25, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_at_the_grid(self, seed, k, floor):
        grid, lam = adversarial_table(np.random.default_rng(seed), 2**k + 1)
        ref = reference_running_max_floor(PwlFunction(grid, lam), floor).eval(grid)
        assert running_max_floor(lam, floor).tobytes() == ref.tobytes()

    def test_plateau_then_one_ulp_above(self):
        # the rise through 0.3 crosses it within the merge distance left of
        # the last grid point; the PWL max then merges that point away and
        # reads 0.3 there, one ulp below the table
        grid = np.linspace(0, 1, 40)
        lam = np.minimum(grid, 0.3)
        lam[-2:] = 0.2, np.nextafter(0.3, 1.0)
        assert np.all(running_max_floor(lam, 0.0) >= lam)
        assert running_max_floor(lam, 0.0)[-1] == lam[-1]
        assert reference_running_max_floor(PwlFunction(grid, lam), 0.0).eval(1.0) < lam[-1]


def envelope(lines, domain=(0, 1)):
    """affine_lower_envelope of a list of (slope, intercept) pairs."""
    s, b = np.array(lines, dtype=float).reshape(-1, 2).T
    return affine_lower_envelope(s, b, domain)


def grid_min(lines, xs):
    return np.min([s * xs + b for s, b in lines], axis=0)


def same_bits(f, g):
    return f.xs.tobytes() == g.xs.tobytes() and f.vs.tobytes() == g.vs.tobytes()


def depth_tol(slopes, intercepts, domain):
    """The envelope's stated bound: 8 eps times the largest line value's scale."""
    reach = max(abs(domain[0]), abs(domain[1]))
    return 8 * np.finfo(float).eps * (reach * np.max(slopes) + np.max(np.abs(intercepts)))


def line_min(slopes, intercepts, xs):
    """min_i(slopes[i]*x + intercepts[i]) at each x, in chunks of about 2^21 terms."""
    step = max(1, 2**21 // len(slopes))
    return np.concatenate([
        np.min(np.multiply.outer(slopes, xs[k : k + step]) + intercepts[:, None], axis=0)
        for k in range(0, len(xs), step)
    ])


def assert_within_depth_tol(slopes, intercepts, domain=(0.0, 1.0)):
    """The envelope is within depth_tol of the minimum of its lines at its
    breakpoints and at 257 uniform points, and its slopes rise by at most
    1e-9.  Returns the envelope."""
    slopes, intercepts = np.asarray(slopes, dtype=float), np.asarray(intercepts, dtype=float)
    e = affine_lower_envelope(slopes, intercepts, domain)
    xs = np.concatenate([e.xs, np.linspace(domain[0], domain[1], 257)])
    assert np.max(np.abs(e.eval(xs) - line_min(slopes, intercepts, xs))) <= depth_tol(slopes, intercepts, domain)
    assert np.all(np.diff(e.slopes()) <= 1e-9)
    return e


class TestLowerEnvelope:
    def test_single_line(self):
        e = envelope([(1.0, 0.0)])
        assert e.eval(0.4) == pytest.approx(0.4)

    def test_two_lines_kink(self):
        e = envelope([(1, 0), (0, 0.5)])
        assert e.eval(0.25) == pytest.approx(0.25)
        assert e.eval(0.75) == pytest.approx(0.5)
        assert any(abs(x - 0.5) < 1e-12 for x in e.xs)

    def test_three_lines_grid_oracle(self):
        lines = [(1, 0), (0.5, 0.1), (0, 0.6)]
        e = envelope(lines)
        xs = np.linspace(0, 1, 1001)
        assert np.max(np.abs(e.eval(xs) - grid_min(lines, xs))) < 1e-12
        assert any(abs(x - 0.2) < 1e-9 for x in e.xs)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            affine_lower_envelope([], [], (0, 1))

    @given(
        data=st.lists(
            st.tuples(st.floats(0, 1), st.floats(-1, 1)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_families_match_grid_minimum(self, data):
        e = envelope(data)
        xs = np.linspace(0, 1, 10_001)
        assert np.max(np.abs(e.eval(xs) - grid_min(data, xs))) < 1e-12

    @given(
        data=st.lists(
            st.tuples(st.floats(0, 1), st.floats(-1, 1)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_output_concave(self, data):
        slopes = envelope(data).slopes()
        assert np.all(np.diff(slopes) <= 1e-12)

    def test_pencil_of_lines_through_common_point(self):
        # many lines through (0.5, 0.4); only the extreme slopes survive
        lines = [(s, 0.4 - 0.5 * s) for s in np.linspace(0.4, 0.8, 30)]
        e = envelope(lines)
        xs = np.linspace(0, 1, 2001)
        assert np.max(np.abs(e.eval(xs) - grid_min(lines, xs))) < 1e-12


def test_envelope_rejects_bad_lines():
    for slope in (1.5, -0.2, np.nan, np.inf):
        with pytest.raises(ValueError):
            affine_lower_envelope(np.array([0.5, slope]), np.zeros(2), (0, 1))
    for intercept in (np.nan, -np.inf):
        with pytest.raises(ValueError):
            affine_lower_envelope(np.array([0.5, 0.25]), np.array([0.0, intercept]), (0, 1))
    with pytest.raises(ValueError):
        affine_lower_envelope(np.zeros(2), np.zeros(3), (0, 1))


def line_family(kind, rng, n):
    """(slopes, intercepts) of one family of n lines with slopes in [0, 1]."""
    if kind == "random":
        return rng.uniform(0, 1, n), rng.uniform(-1, 1, n)
    if kind == "equal slopes":
        return rng.choice([0.0, 0.25, 0.5, 1.0], n), rng.uniform(-1, 1, n)
    if kind == "slope gaps of 1e-14":
        s = rng.uniform(0.1, 0.9) + 1e-14 * rng.integers(-3, 4, n)
        return s, rng.uniform(-1, 1, n)
    if kind == "pencil":
        x0, y0 = rng.uniform(0, 1), rng.uniform(-1, 1)
        s = rng.uniform(0, 1, n)
        return s, y0 - s * x0
    if kind == "tangents":  # of y - y^2/2, every line on the envelope
        y = np.sort(rng.uniform(0, 1, n))
        return 1.0 - y, y**2 / 2
    if kind == "identical":
        return np.full(n, rng.uniform(0, 1)), np.full(n, rng.uniform(-1, 1))
    raise ValueError(kind)


FAMILIES = ["random", "equal slopes", "slope gaps of 1e-14", "pencil", "tangents", "identical"]


def virtual_lines(m, env):
    """The (slope, intercept) family virtual_loss builds for m's deviation loss."""
    grid, a = m.grid, np.clip(m.a, 0.0, 1.0)
    plus = running_max_floor(deviation_loss_table(m), env.x_lo)
    return a, np.minimum((1.0 - a) * grid, plus + a * env.tau)


# (slopes, intercepts) and the envelope's (xs, vs) on [0, 1] and on [-1, 0],
# zero signs included
SIGNED_ZERO_CASES = [
    (([-0.0, 0.5], [-0.0, 0.1]), (([0.0, 1.0], [0.0, 0.0]), ([-1.0, -0.2, 0.0], [-0.4, -0.0, 0.0]))),
    (([-0.0], [-0.0]), (([0.0, 1.0], [0.0, 0.0]), ([-1.0, 0.0], [-0.0, 0.0]))),
    (([0.0, -0.0], [-0.0, 0.0]), (([0.0, 1.0], [0.0, 0.0]), ([-1.0, 0.0], [-0.0, 0.0]))),
    (([-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]), (([0.0, 1.0], [0.0, 0.0]), ([-1.0, 0.0], [-1.0, 0.0]))),
    (([1.0, -0.0, 0.25], [-0.0, -0.0, 0.0]), (([0.0, 1.0], [0.0, 0.0]), ([-1.0, 0.0], [-1.0, 0.0]))),
]


class TestEnvelopeMatchesReference:
    """The envelope must lie within depth_tol of the minimum of its lines and
    be concave up to 1e-9 on every family, fine constructed grids included."""

    @given(kind=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_families(self, kind, seed, n):
        s, b = line_family(kind, np.random.default_rng(seed), n)
        assert_within_depth_tol(s, b)
        assert_within_depth_tol(s, b, (-0.5, 2.0))

    @pytest.mark.parametrize("x_lo,x_hi,tau", [(0.0, 1.0, 0.5), (0.0, 1.0, 0.0), (0.0, 1e6, 5e5)])
    @pytest.mark.parametrize("grid", [201, 1001])
    def test_constructed_mechanisms(self, x_lo, x_hi, tau, grid):
        env = make_env(tau=tau, x_lo=x_lo, x_hi=x_hi)
        for seed in range(1, 9):
            m = build_efficient(random_loss_function(env, np.random.default_rng(seed)), env, grid)
            a, b = virtual_lines(m, env)
            e = assert_within_depth_tol(a, b, (env.x_lo, env.x_hi))
            star = virtual_loss(m.grid, deviation_loss_table(m), m.a, env)
            assert same_bits(star.shape, validate_lambda(e, env).shape)

    def test_curved_loss(self):
        env = make_env(tau=0.5)
        xs = np.linspace(0.0, 1.0, 1000)
        m = build_efficient(validate_lambda(PwlFunction(xs, xs - xs**2 / 2), env), env, 2001)
        assert_within_depth_tol(*virtual_lines(m, env))

    @pytest.mark.parametrize("loss", ["random", "curved"])
    def test_fine_grid(self, loss):
        # neighbouring menu lines differ in slope by O(1/n) here, so their
        # crossings lose most of their digits
        env = make_env(tau=0.5)
        if loss == "random":
            lam = random_loss_function(env, np.random.default_rng(1))
        else:
            xs = np.linspace(0.0, 1.0, 1000)
            lam = validate_lambda(PwlFunction(xs, xs - xs**2 / 2), env)
        assert_within_depth_tol(*virtual_lines(build_efficient(lam, env, 16001), env))

    @pytest.mark.parametrize("slopes,intercepts", [lines for lines, _ in SIGNED_ZERO_CASES])
    def test_signed_zeros(self, slopes, intercepts):
        # looked up by repr: a -0.0 compares equal to 0.0
        outputs = {repr(lines): out for lines, out in SIGNED_ZERO_CASES}[repr((slopes, intercepts))]
        for domain, (xs, vs) in zip([(0.0, 1.0), (-1.0, 0.0)], outputs):
            e = affine_lower_envelope(np.array(slopes), np.array(intercepts), domain)
            assert e.xs.tobytes() == np.array(xs).tobytes()
            assert e.vs.tobytes() == np.array(vs).tobytes()


def reference_virtual_loss(grid, lam, a, env):
    """virtual_loss through the PWL running max read back at the grid."""
    a = np.clip(a, 0.0, 1.0)
    plus = reference_running_max_floor(PwlFunction(grid, lam), env.x_lo).eval(grid)
    intercepts = np.minimum((1.0 - a) * grid, plus + a * env.tau)
    return validate_lambda(affine_lower_envelope(a, intercepts, (env.x_lo, env.x_hi)), env)


def assert_virtual_loss_matches_reference(grid, lam, a, env):
    assert same_bits(virtual_loss(grid, lam, a, env).shape, reference_virtual_loss(grid, lam, a, env).shape)


ENVS = [(0.0, 1.0, 0.5), (0.0, 1.0, 0.0), (0.0, 1e6, 5e5)]


class TestVirtualLossMatchesReference:
    """virtual_loss on the table's running max must give the bytes of the
    PWL running max read at the grid, on tables with and without drops."""

    @pytest.mark.parametrize("x_lo,x_hi,tau", ENVS)
    def test_constructed_mechanisms(self, x_lo, x_hi, tau):
        env = make_env(tau=tau, x_lo=x_lo, x_hi=x_hi)
        for seed, grid in [(1, 201), (2, 201), (3, 1001), (4, 4001)]:
            m = build_efficient(random_loss_function(env, np.random.default_rng(seed)), env, grid)
            assert_virtual_loss_matches_reference(m.grid, deviation_loss_table(m), m.a, env)

    @pytest.mark.parametrize("x_lo,x_hi,tau", ENVS)
    def test_random_ic_mechanisms(self, x_lo, x_hi, tau):
        # their deviation losses drop where a new menu line undercuts
        env = make_env(tau=tau, x_lo=x_lo, x_hi=x_hi)
        rng = np.random.default_rng(int(tau) + 5)
        drops = 0
        for n in (201, 201, 401, 2001):
            m = random_mechanism(env, rng, n)
            lam = deviation_loss_table(m)
            drops += np.count_nonzero(np.diff(lam) < 0)
            assert_virtual_loss_matches_reference(m.grid, lam, m.a, env)
        assert drops

    def test_curved_loss(self):
        env = make_env(tau=0.5)
        xs = np.linspace(0.0, 1.0, 1000)
        m = build_efficient(validate_lambda(PwlFunction(xs, xs - xs**2 / 2), env), env, 16001)
        assert_virtual_loss_matches_reference(m.grid, deviation_loss_table(m), m.a, env)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), tau=st.sampled_from([0.0, 0.5]))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_tables(self, seed, k, tau):
        rng = np.random.default_rng(seed)
        grid, lam = adversarial_table(rng, 2**k + 1)
        lam = np.maximum(lam, -tau)
        a = np.where(rng.uniform(size=len(grid)) < 0.5, rng.choice([0.0, 1.0], len(grid)), rng.uniform(0, 1, len(grid)))
        assert_virtual_loss_matches_reference(grid, lam, a, make_env(tau=tau))


def test_pwl_json_roundtrip():
    f = pwl((0, 0), (0.25, 0.2), (1, 0.6))
    again = PwlFunction.from_dict(f.to_dict())
    assert np.array_equal(again.xs, f.xs)
    assert np.array_equal(again.vs, f.vs)
