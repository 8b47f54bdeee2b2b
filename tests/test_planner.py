import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlbb84 import planner
from vlbb84.link_model import (ChannelDerived, LinkParams, SecurityParams,
                               channel_at, effective_flip, limit_distance)
from vlbb84.numerics import binary_entropy, output_length_fixed_point
from vlbb84.planner import (_NOISE_GRID_STEP, _NOISE_TOL, COUNT,
                            DEFAULT_FRACTION, FRACTION, SQRT, STRATEGY_KINDS,
                            InfeasibleError, Strategy,
                            _budget_from_requirements, _request_budget,
                            _max_extra_noise, _screen_budget,
                            _sqrt_sample_limit, a0, expected_output,
                            fixed_n_strategy, forecast, gamma, kbr_stats, l_f,
                            optimal_extra_noise, photon_budget, plan,
                            strategy_stats, success_probability)
from vlbb84.protocol import derive_seed, run_protocol

LINK = LinkParams()
SEC = SecurityParams()


class TestGamma:
    def test_reference(self):
        assert gamma(0.05, SEC) == pytest.approx(0.13, abs=1e-12)

    def test_decay_limit(self):
        assert gamma(5.0, SEC) == pytest.approx(SEC.eps, abs=1e-12)

    def test_zero_limit(self):
        assert gamma(1e-9, SEC) == pytest.approx(0.4, abs=1e-6)


class TestA0:
    def test_reference(self):
        assert a0(0.05, SEC) == pytest.approx(1124.26, abs=0.01)

    def test_diverges_at_zero(self):
        with pytest.raises(InfeasibleError):
            a0(0.0, SEC)

    def test_half(self):
        g = gamma(0.5, SEC)
        assert a0(0.5, SEC) == pytest.approx(1.0 / g ** 2, rel=1e-12)

    @pytest.mark.parametrize("p_hat", [1.0, 1.5])
    def test_rejects_p_hat_of_one_or_more(self, p_hat):
        with pytest.raises(ValueError) as exc:
            a0(p_hat, SEC)
        assert str(exc.value) == f"p_hat must be in (0, 1), got {p_hat}"
        assert not isinstance(exc.value, InfeasibleError)

    def test_shape(self):
        # a0 blows up toward 0 and decays on the tail, but is not globally
        # monotone: gamma itself decays with p_hat, so 1/gamma^2 grows and
        # produces a local bump around p_hat ~ 0.05.
        assert a0(1e-4, SEC) > a0(0.01, SEC)
        xs = np.linspace(0.05, 0.49, 60)
        vals = [a0(float(x), SEC) for x in xs]
        assert all(u > v for u, v in zip(vals, vals[1:]))
        assert a0(0.048, SEC) > a0(0.024, SEC)  # the interior bump


class TestAccuracyUnderflow:
    def test_a0_names_itself_when_gamma_squared_underflows(self):
        sec = SecurityParams(eps=1e-300)
        with pytest.raises(InfeasibleError) as exc:
            a0(0.011, sec)
        assert exc.value.stage == "a0"
        assert str(exc.value) == ("a0: accuracy gamma = 2.808e-300 squared "
                                  "underflows to 0 at p_hat = 0.011")

    @pytest.mark.parametrize("kind", [COUNT, SQRT])
    @pytest.mark.parametrize("eps, message", [
        (1e-300, "a0: accuracy gamma = 2.804e-300 squared underflows to 0 "
                 "at p_hat = 0.0110464"),
        (1e-160, "a0: accuracy floor A_0 overflows a float"),
    ])
    def test_fixed_n_strategy_names_a0(self, kind, eps, message):
        # gamma^2 is 0 at eps = 1e-300 and subnormal at 1e-160, where
        # 1 / gamma^2 is inf.
        with pytest.raises(InfeasibleError) as exc:
            fixed_n_strategy(channel_at(LINK, 30.0), kind, 100_000, 0.0,
                             SecurityParams(eps=eps))
        assert exc.value.stage == "a0"
        assert str(exc.value) == message


class TestLf:
    def test_reference(self):
        assert l_f(1000, 0.05, SEC) == pytest.approx(3065.2, abs=0.5)

    def test_numerator_at_zero_error(self):
        expect = 1000 + 6 + 4 * math.log2(1000 / SEC.eps_max)
        assert l_f(1000, 0.0, SEC) == pytest.approx(expect, rel=1e-12)

    def test_diverges_toward_threshold(self):
        assert l_f(1000, 0.0905, SEC) > 1e5
        with pytest.raises(InfeasibleError):
            l_f(1000, 0.095, SEC)

    def test_mf_floor(self):
        with pytest.raises(ValueError):
            l_f(0, 0.05, SEC)


class TestStrategyStats:
    def test_fraction_row(self):
        stats = strategy_stats(2e5, 0.06, 0.05, Strategy(FRACTION, 1 / 3))
        assert stats.mean_L == pytest.approx(8000.0, rel=1e-12)
        assert stats.std_L == pytest.approx((2 / 3) * math.sqrt(12000 * 0.94),
                                            rel=1e-12)
        assert stats.std_L == pytest.approx(70.8, abs=0.01)
        assert stats.mean_sample == pytest.approx(4000.0, rel=1e-12)

    def test_count_boundary_infeasible(self):
        with pytest.raises(InfeasibleError):
            strategy_stats(1e4, 0.06, 0.05, Strategy(COUNT, 600.0))

    def test_sqrt_no_sampling_limit(self):
        stats = strategy_stats(1e5, 0.06, 0.05, Strategy(SQRT, 1e-12))
        np_ = 1e5 * 0.06
        assert stats.mean_L == pytest.approx(np_, rel=1e-9)
        assert stats.std_L == pytest.approx(math.sqrt(np_ * 0.94), rel=1e-9)

    def test_qhat_moments(self):
        stats = strategy_stats(2e5, 0.06, 0.05, Strategy(COUNT, 1000.0))
        assert stats.std_Qhat == pytest.approx(math.sqrt(0.05 * 0.95 / 1000),
                                               rel=1e-12)

    def test_rejects_fewer_than_one_pulse(self):
        with pytest.raises(ValueError) as exc:
            strategy_stats(0.5, 0.06, 0.05, Strategy(COUNT, 10.0))
        assert str(exc.value) == "n_pulses must be >= 1, got 0.5"

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.6])
    def test_rejects_p_outside_half(self, p):
        with pytest.raises(ValueError) as exc:
            strategy_stats(1e5, p, 0.05, Strategy(COUNT, 10.0))
        assert str(exc.value) == f"p must be in (0, 1/2], got {p}"

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            Strategy(FRACTION, 0.6)
        with pytest.raises(ValueError):
            Strategy(COUNT, 0.0)
        with pytest.raises(ValueError):
            Strategy("other", 1.0)

    def test_sample_size_caps(self):
        assert Strategy(FRACTION, 0.5).sample_size(11) == 5
        assert Strategy(COUNT, 4000.0).sample_size(100) == 50
        assert Strategy(FRACTION, 1e-4).sample_size(100) == 1
        assert Strategy(SQRT, 2.0).sample_size(100) == 20


class TestSampleSizeRounding:
    # Exact halves round up, on every rule; 2.5 and 3.5 also tell half-up
    # from rounding half to even.
    @pytest.mark.parametrize("strategy, n, size", [
        (Strategy(COUNT, 2.5), 100, 3),
        (Strategy(COUNT, 3.5), 100, 4),
        (Strategy(COUNT, 2.4999999), 100, 2),
        (Strategy(FRACTION, 0.25), 10, 3),    # 2.5
        (Strategy(SQRT, 0.5), 25, 3),         # 0.5 * 5 = 2.5
        (Strategy(SQRT, 0.75), 36, 5),        # 0.75 * 6 = 4.5
    ])
    def test_exact_half_rounds_up(self, strategy, n, size):
        assert strategy.sample_size(n) == size


class TestPhotonBudget:
    def test_count_dual_oracle_d50(self):
        # Straight-line recomputation of the constant-count sizing chain,
        # written independently of the planner internals.
        ch = channel_at(LINK, 50.0)
        p, ph = ch.p, ch.P_flip
        gam = 0.1 * (1 + 3 * 10 ** (-20 * ph))
        a0_ref = (1 / gam ** 2) * (1 / ph - 1)
        lf_ref = (1000 + 6 + 4 * math.log2(1000 / 0.01)) / (
            1 - 2.27 * binary_entropy(ph))
        arm1 = 2 * a0_ref / p
        arm2 = 9 / (4 * p) * (math.sqrt(1 - p)
                              + math.sqrt((1 - p) + 4 * (a0_ref + lf_ref) / 9)) ** 2
        n_ref = math.ceil(max(arm1, arm2))

        n_f, strategy, n_lim = photon_budget(ch, 1000, COUNT, 0.0, SEC)
        assert n_f == n_ref == 486535
        assert strategy.param == pytest.approx(a0_ref, rel=1e-12)
        assert strategy.param == pytest.approx(1036.106465, abs=1e-4)
        assert n_lim is None

    def test_fraction_and_sqrt_frozen_d50(self):
        ch = channel_at(LINK, 50.0)
        n_f, strategy, _ = photon_budget(ch, 1000, FRACTION, 0.0, SEC)
        assert n_f == 502530
        assert strategy.param == pytest.approx(1 / 3)
        n_f, strategy, n_lim = photon_budget(ch, 1000, SQRT, 0.0, SEC)
        assert n_f == 481817
        assert n_lim == pytest.approx(2980.202388, abs=1e-4)
        assert strategy.param == pytest.approx(1036.106465 / math.sqrt(n_lim),
                                               rel=1e-6)

    def test_n_lim_residual(self):
        ch = channel_at(LINK, 50.0)
        ph = ch.P_flip
        a0_bits, lf_bits = a0(ph, SEC), l_f(1000, ph, SEC)
        x = _sqrt_sample_limit(lf_bits, a0_bits, ch.p, SEC.C_F)
        res = (x ** 1.5 - SEC.C_F * math.sqrt(1 - ch.p) * x
               - (lf_bits + a0_bits) * math.sqrt(x)
               + a0_bits * SEC.C_F / 2 * math.sqrt(1 - ch.p))
        assert abs(res) <= 1e-6 * (lf_bits + a0_bits + 1)

    @pytest.mark.parametrize("m_f", [1, 1000, 10**8])
    @pytest.mark.parametrize("p_extra", [0.0, 0.01, 0.03, 0.06, 0.09])
    def test_n_lim_brackets_exact_root(self, p_extra, m_f):
        # In exact rational arithmetic on the solver's float coefficients,
        # the cubic in u = sqrt(n_lim) is <= 0 four ulps below u and >= 0
        # four ulps above it: n_lim is the largest root to ~1e-15.
        width = Fraction(4, 2 ** 52)
        feasible = 0
        for d in np.linspace(0.0, 79.0, 40).tolist():
            ch = channel_at(LINK, d)
            try:
                _, n_lim, a0_bits, lf_bits = _request_budget(
                    ch, m_f, SQRT, SEC)(p_extra)
            except InfeasibleError:
                continue
            feasible += 1
            root_1p = math.sqrt(1.0 - ch.p)
            ca = Fraction(-SEC.C_F * root_1p)
            cb = Fraction(-(lf_bits + a0_bits))
            cc = Fraction(a0_bits * SEC.C_F / 2.0 * root_1p)

            def poly(u):
                return ((u + ca) * u + cb) * u + cc

            u = Fraction(math.sqrt(n_lim))
            assert poly(u * (1 - width)) <= 0 <= poly(u * (1 + width)), d
        assert feasible > 0

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_scalar_budget_is_python_float(self, kind):
        # The scalar objective runs on Python floats, not 0-d arrays, even
        # though the budget formulas are shared with the numpy screen.
        n_f, n_lim, _, _ = _request_budget(channel_at(LINK, 30.0), 1000,
                                           kind, SEC)(0.01)
        assert type(n_f) is float
        if kind == SQRT:
            assert type(n_lim) is float

    def test_float_solver_matches_array_solver(self):
        # The array call, under the screen's np.errstate, is the reference:
        # on floats the solver gives it to 4 ulps, is non-finite at exactly
        # the same inputs and returns a Python float.
        special = [0.0, 1e300, math.inf, math.nan]
        lf_grid = np.geomspace(7.0, 1e9, 13).tolist() + special
        a0_grid = np.geomspace(1.0, 1e12, 13).tolist() + special
        lf_bits, a0_bits = (a.ravel() for a in np.meshgrid(lf_grid, a0_grid))
        finite = 0
        for p in np.geomspace(1e-6, 0.5, 9).tolist():
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ref = _sqrt_sample_limit(lf_bits, a0_bits, p, SEC.C_F, np)
            for lf_v, a0_v, want in zip(lf_bits.tolist(), a0_bits.tolist(),
                                        ref.tolist()):
                got = _sqrt_sample_limit(lf_v, a0_v, p, SEC.C_F)
                case = (lf_v, a0_v, p, got, want)
                assert type(got) is float, case
                assert math.isfinite(got) == math.isfinite(want), case
                if math.isfinite(want):
                    finite += 1
                    assert abs(got - want) <= 4 * math.ulp(want), case
        assert finite > 0

    def test_degenerate_collapse_fraction(self):
        # With no accuracy or length requirement the bound collapses to
        # the pure fluctuation term C_F^2 (1-p) / p.
        p = 0.06
        n_f, _ = _budget_from_requirements(FRACTION, p, 0.0, 0.0, SEC)
        assert n_f == pytest.approx(SEC.C_F ** 2 * (1 - p) / p, rel=1e-9)

    def test_degenerate_collapse_sqrt(self):
        p = 0.06
        n_lim = _sqrt_sample_limit(0.0, 0.0, p, SEC.C_F)
        assert n_lim == pytest.approx(SEC.C_F ** 2 * (1 - p), rel=1e-9)

    def test_infeasible_above_threshold(self):
        with pytest.raises(InfeasibleError):
            photon_budget(channel_at(LINK, 100.0), 1000, COUNT, 0.0, SEC)
        with pytest.raises(InfeasibleError):
            photon_budget(channel_at(LINK, 50.0), 1000, COUNT, 0.08, SEC)

    def test_infeasible_at_zero_flip(self):
        with pytest.raises(InfeasibleError):
            photon_budget(channel_at(LINK, 0.0), 1000, COUNT, 0.0, SEC)

    def test_nondecreasing_in_mf(self):
        ch = channel_at(LINK, 30.0)
        for kind in (FRACTION, COUNT):
            sizes = [photon_budget(ch, m, kind, 0.01, SEC)[0]
                     for m in (200, 500, 1000, 2000, 5000)]
            assert all(u <= v for u, v in zip(sizes, sizes[1:]))
        # The sqrt strategy is nondecreasing only once the key-length arm
        # binds; below that the cap arm 4*A_0^2/n_lim shrinks as n_lim
        # grows with m_F, so N_F genuinely dips (its own defining max[]).
        sizes = [photon_budget(ch, m, SQRT, 0.01, SEC)[0]
                 for m in (500, 1000, 2000, 5000)]
        assert all(u <= v for u, v in zip(sizes, sizes[1:]))
        low, mid = (photon_budget(ch, m, SQRT, 0.01, SEC)[0]
                    for m in (200, 500))
        assert low > mid

    def test_appendix_constraints_hold_at_budget(self):
        # At N = N_F: enough sample for the accuracy floor, realized
        # fraction at most 1/2, and the relative accuracy condition met.
        for d in (10.0, 50.0):
            for kind in (FRACTION, COUNT, SQRT):
                for p_extra in (0.0, 0.01):
                    ch = channel_at(LINK, d)
                    ph = effective_flip(ch.P_flip, p_extra)
                    n_f, strategy, _ = photon_budget(ch, 1000, kind, p_extra, SEC)
                    stats = strategy_stats(n_f, ch.p, ph, strategy)
                    assert stats.mean_sample >= a0(ph, SEC) * (1 - 1e-9)
                    n_mean = n_f * ch.p
                    assert strategy.sample_size(round(n_mean)) <= n_mean / 2 + 1
                    assert stats.std_Qhat / ph <= \
                        gamma(ph, SEC) * (1 + 1e-9)


class TestOptimalExtraNoise:
    def test_positive_at_short_distance(self):
        for kind in (FRACTION, COUNT, SQRT):
            e = optimal_extra_noise(channel_at(LINK, 10.0), 1000, kind, SEC)
            assert e > 1e-3
            ch = channel_at(LINK, 10.0)
            assert effective_flip(ch.P_flip, e) < SEC.Q_t

    def test_never_worse_than_zero_noise(self):
        for kind in (FRACTION, COUNT, SQRT):
            for d in (10.0, 25.0, 40.0, 60.0):
                ch = channel_at(LINK, d)
                e = optimal_extra_noise(ch, 1000, kind, SEC)
                n_opt = photon_budget(ch, 1000, kind, e, SEC)[0]
                n_zero = photon_budget(ch, 1000, kind, 0.0, SEC)[0]
                assert n_opt <= n_zero

    def test_infeasible_beyond_limit(self):
        with pytest.raises(InfeasibleError):
            optimal_extra_noise(channel_at(LINK, 100.0), 1000, COUNT, SEC)

    @pytest.mark.parametrize("g", [0.7, -0.5, 0.0, 1.0])
    def test_rejects_fraction_outside_half(self, g):
        ch = channel_at(LINK, 30.0)
        with pytest.raises(ValueError, match="fraction g must be in"):
            optimal_extra_noise(ch, 1000, FRACTION, SEC, g=g)
        with pytest.raises(ValueError, match="fraction g must be in"):
            photon_budget(ch, 1000, FRACTION, 0.0, SEC, g=g)
        with pytest.raises(ValueError, match="fraction g must be in"):
            plan(30.0, 1000, FRACTION, LINK, SEC, g=g, p_extra=0.0)


# The scalar scan of every grid point that optimal_extra_noise ran before
# its numpy screen, kept as the oracle the screen must reproduce exactly.
def reference_optimal_extra_noise(channel: ChannelDerived, m_f: int,
                                  kind: str, sec: SecurityParams,
                                  g: float = DEFAULT_FRACTION) -> float:
    """Artificial-noise level minimizing N_F on this channel.

    Dense grid scan over the feasible range followed by golden-section
    refinement; returns 0 whenever the intrinsic link noise alone already
    minimizes the budget.
    """
    if channel.P_flip >= sec.Q_t:
        raise InfeasibleError(
            "optimal_extra_noise",
            f"intrinsic QBER {channel.P_flip:.6f} >= abort threshold {sec.Q_t}")
    if kind == FRACTION:
        Strategy(FRACTION, g)   # rejects g outside (0, 1/2] before the search

    def objective(p_extra: float) -> float:
        try:
            return _request_budget(channel, m_f, kind, sec, g)(p_extra)[0]
        except InfeasibleError:
            return math.inf

    e_max = max(_max_extra_noise(channel.P_flip, sec) - 1e-9, 0.0)
    n_grid = int(e_max / _NOISE_GRID_STEP) + 1
    best_i, best_v = 0, objective(0.0)
    for i in range(1, n_grid + 1):
        e = min(i * _NOISE_GRID_STEP, e_max)
        v = objective(e)
        if v < best_v:
            best_i, best_v = i, v
    if best_v == math.inf:
        raise InfeasibleError("optimal_extra_noise", "no feasible noise level")

    lo = max((best_i - 1) * _NOISE_GRID_STEP, 0.0)
    hi = min((best_i + 1) * _NOISE_GRID_STEP, e_max)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _NOISE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = objective(x2)
    e_opt = 0.5 * (lo + hi)
    if objective(0.0) <= objective(e_opt):
        return 0.0
    return e_opt


def noise_outcome(optimize, channel, m_f, kind, g):
    try:
        return optimize(channel, m_f, kind, SEC, g)
    except InfeasibleError as exc:
        return "infeasible", exc.stage


D_LIM = limit_distance(LINK, SEC)
# The default security parameters and four that move gamma's relaxation.
SCREEN_SECS = (SEC, SecurityParams(beta=200.0), SecurityParams(beta=-100.0),
               SecurityParams(eps=1e-3), SecurityParams(alpha=50.0, beta=5.0))
# g only enters the fraction strategy.
KIND_G = [(FRACTION, g) for g in (DEFAULT_FRACTION, 0.05, 0.5)] + [
    (COUNT, DEFAULT_FRACTION), (SQRT, DEFAULT_FRACTION)]


class TestMatchesReferenceScan:
    # d = 0 has P_flip = 0, so grid point 0 is infeasible; just below
    # d_lim the grid has two points, and just above it none.
    @pytest.mark.parametrize("kind, g", KIND_G)
    @pytest.mark.parametrize("d", [0.0, 30.0, D_LIM - 0.01, D_LIM + 0.01])
    @pytest.mark.parametrize("m_f", [1, 1000, 10**8])
    def test_grid_cases(self, kind, g, d, m_f):
        ch = channel_at(LINK, d)
        expect = noise_outcome(reference_optimal_extra_noise, ch, m_f, kind, g)
        assert noise_outcome(optimal_extra_noise, ch, m_f, kind, g) == expect

    @given(d=st.floats(min_value=0.0, max_value=80.0),
           log_mf=st.floats(min_value=0.0, max_value=8.0),
           kind=st.sampled_from(STRATEGY_KINDS),
           g=st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    @settings(max_examples=100, deadline=None)
    # Subnormal inputs, where the budget overflows or divides by an
    # underflowed g*p: those noise levels are infeasible, grid point 0
    # among them.
    @example(d=1.1125369292536007e-308, log_mf=0.0, kind=SQRT, g=0.5)
    @example(d=7.228922560445868e-258, log_mf=0.0, kind=SQRT, g=0.5)
    @example(d=0.0, log_mf=0.0, kind=FRACTION, g=5e-324)
    def test_random_requests(self, d, log_mf, kind, g):
        ch = channel_at(LINK, d)
        m_f = round(10.0 ** log_mf)
        expect = noise_outcome(reference_optimal_extra_noise, ch, m_f, kind, g)
        assert noise_outcome(optimal_extra_noise, ch, m_f, kind, g) == expect

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("d", [0.0, 1e-308, 30.0, 65.0])
    def test_screen_tracks_scalar_objective(self, kind, d):
        # The re-check margin of 1e-9 relies on this agreement. At
        # d = 1e-308 the sample floor A_0 overflows at zero added noise;
        # both must call that point infeasible.
        self.check_screen_tracks_scalar(kind, d, SEC)

    @pytest.mark.parametrize("sec", SCREEN_SECS[1:], ids=[
        "beta=200", "beta=-100", "eps=1e-3", "alpha=50,beta=5"])
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("d", [0.0, 1e-308, 30.0, 65.0])
    def test_screen_tracks_scalar_objective_other_sec(self, kind, d, sec):
        # The screen takes gamma's 10**(-beta * p_hat) as an exp: here it
        # decays steeply, grows, meets a tight eps, and dominates gamma.
        self.check_screen_tracks_scalar(kind, d, sec)

    @staticmethod
    def check_screen_tracks_scalar(kind, d, sec):
        ch = channel_at(LINK, d)
        e_max = _max_extra_noise(ch.P_flip, sec)
        grid = np.linspace(0.0, e_max, 200)
        screen = _screen_budget(ch, 1000, kind, grid, sec, DEFAULT_FRACTION)
        for e, v in zip(grid.tolist(), screen.tolist()):
            try:
                scalar = _request_budget(ch, 1000, kind, sec)(e)[0]
            except InfeasibleError:
                scalar = math.inf
            assert v == pytest.approx(scalar, rel=1e-12)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_scalar_evaluations_bounded(self, monkeypatch, kind):
        # A scalar scan of the grid evaluates the budget 846 times here.
        # The screen leaves the re-check of its near-minimal points (1
        # here), the golden section (two interior points, then one new point per
        # step: 14 for its 12 steps) and the final zero-noise comparison
        # (2): 17 in all. plan() reuses the comparison's evaluation at the
        # returned noise, and the request's budget is set up once.
        setups, noises = count_budget_calls(monkeypatch)
        plan(30.0, 1000, kind, LINK, SEC)
        assert len(setups) == 1
        assert len(noises) == 17

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_zero_noise_evaluated_once(self, monkeypatch, kind):
        # At 65 km the screen puts grid point 0 (zero noise) among its
        # near-minimal points, so the re-check evaluates it first. The
        # final zero-noise comparison reuses that result: 14 evaluations
        # in all, where evaluating 0 twice made 15.
        setups, noises = count_budget_calls(monkeypatch)
        plan(65.0, 1000, kind, LINK, SEC)
        assert len(setups) == 1
        assert noises[0] == 0.0
        assert noises.count(0.0) == 1
        assert len(noises) == 14

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_dark_link_is_refused_at_setup(self, monkeypatch, kind):
        # On a dark link the set-up refuses the request: no noise level is
        # screened or evaluated.
        setups, noises = count_budget_calls(monkeypatch)
        screens = []
        screen_budget = planner._screen_budget
        monkeypatch.setattr(planner, "_screen_budget",
                            lambda *args: screens.append(args)
                            or screen_budget(*args))
        with pytest.raises(InfeasibleError) as exc:
            plan(0.0, 1000, kind, LinkParams(eta_e=0.0), SEC)
        assert exc.value.stage == "photon_budget"
        assert (len(setups), noises, screens) == (1, [], [])

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_given_noise_evaluated_once(self, monkeypatch, kind):
        setups, noises = count_budget_calls(monkeypatch)
        plan(30.0, 1000, kind, LINK, SEC, p_extra=0.01)
        assert (len(setups), noises) == (1, [0.01])


def count_budget_calls(monkeypatch):
    """Record each set-up of a request's scalar budget (its arguments) and
    the noise level of each call of the budget it returns."""
    setups, noises = [], []
    request_budget = planner._request_budget

    def counting_request_budget(*args):
        setups.append(args)
        budget = request_budget(*args)

        def counting_budget(p_extra):
            noises.append(p_extra)
            return budget(p_extra)
        return counting_budget

    monkeypatch.setattr(planner, "_request_budget", counting_request_budget)
    return setups, noises


# One request's budget at one noise level, written as one function (with
# l_f inlined), kept as the oracle that _request_budget's set-up and its
# budget must reproduce bit for bit, errors included.
def reference_budget_real(channel: ChannelDerived, m_f: int, kind: str,
                          p_extra: float, sec: SecurityParams,
                          g: float = DEFAULT_FRACTION):
    if kind == FRACTION:
        Strategy(FRACTION, g)   # rejects g outside (0, 1/2]
    p = channel.p
    if p <= 0.0:
        raise InfeasibleError("photon_budget", "link delivers no signal (p = 0)")
    p_hat = effective_flip(channel.P_flip, p_extra)
    if p_hat <= 0.0:
        raise InfeasibleError(
            "photon_budget", "effective flip is 0; accuracy condition diverges")
    if p_hat >= sec.Q_t:
        raise InfeasibleError(
            "photon_budget",
            f"effective flip {p_hat:.6f} >= abort threshold {sec.Q_t}")
    a0_bits = a0(p_hat, sec)
    floor = m_f + 6.0 + 4.0 * math.log2(m_f / sec.eps_max)
    den = 1.0 - (1.0 + sec.f_max) * binary_entropy(p_hat)
    if den <= 0.0:
        raise InfeasibleError(
            "l_f", f"effective flip {p_hat:.6f} at or above the abort threshold")
    l_f_bits = floor / den
    try:
        n_f, n_lim = _budget_from_requirements(kind, p, a0_bits, l_f_bits,
                                               sec, g)
    except (OverflowError, ZeroDivisionError):
        n_f = math.inf
    if not math.isfinite(n_f):
        raise InfeasibleError("photon_budget", "no finite N_F meets the "
                              "sample and key-length requirements")
    return n_f, n_lim, a0_bits, l_f_bits


def budget_outcome(budget, *args) -> str:
    """The repr of a budget's result or of the error it raises: equal reprs
    are equal floats bit for bit, -0.0 and 0.0 told apart."""
    try:
        return repr(budget(*args))
    except InfeasibleError as exc:
        return repr(("infeasible", exc.stage, str(exc)))
    except ValueError as exc:
        return repr(("invalid", str(exc)))


# A threshold above the rate's root, where l_F's denominator reaches 0
# below Q_t, alone and with an accuracy whose square underflows (A_0
# raises): the budget must raise the same stage first.
BUDGET_EDGE_SECS = (SecurityParams(Q_t=0.2),
                    SecurityParams(Q_t=0.2, eps=1e-300))


class TestBudgetMatchesReference:
    # Every request meets the reference at its drawn noise and at the edges
    # of the noise range: 0, the grid's top, e_max itself and 1/2.
    @given(d=st.floats(min_value=0.0, max_value=80.0),
           log_mf=st.floats(min_value=0.0, max_value=8.0),
           kind=st.sampled_from(STRATEGY_KINDS + ("other",)),
           g=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
           p_extra=st.floats(min_value=0.0, max_value=0.5),
           sec=st.sampled_from(SCREEN_SECS + BUDGET_EDGE_SECS))
    @settings(max_examples=200, deadline=None)
    # test_random_requests's subnormal requests, and a g outside (0, 1/2].
    @example(d=1.1125369292536007e-308, log_mf=0.0, kind=SQRT, g=0.5,
             p_extra=0.0, sec=SEC)
    @example(d=7.228922560445868e-258, log_mf=0.0, kind=SQRT, g=0.5,
             p_extra=0.0, sec=SEC)
    @example(d=0.0, log_mf=0.0, kind=FRACTION, g=5e-324, p_extra=0.0,
             sec=SEC)
    @example(d=30.0, log_mf=3.0, kind=FRACTION, g=0.7, p_extra=0.01, sec=SEC)
    def test_random_requests(self, d, log_mf, kind, g, p_extra, sec):
        ch = channel_at(LINK, d)
        m_f = round(10.0 ** log_mf)
        e_max = _max_extra_noise(ch.P_flip, sec)
        for e in (p_extra, 0.0, max(e_max - 1e-9, 0.0), e_max, 0.5):
            assert (budget_outcome(
                        lambda: _request_budget(ch, m_f, kind, sec, g)(e))
                    == budget_outcome(reference_budget_real,
                                      ch, m_f, kind, e, sec, g))

    @pytest.mark.parametrize("p_extra", [-0.1, 0.6])
    def test_noise_outside_half(self, p_extra):
        ch = channel_at(LINK, 30.0)
        assert (budget_outcome(
                    lambda: _request_budget(ch, 1000, COUNT, SEC)(p_extra))
                == budget_outcome(reference_budget_real,
                                  ch, 1000, COUNT, p_extra, SEC)
                == repr(("invalid",
                         f"p_extra must be in [0, 1/2], got {p_extra}")))

    def test_dark_link(self):
        # p = 0: the set-up refuses the request with the error that the
        # reference raises at every noise level.
        ch = channel_at(LinkParams(eta_e=0.0), 0.0)
        for e in (0.0, 0.01):
            assert (budget_outcome(
                        lambda: _request_budget(ch, 1000, SQRT, SEC)(e))
                    == budget_outcome(reference_budget_real,
                                      ch, 1000, SQRT, e, SEC))


def _objective(channel, m_f, kind, p_extra):
    try:
        return _request_budget(channel, m_f, kind, SEC)(p_extra)[0]
    except InfeasibleError:
        return math.inf


class TestRefinementQuality:
    # reference_optimal_extra_noise runs the same refinement, so agreeing
    # with it says nothing of how good the refined optimum is. No point of
    # a fine grid around the returned noise, nor zero noise, may beat it.
    # Every request here is feasible, up to m_F = 1e8 at 75 km.
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("m_f", [1, 10**3, 10**6, 10**8])
    @pytest.mark.parametrize("d", [0.5, 5.0, 17.0, 30.0, 45.0, 65.0, 75.0])
    def test_no_nearby_noise_is_better(self, kind, m_f, d):
        ch = channel_at(LINK, d)
        e = optimal_extra_noise(ch, m_f, kind, SEC)
        e_max = max(_max_extra_noise(ch.P_flip, SEC) - 1e-9, 0.0)
        near = np.linspace(max(e - 2e-4, 0.0), min(e + 2e-4, e_max), 401)
        best = min(_objective(ch, m_f, kind, x)
                   for x in [0.0, *near.tolist()])
        assert _objective(ch, m_f, kind, e) <= best * (1.0 + 1e-12)


class TestSubnormalInputs:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("m_f", [1, 1000])
    @pytest.mark.parametrize("d", [0.0, 1e-150, 1e-200, 1e-300, 1e-308, 5e-324])
    def test_tiny_distance_plans_as_at_1e9(self, kind, m_f, d):
        # Below ~1e-9 km the intrinsic flip only shrinks; the optimal
        # noise dominates it, so the plan must not move.
        near = plan(1e-9, m_f, kind, LINK, SEC)
        result = plan(d, m_f, kind, LINK, SEC)
        assert result.N_F == near.N_F
        assert result.P_extra_opt == pytest.approx(near.P_extra_opt, abs=1e-9)


class TestSuccessProbability:
    def test_half_at_threshold(self):
        d_lim = limit_distance(LINK, SEC)
        p_succ = success_probability(channel_at(LINK, d_lim), 200000,
                                     Strategy(FRACTION, 1 / 3), 0.0, SEC)
        assert p_succ == pytest.approx(0.5, abs=1e-3)

    def test_far_tail(self):
        p_succ = success_probability(channel_at(LINK, 10.0), 2_000_000,
                                     Strategy(FRACTION, 1 / 3), 0.0, SEC)
        assert p_succ >= 1 - 1e-6

    def test_monte_carlo_abort_rate_d50(self):
        # Spec reference point: essentially no aborts predicted or seen.
        strategy = Strategy(FRACTION, 1 / 3)
        p_succ = success_probability(channel_at(LINK, 50.0), 200000, strategy,
                                     0.0, SEC)
        aborts = sum(
            run_protocol(LINK, SEC, 50.0, 200000, strategy, 0.0,
                         derive_seed(101, i)).aborted
            for i in range(500))
        rate = aborts / 500
        se = max(math.sqrt(p_succ * (1 - p_succ) / 500), 1 / 500)
        assert abs(rate - (1 - p_succ)) <= 3 * se

    def test_abort_rate_at_planned_budget(self):
        # At N = N_F the estimation sample is sized so aborts are
        # essentially impossible; the simulated rate must agree.
        result = plan(50.0, 500, COUNT, LINK, SEC)
        p_succ = result.P_success
        assert 1 - p_succ < 1e-6
        aborts = sum(
            run_protocol(LINK, SEC, 50.0, result.N_F, result.strategy,
                         result.P_extra_opt, derive_seed(909, i)).aborted
            for i in range(200))
        assert aborts / 200 <= (1 - p_succ) + 3 * math.sqrt(1e-6 / 200) + 1e-3

    def test_monte_carlo_abort_rate_d65(self):
        # Near the limit the abort rate is materially nonzero.
        strategy = Strategy(FRACTION, 1 / 3)
        p_succ = success_probability(channel_at(LINK, 65.0), 200000, strategy,
                                     0.0, SEC)
        assert p_succ < 1 - 1e-4
        runs = [run_protocol(LINK, SEC, 65.0, 200000, strategy, 0.0,
                             derive_seed(202, i)).aborted for i in range(500)]
        rate = sum(runs) / 500
        se_emp = math.sqrt(max(rate * (1 - rate), 1e-6) / 500)
        se_pred = math.sqrt(p_succ * (1 - p_succ) / 500)
        assert abs(rate - (1 - p_succ)) <= 3 * math.hypot(se_emp, se_pred)


class TestSuccessProbabilityClosedForm:
    def test_randomized_run_against_closed_form(self):
        # An independent evaluation at P_extra > 0, where the inferred QBER's
        # spread is the observed one divided by 1 - 2 P_extra: dropping that
        # factor reads 0.807 here.
        ch = channel_at(LINK, 76.0)
        n, g, p_extra = 2_000_000, 1 / 3, 0.02
        p_hat = ch.P_flip + p_extra - 2.0 * ch.P_flip * p_extra
        sigma_observed = math.sqrt(p_hat * (1.0 - p_hat) / (g * n * ch.p))
        z = (SEC.Q_t - ch.P_flip) * (1.0 - 2.0 * p_extra) / sigma_observed
        want = 0.5 * math.erfc(-z / math.sqrt(2.0))
        got = success_probability(ch, n, Strategy(FRACTION, g), p_extra, SEC)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.798, abs=5e-4)


class TestExpectedOutput:
    def test_zero_above_threshold(self):
        mean_m, std_m = expected_output(channel_at(LINK, 50.0), 486535,
                                        Strategy(COUNT, 1036.0), 0.08, SEC)
        assert mean_m == 0
        assert std_m == 0.0

    def test_zero_noise_collapse(self):
        # At d = 0 the effective flip is 0, so k equals the key length.
        mean_m, _ = expected_output(channel_at(LINK, 0.0), 10000,
                                    Strategy(FRACTION, 1 / 3), 0.0, SEC)
        mean_l = (2 / 3) * 10000 * 0.06
        assert mean_m == output_length_fixed_point(mean_l, SEC.eps_max)

    def test_meets_target_at_budget(self):
        # The sizing identity is linear while the output length carries a
        # -4*log2(m) term, so the guarantee is exact only up to ~2 bits;
        # assert with a 3-bit slack.
        ch = channel_at(LINK, 50.0)
        for kind in (FRACTION, COUNT, SQRT):
            n_f, strategy, _ = photon_budget(ch, 1000, kind, 0.0, SEC)
            mean_m, std_m = expected_output(ch, n_f, strategy, 0.0, SEC)
            assert mean_m - SEC.C_F * std_m >= 1000 - 3


class TestKbrStats:
    def test_certain_success_mixture(self):
        strategy = Strategy(FRACTION, 1 / 3)
        ch = channel_at(LINK, 10.0)
        mean_m, std_m = expected_output(ch, 2_000_000, strategy, 0.0, SEC)
        p_succ = success_probability(ch, 2_000_000, strategy, 0.0, SEC)
        kbr_mean, kbr_std = kbr_stats(2_000_000, p_succ, mean_m, std_m)
        assert kbr_mean == pytest.approx(mean_m / 2e6, rel=1e-6)
        assert kbr_std == pytest.approx(std_m / 2e6, rel=1e-4)

    def test_monte_carlo_d25(self):
        strategy = Strategy(FRACTION, 1 / 3)
        ch = channel_at(LINK, 25.0)
        kbr_mean, kbr_std = kbr_stats(
            200000, success_probability(ch, 200000, strategy, 0.0, SEC),
            *expected_output(ch, 200000, strategy, 0.0, SEC))
        kbrs = [run_protocol(LINK, SEC, 25.0, 200000, strategy, 0.0,
                             derive_seed(303, i)).m / 200000
                for i in range(50)]
        emp = float(np.mean(kbrs))
        se_emp = float(np.std(kbrs, ddof=1)) / math.sqrt(50)
        se_pred = kbr_std / math.sqrt(50)
        assert abs(emp - kbr_mean) <= 3 * math.hypot(se_emp, se_pred)


class TestPlan:
    def test_composition_consistency(self):
        result = plan(30.0, 1000, COUNT, LINK, SEC)
        assert result.N_F >= 1
        assert 0.0 <= result.P_extra_opt < 0.5
        ch = channel_at(LINK, 30.0)
        assert effective_flip(ch.P_flip, result.P_extra_opt) < SEC.Q_t
        assert result.strategy.kind == COUNT
        assert result.strategy.param == pytest.approx(result.A_0, rel=1e-12)
        assert result.expected_m >= result.m_F

    def test_infeasible_beyond_limit(self):
        with pytest.raises(InfeasibleError):
            plan(100.0, 1000, FRACTION, LINK, SEC)

    def test_mf_floor_enforced(self):
        with pytest.raises(ValueError) as exc:
            plan(30.0, 0, FRACTION, LINK, SEC)
        assert not isinstance(exc.value, InfeasibleError)

    @pytest.mark.parametrize("p_extra", [0.5, 0.6, -0.01, math.nan])
    def test_given_noise_outside_half_rejected(self, p_extra):
        # A malformed noise level, not one the link cannot serve.
        ch = channel_at(LINK, 30.0)
        message = rf"p_extra must be in \[0, 1/2\), got {p_extra}"
        for kind in STRATEGY_KINDS:
            with pytest.raises(ValueError, match=message) as exc:
                plan(30.0, 1000, kind, LINK, SEC, p_extra=p_extra)
            assert not isinstance(exc.value, InfeasibleError)
            with pytest.raises(ValueError, match=message):
                fixed_n_strategy(ch, kind, 100_000, p_extra, SEC)

    @pytest.mark.parametrize("kind, stage", [
        (FRACTION, "forecast"), (COUNT, "forecast"), (SQRT, "photon_budget"),
    ], ids=[FRACTION, COUNT, SQRT])
    @pytest.mark.parametrize("d", [1e-150, 1e-300])
    def test_forecast_overflow_is_infeasible(self, d, kind, stage):
        # Without added noise the flip is ~d. For fraction and count N_F is
        # finite but the expected key length squared overflows a float; for
        # sqrt the sample limit or its budget is not a finite float.
        with pytest.raises(InfeasibleError) as exc:
            plan(d, 1000, kind, LINK, SEC, p_extra=0.0)
        assert exc.value.stage == stage

    @pytest.mark.parametrize("p_extra", [0.01, None],
                             ids=["given-noise", "noise-search"])
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_dark_link_is_infeasible(self, kind, p_extra):
        # No photon leaves the source, so even at d = 0 nothing is sifted:
        # the budget's set-up refuses the request, with or without the
        # noise search.
        dark = LinkParams(eta_e=0.0)
        with pytest.raises(InfeasibleError) as exc:
            plan(0.0, 1000, kind, dark, SEC, p_extra=p_extra)
        assert exc.value.stage == "photon_budget"
        assert str(exc.value) == ("photon_budget: link delivers no signal "
                                  "(p = 0)")

    def test_unknown_kind_rejected(self):
        # A malformed request, with or without the noise search.
        for p_extra in (None, 0.01):
            with pytest.raises(ValueError) as exc:
                plan(30.0, 1000, "other", LINK, SEC, p_extra=p_extra)
            assert str(exc.value) == "unknown strategy kind 'other'"
            assert not isinstance(exc.value, InfeasibleError)
        with pytest.raises(ValueError) as exc:
            fixed_n_strategy(channel_at(LINK, 30.0), "other", 100_000, 0.0,
                             SEC)
        assert str(exc.value) == "unknown strategy kind 'other'"
        assert not isinstance(exc.value, InfeasibleError)

    def test_huge_forecast_still_plans(self):
        # At d = 1e-140 the forecasts stay within float range: it plans.
        result = plan(1e-140, 1000, COUNT, LINK, SEC, p_extra=0.0)
        assert result.N_F == pytest.approx(7.452e145, rel=1e-3)
        assert result.P_success == 1.0

    @pytest.mark.parametrize("n_pulses", [0, -5])
    def test_fixed_n_needs_a_pulse(self, n_pulses):
        ch = channel_at(LINK, 30.0)
        for kind in STRATEGY_KINDS:
            with pytest.raises(ValueError) as exc:
                fixed_n_strategy(ch, kind, n_pulses, 0.0, SEC)
            assert str(exc.value) == f"n_pulses must be >= 1, got {n_pulses}"
            assert not isinstance(exc.value, InfeasibleError)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_fixed_n_beyond_float_is_infeasible(self, kind):
        with pytest.raises(InfeasibleError) as exc:
            fixed_n_strategy(channel_at(LINK, 30.0), kind, 10 ** 400, 0.0, SEC)
        assert exc.value.stage == "fixed_n_strategy"
        assert str(exc.value) == ("fixed_n_strategy: N = 1.000e+400 pulses "
                                  "overflow a float")

    def test_fixed_n_without_signal_names_its_stage(self):
        # A link with p = 0 sifts nothing. Every rule is refused before its
        # A_0 is computed, so p_extra = 0 (where A_0 diverges) is refused
        # at the same stage.
        ch = channel_at(LinkParams(eta_d=0.0, R_DCR=0.0), 30.0)
        assert ch.p == 0.0
        for kind in (FRACTION, COUNT, SQRT):
            for p_extra in (0.0, 0.01):
                with pytest.raises(InfeasibleError) as exc:
                    fixed_n_strategy(ch, kind, 100_000, p_extra, SEC)
                assert exc.value.stage == "fixed_n_strategy"
                assert str(exc.value) == (
                    "fixed_n_strategy: a run of N pulses needs sifted bits, "
                    "and the link delivers none (p = 0)")

    def test_derives_the_channel_once(self, monkeypatch):
        distances = []

        def counting_channel_at(link, d):
            distances.append(d)
            return channel_at(link, d)

        monkeypatch.setattr("vlbb84.planner.channel_at", counting_channel_at)
        for kind in (FRACTION, COUNT, SQRT):
            plan(30.0, 1000, kind, LINK, SEC)
            plan(30.0, 1000, kind, LINK, SEC, p_extra=0.0)
        assert distances == [30.0] * 6

    def test_as_dict_serializes(self):
        doc = plan(30.0, 500, SQRT, LINK, SEC).as_dict()
        assert doc["m_F"] == 500
        assert doc["strategy"]["kind"] == SQRT
        assert doc["n_lim"] > 0

    def test_simulated_validation_d30(self):
        # Plans must deliver the target in at least 95 of 100 runs.
        result = plan(30.0, 1000, COUNT, LINK, SEC)
        hits = sum(
            run_protocol(LINK, SEC, 30.0, result.N_F, result.strategy,
                         result.P_extra_opt, derive_seed(404, i)).m >= 1000
            for i in range(100))
        assert hits >= 95


def reference_forecast(channel, n_pulses, strategy, p_extra, sec):
    """forecast() as the composition of the public forecasts."""
    try:
        mean_m, std_m = expected_output(channel, n_pulses, strategy, p_extra,
                                        sec)
        p_succ = success_probability(channel, n_pulses, strategy, p_extra, sec)
        kbr_mean, kbr_std = kbr_stats(n_pulses, p_succ, mean_m, std_m)
    except OverflowError:
        raise InfeasibleError(
            "forecast", "the key-length forecasts at N_F = "
            f"{Decimal(n_pulses):.3e} overflow a float") from None
    return mean_m, std_m, p_succ, kbr_mean, kbr_std


class TestForecast:
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_is_the_plans_forecast(self, kind):
        # plan() forecasts through forecast(), so on a plan's own inputs
        # the two agree bit for bit.
        result = plan(30.0, 1000, kind, LINK, SEC)
        assert forecast(channel_at(LINK, 30.0), result.N_F, result.strategy,
                        result.P_extra_opt, SEC) == (
            result.expected_m, result.expected_m_std, result.P_success,
            result.expected_KBR, result.KBR_std)

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_goes_through_its_public_parts(self, monkeypatch, kind):
        # forecast() calls the module's expected_output, success_probability
        # and kbr_stats, so a wrapper on any of them sees every forecast.
        calls = []
        for name in ("expected_output", "success_probability", "kbr_stats"):
            def spy(*args, _name=name, _fn=getattr(planner, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(planner, name, spy)
        result = plan(30.0, 1000, kind, LINK, SEC)
        assert calls == ["expected_output", "success_probability",
                         "kbr_stats"]
        calls.clear()
        forecast(channel_at(LINK, 30.0), result.N_F, result.strategy,
                 result.P_extra_opt, SEC)
        assert calls == ["expected_output", "success_probability",
                         "kbr_stats"]

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_overflow_is_infeasible(self, kind):
        # The expected key length at this N squares beyond float range.
        ch = channel_at(LINK, 30.0)
        strategy = fixed_n_strategy(ch, kind, 10 ** 160, 0.0, SEC)
        with pytest.raises(InfeasibleError) as exc:
            forecast(ch, 10 ** 160, strategy, 0.0, SEC)
        assert exc.value.stage == "forecast"
        assert str(exc.value) == ("forecast: the key-length forecasts at "
                                  "N_F = 1.000e+160 overflow a float")

    @pytest.mark.parametrize("d", [0.0, 1e-140, 40.0, 90.0])
    @pytest.mark.parametrize("strategy", [
        Strategy(FRACTION, 1 / 3), Strategy(COUNT, 50.0), Strategy(SQRT, 2.0)])
    def test_matches_composition(self, d, strategy):
        # forecast() composes the three public forecasts; its results and
        # errors must be those of the reference composition.
        ch = channel_at(LINK, d)
        for n in (0, 1, 100, 10 ** 5, 10 ** 160, 10 ** 400):
            for p_extra in (-0.1, 0.0, 0.02, 0.5, 0.6):
                args = (ch, n, strategy, p_extra, SEC)
                assert (budget_outcome(forecast, *args)
                        == budget_outcome(reference_forecast, *args))

    def test_overflow_message_beyond_float(self):
        # The message writes N without converting it to a float.
        ch = channel_at(LINK, 30.0)
        strategy = fixed_n_strategy(ch, COUNT, 10 ** 160, 0.0, SEC)
        with pytest.raises(InfeasibleError) as exc:
            forecast(ch, 10 ** 400, strategy, 0.0, SEC)
        assert str(exc.value) == ("forecast: the key-length forecasts at "
                                  "N_F = 1.000e+400 overflow a float")


# plan(d, 1000, kind, LINK, SEC), frozen bit for bit: strategy param, N_F,
# P_extra_opt, l_F, A_0, n_lim, expected_m, expected_m_std, expected_KBR,
# KBR_std, P_success. A refactor of the planner must reproduce every value.
FROZEN_PLANS = {
    (5.0, FRACTION): (0.3333333333333333, 64016, 0.01927082039324994,
        1599.081697687546, 1017.3537296188775, None,
        1290, 24.104600527058494, 0.020151212196950763,
        0.00037654024817324565, 1.0),
    (5.0, COUNT): (1093.6538480432791, 54934, 0.011116023989253638,
        1375.5472100778036, 1093.6538480432791, None,
        1116, 38.9370185784982, 0.02031528743583209,
        0.0007087963479538755, 1.0),
    (5.0, SQRT): (21.557314969722174, 54253, 0.011009519494249012,
        1372.8696298096224, 1096.370896033304, 2586.578494355538,
        1091, 30.55364077664188, 0.020109487032975135,
        0.0005631696086233366, 1.0),
    (30.0, FRACTION): (0.3333333333333333, 201052, 0.009822291236000338,
        1599.0823767726404, 1017.3537296221452, None,
        1290, 24.512395337148195, 0.006416250522252949,
        0.00012192067394081231, 1.0),
    (30.0, COUNT): (1093.6518753106334, 172698, 0.0015072722464948268,
        1375.5491827799963, 1093.6518753106334, None,
        1118, 39.615138661507046, 0.006473728705601686,
        0.0002293896782910459, 1.0),
    (30.0, SQRT): (21.549664244565857, 170524, 0.0013967477524976868,
        1372.824140678856, 1096.4177431033568, 2588.6366404447394,
        1092, 31.090067143722944, 0.006403790668762168,
        0.00018232077093970905, 1.0),
    (65.0, FRACTION): (0.3333333333333333, 1571881, 0.0,
        3262.5275394991986, 1123.7954716900451, None,
        1046, 15.636493834169096, 0.0006654447760356366,
        9.947632069549969e-06, 0.999999999999687),
    (65.0, COUNT): (1123.7954716900451, 1412280, 0.0,
        3262.5275394991986, 1123.7954716900451, None,
        1066, 22.232136958476552, 0.0007548078265662221,
        1.57420636065749e-05, 0.9999999974699288),
    (65.0, SQRT): (16.635139834637947, 1404440, 0.0,
        3262.5275394991986, 1123.7954716900451, 4563.747875462398,
        1057, 19.440686344965545, 0.0007526131392766706,
        1.3842356399007067e-05, 0.9999999974699406),
}
PLAN_FIELDS = ("N_F", "P_extra_opt", "l_F", "A_0", "n_lim", "expected_m",
               "expected_m_std", "expected_KBR", "KBR_std", "P_success")


class TestFrozenForecasts:
    @pytest.mark.parametrize("d, kind", list(FROZEN_PLANS))
    def test_whole_plan(self, d, kind):
        param, *values = FROZEN_PLANS[d, kind]
        expect = {"d": d, "m_F": 1000,
                  "strategy": {"kind": kind, "param": param},
                  **dict(zip(PLAN_FIELDS, values))}
        assert plan(d, 1000, kind, LINK, SEC).as_dict() == expect

    @pytest.mark.parametrize("kind, param, std_m, kbr_std", [
        (COUNT, 1025.5528943604443, 49.23259667341459, 9.846519334682919e-05),
        (SQRT, 14.759146839996465, 44.00397535560993, 8.800795071121986e-05),
    ])
    def test_fixed_n_forecast_d40(self, kind, param, std_m, kbr_std):
        n_pulses = 500_000
        ch = channel_at(LINK, 40.0)
        strategy = fixed_n_strategy(ch, kind, n_pulses, 0.0, SEC,
                                    DEFAULT_FRACTION)
        assert strategy == Strategy(kind, param)
        m_stats = expected_output(ch, n_pulses, strategy, 0.0, SEC)
        assert m_stats == (2629, std_m)
        p_succ = success_probability(ch, n_pulses, strategy, 0.0, SEC)
        assert p_succ == 1.0
        assert kbr_stats(n_pulses, p_succ, *m_stats) == (0.005258, kbr_std)
        assert forecast(ch, n_pulses, strategy, 0.0, SEC) == (
            2629, std_m, 1.0, 0.005258, kbr_std)
