import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlbb84.link_model import (LinkParams, SecurityParams, channel_at,
                               effective_flip, infer_qber, limit_distance)
from vlbb84.numerics import binary_entropy, solve_bracketed

LINK = LinkParams()
SEC = SecurityParams()


class TestDeriveChannel:
    def test_zero_distance_degenerate(self):
        ch = channel_at(LinkParams(), 0.0)
        assert ch.window == 0.0
        assert ch.P_DCR == 0.0
        assert ch.P_loss == pytest.approx(0.88, abs=1e-15)
        assert ch.P_depolar == 0.0
        assert ch.p == pytest.approx(0.06, abs=1e-15)
        assert ch.P_flip == 0.0
        assert ch.s == pytest.approx(101.5e-9, abs=1e-15)

    def test_50km_values(self):
        # Frozen from a straight-line evaluation of the closed forms.
        ch = channel_at(LINK, 50.0)
        assert ch.P_loss == pytest.approx(0.988, abs=1e-12)
        assert ch.p == pytest.approx(6.18534347e-3, abs=1e-10)
        assert ch.P_flip == pytest.approx(2.70545228e-2, abs=1e-9)
        assert ch.P_flip == pytest.approx(0.0271, abs=5e-5)
        assert ch.s == pytest.approx(4.513265285e-5, rel=1e-9)

    def test_50km_repetition_time_structure(self):
        ch = channel_at(LINK, 50.0)
        delta_tau = 0.02 * 50.0 / LINK.v_f
        assert ch.s == pytest.approx(0.5e-9 + 1e-9 + 100e-9 + 9 * delta_tau,
                                     rel=1e-12)

    def test_s_at_least_s_lim(self):
        for d in (0.0, 1.0, 10.0, 77.0, 150.0):
            ch = channel_at(LINK, d)
            assert ch.s >= ch.s_lim

    def test_p_strictly_decreasing_in_operational_range(self):
        # Beyond ~143 km the growing detector window lets dark counts
        # dominate and p turns back up; the monotone region comfortably
        # covers the operating range (d_lim ~ 78 km).
        ds = [0.5 * i for i in range(1, 281)]
        ps = [channel_at(LINK, d).p for d in ds]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert channel_at(LINK, 200.0).p > channel_at(LINK, 144.0).p

    def test_p_flip_nondecreasing(self):
        ds = [0.5 * i for i in range(1, 401)]
        fs = [channel_at(LINK, d).P_flip for d in ds]
        assert all(a <= b for a, b in zip(fs, fs[1:]))

    def test_probabilities_in_range(self):
        for d in (0.0, 25.0, 120.0, 200.0):
            ch = channel_at(LINK, d)
            for v in (ch.P_DCR, ch.P_0, ch.P_loss, ch.P_depolar, ch.p, ch.P_flip):
                assert 0.0 <= v <= 1.0
            assert ch.P_loss >= ch.P_0
            assert ch.p <= 0.5

    @pytest.mark.parametrize("d, message", [
        (-1.0, "d must be >= 0, got -1.0"),
        (math.nan, "d must be finite, got nan"),
        (math.inf, "d must be finite, got inf"),
        (-math.inf, "d must be finite, got -inf"),
    ])
    def test_unusable_distance_rejected(self, d, message):
        with pytest.raises(ValueError) as exc:
            channel_at(LINK, d)
        assert str(exc.value) == message


# Every derived quantity at the reference devices, frozen bit for bit.
FROZEN_CHANNELS = {
    0.0: {"tau": 0.0, "delta_tau": 0.0, "window": 0.0, "P_DCR": 0.0,
          "P_0": 0.88, "P_loss": 0.88, "P_depolar": 0.0, "p": 0.06,
          "P_flip": 0.0, "s": 1.015e-07, "s_lim": 1.015e-07},
    1e-300: {"tau": 5.003461427972282e-306,
             "delta_tau": 1.0006922855944565e-307,
             "window": 3.0020768567833694e-307,
             "P_DCR": 7.505192141958424e-306, "P_0": 0.88, "P_loss": 0.88,
             "P_depolar": 5.003461427972282e-304, "p": 0.06,
             "P_flip": 2.7956840728795127e-304, "s": 1.015e-07,
             "s_lim": 1.015e-07},
    5.0: {"tau": 2.5017307139861407e-05, "delta_tau": 5.003461427972281e-07,
          "window": 1.5010384283916843e-06, "P_DCR": 3.752525661973575e-05,
          "P_0": 0.88, "P_loss": 0.9046806118330862,
          "P_depolar": 0.002498603993651083, "p": 0.04767666826951583,
          "P_flip": 0.0014362253049949511, "s": 4.604615285175053e-06,
          "s_lim": 3.1035768567833684e-06},
    30.0: {"tau": 0.00015010384283916845, "delta_tau": 3.002076856783369e-06,
           "window": 9.006230570350107e-06, "P_DCR": 0.00022513041860193912,
           "P_0": 0.88, "P_loss": 0.9698573628218851,
           "P_depolar": 0.014898290025894273, "p": 0.015180490786095624,
           "P_flip": 0.01104642492352063, "s": 2.712019171105032e-05,
           "s_lim": 1.8113961140700212e-05},
    65.0: {"tau": 0.0003252249928181983, "delta_tau": 6.504499856363966e-06,
           "window": 1.95134995690919e-05, "P_DCR": 0.0004877185158666913,
           "P_0": 0.88, "P_loss": 0.9939857531964728,
           "P_depolar": 0.031999329733587434, "p": 0.0032495160299344517,
           "P_flip": 0.05221214599714707, "s": 5.8641998707275696e-05,
           "s_lim": 3.91284991381838e-05},
    150.0: {"tau": 0.0007505192141958422, "delta_tau": 1.5010384283916844e-05,
            "window": 4.503115285175053e-05, "P_DCR": 0.0011251453700474913,
            "P_0": 0.88, "P_loss": 0.99988,
            "P_depolar": 0.07230468217976782, "p": 0.0006225051763015244,
            "P_flip": 0.45531731508084716, "s": 0.0001351949585552516,
            "s_lim": 9.016380570350107e-05},
}


class TestFrozenDerivation:
    @pytest.mark.parametrize("d", sorted(FROZEN_CHANNELS))
    def test_channel_is_bit_identical(self, d):
        assert channel_at(LINK, d).as_dict() == FROZEN_CHANNELS[d]

    def test_limit_distance_is_bit_identical(self):
        assert limit_distance(LINK, SEC) == 77.89731006548323


class TestEffectiveFlip:
    def test_identity_reduction(self):
        assert effective_flip(0.0, 0.05) == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 0.5])
    def test_half_is_fixed_point(self, x):
        assert effective_flip(0.5, x) == pytest.approx(0.5, abs=1e-15)

    def test_arithmetic(self):
        assert effective_flip(0.0271, 0.03) == pytest.approx(0.055474, abs=1e-6)

    @given(st.floats(min_value=0, max_value=0.5),
           st.floats(min_value=0, max_value=0.5))
    def test_symmetric_and_dominates(self, q, e):
        assert effective_flip(q, e) == pytest.approx(effective_flip(e, q), abs=1e-15)
        assert effective_flip(q, e) >= max(q, e) - 1e-15

    @pytest.mark.parametrize("bad", [-0.01, 0.51, 1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            effective_flip(bad, 0.1)
        with pytest.raises(ValueError):
            effective_flip(0.1, bad)


class TestInferQber:
    def test_zero_noise_identity(self):
        assert infer_qber(0.123, 0.0) == pytest.approx(0.123, abs=1e-15)

    def test_arithmetic_inverse(self):
        assert infer_qber(0.0555, 0.03) == pytest.approx(0.027128, abs=1e-6)

    @given(st.floats(min_value=0, max_value=0.499),
           st.floats(min_value=0, max_value=0.499))
    def test_roundtrip(self, q, e):
        assert infer_qber(effective_flip(q, e), e) == pytest.approx(q, abs=1e-12)

    def test_clamps_negative_fluctuation(self):
        assert infer_qber(0.01, 0.05) == 0.0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            infer_qber(0.2, 0.5)


class TestLimitDistance:
    def test_table1_value(self):
        d_lim = limit_distance(LINK, SEC)
        assert 70.0 < d_lim < 90.0
        assert d_lim == pytest.approx(77.8973, abs=1e-3)

    def test_defining_residual(self):
        d_lim = limit_distance(LINK, SEC)
        assert abs(channel_at(LINK, d_lim).P_flip - SEC.Q_t) <= 1e-9

    def test_threshold_below_any_flip(self):
        # The flip already exceeds Q_t at the search's lower end.
        assert limit_distance(LINK, SecurityParams(Q_t=1e-20)) == 1e-9

    def test_noiseless_link_has_no_limit(self):
        quiet = LinkParams(R_depolar=0.0, R_DCR=0.0)
        assert limit_distance(quiet, SEC) is None

    def test_threshold_consistency_with_entropy_root(self):
        # The abort threshold should sit at the zero of the key-rate factor.
        root = solve_bracketed(
            lambda q: 1.0 - (1.0 + SEC.f_max) * binary_entropy(q),
            1e-9, 0.49, tol=1e-12)
        assert abs(root - SEC.Q_t) <= 5e-4


# (params class, field, value, message) of every one-sided range check.
OUT_OF_RANGE_FIELDS = [
    *[(LinkParams, name, -1.0, f"{name} must be >= 0, got -1.0")
      for name in ("R", "R_depolar", "R_DCR", "DD", "DT", "GD_A", "GD_B")],
    (LinkParams, "C", 0.0, "C must be > 0, got 0.0"),
    (LinkParams, "C", -3.0, "C must be > 0, got -3.0"),
    (LinkParams, "v_f", 0.0, "v_f must be > 0, got 0.0"),
    (SecurityParams, "f_max", 0.99, "f_max must be >= 1, got 0.99"),
    (SecurityParams, "eps_max", 0.0, "eps_max must be in (0, 1), got 0.0"),
    (SecurityParams, "eps_max", 1.0, "eps_max must be in (0, 1), got 1.0"),
    (SecurityParams, "C_F", 0.0, "C_F must be > 0, got 0.0"),
    (SecurityParams, "eps", 0.0, "eps must be > 0, got 0.0"),
    (SecurityParams, "eps", -0.1, "eps must be > 0, got -0.1"),
]


class TestJsonLoading:
    def test_link_defaults_and_overrides(self):
        link = LinkParams.from_json({"DT": 50e-9, "eta_d": 0.7})
        assert link.DT == 50e-9
        assert link.eta_d == 0.7
        assert link.eta_e == 0.2
        assert link.R == 0.2

    def test_link_from_string(self):
        link = LinkParams.from_json(json.dumps({"R_DCR": 50}))
        assert link.R_DCR == 50.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            LinkParams.from_json({"dark_rate": 3})
        with pytest.raises(ValueError):
            SecurityParams.from_json({"qt": 0.1})

    def test_distance_is_not_a_link_field(self):
        # The distance is an argument of channel_at, not a device constant.
        with pytest.raises(ValueError) as exc:
            LinkParams.from_json({"d": 25.0})
        assert str(exc.value) == "unknown LinkParams fields: ['d']"
        with pytest.raises(TypeError):
            LinkParams(d=25.0)

    def test_security_defaults(self):
        sec = SecurityParams.from_json({})
        assert sec.Q_t == 0.091
        assert sec.f_max == 1.27
        assert sec.eps_max == 0.01
        assert sec.C_F == 3.0

    def test_numeric_string_accepted(self):
        assert LinkParams.from_json({"R": "0.3"}).R == 0.3

    @pytest.mark.parametrize("value", [None, True, False, [0.2], {"x": 1},
                                       "abc"])
    def test_non_numeric_value_rejected(self, value):
        with pytest.raises(ValueError, match="^R must be a number"):
            LinkParams.from_json({"R": value})
        with pytest.raises(ValueError, match="^Q_t must be a number"):
            SecurityParams.from_json({"Q_t": value})

    @pytest.mark.parametrize("text", ["[]", '"x"', "0.2", "null"])
    def test_document_must_be_object(self, text):
        with pytest.raises(ValueError) as exc:
            LinkParams.from_json(text)
        assert str(exc.value) == "LinkParams document must be a JSON object"
        with pytest.raises(ValueError, match="^SecurityParams document"):
            SecurityParams.from_json(text)

    @pytest.mark.parametrize(
        "cls, name, value, message", OUT_OF_RANGE_FIELDS,
        ids=[f"{cls.__name__}.{name}={value}"
             for cls, name, value, _ in OUT_OF_RANGE_FIELDS])
    def test_out_of_range_field_rejected(self, cls, name, value, message):
        with pytest.raises(ValueError) as exc:
            cls(**{name: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("alpha, beta", [
        (-1.0, 0.0), (-1.0, 20.0), (-2.0, 0.0), (-0.5, -0.61), (-1e-3, -6.1),
    ])
    def test_alpha_beta_that_zero_gamma_rejected(self, alpha, beta):
        # gamma = eps * (1 + alpha * 10**(-beta * p_hat)) must stay > 0 on
        # p_hat in [0, 1/2], or the accuracy floor divides by gamma^2 = 0.
        with pytest.raises(ValueError) as exc:
            SecurityParams(alpha=alpha, beta=beta)
        assert str(exc.value) == (
            "alpha and beta must keep 1 + alpha * 10**(-beta * p_hat) > 0 "
            f"for p_hat in [0, 1/2], got alpha={alpha}, beta={beta}")

    @pytest.mark.parametrize("alpha, beta", [
        (3.0, 20.0), (0.0, -600.0), (5.0, -10.0), (-0.999, 0.0),
        (-0.5, -0.6), (-1e-3, -5.9), (-0.9, 1e6),
    ])
    def test_alpha_beta_keeping_gamma_positive_accepted(self, alpha, beta):
        sec = SecurityParams(alpha=alpha, beta=beta)
        for i in range(101):
            assert 1.0 + sec.alpha * 10.0 ** (-sec.beta * i / 200) > 0.0

    def test_beta_overflowing_gamma_rejected(self):
        # 10**(-beta * p_hat) must stay a float on p_hat in [0, 1/2].
        with pytest.raises(ValueError) as exc:
            SecurityParams(alpha=0.0, beta=-601.0)
        assert str(exc.value) == "beta must be >= -600, got -601.0"

    @pytest.mark.parametrize("eps, alpha, beta", [
        (0.1, 1e300, -600.0), (0.1, 1e155, -1.0), (0.1, 1e200, 0.0),
        (1e200, 3.0, 20.0), (1e155, -0.5, 0.0),
    ])
    def test_gamma_overflowing_its_square_rejected(self, eps, alpha, beta):
        # The accuracy floor is 1/gamma^2 * (1/p_hat - 1); an infinite
        # gamma^2 makes it 0, a count constant no strategy accepts.
        with pytest.raises(ValueError) as exc:
            SecurityParams(eps=eps, alpha=alpha, beta=beta)
        assert str(exc.value) == (
            "eps, alpha and beta must keep gamma = eps * (1 + alpha * "
            "10**(-beta * p_hat)) squared finite for p_hat in [0, 1/2], "
            f"got eps={eps}, alpha={alpha}, beta={beta}")

    @pytest.mark.parametrize("eps, alpha, beta", [
        (0.1, 1e150, 0.0), (0.1, 1e-150, -600.0), (1e150, -0.5, 20.0),
        (1e-300, 3.0, 20.0),
    ])
    def test_gamma_with_finite_square_accepted(self, eps, alpha, beta):
        sec = SecurityParams(eps=eps, alpha=alpha, beta=beta)
        for i in range(101):
            g = sec.eps * (1.0 + sec.alpha * 10.0 ** (-sec.beta * i / 200))
            assert math.isfinite(g * g)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            LinkParams.from_json({"eta_e": 1.2})
        with pytest.raises(ValueError):
            SecurityParams.from_json({"Q_t": 0.6})
