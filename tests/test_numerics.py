import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlbb84.numerics import (binary_entropy, normal_cdf,
                             output_length_fixed_point, solve_bracketed)


def scan_fixed_point(k: float, eps_max: float = 0.01) -> int:
    """Brute-force oracle: largest integer m inside the extraction budget."""
    best = 0
    for m in range(1, max(2, math.floor(k)) + 1):
        if m <= k - 6.0 - 4.0 * math.log2(m / eps_max):
            best = m
    return best


def bisect_fixed_point(k: float, eps_max: float) -> int:
    """The bisection output_length_fixed_point ran before its direct
    solve, kept as its oracle: the end of the prefix of [1, floor(k)]
    inside the extraction budget."""
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    lo, hi = 0, max(math.floor(k), 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid <= k - 6.0 - 4.0 * math.log2(mid / eps_max):
            lo = mid
        else:
            hi = mid - 1
    return lo


def scan_floor_equation(k: float, eps_max: float = 0.01) -> int:
    """Brute-force oracle for the exact floored form; 0 when insoluble."""
    for m in range(max(2, math.floor(k)), 0, -1):
        if m == math.floor(k - 6.0 - 4.0 * math.log2(m / eps_max)):
            return m
    return 0


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value(self):
        assert binary_entropy(0.05) == pytest.approx(0.286397, abs=1e-6)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-12

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_concavity(self, x, y):
        mid = binary_entropy(0.5 * (x + y))
        assert mid >= 0.5 * (binary_entropy(x) + binary_entropy(y)) - 1e-12


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_reference_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-6)

    @given(st.floats(min_value=-8, max_value=8))
    def test_reflection(self, x):
        assert normal_cdf(x) == pytest.approx(1.0 - normal_cdf(-x), abs=1e-12)


class TestSolveBracketed:
    def test_linear(self):
        res = solve_bracketed(lambda x: x - 1.0, 0.0, 2.0, tol=1e-10)
        assert isinstance(res, float)
        assert res == pytest.approx(1.0, abs=1e-9)

    def test_sqrt2(self):
        res = solve_bracketed(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-12)
        assert res == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert abs(res * res - 2.0) <= 1e-6

    def test_non_bracketing(self):
        with pytest.raises(ValueError):
            solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_root_at_endpoint(self):
        assert solve_bracketed(lambda x: x, 0.0, 1.0) == 0.0

    def test_root_at_upper_endpoint(self):
        assert solve_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


class TestOutputLengthFixedPoint:
    @pytest.mark.parametrize("k", [-10.0, 0.0, 3.0, 6.0])
    def test_small_k_gives_zero(self, k):
        assert output_length_fixed_point(k, 0.01) == 0

    def test_reference_value(self):
        m = output_length_fixed_point(10000.0, 0.01)
        assert m == 9914
        assert m == scan_fixed_point(10000.0)

    def test_result_satisfies_equation(self):
        for k in (123.4, 1000.0, 4567.8, 9999.9):
            m = output_length_fixed_point(k, 0.01)
            assert m > 0
            assert m == math.floor(k - 6.0 - 4.0 * math.log2(m / 0.01))
            assert m <= k

    @given(st.floats(min_value=10.0, max_value=5000.0))
    @settings(max_examples=80, deadline=None)
    def test_against_scan_oracle(self, k):
        m = output_length_fixed_point(k, 0.01)
        assert m == scan_fixed_point(k)
        # Wherever the exact floored form is soluble, the result is its
        # (unique) solution.
        exact = scan_floor_equation(k)
        if exact:
            assert m == exact

    @given(st.floats(min_value=-10.0, max_value=1e9),
           st.sampled_from([0.01, 0.5, 1e-9]))
    @settings(max_examples=200, deadline=None)
    def test_largest_m_inside_budget(self, k, eps_max):
        def inside(m):
            return m <= k - 6.0 - 4.0 * math.log2(m / eps_max)

        m = output_length_fixed_point(k, eps_max)
        assert m == 0 or inside(m)
        assert not inside(m + 1)

    @given(st.floats(min_value=10.0, max_value=5000.0),
           st.sampled_from([0.5, 1e-9]))
    @settings(max_examples=40, deadline=None)
    def test_against_scan_oracle_other_eps(self, k, eps_max):
        assert output_length_fixed_point(k, eps_max) == \
            scan_fixed_point(k, eps_max)

    @given(st.floats(min_value=7.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_k(self, k, dk):
        assert output_length_fixed_point(k, 0.01) <= \
            output_length_fixed_point(k + dk, 0.01)

    def test_gap_k_takes_conservative_cycle_value(self):
        # At k = 50 the floor map 2-cycles between 6 and 7 and neither
        # satisfies the exact equation; the smaller element is the
        # largest integer inside the budget.
        assert scan_floor_equation(50.0) == 0
        assert scan_fixed_point(50.0) == 6
        assert output_length_fixed_point(50.0, 0.01) == 6

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            output_length_fixed_point(math.inf, 0.01)


EPS_EDGES = (1e-12, 0.01, 0.5, 0.99)


class TestOutputLengthMatchesBisection:
    # The direct solve must return the bisection's m exactly.
    def test_seeded_random_set(self):
        rng = np.random.default_rng(20261021)
        n = 20_000
        eps = 10.0 ** rng.uniform(-12.0, math.log10(0.99), n)
        # Half log-uniform on [1, 1e12], half uniform on [0, 1e12], so
        # every scale is reached, as is the top of the range.
        k = np.concatenate([10.0 ** rng.uniform(0.0, 12.0, n // 2),
                            rng.uniform(0.0, 1e12, n - n // 2)])
        for k_v, e_v in zip(k.tolist(), eps.tolist()):
            assert output_length_fixed_point(k_v, e_v) == \
                bisect_fixed_point(k_v, e_v), (k_v, e_v)

    @pytest.mark.parametrize("eps_max", EPS_EDGES)
    def test_k_below_seven(self, eps_max):
        for k in (-1e308, -10.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 5.999, 6.0,
                  6.5, math.nextafter(7.0, 0.0), 7.0):
            assert output_length_fixed_point(k, eps_max) == \
                bisect_fixed_point(k, eps_max), k

    @pytest.mark.parametrize("eps_max", EPS_EDGES)
    def test_integer_crossings(self, eps_max):
        # k at which the test admits m for the first time, and the floats
        # on either side of it: the end of the prefix moves there.
        for m in [1, 2, 3, 7, 10, 99, 100, 101, 1000, 12345, 10**6,
                  10**9 + 7, 10**12]:
            crossing = m + 6.0 + 4.0 * math.log2(m / eps_max)
            for k in (math.nextafter(crossing, 0.0), crossing,
                      math.nextafter(crossing, math.inf)):
                assert output_length_fixed_point(k, eps_max) == \
                    bisect_fixed_point(k, eps_max), (m, k)

    @pytest.mark.parametrize("eps_max", EPS_EDGES)
    def test_k_near_float_max(self, eps_max):
        # m / eps_max overflows to inf near the top, where the test fails:
        # the end lies below that overflow, far from the real root.
        top = sys.float_info.max
        for k in (top, math.nextafter(top, 0.0), 0.999 * top, top / 2,
                  2.0 ** 1000, 1e300):
            assert output_length_fixed_point(k, eps_max) == \
                bisect_fixed_point(k, eps_max), k

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_k_raises_the_same_error(self, k):
        with pytest.raises(ValueError) as want:
            bisect_fixed_point(k, 0.01)
        with pytest.raises(ValueError) as got:
            output_length_fixed_point(k, 0.01)
        assert str(got.value) == str(want.value) == f"k must be finite, got {k}"
