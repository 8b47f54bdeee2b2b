import math

import numpy as np
import pytest

from vlbb84.link_model import SecurityParams
from vlbb84.numerics import binary_entropy
from vlbb84.reconcile import cascade, leakage_upper_bound

SEC = SecurityParams()


def keys_with_exact_errors(l, n_errors, seed):
    """Alice's key plus Bob's copy with exactly n_errors flips."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, l, dtype=np.uint8)
    b = a.copy()
    if n_errors:
        b[rng.choice(l, n_errors, replace=False)] ^= 1
    return a, b


def top_level_parity_count(l, q_ref):
    k1 = math.ceil(0.73 / q_ref)
    return sum(math.ceil(l / (k1 * 2 ** i)) for i in range(4))


class TestCascadeBasics:
    def test_identical_keys(self):
        a, b = keys_with_exact_errors(256, 0, seed=1)
        res = cascade(a, b, 0.05, seed=2)
        assert res.verified
        assert np.array_equal(res.corrected_B, a)
        # No binary searches, so the leakage is exactly the top-level
        # block parities of the four passes.
        assert res.n_exp == top_level_parity_count(256, 0.05)

    def test_single_error_located(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = a.copy()
        b[37] ^= 1
        res = cascade(a, b, 0.05, seed=4)
        assert res.verified
        assert np.array_equal(res.corrected_B, a)
        assert int((b != res.corrected_B).sum()) == 1
        assert res.n_exp > top_level_parity_count(64, 0.05)

    def test_zero_qref_floor(self):
        a, b = keys_with_exact_errors(64, 1, seed=5)
        res = cascade(a, b, 0.0, seed=6)
        assert res.verified

    def test_determinism(self):
        a, b = keys_with_exact_errors(1024, 30, seed=7)
        r1 = cascade(a, b, 0.03, seed=8)
        r2 = cascade(a, b, 0.03, seed=8)
        assert r1.n_exp == r2.n_exp
        assert np.array_equal(r1.corrected_B, r2.corrected_B)

    def test_input_not_mutated(self):
        a, b = keys_with_exact_errors(128, 4, seed=9)
        b_orig = b.copy()
        cascade(a, b, 0.04, seed=10)
        assert np.array_equal(b, b_orig)

    def test_errors(self):
        a, b = keys_with_exact_errors(8, 0, seed=11)
        with pytest.raises(ValueError):
            cascade(a, b, 0.05, seed=1)
        a, b = keys_with_exact_errors(64, 0, seed=12)
        with pytest.raises(ValueError):
            cascade(a, b, 0.6, seed=1)
        with pytest.raises(ValueError):
            cascade(a, b[:32], 0.05, seed=1)


class TestCascadeStatistics:
    def test_success_and_efficiency_q03(self):
        l, q = 4096, 0.03
        verified = 0
        fs = []
        for s in range(100):
            a, b = keys_with_exact_errors(l, round(l * q), seed=1000 + s)
            res = cascade(a, b, q, seed=2000 + s)
            verified += res.verified
            fs.append(res.n_exp / (l * binary_entropy(q)))
        assert verified >= 99
        assert float(np.mean(fs)) <= SEC.f_max

    def test_leakage_bound_quick(self):
        l = 4096
        for q in (0.01, 0.05):
            bound = leakage_upper_bound(l, q, SEC)
            under = 0
            for s in range(30):
                a, b = keys_with_exact_errors(l, round(l * q), seed=3000 + s)
                res = cascade(a, b, q, seed=4000 + s)
                under += res.n_exp <= bound
                if res.verified:
                    assert np.array_equal(res.corrected_B, a)
            assert under / 30 >= 0.95

    def test_mean_leakage_monotone_in_error_rate(self):
        l = 2048
        means = []
        for q in (0.01, 0.03, 0.05, 0.08):
            leaks = []
            for s in range(30):
                a, b = keys_with_exact_errors(l, round(l * q), seed=5000 + s)
                leaks.append(cascade(a, b, q, seed=6000 + s).n_exp)
            means.append(float(np.mean(leaks)))
        assert all(u < v for u, v in zip(means, means[1:]))

    def test_f_realized_definition(self):
        a, b = keys_with_exact_errors(4096, 123, seed=13)
        res = cascade(a, b, 0.03, seed=14)
        assert res.f_realized == pytest.approx(
            res.n_exp / (4096 * binary_entropy(0.03)), rel=1e-12)


class TestLeakageUpperBound:
    def test_zero_error(self):
        assert leakage_upper_bound(3000, 0.0, SEC) == 0.0

    def test_half(self):
        assert leakage_upper_bound(3000, 0.5, SEC) == pytest.approx(1.27 * 3000)

    def test_reference(self):
        assert leakage_upper_bound(3000, 0.05, SEC) == pytest.approx(1091.2, abs=0.5)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            leakage_upper_bound(-1, 0.05, SEC)
