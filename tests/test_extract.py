import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vlbb84
from vlbb84.extract import (_fft_length, extract_key, secure_length,
                            toeplitz_extract)
from vlbb84.link_model import SecurityParams
from vlbb84.numerics import output_length_fixed_point

SEC = SecurityParams()


def dense_toeplitz(input_bits, seed_bits, m):
    """GF(2) oracle: materialize T with T[i, j] = seed[m-1-i+j]."""
    l = len(input_bits)
    T = np.empty((m, l), dtype=np.uint8)
    for i in range(m):
        T[i, :] = seed_bits[m - 1 - i:m - 1 - i + l]
    return (T @ np.asarray(input_bits, dtype=np.uint8)) % 2


class TestSecureLength:
    def test_zero_above_exact_root(self):
        # Just above the exact zero of the rate factor (~0.09122) the
        # secure length vanishes for every l.
        for l in (100, 3066, 10 ** 6):
            k, m = secure_length(l, 0.0913, SEC)
            assert k <= 0.0
            assert m == 0

    def test_noiseless_passthrough(self):
        k, m = secure_length(5000, 0.0, SEC)
        assert k == 5000.0
        assert m == output_length_fixed_point(5000.0, SEC.eps_max)

    def test_reference_point(self):
        k, m = secure_length(3066, 0.05, SEC)
        assert k == pytest.approx(1072.8, abs=0.2)
        assert abs(m - 1000) <= 1

    def test_fixed_point_holds(self):
        import math
        for l in (500, 2000, 10000):
            k, m = secure_length(l, 0.03, SEC)
            if m > 0:
                assert m == math.floor(k - 6 - 4 * math.log2(m / SEC.eps_max))

    def test_validation(self):
        with pytest.raises(ValueError):
            secure_length(-1, 0.05, SEC)
        with pytest.raises(ValueError):
            secure_length(100, 0.6, SEC)


class TestToeplitzExtract:
    def test_empty_output(self):
        out = toeplitz_extract(np.ones(8, dtype=np.uint8),
                               np.zeros(0, dtype=np.uint8), 0)
        assert len(out) == 0

    def test_zero_seed_is_zero_map(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 32, dtype=np.uint8)
        out = toeplitz_extract(x, np.zeros(32 + 8 - 1, dtype=np.uint8), 8)
        assert not out.any()

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            l = int(rng.integers(1, 65))
            m = int(rng.integers(1, l + 1))
            x = rng.integers(0, 2, l, dtype=np.uint8)
            seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
            assert np.array_equal(toeplitz_extract(x, seed, m),
                                  dense_toeplitz(x, seed, m))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        l, m = 128, 64
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        for _ in range(50):
            x = rng.integers(0, 2, l, dtype=np.uint8)
            y = rng.integers(0, 2, l, dtype=np.uint8)
            lhs = toeplitz_extract(x ^ y, seed, m)
            rhs = toeplitz_extract(x, seed, m) ^ toeplitz_extract(y, seed, m)
            assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("l, m", [
        (2048, 2047),   # l*m just below 2^22, the former branch cutoff
        (2049, 2049),   # l*m just above 2^22; l+m-1 = 2^12 + 1
        (2049, 2048),   # l+m-1 = 2^12
        (2000, 1601),   # l+m-1 = 3600 = 2^4 * 3^2 * 5^2
        (3000, 2500),
    ])
    def test_large_inputs_match_dense_oracle(self, l, m):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("l, m", [(125_834, 100_697), (125_835, 100_697)])
    def test_largest_sums_are_exact(self, l, m):
        # All-ones input and seed: every output bit sums l products, the
        # largest integer the convolution can produce, so it is l % 2.
        x = np.ones(l, dtype=np.uint8)
        seed = np.ones(l + m - 1, dtype=np.uint8)
        out = toeplitz_extract(x, seed, m)
        assert out.dtype == np.uint8
        assert np.array_equal(out, np.full(m, l % 2, dtype=np.uint8))

    def test_fft_length_is_smallest_5_smooth(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        for n in range(1, 2001):
            size = n
            while not smooth(size):
                size += 1
            assert _fft_length(n) == size

    def test_output_bit_balance(self):
        # 2-universality smoke test: over many random seeds each output
        # bit is 1 about half the time.
        rng = np.random.default_rng(4)
        l, m = 64, 16
        x = rng.integers(0, 2, l, dtype=np.uint8)
        counts = np.zeros(m)
        runs = 1000
        for _ in range(runs):
            seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
            counts += toeplitz_extract(x, seed, m)
        freq = counts / runs
        assert np.all(np.abs(freq - 0.5) <= 0.05)

    def test_dimension_mismatch(self):
        x = np.ones(16, dtype=np.uint8)
        with pytest.raises(ValueError):
            toeplitz_extract(x, np.ones(10, dtype=np.uint8), 4)
        with pytest.raises(ValueError):
            toeplitz_extract(x, np.ones(40, dtype=np.uint8), 17)


class TestToeplitzMemory:
    def test_peak_per_input_bit(self):
        # A planned m_F = 1e6 run at 30 km hashes l ~ 1.25M bits to ~1M.
        # Two spectra and one float64 copy of the input peak at ~37 B per
        # input bit; holding a spectrum through the rounding reads ~48.
        l, m = 1_250_000, 1_000_000
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        tracemalloc.start()
        try:
            out = toeplitz_extract(x, seed, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == m
        assert peak <= 40 * l


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency.
    src = Path(vlbb84.__file__).resolve().parents[1]
    code = ("import sys, vlbb84.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


class TestExtractKey:
    def test_round_trip_sizing(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 3066, dtype=np.uint8)
        res = extract_key(x, 0.05, SEC, np.random.default_rng(6))
        assert len(res.final_key) == secure_length(3066, 0.05, SEC)[1]
        assert len(res.seed_bits) == 3066 + len(res.final_key) - 1

    def test_infeasible_rate_gives_empty(self):
        x = np.ones(100, dtype=np.uint8)
        res = extract_key(x, 0.2, SEC, np.random.default_rng(7))
        assert len(res.final_key) == 0
        assert res.k_bound < 0
