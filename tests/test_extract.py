import os
import platform
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


def plain_fft_toeplitz(input_bits, seed_bits, m):
    """FFT oracle for sizes the dense one cannot reach: the same GF(2)
    product as a plain rfft/irfft convolution, every array fresh."""
    l = len(input_bits)
    size = l + m - 1
    conv = np.fft.irfft(np.fft.rfft(seed_bits.astype(np.float64), size)
                        * np.fft.rfft(input_bits[::-1].astype(np.float64),
                                      size), size)
    lags = np.rint(conv[l - 1:l + m - 1])
    assert np.abs(conv[l - 1:l + m - 1] - lags).max() < 0.25
    return (lags[::-1].astype(np.int64) % 2).astype(np.uint8)


def raw_word_bits(seed: int, n: int) -> np.ndarray:
    """The first n bits of PCG64(seed)'s raw 64-bit words, read word by
    word from bit 7 of the low byte: bit j of a word is its bit
    8 * (j // 8) + 7 - j % 8."""
    words = np.random.PCG64(seed).random_raw(-(-n // 64))
    shifts = np.array([8 * (j // 8) + 7 - j % 8 for j in range(64)],
                      dtype=np.uint64)
    bits = (words[:, None] >> shifts) & np.uint64(1)
    return bits.ravel()[:n].astype(np.uint8)


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

    @pytest.mark.parametrize("l, m", [
        (2000, 1376),   # l+m-1 = 3375 = 15^3
        (3375, 1),      # m = 1 at the same length
        (1688, 1688),   # m = l at the same length
        (3500, 2576),   # l+m-1 = 6075 = 3^5 * 5^2
        (6075, 1),
        (3038, 3038),
    ])
    def test_odd_fft_lengths_match_dense_oracle(self, l, m):
        # An odd S leaves size//2 + 1 complex values, which must still
        # hold the S doubles of the inverse transform.
        assert _fft_length(l + m - 1) == l + m - 1
        assert (l + m - 1) % 2 == 1
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("l, m", [
        (125_834, 100_697),
        (125_835, 100_697),
        (50_000, 34_376),   # l+m-1 = 84375 = 3^3 * 5^5, an odd S
        (50_001, 34_375),
        (2 ** 20 - 1, 2 ** 20 - 1),     # the largest l for b = 20
    ])
    def test_largest_sums_are_exact(self, l, m):
        # All-ones input and seed: every output bit sums l products, the
        # largest integer the convolution can produce, so it is l % 2. The
        # packed sum l + 2^b * l is then the largest for its scale too.
        x = np.ones(l, dtype=np.uint8)
        seed = np.ones(l + m - 1, dtype=np.uint8)
        out = toeplitz_extract(x, seed, m)
        assert out.dtype == np.uint8
        assert np.array_equal(out, np.full(m, l % 2, dtype=np.uint8))

    def test_plain_fft_oracle_matches_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            l = int(rng.integers(1, 200))
            m = int(rng.integers(1, l + 1))
            x = rng.integers(0, 2, l, dtype=np.uint8)
            seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
            assert np.array_equal(plain_fft_toeplitz(x, seed, m),
                                  dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("l, m", [
        (105_046, 100_739),     # the extraction sizes of long_keys ops
        (125_780, 100_654),
        (1_250_000, 1_000_000),     # a planned m_F = 1e6 run at 30 km
        (1_250_000, 999_999),       # an odd m: h = g + 1
    ])
    def test_long_inputs_match_plain_fft(self, l, m):
        rng = np.random.default_rng(l)
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              plain_fft_toeplitz(x, seed, m))

    @pytest.mark.parametrize("l", [1, 2, 3, 7, 64, 257, 2049])
    @pytest.mark.parametrize("rows", ["one", "two", "odd", "all"])
    def test_halves_match_dense_oracle(self, l, rows):
        # The low half takes h = ceil(m/2) rows and the high half the other
        # g; an odd m leaves h = g + 1, m = 1 leaves the high half empty.
        m = {"one": 1, "two": min(2, l), "odd": l - (l + 1) % 2,
             "all": l}[rows]
        rng = np.random.default_rng([l, m])
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("pack_bits, l, chunks", [
        (23, 2 ** 23 - 1, [2 ** 23 - 1]),   # the largest single chunk
        (23, 2 ** 23, [2 ** 22] * 2),
        (23, 12_500_000, [6_250_000] * 2),
        (23, 25_000_000, [8_333_334] * 2 + [8_333_332]),
        (4, 40, [14, 14, 12]),
        (2, 10, [3, 3, 3, 1]),      # a short last chunk of one bit
        (1, 5, [1] * 5),
    ], ids=["one-chunk", "two-chunks", "l-1.25e7", "l-2.5e7", "three-chunks",
            "short-last", "one-bit"])
    def test_input_splits_into_equal_chunks(self, monkeypatch, pack_bits, l,
                                            chunks):
        # k = ceil(l / (2^_PACK_BITS - 1)) chunks of ceil(l / k) bits, the
        # last one possibly shorter, each hashed against its own seed
        # window.
        monkeypatch.setattr("vlbb84.extract._PACK_BITS", pack_bits)
        calls = []

        def spy(x, seed, m):
            calls.append((len(x), len(seed)))
            return np.zeros(m, dtype=np.uint8)

        monkeypatch.setattr("vlbb84.extract._packed_product", spy)
        m = 3
        toeplitz_extract(np.zeros(l, dtype=np.uint8),
                         np.zeros(l + m - 1, dtype=np.uint8), m)
        assert calls == [(c, c + m - 1) for c in chunks]

    def test_chunked_product_matches_dense_oracle(self, monkeypatch):
        # Chunk limits of 2^1 - 1 to 2^6 - 1 bits split inputs the dense
        # oracle reaches into up to 200 chunks, with m above and below c.
        rng = np.random.default_rng(10)
        for pack_bits in range(1, 7):
            monkeypatch.setattr("vlbb84.extract._PACK_BITS", pack_bits)
            for _ in range(100):
                l = int(rng.integers(1, 200))
                m = int(rng.integers(1, l + 1))
                x = rng.integers(0, 2, l, dtype=np.uint8)
                seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
                assert np.array_equal(toeplitz_extract(x, seed, m),
                                      dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("pack_bits, l, m", [
        (4, 40, 30),        # m > c = 14
        (4, 40, 1),         # m = 1: every chunk's high window is empty
        (5, 50, 33),        # an odd m: h = g + 1
        (2, 10, 7),         # a short last chunk of one bit
        (1, 20, 20),        # one bit per chunk, m = l
        (6, 1000, 999),
    ])
    def test_chunk_cases_match_dense_oracle(self, monkeypatch, pack_bits,
                                            l, m):
        monkeypatch.setattr("vlbb84.extract._PACK_BITS", pack_bits)
        rng = np.random.default_rng([pack_bits, l, m])
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              dense_toeplitz(x, seed, m))

    @pytest.mark.parametrize("pack_bits, l, m", [
        (4, 30, 30),        # two chunks of 2^4 - 1 bits, m > c
        (4, 29, 17),        # a last chunk one bit short
        (12, 3 * 4095, 3 * 4095 - 1),
        (20, 2 * (2 ** 20 - 1), 2 ** 20 - 1),   # two of the largest chunks
    ])
    def test_chunked_largest_sums_are_exact(self, monkeypatch, pack_bits, l,
                                            m):
        # All-ones input and seed give each chunk its largest packed sums,
        # c + 2^b * c; every output bit is then l % 2.
        monkeypatch.setattr("vlbb84.extract._PACK_BITS", pack_bits)
        out = toeplitz_extract(np.ones(l, dtype=np.uint8),
                               np.ones(l + m - 1, dtype=np.uint8), m)
        assert np.array_equal(out, np.full(m, l % 2, dtype=np.uint8))

    @pytest.mark.parametrize("pack_bits, l, m", [
        (16, 125_000, 100_000),     # k = 2, m > c = 62,500
        (16, 125_000, 99_999),
        (13, 125_000, 100_000),     # k = 16
    ])
    def test_chunked_long_inputs_match_plain_fft(self, monkeypatch,
                                                 pack_bits, l, m):
        monkeypatch.setattr("vlbb84.extract._PACK_BITS", pack_bits)
        rng = np.random.default_rng([pack_bits, m])
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        assert np.array_equal(toeplitz_extract(x, seed, m),
                              plain_fft_toeplitz(x, seed, m))

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
    @staticmethod
    def peak(l: int, m: int) -> int:
        """tracemalloc peak of toeplitz_extract on l random bits to m."""
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, l, dtype=np.uint8)
        seed = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
        # A first, untraced call imports numpy.fft, which numpy loads
        # lazily.
        toeplitz_extract(x[:64], seed[:127], 64)
        tracemalloc.start()
        try:
            out = toeplitz_extract(x, seed, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == m
        return peak

    def test_peak_per_input_bit(self):
        # A planned m_F = 1e6 run at 30 km hashes l ~ 1.25M bits to ~1M in
        # one chunk. The work array (two spectra of the l + m/2 - 1 point
        # product and one float64 copy of the input) and the output peak
        # at ~31.5 B per input bit.
        l = 1_250_000
        assert self.peak(l, 1_000_000) <= 32 * l

    def test_peak_per_input_bit_in_two_chunks(self, monkeypatch):
        # Two chunks of l/2 bits, as at l = 1.25e7 with the 2^23 limit: one
        # chunk's work array of l/2 + m/2 - 1 points at a time, its output
        # and the key read ~20.0 B per input bit (37.6 for one unpacked
        # product of l + m - 1 points).
        monkeypatch.setattr("vlbb84.extract._PACK_BITS", 20)
        l = 1_250_000
        assert self.peak(l, 1_000_000) <= 21 * l


FAULTS_PER_RUN = """
import resource, statistics
from vlbb84.link_model import LinkParams, SecurityParams
from vlbb84.planner import plan
from vlbb84.protocol import run_from_plan
link, sec = LinkParams(), SecurityParams()
faults = []
for i in range(12):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_from_plan(plan((5.0, 30.0)[i % 2], 100_000, "count", link, sec),
                  link, sec, i)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[2:]))
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the allocator behaviour is glibc's")
def test_long_runs_stop_faulting_fresh_pages():
    # Toeplitz extraction holds all its buffers in one work array. Once one
    # of several MB is freed, glibc keeps the heap mapped between runs, so
    # planned m_F = 1e5 runs after two warm-ups fault almost no new pages
    # (~1,900 per run with a separate array per step).
    # Allocator settings from the environment would fix the thresholds.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(vlbb84.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_RUN],
                         capture_output=True, text=True, check=True, env=env)
    assert float(out.stdout) < 200


def test_numpy_floor_has_fft_out():
    # toeplitz_extract passes out= to numpy.fft, which numpy takes from 2.0.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floors = [d.split(">=", 1)[1] for d in deps if d.startswith("numpy>=")]
    assert len(floors) == 1
    assert tuple(int(v) for v in floors[0].split(".")[:2]) >= (2, 0)


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
    @staticmethod
    def drawn_seed_bits(monkeypatch, n: int, seeds) -> list[np.ndarray]:
        """The Toeplitz seed extract_key draws for an n-bit input from each
        seed; m = 1 makes the seed as long as the input."""
        drawn = []

        def spy(input_bits, seed_bits, m):
            drawn.append(seed_bits)
            return np.zeros(m, dtype=np.uint8)

        with monkeypatch.context() as mp:
            mp.setattr("vlbb84.extract.secure_length",
                       lambda l, p_hat, sec: (float(l), 1))
            mp.setattr("vlbb84.extract.toeplitz_extract", spy)
            for seed in seeds:
                extract_key(np.zeros(n, dtype=np.uint8), 0.0, SEC, seed)
        return drawn

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 - 1])
    def test_seed_bits_are_raw_word_bits(self, seed, monkeypatch):
        # The seed is the first n bits of PCG64(seed)'s raw 64-bit words,
        # each word's bytes low first and each byte's bits high first.
        for n in [*range(1, 71), *(64 * k + e for k in (2, 3, 53)
                                   for e in (-1, 1)), 216_433]:
            got, = self.drawn_seed_bits(monkeypatch, n, [seed])
            assert got.dtype == np.uint8
            assert np.array_equal(got, raw_word_bits(seed, n)), n

    def test_seed_bits_are_fair_per_position(self, monkeypatch):
        # Over 2,000 seeds every position of a 130-bit seed (two words and
        # two bits of a third) is 1 about half the time: 0.05 is 4.5
        # standard deviations.
        drawn = self.drawn_seed_bits(monkeypatch, 130, range(2000))
        freq = np.mean(drawn, axis=0)
        assert np.all(np.abs(freq - 0.5) <= 0.05)

    def test_round_trip_sizing(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 3066, dtype=np.uint8)
        key, _ = extract_key(x, 0.05, SEC, 6)
        m = secure_length(3066, 0.05, SEC)[1]
        seed_bits = raw_word_bits(6, 3066 + m - 1)
        assert len(key) == m > 0
        assert np.array_equal(key, toeplitz_extract(x, seed_bits, m))

    def test_infeasible_rate_gives_empty(self):
        x = np.ones(100, dtype=np.uint8)
        key, k = extract_key(x, 0.2, SEC, 7)
        assert len(key) == 0
        assert k < 0
