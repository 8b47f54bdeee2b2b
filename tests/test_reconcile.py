import heapq
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlbb84.link_model import SecurityParams
from vlbb84.numerics import binary_entropy
from vlbb84.reconcile import (BLOCK_COEFF, CASCADE_PASSES, MIN_KEY_LEN,
                              cascade, leakage_upper_bound)

SEC = SecurityParams()


@dataclass(frozen=True)
class ReferenceResult:
    corrected_B: np.ndarray
    n_exp: int
    f_realized: float
    verified: bool
    leak_per_pass: tuple[int, ...]      # distinct ranges disclosed per pass
    searches_per_pass: tuple[int, ...]  # binary searches run per pass


def reference_cascade(key_a: np.ndarray, key_b: np.ndarray, q_ref: float,
                      seed: int) -> ReferenceResult:
    """Oracle: Cascade that gathers both keys and asks every parity.

    Each top-level block and each binary-search step reduces a[order] and
    b[order] over its range, and a correction finds the flipped bit's
    block in every pass through a position-to-block table.
    """
    n = len(key_a)
    if len(key_b) != n:
        raise ValueError(f"key length mismatch: {n} vs {len(key_b)}")
    if n < MIN_KEY_LEN:
        raise ValueError(f"key too short for cascade: {n} < {MIN_KEY_LEN}")
    if not 0.0 <= q_ref < 0.5:
        raise ValueError(f"q_ref must be in [0, 1/2), got {q_ref}")

    rng = np.random.default_rng(seed)
    a = np.asarray(key_a, dtype=np.uint8)
    b = np.asarray(key_b, dtype=np.uint8).copy()
    k1 = math.ceil(BLOCK_COEFF / max(q_ref, 1.0 / n))

    orders: list[np.ndarray] = []       # per pass: permuted index order
    blocks: list[list[tuple[int, int]]] = []  # per pass: [start, end) ranges
    odd: list[list[bool]] = []          # per pass: current parity mismatch
    pos_to_block: list[np.ndarray] = []
    disclosed: dict[tuple[int, int, int], int] = {}
    leak = [0] * CASCADE_PASSES
    searches = [0] * CASCADE_PASSES

    def alice_parity(pi: int, start: int, end: int) -> int:
        key = (pi, start, end)
        if key not in disclosed:
            disclosed[key] = int(np.bitwise_xor.reduce(a[orders[pi][start:end]]))
            leak[pi] += 1
        return disclosed[key]

    def bob_parity(pi: int, start: int, end: int) -> int:
        return int(np.bitwise_xor.reduce(b[orders[pi][start:end]]))

    def binary_search(pi: int, start: int, end: int) -> int:
        # One error is inside [start, end); halve until it is isolated.
        # Only the left half's parity is asked, the right is implied.
        while end - start > 1:
            mid = start + (end - start + 1) // 2
            if alice_parity(pi, start, mid) != bob_parity(pi, start, mid):
                end = mid
            else:
                start = mid
        return int(orders[pi][start])

    heap: list[tuple[int, int, int]] = []   # (size, pass, block); lazy entries

    def mark_odd(pi: int, bi: int) -> None:
        start, end = blocks[pi][bi]
        heapq.heappush(heap, (end - start, pi, bi))

    def drain_odd_blocks() -> None:
        # Repeatedly correct the smallest currently-odd block over all
        # passes so far; entries that turned even in the meantime are
        # skipped lazily.
        while heap:
            _, pi, bi = heapq.heappop(heap)
            if not odd[pi][bi]:
                continue
            searches[pi] += 1
            start, end = blocks[pi][bi]
            flipped = binary_search(pi, start, end)
            b[flipped] ^= 1
            for pj in range(len(blocks)):
                bj = int(pos_to_block[pj][flipped])
                odd[pj][bj] = not odd[pj][bj]
                if odd[pj][bj]:
                    mark_odd(pj, bj)

    for pi in range(CASCADE_PASSES):
        size = k1 * (2 ** pi)
        order = np.arange(n) if pi == 0 else rng.permutation(n)
        orders.append(order)
        ranges = [(s, min(s + size, n)) for s in range(0, n, size)]
        blocks.append(ranges)
        inv = np.empty(n, dtype=np.int64)
        for bi, (s, e) in enumerate(ranges):
            inv[order[s:e]] = bi
        pos_to_block.append(inv)
        odd.append([alice_parity(pi, s, e) != bob_parity(pi, s, e)
                    for s, e in ranges])
        for bi, is_odd in enumerate(odd[pi]):
            if is_odd:
                mark_odd(pi, bi)
        drain_odd_blocks()

    q_floor = max(q_ref, 1.0 / n)
    n_exp = sum(leak)
    f_realized = n_exp / (n * binary_entropy(q_floor))
    return ReferenceResult(corrected_B=b, n_exp=n_exp, f_realized=f_realized,
                           verified=bool(np.array_equal(a, b)),
                           leak_per_pass=tuple(leak),
                           searches_per_pass=tuple(searches))


def keys_with_exact_errors(l, n_errors, seed):
    """Alice's key plus Bob's copy with exactly n_errors flips."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, l, dtype=np.uint8)
    b = a.copy()
    if n_errors:
        b[rng.choice(l, n_errors, replace=False)] ^= 1
    return a, b


def top_level_parities_per_pass(l, q_ref):
    k1 = math.ceil(0.73 / q_ref)
    return tuple(math.ceil(l / (k1 * 2 ** i)) for i in range(4))


def top_level_parity_count(l, q_ref):
    return sum(top_level_parities_per_pass(l, q_ref))


def assert_matches_reference(a, b, q_ref, seed):
    """cascade and the oracle agree exactly on every reported value."""
    got = cascade(a, b, q_ref, seed)
    ref = reference_cascade(a, b, q_ref, seed)
    assert got.n_exp == ref.n_exp
    assert got.corrected_B.dtype == ref.corrected_B.dtype
    assert np.array_equal(got.corrected_B, ref.corrected_B)
    assert got.verified == ref.verified
    assert got.f_realized == ref.f_realized
    assert sum(got.leak_per_pass) == got.n_exp
    assert got.leak_per_pass == ref.leak_per_pass
    assert got.searches_per_pass == ref.searches_per_pass
    return got


class TestCascadeBasics:
    def test_identical_keys(self):
        for l in (256, 1000, 4099):
            a, b = keys_with_exact_errors(l, 0, seed=l)
            res = cascade(a, b, 0.05, seed=2)
            assert res.verified
            assert np.array_equal(res.corrected_B, a)
            # No binary searches, so the leakage is exactly the top-level
            # block parities of the four passes.
            assert res.n_exp == top_level_parity_count(l, 0.05)
            assert res.leak_per_pass == top_level_parities_per_pass(l, 0.05)
            assert res.searches_per_pass == (0,) * CASCADE_PASSES

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
        assert res.searches_per_pass == (1, 0, 0, 0)
        # The search in bit 37's 15-bit first-pass block asks 3 or 4
        # halves (the left half takes the odd bit); the later passes
        # disclose only their blocks.
        top = top_level_parities_per_pass(64, 0.05)
        assert 3 <= res.leak_per_pass[0] - top[0] <= 4
        assert res.leak_per_pass[1:] == top[1:]

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


class TestMatchesReference:
    def test_shortest_key(self):
        for s in range(20):
            a, b = keys_with_exact_errors(MIN_KEY_LEN, s % 4, seed=100 + s)
            assert_matches_reference(a, b, 0.02 * (s % 10), seed=200 + s)

    def test_zero_qref_floor(self):
        # q_ref = 0 is floored at 1/l: first-pass blocks of ceil(0.73 l)
        # bits, here 219 and a short second block of 81.
        for n_errors in range(4):
            a, b = keys_with_exact_errors(300, n_errors, seed=300 + n_errors)
            assert_matches_reference(a, b, 0.0, seed=400 + n_errors)

    def test_first_block_covers_key(self):
        l, q_ref = 100, 0.005
        assert math.ceil(0.73 / q_ref) >= l
        for n_errors in (1, 2, 5):
            a, b = keys_with_exact_errors(l, n_errors, seed=500 + n_errors)
            assert_matches_reference(a, b, q_ref, seed=600 + n_errors)

    def test_length_not_multiple_of_block_sizes(self):
        l, q_ref = 1001, 0.05
        k1 = math.ceil(0.73 / q_ref)
        assert all(l % (k1 * 2 ** i) for i in range(CASCADE_PASSES))
        a, b = keys_with_exact_errors(l, 50, seed=700)
        assert_matches_reference(a, b, q_ref, seed=701)

    def test_zero_errors(self):
        a, b = keys_with_exact_errors(4096, 0, seed=800)
        res = assert_matches_reference(a, b, 0.03, seed=801)
        assert res.verified

    def test_dense_errors(self):
        l, q = 2000, 0.3
        a, b = keys_with_exact_errors(l, round(l * q), seed=900)
        assert_matches_reference(a, b, q, seed=901)

    def test_long_key(self):
        # The size of a long_keys run at 30 km: l ~ 126k, q ~ 0.015.
        l, q = 126_000, 0.015
        a, b = keys_with_exact_errors(l, round(l * q), seed=1000)
        res = assert_matches_reference(a, b, q, seed=1001)
        assert res.verified

    def test_cascade_back_into_first_pass(self):
        # Corrections in later passes re-open first-pass blocks. Their
        # searches ask again some halves the first pass already disclosed,
        # and those must not be counted twice.
        l, q = 3000, 0.03
        a, b = keys_with_exact_errors(l, round(l * q), seed=1100)
        starts = np.arange(0, l, math.ceil(BLOCK_COEFF / q))
        first_odd = int(np.bitwise_xor.reduceat(a ^ b, starts).sum())
        res = assert_matches_reference(a, b, q, seed=1101)
        assert res.searches_per_pass[0] > first_odd

    def test_agreement_after_first_pass(self):
        # One error: the first pass finds it, and the later passes only
        # disclose their top-level parities.
        for l, q in ((64, 0.05), (1000, 0.02), (5000, 0.001)):
            a, b = keys_with_exact_errors(l, 1, seed=l + 1200)
            res = assert_matches_reference(a, b, q, seed=l + 1201)
            assert res.searches_per_pass == (1, 0, 0, 0)
            assert res.leak_per_pass[1:] == top_level_parities_per_pass(l, q)[1:]

    def test_agreement_after_second_pass(self):
        # Two errors in one first-pass block hide from the first pass; the
        # second pass splits them, and its correction re-opens the block.
        l, q = 1000, 0.02
        a, _ = keys_with_exact_errors(l, 0, seed=1300)
        b = a.copy()
        b[[10, 20]] ^= 1
        res = assert_matches_reference(a, b, q, seed=1301)
        assert res.verified
        assert res.searches_per_pass == (1, 1, 0, 0)
        assert res.leak_per_pass[2:] == top_level_parities_per_pass(l, q)[2:]

    @given(st.integers(min_value=MIN_KEY_LEN, max_value=5000),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=0.49),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_property(self, l, error_fraction, q_ref, seed):
        a, b = keys_with_exact_errors(l, round(l * error_fraction), seed)
        assert_matches_reference(a, b, q_ref, seed + 1)


def passes_starting_with_disagreement(res) -> int:
    """Passes after the first that begin while Bob's key still differs.

    Disagreements never grow, so these passes are 1 .. k. A pass that
    begins with a disagreement either searches one of its own blocks
    first or leaves the disagreement to the next pass, so for a verified
    key k is the last pass with a search of its own.
    """
    if not res.verified:
        return CASCADE_PASSES - 1
    return max((pi for pi in range(1, CASCADE_PASSES)
                if res.searches_per_pass[pi]), default=0)


class TestStopAtAgreement:
    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts `permutation` calls on the generators cascade makes."""
        calls = []
        real = np.random.default_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def permutation(self, *args, **kwargs):
                calls.append(args)
                return self.rng.permutation(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args, **kwargs: Spy(real(*args, **kwargs)))
        return calls

    def test_equal_keys_draw_nothing(self, draws):
        for l in (MIN_KEY_LEN, 1000, 4099):
            a, b = keys_with_exact_errors(l, 0, seed=l)
            assert cascade(a, b, 0.05, seed=2).verified
        assert draws == []

    def test_single_error_draws_nothing(self, draws):
        for l in (64, 1000, 126_000):
            a, b = keys_with_exact_errors(l, 1, seed=l + 1)
            assert cascade(a, b, 0.015, seed=3).verified
        assert draws == []

    def test_draws_only_for_passes_that_start_disagreeing(self, draws):
        cases = [(1000, 2, 0.02), (1000, 20, 0.02), (3000, 90, 0.03),
                 (2000, 600, 0.3), (300, 3, 0.0), (4096, 60, 0.01),
                 (126_000, 1890, 0.015)]
        for i, (l, errors, q) in enumerate(cases):
            a, b = keys_with_exact_errors(l, errors, seed=1400 + i)
            before = len(draws)
            res = cascade(a, b, q, seed=1500 + i)
            assert all(args == (l,) for args in draws[before:])
            assert len(draws) - before <= passes_starting_with_disagreement(res)


class TestInputValidation:
    def test_two_dimensional_key(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="1-D"):
            cascade(a, a.copy(), 0.05, seed=1)
        with pytest.raises(ValueError, match="1-D"):
            cascade(a.ravel(), a, 0.05, seed=1)

    @pytest.mark.parametrize("value", [2, 3, 256])
    @pytest.mark.parametrize("which", ["key_a", "key_b"])
    def test_non_bit_values(self, value, which):
        a, b = keys_with_exact_errors(64, 2, seed=13)
        keys = {"key_a": a.astype(np.int64), "key_b": b.astype(np.int64)}
        keys[which][5] = value
        with pytest.raises(ValueError, match=f"{which} must hold only 0/1"):
            cascade(keys["key_a"], keys["key_b"], 0.05, seed=1)

    def test_fractional_value(self):
        a, b = keys_with_exact_errors(64, 2, seed=14)
        b = b.astype(float)
        b[3] = 0.5
        with pytest.raises(ValueError, match="0/1"):
            cascade(a, b, 0.05, seed=1)

    def test_bool_and_wide_int_keys_accepted(self):
        a, b = keys_with_exact_errors(512, 9, seed=15)
        want = cascade(a, b, 0.03, seed=16)
        for dtype in (bool, np.int64):
            got = cascade(a.astype(dtype), b.astype(dtype), 0.03, seed=16)
            assert got.n_exp == want.n_exp
            assert got.corrected_B.dtype == np.uint8
            assert np.array_equal(got.corrected_B, want.corrected_B)


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

    def test_per_pass_counts_add_up(self):
        a, b = keys_with_exact_errors(4096, 123, seed=19)
        res = cascade(a, b, 0.03, seed=20)
        assert len(res.leak_per_pass) == CASCADE_PASSES
        assert len(res.searches_per_pass) == CASCADE_PASSES
        assert sum(res.leak_per_pass) == res.n_exp
        # Each search corrects exactly one error.
        assert res.verified
        assert sum(res.searches_per_pass) == 123


class TestCascadeMemory:
    def test_peak_per_key_bit(self):
        # A planned m_F = 1e6 run at 30 km reconciles l ~ 1.25M bits.
        l, q = 1_250_000, 0.01
        a, b = keys_with_exact_errors(l, round(l * q), seed=1200)
        tracemalloc.start()
        try:
            res = cascade(a, b, q, seed=1201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verified
        assert peak <= 48 * l


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
