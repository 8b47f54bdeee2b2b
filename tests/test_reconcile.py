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
                              _leaf_depths, cascade, leakage_upper_bound)

SEC = SecurityParams()


@dataclass(frozen=True)
class ReferenceResult:
    corrected_B: np.ndarray
    n_exp: int
    f_realized: float
    verified: bool
    leak_per_pass: tuple[int, ...]      # distinct ranges disclosed per pass
    searches_per_pass: tuple[int, ...]  # binary searches run per pass


def drawn_positions(rng: np.random.Generator, n: int, r: int) -> list[int]:
    """A later pass's r disagreeing positions, drawn as cascade draws them."""
    drawn = rng.choice(n, r, replace=False, shuffle=False)
    rng.shuffle(drawn)
    return drawn.tolist()


def drawn_order(rng: np.random.Generator, disagree: np.ndarray, n: int,
                fill: np.random.Generator | None = None) -> np.ndarray:
    """A later pass's full order, built from cascade's position draw.

    The disagreeing key indices (ascending) go to the drawn positions. The
    agreeing ones fill the other positions in ascending order, or in a
    random order from `fill`, a generator unrelated to the pass draws.
    """
    order = np.empty(n, dtype=np.int64)
    drawn = drawn_positions(rng, n, len(disagree))
    order[drawn] = disagree
    free = np.ones(n, dtype=bool)
    free[drawn] = False
    agree = np.setdiff1d(np.arange(n), disagree)
    order[free] = agree if fill is None else fill.permutation(agree)
    return order


def permuted_order(rng: np.random.Generator, disagree: np.ndarray,
                   n: int) -> np.ndarray:
    """A later pass's full order as a uniform permutation of the key."""
    return rng.permutation(n)


def reference_cascade(key_a: np.ndarray, key_b: np.ndarray, q_ref: float,
                      seed: int, pass_order=drawn_order,
                      searched: list | None = None) -> ReferenceResult:
    """Oracle: Cascade that gathers both keys and asks every parity.

    Each top-level block and each binary-search step reduces a[order] and
    b[order] over its range, and a correction finds the flipped bit's
    block in every pass through a position-to-block table. Each pass
    after the first takes its order from pass_order(rng, disagree, n),
    where disagree holds the key indices where the keys differ as it
    starts. Each search appends its (pass, block) to `searched`, if given.
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
            if searched is not None:
                searched.append((pi, bi))
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
        order = (np.arange(n) if pi == 0 else
                 pass_order(rng, np.flatnonzero(a != b), n))
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


def counts(res):
    """Every value a Cascade result reports, as one tuple."""
    return (res.n_exp, res.f_realized, res.verified, res.leak_per_pass,
            res.searches_per_pass)


def assert_matches_reference(a, b, q_ref, seed):
    """cascade and the oracle agree exactly on every reported value, and
    cascade is verified exactly when the oracle's corrected key is Alice's."""
    got = cascade(a, b, q_ref, seed)
    ref = reference_cascade(a, b, q_ref, seed)
    assert got.verified == np.array_equal(ref.corrected_B, a)
    assert counts(got) == counts(ref)
    assert sum(got.leak_per_pass) == got.n_exp
    return got


class TestCascadeBasics:
    def test_identical_keys(self):
        for l in (256, 1000, 4099):
            a, b = keys_with_exact_errors(l, 0, seed=l)
            res = assert_matches_reference(a, b, 0.05, seed=2)
            assert res.verified
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
        res = assert_matches_reference(a, b, 0.05, seed=4)
        assert res.verified
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
        assert counts(r1) == counts(r2)

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

    def test_truncated_block_before_reopened_first_pass_block(self):
        # l = 55 and k1 = 8: the second pass's last block [48, 55) has 7
        # bits, fewer than a first-pass block. The errors pair up in
        # first-pass blocks 0 and 2, so the first pass corrects none. The
        # seed draws all four second-pass positions into that last block,
        # which stays even, and puts key index 1 alone in the third pass's
        # shorter last block [32, 55). Correcting it reopens first-pass
        # block 0 and makes the 7-bit block odd, which the heap searches
        # first.
        l, q, seed = 55, 0.1, 30947
        k1 = math.ceil(BLOCK_COEFF / q)
        assert k1 == 8 and l % (2 * k1) == 7
        a, _ = keys_with_exact_errors(l, 0, seed=1400)
        b = a.copy()
        b[[1, 5, 17, 20]] ^= 1
        rng = np.random.default_rng(seed)
        assert min(drawn_positions(rng, l, 4)) >= 48
        third = drawn_positions(rng, l, 4)
        assert [pos >= 32 for pos in third] == [True, False, False, False]
        res = assert_matches_reference(a, b, q, seed)
        # The second pass holds errors only in its last block, so each of
        # its searches is of that block.
        assert res.searches_per_pass[1] > 0

    @pytest.mark.parametrize("pos", range(90, 100))
    def test_one_disagreement_in_short_last_block(self, pos):
        # l = 100 and k1 = 15: the last first-pass block [90, 100) has 10
        # bits. Block 0 holds only bit 3 and the last block only bit pos;
        # the first is searched with the full blocks, the second by the
        # drain, each asking the halves down to its one bit.
        l, q = 100, 0.05
        a, _ = keys_with_exact_errors(l, 0, seed=1600)
        b = a.copy()
        b[[3, pos]] ^= 1
        searched = []
        reference_cascade(a, b, q, 1601, searched=searched)
        assert sorted(searched) == [(0, 0), (0, 6)]
        res = assert_matches_reference(a, b, q, 1601)
        assert res.verified

    @pytest.mark.parametrize("seed", range(1700, 1706))
    def test_even_first_pass_block_reopened(self, seed):
        # First-pass blocks 0 and 2 hold two disagreements each, so the
        # first pass searches nothing. Each later-pass correction leaves
        # one of them alone in a first-pass block that was never searched.
        l, q = 200, 0.05
        a, _ = keys_with_exact_errors(l, 0, seed=1650)
        b = a.copy()
        b[[2, 9, 40, 44]] ^= 1
        searched = []
        reference_cascade(a, b, q, seed, searched=searched)
        assert searched[0][0] > 0
        assert {(0, 0), (0, 2)} <= set(searched)
        assert_matches_reference(a, b, q, seed)

    @pytest.mark.parametrize("seed", [0, 2, 8])
    def test_later_pass_block_searched_twice(self, seed):
        # 30 disagreements in 400 bits: a correction in a later pass makes
        # a second-pass block odd again after its own search, and its
        # second search asks some halves the first already disclosed.
        l, q = 400, 0.05
        a, b = keys_with_exact_errors(l, 30, seed=1800 + seed)
        searched = []
        reference_cascade(a, b, q, 1900 + seed, searched=searched)
        later = [entry for entry in searched if entry[0] > 0]
        assert len(set(later)) < len(later)
        assert_matches_reference(a, b, q, 1900 + seed)

    # First-pass blocks of k1 = 15 bits unless q_ref says otherwise: block
    # 0 holds 3 disagreements and block 2 holds 5; a short last block of
    # 10 bits holds 3, or one of a single bit holds 1; k1 = ceil(0.73 /
    # 0.01) = 73 reaches l = 73 and passes l = 50; the keys agree.
    @pytest.mark.parametrize("l, q_ref, errors", [
        pytest.param(100, 0.05, [1, 4, 9, 31, 33, 36, 40, 44], id="3-and-5"),
        pytest.param(100, 0.05, [20, 92, 97, 99], id="short-last-block"),
        pytest.param(91, 0.05, [7, 90], id="one-bit-last-block"),
        pytest.param(73, 0.01, [3, 17, 72], id="k1-equals-l"),
        pytest.param(50, 0.01, [0, 2, 3, 17, 49], id="k1-exceeds-l"),
        pytest.param(100, 0.05, [], id="no-disagreement"),
    ])
    def test_first_pass_cases(self, l, q_ref, errors):
        a, _ = keys_with_exact_errors(l, 0, seed=l + 1500)
        b = a.copy()
        b[errors] ^= 1
        k1 = math.ceil(BLOCK_COEFF / q_ref)
        odd = sum(count % 2 for count in np.bincount(
            np.array(errors, dtype=np.int64) // k1))
        res = assert_matches_reference(a, b, q_ref, seed=l + 1501)
        # Every odd first-pass block is searched once before any cascade.
        assert res.searches_per_pass[0] >= odd
        if not errors:
            assert res.searches_per_pass == (0,) * CASCADE_PASSES

    @given(st.integers(min_value=MIN_KEY_LEN, max_value=5000),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=0.49),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_property(self, l, error_fraction, q_ref, seed):
        a, b = keys_with_exact_errors(l, round(l * error_fraction), seed)
        assert_matches_reference(a, b, q_ref, seed + 1)


def walked_depths(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Every bit of blocks of the given lengths, as (length, depth).

    Each bit walks down its block's split tree from the root, splitting
    [start, end) at (start + end + 1) >> 1 as a search does, until its
    range holds one bit; its depth is the number of splits.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    length = np.repeat(lengths, lengths)
    offset = np.arange(len(length)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths)
    start, end = np.zeros_like(length), length.copy()
    depth = np.zeros_like(length)
    while (live := end - start > 1).any():
        mid = (start + end + 1) >> 1
        depth += live
        left = offset < mid
        end = np.where(live & left, mid, end)
        start = np.where(live & ~left, mid, start)
    return length, depth


def rule_depths(length: int) -> np.ndarray:
    """Each bit's depth by the rule: for length = 2^k + r, 0 <= r < 2^k,
    range j of the 2^k ranges at depth k holds two bits, one level
    deeper, exactly when the k-bit reversal of j is below r."""
    k = length.bit_length() - 1
    reversed_j = np.arange(2**k).reshape((2,) * k).transpose().ravel()
    two = reversed_j < length - 2**k
    return np.repeat(k + two, 1 + two)


def depth_bytes(length: int) -> np.ndarray:
    """_leaf_depths(length) as a uint8 array."""
    return np.frombuffer(_leaf_depths(length), dtype=np.uint8)


class TestSplitTreeDepth:
    """The halves a first search of a one-disagreement block asks."""

    def test_depths_and_rule_match_walk_up_to_4096(self):
        for lengths in np.array_split(np.arange(1, 4097), 32):
            _, depth = walked_depths(lengths)
            assert np.array_equal(
                np.concatenate([depth_bytes(int(n)) for n in lengths]), depth)
            assert np.array_equal(
                np.concatenate([rule_depths(int(n)) for n in lengths]), depth)

    @pytest.mark.parametrize("length", [2**20 - 1, 2**20, 2**20 + 1])
    def test_depths_and_rule_match_walk_near_2_20(self, length):
        _, depth = walked_depths([length])
        assert np.array_equal(depth_bytes(length), depth)
        assert np.array_equal(rule_depths(length), depth)


def floyd_draw_positions(rng, n, r):
    """r distinct positions in [0, n) by Floyd's algorithm, then shuffled.

    For j = n - r, ..., n - 1 it draws t uniform in [0, j] and takes t, or
    j when t is already taken, which makes every subset of r positions
    equally likely (Bentley and Floyd, "A sample of brilliance", CACM
    30(9), 1987); the shuffle makes each order of it equally likely.
    """
    taken = {}     # an insertion-ordered set
    highs = np.arange(n - r + 1, n + 1)
    for j, t in zip(range(n - r, n), rng.integers(0, highs).tolist()):
        taken[j if t in taken else t] = None
    positions = list(taken)
    rng.shuffle(positions)
    return positions


class TestPassOrder:
    """A later pass needs only where its disagreeing bits go."""

    def test_draw_is_uniform_ordered_sample(self):
        # All 12 ordered pairs from 4 positions, 12,000 draws: each count
        # is 1000 in expectation with sd ~29.
        rng = np.random.default_rng(1600)
        counts = {}
        for _ in range(12_000):
            pair = tuple(drawn_positions(rng, 4, 2))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 12
        assert all(abs(c - 1000) <= 5 * 29 for c in counts.values())

    @pytest.mark.parametrize("n, r", [(1, 0), (1, 1), (16, 16), (1000, 0),
                                      (1000, 999), (100_000, 3000),
                                      (10_001, 2000)])
    def test_draw_is_distinct_and_in_range(self, n, r):
        drawn = drawn_positions(np.random.default_rng(1601), n, r)
        assert len(drawn) == len(set(drawn)) == r
        assert all(0 <= pos < n for pos in drawn)

    @pytest.mark.parametrize("n, r", [
        (16, 1), (16, 16), (2260, 40), (10_000, 10_000), (10_001, 500),
        (125_000, 1500), (125_000, 6250), (3_050_000, 70_000),
        (3_050_000, 152_500), (2**32 + 5, 10), (2**40, 1000)])
    def test_draw_is_floyd_sample(self, n, r):
        # Where numpy takes Floyd's algorithm (n <= 10,000 or r <= n // 20)
        # the draw gives the same positions as the hand-written sample and
        # leaves the generator in the same state.
        assert n <= 10_000 or r <= n // 20
        for seed in range(5):
            rng, ref = (np.random.default_rng(seed) for _ in range(2))
            assert drawn_positions(rng, n, r) == floyd_draw_positions(
                ref, n, r)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_tail_branch_first_position_is_uniform(self):
        # Past Floyd's line numpy shuffles all n positions instead (the
        # draw's range is checked above): the first drawn position falls
        # into each tenth of [0, n) 50 times in expectation over 500
        # seeds, with sd ~6.7.
        n, r, runs = 10_001, 2000, 500
        buckets = np.zeros(10, dtype=int)
        for seed in range(runs):
            drawn = drawn_positions(np.random.default_rng(1602 + seed), n, r)
            buckets[drawn[0] * 10 // n] += 1
        assert np.all(np.abs(buckets - runs / 10) <= 5 * 6.7)

    def test_agreeing_fill_is_irrelevant(self):
        # The oracle gathers every bit of every pass, so it sees the
        # agreeing bits too; where they land changes no reported value.
        cases = [(1000, 20, 0.02), (3000, 90, 0.03), (2000, 600, 0.3),
                 (800, 24, 0.01), (4096, 60, 0.01)]
        for i, (l, errors, q) in enumerate(cases):
            a, b = keys_with_exact_errors(l, errors, seed=1700 + i)
            want = reference_cascade(a, b, q, 1800 + i)
            fill = np.random.default_rng(1900 + i)
            got = reference_cascade(
                a, b, q, 1800 + i,
                pass_order=lambda rng, disagree, n: drawn_order(
                    rng, disagree, n, fill))
            assert np.array_equal(got.corrected_B, want.corrected_B)
            assert counts(got) == counts(want)

    @pytest.mark.parametrize("l, errors, q_ref", [
        (2000, 24, 0.012), (1000, 60, 0.06), (800, 24, 0.01)])
    def test_same_distribution_as_full_permutation(self, l, errors, q_ref):
        # The same oracle with full permutations (the stream before the
        # position draw) and with drawn positions, 250 seeds each: per-pass
        # mean leakage and the verified count agree within 4 standard
        # errors of their difference. (800, 24, 0.01) verifies ~70%.
        a, b = keys_with_exact_errors(l, errors, seed=l)
        runs = 250
        stats = []
        for pass_order in (permuted_order, drawn_order):
            res = [reference_cascade(a, b, q_ref, 2000 + s, pass_order)
                   for s in range(runs)]
            stats.append(np.array([r.leak_per_pass + (r.verified,)
                                   for r in res], dtype=float))
        old, new = stats
        se = np.sqrt((old.var(axis=0, ddof=1) + new.var(axis=0, ddof=1))
                     / runs)
        assert np.all(np.abs(old.mean(axis=0) - new.mean(axis=0))
                      <= 4 * se)


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
        """Records every call on the generators cascade makes, as
        (method, args, kwargs); a pass's position draw starts with
        `choice`."""
        calls = []
        real = np.random.default_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def record(*args, **kwargs):
                    calls.append((name, args, kwargs))
                    return method(*args, **kwargs)
                return record

        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args, **kwargs: Spy(real(*args, **kwargs)))
        return calls

    def test_equal_keys_draw_nothing(self, draws):
        keys = [keys_with_exact_errors(l, 0, seed=l)
                for l in (MIN_KEY_LEN, 1000, 4099)]
        draws.clear()
        for a, b in keys:
            assert cascade(a, b, 0.05, seed=2).verified
        assert draws == []

    def test_single_error_draws_nothing(self, draws):
        keys = [keys_with_exact_errors(l, 1, seed=l + 1)
                for l in (64, 1000, 126_000)]
        draws.clear()
        for a, b in keys:
            assert cascade(a, b, 0.015, seed=3).verified
        assert draws == []

    def test_draws_only_for_passes_that_start_disagreeing(self, draws):
        cases = [(1000, 2, 0.02), (1000, 20, 0.02), (3000, 90, 0.03),
                 (2000, 600, 0.3), (300, 3, 0.0), (4096, 60, 0.01),
                 (126_000, 1890, 0.015)]
        drawing = 0
        for i, (l, errors, q) in enumerate(cases):
            a, b = keys_with_exact_errors(l, errors, seed=1400 + i)
            before = len(draws)
            res = cascade(a, b, q, seed=1500 + i)
            # Each draw asks for the r disagreements left, r >= 1, among
            # the l positions; r never grows from one pass to the next.
            choices = [(args, kwargs) for name, args, kwargs
                       in draws[before:] if name == "choice"]
            assert all(args[0] == l and args[1] >= 1 and kwargs == {
                "replace": False, "shuffle": False} for args, kwargs in choices)
            sizes = [args[1] for args, _ in choices]
            assert sizes == sorted(sizes, reverse=True)
            assert len(sizes) == passes_starting_with_disagreement(res)
            drawing += bool(sizes)
        # Every case but the first, whose two errors pass 0 corrects,
        # starts a later pass disagreeing, so the checks above read draws.
        assert drawing == len(cases) - 1


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

    @pytest.mark.parametrize("dtype, value", [
        (np.int64, 2), (np.int64, -1), (float, 0.5), (np.uint8, 2)])
    @pytest.mark.parametrize("which", ["key_a", "key_b"])
    def test_non_bit_value_by_dtype(self, dtype, value, which):
        a, b = keys_with_exact_errors(64, 2, seed=17)
        keys = {"key_a": a.astype(dtype), "key_b": b.astype(dtype)}
        keys[which][9] = value
        with pytest.raises(ValueError,
                           match=f"^{which} must hold only 0/1 values$"):
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
            assert counts(got) == counts(want)


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
                res = assert_matches_reference(a, b, q, seed=4000 + s)
                under += res.n_exp <= bound
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


# Bound on the traced peak per key bit of a call at l = 5e5, q = 0.056:
# 13.3 B measured, rounded up.
PEAK_BYTES_AT_HIGH_ERROR_RATE = 14


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
        assert peak <= 7 * l

    @pytest.mark.parametrize("n_errors", [1, 5])
    @pytest.mark.parametrize("q_ref", [0.0, 1e-6])
    def test_peak_per_key_bit_with_long_blocks(self, q_ref, n_errors):
        # q_ref = 0 is floored at 1/l, and q_ref = 1e-6 gives k1 = 730,000:
        # first-pass blocks of about 0.73 l bits, and later-pass blocks
        # of the whole key.
        l = 1_250_000
        a, b = keys_with_exact_errors(l, n_errors, seed=1210 + n_errors)
        tracemalloc.start()
        try:
            cascade(a, b, q_ref, seed=1211)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * l

    def test_depths_of_the_longest_searched_blocks(self):
        # A search builds its block length's depths, one byte per bit,
        # from two strings of half that length: ~2 bytes per block bit at
        # the peak. At q_ref = 0 the first-pass block is 0.73 l bits; here
        # three disagreements send it to the drain. No later pass searches
        # there, since its one block holds an even number of them. A later
        # pass searches a full block only if it has two, so with
        # k1 = 300,000 pass 1's searched blocks are 0.48 l bits.
        l = 1_250_000
        a, b = keys_with_exact_errors(l, 0, seed=1230)
        k1 = math.ceil(BLOCK_COEFF * l)
        b[[1, k1 // 2, k1 - 1]] ^= 1
        cases = [(a, b, 0.0, 0), (*keys_with_exact_errors(l, 8, seed=1234),
                                  BLOCK_COEFF / 300_000, 1)]
        for a, b, q_ref, searched in cases:
            tracemalloc.start()
            try:
                res = cascade(a, b, q_ref, seed=1231)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.searches_per_pass[searched] > 0
            assert peak <= 2 * l

    def test_peak_per_key_bit_at_high_error_rate(self):
        # The regime of a 65 km run: q ~ 0.056 gives k1 = 14, and about
        # half of the disagreements reach the drain, which holds Python
        # maps and lists per disagreeing bit and a set entry per half it
        # splits.
        l, q = 500_000, 0.056
        assert math.ceil(BLOCK_COEFF / q) == 14
        a, b = keys_with_exact_errors(l, round(l * q), seed=1220)
        tracemalloc.start()
        try:
            res = cascade(a, b, q, seed=1221)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.verified
        assert peak <= PEAK_BYTES_AT_HIGH_ERROR_RATE * l


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
