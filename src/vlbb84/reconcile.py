"""Cascade information reconciliation with exact leakage accounting.

Classic four-pass Cascade: the first pass partitions the key in natural
order into blocks of ceil(0.73 / Q) bits, each later pass reshuffles and
doubles the block size. Odd-parity blocks are corrected by binary search,
and every correction re-queues the earlier-pass blocks that contain the
flipped bit (the cascade effect).

Both keys are local to the simulation, so a parity comparison only needs
where the keys disagree, and nothing depends on where the agreeing bits
of a pass go. Cascade reports what reconciliation adds to a run: the
parities it discloses, per pass, and whether the keys agree at the end.
The extractor reads Alice's key, so Bob's corrected copy is never built.

- A search of a block that holds one disagreement and has never been
  searched reads nothing (a closed-form search): it asks every half on
  the way down to that bit, as many as the depth of its leaf in the
  block's split tree, and leaves the block agreeing, so no later search
  asks those halves again. The depth depends only on the bit's offset
  and the block's length 2^k + r (0 <= r < 2^k): the 2^k ranges at
  depth k hold one or two bits each, so every leaf is at depth k or
  k + 1. One rule gives every depth: `_leaf_depths` builds a length's
  depths as bytes, one per bit, by doubling two strings per level of the
  tree, once per length and call, and a search reads its bit's byte.
  The same holds below any range of a block that holds one disagreement
  and that no search has split: a search that bisects down to such a
  range counts the halves below it as the bit's depth in the block less
  the range's own.
- Pass 0 runs in natural order and its blocks are disjoint, so its
  searches cannot affect each other. Counting the sorted disagreement
  positions per block finds the full blocks that hold exactly one, and
  the pass sums their depths, gathered from the bytes of the first
  block length. Every other odd block, the short last block included,
  goes to the drain.
- A later pass that starts with r disagreeing bits draws only their r
  pass positions and gives them to the disagreeing key indices in
  ascending order. A uniform permutation of the n bits, restricted to
  those r, is exactly such a uniform ordered sample, so the pass behaves
  as a full reshuffle would. numpy's `Generator.choice(n, r,
  replace=False, shuffle=False)` picks the set by Floyd's algorithm
  (Bentley and Floyd, CACM 30(9), 1987), in O(r) time and memory, and
  `Generator.shuffle` then orders it uniformly. `shuffle=True` is not
  used: numpy then leaves Floyd above r = n / 50 and shuffles an int64
  array of all n positions. numpy takes Floyd up to n = 10,000 and,
  above that, up to r = n // 20; past that line (its tail branch) it
  draws by a partial Fisher-Yates shuffle of all n positions, an equally
  uniform ordered sample from a different stream.
- The drain works on the disagreeing bits that pass 0 does not close,
  named by key index. Every built pass maps each key to its pass
  position and back (pass 0's map is key to key) and keeps, for each
  block that holds a disagreement, the sorted pass positions of its
  disagreements. A block is odd when that count is odd. A search bisects
  the short list: a left half [start, mid) has a parity mismatch exactly
  when it holds an odd number of them. Once a range holds a single
  disagreement, the search counts the halves below it in closed form, or,
  if a search has split that range before, follows the bit down without
  bisecting.
- The drain corrects the smallest odd block over the built passes, in
  the order (size, pass, block), each heap entry encoded as one integer.
  A correction always flips a bit that currently disagrees. It removes
  the bit from its block in every other built pass, queues each block
  that turned odd, and drops the bit's key from pass 0's map, the only
  map read again: by the verdict and by the next pass's draw. A
  first-pass block that a later-pass correction reopens is searched at
  once unless the heap holds a smaller entry: that is the block the heap
  would give next.
- Cascade stops at agreement. A pass that starts with the keys equal
  has every block even: it discloses its top-level parities, searches
  nothing and draws nothing. The generator is local to one call, so the
  draws it skips feed nothing else.

Leakage rule: every parity Alice discloses, a top-level block or the left
half of a search step, counts as one leaked bit. A half she has already
disclosed is not counted again. Within one block's search tree each split
point `mid` belongs to exactly one node, and a pass's blocks are disjoint,
so (pass, mid) names a half. Each built pass keeps the set of halves its
searches split. A range counted in closed form agrees from then on, and
a search only enters ranges that hold a disagreement, so its halves need
not be recorded: they are counted directly. Every search that enters a
range splits it, so a range whose split is not in the set has had no
half inside it asked. Top-level blocks and search halves of a pass never
coincide, so each pass leaks its block count, its closed-form depths and
the size of its set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heappushpop

import numpy as np

from .link_model import SecurityParams
from .numerics import binary_entropy

CASCADE_PASSES = 4
BLOCK_COEFF = 0.73
MIN_KEY_LEN = 16


@dataclass(frozen=True)
class ReconcileResult:
    n_exp: int            # parity bits disclosed
    f_realized: float     # n_exp / (l * h(Q_ref))
    verified: bool        # no disagreement is left
    leak_per_pass: tuple[int, ...]      # parity bits disclosed per pass
    searches_per_pass: tuple[int, ...]  # binary searches run per pass


def leakage_upper_bound(l: int, p_hat: float, sec: SecurityParams) -> float:
    """A-priori bound on Cascade leakage: f_max * l * h(p_hat)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return sec.f_max * l * binary_entropy(p_hat)


def _as_bits(key: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(key)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    # A uint8 or bool key is checked with one reduction, any other with two.
    if not (arr.max(initial=0) <= 1 if arr.dtype in (np.uint8, np.bool_)
            else ((arr == 0) | (arr == 1)).all()):
        raise ValueError(f"{name} must hold only 0/1 values")
    return arr.astype(np.uint8, copy=False)


def _leaf_depths(length: int) -> bytes:
    """Each bit's leaf depth in the split tree of a `length`-bit block,
    one byte per bit.

    A range of L >= 2 bits splits at (start + end + 1) >> 1 into its
    first ceil(L/2) and last floor(L/2) bits. The ranges `shift` levels
    below the root hold length >> shift bits or one more, so at depth
    k = floor(log2(length)) each range holds one bit, a leaf at depth k,
    or two, leaves at depth k + 1. Going up a level, each of the two
    range sizes puts its halves side by side: a range of 2s bits is two
    of s, one of 2s + 1 is s + 1 then s. The root is the one range of
    the top level, so only its string is built there.
    """
    k = length.bit_length() - 1
    small, large = bytes((k,)), bytes((k + 1, k + 1))
    for shift in range(k - 1, 0, -1):
        if (length >> shift) & 1:
            small, large = large + small, large + large
        else:
            small, large = small + small, large + small
    if not k:
        return small
    return large + small if length & 1 else small + small


def _by_block(positions, size: int) -> dict[int, list[int]]:
    """Group ascending positions by block (position // size)."""
    blocks: dict[int, list[int]] = {}
    for pos in positions:
        blocks.setdefault(pos // size, []).append(pos)
    return blocks


def _drain(heap: list[int], n: int, passes: list[tuple],
           depths: dict[int, bytes], leak: list[int],
           searches: list[int]) -> None:
    """Correct the smallest currently-odd block over the built passes
    until none is odd.

    heap holds one integer per queued block, (length * CASCADE_PASSES +
    pass) * (n + 1) + block, which sorts as (length, pass, block) does;
    an entry whose block turned even in the meantime is skipped. A search
    adds the halves it splits to its pass's set until it isolates one
    disagreement in a range; if no search has split that range, it adds
    the bit's depth below the range to `leak`, from the depths of its
    block's length (built into `depths` on first use).
    """
    span = n + 1
    first = passes[0][4]
    while heap:
        code = heappop(heap)
        while code >= 0:
            bi = code % span
            size, pi = divmod(code // span, CASCADE_PASSES)
            full, _, _, _, _, at, blocks, seen = passes[pi]
            where = blocks[bi]
            if not len(where) % 2:
                break
            searches[pi] += 1
            origin = start = bi * full
            end = start + size
            # Halve until one disagreement is isolated. Only the left half's
            # parity is asked, the right is implied. where[lo:hi] are the
            # disagreements inside [start, end), `level` splits down.
            lo, hi, level = 0, len(where), 0
            while hi - lo > 1:
                mid = (start + end + 1) >> 1
                seen.add(mid)
                cut = bisect_left(where, mid, lo, hi)
                if (cut - lo) % 2:
                    end, hi = mid, cut
                else:
                    start, lo = mid, cut
                level += 1
            pos = where[lo]
            if (start + end + 1) >> 1 not in seen:
                # No search has split this range, so none has split a range
                # inside it, and none will once its one disagreement is
                # corrected: its halves down to the bit count in closed
                # form, as the bit's depth below it.
                tree = depths.get(size) or depths.setdefault(
                    size, _leaf_depths(size))
                leak[pi] += tree[pos - origin] - level
            else:
                # Follow the one disagreement down, asking each half once.
                while end - start > 1:
                    mid = (start + end + 1) >> 1
                    seen.add(mid)
                    if pos < mid:
                        end = mid
                    else:
                        start = mid
            del where[lo]
            # Drop the corrected bit from its block in every other pass,
            # queue each block that turned odd, and drop its key from the
            # first pass's map, the only one read again.
            key = at[pos]
            code = -1
            for pj, (full, base, last, tail, col, _, blocks, _) in enumerate(
                    passes):
                if pj == pi:
                    continue
                pos = col[key]
                bj = pos // full
                where = blocks[bj]
                where.remove(pos)
                if len(where) % 2:
                    if pj:
                        heappush(heap, base + bj if bj != last else tail)
                    else:
                        code = base + bj if bj != last else tail
            del first[key]
            if code >= 0:
                # A first-pass block that a later pass reopened is searched
                # next unless the heap holds a smaller entry.
                code = heappushpop(heap, code)


def cascade(key_a: np.ndarray, key_b: np.ndarray, q_ref: float,
            seed: int | np.random.Generator) -> ReconcileResult:
    """Reconcile key_b against key_a, assuming error rate around q_ref.

    Both keys are local to the simulation harness, so verification is a
    direct comparison and costs no leakage: the keys agree once no
    disagreement is left. q_ref = 0 is floored at 1/l so the first-pass
    block size stays finite.
    """
    a = _as_bits(key_a, "key_a")
    b = _as_bits(key_b, "key_b")
    n = len(a)
    if len(b) != n:
        raise ValueError(f"key length mismatch: {n} vs {len(b)}")
    if n < MIN_KEY_LEN:
        raise ValueError(f"key too short for cascade: {n} < {MIN_KEY_LEN}")
    if not 0.0 <= q_ref < 0.5:
        raise ValueError(f"q_ref must be in [0, 1/2), got {q_ref}")

    rng = np.random.default_rng(seed)
    q_floor = max(q_ref, 1.0 / n)
    k1 = math.ceil(BLOCK_COEFF / q_floor)
    leak = [-(-n // (k1 << pi)) for pi in range(CASCADE_PASSES)]
    searches = [0] * CASCADE_PASSES

    # A full first-pass block that holds one disagreement is searched in
    # closed form; the drain takes every other odd block.
    depths: dict[int, bytes] = {}   # block length -> its leaf depths
    errors = (a != b).nonzero()[0]
    block = errors // k1
    alone = (np.bincount(block)[block] == 1) & (errors < n - n % k1)
    found = errors[alone]
    searches[0] = len(found)
    if searches[0]:
        depths[k1] = _leaf_depths(k1)
        leak[0] += int(np.frombuffer(depths[k1], np.uint8)[found % k1].sum())

    # The disagreeing key bits the drain takes, by key index. Each built
    # pass maps them to their positions and back; the first pass's map,
    # key to key, keeps only the bits not yet corrected, in ascending
    # order, the order the drawn positions go in.
    keys = errors[~alone].tolist()
    first = dict(zip(keys, keys))
    span = n + 1
    # Per built pass: block size, the heap entries of its blocks, its maps
    # (key -> position, position -> key, block -> sorted positions) and
    # the set of halves its searches split.
    passes: list[tuple] = []
    for pi in range(CASCADE_PASSES):
        size = k1 << pi
        if not pi:
            col, at, ordered = first, first, keys
        elif first:
            drawn = rng.choice(n, len(first), replace=False, shuffle=False)
            rng.shuffle(drawn)
            drawn = drawn.tolist()
            col, at = dict(zip(first, drawn)), dict(zip(drawn, first))
            ordered = sorted(drawn)
        else:
            break
        # Block bi's heap entry is base + bi, or tail for the last block.
        last = (n - 1) // size
        base = (size * CASCADE_PASSES + pi) * span
        tail = ((n - last * size) * CASCADE_PASSES + pi) * span + last
        blocks = _by_block(ordered, size)
        passes.append((size, base, last, tail, col, at, blocks, set()))
        heap = [base + bi if bi != last else tail
                for bi, where in blocks.items() if len(where) % 2]
        heapify(heap)
        _drain(heap, n, passes, depths, leak, searches)
    for pi, p in enumerate(passes):
        leak[pi] += len(p[-1])

    n_exp = sum(leak)
    return ReconcileResult(n_exp=n_exp,
                           f_realized=n_exp / (n * binary_entropy(q_floor)),
                           verified=not first,
                           leak_per_pass=tuple(leak),
                           searches_per_pass=tuple(searches))
