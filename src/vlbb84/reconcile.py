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
  k + 1. `_leaf_depth` gives one bit's depth, `_depth_table` every
  bit's.
- Pass 0 runs in natural order and its blocks are disjoint, so its
  searches cannot affect each other. Counting the sorted disagreement
  positions per block finds the full blocks that hold exactly one, and
  the pass sums their depths from a per-length table (`_depth_table`).
  Every other odd block, the short last block included, goes to the
  drain.
- A later pass that starts with r disagreeing bits draws only their r
  pass positions (`_draw_positions`) and gives them to the disagreeing
  key indices in ascending order. A uniform permutation of the n bits,
  restricted to those r, is exactly such a uniform ordered sample, so the
  pass behaves as a full reshuffle would. It builds nothing of length n.
- Each disagreeing key bit has one record: its position in every built
  pass, starting with its key index. Every built pass maps a position to
  its record and keeps, for each block that holds a disagreement, the
  sorted pass positions of its disagreements. A block is odd when that
  count is odd. A search bisects the short list: a left half
  [start, mid) has a parity mismatch exactly when it holds an odd number
  of them. Once a range holds a single disagreement, the search follows
  it down without bisecting.
- The drain corrects the smallest odd block over the built passes, in
  the order (size, pass, block), each heap entry encoded as one integer
  (`_heap_entry`). A correction always flips a bit that currently
  disagrees. It removes the bit's record and the bit from its block in
  every built pass, and queues each block that turned odd. A first-pass
  block that a later-pass correction reopens is searched at once unless
  the heap holds a smaller entry: that is the block the heap would give
  next.
- Cascade stops at agreement. A pass that starts with the keys equal
  has every block even: it discloses its top-level parities, searches
  nothing and draws nothing. The generator is local to one call, so the
  draws it skips feed nothing else.

Leakage rule: every parity Alice discloses, a top-level block or the left
half of a search step, counts as one leaked bit. A half she has already
disclosed is not counted again. Within one block's search tree each split
point `mid` belongs to exactly one node, and a pass's blocks are disjoint,
so (pass, mid) names a half. Each built pass keeps the set of halves its
walked searches asked; only a block that keeps disagreements is searched
again, so the closed-form searches need not be recorded and their depths
are counted directly. Top-level blocks and search halves of a pass never
coincide, so each pass leaks its block count, its closed-form depths and
the size of its set.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

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


def _depth_table(length: int) -> np.ndarray:
    """Each bit's leaf depth in the split tree of a `length`-bit block.

    A range of L >= 2 bits splits at (start + end + 1) >> 1 into its
    first ceil(L/2) and last floor(L/2) bits. The ranges `shift` levels
    below the root hold length >> shift bits or one more, so at depth
    k = floor(log2(length)) each range holds one bit, a leaf at depth k,
    or two, leaves at depth k + 1. Starting from those ranges (one bit
    marked 0, two bits marked 1), each level up puts every range's two
    halves side by side, as uint8; the root's marks plus k are the table.
    """
    tables = {1: np.zeros(1, dtype=np.uint8), 2: np.ones(2, dtype=np.uint8)}
    for shift in range(length.bit_length() - 2, -1, -1):
        low = length >> shift
        tables = {size: np.concatenate((tables[(size + 1) >> 1],
                                        tables[size >> 1]))
                  for size in ((low, low + 1) if shift else (low,))}
    table = tables[length]
    table += length.bit_length() - 1
    return table


def _leaf_depth(offset: int, length: int) -> int:
    """The leaf depth of bit `offset` in the split tree of a `length`-bit
    block: one entry of `_depth_table(length)`, by arithmetic alone."""
    depth = 0
    while length > 1:
        half = (length + 1) >> 1
        if offset < half:
            length = half
        else:
            offset -= half
            length -= half
        depth += 1
    return depth


def _draw_positions(rng: np.random.Generator, n: int, r: int) -> list[int]:
    """r distinct positions in [0, n), as a uniformly random ordered sample.

    Floyd's algorithm picks the set: for j = n - r, ..., n - 1 it draws t
    uniform in [0, j] and takes t, or j when t is already taken. By
    induction on j every subset of r positions is equally likely
    (Bentley and Floyd, "A sample of brilliance", CACM 30(9), 1987). A
    uniform shuffle of that set then makes each of its r! orders equally
    likely, so every ordered sample has probability (n - r)! / n!. Time
    and memory are O(r), whatever r / n.
    """
    taken: dict[int, None] = {}     # an insertion-ordered set
    highs = np.arange(n - r + 1, n + 1)
    for j, t in zip(range(n - r, n), rng.integers(0, highs).tolist()):
        taken[j if t in taken else t] = None
    positions = list(taken)
    rng.shuffle(positions)
    return positions


def _by_block(positions, size: int) -> dict[int, list[int]]:
    """Group ascending positions by block (position // size)."""
    blocks: dict[int, list[int]] = {}
    for pos in positions:
        blocks.setdefault(pos // size, []).append(pos)
    return blocks


def _heap_entry(n: int, size: int, pi: int, bi: int) -> int:
    """Block bi of pass pi (block size `size`) as one heap integer,
    ((its length * CASCADE_PASSES + pi) * (n + 1) + bi), which sorts as
    (length, pass, block) does."""
    return (min(size, n - bi * size) * CASCADE_PASSES + pi) * (n + 1) + bi


def _drain(heap: list[int], n: int, sizes: list[int],
           blocks: list[dict[int, list[int]]],
           at: list[dict[int, list[int]]], asked: list[set[int]],
           leak: list[int], searches: list[int]) -> None:
    """Correct the smallest currently-odd block over the built passes
    until none is odd.

    heap holds `_heap_entry` integers; entries whose block turned even in
    the meantime are skipped lazily. A walked search adds the halves it
    asks to its pass's set in `asked`; a closed-form one adds its depth
    to `leak`.
    """
    span = n + 1
    while heap:
        code = heapq.heappop(heap)
        while code >= 0:
            rest, bi = divmod(code, span)
            size, pi = divmod(rest, CASCADE_PASSES)
            where = blocks[pi][bi]
            if not len(where) % 2:
                break
            searches[pi] += 1
            seen = asked[pi]
            start = bi * sizes[pi]
            end = start + size
            lo = 0
            if len(where) == 1 and (start + end + 1) >> 1 not in seen:
                # One disagreement in a block never searched (every search
                # of two or more bits asks the root's half): closed form.
                pos = where[0]
                leak[pi] += _leaf_depth(pos - start, size)
            else:
                # Halve until one disagreement is isolated. Only the left
                # half's parity is asked, the right is implied.
                # where[lo:hi] are the disagreements inside [start, end).
                hi = len(where)
                while hi - lo > 1:
                    mid = (start + end + 1) >> 1
                    seen.add(mid)
                    cut = bisect_left(where, mid, lo, hi)
                    if (cut - lo) % 2:
                        end, hi = mid, cut
                    else:
                        start, lo = mid, cut
                # One disagreement is left: follow it down without
                # bisecting.
                pos = where[lo]
                while end - start > 1:
                    mid = (start + end + 1) >> 1
                    seen.add(mid)
                    if pos < mid:
                        end = mid
                    else:
                        start = mid
            del where[lo]
            # Drop the corrected bit's record from every pass's map and the
            # bit from its block in every other pass, and queue each block
            # that turned odd.
            code = -1
            for pj, pos in enumerate(at[pi][pos]):
                del at[pj][pos]
                if pj == pi:
                    continue
                full = sizes[pj]
                bj = pos // full
                where = blocks[pj][bj]
                del where[bisect_left(where, pos)]
                if len(where) % 2:
                    # _heap_entry(n, full, pj, bj), inlined
                    entry = ((min(full, n - bj * full) * CASCADE_PASSES + pj)
                             * span + bj)
                    if pj:
                        heapq.heappush(heap, entry)
                    else:
                        code = entry
            if code >= 0:
                # A first-pass block that a later pass reopened is searched
                # next unless the heap holds a smaller entry.
                code = heapq.heappushpop(heap, code)


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

    sizes = [k1 * 2 ** pi for pi in range(CASCADE_PASSES)]  # block size
    leak = [-(-n // size) for size in sizes]    # top-level parities
    searches = [0] * CASCADE_PASSES

    # A full first-pass block that holds one disagreement is searched in
    # closed form; the drain takes every other odd block.
    errors = np.flatnonzero(a ^ b)
    block = errors // k1
    alone = (np.bincount(block)[block] == 1) & (errors < n - n % k1)
    found = errors[alone]
    leak[0] += int(_depth_table(k1)[found % k1].sum(dtype=np.int64))
    searches[0] = len(found)

    # One record per disagreeing key bit: its position in each built pass,
    # starting with its key index. A dict keeps insertion order, so records
    # stays in ascending key order, the order the drawn positions go in.
    records = {key: [key] for key in errors[~alone].tolist()}
    at = [records]              # per built pass: position -> record
    blocks = [_by_block(records, k1)]   # per built pass: sorted positions
    asked: list[set[int]] = [set()]     # per built pass: halves walked
    for pi, size in enumerate(sizes):
        if pi:
            if not records:
                break
            drawn = _draw_positions(rng, n, len(records))
            for record, pos in zip(records.values(), drawn):
                record.append(pos)
            at.append(dict(zip(drawn, records.values())))
            blocks.append(_by_block(sorted(drawn), size))
            asked.append(set())
        heap = [_heap_entry(n, size, pi, bi)
                for bi, where in blocks[pi].items() if len(where) % 2]
        heapq.heapify(heap)
        _drain(heap, n, sizes, blocks, at, asked, leak, searches)
    for pi, seen in enumerate(asked):
        leak[pi] += len(seen)

    n_exp = sum(leak)
    return ReconcileResult(n_exp=n_exp,
                           f_realized=n_exp / (n * binary_entropy(q_floor)),
                           verified=not records,
                           leak_per_pass=tuple(leak),
                           searches_per_pass=tuple(searches))
