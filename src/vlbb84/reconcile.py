"""Cascade information reconciliation with exact leakage accounting.

Classic four-pass Cascade: the first pass partitions the key in natural
order into blocks of ceil(0.73 / Q) bits, each later pass reshuffles and
doubles the block size. Odd-parity blocks are corrected by binary search,
and every correction re-queues the earlier-pass blocks that contain the
flipped bit (the cascade effect).

Both keys are local to the simulation, so a parity comparison only needs
where the keys disagree. Each pass keeps its disagreement array
a[order] ^ b[order] in pass order; pass 0's order is the identity and is
never built.

- One `np.bitwise_xor.reduceat` over it gives the pass's top-level block
  parity mismatches.
- Pass 0 has no earlier pass to cascade into, and its blocks are
  disjoint, so its searches cannot affect each other. They run in
  lockstep: one `searchsorted` per round over the sorted disagreement
  positions halves every odd block at once.
- Any later search takes the disagreement positions of its block once;
  a left half [start, mid) has a parity mismatch exactly when it holds an
  odd number of them, which `bisect` counts.
- A correction always flips a bit that currently disagrees. So each pass
  after the first maps only the key indices that disagree when it is
  built to their pass positions; a correction pops the flipped bit from
  every map, clears it in every pass's array and toggles block
  `position // size` of that pass.
- Cascade stops at agreement. The disagreements left are counted after
  pass 0 and after each later pass drains. Once none are left, every
  block of every later pass is even: such a pass discloses its top-level
  parities and searches nothing, so it draws no permutation and builds
  no arrays. The generator is local to one call, so the draws it skips
  feed nothing else.

Leakage rule: every parity Alice discloses, a top-level block or the left
half of a search step, counts as one leaked bit. A half she has already
disclosed is not counted again. Within one block's search tree each split
point `mid` belongs to exactly one node, and a pass's blocks are disjoint,
so (pass, mid) names a half; each pass records its disclosed halves in a
bitmap indexed by `mid`. Top-level blocks and search halves of a pass
never coincide, so each pass leaks its block count plus its distinct
search halves.
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
    corrected_B: np.ndarray
    n_exp: int            # parity bits disclosed
    f_realized: float     # n_exp / (l * h(Q_ref))
    verified: bool        # corrected key equals Alice's
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
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must hold only 0/1 values")
    return arr.astype(np.uint8, copy=False)


def _search_first_pass(diff: np.ndarray, size: int,
                       asked: np.ndarray) -> tuple[np.ndarray, int]:
    """Binary-search every odd first-pass block at once.

    diff is a ^ b in natural order, as bools. Each round halves every
    block still longer than one bit, the same halves a search of one block
    at a time would ask, and marks their split points in `asked`. Returns
    the key index each search isolates and the number of halves asked.
    """
    n = len(diff)
    errors = np.flatnonzero(diff)
    starts = np.arange(0, n, size)
    lo = starts[np.bitwise_xor.reduceat(diff, starts)]
    hi = np.minimum(lo + size, n)
    below = np.searchsorted(errors, lo)     # disagreements before lo
    halves = 0
    while (live := np.flatnonzero(hi - lo > 1)).size:
        start, end, before = lo[live], hi[live], below[live]
        mid = start + (end - start + 1) // 2
        asked[mid] = 1
        halves += live.size
        cut = np.searchsorted(errors, mid)
        left = (cut - before) % 2 == 1
        hi[live] = np.where(left, mid, end)
        lo[live] = np.where(left, start, mid)
        below[live] = np.where(left, before, cut)
    return lo, halves


def cascade(key_a: np.ndarray, key_b: np.ndarray, q_ref: float,
            seed: int) -> ReconcileResult:
    """Reconcile key_b against key_a, assuming error rate around q_ref.

    Both keys are local to the simulation harness, so verification is a
    direct comparison and costs no leakage. q_ref = 0 is floored at 1/l so
    the first-pass block size stays finite.
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
    # Per pass, from pass 1 on (pass 0 is the identity, None here):
    orders: list = [None]       # pass position -> key index
    positions: list = [None]    # disagreeing key index -> pass position
    diffs: list[np.ndarray] = []        # per pass: a ^ b in pass order
    odd: list[list[bool]] = []          # per pass: current parity mismatch
    asked = [bytearray(n) for _ in range(CASCADE_PASSES)]  # halves by mid
    leak = [0] * CASCADE_PASSES
    searches = [0] * CASCADE_PASSES
    heap: list[tuple[int, int, int]] = []   # (size, pass, block); lazy entries

    def mark_odd(pi: int, bi: int) -> None:
        start = bi * sizes[pi]
        heapq.heappush(heap, (min(sizes[pi], n - start), pi, bi))

    def binary_search(pi: int, start: int, end: int) -> int:
        # The block holds an odd number of disagreements; halve until one
        # is isolated. Only the left half's parity is asked, the right is
        # implied. `where` holds the block's disagreement offsets from
        # block_start; where[lo:hi] are the ones inside [start, end).
        block_start = start
        where = diffs[pi][start:end].nonzero()[0].tolist()
        seen = asked[pi]
        lo, hi = 0, len(where)
        while end - start > 1:
            mid = start + (end - start + 1) // 2
            if not seen[mid]:
                seen[mid] = 1
                leak[pi] += 1
            cut = bisect_left(where, mid - block_start, lo, hi)
            if (cut - lo) % 2:
                end, hi = mid, cut
            else:
                start, lo = mid, cut
        return start if pi == 0 else int(orders[pi][start])

    def drain_odd_blocks() -> None:
        # Repeatedly correct the smallest currently-odd block over all
        # passes so far; entries that turned even in the meantime are
        # skipped lazily.
        while heap:
            _, pi, bi = heapq.heappop(heap)
            if not odd[pi][bi]:
                continue
            searches[pi] += 1
            start = bi * sizes[pi]
            flipped = binary_search(pi, start, min(start + sizes[pi], n))
            for pj in range(len(diffs)):
                pos = positions[pj].pop(flipped) if pj else flipped
                diffs[pj][pos] = False
                bj = pos // sizes[pj]
                odd[pj][bj] = not odd[pj][bj]
                if odd[pj][bj]:
                    mark_odd(pj, bj)

    # Pass 0 runs in natural order, so diffs[0] is a ^ b for Bob's current
    # key; each later pass starts from it, permuted. The lockstep search
    # leaves no pass-0 block odd.
    diff = (a ^ b).view(bool)
    found, halves = _search_first_pass(
        diff, k1, np.frombuffer(asked[0], dtype=np.uint8))
    diff[found] = False
    diffs.append(diff)
    odd.append([False] * -(-n // k1))
    leak[0] = len(odd[0]) + halves
    searches[0] = len(found)
    remaining = np.count_nonzero(diff)

    for pi in range(1, CASCADE_PASSES):
        if not remaining:
            # Every block of this pass is even: it discloses its
            # top-level parities and searches nothing.
            leak[pi] = -(-n // sizes[pi])
            continue
        order = rng.permutation(n)
        diff = diffs[0][order]
        disagree = np.flatnonzero(diff)
        orders.append(order)
        positions.append(dict(zip(order[disagree].tolist(),
                                  disagree.tolist())))
        diffs.append(diff)
        starts = np.arange(0, n, sizes[pi])
        block_odd = np.bitwise_xor.reduceat(diff, starts)
        odd.append(block_odd.tolist())
        leak[pi] = len(starts)
        for bi in np.flatnonzero(block_odd).tolist():
            mark_odd(pi, bi)
        drain_odd_blocks()
        remaining = len(positions[pi])

    n_exp = sum(leak)
    return ReconcileResult(corrected_B=a ^ diffs[0], n_exp=n_exp,
                           f_realized=n_exp / (n * binary_entropy(q_floor)),
                           verified=not diffs[0].any(),
                           leak_per_pass=tuple(leak),
                           searches_per_pass=tuple(searches))
