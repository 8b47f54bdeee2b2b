"""Cascade information reconciliation with exact leakage accounting.

Classic four-pass Cascade: the first pass partitions the key in natural
order into blocks of ceil(0.73 / Q) bits, each later pass reshuffles and
doubles the block size. Odd-parity blocks are corrected by binary search,
and every correction re-queues the earlier-pass blocks that contain the
flipped bit (the cascade effect).

Both keys are local to the simulation, so a parity comparison only needs
where the keys disagree. Each pass keeps its disagreement array
a[order] ^ b[order] in pass order, with the pass's inverse permutation:

- One `np.bitwise_xor.reduceat` over it gives the pass's top-level block
  parity mismatches.
- A binary search takes the disagreement positions of its block once;
  a left half [start, mid) has a parity mismatch exactly when it holds an
  odd number of them, which `bisect` counts.
- A correction flips one entry of every pass's array, found through the
  inverse permutation, and toggles block `position // size` of that pass.

Leakage rule: every parity Alice discloses, a top-level block or the left
half of a search step, counts as one leaked bit. A range (pass, start, end)
she has already disclosed is not counted again. Top-level blocks and
search halves of a pass never coincide, so each pass leaks its block count
plus its distinct search halves.
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

    sizes: list[int] = []               # per pass: block size
    orders: list[np.ndarray] = []       # per pass: pass position -> key index
    inverses: list[np.ndarray] = []     # per pass: key index -> pass position
    diffs: list[np.ndarray] = []        # per pass: a ^ b in pass order
    odd: list[list[bool]] = []          # per pass: current parity mismatch
    disclosed: set[tuple[int, int, int]] = set()  # search halves asked
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
        lo, hi = 0, len(where)
        while end - start > 1:
            mid = start + (end - start + 1) // 2
            asked = (pi, start, mid)
            if asked not in disclosed:
                disclosed.add(asked)
                leak[pi] += 1
            cut = bisect_left(where, mid - block_start, lo, hi)
            if (cut - lo) % 2:
                end, hi = mid, cut
            else:
                start, lo = mid, cut
        return int(orders[pi][start])

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
                pos = int(inverses[pj][flipped])
                diffs[pj][pos] ^= 1
                bj = pos // sizes[pj]
                odd[pj][bj] = not odd[pj][bj]
                if odd[pj][bj]:
                    mark_odd(pj, bj)

    for pi in range(CASCADE_PASSES):
        size = k1 * (2 ** pi)
        order = np.arange(n) if pi == 0 else rng.permutation(n)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        # Pass 0 runs in natural order, so diffs[0] is a ^ b for Bob's
        # current key; each later pass starts from it, permuted.
        diff = a ^ b if pi == 0 else diffs[0][order]
        sizes.append(size)
        orders.append(order)
        inverses.append(inverse)
        diffs.append(diff)
        starts = np.arange(0, n, size)
        block_odd = np.bitwise_xor.reduceat(diff, starts).astype(bool)
        odd.append(block_odd.tolist())
        leak[pi] = len(starts)
        for bi in np.flatnonzero(block_odd).tolist():
            mark_odd(pi, bi)
        drain_odd_blocks()

    n_exp = sum(leak)
    return ReconcileResult(corrected_B=a ^ diffs[0], n_exp=n_exp,
                           f_realized=n_exp / (n * binary_entropy(q_floor)),
                           verified=not diffs[0].any(),
                           leak_per_pass=tuple(leak),
                           searches_per_pass=tuple(searches))
