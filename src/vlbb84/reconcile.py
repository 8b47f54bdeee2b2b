"""Cascade information reconciliation with exact leakage accounting.

Classic four-pass Cascade: the first pass partitions the key in natural
order into blocks of ceil(0.73 / Q) bits, each later pass reshuffles and
doubles the block size. Odd-parity blocks are corrected by binary search,
and every correction re-queues the earlier-pass blocks that contain the
flipped bit (the cascade effect). Each parity Alice discloses counts as
one leaked bit; a parity already disclosed for the identical index range
is cached and not re-counted.
"""

from __future__ import annotations

import heapq
import math
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


def leakage_upper_bound(l: int, p_hat: float, sec: SecurityParams) -> float:
    """A-priori bound on Cascade leakage: f_max * l * h(p_hat)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    return sec.f_max * l * binary_entropy(p_hat)


def cascade(key_a: np.ndarray, key_b: np.ndarray, q_ref: float,
            seed: int) -> ReconcileResult:
    """Reconcile key_b against key_a, assuming error rate around q_ref.

    Both keys are local to the simulation harness, so verification is a
    direct comparison and costs no leakage. q_ref = 0 is floored at 1/l so
    the first-pass block size stays finite.
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
    leak = 0

    def alice_parity(pi: int, start: int, end: int) -> int:
        nonlocal leak
        key = (pi, start, end)
        if key not in disclosed:
            disclosed[key] = int(np.bitwise_xor.reduce(a[orders[pi][start:end]]))
            leak += 1
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
    f_realized = leak / (n * binary_entropy(q_floor))
    return ReconcileResult(corrected_B=b, n_exp=leak, f_realized=f_realized,
                           verified=bool(np.array_equal(a, b)))
