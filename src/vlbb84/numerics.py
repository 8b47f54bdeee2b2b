"""Shared scalar numerics: binary entropy, normal CDF, bracketed root
finding, and the implicit output-length equation of privacy amplification."""

from __future__ import annotations

import math

# Cap on solve_bracketed's bisection steps. A bracket of width w meets the
# width tolerance tol within log2(w / tol) steps: 48 for limit_distance's.
_MAX_ITER = 200


def binary_entropy(x: float) -> float:
    """h(x) = -x*log2(x) - (1-x)*log2(1-x), with h(0) = h(1) = 0."""
    if x < 0.0 or x > 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def solve_bracketed(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisect f on [lo, hi] until |f| <= tol or the interval width <= tol,
    for at most _MAX_ITER steps.

    f(lo) and f(hi) must differ in sign (a zero endpoint counts as a root).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"interval [{lo}, {hi}] does not bracket a root: "
            f"f(lo)={flo}, f(hi)={fhi}"
        )
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol:
            break
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return mid


def output_length_fixed_point(k: float, eps_max: float) -> int:
    """Largest integer m with m <= k - 6 - 4*log2(m / eps_max); 0 if none.

    This is the saturation point of the extraction budget. The budget
    minus m strictly decreases in m, so the admissible m form a prefix of
    [1, floor(k)] and bisection finds its end.
    """
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    lo, hi = 0, max(math.floor(k), 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid <= k - 6.0 - 4.0 * math.log2(mid / eps_max):
            lo = mid
        else:
            hi = mid - 1
    return lo
