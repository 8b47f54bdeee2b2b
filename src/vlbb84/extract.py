"""Privacy amplification: secure output length and Toeplitz extraction.

The final key is the product T @ x over GF(2), where T is the m-by-l
Toeplitz matrix whose anti-ordered first column is seed[0..m-1] and whose
first row is seed[m-1..l+m-2] (T[i, j] = seed[m-1-i+j]). The product is
computed as a polynomial convolution so T is never materialized.

The convolution of seed (l+m-1 bits) with the reversed input (l bits) is
taken as a circular product of S >= l+m-1 points by real FFT. Of the
2l+m-2 linear lags only l-1 .. l+m-2 are read, and lag k picks up the
wrapped term k+S only if k+S <= 2l+m-3; for k >= l-1 that needs
S <= l+m-2, so none of the lags read wraps. S is the smallest
2^a * 3^b * 5^c at or above l+m-1, a length the FFT handles fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .link_model import SecurityParams
from .numerics import binary_entropy, output_length_fixed_point


@dataclass(frozen=True)
class ExtractResult:
    final_key: np.ndarray
    k_bound: float
    seed_bits: np.ndarray


def secure_length(l: int, p_hat: float, sec: SecurityParams) -> tuple[float, int]:
    """Secure bits k = l * (1 - (1 + f_max) * h(p_hat)) and the matching
    integer output length m; m = 0 whenever k is not positive."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if not 0.0 <= p_hat <= 0.5:
        raise ValueError(f"p_hat must be in [0, 1/2], got {p_hat}")
    k = l * (1.0 - (1.0 + sec.f_max) * binary_entropy(p_hat))
    if k <= 0.0:
        return k, 0
    return k, output_length_fixed_point(k, sec.eps_max)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Smallest power-of-two multiple of p35 that reaches n.
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_extract(input_bits: np.ndarray, seed_bits: np.ndarray,
                     m: int) -> np.ndarray:
    """Hash l input bits down to m bits with the seeded Toeplitz family."""
    x = np.asarray(input_bits, dtype=np.uint8)
    seed = np.asarray(seed_bits, dtype=np.uint8)
    l = len(x)
    if m < 0 or m > l:
        raise ValueError(f"need 0 <= m <= l, got m={m}, l={l}")
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    if len(seed) != l + m - 1:
        raise ValueError(
            f"seed must have l + m - 1 = {l + m - 1} bits, got {len(seed)}")
    # output[i] = XOR_j seed[m-1-i+j] * x[j]: a correlation, i.e. the
    # convolution of seed with the reversed input at lags l-1 .. l+m-2.
    size = _fft_length(l + m - 1)
    spectrum = np.fft.rfft(seed.astype(np.float64), size)
    spectrum *= np.fft.rfft(x[::-1].astype(np.float64), size)
    conv = np.fft.irfft(spectrum, size)[l - 1:l + m - 1]
    del spectrum    # not needed while rounding; frees 8 B per FFT point
    rounded = np.rint(conv)
    if np.max(np.abs(conv - rounded)) > 0.25:
        raise ArithmeticError("FFT convolution lost integer precision")
    return (rounded[::-1].astype(np.int64) & 1).astype(np.uint8)


def extract_key(input_bits: np.ndarray, p_hat: float, sec: SecurityParams,
                rng: np.random.Generator) -> ExtractResult:
    """Compute the secure length for input_bits and extract the final key
    with a seed drawn from the shared run generator."""
    l = len(input_bits)
    k, m = secure_length(l, p_hat, sec)
    if m == 0:
        return ExtractResult(final_key=np.zeros(0, dtype=np.uint8),
                             k_bound=k, seed_bits=np.zeros(0, dtype=np.uint8))
    seed_bits = rng.integers(0, 2, l + m - 1, dtype=np.uint8)
    return ExtractResult(final_key=toeplitz_extract(input_bits, seed_bits, m),
                         k_bound=k, seed_bits=seed_bits)
