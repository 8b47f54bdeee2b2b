"""Privacy amplification: secure output length and Toeplitz extraction.

The final key is the product T @ x over GF(2), where T is the m-by-l
Toeplitz matrix whose anti-ordered first column is seed[0..m-1] and whose
first row is seed[m-1..l+m-2] (T[i, j] = seed[m-1-i+j]). The product is
computed as a polynomial convolution so T is never materialized.

A Toeplitz product with r rows and seed window w (l+r-1 bits) reads the
convolution of w with the reversed input (l bits) at lags l-1 .. l+r-2.
The m rows are split in two such products of the same input: rows
[0, h) with the low window seed[m-h:], and rows [h, m) with the high
window seed[:l+g-1], where h = ceil(m/2) and g = m - h. Every sum of a
product is at most l < 2^b, with b the bit length of l, so one
convolution of the packed window seed[m-h:] + 2^b * seed[:l+g-1] gives
v = A + 2^b * B at each lag: row i < h is bit 0 of v at lag l+h-2-i, and
row h+i is bit b of v at lag l+g-2-i. The convolution has l+h-1 points
instead of l+m-1, and computes the same hash.

It is a circular product of S >= l+h-1 points by real FFT. Of the
2l+h-2 linear lags only l-1 .. l+h-2 are read, and lag k picks up the
wrapped term k+S only if k+S <= 2l+h-3; for k >= l-1 that needs
S <= l+h-2, so none of the lags read wraps. S is the smallest
2^a * 3^b * 5^c at or above l+h-1, a length the FFT handles fast.

Packed sums reach 2^b * l, ~l^2, so the rounding error grows with l.
Measured as the largest |conv - rint(conv)| over m/l in [1/2, 1], it
stays at or below 0.0625 for l < 2^23: 0.027 for random bits and 0.0625
for an all-ones input and seed at l = 8e6. At l = 1.45e7 an all-ones
input and seed read 0.28, past the 0.25 precision check. So the product
packs only while l < 2^23, a rule fixed by l before anything runs; above
it h = m and g = 0, an empty high window, as m = 1 has at every size.

At l ~ 1e5 touching fresh pages costs about as much as the arithmetic:
each first write to a newly mapped page faults. So each call allocates
one float64 work array of 4*(S//2+1) + l doubles, and every step runs
in views of it; the only other allocation is the m-byte output:

    region A, 2*(S//2+1) doubles: the high window times 2^b, staged;
        then the packed window's spectrum; after the precision check,
        the output parities as int64
    region B, 2*(S//2+1) doubles: the packed window's l+h-1 doubles,
        staged for its rfft; then the input's spectrum; then the inverse
        transform
    region C, l doubles: the reversed input as doubles; then the rounded
        lags l-1 .. l+h-2

The precision check subtracts and takes the absolute value in place.
One array rather than several matters with glibc's malloc: freeing an
mmap'd chunk raises its dynamic mmap threshold to that chunk's size, and
its trim threshold to twice that. Once a work array of several MB has
been freed, the run's smaller arrays come from the heap, which is no
longer trimmed between runs, so a long run of keys stops faulting fresh
pages. glibc caps that threshold at 32 MB, so work arrays above it
(l of about 1.1e6 and up) are mapped and faulted anew on each call.
"""

from __future__ import annotations

import numpy as np

from .link_model import SecurityParams
from .numerics import binary_entropy, output_length_fixed_point

# The product packs while l < 2^_PACK_BITS; the module docstring gives the
# measured rounding error on both sides of that limit.
_PACK_BITS = 23


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


def _low_rows(l: int, m: int) -> int:
    """Rows h of the product's low half, the one read from the bits of
    the packed sums below 2^b; the high half takes the other m - h rows.
    The rows are split evenly while l < 2^_PACK_BITS, and all go to the
    low half above that."""
    return (m + 1) // 2 if l.bit_length() <= _PACK_BITS else m


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
    # Rows [0, h) are the product with seed[m-h:], rows [h, m) the product
    # with seed[:l+g-1]; one convolution of x with their packed sum gives
    # both, the second scaled by 2^b > l, past any sum of the first.
    b = l.bit_length()
    h = _low_rows(l, m)
    g = m - h
    high = l + g - 1 if g else 0     # the high window's bits
    size = _fft_length(l + h - 1)
    span = 2 * (size // 2 + 1)      # doubles per spectrum, >= size
    work = np.empty(2 * span + l, dtype=np.float64)
    spectrum = work[:span].view(np.complex128)
    other = work[span:2 * span].view(np.complex128)
    doubles = work[2 * span:]
    staged = work[span:span + l + h - 1]    # packed, until other is written
    staged[...] = seed[m - h:]
    # The seed's spectrum is not written yet: scale the high window there.
    staged[:high] += np.multiply(seed[:high], float(1 << b), out=work[:high])
    np.fft.rfft(staged, size, out=spectrum)
    doubles[...] = x[::-1]
    np.fft.rfft(doubles, size, out=other)
    spectrum *= other
    # The input's spectrum is dead after the product.
    conv = np.fft.irfft(spectrum, size, out=work[span:span + size])
    conv = conv[l - 1:l + h - 1]
    rounded = np.rint(conv, out=doubles[:h])
    conv -= rounded     # conv is not read again: check the error in place
    np.abs(conv, out=conv)
    if conv.max() > 0.25:
        raise ArithmeticError("FFT convolution lost integer precision")
    parity = work[:m].view(np.int64)    # the seed's spectrum is dead too
    # Row i < h is bit 0 of lag l+h-2-i, row h+i bit b of lag l+g-2-i.
    parity[:h] = rounded[::-1]
    parity[h:] = rounded[:g][::-1]
    parity[h:] >>= b
    parity &= 1
    return parity.astype(np.uint8)


def extract_key(input_bits: np.ndarray, p_hat: float, sec: SecurityParams,
                seed: int) -> tuple[np.ndarray, float]:
    """Compute the secure bits k for input_bits and extract the final key
    with a Toeplitz seed drawn from default_rng(seed); returns
    (final_key, k)."""
    l = len(input_bits)
    k, m = secure_length(l, p_hat, sec)
    if m == 0:
        return np.zeros(0, dtype=np.uint8), k
    # The same bits as integers(0, 2, l + m - 1, dtype=np.uint8), drawn
    # faster: that draw takes the top bit of each byte of the generator's
    # 32-bit words, low byte first (Lemire's method never rejects on
    # [0, 2)), and bytes() packs the same words little-endian.
    seed_bits = np.frombuffer(np.random.default_rng(seed).bytes(l + m - 1),
                              np.uint8) >> 7
    return toeplitz_extract(input_bits, seed_bits, m), k
