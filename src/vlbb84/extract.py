"""Privacy amplification: secure output length and Toeplitz extraction.

The final key is the product T @ x over GF(2), where T is the m-by-l
Toeplitz matrix whose anti-ordered first column is seed[0..m-1] and whose
first row is seed[m-1..l+m-2] (T[i, j] = seed[m-1-i+j]). The product is
computed as a polynomial convolution so T is never materialized.

The product is a sum over the input bits, so the input is split into
k = ceil(l / (2^23 - 1)) chunks of c = ceil(l / k) bits, the last one
possibly shorter, and the key is the XOR of the chunks' products: an
overlap-add along the input (the block convolution of Oppenheim and
Schafer; hardware privacy amplification splits large Toeplitz hashes
the same way, Tang et al., Sci. Rep. 9, 15733, 2019). Chunk [s, s+c)
meets the seed window seed[s:s+c+m-1], since T[i, s+j] =
seed[s+m-1-i+j]: a Toeplitz product of m rows with the same layout, in
which m may exceed c. Below l = 2^23 there is one chunk, the whole
product. Each chunk is hashed as follows, with l its c bits.

A Toeplitz product with r rows and seed window w (l+r-1 bits) reads the
convolution of w with the reversed input (l bits) at lags l-1 .. l+r-2.
The m rows are split in two such products of the same input: rows
[0, h) with the low window seed[m-h:], and rows [h, m) with the high
window seed[:l+g-1], where h = ceil(m/2) and g = m - h. Every sum of a
product is at most l < 2^b, with b the bit length of l, so one
convolution of the packed window seed[m-h:] + 2^b * seed[:l+g-1] gives
v = A + 2^b * B at each lag: row i < h is bit 0 of v at lag l+h-2-i, and
row h+i is bit b of v at lag l+g-2-i. The convolution has l+h-1 points
instead of l+m-1, and computes the same hash. m = 1 leaves g = 0 and an
empty high window.

It is a circular product of S >= l+h-1 points by real FFT. Of the
2l+h-2 linear lags only l-1 .. l+h-2 are read, and lag k picks up the
wrapped term k+S only if k+S <= 2l+h-3; for k >= l-1 that needs
S <= l+h-2, so none of the lags read wraps. S is the smallest
2^a * 3^b * 5^c at or above l+h-1, a length the FFT handles fast.

Packed sums reach 2^b * l, ~l^2, so the rounding error grows with the
chunk's l. Measured as the largest |conv - rint(conv)| over m/l in
[1/2, 1], it stays at or below 0.0625 for l < 2^23: 0.027 for random
bits and 0.0625 for an all-ones input and seed at l = 8e6. At l = 1.45e7
an all-ones input and seed read 0.28, past the 0.25 precision check. So
every chunk is below 2^23 bits, a rule fixed by l before anything runs,
and the precision holds per chunk: a chunk's sums never exceed its own
bit count, whatever m is.

At l ~ 1e5 touching fresh pages costs about as much as the arithmetic:
each first write to a newly mapped page faults. So each chunk allocates
one float64 work array of 4*(S//2+1) + max(l, h) doubles, and every step
runs in views of it; the only other allocations are the chunk's m-byte
output and, from the second chunk on, the key it is XORed into:

    region A, 2*(S//2+1) doubles: the packed window's spectrum; after
        the precision check, the output parities as int64 (running on
        into the dead region B when m > 2*(S//2+1))
    region B, 2*(S//2+1) doubles: the packed window's l+h-1 doubles,
        staged for its rfft; then the input's spectrum; then the inverse
        transform
    region C, max(l, h) doubles: the reversed input as doubles; then the
        rounded lags l-1 .. l+h-2

A product in k chunks has k*(c+h-1) FFT points in all, against l+m-1
for one unpacked product, but holds only one chunk's work array at a
time.

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

# Every input chunk has fewer than 2^_PACK_BITS bits; the module docstring
# gives the measured rounding error on both sides of that limit.
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


def _packed_product(x: np.ndarray, seed: np.ndarray, m: int) -> np.ndarray:
    """The m-row Toeplitz product of the l = len(x) < 2^_PACK_BITS bits x
    with the l + m - 1 seed bits; m may exceed l."""
    l = len(x)
    # Rows [0, h) are the product with seed[m-h:], rows [h, m) the product
    # with seed[:l+g-1]; one convolution of x with their packed sum gives
    # both, the second scaled by 2^b > l, past any sum of the first.
    b = l.bit_length()
    h = (m + 1) // 2
    g = m - h
    high = l + g - 1 if g else 0     # the high window's bits
    size = _fft_length(l + h - 1)
    span = 2 * (size // 2 + 1)      # doubles per spectrum, >= size
    work = np.empty(2 * span + max(l, h), dtype=np.float64)
    spectrum = work[:span].view(np.complex128)
    other = work[span:2 * span].view(np.complex128)
    doubles = work[2 * span:]
    staged = work[span:span + l + h - 1]    # packed, until other is written
    # One pass per part: the scaled high window plus the low window's
    # first bits, then the rest of the low window.
    np.multiply(seed[:high], float(1 << b), out=staged[:high])
    staged[:high] += seed[m - h:m - h + high]
    staged[high:] = seed[m - h + high:]
    np.fft.rfft(staged, size, out=spectrum)
    doubles[:l] = x[::-1]
    np.fft.rfft(doubles[:l], size, out=other)
    spectrum *= other
    # The input's spectrum is dead after the product.
    conv = np.fft.irfft(spectrum, size, out=work[span:span + size])
    conv = conv[l - 1:l + h - 1]
    rounded = np.rint(conv, out=doubles[:h])
    conv -= rounded     # conv is not read again: check the error in place
    np.abs(conv, out=conv)
    if conv.max() > 0.25:
        raise ArithmeticError("FFT convolution lost integer precision")
    # The seed's spectrum is dead too, and so is the convolution.
    parity = work[:m].view(np.int64)
    # Row i < h is bit 0 of lag l+h-2-i, row h+i bit b of lag l+g-2-i.
    parity[:h] = rounded[::-1]
    parity[h:] = rounded[:g][::-1]
    parity[h:] >>= b
    parity &= 1
    return parity.astype(np.uint8)


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
    # k equal chunks of c < 2^_PACK_BITS bits, the last one possibly
    # shorter; chunk [s, s+c) meets the seed window seed[s:s+c+m-1].
    k = -(-l // ((1 << _PACK_BITS) - 1))
    c = -(-l // k)
    key = _packed_product(x[:c], seed[:c + m - 1], m)
    for s in range(c, l, c):
        key ^= _packed_product(x[s:s + c], seed[s:s + c + m - 1], m)
    return key


def extract_key(input_bits: np.ndarray, p_hat: float, sec: SecurityParams,
                seed: int | np.random.Generator) -> tuple[np.ndarray, float]:
    """Compute the secure bits k for input_bits and extract the final key
    with a Toeplitz seed drawn from default_rng(seed); returns
    (final_key, k).

    The l + m - 1 seed bits are every bit of ceil((l + m - 1) / 64) raw
    64-bit words of the generator: their bytes little-endian, each byte
    unpacked most significant bit first (np.unpackbits' default order),
    the last word's surplus bits dropped.
    """
    l = len(input_bits)
    k, m = secure_length(l, p_hat, sec)
    if m == 0:
        return np.zeros(0, dtype=np.uint8), k
    n = l + m - 1
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 64))
    seed_bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                              count=n)
    return toeplitz_extract(input_bits, seed_bits, m), k
