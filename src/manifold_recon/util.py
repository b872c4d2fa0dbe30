"""Seed mixing and distance helpers used by the fitting and experiment code."""

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def mix_seed(*parts) -> int:
    """Derive a 64-bit seed from an ordered tuple of integer parts.

    SplitMix64 finalizer applied once per part, so (seed, n, k, repeat)
    tuples map to well-separated streams. The function is its own
    documentation of the mixing scheme: cross-run reproducibility only
    requires re-applying this exact chain.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


# Rows per block: bounds the (block, k, D) difference tensor of the explicit
# path and the (k, block) score matrix of the screen.
CHUNK = 8192
# The screen runs when k and the pair count n*k both reach these. Below
# 2000 pairs its fixed cost per call loses; at k = 2 it gains little or
# loses, so k = 2 stays explicit. From k = 3 it wins on long arrays: the
# circle rate fits (n up to 10^5, k = 3, D = 2) run at about half the
# explicit path's time (per-shape sweep in CHANGES.md).
SCREEN_MIN_K = 3
SCREEN_MIN_PAIRS = 2000
# fsum_mean sums arrays of at least this many float64 values by error-free
# extraction; math.fsum is faster below it (crossover sweep in CHANGES.md).
EXTRACT_MIN_N = 256
# Extraction levels before the leftovers go to math.fsum one by one.
EXTRACT_LEVELS = 4
_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error bound of an
    m-step float64 sum or dot product, whatever the order of the terms."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _explicit_min(blk: np.ndarray, C: np.ndarray):
    """Nearest centre from explicit differences; ties go to the lowest index."""
    diff = blk[:, None, :] - C[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    j = np.argmin(dist, axis=1)
    return dist[np.arange(blk.shape[0]), j], j


def _screened_min(blk: np.ndarray, C: np.ndarray):
    """Nearest centre by the GEMM screen of min_sqdist; the rows it cannot
    settle, and only those, go through _explicit_min."""
    D = C.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        cc = np.einsum("ij,ij->i", C, C)
        t = (-2.0 * C) @ blk.T
        t += cc[:, None]
        reach = np.sqrt(np.einsum("ij,ij->i", blk, blk)) + np.sqrt(cc.max())
        band = 8.0 * _gamma(D + 3) * (reach * reach + np.finfo(np.float64).tiny)
        near = t <= t.min(axis=0) + band
    j = near.argmax(axis=0)
    diff = blk - C.take(j, axis=0)
    d2 = np.einsum("ij,ij->i", diff, diff)
    unsure = np.flatnonzero(near.sum(axis=0) != 1)
    if unsure.size:
        d2[unsure], j[unsure] = _explicit_min(blk[unsure], C)
    return d2, j


def min_sqdist(X: np.ndarray, C: np.ndarray):
    """Per-row min squared distance from X (n,D) to centers C (k,D).

    Returns (d2, idx): arrays of shape (n,). Ties resolve to the lowest
    center index. The result is the same, bit for bit, as the argmin of the
    explicit squared differences sum((x - c)^2), which keeps small residuals
    at full precision.

    Float64 shapes with k >= SCREEN_MIN_K (3) and n*k >= SCREEN_MIN_PAIRS
    (2000), the circle fits' k = 3 included, first screen the centres with
    one GEMM per block of rows,
    t_j = ||c_j||^2 - 2 x.c_j, which orders them as ||x - c_j||^2 does.
    With B = (||x|| + max_j ||c_j||)^2 and gamma_m = m u / (1 - m u), t_j
    errs by at most gamma_{D+1} B and the explicit form by at most
    gamma_{D+2} B, whatever the order of the sums. So a row whose screened
    runner-up exceeds its best by more than 2 (gamma_{D+1} + gamma_{D+2}) B
    has the same explicit argmin, and only its winner's d2 is computed, by
    the explicit difference. The band used, 8 gamma_{D+3} (B + tiny), is at
    least twice that bound; the slack covers the rounding of B and of the
    comparison, plus underflow. Rows inside the band (exact ties, duplicate
    centres, non-finite values) and all rows of smaller shapes (k <= 2, or
    fewer pairs) take the explicit path.
    """
    n, k = X.shape[0], C.shape[0]
    screen = (X.dtype == C.dtype == np.float64 and k >= SCREEN_MIN_K
              and n * k >= SCREEN_MIN_PAIRS)
    nearest = _screened_min if screen else _explicit_min
    d2 = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    for i in range(0, n, CHUNK):
        d2[i:i + CHUNK], idx[i:i + CHUNK] = nearest(X[i:i + CHUNK], C)
    return d2, idx


def _exact_sum(values) -> float:
    """math.fsum(values), bit for bit; see fsum_mean."""
    n = len(values)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 1 and n >= EXTRACT_MIN_N):
        return math.fsum(values)
    L = (n - 1).bit_length()
    r, q = values, np.empty_like(values)
    m = float(np.abs(r, out=q).max())
    # sigma = 2^(E+L+1) <= 2^1023 with M < 2^E; NaN fails the test too
    if not 0.0 < m < math.ldexp(1.0, 1022 - L):
        return math.fsum(values)
    parts = []
    for _ in range(EXTRACT_LEVELS):
        sigma = math.ldexp(1.0, math.frexp(m)[1] + L + 1)
        np.add(r, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        r = r - q
        m = float(np.abs(r, out=q).max())
        if m == 0.0:
            return math.fsum(parts)
    return math.fsum(parts + r[r != 0.0].tolist())


def fsum_mean(values: np.ndarray) -> float:
    """Mean of values from their exact sum: the correctly rounded sum
    divided by n, identical to math.fsum(values) / len(values) bit for bit,
    whatever the order of the values.

    A float64 array of at least EXTRACT_MIN_N values is summed by
    error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008) rather than by one
    Python-level math.fsum. With M = max|r| < 2^E and n <= 2^L, take
    sigma = 2^(E+L+1) and q = (sigma + r) - sigma. Each q is a multiple of
    sigma 2^-53 and their absolute sum stays below sigma, so np.sum(q) is
    exact in any order, pairwise and SIMD included; r - q is exact too and
    becomes the next level's r. After at most EXTRACT_LEVELS levels, or
    once r is all zero, math.fsum of the level totals and the nonzero
    leftovers rounds their exact total, which is the exact sum of the
    values, once. Shorter or other inputs, non-finite values, an all-zero
    array and values so large that sigma would pass 2^1023 go to math.fsum
    directly, so its results, NaN and its errors included, are kept.
    """
    return _exact_sum(values) / len(values)
