"""Brute-force global optimizers for tiny instances.

Every locally-optimal solution is determined by a partition of the points,
so enumerating all partitions into at most k non-empty groups (restricted
growth strings) visits the global optimum. Costs are guarded by a Stirling
count so a mistyped instance refuses instead of hanging. A group's cost
depends only on its rows, so a search memoizes it by their bitmask.

A group's cost is its best d-flat residual, which by Eckart & Young (1936)
is the sum of the squared singular values of its centred points past the
d-th; at d = 0 (k-means) that is the centred sum of squares. Centring first
keeps the cost exact far from the origin, and the oracle shares no code
with the fitters it checks.
"""

import math
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from .errors import EnumerationLimitError, ParameterError
from .geometry import Dataset

MAX_N = 12
MAX_K = 4
MAX_FLAT_DIM = 2
MAX_PARTITIONS = 10 ** 6


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def partition_count(n: int, k_max: int) -> int:
    """Number of partitions of n items into at most k_max non-empty groups."""
    return sum(stirling2(n, j) for j in range(1, min(k_max, n) + 1))


def _check_instance(data: Dataset, k: int, d: int) -> None:
    if data.size > MAX_N or k > MAX_K or d > MAX_FLAT_DIM:
        raise EnumerationLimitError(
            f"instance exceeds oracle limits (n<= {MAX_N}, k<= {MAX_K}, "
            f"d<= {MAX_FLAT_DIM}); got n={data.size}, k={k}, d={d}")
    if not (0 <= d <= data.ambient_dim):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={data.ambient_dim}")
    if not (1 <= k <= data.size):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={data.size}")
    cost = partition_count(data.size, k)
    if cost > MAX_PARTITIONS:
        raise EnumerationLimitError(
            f"enumeration cost {cost} exceeds the {MAX_PARTITIONS} budget")


def partitions(n: int, k_max: int) -> Iterator[Tuple[int, ...]]:
    """All assignments of n items into at most k_max groups, as restricted
    growth strings (group labels appear in first-use order)."""
    a = [0] * n
    m = [0] * n  # m[i] = max label used among a[:i+1]

    def rec(i: int):
        if i == n:
            yield tuple(a)
            return
        top = min(m[i - 1] + 1, k_max - 1) if i > 0 else 0
        for label in range(top + 1):
            a[i] = label
            m[i] = max(m[i - 1], label) if i > 0 else label
            yield from rec(i + 1)

    yield from rec(0)


def _search(data: Dataset, k: int, d: int):
    """Smallest summed group cost over the partitions into at most k groups,
    each abandoned once its running sum reaches the best; returns (that sum
    / n, the first partition attaining it)."""
    _check_instance(data, k, d)
    X = data.points
    n = data.size
    best_cost = math.inf
    best_part = None
    memo = {}  # group cost by the bitmask of its rows
    for part in partitions(n, k):
        masks = [0] * (max(part) + 1)
        for i, g in enumerate(part):
            masks[g] |= 1 << i
        cost = 0.0
        for g, mask in enumerate(masks):
            group = memo.get(mask)
            if group is None:
                R = X[np.asarray(part) == g]
                R = R - R.mean(axis=0)
                if d == 0:  # the same sum, without an SVD
                    group = float(np.einsum("ij,ij->", R, R))
                else:
                    group = float(np.square(np.linalg.svd(R, compute_uv=False)[d:]).sum())
                memo[mask] = group
            cost += group
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost = cost
            best_part = part
    return best_cost / n, best_part


def global_kmeans(data: Dataset, k: int):
    """Exact k-means optimum by partition enumeration.

    Returns (objective, partition) with the partition as a group-label
    tuple. Deterministic and seed-free; allowing fewer than k non-empty
    groups covers degenerate optima.
    """
    return _search(data, k, 0)


def global_kflats(data: Dataset, k: int, d: int):
    """Exact k-flats optimum by partition enumeration, as `global_kmeans`."""
    return _search(data, k, d)
