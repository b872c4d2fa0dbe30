"""Brute-force global optimizers for tiny instances.

Every locally-optimal solution is determined by a partition of the points,
so enumerating all partitions into at most k non-empty groups (restricted
growth strings) visits the global optimum. Costs are guarded by a Stirling
count so a mistyped instance refuses instead of hanging.
"""

import math
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from .errors import EnumerationLimitError, ParameterError
from .geometry import Dataset
from .kflats import refit_cell, flat_distance_sq

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


def _check_instance(data: Dataset, k: int, d: int = 0) -> None:
    if data.size > MAX_N or k > MAX_K or d > MAX_FLAT_DIM:
        raise EnumerationLimitError(
            f"instance exceeds oracle limits (n<= {MAX_N}, k<= {MAX_K}, "
            f"d<= {MAX_FLAT_DIM}); got n={data.size}, k={k}, d={d}")
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


def _search(data: Dataset, k: int, d: int, group_cost):
    """Smallest summed `group_cost(mask)` over the partitions into at most k
    groups, each abandoned once its running sum reaches the best; returns
    (that sum / n clamped at 0, the first partition attaining it)."""
    _check_instance(data, k, d)
    n = data.size
    best_cost = math.inf
    best_part = None
    for part in partitions(n, k):
        labels = np.asarray(part)
        cost = 0.0
        for g in range(labels.max() + 1):
            cost += group_cost(labels == g)
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost = cost
            best_part = part
    return max(best_cost, 0.0) / n, best_part


def global_kmeans(data: Dataset, k: int):
    """Exact k-means optimum by partition enumeration.

    Returns (objective, partition) with the partition as a group-label
    tuple. Deterministic and seed-free; allowing fewer than k non-empty
    groups covers degenerate optima.
    """
    X = data.points
    sq = np.einsum("ij,ij->i", X, X)

    def cost(idx):
        m = X[idx].mean(axis=0)
        return float(sq[idx].sum() - idx.sum() * (m @ m))

    return _search(data, k, 0, cost)


def global_kflats(data: Dataset, k: int, d: int):
    """Exact k-flats optimum by partition enumeration with per-group PCA."""
    X = data.points

    def cost(idx):
        grp = X[idx]
        f = refit_cell(grp, d)
        return sum(flat_distance_sq(x, f) for x in grp)

    return _search(data, k, d, cost)
