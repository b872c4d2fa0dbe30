"""Brute-force global optimizers and the partition enumeration behind them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_recon import kflats, kmeans as km, oracle
from manifold_recon.errors import EnumerationLimitError, ParameterError
from manifold_recon.geometry import Dataset


def test_stirling_numbers():
    # classical table values
    assert oracle.stirling2(0, 0) == 1
    assert oracle.stirling2(4, 2) == 7
    assert oracle.stirling2(5, 3) == 25
    assert oracle.stirling2(10, 4) == 34105
    assert oracle.stirling2(3, 5) == 0


def test_partition_count_matches_enumeration():
    for n in range(1, 8):
        for k in range(1, 5):
            parts = list(oracle.partitions(n, k))
            assert len(parts) == oracle.partition_count(n, k)
            assert len(set(parts)) == len(parts)
            for p in parts:
                # restricted growth: labels appear in first-use order
                assert p[0] == 0
                assert all(p[i] <= max(p[:i]) + 1 for i in range(1, n))
                assert max(p) < k


def test_global_kmeans_two_pairs():
    # two tight pairs: optimum groups them pairwise, objective = 2*(0.1^2)/4
    X = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 0.0], [5.2, 0.0]])
    obj, part = oracle.global_kmeans(Dataset(X), 2)
    assert part == (0, 0, 1, 1)
    assert abs(obj - (4 * 0.1 ** 2) / 4) < 1e-12


def test_global_kmeans_k1_is_variance():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 2))
    obj, part = oracle.global_kmeans(Dataset(X), 1)
    assert part == (0,) * 8
    assert abs(obj - np.mean(np.sum((X - X.mean(axis=0)) ** 2, axis=1))) < 1e-12


def test_global_kflats_two_lines():
    t = np.linspace(0.0, 1.0, 4)
    X = np.vstack([np.column_stack([t, np.zeros_like(t)]),
                   np.column_stack([t, 1.0 + 0.5 * t])])
    obj, part = oracle.global_kflats(Dataset(X), 2, 1)
    assert obj < 1e-12
    assert part == (0, 0, 0, 0, 1, 1, 1, 1)


def test_limits_enforced():
    big = Dataset(np.zeros((13, 2)))
    with pytest.raises(EnumerationLimitError):
        oracle.global_kmeans(big, 2)
    small = Dataset(np.zeros((5, 2)))
    with pytest.raises(EnumerationLimitError):
        oracle.global_kmeans(small, 5)
    with pytest.raises(EnumerationLimitError):
        oracle.global_kflats(small, 2, 3)
    with pytest.raises(ParameterError):
        oracle.global_kmeans(small, 0)


def test_flat_dim_out_of_range():
    with pytest.raises(ParameterError):
        oracle.global_kflats(Dataset(np.zeros((5, 2))), 2, -1)
    with pytest.raises(ParameterError):
        oracle.global_kflats(Dataset(np.zeros((5, 1))), 2, 2)


@pytest.mark.parametrize("D, k, d", [(2, 2, 0), (3, 2, 1)])
def test_oracle_is_translation_invariant(D, k, d):
    """Shifting the points far from the origin moves neither the optimal
    partition nor, beyond round-off, the optimum."""
    X = np.random.default_rng(0).uniform(-0.5, 0.5, (8, D))
    search = oracle.global_kmeans if d == 0 else oracle.global_kflats
    shape = (k,) if d == 0 else (k, d)
    obj0, part0 = search(Dataset(X), *shape)
    for shift in (1e3, 1e6):
        obj, part = search(Dataset(X + shift), *shape)
        assert part == part0
        assert abs(obj - obj0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_fit_never_beats_oracle(n, k, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.uniform(-0.5, 0.5, size=(n, 2)))
    obj_star, _ = oracle.global_kmeans(ds, k)
    m = km.fit(ds, k, seed=seed)
    assert m.objective >= obj_star - 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 8), st.integers(1, 2), st.integers(0, 10 ** 6))
def test_kflats_fit_never_beats_oracle(n, k, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.uniform(-0.5, 0.5, size=(n, 3)))
    obj_star, _ = oracle.global_kflats(ds, k, 1)
    m = kflats.fit(ds, k, 1, seed=seed)
    assert m.objective >= obj_star - 1e-9


def test_oracle_matches_exhaustive_center_evaluation():
    """Independent route: evaluate every partition directly, with the plain
    per-group variance for k-means and, for k-flats (d = 1), the sum of the
    D - d smallest eigenvalues of each group's scatter matrix R^T R."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(7, 2))
    Y = rng.normal(size=(7, 3))
    cases = [(X, 0, lambda R: float(np.sum(R ** 2))),
             # the D - d = 2 smallest (eigvalsh sorts ascending)
             (Y, 1, lambda R: float(np.linalg.eigvalsh(R.T @ R)[:2].sum()))]
    for Z, d, group_cost in cases:
        for k in (1, 2, 3):
            best = math.inf
            for part in oracle.partitions(7, k):
                labels = np.asarray(part)
                cost = 0.0
                for g in range(labels.max() + 1):
                    grp = Z[labels == g]
                    cost += group_cost(grp - grp.mean(axis=0))
                best = min(best, cost / 7)
            obj, _ = (oracle.global_kflats(Dataset(Z), k, d) if d
                      else oracle.global_kmeans(Dataset(Z), k))
            assert abs(obj - best) < 1e-12
