"""Nearest-centre assignment: the GEMM screen of min_sqdist against the
explicit-difference reference, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_recon import util


def explicit_reference(X, C):
    """argmin of sum((x - c)^2) over the centres; ties to the lowest index."""
    diff = X[:, None, :] - C[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    j = np.argmin(dist, axis=1)
    return dist[np.arange(X.shape[0]), j], j


def assert_same_bits(X, C):
    d2, idx = util.min_sqdist(X, C)
    ref_d2, ref_idx = explicit_reference(X, C)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(d2.view(np.int64), ref_d2.view(np.int64))


def adversarial(n, k, D, offset, scale, residual, dup_centres, dup_points,
                midpoints, seed):
    """A cloud built to defeat a careless screen: centres near the points,
    duplicate centres (exact ties), points a residual away from a centre,
    points on the bisector of two centres, all shifted far from the origin
    where the dot-product form cancels."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((k, D)) * scale
    if dup_centres and k > 1:
        C[rng.integers(1, k, size=max(1, k // 3))] = C[0]
    X = rng.standard_normal((n, D)) * scale
    near = rng.random(n) < 0.5
    owner = rng.integers(k, size=n)
    X[near] = C[owner[near]] + residual * rng.standard_normal((near.sum(), D))
    if dup_points:
        X[rng.random(n) < 0.3] = X[0]
    if midpoints and k > 1:
        mid = rng.random(n) < 0.2
        a, b = rng.integers(k, size=(2, mid.sum()))
        X[mid] = (C[a] + C[b]) / 2.0
    return X + offset, C + offset


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 700), k=st.integers(1, 40), D=st.integers(1, 24),
       offset=st.sampled_from([0.0, 1.0, -3e3, 1e6, -1e6]),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
       residual=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6]),
       dup_centres=st.booleans(), dup_points=st.booleans(),
       midpoints=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_screen_matches_explicit_bits(n, k, D, offset, scale, residual,
                                      dup_centres, dup_points, midpoints, seed):
    X, C = adversarial(n, k, D, offset, scale, residual, dup_centres,
                       dup_points, midpoints, seed)
    assert_same_bits(X, C)


def test_duplicate_centres_tie_to_lowest_index():
    rng = np.random.default_rng(0)
    C = rng.standard_normal((12, 20))
    C[[3, 7, 11]] = C[5]
    X = np.repeat(C[[5, 0]], 1000, axis=0)
    d2, idx = util.min_sqdist(X, C)
    assert util.SCREEN_MIN_K <= 12 and 12 * X.shape[0] >= util.SCREEN_MIN_PAIRS
    assert idx[:1000].tolist() == [3] * 1000
    assert idx[1000:].tolist() == [0] * 1000
    assert not d2.any()
    assert_same_bits(X, C)


def test_residuals_near_zero_stay_exact():
    # 1e-15 offsets from centres far from the origin: the dot-product form
    # would lose them to cancellation, the returned d2 must not
    rng = np.random.default_rng(1)
    C = rng.standard_normal((40, 20)) + 1e6
    X = C[rng.integers(40, size=3000)] + 1e-9 * rng.standard_normal((3000, 20))
    d2, _ = util.min_sqdist(X, C)
    assert d2.max() < 1e-15 and d2.min() > 0.0
    assert_same_bits(X, C)


def test_small_shapes_take_the_explicit_path(monkeypatch):
    calls = []
    real = util._explicit_min

    def spy(blk, C):
        calls.append(blk.shape[0])
        return real(blk, C)

    monkeypatch.setattr(util, "_explicit_min", spy)
    rng = np.random.default_rng(2)
    # circle-sized shapes (k <= 3, D = 2) and tiny pair counts stay explicit
    for n, k, D in [(100_000, 3, 2), (100_000, 2, 101), (100, 10, 20)]:
        calls.clear()
        util.min_sqdist(rng.standard_normal((n, D)), rng.standard_normal((k, D)))
        assert sum(calls) == n
    # a generic large shape is settled by the screen alone
    calls.clear()
    util.min_sqdist(rng.standard_normal((5000, 20)), rng.standard_normal((40, 20)))
    assert calls == []


def test_non_finite_rows_fall_back():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((600, 5))
    C = rng.standard_normal((8, 5))
    X[10] = np.nan
    X[20, 2] = np.inf
    d2, idx = util.min_sqdist(X, C)
    ref_d2, ref_idx = explicit_reference(X, C)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(d2, ref_d2, equal_nan=True)
