"""Nearest-centre assignment: the GEMM screen of min_sqdist against the
explicit-difference reference, bit for bit; and fsum_mean against
math.fsum, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from manifold_recon import kmeans, util
from manifold_recon.geometry import ManifoldSpec


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
    # k = 2 shapes and tiny pair counts stay explicit
    for n, k, D in [(100_000, 2, 2), (100_000, 2, 101), (100, 10, 20)]:
        calls.clear()
        util.min_sqdist(rng.standard_normal((n, D)), rng.standard_normal((k, D)))
        assert sum(calls) == n
    # a generic large shape is settled by the screen alone
    calls.clear()
    util.min_sqdist(rng.standard_normal((5000, 20)), rng.standard_normal((40, 20)))
    assert calls == []


def test_circle_k3_takes_the_screen_bit_for_bit():
    # the circle rate fits' largest shape: n = 10^5 points on the unit
    # circle, k = 3 centres drawn from them, D = 2
    rng = np.random.default_rng(4)
    theta = rng.uniform(0.0, 2.0 * np.pi, 100_000)
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    C = X[rng.choice(X.shape[0], 3, replace=False)]
    assert util.SCREEN_MIN_K <= 3
    assert_same_bits(X, C)


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


def same_as_fsum(values):
    """fsum_mean(values) against math.fsum(values) / len(values): the same
    bits (float.hex, so any NaN equals a NaN), or the same exception type."""
    try:
        want = math.fsum(values) / len(values)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            util.fsum_mean(values)
        return
    assert util.fsum_mean(values).hex() == want.hex()


LENGTHS = st.one_of(st.integers(1, 64),
                    st.integers(util.EXTRACT_MIN_N - 4, util.EXTRACT_MIN_N + 4),
                    st.integers(1, 6000))


@settings(max_examples=300, deadline=None)
@given(n=LENGTHS, low=st.integers(-1074, 1000), spread=st.integers(0, 2000),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), negative=st.booleans(),
       cancel=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_fsum_mean_is_math_fsum_bits(n, low, spread, zeros, negative, cancel,
                                     seed):
    # mantissas times 2^e with e in [low, low + spread], clipped to the
    # float range: subnormals at the bottom, values near 1e308 at the top
    # (where sigma would overflow), exponents over 600 decades in between
    rng = np.random.default_rng(seed)
    e = np.clip(low + rng.integers(0, spread + 1, n), -1074, 1023)
    v = np.ldexp(rng.random(n), e)
    if negative:
        v *= rng.choice([-1.0, 1.0], n)
    zero = rng.random(n) < zeros
    v[zero] = rng.choice([0.0, -0.0], zero.sum())
    if cancel:
        # every value with its negation, one of them nudged by an ulp
        v = np.concatenate([v, -v])
        v[0] = np.nextafter(v[0], np.inf)
        rng.shuffle(v)
    same_as_fsum(v)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(util.EXTRACT_MIN_N - 4, 1200),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_fsum_mean_of_any_finite_floats(values):
    same_as_fsum(values)


def test_fsum_mean_long_and_cancelling():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(1_000_000) * np.ldexp(1.0, rng.integers(-40, 40, 1_000_000))
    same_as_fsum(v)
    same_as_fsum(np.concatenate([v, -v[::-1], [1e-300]]))


@pytest.mark.parametrize("special", [[np.inf], [-np.inf], [np.nan],
                                     [np.inf, -np.inf], [np.nan, np.inf],
                                     [1.7e308, 1.7e308]])
def test_fsum_mean_non_finite_and_overflow(special):
    # inf, NaN and inf - inf as math.fsum gives them; two values near 1e308
    # overflow its partial sums, which must raise here too
    v = np.random.default_rng(6).standard_normal(4 * util.EXTRACT_MIN_N)
    v[:len(special)] = special
    same_as_fsum(v)


def test_fsum_mean_of_circle_fit_residuals():
    # the objective of a circle fit: squared distances to 3 Lloyd centres
    circle = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)
    data = circle.sample(20_000, 7)
    model = kmeans.fit(data, 3, kmeans.FitConfig(restarts=1), seed=7)
    d2 = model.nearest(data.points)[0]
    assert len(d2) >= util.EXTRACT_MIN_N
    same_as_fsum(d2)
    assert kmeans.empirical_error(data, model) == math.fsum(d2) / len(d2)
