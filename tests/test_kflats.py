"""Affine-flat fitting: PCA refits, distances, and the alternation."""

import json
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_recon import kflats, kmeans
from manifold_recon.errors import ParameterError
from manifold_recon.geometry import Dataset, sample_flat_disk, sample_sphere
from manifold_recon.kmeans import FitConfig, _cell_means, _descend
from manifold_recon.util import _gamma

clouds = arrays(
    np.float64, st.tuples(st.integers(3, 20), st.integers(2, 4)),
    elements=st.floats(-5, 5, allow_nan=False, width=64))


def test_refit_line_through_points_is_exact():
    t = np.linspace(-1.0, 1.0, 9)
    direction = np.array([2.0, -1.0, 2.0]) / 3.0
    pts = np.array([1.0, 0.5, -0.25]) + np.outer(t, direction)
    f = kflats.refit_cell(pts, 1)
    assert not f.degenerate.any()
    assert kflats._dist2_matrix(pts.T, [f]).max() < 1e-13
    # basis spans the line direction (sign-free)
    assert abs(abs(f.basis[:, 0] @ direction) - 1.0) < 1e-12


def test_refit_square_corners_tied_spectrum():
    # covariance of the four corners (+-1, +-1) is the identity: any unit
    # direction is a valid principal axis. Each corner keeps its residual
    # in the discarded direction, so the residual sum is 4 for every choice.
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    f = kflats.refit_cell(pts, 1)
    assert np.allclose(f.offset, 0.0)
    assert abs(np.linalg.norm(f.basis[:, 0]) - 1.0) < 1e-12
    total = kflats._dist2_matrix(pts.T, [f]).sum()
    assert abs(total - 4.0) < 1e-12
    # and the objective is invariant under the choice of unit direction
    for theta in np.linspace(0.0, np.pi, 7):
        g = kflats.Flat(offset=np.zeros(2),
                        basis=np.array([[np.cos(theta)], [np.sin(theta)]]),
                        degenerate=np.zeros(1, dtype=bool))
        assert abs(kflats._dist2_matrix(pts.T, [g]).sum() - 4.0) < 1e-12


def test_refit_rank_deficient_cell_gets_degenerate_columns():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    f = kflats.refit_cell(pts, 2)
    assert f.degenerate.tolist() == [False, True]
    assert np.all(f.basis[:, 1] == 0.0)
    single = kflats.refit_cell(np.array([[3.0, 1.0]]), 1)
    assert single.degenerate.all()
    assert np.allclose(single.offset, [3.0, 1.0])
    with pytest.raises(ParameterError):
        kflats.refit_cell(np.zeros((0, 2)), 1)


def test_flat_distance_matches_projection_formula():
    rng = np.random.default_rng(0)
    B, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    f = kflats.Flat(offset=rng.normal(size=5), basis=B,
                    degenerate=np.zeros(2, dtype=bool))
    X = rng.normal(size=(20, 5))
    for x, d2 in zip(X, kflats._dist2_matrix(X.T, [f])[0]):
        r = x - f.offset
        proj = B @ (B.T @ r)
        assert abs(d2 - float((r - proj) @ (r - proj))) < 1e-12
    assert kflats._dist2_matrix(f.offset[:, None], [f])[0, 0] == 0.0


def test_distance_invariant_under_basis_rotation():
    # only the projector B B^T matters: rotating the columns changes nothing
    rng = np.random.default_rng(1)
    B, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    f1 = kflats.Flat(offset=np.zeros(4), basis=B, degenerate=np.zeros(2, dtype=bool))
    f2 = kflats.Flat(offset=np.zeros(4), basis=B @ Q, degenerate=np.zeros(2, dtype=bool))
    d2 = kflats._dist2_matrix(rng.normal(size=(10, 4)).T, [f1, f2])
    assert np.abs(d2[0] - d2[1]).max() < 1e-12


def _row_major_dist2(X, flats):
    """The (n, k) row-major kernel that the feature-major one replaced."""
    out = np.empty((X.shape[0], len(flats)))
    for j, f in enumerate(flats):
        R = X - f.offset
        d2 = np.einsum("ij,ij->i", R, R) - np.square(R @ f.basis).sum(axis=1)
        out[:, j] = np.maximum(d2, 0.0)
    return out


def _row_major_nearest(X, flats):
    dist = _row_major_dist2(X, flats)
    assign = np.argmin(dist, axis=1)
    return dist[np.arange(X.shape[0]), assign], assign


@st.composite
def flats_and_points(draw):
    """(X, flats): k random d-flats in R^D (some basis columns zero and
    flagged degenerate, the last flat possibly a duplicate of the first) and
    n points, some of them flat offsets (residual 0), n = D possible; the
    whole cloud shifted by 0 or +-1e6."""
    D, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    d = draw(st.integers(0, D))
    n = draw(st.one_of(st.just(D), st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.sampled_from([0.0, 1e6, -1e6]))
    flats = []
    for _ in range(k):
        B = np.linalg.qr(rng.standard_normal((D, D)))[0][:, :d]
        mask = rng.random(d) < 0.2
        B[:, mask] = 0.0
        flats.append(kflats.Flat(offset=rng.standard_normal(D) * 3 + shift, basis=B,
                                 degenerate=mask))
    if k > 1 and draw(st.booleans()):
        flats[-1] = flats[0]
    offsets = np.array([f.offset for f in flats])[rng.integers(k, size=n)]
    X = np.where(rng.random((n, 1)) < 0.2, offsets, rng.standard_normal((n, D)) * 3 + shift)
    return X, flats


@settings(max_examples=300, deadline=None)
@given(flats_and_points())
@example((np.array([[1.0, 2.0], [3.0, 4.0]]),
          [kflats.Flat(offset=np.zeros(2), basis=np.eye(2)[:, :1],
                       degenerate=np.zeros(1, dtype=bool))] * 2))
@example((np.arange(9.0).reshape(3, 3) + 1e6,
          [kflats.Flat(offset=np.full(3, 1e6), basis=np.eye(3)[:, :2],
                       degenerate=np.zeros(2, dtype=bool)),
           kflats.Flat(offset=np.arange(3.0) + 1e6, basis=np.eye(3)[:, 1:],
                       degenerate=np.zeros(2, dtype=bool))]))
def test_feature_major_distances_match_the_row_major_kernel(case):
    """At D = 1, and at D = 2 for d = 0 and d = 2, the (k, n) kernel gives
    the (n, k) one's bits. Elsewhere (D >= 3, where |R|^2 is summed in
    another order, and d = 1 at D = 2, where the BLAS matrix-vector product
    rounds some trailing points' projections in another order) each distance
    lies within the round-off band of the two computations,
    2 (4d + 3) gamma_{D+d} |R|^2, and the nearest flat is the same wherever
    the reference's best two flats lie further apart than their bands. A
    square X checks that `nearest` reads rows as points."""
    X, flats = case
    n, D = X.shape
    d = flats[0].basis.shape[1]
    want = _row_major_dist2(X, flats)
    got = kflats._dist2_matrix(np.ascontiguousarray(X.T), flats).T
    want_d2, want_assign = _row_major_nearest(X, flats)
    model = kflats.FlatsModel(flats=tuple(flats), k=len(flats), d=d, objective=0.0,
                              iterations=1, seed=0)
    d2, assign = model.nearest(X)
    assert np.array_equal(d2, got[np.arange(n), assign])
    assert np.array_equal(assign, np.argmin(got, axis=1))
    if D == 1 or (D == 2 and d != 1):
        assert np.array_equal(got, want)
        assert np.array_equal(d2, want_d2) and np.array_equal(assign, want_assign)
        return
    r2 = np.stack([np.einsum("ij,ij->i", X - f.offset, X - f.offset) for f in flats], axis=1)
    band = 2.01 * (4 * d + 3) * _gamma(D + d) * r2
    assert (np.abs(got - want) <= band).all()
    if not np.array_equal(got, want):
        event("a distance drifted")
    if len(flats) > 1:
        order = np.argsort(want, axis=1, kind="stable")[:, :2]
        rows = np.arange(n)[:, None]
        gap = np.diff(want[rows, order], axis=1)[:, 0]
        clear = gap > band[rows, order].sum(axis=1)
        assert np.array_equal(assign[clear], want_assign[clear])


def test_flat_validation():
    with pytest.raises(ParameterError):
        kflats.Flat(offset=np.zeros(3), basis=np.ones((3, 2)) / np.sqrt(3),
                    degenerate=np.zeros(2, dtype=bool))  # columns not orthogonal
    with pytest.raises(ParameterError):
        kflats.Flat(offset=np.zeros(3), basis=np.zeros((3, 1)),
                    degenerate=np.zeros(1, dtype=bool))  # zero column not flagged
    with pytest.raises(ParameterError):
        kflats.Flat(offset=np.zeros(3), basis=np.eye(3)[:, :1],
                    degenerate=np.zeros(2, dtype=bool))  # mask length mismatch
    # a model file's bases go through the same check
    obj = {"k": 1, "d": 1, "ambient_dim": 3, "objective": 0.0, "iterations": 1,
           "seed": 0, "flats": [{"offset": [0.0] * 3, "basis": [1.0, 0.0, 0.0],
                                 "degenerate_mask": [False]}]}
    kflats.FlatsModel.from_json_dict(obj)
    obj["flats"][0]["basis"] = [1.0, 1.0, 0.0]  # not unit length
    with pytest.raises(ParameterError):
        kflats.FlatsModel.from_json_dict(obj)


@pytest.mark.parametrize("field, bad", [("offset", math.nan), ("offset", math.inf),
                                        ("basis", math.nan), ("basis", -math.inf)])
def test_flat_rejects_non_finite_values(field, bad):
    # a NaN passes the orthonormality test, as NaN > 1e-9 is False
    arrays = {"offset": np.zeros(3), "basis": np.eye(3)[:, :2]}
    arrays[field] = arrays[field].copy()
    arrays[field].flat[0] = bad
    with pytest.raises(ParameterError, match=f"^{field} is not finite$"):
        kflats.Flat(degenerate=np.zeros(2, dtype=bool), **arrays)


def _flat_model_file(**top):
    return {"k": 1, "d": 1, "ambient_dim": 3, "objective": 0.0, "iterations": 1,
            "seed": 0, "flats": [{"offset": [0.0] * 3, "basis": [1.0, 0.0, 0.0],
                                  "degenerate_mask": [False]}], **top}


@pytest.mark.parametrize("objective", [math.nan, math.inf, -1.0])
def test_flats_model_rejects_an_objective_that_is_not_a_finite_error(objective):
    with pytest.raises(ParameterError, match="^objective must be finite and >= 0$"):
        kflats.FlatsModel.from_json_dict(_flat_model_file(objective=objective))


def test_model_file_with_too_few_basis_coordinates_names_the_field():
    obj = _flat_model_file()
    kflats.FlatsModel.from_json_dict(obj)
    obj["flats"][0]["basis"] = [1.0, 0.0]
    with pytest.raises(ParameterError, match="^basis must hold 3 numbers: "):
        kflats.FlatsModel.from_json_dict(obj)


def test_model_rejects_flats_that_do_not_fit_it():
    def flat(D, d):
        return kflats.Flat(offset=np.zeros(D), basis=np.eye(D)[:, :d],
                           degenerate=np.zeros(d, dtype=bool))

    model = dict(k=2, d=1, objective=0.0, iterations=1, seed=0)
    kflats.FlatsModel(flats=(flat(3, 1), flat(3, 1)), **model)
    for other in (flat(2, 1), flat(3, 2)):  # another R^D, another d
        with pytest.raises(ParameterError, match=r"^every flat must lie in R\^3, "
                                                 "as the first does, with d=1 "):
            kflats.FlatsModel(flats=(flat(3, 1), other), **model)


def test_fit_recovers_flat_data_exactly():
    ds = sample_flat_disk(d=2, D=5, n=300, seed=2)
    m = kflats.fit(ds, 1, 2, FitConfig(restarts=3), seed=2)
    assert m.objective < 1e-12
    assert kflats.refit_residual(ds, m) < 1e-20


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("X, k", [
    (np.tile([1.5, -2.0, 0.25], (6, 1)), 2),
    (np.array([[1.0, 2.0], [1.0, 2.0], [-0.5, 4.0], [1.0, 2.0], [-0.5, 4.0]]), 3),
], ids=["identical-rows", "two-values"])
def test_fit_start_with_empty_voronoi_cells(X, k, seed):
    # duplicate k-means++ seeds leave a Voronoi cell of the start empty, so
    # the start refits it on the point farthest from the seeds
    m = kflats.fit(Dataset(X), k, 1, FitConfig(restarts=3), seed=seed)
    assert m.objective == 0.0
    assert len(m.flats) == k
    for f in m.flats:
        assert any(np.array_equal(f.offset, row) for row in X)


def test_fit_two_parallel_lines():
    t = np.linspace(-1.0, 1.0, 25)
    pts = np.vstack([np.column_stack([t, np.zeros_like(t)]),
                     np.column_stack([t, np.ones_like(t)])])
    m = kflats.fit(Dataset(pts), 2, 1, seed=0)
    assert m.objective < 1e-12


def test_fit_descent_and_certificates():
    ds = sample_sphere(d=2, D=3, n=300, seed=5)
    traces = []
    m = kflats.fit(ds, 4, 2, seed=5, trace_sink=traces)
    assert m.descent_violations == 0
    assert len(traces) == 20
    for tr in traces:
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
    assert abs(m.objective - kflats.empirical_error(ds, m)) < 1e-12
    assert kflats.refit_residual(ds, m) < 1e-10


def test_fit_deterministic():
    ds = sample_sphere(d=2, D=3, n=150, seed=3)
    a = kflats.fit(ds, 3, 2, seed=9)
    b = kflats.fit(ds, 3, 2, seed=9)
    assert a.objective == b.objective
    for fa, fb in zip(a.flats, b.flats):
        assert np.array_equal(fa.offset, fb.offset)
        assert np.array_equal(fa.basis, fb.basis)


def test_d_zero_reduces_to_kmeans_objective():
    from manifold_recon import kmeans as km
    ds = sample_sphere(d=1, D=2, n=80, seed=7)
    mf = kflats.fit(ds, 3, 0, seed=7)
    mk = km.fit(ds, 3, seed=7)
    assert abs(mf.objective - mk.objective) < 1e-9


def test_json_round_trip():
    ds = sample_sphere(d=2, D=4, n=100, seed=11)
    m = kflats.fit(ds, 2, 2, FitConfig(restarts=2), seed=11)
    back = kflats.FlatsModel.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert back.objective == m.objective and back.k == m.k and back.d == m.d
    for fa, fb in zip(m.flats, back.flats):
        assert np.allclose(fa.offset, fb.offset, atol=0)
        assert np.allclose(fa.basis, fb.basis, atol=0)
        assert np.array_equal(fa.degenerate, fb.degenerate)
    # the serialized objective must reproduce on the deserialized model
    assert abs(kflats.empirical_error(ds, back) - m.objective) < 1e-12


def test_validation_errors():
    ds = Dataset(np.zeros((4, 3)))
    with pytest.raises(ParameterError):
        kflats.fit(ds, 0, 1)
    with pytest.raises(ParameterError):
        kflats.fit(ds, 5, 1)
    for d in (-1, 4):
        with pytest.raises(ParameterError, match=f"^need 0 <= d <= D, got d={d}, D=3$"):
            kflats.fit(ds, 2, d)
    with pytest.raises(ParameterError):
        kflats.refit_cell(np.zeros((3, 2)), 3)


@settings(max_examples=30, deadline=None)
@given(clouds, st.integers(1, 3), st.integers(0, 2 ** 32))
def test_fit_properties(X, k, seed):
    ds = Dataset(X)
    k = min(k, ds.size)
    d = min(1, ds.ambient_dim)
    m = kflats.fit(ds, k, d, FitConfig(restarts=3), seed=seed)
    assert m.objective >= 0.0
    assert m.descent_violations == 0
    # a d-flat through the mean never loses to the best 0-flat (the mean)
    mean_obj = float(np.mean(np.sum((X - X.mean(axis=0)) ** 2, axis=1)))
    assert m.objective <= mean_obj + 1e-9


@settings(max_examples=30, deadline=None)
@given(clouds, st.integers(1, 2))
def test_refit_is_optimal_among_random_flats(X, d):
    """PCA refit beats any random flat with the same offset freedom."""
    f = kflats.refit_cell(X, d)
    best = kflats._dist2_matrix(X.T, [f]).sum()
    rng = np.random.default_rng(0)
    for _ in range(5):
        B, _ = np.linalg.qr(rng.normal(size=(X.shape[1], d)))
        g = kflats.Flat(offset=X.mean(axis=0), basis=B,
                        degenerate=np.zeros(d, dtype=bool))
        rival = kflats._dist2_matrix(X.T, [g]).sum()
        assert best <= rival + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 2 ** 32 - 1))
def test_refit_basis_meets_eigen_residual_contract(n, D, rank, seed):
    """Every non-degenerate basis column is an eigenvector of the cell
    covariance: ||C v - lambda v|| <= EIG_RESIDUAL_TOL * ||C||, including
    cells whose points span fewer than d directions."""
    rng = np.random.default_rng(seed)
    rank = min(rank, D)
    pts = (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, D))
           + rng.standard_normal(D))
    for d in range(D + 1):
        f = kflats.refit_cell(pts, d)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / n
        cov_norm = np.linalg.norm(cov, 2)
        for v in f.basis[:, ~f.degenerate].T:
            lam = v @ cov @ v
            assert np.linalg.norm(cov @ v - lam * v) <= kflats.EIG_RESIDUAL_TOL * cov_norm


@st.composite
def labelled_clouds(draw):
    """(X, assign) with D >= 1: rows drawn with repeats from a small pool
    (so duplicate rows and rank-deficient cells are common), the cloud
    shifted by 0 or +-1e6, and every label in 0..k-1 used."""
    D = draw(st.integers(1, 6))
    pool = draw(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(D)),
                       elements=st.floats(-5, 5, allow_nan=False, width=64)))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(rows),
                           max_size=len(rows)))
    shift = draw(st.sampled_from([0.0, 1e6, -1e6]))
    return pool[rows] + shift, np.unique(labels, return_inverse=True)[1]


@settings(max_examples=60, deadline=None)
@given(labelled_clouds())
@example((np.array([[1e6, 1e6], [1e6, 1e6], [1e6 + 1, 1e6 - 2], [3.0, 4.0]]),
          np.array([0, 0, 0, 1])))
def test_refit_cells_match_refit_cell_bit_for_bit(cloud):
    """The cell update's offsets come from `_cell_means`, yet every flat is
    the one `refit_cell` gives on the masked cell, for every d in 0..D."""
    X, assign = cloud
    counts = np.bincount(assign)
    for d in range(X.shape[1] + 1):
        for j, f in enumerate(kflats._refit_cells(X.T, assign, counts, d)):
            want = kflats.refit_cell(X[assign == j], d)
            assert np.array_equal(f.offset, want.offset)
            assert np.array_equal(f.basis, want.basis)
            assert np.array_equal(f.degenerate, want.degenerate)


def _meets_the_flat_check(f, D, d):
    """What `Flat(...)` checks and freezes, on a flat built without it."""
    assert f.offset.shape == (D,) and f.basis.shape == (D, d)
    assert f.degenerate.shape == (d,)
    gram = f.basis.T @ f.basis
    assert np.abs(gram - np.diag((~f.degenerate).astype(float))).max(initial=0.0) <= 1e-9
    for a, dtype in ((f.offset, np.float64), (f.basis, np.float64),
                     (f.degenerate, np.bool_)):
        assert a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable
    kflats.Flat(offset=f.offset, basis=f.basis, degenerate=f.degenerate)


@settings(max_examples=60, deadline=None)
@given(labelled_clouds())
@example((np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0], [-1.0, 0.5], [2.0, 4.0]]),
          np.array([0, 0, 1, 1, 1])))
def test_every_refit_meets_the_flat_check(cloud):
    """Refits skip Flat's orthonormality check; every flat that refit_cell
    and _refit_cells return still meets it, for every d in 0..D, on cells of
    duplicate rows and other rank-deficient cells, and at D = 1."""
    X, assign = cloud
    D = X.shape[1]
    counts = np.bincount(assign)
    for d in range(D + 1):
        for j, f in enumerate(kflats._refit_cells(X.T, assign, counts, d)):
            _meets_the_flat_check(f, D, d)
            _meets_the_flat_check(kflats.refit_cell(X[assign == j], d), D, d)
            if f.degenerate.any():
                event("a rank-deficient cell")
    for d in (0, 1):
        _meets_the_flat_check(kflats.refit_cell(X[:, :1], d), 1, d)


def test_refit_cells_offset_is_sequential_sum_at_d1():
    # at D = 1 numpy's mean sums the one column pairwise (5/9 here), while
    # the cell update sums it in row order (6/9); every offset is the latter,
    # refit_cell's too
    col = np.array([1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
    X = col[:, None]
    assign = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    counts = np.bincount(assign)
    total = 0.0
    for v in col[:9]:
        total += v
    assert total / 9 == 6 / 9 and col[:9].mean() == 5 / 9
    flats = kflats._refit_cells(X.T, assign, counts, 1)
    assert flats[0].offset.tolist() == [6 / 9]
    assert np.array_equal(flats[0].offset, _cell_means(X, assign, counts)[0])
    assert flats[1].offset.tolist() == [2.0] and flats[1].degenerate.all()
    assert kflats.refit_cell(X[:9], 1).offset.tolist() == [6 / 9]


def _same_flats(got, want):
    return len(got) == len(want) and all(
        np.array_equal(f.offset, g.offset) and np.array_equal(f.basis, g.basis)
        and np.array_equal(f.degenerate, g.degenerate) for f, g in zip(got, want))


def _uncached_steps(n, k, d):
    return kflats._nearest_flat, partial(kflats._refit_cells, d=d)


@st.composite
def alternation_starts(draw):
    """(X, start, d): rows drawn with repeats from a small pool (duplicate
    rows), shifted by 0 or +-1e6; k in 1..4 and d in 0..D; the start refits
    k random row groups, and may repeat its first flat as its last, which
    leaves the last cell empty so that the first pass takes a donor."""
    D = draw(st.integers(1, 4))
    pool = draw(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(D)),
                       elements=st.floats(-5, 5, allow_nan=False, width=64)))
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    X = pool[rows] + draw(st.sampled_from([0.0, 1e6, -1e6]))
    k, d = draw(st.integers(1, min(4, len(X)))), draw(st.integers(0, D))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=len(X),
                                    max_size=len(X))))
    start = [kflats.refit_cell(X[labels == j] if (labels == j).any() else X[0], d)
             for j in range(k)]
    if k > 1 and draw(st.booleans()):
        start[-1] = start[0]
    return X, start, d


_SHIFTED = np.array([[1e6, 1e6], [1e6, 1e6], [1e6 + 1, 1e6 - 2],
                     [1e6 + 3, 1e6 + 4], [1e6 - 3, 1e6]])


@settings(max_examples=80, deadline=None)
@given(alternation_starts(), st.integers(0, 2 ** 32 - 1))
@example((_SHIFTED, [kflats.refit_cell(_SHIFTED[:2], 0)] * 2
          + [kflats.refit_cell(_SHIFTED[2:], 0)], 0), 0)
@example((-_SHIFTED, [kflats.refit_cell(-_SHIFTED, 2)], 2), 1)
def test_restart_steps_match_the_uncached_alternation(case, seed):
    """From one start, and per restart of a whole fit, the alternation that
    keeps unmoved cells and their distance columns gives the uncached one's
    trace and flats bit for bit."""
    X, start, d = case
    cfg = FitConfig(rel_tol=0.0, max_iters=30)
    Xt = np.ascontiguousarray(X.T)
    want, want_trace = _descend(Xt, start, *_uncached_steps(len(X), len(start), d), cfg)
    nearest, refit = kflats._restart_steps(len(X), len(start), d)
    updates = []

    def logged(X, assign, counts):
        updates.append(refit(X, assign, counts))
        return updates[-1]
    got, trace = _descend(Xt, start, nearest, logged, cfg)
    assert trace == want_trace
    assert _same_flats(got, want)
    for a, b in zip(updates, updates[1:]):
        kept = [f is g for f, g in zip(a, b)]
        if any(kept) and not all(kept):
            event("a cell kept its flat while another was refit")
    if len(set(map(id, start))) < len(start):
        event("repeated start flat: the first pass takes a donor")
    fits = []
    for steps in (_uncached_steps, kflats._restart_steps):
        traces = []
        with mock.patch.object(kflats, "_restart_steps", steps):
            fits.append((kflats.fit(Dataset(X), len(start), d, FitConfig(restarts=3), seed,
                                    trace_sink=traces), traces))
    (want_fit, want_traces), (got_fit, got_traces) = fits
    assert got_traces == want_traces
    assert got_fit.objective == want_fit.objective
    assert _same_flats(got_fit.flats, want_fit.flats)


@settings(max_examples=60, deadline=None)
@given(labelled_clouds(), st.data())
@example((np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [5.0, 6.0], [9.0, 0.0],
                    [9.0, 1.0]]), np.array([0, 0, 1, 1, 2, 2])), None)
def test_refit_cells_keep_exactly_the_unmoved_cells(cloud, data):
    """An update given the last (assign, flats) keeps the last flat of each
    cell that no row entered or left (two rows that swap cells move both),
    and equals the full update bit for bit."""
    X, last_assign = cloud
    k, D = last_assign.max() + 1, X.shape[1]
    assign = last_assign.copy()
    if data is None:  # rows 1 and 4 swap cells 0 and 2; cell 1 keeps its rows
        assign[[1, 4]] = assign[[4, 1]]
    else:
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, len(X) - 1),
                                                 st.integers(0, len(X) - 1)), max_size=3)):
            assign[[i, j]] = assign[[j, i]]
        moves = data.draw(st.lists(st.tuples(st.integers(0, len(X) - 1),
                                             st.integers(0, k - 1)), max_size=2))
        for i, j in moves:
            assign[i] = j
    counts = np.bincount(assign, minlength=k)
    assume(counts.all())
    d = D if data is None else data.draw(st.integers(0, D))
    last = kflats._refit_cells(X.T, last_assign, np.bincount(last_assign), d)
    got = kflats._refit_cells(X.T, assign, counts, d, (last_assign, last))
    assert _same_flats(got, kflats._refit_cells(X.T, assign, counts, d))
    for j in range(k):
        unmoved = np.array_equal(assign == j, last_assign == j)
        assert (got[j] is last[j]) == unmoved
        if unmoved and not (assign == last_assign).all():
            event("a cell kept its rows while another changed")
        if counts[j] == np.bincount(last_assign, minlength=k)[j] and not unmoved:
            event("a cell swapped rows and kept its count")


def test_restart_nearest_remeasures_only_replaced_flats():
    X = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [2.0, 2.0]])
    flats = [kflats.refit_cell(X[:2], 1), kflats.refit_cell(X[2:], 1)]
    nearest, _ = kflats._restart_steps(len(X), 2, 1)
    nearest(X.T, flats)
    dist = nearest.keywords["out"]
    dist[0] = -1.0  # a row whose flat stays is not computed again
    flats[1] = kflats.refit_cell(X[1:], 1)
    d2, assign = nearest(X.T, flats)
    assert (dist[0] == -1.0).all() and (assign == 0).all()
    assert np.array_equal(dist[1], kflats._dist2_matrix(X.T, flats[1:])[0])


@pytest.mark.parametrize("k", [3, 4, 8])
def test_circle_fits_reach_the_equal_arc_error_on_holdout(k):
    """On the uniform unit circle, k equal arcs (alpha = pi/k) are optimal,
    with error 1 - (sin a/a)^2 for k points and 1/2 + sin 2a/(4a) - (sin a/a)^2
    for k lines. Scored on a hold-out sample, not on the training objective,
    which a fit at this n can push below the population optimum."""
    train = sample_sphere(d=1, D=2, n=20_000, seed=0)
    holdout = sample_sphere(d=1, D=2, n=50_000, seed=1)
    a = math.pi / k
    s = math.sin(a) / a
    cfg = FitConfig(restarts=3)
    for model, optimum in ((kmeans.fit(train, k, cfg, seed=0), 1 - s * s),
                           (kflats.fit(train, k, 1, cfg, seed=0),
                            0.5 + math.sin(2 * a) / (4 * a) - s * s)):
        assert 0.98 <= kmeans.empirical_error(holdout, model) / optimum <= 1.02
