"""Lloyd's algorithm, k-means++ seeding, the alternation engine shared with
k-flats, and the fit certificates."""

import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from manifold_recon import kflats as kf
from manifold_recon import kmeans as km
from manifold_recon.errors import ParameterError
from manifold_recon.geometry import Dataset, ManifoldSpec, sample_sphere
from manifold_recon.util import mix_seed

finite_clouds = arrays(
    np.float64, st.tuples(st.integers(2, 25), st.integers(1, 4)),
    elements=st.floats(-10, 10, allow_nan=False, width=64))


def test_single_center_is_the_mean():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(40, 3)))
    m = km.fit(ds, 1, seed=0)
    assert np.allclose(m.centers[0], ds.points.mean(axis=0), atol=1e-12)
    assert abs(m.objective - np.mean(np.sum((ds.points - m.centers[0]) ** 2, axis=1))) < 1e-12


def test_two_well_separated_clusters():
    ds = Dataset(np.array([[0.0, 0.0], [2.0, 0.0]]))
    m = km.fit(ds, 2, seed=1)
    assert m.objective < 1e-15
    assert sorted(m.centers[:, 0].tolist()) == [0.0, 2.0]


def test_objective_matches_empirical_error():
    ds = sample_sphere(d=2, D=3, n=300, seed=4)
    m = km.fit(ds, 6, seed=4)
    assert abs(m.objective - km.empirical_error(ds, m)) < 1e-12
    assert abs(m.objective - km.empirical_error(ds, m.centers)) < 1e-12


def test_k_equals_n_gives_zero_objective():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(7, 2)))
    m = km.fit(ds, 7, seed=2)
    assert m.objective < 1e-15


def test_deterministic_given_seed():
    ds = sample_sphere(d=2, D=3, n=200, seed=9)
    a = km.fit(ds, 5, seed=33)
    b = km.fit(ds, 5, seed=33)
    assert np.array_equal(a.centers, b.centers)
    assert a.objective == b.objective and a.iterations == b.iterations


def test_assignment_tie_breaks_to_lowest_index():
    # the point at the origin is equidistant from both centers
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    d2, assign = km.min_sqdist(np.array([[0.0, 0.0]]), centers)
    assert assign[0] == 0 and abs(d2[0] - 1.0) < 1e-15


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_empty_cell_reseeded_at_farthest_point(family):
    # three points on the x-axis and an outlier above them; the second
    # member starts far from every point, so its cell is empty on the first
    # pass. The donor must be the outlier, the point farthest from its
    # member, which then keeps a cell of its own.
    X = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    if family == "kmeans":
        start = (np.array([[0.0, 0.0], [100.0, 0.0]]), km.min_sqdist,
                 km._cell_means)
        want = 0.5
    else:
        far = kf.Flat(offset=np.array([100.0, 0.0]),
                      basis=np.array([[0.0], [1.0]]),
                      degenerate=np.zeros(1, dtype=bool))
        start = ([kf.refit_cell(X[:3], 1), far], kf._nearest_flat,
                 partial(kf._refit_cells, d=1))
        want = 0.0
    model, trace = km._descend(X, *start, km.FitConfig())
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    obj = trace[-1]
    assert trace[0] == obj
    assert any(np.array_equal(getattr(m, "offset", m), X[3]) for m in model)
    assert abs(obj - want) < 1e-12


def test_fits_frozen_bits():
    # objective bits and pass counts of the best restart, so that a change
    # which moves any bit of a fit fails here, not only in the benchmark
    # fingerprints (recorded with numpy 2.4 and OpenBLAS 0.3.31; another
    # LAPACK may round the k-flats SVDs differently)
    circle = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)
    fits = [
        km.fit(sample_sphere(d=2, D=3, n=300, seed=4), 6, seed=4),
        km.fit(sample_sphere(d=19, D=20, n=400, seed=3), 12, seed=3),
        kf.fit(circle.sample(300, 5), 3, 1, seed=5),
        kf.fit(sample_sphere(d=2, D=3, n=200, seed=7), 5, 1, seed=7),
        kf.fit(sample_sphere(d=2, D=3, n=200, seed=8), 5, 2, seed=8),
    ]
    assert [(m.objective.hex(), m.iterations) for m in fits] == [
        ("0x1.1572f6a7ebbd5p-2", 10),
        ("0x1.89549c3a5a6d6p-1", 24),
        ("0x1.51a68ddcb46a6p-6", 7),
        ("0x1.88c11311bc094p-4", 9),
        ("0x1.a24da1c9db554p-7", 5),
    ]


def test_best_of_restarts_reads_the_traces():
    # restarts 1 and 2 tie on the least final objective: the first wins,
    # its passes are len(trace) - 1, and the rise 2.0 -> 2.5 of restart 0
    # is the one descent violation
    traces = iter([[3.0, 2.0, 2.5, 2.0], [3.0, 1.0, 1.0], [2.0, 1.0]])
    sink = []
    model, obj, iters, viol = km._best_of_restarts(
        lambda s: s, lambda m: (m, next(traces)), km.FitConfig(restarts=3),
        7, sink)
    assert (model, obj, iters, viol) == (mix_seed(7, 1), 1.0, 2, 1)
    assert sink == [[3.0, 2.0, 2.5, 2.0], [3.0, 1.0, 1.0], [2.0, 1.0]]


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_fit_counts_match_the_traces(family):
    ds = sample_sphere(d=2, D=3, n=300, seed=12)
    cfg = km.FitConfig(restarts=6, max_iters=4)
    traces = []
    if family == "kmeans":
        m = km.fit(ds, 7, cfg, seed=12, trace_sink=traces)
    else:
        m = kf.fit(ds, 5, 1, cfg, seed=12, trace_sink=traces)
    best = min(traces, key=lambda t: t[-1])
    assert len(traces) == 6
    assert m.objective == best[-1]
    assert m.iterations == len(best) - 1
    assert m.descent_violations == sum(
        b > a + 1e-12 for t in traces for a, b in zip(t, t[1:]))


def test_descent_trace_non_increasing():
    ds = sample_sphere(d=2, D=3, n=400, seed=6)
    traces = []
    m = km.fit(ds, 8, seed=6, trace_sink=traces)
    assert len(traces) == 20
    assert m.descent_violations == 0
    for tr in traces:
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))


def test_kmeanspp_seeding_properties():
    ds = sample_sphere(d=2, D=3, n=50, seed=1)
    C = km.seed_kmeanspp(ds, 5, seed=3)
    assert C.shape == (5, 3)
    # every seed is a training row, and no row is picked twice
    rows = {tuple(x) for x in ds.points}
    picked = [tuple(c) for c in C]
    assert set(picked) <= rows and len(set(picked)) == 5


def test_kmeanspp_all_duplicate_rows():
    ds = Dataset(np.zeros((6, 2)))
    C = km.seed_kmeanspp(ds, 3, seed=0)
    assert np.all(C == 0.0)
    m = km.fit(ds, 3, seed=0)
    assert m.objective == 0.0


def test_kmeanspp_prefers_far_points():
    # one far outlier: the second seed should be (0.9, 0) almost surely
    X = np.vstack([np.zeros((30, 2)), [[0.9, 0.0]]])
    hits = sum(
        np.any(km.seed_kmeanspp(Dataset(X), 2, seed=s)[:, 0] > 0.5)
        for s in range(50))
    assert hits >= 45


def test_center_of_mass_residual_is_zero_at_fixed_point():
    ds = sample_sphere(d=2, D=3, n=250, seed=8)
    m = km.fit(ds, 4, seed=8)
    assert km.center_of_mass_residual(ds, m) < 1e-9


def test_json_round_trip():
    ds = sample_sphere(d=1, D=2, n=60, seed=5)
    m = km.fit(ds, 3, seed=5)
    obj = json.loads(json.dumps(m.to_json_dict()))
    assert obj["k"] == 3 and obj["ambient_dim"] == 2
    back = km.MeansModel.from_json_dict(obj)
    assert np.array_equal(back.centers, m.centers)
    assert back.objective == m.objective
    assert back.iterations == m.iterations and back.seed == m.seed


def test_validation_errors():
    ds = Dataset(np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        km.fit(ds, 0)
    with pytest.raises(ParameterError):
        km.fit(ds, 4)
    with pytest.raises(ParameterError):
        km.FitConfig(max_iters=0)
    with pytest.raises(ParameterError):
        km.FitConfig(rel_tol=-1.0)
    with pytest.raises(ParameterError):
        km.MeansModel(centers=np.zeros((2, 2)), k=3, objective=0.0,
                      iterations=1, seed=0)
    with pytest.raises(ParameterError):
        km.empirical_error(ds, np.zeros((2, 5)))


@settings(max_examples=40, deadline=None)
@given(finite_clouds, st.integers(1, 4), st.integers(0, 2 ** 32))
def test_fit_properties(X, k, seed):
    ds = Dataset(X)
    k = min(k, ds.size)
    m = km.fit(ds, k, km.FitConfig(restarts=3), seed=seed)
    assert m.objective >= 0.0
    assert m.descent_violations == 0
    # never worse than the best single-center model (the grand mean)
    mean_obj = km.empirical_error(ds, ds.points.mean(axis=0, keepdims=True))
    assert m.objective <= mean_obj + 1e-9
    assert km.center_of_mass_residual(ds, m) < 1e-8


@settings(max_examples=40, deadline=None)
@given(finite_clouds, st.integers(1, 3), st.integers(0, 2 ** 32))
def test_error_invariant_under_translation(X, k, seed):
    ds = Dataset(X)
    C = km.seed_kmeanspp(ds, min(k, ds.size), seed=seed)
    t = np.arange(1.0, X.shape[1] + 1.0)
    a = km.empirical_error(ds, C)
    b = km.empirical_error(Dataset(X + t), C + t)
    assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-7)
