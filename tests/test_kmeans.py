"""Lloyd's algorithm, k-means++ seeding, the alternation engine shared with
k-flats, and the fit certificates."""

import json
import math
import os
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    model, trace = km._descend(X if family == "kmeans" else X.T, *start, km.FitConfig())
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
        # the shape of the rates-circle k-flats fits: D = 2, where the
        # feature-major distances keep the row-major kernel's bits
        kf.fit(circle.sample(10_000, 6), 3, 1, km.FitConfig(restarts=2, max_iters=10),
               seed=6),
    ]
    assert [(m.objective.hex(), m.iterations) for m in fits] == [
        ("0x1.1572f6a7ebbd5p-2", 10),
        ("0x1.89549c3a5a6d6p-1", 24),
        ("0x1.51a68ddcb46a6p-6", 7),
        ("0x1.88c11311bc094p-4", 9),
        ("0x1.a24da1c9db556p-7", 5),
        ("0x1.743b75c6db7dbp-6", 9),
    ]


def test_best_of_restarts_reads_the_traces():
    # restarts 1 and 2 tie on the least final objective: the first wins,
    # its passes are len(trace) - 1, and the rise 2.0 -> 2.5 of restart 0
    # is the one descent violation
    traces = iter([[3.0, 2.0, 2.5, 2.0], [3.0, 1.0, 1.0], [2.0, 1.0]])
    sink = []
    model, obj, iters, viol = km._best_of_restarts(
        lambda s: s, lambda m: (m, next(traces)), km.FitConfig(restarts=3),
        7, sink, 0)
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


def _choice_seeder(X, k, seed):
    """k-means++ drawing each centre by rng.choice(n, p=d2 / total); returns
    the centres and the generator's next rng.random()."""
    rng = np.random.default_rng(seed)
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    diff = X - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = d2.sum()
        i = rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)
        centers[j] = X[i]
        diff = X - centers[j]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centers, rng.random()


def _seed_and_next_draw(ds, k, seed):
    """seed_kmeanspp's centres and its generator's next rng.random()."""
    rng = np.random.default_rng(seed)
    with mock.patch.object(np.random, "default_rng", return_value=rng) as made:
        centers = km.seed_kmeanspp(ds, k, seed)
    made.assert_called_once_with(seed)
    return centers, rng.random()


@st.composite
def seeding_clouds(draw):
    """Small clouds with repeated rows (all rows alike included), scaled
    towards both ends of float64 within Dataset's overflow guard and
    shifted far from the origin, with k from 1 to n."""
    distinct = draw(arrays(
        np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
        elements=st.floats(-10, 10, allow_nan=False, width=64)))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    X = distinct[rows] * draw(st.sampled_from([1.0, 1e-150, 1e150]))
    X = X + draw(st.sampled_from([0.0, 1e6, -1e6]))
    return X, draw(st.integers(1, len(X)))


@settings(max_examples=300, deadline=None)
@given(seeding_clouds(), st.integers(0, 2 ** 64 - 1))
@example((np.zeros((5, 2)), 3), 0)
@example((np.array([[0.0], [1e-150], [2e-150]]), 3), 7)
def test_seeding_draws_as_generator_choice(cloud, seed):
    X, k = cloud
    got, after = _seed_and_next_draw(Dataset(X), k, seed)
    want, want_after = _choice_seeder(Dataset(X).points, k, seed)
    assert got.tobytes() == want.tobytes()
    assert after == want_after


class _ScriptedGenerator(np.random.Generator):
    """A Generator whose integers() is 0 and whose random() is always `u`,
    so that every draw lands where the test puts it."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def integers(self, *args, **kwargs):
        return 0

    def random(self, *args, **kwargs):
        return self.u


@pytest.mark.parametrize("X", [
    # masses 0, 0, 1/4, 1/4, 1/4, 1/4 about the first row: every u below
    # is a cumulative boundary, next to zero-mass rows
    np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    # masses 0 and ten times 1/10, whose running sum ends at 1 - 2^-53
    np.vstack([np.zeros((1, 10)), np.eye(10)]),
])
@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
def test_seeding_draws_on_mass_boundaries_as_generator_choice(X, u):
    with mock.patch.object(np.random, "default_rng", return_value=_ScriptedGenerator(u)):
        got = km.seed_kmeanspp(Dataset(X), 3, 0)
        want, _ = _choice_seeder(X, 3, 0)
    assert got.tobytes() == want.tobytes()


def test_center_of_mass_residual_is_zero_at_fixed_point():
    ds = sample_sphere(d=2, D=3, n=250, seed=8)
    m = km.fit(ds, 4, seed=8)
    assert km.center_of_mass_residual(ds, m) < 1e-9


def test_update_live_keeps_the_members_of_empty_cells():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [7.0, 5.0]])
    members = np.full((4, 2), -1.0)
    seen = []

    def update(X, assign, counts):
        seen.append((assign.tolist(), counts.tolist()))
        return km._cell_means(X, assign, counts)

    # cells 1 and 3 are empty: the update sees cells 0 and 2 as 0 and 1
    got = km._update_live(X, np.array([0, 0, 2, 2]), update, members)
    assert np.array_equal(got, [[1.0, 0.0], [-1.0, -1.0], [6.0, 5.0], [-1.0, -1.0]])
    assert seen == [([0, 0, 1, 1], [2, 2])]
    got = km._update_live(X, np.array([1, 1, 0, 0]), update, members[:2])
    assert np.array_equal(got, [[6.0, 5.0], [1.0, 0.0]])
    assert seen[1] == ([1, 1, 0, 0], [2, 2])
    # a center whose cell is empty counts 0 in the certificate
    m = km.MeansModel(centers=[[1.0, 0.0], [9.0, 9.0], [6.0, 5.0]], k=3,
                      objective=1.0, iterations=1, seed=0)
    assert km.center_of_mass_residual(Dataset(X), m) == 0.0


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


@pytest.mark.parametrize("objective", [math.nan, math.inf, -1.0])
def test_model_rejects_an_objective_that_is_not_a_finite_error(objective):
    with pytest.raises(ParameterError, match="^objective must be finite and >= 0$"):
        km.MeansModel(centers=np.zeros((1, 2)), k=1, objective=objective,
                      iterations=1, seed=0)


def test_model_file_with_too_few_centre_coordinates_names_the_field():
    obj = {"k": 2, "ambient_dim": 3, "centers": [0.0] * 5, "objective": 0.0,
           "iterations": 1, "seed": 0}
    with pytest.raises(ParameterError, match="^centers must hold 6 numbers: "):
        km.MeansModel.from_json_dict(obj)


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


def _fit_family(family, data, k, cfg, seed, trace_sink=None):
    if family == "kmeans":
        return km.fit(data, k, cfg, seed=seed, trace_sink=trace_sink)
    return kf.fit(data, k, 2, cfg, seed=seed, trace_sink=trace_sink)


def _counting_forks(monkeypatch):
    """A list that grows by one at each of this process's calls to os.fork."""
    forks, fork = [], os.fork

    def counting():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_forked_restarts_match_serial_bits(monkeypatch, family):
    # n k restarts = 2000 * 10 * 5 reaches FORK_MIN_WORK: at one CPU the
    # restarts run here, at two in two forked workers, with the same bits
    ds = sample_sphere(d=2, D=3, n=2000, seed=21)
    cfg = km.FitConfig(restarts=5, max_iters=20)
    assert ds.size * 10 * cfg.restarts >= km.FORK_MIN_WORK
    fits, forks = [], _counting_forks(monkeypatch)
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        traces = []
        fits.append((_fit_family(family, ds, 10, cfg, 21, traces), traces))
        assert len(forks) == (0 if cpus == 1 else 2)
    (serial, serial_traces), (forked, forked_traces) = fits
    if family == "kmeans":
        arrays_of = lambda m: [m.centers]
    else:
        arrays_of = lambda m: [a for f in m.flats for a in (f.offset, f.basis, f.degenerate)]
    for a, b in zip(arrays_of(serial), arrays_of(forked), strict=True):
        assert np.array_equal(a, b) and a.dtype == b.dtype
        assert not b.flags.writeable
    assert forked.objective.hex() == serial.objective.hex()
    assert (forked.iterations, forked.descent_violations) == \
        (serial.iterations, serial.descent_violations)
    assert forked_traces == serial_traces and len(serial_traces) == cfg.restarts


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_fit_below_the_fork_threshold_never_forks(monkeypatch, family):
    ds = sample_sphere(d=2, D=3, n=1000, seed=22)
    cfg = km.FitConfig(restarts=9, max_iters=5)
    assert ds.size * 10 * cfg.restarts < km.FORK_MIN_WORK
    forks = _counting_forks(monkeypatch)
    _pin_cpus(monkeypatch, 2)
    _fit_family(family, ds, 10, cfg, 22)
    assert forks == []


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_k_above_n_fails_before_any_restart(monkeypatch, family):
    # 400 * 500 * 20 restarts would fork; the bad k is caught first
    forks = _counting_forks(monkeypatch)
    _pin_cpus(monkeypatch, 2)
    with pytest.raises(ParameterError, match=r"^need 1 <= k <= n, got k=500, n=400$"):
        _fit_family(family, sample_sphere(d=2, D=3, n=400, seed=23), 500,
                    km.FitConfig(restarts=20), 23)
    assert forks == []


@pytest.mark.parametrize("family", ["kmeans", "kflats"])
def test_forked_restart_error_comes_back_with_its_type_and_message(monkeypatch, family):
    seeding = km.seed_kmeanspp

    def fails_at_restart_3(data, k, seed):
        if seed == mix_seed(24, 3):
            raise ArithmeticError(f"restart seed {seed} failed")
        return seeding(data, k, seed)

    monkeypatch.setattr(km, "seed_kmeanspp", fails_at_restart_3)
    monkeypatch.setattr(kf, "seed_kmeanspp", fails_at_restart_3)
    ds = sample_sphere(d=2, D=3, n=2000, seed=24)
    errors, forks = [], _counting_forks(monkeypatch)
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        with pytest.raises(ArithmeticError) as err:
            _fit_family(family, ds, 10, km.FitConfig(restarts=5, max_iters=3), 24)
        assert len(forks) == (0 if cpus == 1 else 2)
        errors.append(err.value)
    serial, forked = errors
    assert type(forked) is type(serial) is ArithmeticError
    assert str(forked) == str(serial) == f"restart seed {mix_seed(24, 3)} failed"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
