"""Each check passes on correct outputs and fails on a planted error."""

import math

import numpy as np
import pytest

import checks
import layers
from manifold_recon import kflats, kmeans, oracle
from manifold_recon.geometry import Dataset, ManifoldSpec

CIRCLE = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)


def test_descent_and_traces():
    assert checks.no_descent_violations(0).ok
    assert not checks.no_descent_violations(1).ok
    assert checks.traces_non_increasing([[1.0, 0.5, 0.5 + 1e-13]]).ok
    assert not checks.traces_non_increasing([[1.0, 0.5, 0.5 + 1e-9]]).ok


def test_repeatable_and_exit_codes():
    assert checks.repeatable(["a", "a"]).ok
    assert not checks.repeatable(["a", "b"]).ok
    assert checks.counts_repeat([{"x.calls": 3}, {"x.calls": 3}]).ok
    assert not checks.counts_repeat([{"x.calls": 3}, {"x.calls": 4}]).ok
    assert checks.cli_exit_codes([0, 0, 0]).ok
    assert not checks.cli_exit_codes([0, 4, 0]).ok


def test_curve_non_increasing():
    curve = [(2, 0.9), (3, 0.8), (4, 0.804)]
    assert checks.curve_non_increasing(curve).ok
    assert not checks.curve_non_increasing(curve + [(5, 0.81)]).ok


def _fitted():
    data = ManifoldSpec("sphere", 19, 20).sample(300, seed=5)
    return data, kmeans.fit(data, 4, kmeans.FitConfig(restarts=2), seed=5)


def test_refit_and_centroids():
    data, model = _fitted()
    obj = model.objective
    assert checks.refit_objective(4, obj, obj).ok
    assert not checks.refit_objective(4, obj, math.nextafter(obj, 2.0)).ok
    assert checks.centres_are_cell_means(4, data.points, model.centers).ok
    moved = model.centers.copy()
    moved[1, 0] += 1e-9
    assert not checks.centres_are_cell_means(4, data.points, moved).ok


def test_holdout_recomputation():
    data, model = _fitted()
    holdout = ManifoldSpec("sphere", 19, 20).sample(2000, seed=6)
    d2, _ = checks.kmeans_sqdist(holdout.points, model.centers)
    ref = checks.mean_exact(d2)
    reported = kmeans.empirical_error(holdout, model)
    assert checks.holdout_matches("h", reported, ref).ok
    assert not checks.holdout_matches("h", reported * (1 + 1e-9), ref).ok


def test_kflats_holdout_and_bases():
    data = ManifoldSpec("sphere", 2, 3).sample(300, seed=1)
    model = kflats.fit(data, 4, 2, kmeans.FitConfig(restarts=2), seed=1)
    holdout = ManifoldSpec("sphere", 2, 3).sample(2000, seed=2)
    flats = [(f.offset, f.basis) for f in model.flats]
    ref = checks.mean_exact(checks.kflats_sqdist(holdout.points, flats))
    reported = kflats.empirical_error(holdout, model)
    assert checks.holdout_matches("h", reported, ref).ok
    assert not checks.holdout_matches("h", reported * (1 - 1e-9), ref).ok
    bases = [(f.basis, f.degenerate) for f in model.flats]
    assert checks.bases_orthonormal(bases).ok
    bases[0] = (bases[0][0] * (1 + 1e-9), bases[0][1])
    assert not checks.bases_orthonormal(bases).ok


def _regular_rows(scale, m=100_000, seed=0):
    """Rows for the regular k-means (k=3) and k-flats (k=3) configurations
    scored on a hold-out drawn from the circle of radius ``scale``."""
    H = CIRCLE.sample(m, seed=seed).points * scale
    k = 3
    s = math.sin(math.pi / k) / (math.pi / k)
    ang = 2 * math.pi * np.arange(k) / k
    centres = s * np.column_stack([np.cos(ang), np.sin(ang)])
    km = checks.mean_exact(checks.kmeans_sqdist(H, centres)[0])
    flats = [(c, np.array([[-math.sin(a)], [math.cos(a)]]))
             for c, a in zip(centres, ang)]
    kf = checks.mean_exact(checks.kflats_sqdist(H, flats))
    return ([{"n": 100_000, "k": k, "empirical": km, "holdout": km}],
            [{"n": 100_000, "k": k, "empirical": kf, "holdout": kf}])


def test_circle_closed_forms_pass_on_the_regular_configuration():
    km, kf = _regular_rows(1.0)
    assert checks.circle_largest_n(km, kf, 100_000).ok
    assert checks.circle_not_below_optimum(km, 100_000).ok


def test_circle_scaled_holdout_fails_the_closed_form_check():
    km, kf = _regular_rows(1.01)
    assert not checks.circle_largest_n(km, kf, 100_000).ok


def test_circle_lower_bound():
    opt, var = checks.circle_kmeans_reference(3)
    se = math.sqrt(var / 100_000)
    row = {"n": 1000, "k": 3, "empirical": opt, "holdout": opt - 4 * se}
    assert checks.circle_not_below_optimum([row], 100_000).ok
    row["holdout"] = opt - 6 * se
    assert not checks.circle_not_below_optimum([row], 100_000).ok
    # k = 1: the centre is the train mean c with |c|^2 = 1 - empirical
    c2 = 1e-4
    se1 = math.sqrt(2 * c2 / 100_000)
    row = {"n": 100, "k": 1, "empirical": 1 - c2, "holdout": 1 - 4 * se1}
    assert checks.circle_not_below_optimum([row], 100_000).ok
    row["holdout"] = 1 - 6 * se1
    assert not checks.circle_not_below_optimum([row], 100_000).ok


def test_circle_references_match_quadrature():
    phi = (np.arange(1_000_000) + 0.5) / 500_000 - 1.0   # midpoint rule
    for k in (2, 3, 5):
        a = math.pi / k
        c = np.cos(phi * a)
        s = math.sin(a) / a
        for ref, d2 in ((checks.circle_kmeans_reference, 1 + s * s - 2 * s * c),
                        (checks.circle_kflats_reference, (c - s) ** 2)):
            mean, var = ref(k)
            assert abs(mean - d2.mean()) < 1e-10
            assert abs(var - d2.var()) < 1e-10


def test_slopes_disk_and_superiority():
    assert checks.slopes(-0.17, -0.25).ok
    assert not checks.slopes(-0.25, -0.25).ok
    assert checks.kflats_beats_kmeans(0.001, 0.1).ok
    assert not checks.kflats_beats_kmeans(0.1, 0.001).ok
    assert checks.flat_disk_exact(1e-17).ok
    assert not checks.flat_disk_exact(1e-11).ok


def test_json_round_trip():
    _, model = _fitted()
    obj = model.to_json_dict()
    assert checks.json_round_trip("kmeans", obj, kmeans.MeansModel).ok
    obj["k"] = str(obj["k"])
    assert not checks.json_round_trip("kmeans", obj, kmeans.MeansModel).ok


def _tiny(seed, n, D):
    return Dataset(np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, D)))


def test_oracle_checks():
    ds = _tiny(1, 7, 2)
    opt, _ = oracle.global_kmeans(ds, 3)
    fit = kmeans.fit(ds, 3, seed=1).objective
    assert checks.not_below_optimum([(fit, opt)]).ok
    assert not checks.not_below_optimum([(opt - 2e-9, opt)]).ok
    assert checks.optimum_confirmed([(ds.points, 3, 0, opt)]).ok
    assert not checks.optimum_confirmed([(ds.points, 3, 0, opt + 1e-9)]).ok
    dsf = _tiny(2, 7, 3)
    optf, _ = oracle.global_kflats(dsf, 2, 1)
    assert checks.optimum_confirmed([(dsf.points, 2, 1, optf)]).ok
    assert not checks.optimum_confirmed([(dsf.points, 2, 1, optf * (1 + 1e-6))]).ok


def test_hit_rate():
    hit, miss = (0.5, 0.5), (0.6, 0.5)
    assert checks.optimum_hit_rate([hit] * 19 + [miss]).ok
    assert not checks.optimum_hit_rate([hit] * 18 + [miss] * 2).ok


def test_self_time_splits_overlapping_threads():
    # root on the main thread [0, 10]; pool threads A [1, 5] and B [3, 7]
    spans = [(1, "root", 0.0, 10.0, 0, 1, ()),
             (2, "a", 1.0, 5.0, 1, 2, ()),
             (3, "b", 3.0, 7.0, 1, 3, ()),
             (4, "a.child", 1.5, 2.0, 2, 2, ())]
    got = layers.attribute_self_time(spans)
    assert got == pytest.approx({1: 4.0, 2: 2.5, 3: 3.0, 4: 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_restores_every_attribute():
    before = [(o, a, getattr(o, a))
              for _, targets, _ in layers.LAYERS.values() for o, a in targets]
    tracer = layers.Tracer()
    tracer.install()
    try:
        kmeans.fit(_tiny(3, 8, 2), 2, kmeans.FitConfig(max_iters=1, restarts=2))
        values = tracer.take_pass(1.0)
    finally:
        tracer.uninstall()
    assert values["kmeans.fit.calls"] == 1
    assert values["kmeans.fit.passes"] == 2
    assert values["kmeans.fit.capped_restarts"] == 2
    assert values["kmeans.seed_kmeanspp.calls"] == 2
    assert all(getattr(o, a) is fn for o, a, fn in before)


def test_capped_restarts_excludes_convergence_on_the_last_pass():
    data = _tiny(4, 40, 2)
    sink = []
    kmeans.fit(data, 3, kmeans.FitConfig(restarts=1), seed=4, trace_sink=sink)
    passes = len(sink[0]) - 1
    assert passes >= 3
    cfg = kmeans.FitConfig(restarts=1)
    assert not layers.capped(sink[0], passes, cfg.rel_tol)
    short = []
    kmeans.fit(data, 3, kmeans.FitConfig(max_iters=passes - 1, restarts=1),
               seed=4, trace_sink=short)
    assert layers.capped(short[0], passes - 1, cfg.rel_tol)
