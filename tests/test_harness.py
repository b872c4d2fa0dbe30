"""Experiment runner: grids, reports, model selection, and rate fits."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_recon import harness, kmeans
from manifold_recon.errors import ParameterError
from manifold_recon.geometry import ManifoldSpec, sample_sphere
from manifold_recon.util import mix_seed

CIRCLE = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)
SPHERE2 = ManifoldSpec(kind="sphere", intrinsic_dim=2, ambient_dim=3)


def small_spec(**over):
    base = dict(manifold=CIRCLE, train_sizes=[40], k_grid=[1, 2, 3],
                holdout_size=1000, repeats=2, base_seed=5,
                fit_config=kmeans.FitConfig(restarts=3))
    base.update(over)
    return harness.ExperimentSpec(**base)


def test_mix_seed_frozen_and_order_sensitive():
    # frozen SplitMix64 chain values; any change silently breaks every
    # recorded experiment, so they are pinned
    assert mix_seed(0) == 15590649930234121703
    assert mix_seed(1) == 13485181245526511831
    assert mix_seed(0, 1) == 7430010552196289380
    assert mix_seed(1, 0) == 6173411103188844481
    assert mix_seed(3, 4) != mix_seed(4, 3)
    assert 0 <= mix_seed(12345, 678) < 2 ** 64


def test_example1_frozen_value():
    e1, e2 = harness.example1(7, holdout_size=2000)
    assert e1 == pytest.approx(1.4553039238250938, abs=0, rel=0)
    assert e2 == pytest.approx(1.8808970821965407, abs=0, rel=0)
    assert e1 < e2


def test_example1_midpoint_beats_pair_consistently():
    for s in range(5):
        e1, e2 = harness.example1(s, holdout_size=5000)
        assert e1 < e2


def test_tradeoff_report_structure():
    spec = small_spec()
    rep = harness.tradeoff_experiment(spec)
    assert len(rep.rows) == 3 * 2
    assert rep.descent_violations == 0
    assert {r["k"] for r in rep.rows} == {1, 2, 3}
    for r in rep.rows:
        assert r["empirical"] >= 0.0 and r["holdout"] >= 0.0
        assert "descent_violations" not in r
    assert len(rep.bound_rows) == 3
    for b in rep.bound_rows:
        assert abs(b.total - (2.0 * b.statistical + b.approximation)) < 1e-12
        assert b.inputs.n == 40

    files = rep.files()
    assert sorted(files) == ["curves.tsv", "report.csv", "summary.json"]
    text = files["report.csv"]
    # every row, the header too, ends in CRLF, the CSV row end of RFC 4180
    assert text.count("\n") == text.count("\r\n") == 1 + len(rep.rows)
    assert text.endswith("\r\n")
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["n", "k", "repeat", "empirical", "holdout", "seconds"]
    assert len(rows) == 1 + len(rep.rows)
    # repr round-trips doubles exactly
    assert float(rows[1][3]) == rep.rows[0]["empirical"]

    loaded = json.loads(json.dumps(files["summary.json"]))
    assert loaded["descent_violations"] == 0
    assert len(loaded["rows"]) == len(rep.rows)

    lines = files["curves.tsv"].splitlines()
    assert [line.split("\t")[:2] for line in lines] == [["40", "1"], ["40", "2"], ["40", "3"]]


def test_tradeoff_deterministic_and_thread_invariant():
    a = harness.tradeoff_experiment(small_spec(threads=1))
    b = harness.tradeoff_experiment(small_spec(threads=4))
    for ra, rb in zip(a.rows, b.rows):
        assert ra["empirical"] == rb["empirical"]
        assert ra["holdout"] == rb["holdout"]


def test_tradeoff_error_curve_decreases_with_n():
    small = harness.tradeoff_experiment(small_spec(train_sizes=[20], k_grid=[4]))
    big = harness.tradeoff_experiment(small_spec(train_sizes=[500], k_grid=[4]))
    assert dict(big.curve(500))[4] < dict(small.curve(20))[4]


def test_auto_grid_uses_balanced_schedule():
    from manifold_recon import bounds
    spec = small_spec(k_grid="auto", train_sizes=[10_000])
    expect = max(1, round(bounds.kn_kmeans(
        10_000, 1, CIRCLE.effective_density_norm())))
    assert harness._resolve_k_grid(spec, 10_000) == [expect]
    spec_f = small_spec(k_grid="auto", train_sizes=[10_000],
                        algorithm="kflats", flat_dim=1)
    expect_f = max(1, round(bounds.kn_kflats(
        10_000, 1, CIRCLE.effective_curvature())))
    assert harness._resolve_k_grid(spec_f, 10_000) == [expect_f]


def test_seed_only_algorithm_is_worse_than_lloyd():
    lloyd = harness.tradeoff_experiment(small_spec(train_sizes=[200], k_grid=[4]))
    seed_only = harness.tradeoff_experiment(
        small_spec(train_sizes=[200], k_grid=[4], algorithm="kmeanspp-seed"))
    assert (dict(lloyd.curve(200))[4] <= dict(seed_only.curve(200))[4] + 1e-12)


def test_seed_only_frozen_bits():
    # the seeding-only path bit for bit: per cell, the best of 3 scored
    # k-means++ starts, with no descent
    rep = harness.tradeoff_experiment(small_spec(
        manifold=SPHERE2, train_sizes=[60], k_grid=[1, 4],
        algorithm="kmeanspp-seed"))
    assert [(r["k"], r["empirical"].hex(), r["holdout"].hex())
            for r in rep.rows] == [
        (1, "0x1.aac64695f0ff3p+0", "0x1.00c7c189abab9p+1"),
        (1, "0x1.c1b49897b7ac7p+0", "0x1.0bf104eaf91afp+1"),
        (4, "0x1.124f9d0d46000p-1", "0x1.47c60df561512p-1"),
        (4, "0x1.e789ec6d6f47bp-2", "0x1.28157f35cbeb8p-1"),
    ]
    assert rep.descent_violations == 0


def test_kflats_algorithm_runs_and_wins_on_circle():
    km_rep = harness.tradeoff_experiment(small_spec(train_sizes=[300], k_grid=[3]))
    kf_rep = harness.tradeoff_experiment(
        small_spec(train_sizes=[300], k_grid=[3], algorithm="kflats", flat_dim=1))
    assert dict(kf_rep.curve(300))[3] < dict(km_rep.curve(300))[3]


def test_select_k_matches_measured_curve():
    spec = small_spec(manifold=SPHERE2, train_sizes=[30], k_grid=[1, 4, 12],
                      repeats=3, holdout_size=2000)
    k, report = harness.select_k(spec)
    rep = harness.tradeoff_experiment(spec)
    assert k == harness.argmin_k(dict(rep.curve(30)))
    assert report.curve(30) == rep.curve(30)
    assert len(report.bound_rows) == 3


def test_explicit_grid_runs_each_k_once():
    rep = harness.tradeoff_experiment(small_spec(k_grid=[1, 1, 2]))
    assert [(r["k"], r["repeat"]) for r in rep.rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
    assert [b.inputs.k for b in rep.bound_rows] == [1, 2]


def test_repeated_training_size_runs_once():
    rep = harness.tradeoff_experiment(
        small_spec(train_sizes=[40, 40], k_grid=[1, 2], repeats=1))
    assert [(r["n"], r["k"]) for r in rep.rows] == [(40, 1), (40, 2)]
    assert [(b.inputs.n, b.inputs.k) for b in rep.bound_rows] == [(40, 1), (40, 2)]


def test_argmin_k_tie_breaks_to_smallest():
    assert harness.argmin_k({3: 0.5, 1: 0.5, 2: 0.7}) == 1
    assert harness.argmin_k({5: 0.1}) == 5
    with pytest.raises(ParameterError):
        harness.argmin_k({})


def test_fit_loglog_recovers_exact_power_law():
    ns = [100.0, 1000.0, 10_000.0, 100_000.0]
    errors = [5.0 * n ** (-1.0 / 3.0) for n in ns]
    fit = harness.fit_loglog(ns, errors)
    assert abs(fit.slope + 1.0 / 3.0) < 1e-12
    assert abs(fit.intercept - math.log(5.0)) < 1e-12
    assert fit.residual < 1e-24
    assert not fit.degenerate


def test_fit_loglog_flags_degenerate_and_validates():
    fit = harness.fit_loglog([10, 100, 1000], [2.0, 2.0, 2.0])
    assert fit.degenerate and abs(fit.slope) < 1e-12
    with pytest.raises(ParameterError):
        harness.fit_loglog([10.0], [1.0])
    with pytest.raises(ParameterError):
        harness.fit_loglog([10, 100], [1.0, 0.0])


def test_rate_experiment_validation():
    with pytest.raises(ParameterError):
        harness.rate_experiment(small_spec(train_sizes=[100, 200, 400]))
    with pytest.raises(ParameterError):
        harness.rate_experiment(
            small_spec(train_sizes=[100, 200, 400, 800]))  # < 2 decades
    with pytest.raises(ParameterError):
        harness.rate_experiment(small_spec(train_sizes=[100, 1000, 5000, 10001]),
                                schedule="median")
    with pytest.raises(ParameterError, match="distinct"):
        harness.rate_experiment(  # 3 distinct sizes
            small_spec(train_sizes=[100, 100, 1000, 10_000]))


def test_rate_experiment_small_run():
    spec = small_spec(train_sizes=[50, 200, 1000, 5000], k_grid="auto",
                      repeats=1, threads=2)
    rep = harness.rate_experiment(spec)
    assert rep.rate_fit is not None
    assert rep.rate_fit.slope < 0.0
    assert len(rep.rows) == 4
    assert rep.descent_violations == 0
    assert [b.inputs.n for b in rep.bound_rows] == [50, 200, 1000, 5000]
    assert [b.inputs.k for b in rep.bound_rows] == [r["k"] for r in rep.rows]


def without_seconds(rows):
    return [{key: v for key, v in r.items() if key != "seconds"} for r in rows]


@pytest.mark.parametrize("schedule", ["kmeans", "kflats", "kmeanspp-seed"])
def test_rate_experiment_is_the_auto_grid(schedule):
    # rate sizes are sorted, and the schedule picks the algorithm
    sizes = [50, 200, 1000, 5000]
    spec = small_spec(train_sizes=sizes[::-1], k_grid=[2], repeats=2)
    rep = harness.rate_experiment(spec, schedule=schedule)
    auto = harness.tradeoff_experiment(replace(
        spec, k_grid="auto", train_sizes=sizes, algorithm=schedule))
    assert without_seconds(rep.rows) == without_seconds(auto.rows)
    assert rep.bound_rows == auto.bound_rows
    assert rep.rate_fit == harness.fit_loglog(
        sizes, [auto.curve(n)[0][1] for n in sizes])


def test_rates_and_select_k_honour_threads(monkeypatch):
    pools = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)

    spec = small_spec(train_sizes=[50, 200, 1000, 5000], k_grid="auto", repeats=2)
    serial = harness.rate_experiment(spec)
    assert pools == []
    threaded = harness.rate_experiment(replace(spec, threads=2))
    assert pools == [2]
    assert without_seconds(threaded.rows) == without_seconds(serial.rows)
    assert threaded.rate_fit == serial.rate_fit

    spec = small_spec(manifold=SPHERE2, train_sizes=[30], k_grid=[1, 4, 12],
                      repeats=3, holdout_size=2000)
    k_serial, serial = harness.select_k(spec)
    k_threaded, threaded = harness.select_k(replace(spec, threads=2))
    assert k_threaded == k_serial
    assert without_seconds(threaded.rows) == without_seconds(serial.rows)
    assert pools == [2, 2]


def test_holdout_error_type_dispatch():
    holdout = sample_sphere(d=1, D=2, n=100, seed=0)
    m = kmeans.fit(sample_sphere(d=1, D=2, n=50, seed=1), 2, seed=1)
    assert harness.holdout_error(m, holdout) > 0.0
    with pytest.raises(ParameterError):
        harness.holdout_error(object(), holdout)
    wrong_dim = kmeans.fit(sample_sphere(d=2, D=3, n=50, seed=1), 2, seed=1)
    with pytest.raises(ParameterError):
        harness.holdout_error(wrong_dim, holdout)


def test_spec_validation():
    with pytest.raises(ParameterError):
        small_spec(train_sizes=[])
    with pytest.raises(ParameterError):
        small_spec(k_grid=[])
    with pytest.raises(ParameterError):
        small_spec(k_grid="all")
    with pytest.raises(ParameterError):
        small_spec(holdout_size=100)
    with pytest.raises(ParameterError):
        small_spec(algorithm="dbscan")
    with pytest.raises(ParameterError):
        small_spec(repeats=0)
    with pytest.raises(ParameterError):
        small_spec(threads=0)


def test_cell_failure_is_annotated_with_coordinates():
    # k = 50 exceeds n = 40, so the cell itself fails; the coordinates
    # must appear in the raised message
    spec = small_spec(k_grid=[50])
    with pytest.raises(ParameterError, match=r"n=40, k=50"):
        harness.tradeoff_experiment(spec)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=4))
def test_mix_seed_stability(parts):
    assert mix_seed(*parts) == mix_seed(*parts)
    assert mix_seed(*parts, 1) != mix_seed(*parts, 2)
