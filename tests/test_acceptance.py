"""Acceptance gate: the nine binding checks for this package.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them for passing tests too).  Criterion 1 compares each seed's two-sample
errors on the 100-sphere with their exact expectations, (3 + rho)/2 and
2 - sqrt(2 - 2 rho) c (about 1.887 at rho = 0), not with the paper's
large-dimension limits 1.5 and 2.
"""

import math

import mpmath
import numpy as np
import pytest

from manifold_recon import bounds, harness, kflats, kmeans, oracle
from manifold_recon.geometry import Dataset, ManifoldSpec, sample_sphere, sphere_surface_volume
from manifold_recon.util import mix_seed

mpmath.mp.dps = 40
pytestmark = pytest.mark.acceptance

S19 = ManifoldSpec(kind="sphere", intrinsic_dim=19, ambient_dim=20)
S2 = ManifoldSpec(kind="sphere", intrinsic_dim=2, ambient_dim=3)
CIRCLE = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared expensive runs (criterion 3 feeds criterion 5)

@pytest.fixture(scope="module")
def tradeoff_n50():
    spec = harness.ExperimentSpec(
        manifold=S19, train_sizes=[50], k_grid=list(range(2, 41)),
        holdout_size=20_000, algorithm="kmeans", repeats=5, base_seed=3)
    return harness.tradeoff_experiment(spec)


@pytest.fixture(scope="module")
def tradeoff_n5000():
    spec = harness.ExperimentSpec(
        manifold=S19, train_sizes=[5000], k_grid=list(range(2, 41)),
        holdout_size=20_000, algorithm="kmeans", repeats=1, base_seed=3)
    return harness.tradeoff_experiment(spec)


@pytest.fixture(scope="module")
def tiny_instance_runs():
    """100 random tiny instances fitted and brute-forced (criterion 4)."""
    rng = np.random.default_rng(123)
    runs = []
    for _ in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        ds = Dataset(rng.uniform(-0.5, 0.5, size=(n, 2)))
        model = kmeans.fit(ds, k, seed=int(rng.integers(0, 2 ** 31)))
        opt, _ = oracle.global_kmeans(ds, k)
        runs.append((k, model, opt))
    return runs


@pytest.fixture(scope="module")
def kflats_sphere_traces():
    """50 k-flats fits on S^2 with full objective traces (criterion 5)."""
    traces = []
    violations = 0
    for s in range(50):
        ds = S2.sample(200, seed=mix_seed(777, s))
        m = kflats.fit(ds, 5, 2, seed=s, trace_sink=traces)
        violations += m.descent_violations
    return traces, violations


# ---------------------------------------------------------------------------

def test_criterion_1_example1_reproduction():
    """Two-sample 100-sphere example over 100 seeds, each seed checked
    against its own exact expected errors.

    For x uniform on S^{n-1} (n = 101) and rho = <x1, x2>, the midpoint has
    E e_k1 = 1 + |m|^2 = (3 + rho)/2 and the pair has
    E e_k2 = 2 - 2 E max(<x,x1>, <x,x2>) = 2 - sqrt(2 - 2 rho) c with
    c = E|<x, w>| for a unit w.  The per-point variances are 2(1 + rho)/n
    and 4/n - (2 - 2 rho) c^2 (using E max^2 = 1/n).
    """
    n, holdout = 101, 100_000
    c = math.gamma(n / 2) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2))
    # the marginal of one coordinate of x has density ~ (1 - t^2)^((n-3)/2)
    dens = lambda t: (1 - t * t) ** mpmath.mpf((n - 3) / 2)
    c_quad = mpmath.quad(lambda t: t * dens(t), [0, 1]) / mpmath.quad(dens, [0, 1])
    assert abs(c - float(c_quad)) <= 1e-15

    z1s, z2s, refs2 = [], [], []
    order = 0
    for s in range(100):
        e1, e2 = harness.example1(s, holdout_size=holdout)
        x1, x2 = sample_sphere(100, 101, 2, mix_seed(s, 1)).points
        rho = float(x1 @ x2)
        ref1 = (3 + rho) / 2
        ref2 = 2 - math.sqrt(2 - 2 * rho) * c
        se1 = math.sqrt(2 * (1 + rho) / n / holdout)
        se2 = math.sqrt((4 / n - (2 - 2 * rho) * c * c) / holdout)
        z1s.append((e1 - ref1) / se1)
        z2s.append((e2 - ref2) / se2)
        refs2.append(ref2)
        order += e1 < e2
    max1, max2 = max(map(abs, z1s)), max(map(abs, z2s))
    mean1, mean2 = float(np.mean(z1s)), float(np.mean(z2s))
    ok = (max1 <= 5 and max2 <= 5 and abs(mean1) <= 0.5 and abs(mean2) <= 0.5
          and order >= 99)
    report(1, ok, f"c={c!r}; exact e_k2 in [{min(refs2):.4f}, "
                  f"{max(refs2):.4f}]; z(e_k1): max|z| {max1:.2f}, mean "
                  f"{mean1:+.3f}; z(e_k2): max|z| {max2:.2f}, mean {mean2:+.3f} "
                  f"(need max|z| <= 5, |mean| <= 0.5); e_k1 < e_k2: "
                  f"{order}/100 (need >=99)")
    assert ok


def test_criterion_2_origin_baseline():
    """A single center at the origin has hold-out error 1 on any sphere."""
    holdout = sample_sphere(d=2, D=3, n=100_000, seed=2024)
    model = kmeans.MeansModel(centers=np.zeros((1, 3)), k=1, objective=1.0,
                              iterations=0, seed=0)
    err = harness.holdout_error(model, holdout)
    ok = abs(err - 1.0) <= 0.01
    report(2, ok, f"error at origin = {err!r} (need 1.0 +- 0.01)")
    assert ok


def test_criterion_3_tradeoff_curve_shapes(tradeoff_n50, tradeoff_n5000):
    """S^19 in R^20: interior minimum at n=50, non-increasing at n=5000."""
    c50 = dict(tradeoff_n50.curve(50))
    ks = sorted(c50)
    k_star = min(c50, key=c50.get)
    margin = c50[ks[-1]] - c50[k_star]
    interior = ks[0] < k_star < ks[-1]

    c5k = dict(tradeoff_n5000.curve(5000))
    vals = [c5k[k] for k in sorted(c5k)]
    worst_rise = max(b - a for a, b in zip(vals, vals[1:]))

    ok = interior and margin > 0.005 and worst_rise <= 0.005
    report(3, ok, f"n=50: argmin k={k_star} (interior: {interior}), final "
                  f"exceeds min by {margin:.4f} (need > 0.005); n=5000: "
                  f"worst consecutive rise {worst_rise:.5f} (need <= 0.005)")
    assert ok


def test_criterion_4_oracle_equivalence(tiny_instance_runs):
    """best-of-20 k-means vs brute force on 100 tiny instances."""
    matches = sum(abs(m.objective - opt) <= 1e-9
                  for _, m, opt in tiny_instance_runs)
    beats = sum(m.objective < opt - 1e-9 for _, m, opt in tiny_instance_runs)
    ratio_ok = True
    detail = []
    for k in (1, 2, 3):
        ratios = [m.objective / opt if opt > 0 else 1.0
                  for kk, m, opt in tiny_instance_runs if kk == k]
        if ratios:
            bound = 8.0 * (math.log(k) + 2.0)
            ratio_ok &= float(np.mean(ratios)) <= bound
            detail.append(f"k={k}: mean ratio {np.mean(ratios):.4f} <= {bound:.1f}")
    ok = matches >= 95 and beats == 0 and ratio_ok
    report(4, ok, f"global optimum matched {matches}/100 (need >=95), "
                  f"beaten {beats} times (need 0); " + "; ".join(detail))
    assert ok


def test_criterion_5_lloyd_descent(tradeoff_n50, tradeoff_n5000,
                                   tiny_instance_runs, kflats_sphere_traces):
    """Zero descent violations across every fitted run in this suite."""
    traces, kf_viol = kflats_sphere_traces
    trace_ok = all(b <= a + 1e-12 for tr in traces for a, b in zip(tr, tr[1:]))
    total = (tradeoff_n50.descent_violations
             + tradeoff_n5000.descent_violations
             + sum(m.descent_violations for _, m, _ in tiny_instance_runs)
             + kf_viol)
    ok = total == 0 and trace_ok
    report(5, ok, f"descent violations: {total} across criteria 3-4 runs and "
                  f"{len(traces)} k-flats traces on S^2 (need 0)")
    assert ok


def test_criterion_6_kflats_exactness_and_superiority():
    """Zero-curvature data is fitted exactly; k-flats beats k-means on S^2."""
    disk = ManifoldSpec(kind="disk", intrinsic_dim=2, ambient_dim=5)
    flat_obj = kflats.fit(disk.sample(500, seed=1), 1, 2, seed=1).objective

    km_errs, kf_errs = [], []
    for s in range(10):
        train = S2.sample(2000, seed=mix_seed(606, s, 0))
        holdout = S2.sample(20_000, seed=mix_seed(606, s, 1))
        km_errs.append(harness.holdout_error(kmeans.fit(train, 20, seed=s), holdout))
        kf_errs.append(harness.holdout_error(kflats.fit(train, 20, 2, seed=s), holdout))
    km_mean, kf_mean = float(np.mean(km_errs)), float(np.mean(kf_errs))
    ok = flat_obj < 1e-12 and kf_mean < km_mean
    report(6, ok, f"flat-disk k=1 objective {flat_obj:.2e} (need < 1e-12); "
                  f"S^2 n=2000 k=20 mean hold-out: k-flats {kf_mean:.5f} < "
                  f"k-means {km_mean:.5f}: {kf_mean < km_mean}")
    assert ok


def test_criterion_7_rate_fits():
    """Circle schedules: k-means slope <= -1/6, k-flats strictly steeper."""
    sizes = [100, 1000, 10_000, 100_000]
    km_spec = harness.ExperimentSpec(
        manifold=CIRCLE, train_sizes=sizes, k_grid="auto",
        holdout_size=20_000, algorithm="kmeans", repeats=2, base_seed=11)
    kf_spec = harness.ExperimentSpec(
        manifold=CIRCLE, train_sizes=sizes, k_grid="auto",
        holdout_size=20_000, algorithm="kflats", flat_dim=1, repeats=2,
        base_seed=11)
    km_slope = harness.rate_experiment(km_spec).rate_fit.slope
    kf_slope = harness.rate_experiment(kf_spec).rate_fit.slope
    ok = km_slope <= -0.1667 and kf_slope < km_slope
    report(7, ok, f"k-means slope {km_slope:.4f} (need <= -0.1667); "
                  f"k-flats slope {kf_slope:.4f} (need < k-means slope)")
    assert ok


def test_criterion_8_bound_arithmetic():
    """Statistical bounds vs 40-digit evaluation; schedule identities."""
    sm = bounds.stat_kmeans(10_000, 10, 0.05)
    sm_ref = float(10 * mpmath.sqrt(18 * mpmath.pi / 10_000)
                   + mpmath.sqrt(8 * mpmath.log(20) / 10_000))
    sf = bounds.stat_kflats(10_000, 10, 2, 0.05)
    sf_ref = float(10 * mpmath.sqrt(4 * mpmath.pi / 10_000)
                   + mpmath.sqrt(mpmath.log(20) / 20_000))
    stat_ok = (abs(sm - sm_ref) <= 1e-10 * sm_ref
               and abs(sf - sf_ref) <= 1e-10 * sf_ref)

    scale_ok = True
    balance_ok = True
    for d in (1, 2, 3, 5):
        dn = bounds.holder_density_bound(d)
        kap = sphere_surface_volume(d)
        for n, r in ((200, 32), (10 ** 4, 10)):
            a = bounds.kn_kmeans(n * r, d, dn)
            b = bounds.kn_kmeans(n, d, dn) * r ** (d / (2.0 * (d + 2)))
            scale_ok &= abs(a - b) <= 1e-9 * b
            a = bounds.kn_kflats(n * r, d, kap)
            b = bounds.kn_kflats(n, d, kap) * r ** (d / (2.0 * (d + 4)))
            scale_ok &= abs(a - b) <= 1e-9 * b
        for n in (100, 10 ** 5):
            kn = bounds.kn_kmeans(n, d, dn)
            lhs = bounds.approx_kmeans(kn, d, dn)
            rhs = 24.0 * math.sqrt(math.pi) * kn / math.sqrt(n)
            balance_ok &= abs(lhs - rhs) <= 1e-9 * rhs
            knf = bounds.kn_kflats(n, d, kap)
            lhs = bounds.approx_kflats(knf, d, kap)
            rhs = 2.0 * math.sqrt(2.0 * math.pi * d) * knf / math.sqrt(n)
            balance_ok &= abs(lhs - rhs) <= 1e-9 * rhs

    ok = stat_ok and scale_ok and balance_ok
    report(8, ok, f"stat_kmeans(1e4,10,.05)={sm!r} vs {sm_ref!r}, "
                  f"stat_kflats(1e4,10,2,.05)={sf!r} vs {sf_ref!r} "
                  f"(1e-10 rel); power laws: {scale_ok}; "
                  f"summand balancing at k_n: {balance_ok} (1e-9 rel)")
    assert ok


def test_criterion_9_statistical_gap_coverage():
    """|empirical - holdout| <= stat_kmeans bound in >= 95% of 200 trials."""
    n, k, delta = 2000, 8, 0.05
    bound = bounds.stat_kmeans(n, k, delta)
    covered = 0
    gaps = []
    for t in range(200):
        train = S2.sample(n, seed=mix_seed(909, t, 0))
        holdout = S2.sample(5000, seed=mix_seed(909, t, 1))
        model = kmeans.fit(train, k, kmeans.FitConfig(restarts=5), seed=t)
        gap = abs(model.objective - harness.holdout_error(model, holdout))
        gaps.append(gap)
        covered += gap <= bound
    ok = covered >= 190
    report(9, ok, f"coverage {covered}/200 (need >=190); bound {bound:.3f}, "
                  f"max observed gap {max(gaps):.5f}")
    assert ok
