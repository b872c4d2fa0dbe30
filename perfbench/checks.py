"""Output checks of the benchmark workloads.

Every check returns a ``Check``. The references are computed here, apart
from the package: distances by explicit differences summed with
``math.fsum``, closed forms for the uniform circle, and exhaustive
enumeration of labellings for tiny instances.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# references

def kmeans_sqdist(X, centres):
    """Per-row squared distance to the nearest centre and its index (lowest
    index on ties), from explicit differences."""
    best = np.full(X.shape[0], np.inf)
    idx = np.zeros(X.shape[0], dtype=np.intp)
    for j, c in enumerate(np.asarray(centres)):
        r = X - c
        d2 = (r * r).sum(axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        idx[closer] = j
    return best, idx


def kflats_sqdist(X, flats):
    """Per-row squared distance to the nearest flat: ||r||^2 - ||B^T r||^2
    with r = x - offset, clamped at 0."""
    best = np.full(X.shape[0], np.inf)
    for offset, basis in flats:
        r = X - offset
        p = r @ basis
        d2 = np.maximum((r * r).sum(axis=1) - (p * p).sum(axis=1), 0.0)
        best = np.minimum(best, d2)
    return best


def mean_exact(values):
    return math.fsum(values) / len(values)


def _cos_moments(alpha):
    """E cos^j(phi), j = 1..4, for phi uniform on [-alpha, alpha]."""
    sa = math.sin(alpha)
    return (sa / alpha,
            0.5 + math.sin(2 * alpha) / (4 * alpha),
            (sa - sa ** 3 / 3) / alpha,
            0.375 + math.sin(2 * alpha) / (4 * alpha)
            + math.sin(4 * alpha) / (32 * alpha))


def circle_kmeans_reference(k):
    """Error of the regular k-gon of centres (the optimal k-point quantizer
    of the uniform unit circle) and the variance of one point's error."""
    c1, c2, _, _ = _cos_moments(math.pi / k)
    s = c1
    return 1.0 - s * s, 4.0 * s * s * (c2 - s * s)


def circle_kflats_reference(k):
    """Error of k lines on the chords of k equal arcs of the unit circle,
    and the variance of one point's error (cos(phi) - s)^2."""
    c1, c2, c3, c4 = _cos_moments(math.pi / k)
    s = c1
    mean = c2 - s * s
    fourth = c4 - 4 * s * c3 + 6 * s * s * c2 - 4 * s ** 3 * c1 + s ** 4
    return mean, fourth - mean * mean


def enumerate_optimum(X, k, d):
    """Least mean squared residual over every labelling of the rows with at
    most k labels; each group is fitted by its mean (d = 0) or, for d > 0,
    by the flat through its mean along the top-d eigenvectors of its
    scatter, whose residual is the sum of the trailing eigenvalues."""
    n, D = X.shape
    labels = np.array(list(itertools.product(range(k), repeat=n)))
    total = np.zeros(labels.shape[0])
    for g in range(k):
        mask = (labels == g).astype(float)                      # (L, n)
        count = mask.sum(axis=1)
        safe = np.maximum(count, 1.0)[:, None]
        mean = (mask @ X) / safe                                # (L, D)
        r = (X[None, :, :] - mean[:, None, :]) * mask[:, :, None]
        if d == 0:
            total += (r * r).sum(axis=(1, 2))
        else:
            scatter = np.einsum("lni,lnj->lij", r, r)
            eig = np.linalg.eigvalsh(scatter)                   # ascending
            total += np.maximum(eig[:, :D - d].sum(axis=1), 0.0)
    return float(total.min()) / n


# ---------------------------------------------------------------------------
# checks shared by several workloads

def no_descent_violations(violations):
    return Check("descent", violations == 0,
                 f"{violations} descent violations (need 0)")


def traces_non_increasing(traces, slack=1e-12):
    bad = sum(any(b > a + slack for a, b in zip(t, t[1:])) for t in traces)
    return Check("traces", bad == 0 and len(traces) > 0,
                 f"{bad} of {len(traces)} restart traces rise by more than "
                 f"{slack:g}")


def repeatable(fingerprints):
    same = len(set(fingerprints)) == 1
    return Check("repeatable", same,
                 f"{len(fingerprints)} passes, {len(set(fingerprints))} "
                 "distinct fingerprints (need 1)")


def counts_repeat(counts):
    """counts: one {metric: work count} dict per traced pass."""
    same = all(c == counts[0] for c in counts)
    return Check("trace-counts", same,
                 f"work counts {'repeat exactly' if same else 'differ'} over "
                 f"{len(counts)} traced passes")


def cli_exit_codes(codes):
    bad = [c for c in codes if c != 0]
    return Check("cli-exit", not bad and len(codes) > 0,
                 f"{len(codes)} CLI calls, nonzero exits {bad}")


def holdout_matches(name, reported, recomputed, rel=1e-12):
    err = _rel(reported, recomputed)
    return Check(name, err <= rel,
                 f"reported {reported!r}, recomputed {recomputed!r}, "
                 f"relative difference {err:.2e} (need <= {rel:g})")


# ---------------------------------------------------------------------------
# tradeoff-s19

def curve_non_increasing(curve, tol=0.005):
    vals = [e for _, e in sorted(curve)]
    rise = max((b - a for a, b in zip(vals, vals[1:])), default=0.0)
    return Check("curve", rise <= tol,
                 f"worst rise of the mean hold-out curve over k {rise:.5f} "
                 f"(need <= {tol})")


def refit_objective(k, row_empirical, refit_objective_value):
    same = row_empirical == refit_objective_value
    return Check(f"refit-k{k}", same,
                 f"row empirical {row_empirical!r}, refit objective "
                 f"{refit_objective_value!r} (need bit-identical)")


def centres_are_cell_means(k, X, centres, tol=1e-12):
    _, idx = kmeans_sqdist(X, centres)
    worst = 0.0
    for j in range(len(centres)):
        cell = X[idx == j]
        if cell.shape[0]:
            worst = max(worst, float(np.abs(cell.mean(axis=0) - centres[j]).max()))
    return Check(f"centroid-k{k}", worst <= tol,
                 f"largest centre-to-cell-mean deviation {worst:.2e} "
                 f"(need <= {tol:g})")


# ---------------------------------------------------------------------------
# rates-circle

def _kmeans_row_se(row, m):
    if row["k"] == 1:
        # the centre c is the train mean, the train objective is 1 - |c|^2,
        # and one hold-out point's error 1 + |c|^2 - 2<c, x> has variance
        # 2 |c|^2
        return math.sqrt(2.0 * max(1.0 - row["empirical"], 0.0) / m)
    return math.sqrt(circle_kmeans_reference(row["k"])[1] / m)


def circle_not_below_optimum(kmeans_rows, m, z_max=5.0):
    worst = math.inf
    for r in kmeans_rows:
        opt = circle_kmeans_reference(r["k"])[0]
        se = _kmeans_row_se(r, m)
        gap = r["holdout"] - opt
        z = gap / se if se > 0 else (math.inf if gap >= -1e-12 else -math.inf)
        worst = min(worst, z)
    return Check("circle-lower-bound", worst >= -z_max,
                 f"lowest k-means hold-out error is {worst:.2f} standard "
                 f"errors from the k-point optimum 1 - s^2 (need >= {-z_max})")


def circle_largest_n(kmeans_rows, kflats_rows, m, z_max=5.0):
    n = max(r["n"] for r in kmeans_rows)
    parts, ok = [], True
    for label, rows, ref in (("k-means", kmeans_rows, circle_kmeans_reference),
                             ("k-flats", kflats_rows, circle_kflats_reference)):
        for r in rows:
            if r["n"] != n:
                continue
            mean, var = ref(r["k"])
            z = (r["holdout"] - mean) / math.sqrt(var / m)
            ok &= abs(z) <= z_max
            parts.append(f"{label} k={r['k']}: {r['holdout']:.5f} vs "
                         f"{mean:.5f}, z={z:+.2f}")
    return Check("circle-largest-n", ok and bool(parts),
                 f"n={n}: " + "; ".join(parts) + f" (need |z| <= {z_max})")


def slopes(kmeans_slope, kflats_slope):
    return Check("slopes", kflats_slope < kmeans_slope,
                 f"k-flats slope {kflats_slope:.4f} < k-means slope "
                 f"{kmeans_slope:.4f}")


# ---------------------------------------------------------------------------
# kflats-s2

def json_round_trip(label, obj, model_cls):
    again = model_cls.from_json_dict(obj).to_json_dict()
    return Check(f"round-trip-{label}", again == obj,
                 f"{label} model JSON read and written again is "
                 f"{'identical' if again == obj else 'different'}")


def bases_orthonormal(flats, tol=1e-12):
    worst = 0.0
    for basis, degenerate in flats:
        gram = basis.T @ basis
        want = np.diag((~degenerate).astype(float))
        worst = max(worst, float(np.abs(gram - want).max(initial=0.0)))
    return Check("orthonormal", worst <= tol,
                 f"largest |B^T B - I| entry {worst:.2e} (need <= {tol:g})")


def kflats_beats_kmeans(kflats_err, kmeans_err):
    return Check("kflats-beats-kmeans", kflats_err < kmeans_err,
                 f"hold-out k-flats {kflats_err:.5f} < k-means "
                 f"{kmeans_err:.5f}")


def flat_disk_exact(objective, tol=1e-12):
    return Check("flat-disk", objective < tol,
                 f"largest flat-disk k=1 objective {objective:.2e} (need < {tol:g})")


# ---------------------------------------------------------------------------
# small-fits

def not_below_optimum(pairs, slack=1e-9):
    """pairs: (fit objective, brute-force optimum)."""
    below = sum(obj < opt - slack for obj, opt in pairs)
    return Check("not-below-optimum", below == 0 and len(pairs) > 0,
                 f"{below} of {len(pairs)} fits below the brute-force "
                 f"optimum by more than {slack:g}")


def optimum_confirmed(instances, tol=1e-12):
    """instances: (X, k, d, oracle optimum)."""
    worst = 0.0
    for X, k, d, opt in instances:
        worst = max(worst, abs(enumerate_optimum(X, k, d) - opt))
    return Check("enumeration", worst <= tol and len(instances) > 0,
                 f"{len(instances)} instances enumerated, largest difference "
                 f"from the oracle {worst:.2e} (need <= {tol:g})")


def at_optimum(obj, opt, slack=1e-9):
    """Whether a fit objective reaches the brute-force optimum."""
    return abs(obj - opt) <= slack


def optimum_hit_rate(pairs, need=0.95):
    hits = sum(at_optimum(obj, opt) for obj, opt in pairs)
    return Check("hit-rate", len(pairs) > 0 and hits >= need * len(pairs),
                 f"{hits} of {len(pairs)} k-means fits reach the optimum "
                 f"(need >= {need:.0%})")

