"""Lloyd's algorithm with k-means++ seeding, on the engine k-flats shares.

Minimizes the empirical reconstruction error (mean squared distance of each
training point to its nearest center) over sets of k points. k-means is
k-flats with d = 0: models of both families give (d2, assign) against the
nearest member by `nearest(X)`, which `empirical_error` scores. `_descend`
runs either family's alternation (an empty cell takes the farthest point);
`_best_of_restarts` runs the restarts, in forked workers for a large fit,
and reads the best run's objective and passes, and all descent violations,
off the traces. k-means supplies `min_sqdist`, `_cell_means` and the
k-means++ centres as assignment, update and start.
"""

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ParameterError
from .geometry import Dataset
from .util import _fork_map, fsum_mean, min_sqdist, mix_seed

FORK_MIN_WORK = 10 ** 5  # n k restarts from which restarts fork (sweep in CHANGES.md)


@dataclass(frozen=True)
class FitConfig:
    max_iters: int = 200
    rel_tol: float = 1e-10          # relative objective decrease
    restarts: int = 20

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ParameterError("rel_tol must be finite and >= 0")
        if self.restarts < 1:
            raise ParameterError("restarts must be >= 1")


def _json_floats(values, name: str, shape: tuple, order: str = "C") -> np.ndarray:
    """Model field `name` as a float64 `shape` array, or a ParameterError."""
    try:
        return np.asarray(values, dtype=np.float64).reshape(shape, order=order)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must hold {math.prod(shape)} numbers: {exc}") from None


@dataclass(frozen=True)
class MeansModel:
    """k centers plus the fit certificate data.

    `objective` is the empirical reconstruction error of `centers` on the
    training set; each center is the mean of its (non-empty) Voronoi cell
    at convergence. `descent_violations` counts iterations where the
    objective rose by more than 1e-12 (always 0 for a correct run; kept
    out of the serialized form).
    """

    centers: np.ndarray
    k: int
    objective: float
    iterations: int
    seed: int
    descent_violations: int = field(default=0, compare=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != self.k or self.k < 1:
            raise ParameterError("centers must be a (k, D) array with k >= 1")
        if not np.isfinite(c).all():
            raise ParameterError("centers contain non-finite values")
        if not 0.0 <= self.objective < math.inf:
            raise ParameterError("objective must be finite and >= 0")
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)

    @property
    def ambient_dim(self) -> int:
        return self.centers.shape[1]

    def nearest(self, X: np.ndarray):
        """(d2, assign) against the nearest center, ties to the lowest index."""
        return min_sqdist(X, self.centers)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ambient_dim": self.ambient_dim,
            "centers": [float(v) for v in self.centers.ravel(order="C")],
            "objective": self.objective,
            "iterations": self.iterations,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MeansModel":
        k, D = int(obj["k"]), int(obj["ambient_dim"])
        centers = _json_floats(obj["centers"], "centers", (k, D))
        return cls(centers=centers, k=k, objective=float(obj["objective"]),
                   iterations=int(obj["iterations"]), seed=int(obj["seed"]))


def empirical_error(data: Dataset, model) -> float:
    """Mean squared distance from each point to its nearest center or flat:
    `model` is a MeansModel, a FlatsModel or a raw (k, D) center array."""
    if hasattr(model, "nearest"):
        D, nearest = model.ambient_dim, model.nearest
    else:
        centers = np.asarray(model)
        if centers.ndim != 2:
            raise ParameterError(f"unsupported model type {type(model).__name__}")
        D, nearest = centers.shape[1], lambda X: min_sqdist(X, centers)
    if D != data.ambient_dim:
        raise ParameterError(
            f"ambient dim mismatch: data {data.ambient_dim}, model {D}")
    return fsum_mean(nearest(data.points)[0])


def _check_k(k: int, n: int):
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")


def seed_kmeanspp(data: Dataset, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: k data rows chosen by squared-distance sampling.

    First center uniform over rows; each subsequent one drawn with
    probability proportional to its current squared distance to the chosen
    set, which puts zero mass on already-chosen (and duplicate) rows. A
    draw is `Generator.choice(n, p=d2 / total)`'s own inverse-CDF step: the
    same `rng.random()` from the stream, without re-validating `p` each time.
    """
    X = data.points
    n = data.size
    _check_k(k, n)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, data.ambient_dim))
    centers[0] = X[rng.integers(n)]
    if k == 1:
        return centers
    diff = X - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            i = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            # every row duplicates a chosen center; any row is as good
            i = rng.integers(n)
        centers[j] = X[i]
        diff = X - centers[j]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centers


def _cell_means(X: np.ndarray, assign: np.ndarray,
                counts: np.ndarray) -> np.ndarray:
    """k-means cell update: the mean of each (non-empty) cell."""
    D = X.shape[1]
    sums = np.empty((counts.size, D))
    for j in range(D):
        sums[:, j] = np.bincount(assign, weights=X[:, j], minlength=counts.size)
    return sums / counts[:, None]


def _update_live(X: np.ndarray, assign: np.ndarray, update, members):
    """`members` with the member of each non-empty cell of `assign` from
    `update(X, assign, counts)` run on those cells alone, renumbered in
    order; an empty cell keeps its own member."""
    counts = np.bincount(assign, minlength=len(members))
    if counts.all():
        return update(X, assign, counts)
    live, out = np.flatnonzero(counts), list(members)
    for j, member in zip(live, update(X, np.cumsum(counts > 0)[assign] - 1,
                                      counts[live])):
        out[j] = member
    return out


def _descend(X: np.ndarray, model, nearest, refit, cfg: FitConfig):
    """One run of the alternation from `model`, k centres or k flats.

    `nearest(X, model)` gives (d2, assign) against the nearest member, ties
    to the lowest index; `refit(X, assign, counts)` refits all k cells, none
    empty. Only they read `X` (k-flats passes the points' (D, n) transpose).
    Returns (model, trace): the objective after every assignment pass plus
    the final value for the returned model, non-increasing up to 1e-12.
    """
    prev_assign = None
    trace: List[float] = []
    for _ in range(cfg.max_iters):
        d2, assign = nearest(X, model)
        counts = np.bincount(assign, minlength=len(model))
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # farthest-first donors; a donor must leave a non-empty cell
            # behind (k <= n guarantees one exists by pigeonhole)
            pick = d2.copy()
            for j in empties:
                while True:
                    far = int(np.argmax(pick))
                    pick[far] = -np.inf
                    if counts[assign[far]] > 1:
                        break
                counts[assign[far]] -= 1
                counts[j] += 1
                assign[far] = j
                d2[far] = 0.0
        obj = fsum_mean(d2)
        trace.append(obj)
        stable = prev_assign is not None and np.array_equal(assign, prev_assign)
        model = refit(X, assign, counts)
        if stable:
            break
        if len(trace) > 1 and trace[-2] - obj <= cfg.rel_tol * max(trace[-2], 1e-300):
            break
        prev_assign = assign
    trace.append(fsum_mean(nearest(X, model)[0]))
    return model, trace


def _best_of_restarts(start, run, cfg: FitConfig, seed: int,
                      trace_sink: Optional[list], size: int):
    """run(start(mix_seed(seed, r))) -> (model, trace) for each restart r.

    Returns the first run of least final objective as (model, objective,
    passes), read off its trace, plus the descent violations of all runs:
    rises above 1e-12 between consecutive trace entries. `trace_sink`, when
    given, receives each run's trace. When `size` (n k) times the restarts
    reaches FORK_MIN_WORK, the runs go through `_fork_map`, one worker per
    CPU this process may use; they come back in restart order, bit for bit.
    """
    seeds = [mix_seed(seed, r) for r in range(cfg.restarts)]
    if size * cfg.restarts >= FORK_MIN_WORK:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        runs = _fork_map(lambda s: run(start(s)), seeds, cpus)
    else:  # all starts first: interleaved, small k-means fits ran 9 % slower
        runs = [run(m) for m in [start(s) for s in seeds]]
    if trace_sink is not None:
        trace_sink.extend(trace for _, trace in runs)
    model, trace = min(runs, key=lambda mt: mt[1][-1])  # the first of the least
    return model, trace[-1], len(trace) - 1, sum(
        b > a + 1e-12 for _, t in runs for a, b in zip(t, t[1:]))


def fit(data: Dataset, k: int, cfg: Optional[FitConfig] = None, seed: int = 0,
        trace_sink: Optional[list] = None) -> MeansModel:
    """Best-of-restarts k-means.

    Runs `cfg.restarts` independent k-means++ initializations (restart r
    uses the derived seed mix_seed(seed, r)), each followed by Lloyd
    iteration, and returns the run with the smallest empirical error.
    `trace_sink`, when given, receives each run's objective trace.
    """
    cfg = cfg or FitConfig()
    _check_k(k, data.size)
    centers, obj, iters, violations = _best_of_restarts(
        lambda s: seed_kmeanspp(data, k, s),
        lambda c: _descend(data.points, c, min_sqdist, _cell_means, cfg),
        cfg, seed, trace_sink, data.size * k)
    return MeansModel(centers=centers, k=k, objective=obj, iterations=iters,
                      seed=seed, descent_violations=violations)


def center_of_mass_residual(data: Dataset, model: MeansModel) -> float:
    """Max per-coordinate deviation of each center from its Voronoi cell mean.

    Local-optimality certificate: at a Lloyd fixed point this is ~0. A cell
    that the final assignment leaves empty keeps its center, so counts 0.
    """
    _, assign = model.nearest(data.points)
    means = _update_live(data.points, assign, _cell_means, model.centers)
    return float(np.max(np.abs(np.subtract(means, model.centers))))
