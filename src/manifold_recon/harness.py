"""Experiment runner: hold-out risk, tradeoff curves, model selection of k,
the two-sample high-dimension example, and convergence-rate fits.

Every grid cell derives its own seed as mix_seed(base_seed, n, k, repeat),
and the shared hold-out sample uses mix_seed(base_seed, HOLDOUT_TAG), so
reports are deterministic given (spec, base_seed) and cells may run
in any order, in any process. A report writes no file: `ExperimentReport.files`
renders `summary.json`, `report.csv`, `curves.tsv` and, with a rate fit,
`loglog.tsv` by name, and the caller writes them.
"""

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kflats, kmeans
from .bounds import BoundInputs, BoundReport, decompose, kn_kflats, kn_kmeans
from .errors import ParameterError
from .geometry import Dataset, ManifoldSpec, sample_sphere
from .kmeans import FitConfig
# fsum_mean and min_sqdist are unused here, but perfbench/layers.py traces them
# under this module and its tracer test getattr()s every target, so they stay
from .util import _fork_map, fsum_mean, min_sqdist, mix_seed

HOLDOUT_TAG = 0xB01D0071
TRAIN_TAG = 0x7E57A11
ALGORITHMS = ("kmeans", "kmeanspp-seed", "kflats")
BOUND_DELTA = 0.05  # confidence parameter of the bound rows


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment grid. `threads` is the number of worker processes
    `_fork_map` runs its cells in (a fit outside a worker forks its own
    restarts); rows are the same bit for bit at any value."""
    manifold: ManifoldSpec
    train_sizes: Sequence[int]
    k_grid: Union[Sequence[int], str]   # explicit grid or "auto" (balanced schedule)
    holdout_size: int = 100_000
    algorithm: str = "kmeans"
    flat_dim: Optional[int] = None      # None or manifold.intrinsic_dim
    repeats: int = 5
    base_seed: int = 0
    fit_config: FitConfig = field(default_factory=FitConfig)
    threads: int = 1

    def __post_init__(self):
        if len(self.train_sizes) == 0:
            raise ParameterError("train_sizes must be non-empty")
        if isinstance(self.k_grid, str):
            if self.k_grid != "auto":
                raise ParameterError("k_grid must be a list of k or 'auto'")
        elif len(self.k_grid) == 0:
            raise ParameterError("k_grid must be non-empty")
        if self.holdout_size < 10 ** 3:
            raise ParameterError("holdout_size must be >= 1000")
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(f"algorithm must be one of {ALGORITHMS}")
        if self.flat_dim not in (None, self.manifold.intrinsic_dim):
            # the bound rows and the auto k schedule are the manifold's
            raise ParameterError("flat_dim must be None or the manifold's "
                                 f"intrinsic dimension {self.manifold.intrinsic_dim}")
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    degenerate: bool


@dataclass
class ExperimentReport:
    rows: List[dict]
    rate_fit: Optional[RateFit] = None
    bound_rows: List[BoundReport] = field(default_factory=list)
    descent_violations: int = 0

    def curve(self, n: int) -> List[Tuple[int, float]]:
        """(k, mean hold-out error) pairs for one training size."""
        return [(k, _mean(self.rows, "holdout", n=n, k=k))
                for k in sorted({r["k"] for r in self.rows if r["n"] == n})]

    def files(self) -> dict:
        """The report's files by name: `summary.json` (a JSON object),
        `report.csv` (one row per cell), `curves.tsv` (n, k and mean hold-out
        error per line) and, with a rate fit, `loglog.tsv` (ln n and ln mean
        error per line)."""
        sizes = sorted({r["n"] for r in self.rows})
        files = {
            "summary.json": {
                "rows": self.rows,
                "descent_violations": self.descent_violations,
                "rate_fit": None if self.rate_fit is None else asdict(self.rate_fit),
                "bound_rows": [b.to_json_dict() for b in self.bound_rows]},
            "report.csv": "n,k,repeat,empirical,holdout,seconds\r\n" + "".join(
                f"{r['n']},{r['k']},{r['repeat']},{r['empirical']!r},"
                f"{r['holdout']!r},{r['seconds']!r}\r\n" for r in self.rows),
            "curves.tsv": "".join(f"{n}\t{k}\t{err!r}\n"
                                  for n in sizes for k, err in self.curve(n))}
        if self.rate_fit is not None:
            files["loglog.tsv"] = "".join(
                f"{math.log(n)!r}\t{math.log(_mean(self.rows, 'holdout', n=n))!r}\n"
                for n in sizes)
        return files


def _mean(rows: Sequence[dict], key: str, **where) -> float:
    """Mean of column `key` over the rows matching `where`, in row order."""
    return float(np.mean([r[key] for r in rows
                          if all(r[c] == v for c, v in where.items())]))


def holdout_error(model, holdout: Dataset) -> float:
    """Monte-Carlo estimate of the expected reconstruction error."""
    return kmeans.empirical_error(holdout, model)


def example1(seed: int, holdout_size: int = 100_000) -> Tuple[float, float]:
    """Two samples on the 100-sphere in R^101: hold-out error of the exact
    k=1 solution (their midpoint) and k=2 solution (the samples).

    Near-orthogonality of high-dimensional samples makes the single
    midpoint strictly better, the canonical small-n tradeoff.

    With rho = <x1, x2> and c = E|<x, w>| = Gamma(50.5) / (sqrt(pi) Gamma(51))
    ~= 0.0795892 for a unit w, the exact expectations over x uniform on the
    sphere are (3 + rho)/2 for k=1 and 2 - sqrt(2 - 2 rho) c for k=2 (about
    1.887 at rho = 0). The paper's values 1.5 and 2 are their limits as the
    dimension grows.
    """
    pair = sample_sphere(100, 101, 2, mix_seed(seed, 1))
    x1, x2 = pair.points
    holdout = sample_sphere(100, 101, holdout_size, mix_seed(seed, 2))
    return (kmeans.empirical_error(holdout, (x1 + x2)[None, :] / 2.0),
            kmeans.empirical_error(holdout, pair.points))


def _resolve_k_grid(spec: ExperimentSpec, n: int) -> List[int]:
    if not isinstance(spec.k_grid, str):
        return list(dict.fromkeys(spec.k_grid))
    d = spec.manifold.intrinsic_dim
    if spec.algorithm == "kflats":
        kn = kn_kflats(n, d, spec.manifold.effective_curvature())
    else:
        kn = kn_kmeans(n, d, spec.manifold.effective_density_norm())
    return [max(1, round(kn))]


def _fit_cell(spec: ExperimentSpec, train: Dataset, k: int, seed: int):
    if spec.algorithm == "kmeans":
        return kmeans.fit(train, k, spec.fit_config, seed=seed)
    if spec.algorithm == "kflats":
        return kflats.fit(train, k, spec.manifold.intrinsic_dim, spec.fit_config,
                          seed=seed)
    # seeding only: each run scores its k-means++ start, with no descent
    centers, obj, iters, _ = kmeans._best_of_restarts(
        lambda s: kmeans.seed_kmeanspp(train, k, s),
        lambda c: (c, [kmeans.empirical_error(train, c)]),
        spec.fit_config, seed, None, 0)
    return kmeans.MeansModel(centers=centers, k=k, objective=obj,
                             iterations=iters, seed=seed)


def _run_cell(spec: ExperimentSpec, holdout: Dataset, n: int, k: int,
              rep: int) -> dict:
    cell_seed = mix_seed(spec.base_seed, n, k, rep)
    train = spec.manifold.sample(n, mix_seed(cell_seed, TRAIN_TAG))
    t0 = time.perf_counter()
    model = _fit_cell(spec, train, k, cell_seed)
    seconds = time.perf_counter() - t0
    return {
        "n": n, "k": k, "repeat": rep,
        "empirical": model.objective,
        "holdout": holdout_error(model, holdout),
        "seconds": seconds,
        "descent_violations": model.descent_violations,
    }


def _run_cells(spec: ExperimentSpec,
               cells: Sequence[Tuple[int, int, int]]) -> Tuple[List[dict], int]:
    """Rows of the (n, k, repeat) cells, in the order given, scored on the
    shared hold-out sample, plus their summed descent violations. The cells
    run through `_fork_map` in `spec.threads` workers."""
    holdout = spec.manifold.sample(spec.holdout_size,
                                   mix_seed(spec.base_seed, HOLDOUT_TAG))

    def run(cell):
        n, k, rep = cell
        try:
            return _run_cell(spec, holdout, n, k, rep)
        except Exception as exc:
            raise type(exc)(f"cell (n={n}, k={k}, repeat={rep}): {exc}") from exc

    rows = _fork_map(run, cells, spec.threads)
    return rows, sum(r.pop("descent_violations") for r in rows)


def tradeoff_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Full (n, k, repeat) grid, each distinct n and k once: sample train
    set, fit best-of-restarts, evaluate on the shared hold-out sample; one
    bound row per (n, k)."""
    grid = [(n, k) for n in dict.fromkeys(spec.train_sizes)
            for k in _resolve_k_grid(spec, n)]
    rows, violations = _run_cells(spec, [(n, k, rep) for n, k in grid
                                         for rep in range(spec.repeats)])
    m = spec.manifold
    bound_rows = [decompose(
        _mean(rows, "empirical", n=n, k=k), _mean(rows, "holdout", n=n, k=k),
        BoundInputs(n=n, k=k, d=m.intrinsic_dim, delta=BOUND_DELTA,
                    density_norm=m.effective_density_norm(),
                    curvature=m.effective_curvature()),
        "kflats" if spec.algorithm == "kflats" else "kmeans") for n, k in grid]
    return ExperimentReport(rows=rows, bound_rows=bound_rows,
                            descent_violations=violations)


def select_k(spec: ExperimentSpec) -> Tuple[int, ExperimentReport]:
    """Hold-out model selection at the first training size: the smallest k
    of least mean hold-out error, and the report of its grid."""
    n = spec.train_sizes[0]
    report = tradeoff_experiment(replace(spec, train_sizes=[n]))
    return argmin_k(dict(report.curve(n))), report


def argmin_k(errors: dict) -> int:
    """Smallest k attaining the minimum validation error."""
    if not errors:
        raise ParameterError("empty k grid")
    best = min(errors.values())
    return min(k for k, v in errors.items() if v == best)


def fit_loglog(ns: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Least-squares line through (ln n, ln error).

    residual is the sum of squared log-residuals; the fit is flagged
    degenerate when all errors coincide (slope carries no information).
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.shape != errors.shape or ns.size < 2:
        raise ParameterError("need >= 2 (n, error) pairs of equal length")
    if (errors <= 0).any():
        raise ParameterError("errors must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sum((y - (slope * x + intercept)) ** 2))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, degenerate=bool(np.ptp(y) < 1e-15))


def rate_experiment(spec: ExperimentSpec, schedule: str | None = None) -> ExperimentReport:
    """Hold-out error along the balanced-k schedule, with a log-log slope fit.

    Requires at least 4 distinct training sizes spanning two decades; the
    schedule picks k = max(1, round(k_n)) per training size.  A `schedule`
    names the algorithm to run in place of ``spec.algorithm``; the k-flats
    one uses the k-flats k_n, every other the k-means k_n.
    """
    if schedule is not None:
        spec = replace(spec, algorithm=schedule)
    sizes = sorted(set(spec.train_sizes))
    if len(sizes) < 4 or sizes[-1] < 100 * sizes[0]:
        raise ParameterError(
            "rate fits need >= 4 distinct training sizes spanning >= 2 decades")
    report = tradeoff_experiment(replace(spec, k_grid="auto", train_sizes=sizes))
    report.rate_fit = fit_loglog(sizes, [_mean(report.rows, "holdout", n=n)
                                         for n in sizes])
    return report
