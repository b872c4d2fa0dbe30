"""Lloyd-type alternating minimization over k affine d-flats.

Each cell is refit by d-truncated PCA (offset = cell mean, basis = top-d
principal directions); points are assigned to the flat with the smallest
squared residual. Rank-deficient cells get explicit zero basis columns
flagged degenerate, so the alternation is total. The model protocol, the
evaluator (`empirical_error`), the alternation and the restarts are those of
k-means; k-flats supplies `_nearest_flat`, the argmin of `_dist2_matrix`, as
the assignment, per-cell `refit_cell` as the update, and as the start the
PCA of the Voronoi cells of k-means++ point seeds.
"""

import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import Dataset
from .kmeans import (FitConfig, _best_of_restarts, _descend, empirical_error,
                     seed_kmeanspp)
# fsum_mean is unused here, but perfbench/layers.py traces it by this name
from .util import fsum_mean, min_sqdist

# Eigen-solver contract, enforced by the refit_cell tests: basis vectors
# satisfy the covariance eigen-residual ||C v - lambda v|| <= 1e-10 * ||C||
# (LAPACK SVD is far inside this for unit-ball data). Ties leave the basis
# non-unique; only the projection operator B B^T is contractual.
EIG_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Flat:
    """Affine d-flat: offset point plus d orthonormal direction columns.

    Zero columns (flagged via `degenerate`) stand in for directions a
    rank-deficient cell could not determine; they contribute nothing to
    projections.
    """

    offset: np.ndarray
    basis: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        off = np.ascontiguousarray(self.offset, dtype=np.float64)
        B = np.ascontiguousarray(self.basis, dtype=np.float64)
        mask = np.ascontiguousarray(self.degenerate, dtype=bool)
        if off.ndim != 1 or B.ndim != 2 or B.shape[0] != off.shape[0]:
            raise ParameterError("basis must be (D, d) with offset in R^D")
        if mask.shape != (B.shape[1],):
            raise ParameterError("degenerate mask must have one entry per column")
        gram = B.T @ B
        want = np.diag((~mask).astype(float))
        if gram.size and np.max(np.abs(gram - want)) > 1e-9:
            raise ParameterError("basis columns not orthonormal (or zero where degenerate)")
        off.setflags(write=False)
        B.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "basis", B)
        object.__setattr__(self, "degenerate", mask)

    @property
    def ambient_dim(self) -> int:
        return self.offset.shape[0]


@dataclass(frozen=True)
class FlatsModel:
    flats: tuple
    k: int
    d: int
    objective: float
    iterations: int
    seed: int
    descent_violations: int = field(default=0, compare=False)

    def __post_init__(self):
        flats = tuple(self.flats)
        if len(flats) != self.k or self.k < 1:
            raise ParameterError("need exactly k flats with k >= 1")
        if self.objective < 0:
            raise ParameterError("objective must be >= 0")
        object.__setattr__(self, "flats", flats)

    @property
    def ambient_dim(self) -> int:
        return self.flats[0].ambient_dim

    def nearest(self, X: np.ndarray):
        """(d2, assign) against the nearest flat, ties to the lowest index."""
        return _nearest_flat(X, self.flats)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "ambient_dim": self.ambient_dim,
            "flats": [
                {
                    "offset": [float(v) for v in f.offset],
                    "basis": [float(v) for v in f.basis.ravel(order="F")],
                    "degenerate_mask": [bool(b) for b in f.degenerate],
                }
                for f in self.flats
            ],
            "objective": self.objective,
            "iterations": self.iterations,
            "seed": self.seed,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FlatsModel":
        d, D = int(obj["d"]), int(obj["ambient_dim"])
        flats = tuple(
            Flat(offset=np.asarray(fo["offset"], dtype=np.float64),
                 basis=np.asarray(fo["basis"], dtype=np.float64).reshape(D, d, order="F"),
                 degenerate=np.asarray(fo["degenerate_mask"], dtype=bool))
            for fo in obj["flats"])
        return cls(flats=flats, k=int(obj["k"]), d=d,
                   objective=float(obj["objective"]),
                   iterations=int(obj["iterations"]), seed=int(obj["seed"]))


def flat_distance_sq(x: np.ndarray, f: Flat) -> float:
    """Squared distance from a point to an affine flat.

    ||x - m||^2 - ||B^T (x - m)||^2, clamped at 0 against round-off.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != f.offset.shape:
        raise ParameterError(
            f"dimension mismatch: point {x.shape}, flat {f.offset.shape}")
    r = x - f.offset
    d2 = float(r @ r - np.square(f.basis.T @ r).sum())
    return max(d2, 0.0)


def _dist2_matrix(X: np.ndarray, flats) -> np.ndarray:
    """(n, k) squared residuals of every point against every flat."""
    n = X.shape[0]
    out = np.empty((n, len(flats)))
    for j, f in enumerate(flats):
        R = X - f.offset
        d2 = np.einsum("ij,ij->i", R, R) - np.square(R @ f.basis).sum(axis=1)
        out[:, j] = np.maximum(d2, 0.0)
    return out


def refit_cell(points: np.ndarray, d: int) -> Flat:
    """d-truncated PCA of a cell: mean offset, top-d principal directions.

    Cells of rank r < d yield d - r explicit zero columns flagged
    degenerate. Raises on an empty cell; the caller owns the empty-cell
    policy.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise ParameterError("cannot refit an empty cell")
    D = pts.shape[1]
    if not (0 <= d <= D):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={D}")
    offset = pts.mean(axis=0)
    basis = np.zeros((D, d))
    rank = 0
    if d > 0 and pts.shape[0] > 1:
        centered = pts - offset
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        if s.size and s[0] > 0.0:
            tol = s[0] * max(pts.shape) * np.finfo(np.float64).eps
            rank = min(d, int(np.count_nonzero(s > tol)))
            basis[:, :rank] = vt[:rank].T
    return Flat(offset=offset, basis=basis,
                degenerate=np.arange(d) >= rank)


def _nearest_flat(X: np.ndarray, flats):
    """(d2, assign) against the nearest flat, ties to the lowest index."""
    dist = _dist2_matrix(X, flats)
    assign = np.argmin(dist, axis=1)
    return dist[np.arange(X.shape[0]), assign], assign


def _refit_cells(X: np.ndarray, assign: np.ndarray, counts: np.ndarray,
                 d: int) -> list:
    """k-flats cell update: the d-truncated PCA of every cell."""
    return [refit_cell(X[assign == j], d) for j in range(counts.size)]


def fit(data: Dataset, k: int, d: int, cfg: Optional[FitConfig] = None,
        seed: int = 0, trace_sink: Optional[list] = None) -> FlatsModel:
    """Best-of-restarts k-flats.

    Each restart seeds k centers by k-means++ on the points, forms the
    point-distance Voronoi cells, refits each as a flat (an empty cell as
    the degenerate flat through the point farthest from its center), then
    alternates assign/refit until the assignment is stable or the relative
    objective decrease drops below cfg.rel_tol.
    """
    cfg = cfg or FitConfig()
    X = data.points

    def start(s):
        d2, assign = min_sqdist(X, seed_kmeanspp(data, k, s))
        cells = [X[assign == j] for j in range(k)]
        far = X[[int(np.argmax(d2))]]
        return [refit_cell(cell if len(cell) else far, d) for cell in cells]

    flats, obj, iters, violations = _best_of_restarts(
        start, lambda f: _descend(X, f, _nearest_flat,
                                  partial(_refit_cells, d=d), cfg),
        cfg, seed, trace_sink)
    return FlatsModel(flats=flats, k=k, d=d, objective=obj, iterations=iters,
                      seed=seed, descent_violations=violations)


def refit_residual(data: Dataset, model: FlatsModel) -> float:
    """Fixed-point certificate: objective change after one more assign+refit
    (a cell that the assignment leaves empty keeps its flat)."""
    _, assign = model.nearest(data.points)
    live, cell = np.unique(assign, return_inverse=True)
    flats = list(model.flats)
    for j, f in zip(live, _refit_cells(data.points, cell, np.bincount(cell), model.d)):
        flats[j] = f
    return abs(empirical_error(data, replace(model, flats=flats)) - model.objective)
