"""Lloyd-type alternating minimization over k affine d-flats.

Each cell is refit by d-truncated PCA (offset = cell mean, basis = top-d
principal directions); points are assigned to the flat with the smallest
squared residual. Rank-deficient cells get explicit zero basis columns
flagged degenerate, so the alternation is total. The model protocol, the
evaluator (`empirical_error`), the alternation and the restarts are those of
k-means; k-flats supplies `_nearest_flat`, the argmin of `_dist2_matrix`, as
the assignment, `_refit_cells` as the update, and as the start the same
update of the Voronoi cells of k-means++ point seeds. Every offset, in a
fit and in `refit_cell`, is the k-means cell update `_cell_means`. Within a
restart, `_restart_steps` refits only the cells that rows entered or left
and re-measures only the distance columns of the flats it replaced. Bases
from outside (`Flat(...)`, `FlatsModel.from_json_dict`) are checked
orthonormal; the refits that `_flat_about` builds are not checked again.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import Dataset
from .kmeans import (FitConfig, _best_of_restarts, _cell_means, _descend,
                     _update_live, empirical_error, seed_kmeanspp)
# fsum_mean is unused here, but perfbench/layers.py traces it under this
# module and its tracer test getattr()s every target, so it must stay
from .util import fsum_mean, min_sqdist

# Eigen-solver contract, enforced by the refit_cell tests: basis vectors
# satisfy the covariance eigen-residual ||C v - lambda v|| <= 1e-10 * ||C||
# (LAPACK SVD is far inside this for unit-ball data). Ties leave the basis
# non-unique; only the projection operator B B^T is contractual.
EIG_RESIDUAL_TOL = 1e-10
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Flat:
    """Affine d-flat: offset point plus d orthonormal direction columns.

    Zero columns (flagged via `degenerate`) stand in for directions a
    rank-deficient cell could not determine; they contribute nothing to
    projections. `Flat(...)` checks the basis: |B^T B - diag(~degenerate)|
    <= 1e-9; the refits that `_flat_about` builds skip it (`_trusted`).
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
        self._freeze(off, B, mask)

    def _freeze(self, offset, basis, degenerate):
        for name, a in (("offset", offset), ("basis", basis), ("degenerate", degenerate)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def _trusted(cls, offset, basis, degenerate):
        """A Flat of arrays known valid, as `_flat_about` builds them,
        frozen without the checks."""
        flat = object.__new__(cls)
        flat._freeze(offset, basis, degenerate)
        return flat

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
        D = flats[0].ambient_dim
        if any(f.ambient_dim != D or f.basis.shape[1] != self.d for f in flats):
            raise ParameterError(f"every flat must lie in R^{D}, as the first does, "
                                 f"with d={self.d} basis columns")
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


def _dist2_matrix(X: np.ndarray, flats, out=None, measured=None) -> np.ndarray:
    """(n, k) squared residuals of every point against every flat. Given a
    kept buffer `out` and the list `measured` of the flats its columns were
    computed from, only the columns whose flat is another object are
    recomputed (flats are frozen, so the others hold the same bits)."""
    if out is None:
        out, measured = np.empty((X.shape[0], len(flats))), [None] * len(flats)
    for j, f in enumerate(flats):
        if measured[j] is not f:
            R = X - f.offset
            d2 = np.einsum("ij,ij->i", R, R) - np.square(R @ f.basis).sum(axis=1)
            out[:, j] = np.maximum(d2, 0.0)
            measured[j] = f
    return out


def refit_cell(points: np.ndarray, d: int) -> Flat:
    """d-truncated PCA of a cell: mean offset, top-d principal directions.

    Cells of rank r < d yield d - r explicit zero columns flagged
    degenerate. Raises on an empty cell; the caller owns the empty-cell
    policy. The flat is the k-flats cell update `_refit_cells` of the one
    cell, so its offset is the k-means cell update, a row-order sum.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise ParameterError("cannot refit an empty cell")
    D = pts.shape[1]
    if not (0 <= d <= D):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={D}")
    return _refit_cells(pts, np.zeros(len(pts), np.intp), np.array([len(pts)]), d)[0]


def _flat_about(pts: np.ndarray, offset: np.ndarray, d: int) -> Flat:
    """The top-d principal directions of the non-empty cell `pts` about
    `offset`, its mean."""
    basis = np.zeros((pts.shape[1], d))
    rank = 0
    if d > 0 and pts.shape[0] > 1:
        _, s, vt = np.linalg.svd(pts - offset, full_matrices=False)
        if s.size and s[0] > 0.0:
            tol = s[0] * max(pts.shape) * _EPS
            rank = min(d, int(np.count_nonzero(s > tol)))
            basis[:, :rank] = vt[:rank].T
    return Flat._trusted(offset, basis, np.arange(d) >= rank)


def _nearest_flat(X: np.ndarray, flats, out=None, measured=None):
    """(d2, assign) against the nearest flat, ties to the lowest index."""
    dist = _dist2_matrix(X, flats, out, measured)
    assign = np.argmin(dist, axis=1)
    return dist[np.arange(X.shape[0]), assign], assign


def _refit_cells(X: np.ndarray, assign: np.ndarray, counts: np.ndarray,
                 d: int, last=None) -> list:
    """k-flats cell update: the d-truncated PCA of every cell, about the
    k-means cell update's means. Given `last`, the (assign, flats) of an
    earlier update, a cell that no row entered or left keeps its flat: a
    cell's flat depends only on X and its rows, taken in row order."""
    redo = np.full(counts.size, last is None)
    if last is not None:
        moved = assign != last[0]
        redo[assign[moved]] = redo[last[0][moved]] = True
    return [_flat_about(np.compress(assign == j, X, axis=0), offset, d)
            if redo[j] else last[1][j]
            for j, offset in enumerate(_cell_means(X, assign, counts))]


def _restart_steps(n: int, k: int, d: int):
    """`_descend`'s (nearest, refit) for one restart, keeping its (n, k)
    distance buffer and its last update between passes. The first update
    refits every cell: the start's flats refit another assignment."""
    nearest = partial(_nearest_flat, out=np.empty((n, k)), measured=[None] * k)
    last = None

    def refit(X, assign, counts):
        nonlocal last
        last = assign, _refit_cells(X, assign, counts, d, last)
        return last[1]
    return nearest, refit


def fit(data: Dataset, k: int, d: int, cfg: Optional[FitConfig] = None,
        seed: int = 0, trace_sink: Optional[list] = None) -> FlatsModel:
    """Best-of-restarts k-flats.

    Each restart seeds k centers by k-means++, refits their Voronoi cells
    by the k-flats cell update and makes each empty cell the degenerate
    flat through the point farthest from its nearest seed. It then
    alternates assign/refit until the assignment is stable or the relative
    objective decrease drops below cfg.rel_tol.
    After the first refit, a pass refits and re-measures only the cells
    whose rows changed, with the bits of refitting and measuring them all.
    """
    cfg = cfg or FitConfig()
    X = data.points
    if not (0 <= d <= data.ambient_dim):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={data.ambient_dim}")

    def start(s):
        d2, assign = min_sqdist(X, seed_kmeanspp(data, k, s))
        far = int(np.argmax(d2))
        return _update_live(X, assign, partial(_refit_cells, d=d),
                            [_flat_about(X[[far]], X[far], d)] * k)

    flats, obj, iters, violations = _best_of_restarts(
        start, lambda f: _descend(X, f, *_restart_steps(len(X), k, d), cfg),
        cfg, seed, trace_sink)
    return FlatsModel(flats=flats, k=k, d=d, objective=obj, iterations=iters,
                      seed=seed, descent_violations=violations)


def refit_residual(data: Dataset, model: FlatsModel) -> float:
    """Fixed-point certificate: objective change after one more assign+refit
    (a cell that the assignment leaves empty keeps its flat)."""
    _, assign = model.nearest(data.points)
    flats = _update_live(data.points, assign, partial(_refit_cells, d=model.d),
                         model.flats)
    return abs(empirical_error(data, replace(model, flats=flats)) - model.objective)
