"""Lloyd-type alternating minimization over k affine d-flats.

Each cell is refit by d-truncated PCA (offset = cell mean, basis = top-d
principal directions); points are assigned to the flat with the smallest
squared residual. Rank-deficient cells get explicit zero basis columns
flagged degenerate, so the alternation is total. The model protocol, the
evaluator (`empirical_error`), the alternation and the restarts are those of
k-means; k-flats supplies `_nearest_flat`, the argmin of `_dist2_matrix`, as
the assignment, `_refit_cells` as the update, and as the start the same
update of the Voronoi cells of k-means++ point seeds. Every offset, in a
fit and in `refit_cell`, is the k-means cell update `_cell_means`. After a
restart's first pass, `_refit_cells` refits only the cells that rows entered
or left, and `_nearest_flat` re-measures only the flats it replaced. Bases
from outside (`Flat(...)`, `FlatsModel.from_json_dict`) are checked finite
and orthonormal; the refits that `_flat_about` builds are not checked again.
The kernels read one contiguous (D, n) copy `Xt` per fit or `nearest` call, which
`_descend` passes on; |R|^2 at D >= 3 and some d = 1 projections drift in the last bit.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import Dataset
from .kmeans import (FitConfig, _best_of_restarts, _cell_means, _check_k, _descend,
                     _json_floats, _update_live, empirical_error, seed_kmeanspp)
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
        if not (np.isfinite(off).all() and np.isfinite(B).all()):
            raise ParameterError(f"{'basis' if np.isfinite(off).all() else 'offset'} is not finite")
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

    def __reduce__(self):  # frozen again when a forked restart returns it
        return Flat._trusted, (self.offset, self.basis, self.degenerate)

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
        if not 0.0 <= self.objective < np.inf:
            raise ParameterError("objective must be finite and >= 0")
        object.__setattr__(self, "flats", flats)

    @property
    def ambient_dim(self) -> int:
        return self.flats[0].ambient_dim

    def nearest(self, X: np.ndarray):
        """(d2, assign) of each row of `X`: the nearest flat, ties to the lowest."""
        return _nearest_flat(np.ascontiguousarray(X.T), self.flats)

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
                 basis=_json_floats(fo["basis"], "basis", (D, d), "F"),
                 degenerate=np.asarray(fo["degenerate_mask"], dtype=bool))
            for fo in obj["flats"])
        return cls(flats=flats, k=int(obj["k"]), d=d,
                   objective=float(obj["objective"]),
                   iterations=int(obj["iterations"]), seed=int(obj["seed"]))


def _dist2_matrix(Xt: np.ndarray, flats, out=None, measured=None) -> np.ndarray:
    """(k, n) squared residuals of the columns of `Xt`: |R|^2 over the rows of
    R = Xt - offset, less |B^T R|^2. Of a kept buffer `out`, only rows whose flat
    is not the object `measured` lists are recomputed (flats are frozen)."""
    if out is None:
        out, measured = np.empty((len(flats), Xt.shape[1])), [None] * len(flats)
    for j, f in enumerate(flats):
        if measured[j] is not f:
            R = Xt - f.offset[:, None]
            P = np.square(f.basis.T @ R)
            np.maximum(np.square(R, out=R).sum(axis=0) - P.sum(axis=0), 0.0, out=out[j])
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
    if not (0 <= d <= pts.shape[1]):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={pts.shape[1]}")
    return _refit_cells(pts.T, np.zeros(len(pts), np.intp), np.array([len(pts)]), d)[0]


def _flat_about(cell: np.ndarray, offset: np.ndarray, d: int) -> Flat:
    """The top-d principal directions of the non-empty (D, m) `cell` about
    `offset`, its mean."""
    basis, rank = np.zeros((cell.shape[0], d)), 0
    if d > 0 and cell.shape[1] > 1:
        _, s, vt = np.linalg.svd((cell - offset[:, None]).T, full_matrices=False)
        if s.size and s[0] > 0.0:
            tol = s[0] * max(cell.shape) * _EPS
            rank = min(d, int(np.count_nonzero(s > tol)))
            basis[:, :rank] = vt[:rank].T
    return Flat._trusted(offset, basis, np.arange(d) >= rank)


def _nearest_flat(Xt: np.ndarray, flats, out=None, measured=None):
    """(d2, assign) of each column of `Xt`: the nearest flat, ties to the lowest."""
    dist = _dist2_matrix(Xt, flats, out, measured)
    d2, assign = dist.min(axis=0), np.full(dist.shape[1], len(dist) - 1)
    for j in range(len(dist) - 2, -1, -1):  # downwards: a tie takes the lowest index
        np.putmask(assign, dist[j] == d2, j)
    return d2, assign


def _refit_cells(Xt: np.ndarray, assign: np.ndarray, counts: np.ndarray,
                 d: int, last=None) -> list:
    """k-flats cell update: the d-truncated PCA of every cell of the columns
    of `Xt`, about the k-means cell update's means. Given `last`, the
    (assign, flats) of `_descend`'s last pass, a cell that no row entered or
    left keeps its flat: a cell's flat depends only on its points, in row order."""
    redo = np.full(counts.size, last is None)
    if last is not None:
        moved = assign != last[0]
        redo[assign[moved]] = redo[last[0][moved]] = True
    return [_flat_about(np.compress(assign == j, Xt, axis=1), offset, d)
            if redo[j] else last[1][j]
            for j, offset in enumerate(_cell_means(Xt.T, assign, counts))]


def fit(data: Dataset, k: int, d: int, cfg: Optional[FitConfig] = None,
        seed: int = 0, trace_sink: Optional[list] = None) -> FlatsModel:
    """Best-of-restarts k-flats.

    Each restart seeds k centers by k-means++, refits their Voronoi cells
    by the k-flats cell update and makes each empty cell the degenerate
    flat through the point farthest from its nearest seed. It then
    alternates assign/refit until the assignment is stable, the relative
    objective decrease drops below cfg.rel_tol or cfg.max_iters passes ran.
    After the first refit, a pass refits and re-measures only the cells
    whose rows changed, with the bits of refitting and measuring them all.
    """
    cfg = cfg or FitConfig()
    if not (0 <= d <= data.ambient_dim):
        raise ParameterError(f"need 0 <= d <= D, got d={d}, D={data.ambient_dim}")
    _check_k(k, data.size)
    X, Xt = data.points, np.ascontiguousarray(data.points.T)

    def start(s):
        d2, assign = min_sqdist(X, seed_kmeanspp(data, k, s))
        far = int(np.argmax(d2))
        return _update_live(Xt, assign, partial(_refit_cells, d=d),
                            [_flat_about(Xt[:, [far]], X[far], d)] * k)

    flats, obj, iters, violations = _best_of_restarts(start, lambda f: _descend(
        Xt, f, partial(_nearest_flat, out=np.empty((k, len(X))), measured=[None] * k),
        partial(_refit_cells, d=d), cfg), cfg, seed, trace_sink, len(X) * k)
    return FlatsModel(flats=flats, k=k, d=d, objective=obj, iterations=iters,
                      seed=seed, descent_violations=violations)


def refit_residual(data: Dataset, model: FlatsModel) -> float:
    """Fixed-point certificate: objective change after one more assign+refit
    (a cell that the assignment leaves empty keeps its flat)."""
    Xt = np.ascontiguousarray(data.points.T)
    flats = _update_live(Xt, _nearest_flat(Xt, model.flats)[1],
                         partial(_refit_cells, d=model.d), model.flats)
    return abs(fsum_mean(_nearest_flat(Xt, flats)[0]) - model.objective)
