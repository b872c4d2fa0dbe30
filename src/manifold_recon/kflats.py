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
and orthonormal, and their normals derived once; the refits that
`_refit_cells` builds are not checked again. The kernels read one contiguous
(D, n) copy `Xt` per fit or `nearest` call, which `_descend` passes on.
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
# (LAPACK's eigh of the cell scatter is far inside this for unit-ball data).
# Ties leave the basis non-unique; only the projection B B^T is contractual.
EIG_RESIDUAL_TOL = 1e-10
_EPS = np.finfo(np.float64).eps


def _by_normals(D: int, d: int) -> bool:
    """Distances to d-flats in R^D go along their D - d normals if there are
    d + 1 or fewer, else along the basis, as |R - B B^T R|^2."""
    return D <= 2 * d + 1


@dataclass(frozen=True)
class Flat:
    """Affine d-flat: offset point plus d orthonormal direction columns.

    Zero columns (flagged via `degenerate`) stand in for directions a
    rank-deficient cell could not determine; they contribute nothing to
    projections. `normals` (D - r orthonormal columns, r live ones) spans the
    rest of R^D where distances read it (`_by_normals`), else is None; equality
    and the model file ignore it. `Flat(...)` checks |B^T B - diag(~degenerate)|
    <= 1e-9 and derives the normals; refits pass theirs in, unchecked (`_trusted`).
    """

    offset: np.ndarray
    basis: np.ndarray
    degenerate: np.ndarray
    normals: Optional[np.ndarray] = field(init=False, compare=False, repr=False)

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
        live = B[:, ~mask]  # B B^T has eigenvalue 0 on the normals, 1 on the basis
        self._freeze(off, B, mask, np.linalg.eigh(live @ live.T)[1][:, :len(off) - live.shape[1]]
                     if _by_normals(*B.shape) else None)

    def _freeze(self, *arrays):
        for name, a in zip(("offset", "basis", "degenerate", "normals"), arrays):
            if a is not None:
                a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __reduce__(self):  # frozen again when a forked restart returns it
        return Flat._trusted, (self.offset, self.basis, self.degenerate, self.normals)

    @classmethod
    def _trusted(cls, offset, basis, degenerate, normals):
        """A Flat of arrays known valid, as `_refit_cells` builds them, frozen
        without the checks; it keeps the normals where distances read them."""
        flat = object.__new__(cls)
        flat._freeze(offset, basis, degenerate, normals if _by_normals(*basis.shape) else None)
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
    """(k, n) squared residuals |N^T (x - o)|^2 of the columns x of `Xt`: one
    product of the flats' stacked normals N with the points centred at the
    first, z, less N^T (o - z). Of a kept buffer `out`, only rows whose flat
    is not the object `measured` lists are recomputed (flats are frozen)."""
    if out is None:
        out, measured = np.empty((len(flats), Xt.shape[1])), [None] * len(flats)
    redo = [j for j, f in enumerate(flats) if measured[j] is not f]
    measured[:] = flats
    if not redo or flats[0].normals is None:  # R - B B^T R of R = x - o, flat by flat
        for j in redo:
            R = Xt - flats[j].offset[:, None]
            R -= flats[j].basis @ (flats[j].basis.T @ R)
            np.einsum("ij,ij->j", R, R, out=out[j])
        return out
    (D, n), z = Xt.shape, Xt[:, :1]
    N = np.zeros((len(redo), max(flats[j].normals.shape[1] for j in redo), D))
    for row, j in zip(N, redo):  # a flat with fewer normals gets zero rows
        row[:flats[j].normals.shape[1]] = flats[j].normals.T
    c = N.shape[1]
    b = N @ (np.array([flats[j].offset for j in redo])[:, :, None] - z)
    P = np.matmul(N.reshape(-1, D), Xt - z, out=out if c == 1 and len(redo) == len(out) else None)
    P -= b.reshape(-1, 1)
    np.square(P, out=P)
    if P is not out:
        out[redo] = P.reshape(len(redo), c, n).sum(axis=1)
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


def _nearest_flat(Xt: np.ndarray, flats, out=None, measured=None):
    """(d2, assign) of each column of `Xt`: the nearest flat, ties to the lowest."""
    dist = _dist2_matrix(Xt, flats, out, measured)
    d2, assign = dist.min(axis=0), np.full(dist.shape[1], len(dist) - 1)
    for j in range(len(dist) - 2, -1, -1):  # downwards: a tie takes the lowest index
        np.putmask(assign, dist[j] == d2, j)
    return d2, assign


def _refit_cells(Xt: np.ndarray, assign: np.ndarray, counts: np.ndarray,
                 d: int, last=None) -> list:
    """k-flats cell update: the d-truncated PCA of each cell of the columns of
    `Xt` about its `_cell_means` mean, by one batched `eigh` of the scatters:
    basis the top d eigenvectors, normals the bottom D - r, rank r the count
    above max(m, D) eps times the largest for m rows (unsquared: eigh leaves
    ~eps times that on a zero one). Given `last`, the (assign, flats) of the
    last pass, a cell that no row entered or left keeps its flat."""
    redo = np.full(counts.size, last is None)
    if last is not None:
        moved = assign != last[0]
        redo[assign[moved]] = redo[last[0][moved]] = True
    offsets, cells, D = _cell_means(Xt.T, assign, counts), np.flatnonzero(redo), Xt.shape[0]
    S = np.empty((cells.size, D, D))
    for scatter, j in zip(S, cells):
        R = np.compress(assign == j, Xt, axis=1) - offsets[j][:, None]
        np.matmul(R, R.T, out=scatter)
    lam, V = np.linalg.eigh(S)  # ascending
    rank = np.minimum(d, (lam > lam[:, -1:] * (np.maximum(counts[cells], D) * _EPS)[:, None]).sum(1))
    live = np.arange(d) < rank[:, None]
    bases = np.where(live[:, None], V[:, :, ::-1][:, :, :d], 0.0)
    flats = list(last[1]) if last is not None else [None] * counts.size
    for j, basis, dead, normals, c in zip(cells.tolist(), bases, ~live, V, (D - rank).tolist()):
        flats[j] = Flat._trusted(offsets[j], basis, dead, normals[:, :c])
    return flats


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
    X, Xt, D = data.points, np.ascontiguousarray(data.points.T), data.ambient_dim

    def start(s):
        d2, assign = min_sqdist(X, seed_kmeanspp(data, k, s))
        far = int(np.argmax(d2))
        return _update_live(Xt, assign, partial(_refit_cells, d=d), [Flat._trusted(
            X[far], np.zeros((D, d)), np.ones(d, bool), np.eye(D))] * k)

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
