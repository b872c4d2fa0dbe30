"""Synthetic manifold samplers, dataset container, and MNIST ingestion.

All randomness goes through numpy's PCG64 generator (`np.random.default_rng`);
normal deviates use numpy's ziggurat implementation. Identical (parameters,
seed) therefore yield bit-identical datasets on a given numpy version, and
distribution-level reproducibility across implementations.
"""

import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataFormatError, ParameterError

MNIST_SCALE = 1.0 / (255.0 * 28.0)  # fixed scale putting any 28x28 image in the unit ball


@dataclass(frozen=True)
class Dataset:
    """Immutable n x D point cloud.

    The bound formulas assume data in the closed unit ball; everything the
    samplers and the MNIST reader produce satisfies `in_unit_ball`. Fitting
    accepts arbitrary finite point clouds (handy for small fixtures), so
    the ball condition is checked at the producing call sites rather than
    unconditionally here.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ParameterError("points must be a non-empty 2-d array")
        if not np.isfinite(pts).all():
            raise ParameterError("points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def in_unit_ball(self, slack: float = 1e-9) -> bool:
        return bool(np.linalg.norm(self.points, axis=1).max() <= 1.0 + slack)

    def require_unit_ball(self) -> "Dataset":
        if not self.in_unit_ball():
            raise ParameterError(
                f"row norm {np.linalg.norm(self.points, axis=1).max():.12g} "
                "exceeds the unit-ball bound")
        return self

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


def sample_sphere(d: int, D: int, n: int, seed: int) -> Dataset:
    """n i.i.d. uniform points on the unit d-sphere, zero-padded to R^D.

    The sphere lives in the first d+1 coordinates (results are rotation
    invariant, so the embedding is a free choice). Points are d+1 standard
    Gaussians normalized to unit length.
    """
    if not (1 <= d <= D - 1):
        raise ParameterError(f"need 1 <= d <= D-1, got d={d}, D={D}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d + 1))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = np.zeros((n, D))
    pts[:, :d + 1] = g
    return Dataset(pts).require_unit_ball()


def sample_flat_disk(d: int, D: int, n: int, seed: int) -> Dataset:
    """n uniform points on the unit d-ball embedded in the first d coordinates.

    Zero-curvature control case: a d-flat represents this data exactly.
    """
    if not (1 <= d <= D):
        raise ParameterError(f"need 1 <= d <= D, got d={d}, D={D}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / d)
    pts = np.zeros((n, D))
    pts[:, :d] = g * r[:, None]
    return Dataset(pts).require_unit_ball()


def load_mnist(images_path, limit: Optional[int] = None) -> Dataset:
    """Read an IDX3 image file into a Dataset of flattened 784-vectors.

    Big-endian layout: magic 0x00000803, item count, rows, cols, then
    count*rows*cols unsigned bytes row-major. Each image is scaled by
    1/(255*28) so its Euclidean norm is at most 1 while relative geometry
    is preserved. Labels are never read.
    """
    with open(images_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise DataFormatError(
            f"truncated IDX header: {len(raw)} bytes, need 16 (offset 0)")
    magic, count, rows, cols = struct.unpack(">iiii", raw[:16])
    if magic != 2051:
        raise DataFormatError(f"bad magic {magic}, expected 2051 (offset 0)")
    if rows != 28 or cols != 28:
        raise DataFormatError(
            f"image dims {rows}x{cols}, expected 28x28 (offset 8)")
    if count < 1:
        raise DataFormatError(
            f"{images_path}: item count {count}, need at least 1 (offset 4)")
    take = count if limit is None else min(limit, count)
    if take < 1:
        raise ParameterError("limit leaves no images to read")
    need = 16 + take * rows * cols
    if len(raw) < need:
        raise DataFormatError(
            f"truncated image payload: file ends at offset {len(raw)}, "
            f"need {need}")
    pix = np.frombuffer(raw, dtype=np.uint8, count=take * rows * cols,
                        offset=16)
    pts = pix.reshape(take, rows * cols).astype(np.float64) * MNIST_SCALE
    return Dataset(pts).require_unit_ball()


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit d-ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_volume(d: int) -> float:
    """d-dimensional volume (surface measure) of the unit d-sphere S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


@dataclass(frozen=True)
class ManifoldSpec:
    """Which manifold to sample, plus the scalars the bound formulas need.

    kind: "sphere" (unit d-sphere in R^D), "circle" (d=1 sphere), or
    "disk" (flat unit d-ball, zero curvature).

    density_norm is the integral of p^{d/(d+2)} over the manifold;
    curvature is the total-root-curvature scalar for hypersurfaces (or a
    user-supplied total curvature in higher codimension). When omitted,
    uniform-density defaults are filled in.
    """

    kind: str
    intrinsic_dim: int
    ambient_dim: int
    density_norm: Optional[float] = None
    curvature: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("sphere", "circle", "disk"):
            raise ParameterError(f"unknown manifold kind {self.kind!r}")
        d, D = self.intrinsic_dim, self.ambient_dim
        if self.kind == "circle" and d != 1:
            raise ParameterError("circle has intrinsic_dim 1")
        if self.kind in ("sphere", "circle") and not (1 <= d <= D - 1):
            raise ParameterError(f"sphere needs 1 <= d <= D-1, got d={d}, D={D}")
        if self.kind == "disk" and not (1 <= d <= D):
            raise ParameterError(f"disk needs 1 <= d <= D, got d={d}, D={D}")
        if self.density_norm is not None and not 0.0 < self.density_norm < math.inf:
            raise ParameterError("density_norm must be positive and finite")
        if self.curvature is not None and not 0.0 <= self.curvature < math.inf:
            raise ParameterError("curvature must be finite and non-negative")

    def sample(self, n: int, seed: int) -> Dataset:
        if self.kind in ("sphere", "circle"):
            return sample_sphere(self.intrinsic_dim, self.ambient_dim, n, seed)
        return sample_flat_disk(self.intrinsic_dim, self.ambient_dim, n, seed)

    def effective_density_norm(self) -> float:
        """density_norm, defaulting to Vol(M)^{2/(d+2)} for uniform density."""
        if self.density_norm is not None:
            return self.density_norm
        d = self.intrinsic_dim
        vol = unit_ball_volume(d) if self.kind == "disk" else sphere_surface_volume(d)
        return vol ** (2.0 / (d + 2.0))

    def effective_curvature(self) -> float:
        """Total root curvature, defaulting to Vol(S^d) for spheres, 0 for disks."""
        if self.curvature is not None:
            return self.curvature
        if self.kind == "disk":
            return 0.0
        return sphere_surface_volume(self.intrinsic_dim)
