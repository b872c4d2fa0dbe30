"""Samplers, the dataset container, and the IDX image reader."""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_recon import geometry
from manifold_recon.errors import DataFormatError, ParameterError
from manifold_recon.geometry import (Dataset, ManifoldSpec, load_mnist,
                                     sample_flat_disk, sample_sphere,
                                     sphere_surface_volume, unit_ball_volume)


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        Dataset(np.zeros(3))
    with pytest.raises(ParameterError):
        Dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(ParameterError):
        Dataset(np.array([[np.inf, 0.0]]))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((0, 2)))


def test_dataset_unit_ball_check():
    assert Dataset(np.array([[0.6, 0.8]])).in_unit_ball()
    assert not Dataset(np.array([[1.0, 1.0]])).in_unit_ball()
    with pytest.raises(ParameterError):
        Dataset(np.array([[2.0, 0.0]])).require_unit_ball()


def test_sphere_points_have_unit_norm():
    ds = sample_sphere(d=2, D=3, n=500, seed=42)
    norms = np.linalg.norm(ds.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_sphere_embedding_pads_with_zeros():
    ds = sample_sphere(d=1, D=5, n=100, seed=0)
    assert ds.points.shape == (100, 5)
    assert np.all(ds.points[:, 2:] == 0.0)
    assert np.max(np.abs(np.linalg.norm(ds.points[:, :2], axis=1) - 1.0)) < 1e-12


def test_sphere_is_roughly_uniform():
    # each coordinate of a uniform point on S^2 has mean 0, variance 1/3
    ds = sample_sphere(d=2, D=3, n=40_000, seed=7)
    assert np.max(np.abs(ds.points.mean(axis=0))) < 0.02
    assert np.max(np.abs(ds.points.var(axis=0) - 1.0 / 3.0)) < 0.01


def test_flat_disk_radius_law():
    ds = sample_flat_disk(d=2, D=4, n=50_000, seed=3)
    assert np.all(ds.points[:, 2:] == 0.0)
    r = np.linalg.norm(ds.points[:, :2], axis=1)
    assert r.max() <= 1.0
    # uniform on the disk: P(r <= t) = t^2
    assert abs(np.mean(r <= 0.5) - 0.25) < 0.01
    assert abs(np.mean(r <= 0.9) - 0.81) < 0.01


def test_samplers_are_deterministic():
    a = sample_sphere(d=3, D=6, n=64, seed=11)
    b = sample_sphere(d=3, D=6, n=64, seed=11)
    c = sample_sphere(d=3, D=6, n=64, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sampler_validation():
    with pytest.raises(ParameterError):
        sample_sphere(d=3, D=3, n=5, seed=0)   # needs D >= d+1
    with pytest.raises(ParameterError):
        sample_flat_disk(d=3, D=2, n=5, seed=0)
    with pytest.raises(ParameterError):
        sample_sphere(d=0, D=3, n=5, seed=0)
    with pytest.raises(ParameterError):
        sample_sphere(d=1, D=3, n=0, seed=0)


def test_volumes_match_gamma_function():
    mpmath.mp.dps = 30
    for d in range(1, 12):
        ball = mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
        surf = 2 * mpmath.pi ** (mpmath.mpf(d + 1) / 2) / mpmath.gamma(mpmath.mpf(d + 1) / 2)
        assert abs(unit_ball_volume(d) - float(ball)) < 1e-13 * float(ball)
        assert abs(sphere_surface_volume(d) - float(surf)) < 1e-13 * float(surf)
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(sphere_surface_volume(1) - 2 * math.pi) < 1e-14


# -- IDX reader ---------------------------------------------------------------

def idx_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">iiii", 2051, n, rows, cols) + images.astype(np.uint8).tobytes()


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    path = tmp_path / "images.idx3-ubyte"
    path.write_bytes(idx_bytes(imgs))
    ds = load_mnist(path)
    assert ds.points.shape == (5, 784)
    expected = imgs.reshape(5, 784).astype(float) * geometry.MNIST_SCALE
    assert np.allclose(ds.points, expected, rtol=0, atol=0)
    # the 1/(255*28) scaling puts every image inside the unit ball
    assert ds.in_unit_ball()
    # even the all-white image lands inside the ball (up to round-off)
    assert np.linalg.norm(np.full(784, 255.0) * geometry.MNIST_SCALE) <= 1.0 + 1e-12


def test_idx_limit(tmp_path):
    imgs = np.zeros((10, 28, 28), dtype=np.uint8)
    path = tmp_path / "images.idx3-ubyte"
    path.write_bytes(idx_bytes(imgs))
    assert load_mnist(path, limit=3).points.shape == (3, 784)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx3-ubyte"
    path.write_bytes(struct.pack(">iiii", 2049, 1, 28, 28) + b"\x00" * 784)
    with pytest.raises(DataFormatError):
        load_mnist(path)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx3-ubyte"
    path.write_bytes(struct.pack(">iiii", 2051, 2, 28, 28) + b"\x00" * 784)
    with pytest.raises(DataFormatError):
        load_mnist(path)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "tiny.idx3-ubyte"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(DataFormatError):
        load_mnist(path)


def test_idx_without_images_is_data_error(tmp_path):
    path = tmp_path / "none.idx3-ubyte"
    for count in (0, -1):
        path.write_bytes(struct.pack(">iiii", 2051, count, 28, 28))
        with pytest.raises(DataFormatError, match="offset 4"):
            load_mnist(path)
    path.write_bytes(idx_bytes(np.zeros((2, 28, 28))))
    with pytest.raises(ParameterError):
        load_mnist(path, limit=0)


_INT32 = st.integers(-2 ** 31, 2 ** 31 - 1)


@settings(max_examples=200, deadline=None)
@given(magic=st.one_of(st.just(2051), _INT32),
       count=st.one_of(st.integers(-2, 5), _INT32),
       rows=st.one_of(st.just(28), _INT32), cols=st.one_of(st.just(28), _INT32),
       extra=st.integers(-20, 20), cut=st.integers(0, 20), seed=st.integers(0, 2 ** 32))
def test_idx_header_fuzz_raises_only_data_errors(tmp_path_factory, magic, count, rows,
                                                 cols, extra, cut, seed):
    """Any header, payload length or truncation reads or is a DataFormatError."""
    size = max(0, min(count * 784, 5 * 784) + extra)
    payload = np.random.default_rng(seed).bytes(size)
    raw = struct.pack(">iiii", magic, count, rows, cols) + payload
    path = tmp_path_factory.getbasetemp() / "fuzz.idx3-ubyte"
    path.write_bytes(raw[:max(0, len(raw) - cut)])
    try:
        ds = load_mnist(path)
    except DataFormatError:
        return
    assert ds.points.shape == (count, 784)


# -- manifold specs -----------------------------------------------------------

def test_manifold_spec_sphere_defaults():
    spec = ManifoldSpec(kind="sphere", intrinsic_dim=2, ambient_dim=3)
    ds = spec.sample(200, seed=5)
    assert np.max(np.abs(np.linalg.norm(ds.points, axis=1) - 1.0)) < 1e-12
    # uniform-measure defaults: Vol^{2/(d+2)} and the surface total curvature
    vol = sphere_surface_volume(2)
    assert abs(spec.effective_density_norm() - vol ** 0.5) < 1e-12
    assert abs(spec.effective_curvature() - vol) < 1e-12


def test_manifold_spec_disk():
    spec = ManifoldSpec(kind="disk", intrinsic_dim=2, ambient_dim=5)
    ds = spec.sample(100, seed=1)
    assert ds.points.shape == (100, 5)
    assert abs(spec.effective_density_norm() - math.pi ** 0.5) < 1e-12
    assert spec.effective_curvature() == 0.0


def test_manifold_spec_overrides_and_validation():
    spec = ManifoldSpec(kind="circle", intrinsic_dim=1, ambient_dim=2,
                        density_norm=2.5, curvature=1.25)
    assert spec.effective_density_norm() == 2.5
    assert spec.effective_curvature() == 1.25
    for kind in ("torus", "custom"):
        with pytest.raises(ParameterError):
            ManifoldSpec(kind=kind, intrinsic_dim=2, ambient_dim=4)
    with pytest.raises(ParameterError):
        ManifoldSpec(kind="circle", intrinsic_dim=2, ambient_dim=3)
