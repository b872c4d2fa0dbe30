"""Binary dataset container and CSV ingestion."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_recon import storage
from manifold_recon.errors import DataFormatError
from manifold_recon.geometry import Dataset


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(17, 5)))
    path = tmp_path / "data.mrc1"
    storage.write_dataset(path, ds)
    back = storage.read_dataset(path)
    assert np.array_equal(back.points, ds.points)


def test_magic_and_corruption(tmp_path):
    path = tmp_path / "data.mrc1"
    storage.write_dataset(path, Dataset(np.ones((2, 2))))
    raw = bytearray(path.read_bytes())
    assert raw[:4] == storage.MAGIC
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        storage.read_dataset(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "data.mrc1"
    storage.write_dataset(path, Dataset(np.ones((4, 3))))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFormatError):
        storage.read_dataset(path)


def test_csv_reader(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0.5,1.5\n-0.25,2.0\n")
    ds = storage.read_csv_dataset(path)
    assert np.array_equal(ds.points, [[0.5, 1.5], [-0.25, 2.0]])


def test_csv_rejects_ragged_and_non_numeric(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(DataFormatError):
        storage.read_csv_dataset(ragged)
    words = tmp_path / "words.csv"
    words.write_text("1,apple\n")
    with pytest.raises(DataFormatError):
        storage.read_csv_dataset(words)


def test_load_any_dispatch(tmp_path):
    ds = Dataset(np.full((3, 2), 0.25))
    bin_path = tmp_path / "d.mrc1"
    csv_path = tmp_path / "d.csv"
    storage.write_dataset(bin_path, ds)
    csv_path.write_text("0.25,0.25\n" * 3)
    assert np.array_equal(storage.load_any(bin_path).points, ds.points)
    assert np.array_equal(storage.load_any(csv_path).points, ds.points)


@settings(max_examples=200, deadline=None)
@given(magic=st.one_of(st.just(storage.MAGIC), st.binary(min_size=4, max_size=4)),
       n=st.one_of(st.integers(0, 6), st.integers(0, 2 ** 32 - 1)),
       D=st.one_of(st.integers(0, 6), st.integers(0, 2 ** 32 - 1)),
       extra=st.integers(-12, 12), cut=st.integers(0, 16), seed=st.integers(0, 2 ** 32))
def test_header_fuzz_raises_only_data_errors(tmp_path_factory, magic, n, D, extra,
                                             cut, seed):
    """Any header, payload length or truncation reads or is a DataFormatError."""
    size = max(0, min(8 * n * D, 4096) + extra)
    payload = np.random.default_rng(seed).bytes(size)
    raw = magic + struct.pack("<II", n, D) + payload
    path = tmp_path_factory.getbasetemp() / "fuzz.mrc1"
    path.write_bytes(raw[:max(0, len(raw) - cut)])
    try:
        ds = storage.read_dataset(path)
    except DataFormatError:
        return
    assert ds.points.shape == (n, D)
