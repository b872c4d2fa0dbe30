"""Dataset file interchange: lossless binary container plus CSV import.

Container layout ("MRC1"): 4 magic bytes, little-endian u32 n, u32 D, then
n*D little-endian float64 values row-major, and nothing after them.
Lossless, so fits reproduce byte-identically across machines.
"""

import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError
from .geometry import Dataset

MAGIC = b"MRC1"


def write_dataset(path, dataset: Dataset) -> None:
    pts = dataset.points
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", pts.shape[0], pts.shape[1]))
        fh.write(pts.astype("<f8").tobytes(order="C"))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise DataFormatError(f"truncated container header (offset {len(raw)})")
    if raw[:4] != MAGIC:
        raise DataFormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r} (offset 0)")
    n, D = struct.unpack("<II", raw[4:12])
    need = 12 + 8 * n * D
    if len(raw) != need:
        what = "truncated payload" if len(raw) < need else "trailing bytes"
        raise DataFormatError(
            f"{what} in {path}: file ends at offset {len(raw)}, need {need}")
    pts = np.frombuffer(raw, dtype="<f8", count=n * D, offset=12).reshape(n, D)
    return _dataset(path, pts.astype(np.float64))


def read_csv_dataset(path) -> Dataset:
    """Convenience import: one point per line, comma-separated coordinates."""
    try:
        with warnings.catch_warnings():
            # an empty file warns here; _dataset rejects it
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"unparsable CSV {path}: {exc}") from exc
    return _dataset(path, pts)


def _dataset(path, pts) -> Dataset:
    """Dataset(pts); an empty, non-finite or too-large file is a DataFormatError."""
    try:
        return Dataset(pts)
    except ParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_any(path) -> Dataset:
    """Dispatch on extension: .csv via the CSV path, anything else as MRC1."""
    if Path(path).suffix.lower() == ".csv":
        return read_csv_dataset(path)
    return read_dataset(path)
