"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid argument combination (dimensions, counts, ranges)."""


class DataFormatError(ValueError):
    """Malformed input file. Message includes the byte offset when known."""


class EnumerationLimitError(ParameterError):
    """Brute-force instance exceeds the enumeration budget."""


class WorkerError(RuntimeError):
    """A worker process ended without returning its results."""
