"""Closed-form parameter schedules, statistical bounds, and decompositions.

All evaluators are pure and total on valid inputs. The quantization
constant is only known asymptotically, so its asymptote in the intrinsic
dimension is used as the default numeric surrogate; every formula accepts
an override. Reported bounds should be read as "with surrogate constant".
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ParameterError
from .geometry import unit_ball_volume

_TWO_PI_E = 2.0 * math.pi * math.e


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")


def _check_density_norm(density_norm: float) -> None:
    if not (0.0 < density_norm < math.inf):
        raise ParameterError(f"density_norm must be finite and > 0, got {density_norm}")


def _check_curvature(curvature: float) -> None:
    if not (0.0 <= curvature < math.inf):
        raise ParameterError(f"curvature must be finite and >= 0, got {curvature}")


def quantization_constant(d: int, order: int = 2) -> float:
    """Asymptotic surrogate for the optimal-quantizer constant.

    order=2 gives d/(2*pi*e) (point quantizers); order=4 gives its square
    (fourth-order quantization, the flats case).
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if order not in (2, 4):
        raise ParameterError("order must be 2 or 4")
    base = d / _TWO_PI_E
    return base if order == 2 else base * base


def stat_kmeans(n: int, k: int, delta: float) -> float:
    """High-probability uniform deviation bound for k point centers:
    k*sqrt(18*pi/n) + sqrt(8*ln(1/delta)/n)."""
    _check_delta(delta)
    if n < 1 or k < 1:
        raise ParameterError("n and k must be >= 1")
    return k * math.sqrt(18.0 * math.pi / n) + math.sqrt(8.0 * math.log(1.0 / delta) / n)


def stat_kflats(n: int, k: int, d: int, delta: float) -> float:
    """Uniform deviation bound for k affine d-flats:
    k*sqrt(2*pi*d/n) + sqrt(ln(1/delta)/(2n))."""
    _check_delta(delta)
    if n < 1 or k < 1 or d < 1:
        raise ParameterError("n, k, d must be >= 1")
    return k * math.sqrt(2.0 * math.pi * d / n) + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def approx_kmeans(k: float, d: int, density_norm: float,
                  C_d: Optional[float] = None) -> float:
    """Zador-form approximation error for k centers:
    C * k^{-2/d} * density_norm^{(d+2)/d}.

    density_norm is the integral of p^{d/(d+2)}; the Zador constant
    multiplies its (d+2)/d power.
    """
    _check_density_norm(density_norm)
    C = quantization_constant(d, 2) if C_d is None else C_d
    return C * k ** (-2.0 / d) * density_norm ** ((d + 2.0) / d)


def approx_kflats(k: float, d: int, curvature: float,
                  C_d: Optional[float] = None) -> float:
    """Curvature-controlled approximation error for k d-flats:
    C * (curvature / k)^{4/d}."""
    _check_curvature(curvature)
    C = quantization_constant(d, 4) if C_d is None else C_d
    return C * (curvature / k) ** (4.0 / d)


def kn_kmeans(n: int, d: int, density_norm: float,
              C_d: Optional[float] = None) -> float:
    """Model size balancing the statistical and approximation summands:
    n^{d/(2(d+2))} * (C/(24*sqrt(pi)))^{d/(d+2)} * density_norm.

    Real-valued; round to max(1, round(k_n)) before fitting.
    """
    _check_density_norm(density_norm)
    C = quantization_constant(d, 2) if C_d is None else C_d
    return (n ** (d / (2.0 * (d + 2))) * (C / (24.0 * math.sqrt(math.pi))) ** (d / (d + 2.0))
            * density_norm)


def kn_kflats(n: int, d: int, curvature: float,
              C_d: Optional[float] = None) -> float:
    """Flats-schedule analogue:
    n^{d/(2(d+4))} * (C/(2*sqrt(2*pi*d)))^{d/(d+4)} * curvature^{4/(d+4)}."""
    _check_curvature(curvature)
    C = quantization_constant(d, 4) if C_d is None else C_d
    return (n ** (d / (2.0 * (d + 4))) * (C / (2.0 * math.sqrt(2.0 * math.pi * d))) ** (d / (d + 4.0))
            * curvature ** (4.0 / (d + 4)))


def holder_density_bound(d: int) -> float:
    """Density-free fallback for density_norm: omega_d^{2/(d+2)} with
    omega_d the unit-ball volume. Valid for any density on a manifold in
    the unit ball of R^d."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    return unit_ball_volume(d) ** (2.0 / (d + 2.0))


@dataclass(frozen=True)
class BoundInputs:
    n: int
    k: int
    d: int
    delta: float
    density_norm: float
    curvature: float = 0.0
    C_d: Optional[float] = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.d < 1:
            raise ParameterError("n, k, d must be >= 1")
        _check_delta(self.delta)
        _check_density_norm(self.density_norm)
        _check_curvature(self.curvature)
        if self.C_d is not None and not (0.0 < self.C_d < math.inf):
            raise ParameterError(f"C_d must be finite and > 0, got {self.C_d}")


@dataclass(frozen=True)
class BoundReport:
    """Bound decomposition for one (n, k) cell, inputs echoed for audit."""

    family: str
    statistical: float
    approximation: float
    total: float
    k_n: float
    measured_gap: float
    inputs: BoundInputs

    def to_json_dict(self) -> dict:
        return asdict(self)


def decompose(empirical: float, holdout: float, inputs: BoundInputs,
              family: str = "kmeans") -> BoundReport:
    """Measured empirical/hold-out gap next to the theoretical terms.

    total = 2 * statistical + approximation; the statistical term is the
    family's uniform deviation bound and the approximation term the
    Zador/curvature form at the given k.
    """
    if not (math.isfinite(empirical) and math.isfinite(holdout)):
        raise ParameterError("empirical and holdout must be finite")
    if family == "kmeans":
        stat = stat_kmeans(inputs.n, inputs.k, inputs.delta)
        approx = approx_kmeans(inputs.k, inputs.d, inputs.density_norm, inputs.C_d)
        k_n = kn_kmeans(inputs.n, inputs.d, inputs.density_norm, inputs.C_d)
    elif family == "kflats":
        stat = stat_kflats(inputs.n, inputs.k, inputs.d, inputs.delta)
        approx = approx_kflats(inputs.k, inputs.d, inputs.curvature, inputs.C_d)
        k_n = kn_kflats(inputs.n, inputs.d, inputs.curvature, inputs.C_d)
    else:
        raise ParameterError(f"unknown family {family!r}")
    return BoundReport(family=family, statistical=stat, approximation=approx,
                       total=2.0 * stat + approx, k_n=k_n,
                       measured_gap=abs(holdout - empirical), inputs=inputs)
