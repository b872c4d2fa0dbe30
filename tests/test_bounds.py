"""Closed-form bound evaluators against a high-precision independent route.

Every formula is re-evaluated with mpmath at 40 digits and the float
implementation must agree to near machine precision.  A handful of values
are additionally frozen as decimal literals so a regression in either
route is caught.
"""

import math

import mpmath
import pytest
from mpmath import mpf

from manifold_recon import bounds
from manifold_recon.errors import ParameterError
from manifold_recon.geometry import ManifoldSpec
from manifold_recon.kmeans import FitConfig

mpmath.mp.dps = 40

REL = 1e-13


def mp_quant_const(d, order=2):
    base = mpf(d) / (2 * mpmath.pi * mpmath.e)
    return base if order == 2 else base * base


def mp_stat_kmeans(n, k, delta):
    return k * mpmath.sqrt(18 * mpmath.pi / n) + mpmath.sqrt(8 * mpmath.log(1 / mpf(delta)) / n)


def mp_stat_kflats(n, k, d, delta):
    return k * mpmath.sqrt(2 * mpmath.pi * d / n) + mpmath.sqrt(mpmath.log(1 / mpf(delta)) / (2 * n))


def mp_kn_kmeans(n, d, dn):
    C = mp_quant_const(d)
    return (mpf(n) ** (mpf(d) / (2 * (d + 2)))
            * (C / (24 * mpmath.sqrt(mpmath.pi))) ** (mpf(d) / (d + 2)) * mpf(dn))


def mp_kn_kflats(n, d, kap):
    C = mp_quant_const(d, 4)
    return (mpf(n) ** (mpf(d) / (2 * (d + 4)))
            * (C / (2 * mpmath.sqrt(2 * mpmath.pi * d))) ** (mpf(d) / (d + 4))
            * mpf(kap) ** (mpf(4) / (d + 4)))


def rel_err(a, b):
    return abs(float(a) - float(b)) / abs(float(b))


# -- frozen reference values (mpmath, 40 digits, truncated to double) -------

FROZEN = [
    (lambda: bounds.stat_kmeans(10_000, 10, 0.05), 0.8009434190029164816522501247405),
    (lambda: bounds.stat_kflats(10_000, 10, 2, 0.05), 0.3667295043345072881915136314925),
    (lambda: bounds.stat_kflats(10 ** 6, 1, 1, 0.5), 0.0030953332858887378),
    (lambda: bounds.stat_kmeans(1, 1, math.exp(-1)), 10.348311948639191),
    (lambda: bounds.holder_density_bound(2), 1.7724538509055160272981674833411),
    (lambda: bounds.holder_density_bound(1), 1.5874010519681994),
    (lambda: bounds.sphere_curvature(2), 12.566370614359172953850573533118),
    (lambda: bounds.kn_kmeans(10_000, 2, 1.7724538509055160272981674833411),
     0.9299501525850219634227456358592),
    (lambda: bounds.kn_kflats(10_000, 2, 12.566370614359172953850573533118),
     3.1258300629484807815910817074522),
    (lambda: bounds.rate_kmeans(10_000, 2, 0.05, 1.7724538509055160272981674833411),
     1.3693906014016686523311137376135),
    (lambda: bounds.rate_kflats(10_000, 2, 0.05, 12.566370614359172953850573533118),
     0.5424588367418035195147386071472),
    (lambda: bounds.quantization_constant(2), 2.0 / (2.0 * math.pi * math.e)),
    (lambda: bounds.quantization_constant(3, order=4), (3.0 / (2.0 * math.pi * math.e)) ** 2),
]


@pytest.mark.parametrize("fn,expected", FROZEN)
def test_frozen_values(fn, expected):
    assert rel_err(fn(), expected) < REL


# -- dual-route grids --------------------------------------------------------

@pytest.mark.parametrize("n", [10, 1_000, 10 ** 6])
@pytest.mark.parametrize("k", [1, 7, 100])
@pytest.mark.parametrize("delta", [0.5, 0.05, 1e-6])
def test_stat_bounds_match_mpmath(n, k, delta):
    assert rel_err(bounds.stat_kmeans(n, k, delta), mp_stat_kmeans(n, k, delta)) < REL
    for d in (1, 2, 5):
        assert rel_err(bounds.stat_kflats(n, k, d, delta),
                       mp_stat_kflats(n, k, d, delta)) < REL


@pytest.mark.parametrize("n", [100, 10 ** 5])
@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_schedules_match_mpmath(n, d):
    dn = bounds.holder_density_bound(d)
    kap = bounds.sphere_curvature(d)
    assert rel_err(bounds.kn_kmeans(n, d, dn), mp_kn_kmeans(n, d, dn)) < REL
    assert rel_err(bounds.kn_kflats(n, d, kap), mp_kn_kflats(n, d, kap)) < REL


# -- exact structural identities ---------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_power_law_scalings(d):
    """Exponent arithmetic: scaling n by r moves each quantity by the
    advertised power of r exactly (up to float rounding)."""
    n, r = 3_000, 16
    dn, kap = 1.3, 2.7
    assert rel_err(bounds.kn_kmeans(n * r, d, dn),
                   bounds.kn_kmeans(n, d, dn) * r ** (d / (2.0 * (d + 2)))) < REL
    assert rel_err(bounds.kn_kflats(n * r, d, kap),
                   bounds.kn_kflats(n, d, kap) * r ** (d / (2.0 * (d + 4)))) < REL
    assert rel_err(bounds.rate_kmeans(n * r, d, 0.05, dn),
                   bounds.rate_kmeans(n, d, 0.05, dn) * r ** (-1.0 / (d + 2))) < REL
    assert rel_err(bounds.rate_kflats(n * r, d, 0.05, kap),
                   bounds.rate_kflats(n, d, 0.05, kap) * r ** (-2.0 / (d + 4))) < REL
    # statistical terms shrink as 1/sqrt(n); approximation terms as k powers
    assert rel_err(bounds.stat_kmeans(4 * n, 5, 0.1),
                   bounds.stat_kmeans(n, 5, 0.1) / 2.0) < REL
    assert rel_err(bounds.approx_kmeans(2.0, d, dn),
                   bounds.approx_kmeans(1.0, d, dn) * 2.0 ** (-2.0 / d)) < REL
    assert rel_err(bounds.approx_kflats(2.0, d, kap),
                   bounds.approx_kflats(1.0, d, kap) * 2.0 ** (-4.0 / d)) < REL


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [50, 2_000, 10 ** 6])
def test_summand_balancing_at_kn(n, d):
    """At k = k_n the approximation term equals the k-linear statistical
    summand times the balancing constant used in the derivation."""
    dn = bounds.holder_density_bound(d)
    kn = bounds.kn_kmeans(n, d, dn)
    assert rel_err(bounds.approx_kmeans(kn, d, dn),
                   24.0 * math.sqrt(math.pi) * kn / math.sqrt(n)) < 1e-9

    kap = bounds.sphere_curvature(max(d, 1))
    knf = bounds.kn_kflats(n, d, kap)
    assert rel_err(bounds.approx_kflats(knf, d, kap),
                   2.0 * math.sqrt(2.0 * math.pi * d) * knf / math.sqrt(n)) < 1e-9
    # for flats the constant is exactly twice the leading stat summand
    lead = knf * math.sqrt(2.0 * math.pi * d / n)
    assert rel_err(bounds.approx_kflats(knf, d, kap), 2.0 * lead) < 1e-9


def test_rate_kmeans_plusplus_exceeds_plain():
    plain = bounds.rate_kmeans(10 ** 4, 2, 0.05, 1.5)
    pp = bounds.rate_kmeans(10 ** 4, 2, 0.05, 1.5, plusplus=True)
    assert pp > plain
    # the seeding factor contributes at least the bare 16/2 * 2 = 16x core
    assert pp > 8.0 * plain


def test_quantization_constant_order4_is_square():
    for d in range(1, 8):
        assert rel_err(bounds.quantization_constant(d, 4),
                       bounds.quantization_constant(d, 2) ** 2) < REL


# -- decompose / report -------------------------------------------------------

def test_decompose_total_and_gap():
    inp = bounds.BoundInputs(n=2000, k=8, d=2, delta=0.05,
                             density_norm=bounds.holder_density_bound(2))
    rep = bounds.decompose(0.31, 0.33, inp)
    assert rep.family == "kmeans"
    assert abs(rep.total - (2.0 * rep.statistical + rep.approximation)) < 1e-12
    assert abs(rep.measured_gap - 0.02) < 1e-12
    assert rep.statistical == bounds.stat_kmeans(2000, 8, 0.05)
    assert rep.approximation == bounds.approx_kmeans(8, 2, inp.density_norm)
    assert rep.k_n == bounds.kn_kmeans(2000, 2, inp.density_norm)


def test_decompose_zero_gap():
    inp = bounds.BoundInputs(n=100, k=2, d=1, delta=0.1, density_norm=1.0)
    assert bounds.decompose(0.5, 0.5, inp).measured_gap == 0.0


def test_decompose_kflats_family():
    inp = bounds.BoundInputs(n=500, k=3, d=2, delta=0.05, density_norm=1.0,
                             curvature=bounds.sphere_curvature(2))
    rep = bounds.decompose(0.1, 0.11, inp, family="kflats")
    assert rep.statistical == bounds.stat_kflats(500, 3, 2, 0.05)
    assert rep.approximation == bounds.approx_kflats(3, 2, inp.curvature)


def test_report_json_round_trip():
    import json
    inp = bounds.BoundInputs(n=100, k=2, d=2, delta=0.05, density_norm=1.5,
                             curvature=0.5, C_d=0.2)
    rep = bounds.decompose(1.0, 1.1, inp, family="kflats")
    loaded = json.loads(rep.to_json())
    assert loaded["family"] == "kflats"
    assert loaded["total"] == rep.total
    assert loaded["inputs"]["n"] == 100 and loaded["inputs"]["C_d"] == 0.2


# -- validation ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_delta_out_of_range(bad):
    with pytest.raises(ParameterError):
        bounds.stat_kmeans(100, 2, bad)
    with pytest.raises(ParameterError):
        bounds.rate_kflats(100, 2, bad, 1.0)


def test_invalid_inputs_raise():
    with pytest.raises(ParameterError):
        bounds.stat_kmeans(0, 1, 0.5)
    with pytest.raises(ParameterError):
        bounds.stat_kflats(10, 1, 0, 0.5)
    with pytest.raises(ParameterError):
        bounds.approx_kmeans(2, 2, 0.0)
    with pytest.raises(ParameterError):
        bounds.approx_kflats(2, 2, -1.0)
    with pytest.raises(ParameterError):
        bounds.quantization_constant(2, order=3)
    with pytest.raises(ParameterError):
        bounds.BoundInputs(n=10, k=1, d=1, delta=0.05, density_norm=1.0, C_d=0.0)
    with pytest.raises(ParameterError):
        bounds.decompose(float("nan"), 1.0,
                         bounds.BoundInputs(n=10, k=1, d=1, delta=0.05, density_norm=1.0))
    with pytest.raises(ParameterError):
        bounds.decompose(1.0, 1.0,
                         bounds.BoundInputs(n=10, k=1, d=1, delta=0.05, density_norm=1.0),
                         family="median")


def _inputs(**over):
    return bounds.BoundInputs(**{"n": 10, "k": 1, "d": 1, "delta": 0.05,
                                 "density_norm": 1.0, **over})


# every validated scalar, and every formula's density_norm / curvature
FINITE_FIELDS = {
    "BoundInputs.density_norm": lambda v: _inputs(density_norm=v),
    "BoundInputs.curvature": lambda v: _inputs(curvature=v),
    "BoundInputs.C_d": lambda v: _inputs(C_d=v),
    "ManifoldSpec.density_norm": lambda v: ManifoldSpec("sphere", 2, 3, density_norm=v),
    "ManifoldSpec.curvature": lambda v: ManifoldSpec("sphere", 2, 3, curvature=v),
    "FitConfig.rel_tol": lambda v: FitConfig(rel_tol=v),
    "approx_kmeans": lambda v: bounds.approx_kmeans(4, 2, v),
    "kn_kmeans": lambda v: bounds.kn_kmeans(100, 2, v),
    "rate_kmeans": lambda v: bounds.rate_kmeans(100, 2, 0.05, v),
    "approx_kflats": lambda v: bounds.approx_kflats(4, 2, v),
    "kn_kflats": lambda v: bounds.kn_kflats(100, 2, v),
    "rate_kflats": lambda v: bounds.rate_kflats(100, 2, 0.05, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FINITE_FIELDS)
def test_non_finite_scalar_is_rejected(field, value):
    with pytest.raises(ParameterError):
        FINITE_FIELDS[field](value)
