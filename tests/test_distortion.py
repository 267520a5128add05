"""Distortion families: evaluation, risk-aversion indices, construction checks."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretopool.distortion import (KT_GAMMA_MIN, Distortion, DistortionSet,
                                   single)
from paretopool.errors import (DomainError, SingularityError,
                               UnsupportedOperationError)

E_INV = math.exp(-1.0)

ALL_PARAMETRIC = [
    Distortion.identity(),
    Distortion.power(0.5),
    Distortion.power(1.7),
    Distortion.prelec1(0.4),
    Distortion.prelec2(0.6, 1.8),
    Distortion.kahneman_tversky(0.4),
    Distortion.tvar(0.3),
    # At or near the edge of the exact parameter ranges.
    Distortion.kahneman_tversky(KT_GAMMA_MIN),
    Distortion.prelec2(0.05, 20.0),
]


# -- evaluation ---------------------------------------------------------------


def test_prelec1_fixed_point():
    d = Distortion.prelec1(0.5)
    assert d(E_INV) == pytest.approx(E_INV, abs=1e-15)


def test_power_eval():
    assert Distortion.power(0.5)(0.25) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("d", ALL_PARAMETRIC, ids=lambda d: d.label())
def test_boundary_values(d):
    assert d(0.0) == 0.0
    assert d(1.0) == 1.0


def test_eval_rejects_outside_unit_interval():
    d = Distortion.power(0.5)
    with pytest.raises(DomainError):
        d(-0.1)
    with pytest.raises(DomainError):
        d(1.1)
    with pytest.raises(DomainError):
        d(np.array([0.2, float("nan")]))


def test_eval_vectorized_matches_scalar():
    # SIMD and scalar pow kernels may differ in the last ulp.
    d = Distortion.kahneman_tversky(0.61)
    ts = np.linspace(0.0, 1.0, 17)
    vec = d(ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert d(float(t)) == pytest.approx(v, rel=1e-14, abs=1e-15)


def test_tabulated_interpolates_linearly():
    d = Distortion.tabulated([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
    assert d(0.25) == pytest.approx(0.4)
    assert d(0.75) == pytest.approx(0.9)
    assert d(0.5) == 0.8


def test_kt_gamma_domain():
    Distortion.kahneman_tversky(1.0)
    Distortion.kahneman_tversky(KT_GAMMA_MIN + 1e-6)
    with pytest.raises(DomainError):
        Distortion.kahneman_tversky(0.25)
    with pytest.raises(DomainError):
        Distortion.kahneman_tversky(0.2791)
    with pytest.raises(DomainError):
        Distortion.kahneman_tversky(1.01)


@given(
    s=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1.0),
    which=st.integers(0, len(ALL_PARAMETRIC) - 1),
)
@settings(max_examples=200, deadline=None)
def test_monotone_on_unit_interval(s, t, which):
    if s > t:
        s, t = t, s
    d = ALL_PARAMETRIC[which]
    assert d(s) <= d(t) + 1e-12


# -- pra / rpra ---------------------------------------------------------------


def test_prelec1_pra_zero_at_fixed_point():
    assert Distortion.prelec1(0.7).pra(E_INV) == pytest.approx(0.0, abs=1e-9)


def test_power_pra_closed_form():
    assert Distortion.power(0.4).pra(0.5) == pytest.approx(1.2, abs=1e-12)


def test_identity_pra_is_zero():
    assert Distortion.identity().pra(0.3) == 0.0


def test_power_rpra_constant():
    d = Distortion.power(0.4)
    for t in (0.1, 0.5, 0.9):
        assert d.rpra(t) == pytest.approx(0.6, abs=1e-12)
    assert Distortion.power(1.0).rpra(0.5) == pytest.approx(0.0, abs=1e-12)


def test_pra_rejects_boundary():
    d = Distortion.power(0.5)
    for t in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            d.pra(t)


def test_tvar_pra():
    d = Distortion.tvar(0.4)
    assert d.pra(0.2) == 0.0
    with pytest.raises(SingularityError):
        d.pra(0.7)


def test_tabulated_pra_unsupported():
    d = Distortion.tabulated([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(UnsupportedOperationError):
        d.pra(0.5)


def _fd_pra(d: Distortion, t: float, h: float = 1e-5) -> float:
    fm, f0, fp = d(t - h), d(t), d(t + h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    return -d2 / d1


@pytest.mark.parametrize("d", [
    Distortion.power(0.4),
    Distortion.power(1.6),
    Distortion.prelec1(0.35),
    Distortion.prelec1(0.8),
    Distortion.prelec2(0.5, 0.7),
    Distortion.prelec2(0.7, 2.2),
], ids=lambda d: d.label())
def test_pra_matches_finite_difference(d):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.05, 0.95, 100):
        expected = _fd_pra(d, float(t))
        got = d.pra(float(t))
        assert got == pytest.approx(expected, rel=1e-4, abs=1e-7)


def test_prelec1_pra_ordering_below_fixed_point():
    # Smaller alpha means more tail aversion left of the fixed point.
    a_lo, a_hi = Distortion.prelec1(0.3), Distortion.prelec1(0.7)
    for t in np.linspace(0.01, E_INV - 0.01, 50):
        assert a_lo.pra(float(t)) > a_hi.pra(float(t))


def test_prelec2_pra_ordering_in_beta():
    b_lo, b_hi = Distortion.prelec2(0.5, 0.6), Distortion.prelec2(0.5, 1.9)
    for t in np.linspace(0.02, 0.98, 50):
        assert b_lo.pra(float(t)) > b_hi.pra(float(t))


def test_sqrt_composition_increases_pra():
    # sqrt o power(g) = power(g/2); sqrt o prelec2(a, b) = prelec2(a, b/2).
    cases = [
        (Distortion.power(0.8), Distortion.power(0.4)),
        (Distortion.power(1.4), Distortion.power(0.7)),
        (Distortion.prelec2(0.5, 1.6), Distortion.prelec2(0.5, 0.8)),
    ]
    for base, composed in cases:
        for t in np.linspace(0.05, 0.95, 40):
            assert composed.pra(float(t)) >= base.pra(float(t)) - 1e-12


def test_kt_pra_positive_near_zero_with_single_crossing():
    # The Kahneman-Tversky index is positive on a right neighbourhood of 0
    # and changes sign exactly once on (0, 0.05) for gamma below 1; the
    # crossing location is recorded, not asserted to a specific value.
    for gamma in (0.4, 0.5, 0.61, 0.9):
        d = Distortion.kahneman_tversky(gamma)
        ts = np.linspace(0.002, 0.05, 200)
        signs = np.sign([d.pra(float(t)) for t in ts])
        assert signs[0] > 0.0
        flips = np.nonzero(np.diff(signs))[0]
        assert flips.size <= 1
        if flips.size:
            t_star = 0.5 * (ts[flips[0]] + ts[flips[0] + 1])
            assert 0.0 < t_star < 0.05


def test_kt_pra_closed_form():
    # At t = 1/2 the index is -2 (1 - gamma)**2 / gamma; it stays finite
    # next to both ends of (0, 1).
    for gamma in (0.3, 0.5, 0.8):
        d = Distortion.kahneman_tversky(gamma)
        assert d.pra(0.5) == pytest.approx(-2.0 * (1.0 - gamma) ** 2 / gamma, rel=1e-12)
        assert all(math.isfinite(d.pra(t)) for t in (1e-7, 1.0 - 1e-7))


def test_kt_pra_matches_coarser_finite_difference():
    d = Distortion.kahneman_tversky(0.5)
    for t in (0.2, 0.5, 0.8):
        assert d.pra(t) == pytest.approx(_fd_pra(d, t, h=1e-4), rel=1e-3)


# -- validation ---------------------------------------------------------------


def test_validate_params_accepts_prelec2():
    assert Distortion("prelec2", (0.5, 1.0)) == Distortion.prelec2(0.5, 1.0)


def test_validate_params_rejects_prelec1_alpha():
    with pytest.raises(DomainError, match="alpha"):
        Distortion("prelec1", (1.5,))


def test_validate_params_unknown_family_and_arity():
    for family, params in (("gompertz", (1.0,)), ("power", ()), ("prelec2", (0.5,))):
        with pytest.raises(DomainError):
            Distortion(family, params)


def test_constructor_enforces_parameter_domains():
    with pytest.raises(DomainError):
        Distortion.prelec1(1.5)
    with pytest.raises(DomainError):
        Distortion.power(-0.2)
    with pytest.raises(DomainError):
        Distortion.tvar(1.0)


@pytest.mark.parametrize("make", [
    lambda: Distortion.power(math.inf),
    lambda: Distortion.prelec2(0.5, math.inf),
    lambda: Distortion.tabulated([(0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)]),
], ids=["power-inf", "prelec2-beta-inf", "tabulated-nan-abscissa"])
def test_constructor_rejects_non_finite_parameters(make):
    with pytest.raises(DomainError):
        make()


def test_validate_reports_tabulated_monotonicity():
    with pytest.raises(DomainError, match="non-decreasing"):
        Distortion.tabulated([(0.0, 0.0), (0.5, 0.7), (1.0, 0.6)])


def test_validate_reports_tabulated_endpoints():
    with pytest.raises(DomainError, match="values must run from 0 at t=0 to 1 at t=1"):
        Distortion.tabulated([(0.0, 0.1), (1.0, 1.0)])


def test_validate_rejects_short_or_non_finite_tables():
    with pytest.raises(DomainError, match="at least two knots required"):
        Distortion.tabulated([(0.0, 0.0)])
    with pytest.raises(DomainError, match="knot values must be finite"):
        Distortion.tabulated([(0.0, 0.0), (0.5, math.nan), (1.0, 1.0)])


def test_validate_rejects_bad_knot_abscissae():
    with pytest.raises(DomainError, match="abscissae must start at 0 and end at 1"):
        Distortion("tabulated", (), ((0.0, 0.0), (0.4, 1.0)))
    with pytest.raises(DomainError, match="abscissae must be strictly increasing"):
        Distortion.tabulated([(0.0, 0.0), (0.3, 0.5), (0.2, 0.6), (1.0, 1.0)])


@pytest.mark.parametrize("d", ALL_PARAMETRIC, ids=lambda d: d.label())
def test_validate_passes_parametric_families(d):
    # A grid oracle for the exact parameter ranges the constructor checks.
    vals = d(np.linspace(0.0, 1.0, 10_000))
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= -1e-12)


def _kt_min_slope_sign(gamma: float) -> int:
    # The sign of min over x > 0 of g + x - (1 - g) x**g, the factor of the
    # Kahneman-Tversky T' in x = t / (1 - t), evaluated at 50 digits.
    with localcontext() as ctx:
        ctx.prec = 50
        g = Decimal(gamma)
        x_star = (g * (1 - g)) ** (1 / (1 - g))
        h = g - x_star * (1 - g) / g
        return (h > 0) - (h < 0)


def test_kt_gamma_min_is_the_monotonicity_threshold():
    assert _kt_min_slope_sign(KT_GAMMA_MIN) >= 0
    assert _kt_min_slope_sign(math.nextafter(KT_GAMMA_MIN, 0.0)) < 0


@pytest.mark.parametrize("make", [
    lambda: Distortion("power", (0.5,), ((0.0, 0.0), (1.0, 1.0))),
    lambda: Distortion("identity", (), ((0.0, 0.0), (1.0, 1.0))),
    lambda: Distortion("tabulated", (0.3,), ((0.0, 0.0), (1.0, 1.0))),
], ids=["power-with-knots", "identity-with-knots", "tabulated-with-params"])
def test_constructor_rejects_fields_the_family_does_not_read(make):
    with pytest.raises(DomainError, match="takes no"):
        make()


def test_distortion_set_basics():
    d1, d2 = Distortion.power(0.5), Distortion.power(0.8)
    s = DistortionSet((d1, d2))
    assert len(s) == 2 and s[0] is d1 and list(s) == [d1, d2]
    assert len(single(d1)) == 1
    with pytest.raises(DomainError):
        DistortionSet(())
    with pytest.raises(DomainError):
        DistortionSet((d1, "not a distortion"))


def test_labels():
    assert Distortion.power(0.5).label() == "power(gamma=0.5)"
    assert Distortion.identity().label() == "identity"
    assert "2 knots" in Distortion.tabulated([(0.0, 0.0), (1.0, 1.0)]).label()
