"""Distortion families: evaluation, risk-aversion indices, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretopool.distortion import (KT_GAMMA_MIN, Distortion, DistortionSet,
                                   ValidationReport, single, validate,
                                   validate_params)
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
    assert validate_params("prelec2", (0.5, 1.0)).ok


def test_validate_params_rejects_prelec1_alpha():
    report = validate_params("prelec1", (1.5,))
    assert not report.ok
    assert "alpha" in report.violations[0]


def test_validate_params_unknown_family_and_arity():
    assert not validate_params("gompertz", (1.0,)).ok
    assert not validate_params("power", ()).ok
    assert not validate_params("prelec2", (0.5,)).ok


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
    d = Distortion.tabulated([(0.0, 0.0), (0.5, 0.7), (1.0, 0.6)])
    report = validate(d)
    assert not report.ok
    assert any("non-decreasing" in v for v in report.violations)


def test_validate_reports_tabulated_endpoints():
    d = Distortion.tabulated([(0.0, 0.1), (1.0, 1.0)])
    assert not validate(d).ok


def test_validate_rejects_bad_knot_abscissae():
    report = validate_params("tabulated", (), ((0.0, 0.0), (0.4, 0.2)))
    assert not report.ok
    with pytest.raises(DomainError):
        Distortion.tabulated([(0.0, 0.0), (0.3, 0.5), (0.2, 0.6), (1.0, 1.0)])


@pytest.mark.parametrize("d", ALL_PARAMETRIC, ids=lambda d: d.label())
def test_validate_passes_parametric_families(d):
    assert validate(d) == ValidationReport(())


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
