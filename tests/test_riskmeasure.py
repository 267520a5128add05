"""Empirical spaces, survival, Choquet integrals, VaR, ES, robust measures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretopool import (Distortion, DistortionSet, EmpiricalSpace, choquet,
                        es, robust_drm, survival, var)
from paretopool.errors import DomainError, ProfileMismatchError
from paretopool.oracle import brute_force_choquet
from paretopool.riskmeasure import _layer_table
from testkit import rand_distortion, rand_losses, rand_space

E_INV = math.exp(-1.0)


def uniform(n):
    return EmpiricalSpace.uniform(n)


# -- EmpiricalSpace -----------------------------------------------------------


def test_space_validation():
    EmpiricalSpace([0.25, 0.75])
    with pytest.raises(DomainError):
        EmpiricalSpace([])
    with pytest.raises(DomainError):
        EmpiricalSpace([[0.5, 0.5]])
    with pytest.raises(DomainError):
        EmpiricalSpace([0.5, -0.5, 1.0])
    with pytest.raises(DomainError):
        EmpiricalSpace([0.5, 0.6])
    with pytest.raises(DomainError):
        EmpiricalSpace([0.5, float("inf")])


def test_space_weights_read_only():
    sp = uniform(3)
    with pytest.raises(ValueError):
        sp.weights[0] = 0.9


def test_uniform_constructor():
    sp = uniform(4)
    assert sp.state_count == 4
    assert np.all(sp.weights == 0.25)
    with pytest.raises(DomainError):
        EmpiricalSpace.uniform(0)


def test_zero_weight_states_allowed():
    sp = EmpiricalSpace([0.5, 0.5, 0.0])
    assert sp.state_count == 3


# -- survival -----------------------------------------------------------------


def test_survival_examples():
    assert survival(uniform(2), [0.0, 10.0], 5.0) == 0.5
    assert survival(uniform(4), [1.0, 2.0, 3.0, 4.0], 2.0) == 0.5


def test_survival_is_strict_and_bounded():
    sp = uniform(2)
    assert survival(sp, [0.0, 10.0], 10.0) == 0.0
    assert survival(sp, [0.0, 10.0], -1.0) == 1.0
    assert survival(sp, [0.0, 10.0], 0.0) == 0.5


def test_survival_exact_one_over_zero_weight_states():
    # Only a zero-weight state fails to exceed x: the survival must be the
    # exact float 1.0, not one ulp below, or steep distortions blow the
    # error up.
    sp = EmpiricalSpace([0.3, 0.3, 0.4, 0.0])
    s = survival(sp, [5.0, 6.0, 7.0, 1.0], 2.0)
    assert s == 1.0


def test_survival_refuses_a_nan_level():
    # Every comparison with NaN is False, so a NaN level would read as 0.0.
    with pytest.raises(DomainError, match="NaN"):
        survival(EmpiricalSpace.uniform(3), [0.0, 1.0, 2.0], float("nan"))
    assert survival(uniform(3), [0.0, 1.0, 2.0], -math.inf) == 1.0
    assert survival(uniform(3), [0.0, 1.0, 2.0], math.inf) == 0.0


def test_survival_profile_mismatch():
    with pytest.raises(ProfileMismatchError):
        survival(uniform(2), [1.0, 2.0, 3.0], 0.5)
    with pytest.raises(ProfileMismatchError, match="profile values must be finite"):
        survival(uniform(2), [1.0, math.nan], 0.5)


# -- choquet ------------------------------------------------------------------


def test_choquet_identity_is_expectation():
    assert choquet(uniform(2), [0.0, 10.0], Distortion.identity()) == pytest.approx(5.0, abs=1e-12)


def test_choquet_power_hand_value():
    got = choquet(uniform(2), [0.0, 10.0], Distortion.power(0.5))
    assert got == pytest.approx(7.0710678118654755, abs=1e-12)


def test_choquet_constant_profile():
    for d in (Distortion.identity(), Distortion.prelec1(0.4)):
        assert choquet(uniform(3), [4.2, 4.2, 4.2], d) == 4.2


def test_choquet_negative_values_translate():
    d = Distortion.power(0.5)
    sp = uniform(3)
    z = np.array([-2.0, 1.0, 5.0])
    assert choquet(sp, z, d) == pytest.approx(choquet(sp, z + 2.0, d) - 2.0, abs=1e-12)


def test_choquet_weight_aggregation_over_duplicates():
    # Duplicate values must pool their weights into one layer.
    sp = EmpiricalSpace([0.2, 0.3, 0.5])
    d = Distortion.power(0.5)
    a = choquet(sp, [1.0, 1.0, 3.0], d)
    b = 1.0 + 2.0 * d(0.5)
    assert a == pytest.approx(b, abs=1e-12)


@given(
    n=st.integers(1, 8),
    c=st.floats(-20, 20),
    lam=st.floats(0, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_choquet_translation_and_homogeneity(n, c, lam, seed):
    rng = np.random.default_rng(seed)
    sp = rand_space(rng, n)
    z = rng.uniform(-5, 15, n)
    d = rand_distortion(rng)
    base = choquet(sp, z, d)
    assert choquet(sp, z + c, d) == pytest.approx(base + c, abs=1e-9)
    assert choquet(sp, lam * z, d) == pytest.approx(lam * base, abs=1e-9 * max(1.0, lam))


@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_choquet_monotone(n, seed):
    rng = np.random.default_rng(seed)
    sp = rand_space(rng, n)
    d = rand_distortion(rng)
    z1 = rng.uniform(-5, 10, n)
    z2 = z1 + rng.uniform(0, 3, n)
    assert choquet(sp, z1, d) <= choquet(sp, z2, d) + 1e-12


@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_choquet_comonotone_additive(n, seed):
    # f(s) = min(s, k) and g(s) = s - f(s) are non-decreasing with f+g=Id.
    rng = np.random.default_rng(seed)
    sp = rand_space(rng, n)
    d = rand_distortion(rng)
    s = rand_losses(rng, n)
    k = float(rng.uniform(0, 10))
    f = np.minimum(s, k)
    assert choquet(sp, f, d) + choquet(sp, s - f, d) == pytest.approx(
        choquet(sp, s, d), abs=1e-9)


@given(n=st.integers(2, 8), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_choquet_law_invariant_under_state_permutation(n, seed):
    rng = np.random.default_rng(seed)
    sp = rand_space(rng, n)
    z = rng.uniform(-5, 10, n)
    d = rand_distortion(rng)
    perm = rng.permutation(n)
    assert choquet(EmpiricalSpace(sp.weights[perm]), z[perm], d) == pytest.approx(
        choquet(sp, z, d), abs=1e-12)


# -- var ----------------------------------------------------------------------


def test_var_examples():
    assert var(uniform(4), [1.0, 2.0, 3.0, 4.0], 0.25) == 3.0
    assert var(uniform(3), [0.0, 10.0, 20.0], E_INV) == 10.0


def test_var_level_domain():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            var(uniform(2), [0.0, 1.0], bad)


def test_var_with_unequal_weights():
    sp = EmpiricalSpace([0.9, 0.1])
    assert var(sp, [0.0, 10.0], 0.05) == 10.0
    assert var(sp, [0.0, 10.0], 0.2) == 0.0


# -- es -----------------------------------------------------------------------


def test_es_example():
    assert es(uniform(4), [1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(3.5, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_es_level_domain(alpha):
    with pytest.raises(DomainError):
        es(uniform(4), [1.0, 2.0, 3.0, 4.0], alpha)


def test_es_alpha_one_limit_is_mean():
    sp = EmpiricalSpace([0.2, 0.3, 0.5])
    z = np.array([1.0, 5.0, 2.0])
    assert es(sp, z, 1.0 - 1e-12) == pytest.approx(float(np.dot(sp.weights, z)), rel=1e-9)


def test_es_equals_tvar_choquet():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        sp = rand_space(rng, n)
        z = rng.uniform(-5, 20, n)
        alpha = float(rng.uniform(0.05, 0.95))
        assert es(sp, z, alpha) == pytest.approx(
            choquet(sp, z, Distortion.tvar(alpha)), abs=1e-12)


def test_es_matches_descending_sort_oracle():
    # es is the tvar Choquet integral; the oracle sorts in descending order
    # and shares no layer code with it.
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        w = rand_space(rng, n).weights.copy()
        if n > 2:
            w[rng.choice(n, int(rng.integers(1, n - 1)), replace=False)] = 0.0
        sp = EmpiricalSpace(w / w.sum())
        # Values on a coarse grid, so ties are common, and of either sign.
        z = rng.integers(-3, 4, n) * float(rng.uniform(0.5, 5.0))
        alpha = float(rng.choice([rng.uniform(0.01, 0.99), 0.25, 0.5]))
        assert es(sp, z, alpha) == pytest.approx(
            brute_force_choquet(sp, z, Distortion.tvar(alpha)), rel=1e-12, abs=1e-12)


def test_es_dominates_var():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        sp = rand_space(rng, n)
        z = rng.uniform(0, 20, n)
        alpha = float(rng.uniform(0.05, 0.95))
        assert es(sp, z, alpha) >= var(sp, z, alpha) - 1e-12


# -- robust_drm ---------------------------------------------------------------


def test_robust_drm_hand_example():
    cands = DistortionSet((Distortion.power(0.5), Distortion.power(0.8)))
    value, idx = robust_drm(uniform(2), [0.0, 10.0], cands)
    assert value == pytest.approx(7.0710678118654755, abs=1e-12)
    assert idx == 0


def test_robust_drm_singleton_equals_choquet():
    d = Distortion.prelec1(0.4)
    sp = uniform(3)
    z = [0.0, 3.0, 9.0]
    value, idx = robust_drm(sp, z, DistortionSet((d,)))
    assert value == choquet(sp, z, d)
    assert idx == 0


def test_robust_drm_tie_keeps_lowest_index():
    d = Distortion.power(0.5)
    value, idx = robust_drm(uniform(2), [0.0, 10.0], DistortionSet((d, d)))
    assert idx == 0


def test_robust_drm_convex_combinations_never_increase():
    # A tabulated distortion interpolating lam*T1 + (1-lam)*T2 exactly at
    # the survival levels of the profile prices to the same convex
    # combination of Choquet values, so appending it never raises the max.
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        sp = rand_space(rng, n)
        z = rand_losses(rng, n)
        d1, d2 = rand_distortion(rng), rand_distortion(rng)
        lam = float(rng.uniform(0, 1))
        tails = np.unique(np.concatenate(
            [[0.0, 1.0], [survival(sp, z, float(v)) for v in np.unique(z)]]))
        knots = [(float(t), lam * d1(float(t)) + (1 - lam) * d2(float(t)))
                 for t in tails]
        mix = Distortion.tabulated(knots)
        base = DistortionSet((d1, d2))
        enlarged = DistortionSet((d1, d2, mix))
        v_base, _ = robust_drm(sp, z, base)
        v_enl, _ = robust_drm(sp, z, enlarged)
        assert v_enl == pytest.approx(v_base, abs=1e-9)
        assert v_enl <= v_base + 1e-9


def test_robust_drm_sorts_once_and_matches_choquet_bit_for_bit(monkeypatch):
    from paretopool import riskmeasure
    rng = np.random.default_rng(27)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 12))
        cases.append((rand_space(rng, n), rand_losses(rng, n) - float(rng.uniform(0.0, 3.0)),
                      DistortionSet(tuple(rand_distortion(rng)
                                          for _ in range(int(rng.integers(1, 5)))))))
    # Each candidate's own Choquet integral, before the spy goes in.
    wanted = []
    for sp, z, cands in cases:
        values = [choquet(sp, z, d) for d in cands]
        best = max(values)
        wanted.append((best, values.index(best)))
    calls, table = [], riskmeasure._layer_table

    def spy(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(riskmeasure, "_layer_table", spy)
    for (sp, z, cands), want in zip(cases, wanted):
        calls.clear()
        assert robust_drm(sp, z, cands) == want
        assert len(calls) == 1


@given(z=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 50.0),
                  min_size=1, max_size=12),
       origin=st.booleans(), shift=st.sampled_from([0.0, -2.0]), seed=st.integers(0, 10_000))
@example(z=[2.0, 1.0, 2.0, 1.0], origin=True, shift=0.0, seed=0)  # ties, no zero
@example(z=[0.0, 0.0, 4.0], origin=True, shift=0.0, seed=1)       # zeros
@example(z=[0.0, 0.0], origin=True, shift=0.0, seed=2)            # all zero
@settings(max_examples=150, deadline=None)
def test_layer_table_levels_index_each_state_in_zs(z, origin, shift, seed):
    # origin takes a non-negative loss; without it any profile goes.
    z = np.array(z) + (0.0 if origin else shift)
    w = rand_space(np.random.default_rng(seed), z.size).weights
    zs, tails, levels = _layer_table(z, [w], origin=origin)
    assert np.array_equal(levels, np.searchsorted(zs, z))
    assert np.array_equal(zs[levels], z)
    assert np.array_equal(zs, np.unique(np.append(z, 0.0) if origin else z))
    want = [min(1.0, math.fsum(w[z > b])) for b in zs]
    assert tails[0] == pytest.approx(want, abs=1e-12)
