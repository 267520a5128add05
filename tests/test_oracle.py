"""The brute-force verifiers themselves: caps, grids, vertex enumeration."""

import numpy as np
import pytest

from paretopool import (AgentSpec, Distortion, EmpiricalSpace, choquet, es,
                        single, solve_fixed, solve_measure_lp, solve_robust)
from paretopool.errors import DomainError, ResourceLimitError
from paretopool.oracle import (GridSpec, brute_force_choquet, brute_force_lp,
                               brute_force_po, brute_force_robust,
                               dual_vertices)
from testkit import rand_agents, rand_distortion, rand_losses, rand_space


def test_grid_spec_requires_extremes():
    GridSpec(slopes=(0.0, 1.0))
    with pytest.raises(DomainError):
        GridSpec(slopes=(0.0, 0.5))
    with pytest.raises(DomainError):
        GridSpec(slopes=(0.0, 1.0, 1.5))


# -- brute_force_choquet ------------------------------------------------------


def test_bf_choquet_hand_examples():
    sp = EmpiricalSpace.uniform(2)
    assert brute_force_choquet(sp, [0.0, 10.0], Distortion.identity()) \
        == pytest.approx(5.0, abs=1e-12)
    assert brute_force_choquet(sp, [0.0, 10.0], Distortion.power(0.5)) \
        == pytest.approx(7.0710678118654755, abs=1e-12)
    assert brute_force_choquet(EmpiricalSpace.uniform(3), [2.5] * 3,
                               Distortion.prelec1(0.4)) == 2.5


def test_bf_choquet_agrees_with_main_path():
    rng = np.random.default_rng(51)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        sp = rand_space(rng, n)
        z = rng.uniform(-5, 15, n)
        d = rand_distortion(rng)
        assert brute_force_choquet(sp, z, d) == pytest.approx(
            choquet(sp, z, d), abs=1e-12)


def test_bf_choquet_zero_weight_states():
    sp = EmpiricalSpace([0.5, 0.5, 0.0])
    d = Distortion.kahneman_tversky(0.4)
    got = brute_force_choquet(sp, [1.0, 2.0, 0.5], d)
    assert got == pytest.approx(choquet(sp, [1.0, 2.0, 0.5], d), abs=1e-12)


# -- brute_force_po -----------------------------------------------------------


def test_bf_po_two_agent_power_example():
    sp = EmpiricalSpace.uniform(2)
    agents = [AgentSpec(sp, single(Distortion.power(0.5)), [0.0, 6.0]),
              AgentSpec(sp, single(Distortion.power(0.8)), [0.0, 4.0])]
    assert brute_force_po(agents) == pytest.approx(5.743491774985175, abs=1e-9)


def test_bf_po_identical_agents():
    sp = EmpiricalSpace.uniform(3)
    d = Distortion.power(0.6)
    agents = [AgentSpec(sp, single(d), [0.0, 1.0, 3.0]) for _ in range(2)]
    S = np.array([0.0, 2.0, 6.0])
    assert brute_force_po(agents) == pytest.approx(choquet(sp, S, d), abs=1e-9)


def test_bf_po_three_agent_prelec_deductible_value():
    sp = EmpiricalSpace.uniform(3)
    alphas = (0.3, 0.6, 0.9)
    agents = [AgentSpec(sp, single(Distortion.prelec1(a)), [0.0, 2.0, 4.0])
              for a in alphas]
    _, value = solve_fixed(agents)
    assert brute_force_po(agents) == pytest.approx(value, abs=1e-9)


def test_bf_po_grid_monotonicity():
    rng = np.random.default_rng(52)
    coarse = GridSpec(slopes=(0.0, 0.5, 1.0))
    fine = GridSpec(slopes=(0.0, 0.25, 0.5, 0.75, 1.0))
    for _ in range(8):
        agents = rand_agents(rng, 3, 2)
        assert brute_force_po(agents, fine) <= brute_force_po(agents, coarse) + 1e-12


def test_bf_po_extreme_slopes_suffice():
    rng = np.random.default_rng(53)
    extremes = GridSpec(slopes=(0.0, 1.0))
    default = GridSpec()
    for _ in range(8):
        agents = rand_agents(rng, 3, 2)
        a = brute_force_po(agents, extremes)
        b = brute_force_po(agents, default)
        assert a == pytest.approx(b, abs=1e-9)
        _, value = solve_fixed(agents)
        assert a == pytest.approx(value, abs=1e-9)
        assert a >= value - 1e-9


def test_bf_po_caps():
    rng = np.random.default_rng(54)
    agents = rand_agents(rng, 5, 2)
    with pytest.raises(ResourceLimitError):
        brute_force_po(agents)
    agents = rand_agents(rng, 3, 4)
    with pytest.raises(ResourceLimitError):
        brute_force_po(agents, GridSpec(max_agents=3))
    with pytest.raises(DomainError):
        brute_force_po([])


def test_bf_po_multi_candidate_needs_explicit_choice():
    sp = EmpiricalSpace.uniform(2)
    from paretopool import DistortionSet
    pair = DistortionSet((Distortion.power(0.5), Distortion.power(0.8)))
    agents = [AgentSpec(sp, pair, [0.0, 4.0])]
    with pytest.raises(DomainError):
        brute_force_po(agents)
    v = brute_force_po(agents, chosen=(1,))
    assert v == pytest.approx(4 * 0.5 ** 0.8, abs=1e-12)


# -- brute_force_robust -------------------------------------------------------


def test_bf_robust_matches_solve_robust():
    rng = np.random.default_rng(55)
    for _ in range(6):
        agents = rand_agents(rng, 3, 2, candidates=2)
        sol = solve_robust(agents)
        assert brute_force_robust(agents) == pytest.approx(sol.value, abs=1e-6)


def test_bf_robust_product_cap():
    rng = np.random.default_rng(56)
    agents = rand_agents(rng, 3, 2, candidates=2)
    with pytest.raises(ResourceLimitError):
        brute_force_robust(agents, max_product=3)


# -- dual vertices and the measure LP -----------------------------------------


def test_dual_vertices_two_state():
    sp = EmpiricalSpace.uniform(2)
    verts = dual_vertices(sp, 0.5)
    assert sorted(map(tuple, verts)) == [(0.0, 1.0), (1.0, 0.0)]


def test_dual_vertices_feasible():
    rng = np.random.default_rng(57)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        sp = rand_space(rng, n)
        alpha = float(rng.uniform(0.1, 0.9))
        verts = dual_vertices(sp, alpha)
        assert verts.size
        caps = sp.weights / alpha
        for q in verts:
            assert np.all(q >= -1e-12)
            assert np.all(q <= caps + 1e-9)
            assert float(q.sum()) == pytest.approx(1.0, abs=1e-9)


def test_dual_vertices_cap():
    with pytest.raises(ResourceLimitError):
        dual_vertices(EmpiricalSpace.uniform(7), 0.5)
    with pytest.raises(DomainError):
        dual_vertices(EmpiricalSpace.uniform(3), 0.0)


def test_es_equals_dual_maximum():
    rng = np.random.default_rng(58)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        sp = rand_space(rng, n)
        z = rng.uniform(0, 20, n)
        alpha = float(rng.uniform(0.1, 0.9))
        verts = dual_vertices(sp, alpha)
        assert float(np.max(verts @ z)) == pytest.approx(
            es(sp, z, alpha), abs=1e-9)


def test_bf_lp_one_agent_hand_value():
    sp = EmpiricalSpace.uniform(2)
    got = brute_force_lp(sp, [np.array([0.0, 10.0])], [Distortion.power(0.5)], 0.5)
    assert got == pytest.approx(7.0710678118654755, abs=1e-9)


def test_bf_lp_alpha_near_one_degenerate():
    sp = EmpiricalSpace.uniform(2)
    got = brute_force_lp(sp, [np.array([0.0, 10.0])], [Distortion.power(0.5)],
                         1.0 - 1e-9)
    assert got == pytest.approx(5.0, rel=1e-6)


def test_bf_lp_needs_kink_hyperplanes():
    # With two opposed agents the optimum sits at a kink strictly inside a
    # box face, so enumerating bound vertices alone undershoots.
    sp = EmpiricalSpace.uniform(2)
    xs = [np.array([0.0, 10.0]), np.array([10.0, 0.0])]
    ds = [Distortion.power(0.7366)] * 2
    alpha = 2.0 / 3.0
    nu = 0.5 ** 0.7366
    verts = dual_vertices(sp, alpha)
    bound_best = max(
        10 * min(q[1], nu) + 10 * min(q[0], nu) for q in verts)
    full = brute_force_lp(sp, xs, ds, alpha)
    assert full == pytest.approx(10.0, abs=1e-9)
    assert bound_best < full - 1.0
    lp = solve_measure_lp(sp, xs, ds, alpha)
    assert lp.value == pytest.approx(full, abs=1e-6)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_bf_lp_random_matches_solver():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        sp = rand_space(rng, n)
        xs = [rand_losses(rng, n) for _ in range(2)]
        ds = [rand_distortion(rng) for _ in range(2)]
        alpha = float(rng.uniform(0.1, 0.9))
        assert brute_force_lp(sp, xs, ds, alpha) == pytest.approx(
            solve_measure_lp(sp, xs, ds, alpha).value, abs=1e-6)


def test_bf_lp_cap():
    sp = EmpiricalSpace.uniform(7)
    with pytest.raises(ResourceLimitError):
        brute_force_lp(sp, [np.zeros(7)], [Distortion.identity()], 0.5)
