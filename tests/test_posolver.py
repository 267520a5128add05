"""Decentralized layer allocations, robust solving, side payments."""

import math
import tracemalloc

import numpy as np
import pytest

from paretopool import (AgentSpec, Distortion, DistortionSet, EmpiricalSpace,
                        LayerAllocation, aggregate_loss, choquet,
                        layer_decomposition, prelec_deductible, robust_drm,
                        settle, side_payments, single, solve_fixed,
                        solve_robust, var, welfare_report, with_side_payments)
from paretopool import posolver
from paretopool.centralized import CentralizedContract, solve_centralized
from paretopool.errors import (DomainError, InvalidWeightsError,
                               ProfileMismatchError, ResourceLimitError,
                               UnsupportedOperationError)
from testkit import allocation_risk, rand_agents, rand_distortion, rand_losses

E_INV = math.exp(-1.0)


def two_power_agents():
    """Shared uniform two-state belief, S = (0, 10)."""
    sp = EmpiricalSpace.uniform(2)
    a1 = AgentSpec(sp, single(Distortion.power(0.5)), [0.0, 6.0])
    a2 = AgentSpec(sp, single(Distortion.power(0.8)), [0.0, 4.0])
    return [a1, a2]


# -- layer decomposition ------------------------------------------------------


def test_layer_decomposition_two_states():
    grid = layer_decomposition([0.0, 10.0], [EmpiricalSpace.uniform(2)])
    assert np.array_equal(grid.breakpoints, [0.0, 10.0])
    assert grid.layer_count == 1
    assert grid.survivals[0, 0] == 0.5


def test_layer_decomposition_three_states():
    grid = layer_decomposition([0.0, 10.0, 20.0], [EmpiricalSpace.uniform(3)])
    assert np.array_equal(grid.breakpoints, [0.0, 10.0, 20.0])
    assert grid.survivals[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_layer_decomposition_heterogeneous_beliefs():
    beliefs = [EmpiricalSpace([0.5, 0.5]), EmpiricalSpace([0.9, 0.1])]
    grid = layer_decomposition([0.0, 10.0], beliefs)
    assert grid.survivals[:, 0] == pytest.approx([0.5, 0.1], abs=1e-15)


def test_layer_decomposition_missing_zero_breakpoint():
    grid = layer_decomposition([5.0, 10.0], [EmpiricalSpace.uniform(2)])
    assert np.array_equal(grid.breakpoints, [0.0, 5.0, 10.0])
    # Everything exceeds the zero lower bound: survival exactly 1.
    assert grid.survivals[0, 0] == 1.0


def test_layer_decomposition_degenerate_zero_loss():
    grid = layer_decomposition([0.0, 0.0], [EmpiricalSpace.uniform(2)])
    assert grid.layer_count == 0


def test_layer_decomposition_errors():
    with pytest.raises(DomainError):
        layer_decomposition([0.0, 1.0], [])
    with pytest.raises(DomainError):
        layer_decomposition([-1.0, 1.0], [EmpiricalSpace.uniform(2)])
    with pytest.raises(ProfileMismatchError):
        layer_decomposition([0.0, 1.0],
                            [EmpiricalSpace.uniform(2), EmpiricalSpace.uniform(3)])


# -- solve_fixed --------------------------------------------------------------


def test_solve_fixed_two_agent_power_example():
    alloc, value = solve_fixed(two_power_agents())
    assert value == pytest.approx(5.743491774985175, abs=1e-9)
    assert np.array_equal(alloc.slopes, [[0.0], [1.0]])
    assert alloc.chosen_distortions == (0, 0)


def test_solve_fixed_single_agent_identity_allocation():
    sp = EmpiricalSpace.uniform(3)
    a = AgentSpec(sp, single(Distortion.power(0.6)), [0.0, 2.0, 7.0])
    alloc, value = solve_fixed([a])
    assert np.all(alloc.slopes == 1.0)
    assert value == pytest.approx(choquet(sp, a.endowment, a.distortions[0]), abs=1e-12)
    S = np.array([0.0, 2.0, 7.0])
    assert alloc.coverage(S)[0] == pytest.approx(S, abs=1e-12)


def test_solve_fixed_prelec_split_at_e_inv():
    sp = EmpiricalSpace.uniform(3)
    a1 = AgentSpec(sp, single(Distortion.prelec1(0.3)), [0.0, 10.0, 10.0])
    a2 = AgentSpec(sp, single(Distortion.prelec1(0.9)), [0.0, 0.0, 10.0])
    alloc, _ = solve_fixed([a1, a2])
    # Layer survivals are 2/3 > 1/e and 1/3 < 1/e: low layer to argmin
    # alpha, tail layer to argmax alpha, i.e. a deductible at VaR_{1/e}(S).
    d_star = prelec_deductible(sp, aggregate_loss([a1, a2]),
                               [Distortion.prelec1(0.3), Distortion.prelec1(0.9)])
    assert d_star == 10.0
    assert np.array_equal(alloc.slopes, [[1.0, 0.0], [0.0, 1.0]])


def test_solve_fixed_requires_singletons():
    sp = EmpiricalSpace.uniform(2)
    pair = DistortionSet((Distortion.power(0.5), Distortion.power(0.8)))
    a = AgentSpec(sp, pair, [0.0, 1.0])
    with pytest.raises(UnsupportedOperationError):
        solve_fixed([a])
    # A fixed candidate is the singleton market of that candidate.
    alloc, value = solve_fixed([AgentSpec(a.belief, single(a.distortions[1]), a.endowment)])
    assert value == pytest.approx(10 ** 0.0 * 0.5 ** 0.8, abs=1e-12)
    assert alloc.chosen_distortions == (0,)


def test_solve_fixed_degenerate_zero_aggregate():
    sp = EmpiricalSpace.uniform(2)
    agents = [AgentSpec(sp, single(Distortion.power(0.5)), [0.0, 0.0])]
    alloc, value = solve_fixed(agents)
    assert value == 0.0
    assert alloc.slopes.shape == (1, 0)
    report = welfare_report(agents, alloc)
    assert report.total_welfare == 0.0


def test_solve_fixed_tie_prefers_lowest_index():
    sp = EmpiricalSpace.uniform(2)
    d = Distortion.power(0.5)
    agents = [AgentSpec(sp, single(d), [0.0, 5.0]),
              AgentSpec(sp, single(d), [0.0, 5.0])]
    alloc, _ = solve_fixed(agents)
    assert np.array_equal(alloc.slopes, [[1.0], [0.0]])


def test_solve_fixed_scale_covariance():
    rng = np.random.default_rng(31)
    agents = rand_agents(rng, 5, 3)
    lam = 3.7
    scaled = [AgentSpec(a.belief, a.distortions, lam * a.endowment)
              for a in agents]
    alloc, value = solve_fixed(agents)
    alloc_s, value_s = solve_fixed(scaled)
    assert value_s == pytest.approx(lam * value, rel=1e-12)
    assert alloc_s.breakpoints == pytest.approx(lam * alloc.breakpoints, rel=1e-12)
    assert np.array_equal(alloc_s.slopes, alloc.slopes)


def test_solve_fixed_kt_two_agent_deductible_structure():
    # Two Kahneman-Tversky agents split at a single survival crossing, so
    # the max-gamma agent's slopes form a contiguous tail block.
    sp = EmpiricalSpace.uniform(8)
    x = np.arange(8.0)
    a_lo = AgentSpec(sp, single(Distortion.kahneman_tversky(0.4)), x)
    a_hi = AgentSpec(sp, single(Distortion.kahneman_tversky(0.8)), x)
    alloc, _ = solve_fixed([a_lo, a_hi])
    tail = alloc.slopes[1]
    switch = np.flatnonzero(np.diff(tail))
    assert switch.size == 1
    assert tail[0] == 0.0 and tail[-1] == 1.0


def test_allocation_feasibility_and_lipschitz():
    rng = np.random.default_rng(32)
    for _ in range(20):
        agents = rand_agents(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        alloc, _ = solve_fixed(agents)
        S = aggregate_loss(agents)
        cov = alloc.coverage(S)
        assert cov.sum(axis=0) == pytest.approx(S, abs=1e-9)
        assert np.all(alloc.slopes >= 0.0) and np.all(alloc.slopes <= 1.0)
        assert alloc.slopes.sum(axis=0) == pytest.approx(
            np.ones(alloc.slopes.shape[1]), abs=1e-12)


def test_no_single_layer_perturbation_improves():
    rng = np.random.default_rng(33)
    eps = 0.01
    for _ in range(15):
        agents = rand_agents(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
        alloc, value = solve_fixed(agents)
        n, m = alloc.slopes.shape
        for k in range(m):
            i = int(np.argmax(alloc.slopes[:, k]))
            for j in range(n):
                if j == i:
                    continue
                trial = alloc.slopes.copy()
                trial[i, k] -= eps
                trial[j, k] += eps
                assert allocation_risk(agents, alloc.breakpoints, trial) \
                    >= value - 1e-9


# -- LayerAllocation ----------------------------------------------------------


def test_allocation_roundtrip_dict():
    alloc, _ = solve_fixed(two_power_agents())
    alloc = with_side_payments(alloc, np.array([1.25, -1.25]))
    clone = LayerAllocation.from_dict(alloc.to_dict())
    assert np.array_equal(clone.breakpoints, alloc.breakpoints)
    assert np.array_equal(clone.slopes, alloc.slopes)
    assert np.array_equal(clone.side_payments, alloc.side_payments)
    assert clone.chosen_distortions == alloc.chosen_distortions


def test_allocation_from_dict_rejects_other_schema():
    alloc, _ = solve_fixed(two_power_agents())
    payload = alloc.to_dict()
    payload["schema_version"] = 2
    with pytest.raises(DomainError):
        LayerAllocation.from_dict(payload)


# Each entry breaks one field of a valid two-agent, one-layer payload.
BAD_ALLOCATION_FIELDS = {
    "breakpoints not increasing": ("breakpoints", lambda p: p.update(
        breakpoints=[0.0, 2.0, 1.0, 4.0], slopes=[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])),
    "breakpoints not from zero": ("breakpoints", lambda p: p.update(breakpoints=[1.0, 10.0])),
    "breakpoints 2-D": ("breakpoints", lambda p: p.update(breakpoints=[[0.0, 10.0]])),
    "breakpoints inf": ("breakpoints", lambda p: p.update(breakpoints=[0.0, math.inf])),
    "breakpoints nan": ("breakpoints", lambda p: p.update(breakpoints=[0.0, math.nan])),
    "slopes too wide": ("slopes", lambda p: p.update(slopes=[[1.0, 0.0], [0.0, 1.0]])),
    "slopes 1-D": ("slopes", lambda p: p.update(slopes=[1.0, 0.0])),
    "slopes above 1": ("slopes", lambda p: p.update(slopes=[[1.5], [-0.5]])),
    "slopes nan": ("slopes", lambda p: p.update(slopes=[[math.nan], [1.0]])),
    "side payments short": ("side_payments", lambda p: p.update(side_payments=[1.0])),
    "side payments nan": ("side_payments", lambda p: p.update(side_payments=[math.nan, 0.0])),
    "chosen short": ("chosen_distortions", lambda p: p.update(chosen_distortions=[0])),
    "chosen fractional": ("chosen_distortions",
                          lambda p: p.update(chosen_distortions=[1.7, 0])),
    "chosen bool": ("chosen_distortions", lambda p: p.update(chosen_distortions=[True, 0])),
    "chosen negative": ("chosen_distortions", lambda p: p.update(chosen_distortions=[-3, 0])),
    "chosen string": ("chosen_distortions", lambda p: p.update(chosen_distortions=["2", 0])),
    "slopes missing": ("slopes", lambda p: p.pop("slopes")),
}


@pytest.mark.parametrize("case", list(BAD_ALLOCATION_FIELDS))
def test_allocation_from_dict_rejects_a_malformed_field(case):
    field, mutate = BAD_ALLOCATION_FIELDS[case]
    alloc, _ = solve_fixed(two_power_agents())
    payload = alloc.to_dict()
    assert payload["breakpoints"] == [0.0, 10.0]
    mutate(payload)
    with pytest.raises(DomainError, match=field):
        LayerAllocation.from_dict(payload)


def test_allocation_from_dict_takes_numpy_integer_candidate_indices():
    payload = solve_fixed(two_power_agents())[0].to_dict()
    payload["chosen_distortions"] = [np.int64(0), np.uint8(2)]
    chosen = LayerAllocation.from_dict(payload).chosen_distortions
    assert chosen == (0, 2) and all(type(i) is int for i in chosen)


def test_allocation_from_dict_reloads_a_layerless_allocation():
    sp = EmpiricalSpace.uniform(2)
    agents = [AgentSpec(sp, single(Distortion.power(0.5)), [0.0, 0.0])] * 2
    alloc, _ = solve_fixed(agents)
    clone = LayerAllocation.from_dict(alloc.to_dict())
    assert clone.slopes.shape == (2, 0)
    assert welfare_report(agents, clone).total_welfare == 0.0


def test_coverage_flat_beyond_last_breakpoint():
    alloc, _ = solve_fixed(two_power_agents())
    assert np.array_equal(alloc.coverage(10.0), alloc.coverage(25.0))


def test_with_side_payments_validates_length():
    alloc, _ = solve_fixed(two_power_agents())
    with pytest.raises(ProfileMismatchError):
        with_side_payments(alloc, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_with_side_payments_rejects_non_finite_payments(bad):
    alloc, _ = solve_fixed(two_power_agents())
    with pytest.raises(DomainError, match="side payments must be finite"):
        with_side_payments(alloc, [bad, 0.0])


# -- side payments and welfare ------------------------------------------------


def test_side_payments_equal_split_example():
    agents = two_power_agents()
    alloc, value = solve_fixed(agents)
    c = side_payments(alloc, agents)
    assert float(np.sum(c)) == pytest.approx(0.0, abs=1e-12)
    report = welfare_report(agents, with_side_payments(alloc, c))
    # W = 6 * (0.5**0.5 - 0.5**0.8), split equally.
    assert report.total_welfare == pytest.approx(0.7965456221281808, abs=1e-9)
    assert report.welfare_gains == pytest.approx(
        [0.3982728110640904, 0.3982728110640904], abs=1e-9)
    assert report.optimum_value == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rule", ["equal", "last", "proportions"])
def test_settle_matches_side_payments_then_welfare_report(monkeypatch, seed, rule):
    rng = np.random.default_rng(900 + seed)
    n = 4
    agents = rand_agents(rng, 7, n, candidates=2)
    alloc = solve_robust(agents).allocation
    weights = rng.random(n) + 0.1 if rule == "proportions" else rule
    c = side_payments(alloc, agents, weights)
    expected = welfare_report(agents, with_side_payments(alloc, c))

    calls = []
    original = posolver.robust_drm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(posolver, "robust_drm", counting)
    settled, report = settle(agents, alloc, weights)
    # rho_i(X_i) once each; rho_i(g_i(S)) is priced on the allocation's
    # layers with no sort, and rho_i(g_i(S) + c_i) is rho_i(g_i(S)) + c_i by
    # translation invariance.
    assert len(calls) == n
    assert settled.side_payments.tobytes() == c.tobytes()
    assert np.array_equal(settled.slopes, alloc.slopes)
    for field in ("initial_values", "post_trade_values", "welfare_gains"):
        assert getattr(report, field).tobytes() == getattr(expected, field).tobytes()
    assert report.total_welfare == expected.total_welfare
    assert report.average_gain == expected.average_gain
    assert report.optimum_value == expected.optimum_value


@pytest.mark.parametrize("rule", ["last", "proportions"])
def test_post_trade_risk_prices_the_paid_profile_by_translation_invariance(
        monkeypatch, rule):
    # welfare_report reads rho_i(g_i(S) + c_i) as rho_i(g_i(S)) + c_i; the
    # direct path prices the paid profile g_i(S) + c_i itself.
    rng = np.random.default_rng(950 + (rule == "last"))
    signs, calls = set(), []

    def spy(f, name):
        def counting(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return counting
    for _ in range(20):
        m, n = int(rng.integers(3, 30)), int(rng.integers(2, 5))
        zero_state = [int(rng.integers(m))]
        agents = [AgentSpec(_sparse_belief(rng, m, zero_state),
                            DistortionSet(tuple(rand_distortion(rng)
                                                for _ in range(int(rng.integers(2, 4))))),
                            rand_losses(rng, m))
                  for _ in range(n)]
        alloc = solve_robust(agents).allocation
        weights = rule if rule == "last" else rng.random(n) + 0.1
        paid = with_side_payments(alloc, side_payments(alloc, agents, weights))
        c = paid.side_payments
        signs.update(np.sign(c[c != 0.0]).tolist())
        S = aggregate_loss(agents)

        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(posolver, "robust_drm", spy(posolver.robust_drm, "robust_drm"))
            patch.setattr(LayerAllocation, "profiles", spy(LayerAllocation.profiles, "profiles"))
            patch.setattr(LayerAllocation, "coverage", spy(LayerAllocation.coverage, "coverage"))
            report = welfare_report(agents, paid)
            settle(agents, alloc, weights)
        # One sort per agent in each call, of X_i; neither the coverage nor
        # the paid profile is built.
        assert calls == ["robust_drm"] * (2 * n)

        coverage, profiles = alloc.coverage(S), paid.profiles(S)
        for i, a in enumerate(agents):
            direct = robust_drm(a.belief, profiles[i], a.distortions)[0]
            pre = robust_drm(a.belief, coverage[i], a.distortions)[0]
            scale = max(abs(pre), abs(c[i]), 1.0)
            assert abs(report.post_trade_values[i] - direct) <= 1e-12 * scale
    assert signs == {-1.0, 1.0}


def test_welfare_report_splits_hand_built_layers_at_the_aggregate_losses_values():
    # Breakpoints that skip values of S, so that some fall strictly inside a
    # layer, and stop above max S; fractional slopes, some of them zero.
    rng = np.random.default_rng(960)
    for _ in range(300):
        m, n = int(rng.integers(2, 15)), int(rng.integers(1, 4))
        zero_state = [int(rng.integers(m))]
        shared = _sparse_belief(rng, m, zero_state)
        agents = [AgentSpec(shared if rng.uniform() < 0.5 else _sparse_belief(rng, m, zero_state),
                            DistortionSet(tuple(rand_distortion(rng)
                                                for _ in range(int(rng.integers(1, 4))))),
                            rand_losses(rng, m))
                  for _ in range(n)]
        S = aggregate_loss(agents)
        top = float(S.max()) * rng.uniform(1.0, 1.5) + 1.0
        b = np.unique(np.concatenate([[0.0, top], rng.uniform(0.0, top, int(rng.integers(0, 6))),
                                      rng.choice(S, int(rng.integers(0, 3)))]))
        c = rng.normal(0.0, 5.0, n)
        alloc = LayerAllocation(b, rng.choice([0.0, 0.25, 1.0], (n, b.size - 1)), c, (0,) * n)
        post, coverage = welfare_report(agents, alloc).post_trade_values, alloc.coverage(S)
        for i, a in enumerate(agents):
            want = robust_drm(a.belief, coverage[i], a.distortions)[0]
            assert abs(post[i] - c[i] - want) <= 1e-12 * max(abs(want), abs(c[i]), 1.0)
    # One layer [0, 10] over S = (0, 2, 5, 10), all of it held: the risk is
    # rho(S) itself, which the unsplit layer would price as 10 * T(3/4).
    sp, d = EmpiricalSpace.uniform(4), Distortion.power(0.5)
    agents = [AgentSpec(sp, single(d), [0.0, 2.0, 5.0, 10.0])]
    alloc = LayerAllocation(np.array([0.0, 10.0]), np.ones((1, 1)), np.zeros(1), (0,))
    (post,) = welfare_report(agents, alloc).post_trade_values
    assert post == pytest.approx(choquet(sp, agents[0].endowment, d), rel=1e-12)
    assert post != pytest.approx(10.0 * d(0.75))


def test_settle_validates_sizes():
    agents = two_power_agents()
    alloc, _ = solve_fixed(agents)
    with pytest.raises(ProfileMismatchError):
        settle(agents[:1], alloc)
    with pytest.raises(InvalidWeightsError):
        settle(agents, alloc, [1.0, 1.0, 1.0])


def test_welfare_report_side_payments_and_settle_reject_a_wrong_size_allocation():
    sp = EmpiricalSpace.uniform(2)

    def market(top, gammas):
        return [AgentSpec(sp, single(Distortion.power(g)), [0.0, top]) for g in gammas]

    three = market(4.0, (0.5, 0.7, 0.9))
    # Solved for S = (0, 10) but applied to S = (0, 20): the top layer has no owner.
    short, _ = solve_fixed(market(5.0, (0.5, 0.7)))
    for agents, alloc, message in ((three[:2], solve_fixed(three)[0], "disagree on size"),
                                   (market(10.0, (0.5, 0.7)), short, "below the market")):
        for call in (welfare_report, side_payments, settle):
            args = (alloc, agents) if call is side_payments else (agents, alloc)
            with pytest.raises(ProfileMismatchError, match=message):
                call(*args)


def test_side_payments_weight_rules():
    agents = two_power_agents()
    alloc, _ = solve_fixed(agents)
    w_equal = side_payments(alloc, agents, "equal")
    assert np.array_equal(w_equal, side_payments(alloc, agents))
    c_last = side_payments(alloc, agents, "last")
    report = welfare_report(agents, with_side_payments(alloc, c_last))
    assert report.welfare_gains[0] == pytest.approx(0.0, abs=1e-12)
    assert report.welfare_gains[1] == pytest.approx(report.total_welfare, abs=1e-12)
    total = report.total_welfare
    explicit = side_payments(alloc, agents, np.array([total, 0.0]))
    report2 = welfare_report(agents, with_side_payments(alloc, explicit))
    assert report2.welfare_gains[0] == pytest.approx(total, abs=1e-12)
    # Proportions are scale-free: power-of-two multiples pay the same split,
    # also where W * p would underflow or overflow without an exact rescale.
    big = [AgentSpec(a.belief, a.distortions, 100.0 * a.endowment) for a in agents]
    big_alloc, _ = solve_fixed(big)
    split = side_payments(big_alloc, big, [4.0, 1.0])
    for k in (-1074, 1021):
        assert side_payments(big_alloc, big, np.ldexp([4.0, 1.0], k)).tobytes() == split.tobytes()
    gains = welfare_report(big, with_side_payments(big_alloc, split)).welfare_gains
    assert gains == pytest.approx([0.8 * gains.sum(), 0.2 * gains.sum()], rel=1e-12)


def test_side_payments_weight_validation():
    agents = two_power_agents()
    alloc, _ = solve_fixed(agents)
    for bad in ("most", np.array([1.0]), np.array([-0.1, 0.9]), np.array([0.0, 0.0]),
                [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0],
                [[0.5, 0.5]], lambda total: [total, 0.0]):
        with pytest.raises(InvalidWeightsError):
            side_payments(alloc, agents, bad)


def test_total_welfare_invariant_across_weight_rules():
    rng = np.random.default_rng(34)
    for _ in range(10):
        agents = rand_agents(rng, 4, 3)
        alloc, _ = solve_fixed(agents)
        totals = []
        for rule in (None, "equal", "last"):
            c = side_payments(alloc, agents, rule)
            totals.append(welfare_report(
                agents, with_side_payments(alloc, c)).total_welfare)
        assert max(totals) - min(totals) <= 1e-9


# -- prelec_deductible --------------------------------------------------------


def test_prelec_deductible_hand_value():
    sp = EmpiricalSpace.uniform(3)
    S = [0.0, 10.0, 20.0]
    dists = [Distortion.prelec1(0.3), Distortion.prelec1(0.9)]
    assert prelec_deductible(sp, S, dists) == 10.0
    assert prelec_deductible(sp, S, dists) == var(sp, S, E_INV)


def test_prelec_deductible_prelec2_common_beta():
    sp = EmpiricalSpace.uniform(3)
    S = [0.0, 10.0, 20.0]
    assert prelec_deductible(
        sp, S, [Distortion.prelec2(0.3, 1.5), Distortion.prelec2(0.8, 1.5)]) == 10.0
    with pytest.raises(UnsupportedOperationError):
        prelec_deductible(
            sp, S, [Distortion.prelec2(0.3, 1.5), Distortion.prelec2(0.8, 0.5)])


def test_prelec_deductible_rejects_other_families():
    sp = EmpiricalSpace.uniform(2)
    with pytest.raises(UnsupportedOperationError):
        prelec_deductible(sp, [0.0, 1.0],
                          [Distortion.prelec1(0.4), Distortion.power(0.5)])
    with pytest.raises(DomainError):
        prelec_deductible(sp, [0.0, 1.0], [])


# -- solve_robust -------------------------------------------------------------


def test_solve_robust_singletons_bit_for_bit():
    rng = np.random.default_rng(35)
    for _ in range(10):
        agents = rand_agents(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        alloc_f, value_f = solve_fixed(agents)
        sol = solve_robust(agents)
        assert sol.value == value_f
        assert np.array_equal(sol.allocation.slopes, alloc_f.slopes)
        assert np.array_equal(sol.allocation.breakpoints, alloc_f.breakpoints)
        assert sol.chosen == (0,) * len(agents)


def test_solve_robust_prelec2_max_beta_takes_all():
    sp = EmpiricalSpace.uniform(4)
    rng = np.random.default_rng(36)
    # A common zero state keeps every layer survival inside (0, 1), where
    # the beta dominance is strict; at survival 1 all distortions tie.
    endow = [np.concatenate([[0.0], np.round(rng.uniform(0, 5, 3), 3)])
             for _ in range(3)]
    betas = (0.5, 1.0, 2.0)
    agents = [AgentSpec(sp, single(Distortion.prelec2(0.45, b)), x)
              for b, x in zip(betas, endow)]
    alloc, _ = solve_fixed(agents)
    assert np.all(alloc.slopes[2] == 1.0)
    assert np.all(alloc.slopes[:2] == 0.0)


def test_solve_robust_picks_worst_case_combo():
    sp = EmpiricalSpace.uniform(2)
    pair = DistortionSet((Distortion.power(0.5), Distortion.power(0.9)))
    agents = [AgentSpec(sp, pair, [0.0, 10.0])]
    sol = solve_robust(agents)
    # Worst case for a single agent is the largest Choquet value.
    assert sol.chosen == (0,)
    assert sol.value == pytest.approx(10 * 0.5 ** 0.5, abs=1e-12)


def test_solve_robust_value_maximises_over_combos():
    rng = np.random.default_rng(37)
    for _ in range(8):
        agents = rand_agents(rng, 4, 2, candidates=2)
        sol = solve_robust(agents)
        values = []
        for c0 in range(2):
            for c1 in range(2):
                fixed = [AgentSpec(a.belief, single(a.distortions[c]), a.endowment)
                         for a, c in zip(agents, (c0, c1))]
                _, v = solve_fixed(fixed)
                values.append(v)
        assert sol.value == pytest.approx(max(values), abs=1e-12)


def test_solve_robust_over_cap_fails_before_the_layer_grid(monkeypatch):
    rng = np.random.default_rng(38)
    agents = rand_agents(rng, 4, 3, candidates=3)   # product 27
    exact = solve_robust(agents)
    monkeypatch.setattr(posolver, "PRODUCT_CAP", 27)
    at_cap = solve_robust(agents)
    assert at_cap.chosen == exact.chosen and at_cap.value == exact.value
    monkeypatch.setattr(posolver, "PRODUCT_CAP", 10)

    def no_grid(*args, **kwargs):
        raise AssertionError("layer grid built for an over-cap market")

    monkeypatch.setattr(posolver, "layer_decomposition", no_grid)
    with pytest.raises(ResourceLimitError, match="candidate product 27 exceeds cap 10"):
        solve_robust(agents)


def test_solve_robust_warns_when_not_certified_optimal(caplog):
    # S = (0, 2, 2): one layer of length 2 with survival 2/3.  Both combos
    # score V = 2 (2/3)^0.3, and the tie gives the layer to agent A, whose
    # tvar(0.5) candidate prices it at 2; agent B alone would attain V.
    sp = EmpiricalSpace.uniform(3)
    a = AgentSpec(sp, DistortionSet((Distortion.power(0.3), Distortion.tvar(0.5))),
                  [0.0, 1.0, 2.0])
    b = AgentSpec(sp, single(Distortion.power(0.3)), [0.0, 1.0, 0.0])
    with caplog.at_level("WARNING", logger="paretopool.posolver"):
        sol = solve_robust([a, b])
    assert sol.value == pytest.approx(2.0 * (2.0 / 3.0) ** 0.3, rel=1e-12)
    assert np.array_equal(sol.allocation.slopes, [[1.0], [0.0]])
    assert len(caplog.records) == 1
    assert "not certified optimal" in caplog.records[0].getMessage()

    caplog.clear()
    rng = np.random.default_rng(39)
    with caplog.at_level("WARNING", logger="paretopool.posolver"):
        for _ in range(30):
            agents = rand_agents(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            solve_robust(agents)
    assert caplog.records == []


def test_degenerate_zero_aggregate_robust():
    sp = EmpiricalSpace.uniform(3)
    pair = DistortionSet((Distortion.power(0.5), Distortion.prelec1(0.4)))
    agents = [AgentSpec(sp, pair, np.zeros(3)) for _ in range(2)]
    sol = solve_robust(agents)
    assert sol.value == 0.0
    assert sol.allocation.slopes.shape == (2, 0)


def test_solve_robust_evaluates_each_candidate_once(monkeypatch):
    # The max-min search and the layer assignment read one table of
    # distorted survivals, so a solve makes sum_i K_i evaluations.
    calls = []
    evaluate = Distortion.__call__

    def spy(self, t):
        calls.append(self)
        return evaluate(self, t)

    monkeypatch.setattr(Distortion, "__call__", spy)
    rng = np.random.default_rng(40)
    for candidates in (1, 2, 3):
        agents = rand_agents(rng, 6, 3, candidates=candidates)
        calls.clear()
        solve_robust(agents)
        assert len(calls) == 3 * candidates


def _metamorphic_markets(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states = int(rng.integers(2, 7))
        yield rng, rand_agents(rng, n_states, int(rng.integers(1, 4)),
                               candidates=int(rng.integers(1, 3)))


def test_solve_robust_invariant_under_state_permutation():
    for rng, agents in _metamorphic_markets(41):
        perm = rng.permutation(agents[0].belief.state_count)
        permuted = [AgentSpec(EmpiricalSpace(a.belief.weights[perm]), a.distortions,
                              a.endowment[perm]) for a in agents]
        sol, moved = solve_robust(agents), solve_robust(permuted)
        assert moved.chosen == sol.chosen
        assert np.array_equal(moved.allocation.breakpoints, sol.allocation.breakpoints)
        assert np.array_equal(moved.allocation.slopes, sol.allocation.slopes)
        assert moved.value == sol.value


def test_solve_robust_scales_exactly_with_endowments():
    # Scaling by 2^k is exact in floating point, so layers, survivals and
    # the choice of candidates cannot move.
    for rng, agents in _metamorphic_markets(42):
        k = int(rng.integers(-8, 9))
        scaled = [AgentSpec(a.belief, a.distortions, np.ldexp(a.endowment, k))
                  for a in agents]
        sol, big = solve_robust(agents), solve_robust(scaled)
        assert big.chosen == sol.chosen
        assert np.array_equal(big.allocation.slopes, sol.allocation.slopes)
        assert np.array_equal(big.allocation.breakpoints,
                              np.ldexp(sol.allocation.breakpoints, k))
        assert big.value == math.ldexp(sol.value, k)


# -- market construction errors ----------------------------------------------


def test_agent_spec_validation():
    sp = EmpiricalSpace.uniform(2)
    with pytest.raises(DomainError):
        AgentSpec(sp, single(Distortion.identity()), [-1.0, 2.0])
    a = AgentSpec(sp, single(Distortion.identity()), [1.0, 2.0])
    with pytest.raises(ValueError):
        a.endowment[0] = 5.0


def test_agent_spec_enforces_its_candidate_set():
    sp = EmpiricalSpace.uniform(2)
    with pytest.raises(DomainError, match="at least one candidate"):
        AgentSpec(sp, (), [1.0, 2.0])
    with pytest.raises(DomainError, match="Distortion instances"):
        AgentSpec(sp, ("power", "identity"), [1.0, 2.0])
    pair = (Distortion.power(0.5), Distortion.identity())
    a = AgentSpec(sp, pair, [1.0, 2.0])
    assert a.distortions == DistortionSet(pair)
    assert solve_robust([a]).allocation.slopes.shape == (1, 2)    # two layers


@pytest.mark.parametrize("bare", [Distortion.power(0.5), None, 3],
                         ids=["distortion", "none", "int"])
def test_agent_spec_refuses_a_candidate_that_is_not_a_set(bare):
    with pytest.raises(DomainError, match=r"wrap one with single\(\)"):
        AgentSpec(EmpiricalSpace.uniform(2), bare, [1.0, 2.0])


def test_market_checks():
    with pytest.raises(DomainError):
        aggregate_loss([])
    a = AgentSpec(EmpiricalSpace.uniform(2), single(Distortion.identity()), [1.0, 2.0])
    b = AgentSpec(EmpiricalSpace.uniform(3), single(Distortion.identity()), [1.0, 2.0, 3.0])
    with pytest.raises(ProfileMismatchError):
        aggregate_loss([a, b])


# -- layer kernel against a dense layers x states reference -------------------


def _dense_layers(S, weights):
    """Breakpoints, pinned survivals and full-measure mask per weight row,
    built from the explicit layers x states exceedance matrix."""
    zs = np.unique(S)
    bps = zs if zs[0] == 0.0 else np.concatenate([[0.0], zs])
    exceed = S[None, :] > bps[:-1, None]
    survs, full = [], []
    for w in weights:
        s = np.clip(exceed @ w, 0.0, 1.0)
        f = (~exceed) @ w == 0.0
        s[f] = 1.0
        survs.append(s)
        full.append(f)
    shape = (len(weights), bps.size - 1)
    return bps, np.reshape(survs, shape), np.reshape(full, shape)


def _dense_layer_function(bps, slopes, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lower, lengths = bps[:-1], np.diff(bps)
    overlap = np.clip(x[None, :] - lower[:, None], 0.0, lengths[:, None])
    return slopes @ overlap


def _sparse_belief(rng, m, zero_states):
    """Random belief with zero weight on the given states."""
    w = rng.uniform(0.05, 1.0, m)
    w[zero_states] = 0.0
    return EmpiricalSpace(w / w.sum())


def _kernel_market(rng, m, n, *, shared, zero_state, all_zero):
    """Seeded market whose lowest-loss states carry zero weight, so some
    layers above the bottom one have full measure."""
    xs = [rand_losses(rng, m) for _ in range(n)]
    if all_zero:
        xs = [np.zeros(m) for _ in range(n)]
    elif zero_state:
        for x in xs:
            x[0] = 0.0
    else:
        xs[0] = xs[0] + 0.5
    # At least one state keeps its weight.
    low = np.argsort(np.sum(xs, axis=0), kind="stable")[:min(int(rng.integers(0, 3)), m - 1)]
    common = _sparse_belief(rng, m, low)
    beliefs = [common if shared or i % 2 else _sparse_belief(rng, m, low)
               for i in range(n)]
    return [AgentSpec(b, single(rand_distortion(rng)), x)
            for b, x in zip(beliefs, xs)]


KERNEL_CASES = [(shared, zero_state, all_zero)
                for shared in (True, False) for zero_state in (True, False)
                for all_zero in (False, True)
                if not (all_zero and not zero_state)]


@pytest.mark.parametrize("shared, zero_state, all_zero", KERNEL_CASES)
def test_layer_kernel_matches_dense_reference(shared, zero_state, all_zero):
    rng = np.random.default_rng(7000 + 4 * shared + 2 * zero_state + all_zero)
    for _ in range(25):
        m, n = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        agents = _kernel_market(rng, m, n, shared=shared, zero_state=zero_state,
                                all_zero=all_zero)
        S = aggregate_loss(agents)
        weights = [a.belief.weights for a in agents]
        bps, survs, full = _dense_layers(S, weights)
        grid = layer_decomposition(S, [a.belief for a in agents])
        assert np.array_equal(grid.breakpoints, bps)
        assert grid.survivals.shape == survs.shape
        assert np.all(np.abs(grid.survivals - survs) <= 1e-15)
        assert np.all(grid.survivals[full] == 1.0)
        assert all_zero or zero_state or np.all(grid.survivals[:, 0] == 1.0)

        top = float(S.max())
        points = [S, S[0], 0.5 * top, -1.0, top + 3.0, np.array([-2.0, top, 2 * top + 1])]
        alloc, _ = solve_fixed(agents)
        mixed = LayerAllocation(bps, rng.uniform(0.0, 1.0, (n, bps.size - 1)),
                                np.zeros(n), (0,) * n)
        for a in (alloc, mixed):
            for x in points:
                got = a.coverage(x)
                want = _dense_layer_function(bps, a.slopes, x)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-12 * top)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
@pytest.mark.parametrize("zero_state", [True, False])
def test_centralized_layers_match_dense_reference(zero_state):
    rng = np.random.default_rng(7100 + zero_state)
    for _ in range(25):
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        agents = _kernel_market(rng, m, n, shared=True, zero_state=zero_state,
                                all_zero=False)
        space = agents[0].belief
        xs = [a.endowment for a in agents]
        dists = [a.distortions[0] for a in agents]
        contract = solve_centralized(space, xs, dists, 0.2)
        q = contract.q_star
        slopes = []
        for i, (x, d) in enumerate(zip(xs, dists)):
            bps, survs, _ = _dense_layers(x, [space.weights])
            assert np.array_equal(contract.breakpoints[i], bps)
            exceed = x[None, :] > bps[:-1, None]
            qv, nu = exceed @ q, d(survs[0])
            decided = np.abs(qv - nu) > 1e-9
            want = np.where(qv < nu, 1.0, 0.0)
            assert np.array_equal(contract.slopes[i][decided], want[decided])
            slopes.append(rng.uniform(0.0, 1.0, bps.size - 1))
        mixed = CentralizedContract(0.2, q, contract.value, contract.breakpoints,
                                    tuple(slopes))
        for i, x in enumerate(xs):
            top = float(x.max())
            bps = contract.breakpoints[i]
            for pts in (x, -1.0, top + 2.0, 0.5 * top):
                got = mixed.indemnity(i, pts)
                want = _dense_layer_function(bps, slopes[i], pts)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-12 * max(top, 1.0))


def test_solve_fixed_and_coverage_memory_bounded():
    # A dense layers x states grid would need over 400 MB for its bool
    # matrix alone at this size.
    rng = np.random.default_rng(20000)
    m, n = 20000, 30
    shared = EmpiricalSpace.uniform(m)
    beliefs = [shared] * (n - 2) + [_sparse_belief(rng, m, []) for _ in range(2)]
    agents = [AgentSpec(b, single(rand_distortion(rng)),
                        np.round(rng.pareto(2.5, m) * (rng.uniform(size=m) < 0.4), 3))
              for b in beliefs]
    S = aggregate_loss(agents)
    tracemalloc.start()
    try:
        alloc, _ = solve_fixed(agents)
        alloc.coverage(S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alloc.breakpoints.size > m // 2
    assert peak < 64 * 2 ** 20
