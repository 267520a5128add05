"""Centralized insurance: measure LP, indemnities, Stackelberg premiums."""

import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from paretopool import (CentralizedContract, Distortion, EmpiricalSpace,
                        centralized, centralized_welfare, choquet, es,
                        solve_centralized, solve_measure_lp,
                        single, stackelberg_premiums)
from paretopool import AgentSpec, solve_fixed, solve_robust, welfare_report
from paretopool import lp as lp_module
from paretopool import riskmeasure
from paretopool.centralized import TIE_BAND
from paretopool.cli import sweep_rows
from paretopool.errors import (DomainError, NoCessionWarning,
                               ProfileMismatchError, SolverError)
from paretopool.ingest import load_panel, to_space
from paretopool.oracle import brute_force_lp
from testkit import rand_distortion, rand_losses, rand_space

SQ = 0.5 ** 0.5
SWEEP_PANEL = Path(__file__).resolve().parent / "data" / "sweep_panel.csv"


def one_agent_instance():
    return EmpiricalSpace.uniform(2), [np.array([0.0, 10.0])], [Distortion.power(0.5)]


def hand_contract(q, breakpoints, slopes, value=0.0):
    """One agent's contract at a hand-picked measure q (alpha 0.5), with the
    slopes the case rule gives there; ``value`` is only carried along."""
    return CentralizedContract(0.5, np.array(q), value, (np.array(breakpoints),),
                               (np.array(slopes),))


# -- measure LP ---------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_hand_value():
    sp, xs, ds = one_agent_instance()
    lp = solve_measure_lp(sp, xs, ds, 0.5)
    assert lp.value == pytest.approx(10 * SQ, abs=1e-9)
    assert lp.q_star.shape == (2,)
    assert float(np.sum(lp.q_star)) == pytest.approx(1.0, abs=1e-9)
    assert np.all(lp.q_star <= sp.weights / 0.5 + 1e-12)


def test_lp_alpha_one_keeps_reference_measure_value():
    # With alpha near 1 the dual set collapses to {p}, so the LP value is
    # the distorted-vs-plain minimum layer by layer.
    sp, xs, ds = one_agent_instance()
    lp = solve_measure_lp(sp, xs, ds, 1.0 - 1e-9)
    assert lp.value == pytest.approx(10 * min(0.5, SQ), abs=1e-6)


def test_lp_degenerate_all_zero_losses():
    sp = EmpiricalSpace.uniform(3)
    with pytest.warns(NoCessionWarning):
        lp = solve_measure_lp(sp, [np.zeros(3)], [Distortion.power(0.5)], 0.3)
    assert lp.value == 0.0
    assert float(np.sum(lp.q_star)) == pytest.approx(1.0, abs=1e-12)
    assert lp.slopes[0].size == 0


def test_all_zero_market_solves_like_any_other():
    # No layer: A_ub has no row and A_eq only sum q = 1, solved by HiGHS.
    sp, alpha = rand_space(np.random.default_rng(62), 5), 0.3
    xs, ds = [np.zeros(5), np.zeros(5)], [Distortion.power(0.5), Distortion.tvar(0.3)]
    with pytest.warns(NoCessionWarning):
        cold = solve_measure_lp(sp, xs, ds, alpha)
    assert isinstance(cold.model, lp_module.Model)
    assert np.all(cold.q_star >= 0.0) and np.all(cold.q_star <= sp.weights / alpha)
    assert float(np.sum(cold.q_star)) == pytest.approx(1.0, abs=1e-12)
    assert cold.value == 0.0 and math.copysign(1.0, cold.value) == 1.0
    assert [s.size for s in cold.slopes] == [0, 0]
    moved = [Distortion.power(0.8), ds[1]]
    with pytest.warns(NoCessionWarning):
        warm = solve_measure_lp(sp, xs, moved, alpha, warm=cold)
    with pytest.warns(NoCessionWarning):
        fresh = solve_measure_lp(sp, xs, moved, alpha)
    assert warm.model is cold.model
    assert math.copysign(1.0, warm.value) == 1.0 and warm.value == fresh.value
    assert np.array_equal(warm.q_star, fresh.q_star)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_contract_priced_on_a_market_of_another_size():
    sp, xs, base, alpha = sweep_market()
    ds = base + [Distortion.power(0.5)]
    contract = solve_measure_lp(sp, xs, ds, alpha)
    assert not contract.cedes_nothing() and len(xs) == 3
    for k in (2, 4):
        market, dists = (xs * 2)[:k], (ds * 2)[:k]
        match = f"contract has 3 agents but the market has {k} endowments"
        with pytest.raises(ProfileMismatchError, match=match):
            stackelberg_premiums(sp, market, dists, contract)
        with pytest.raises(ProfileMismatchError, match=match):
            centralized_welfare(sp, market, dists, contract)
        with pytest.raises(ProfileMismatchError, match=match):
            contract.indemnity_profiles(sp, market)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_matches_oracle_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n_states = int(rng.integers(2, 6))
        n_agents = int(rng.integers(1, 4))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states, scale=8.0) for _ in range(n_agents)]
        ds = [rand_distortion(rng) for _ in range(n_agents)]
        alpha = float(rng.uniform(0.08, 0.9))
        lp = solve_measure_lp(sp, xs, ds, alpha)
        assert lp.value == pytest.approx(
            brute_force_lp(sp, xs, ds, alpha), abs=1e-6)


def test_lp_input_validation():
    sp, xs, ds = one_agent_instance()
    with pytest.raises(DomainError):
        solve_measure_lp(sp, xs, ds, 0.0)
    with pytest.raises(DomainError):
        solve_measure_lp(sp, xs, ds, 1.0)
    with pytest.raises(ProfileMismatchError):
        solve_measure_lp(sp, [np.array([0.0, 1.0, 2.0])], ds, 0.5)
    with pytest.raises(ProfileMismatchError):
        solve_measure_lp(sp, [], [], 0.5)
    with pytest.raises(DomainError):
        solve_measure_lp(sp, [np.array([0.0, -1.0])], ds, 0.5)


def coo(a):
    """scipy's ``coo_array`` of a COO record with the same field names."""
    return sparse.coo_array((a.data, (a.row, a.col)), shape=a.shape)


def scipy_linprog(c, *, A_ub, A_eq, lower, upper, warm=None, **kwargs):
    """scipy's own ``linprog`` in place of ``centralized.linprog``, cold only;
    its stand-in model only carries what ``solve_measure_lp`` keeps on it."""
    assert warm is None
    res = linprog(c, A_ub=coo(A_ub), A_eq=coo(A_eq), bounds=np.column_stack([lower, upper]),
                  **kwargs)
    return lp_module.Solution(res.x, res.fun, res.ineqlin.marginals, res.nit,
                              lp_module.Model(None, (), (), upper), res.status)


def test_lp_nonzeros_linear_in_states_and_agents(monkeypatch):
    # Each (agent, layer) adds at most four nonzeros (R_ik and R_i,k+1 in
    # its chain row, aux_ik and R_ik in its cession row) and each state one
    # per agent plus one in sum q = 1.  A dense exceedance block would hold
    # about layers x states, here about 8e5.
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs["A_ub"].nnz + kwargs["A_eq"].nnz)
        return scipy_linprog(*args, **kwargs)

    monkeypatch.setattr(centralized, "linprog", spy)
    rng = np.random.default_rng(48)
    m, n = 400, 5
    sp = EmpiricalSpace.uniform(m)
    xs = [rng.uniform(1.0, 100.0, m) for _ in range(n)]
    ds = [Distortion.kahneman_tversky(0.5), Distortion.power(0.6),
          Distortion.prelec1(0.7), Distortion.tvar(0.3), Distortion.power(0.8)]
    lp = solve_measure_lp(sp, xs, ds, 0.2)
    layers = sum(np.unique(X).size for X in xs)
    assert layers == n * m
    assert len(seen) == 1
    assert seen[0] <= 4 * layers + (n + 1) * m
    assert [s.size for s in lp.slopes] == [m] * n


def dense_measure_lp(sp, xs, ds, alpha):
    """Reference LP: one indicator row over all states per (agent, layer)."""
    rows, lens, nus = [], [], []
    for X, d in zip(xs, ds):
        bps = np.unique(np.append(X, 0.0))
        for lo, hi in zip(bps[:-1], bps[1:]):
            above = X > lo
            surv = 1.0 if above.all() else float(np.sum(sp.weights[above]))
            rows.append(above.astype(float))
            lens.append(hi - lo)
            nus.append(float(d(surv)))
    if not rows:
        return 0.0
    m, k = sp.state_count, len(rows)
    res = linprog(np.concatenate([np.zeros(m), -np.array(lens)]),
                  A_ub=np.hstack([-np.array(rows), np.eye(k)]), b_ub=np.zeros(k),
                  A_eq=np.concatenate([np.ones(m), np.zeros(k)])[None, :],
                  b_eq=[1.0],
                  bounds=[(0.0, w / alpha) for w in sp.weights]
                  + [(0.0, v) for v in nus], method="highs")
    assert res.success
    return float(-res.fun)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_matches_dense_reference_formulation():
    rng = np.random.default_rng(49)
    markets = []
    for _ in range(40):
        n_states = int(rng.integers(2, 8))
        n_agents = int(rng.integers(1, 5))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states) for _ in range(n_agents)]
        ds = [rand_distortion(rng) for _ in range(n_agents)]
        markets.append((sp, xs, ds, float(rng.uniform(0.08, 0.9))))
    # An all-zero agent has no layers, no rows and an empty slope array.
    sp = rand_space(rng, 5)
    markets.append((sp, [np.zeros(5), np.array([0.0, 3.0, 1.0, 3.0, 7.0]),
                         np.array([2.0, 0.0, 0.0, 5.0, 4.0])],
                    [Distortion.power(0.5), Distortion.kahneman_tversky(0.6),
                     Distortion.prelec1(0.7)], 0.3))
    for sp, xs, ds, alpha in markets:
        lp = solve_measure_lp(sp, xs, ds, alpha)
        assert lp.value == pytest.approx(dense_measure_lp(sp, xs, ds, alpha),
                                         rel=1e-9, abs=1e-12)
        assert [s.size for s in lp.slopes] == [
            np.unique(np.append(X, 0.0)).size - 1 for X in xs]
        welfare = centralized_welfare(sp, xs, ds, lp)
        rho_sum = sum(choquet(sp, X, d) for X, d in zip(xs, ds))
        assert welfare.aggregate_gain == pytest.approx(rho_sum - lp.value, abs=1e-9)
    assert lp.slopes[0].size == 0
    assert lp.value > 0.0


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_debug_log_reports_size_and_status(caplog):
    sp, xs, ds = one_agent_instance()
    with caplog.at_level(logging.DEBUG, logger="paretopool.centralized"):
        solve_measure_lp(sp, xs, ds, 0.5)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "paretopool.centralized" and r.levelno == logging.DEBUG]
    # One layer: a chain row, the sum row and a cession row over q (2),
    # R and aux.
    assert len(lines) == 1
    assert "3 rows, 4 columns, 6 nonzeros, HiGHS status 0," in lines[0]
    assert " iterations, value " in lines[0]


# -- HiGHS binding and warm starts ---------------------------------------------


def test_highs_binding_has_every_name_linprog_uses():
    from scipy.optimize._highspy import _core as highspy
    for name in ("setOptionValue", "passModel", "changeColsBounds", "run",
                 "getModelStatus", "modelStatusToString", "getSolution", "getInfo"):
        assert hasattr(highspy._Highs, name), name
    for name in ("HighsLp", "MatrixFormat", "HighsStatus", "HighsModelStatus", "kHighsInf"):
        assert hasattr(highspy, name), name
    for name in ("num_col_", "num_row_", "a_matrix_", "col_cost_", "col_lower_",
                 "col_upper_", "row_lower_", "row_upper_"):
        assert hasattr(highspy.HighsLp, name), name


def test_only_lp_names_the_private_highs_binding():
    # One module drives HiGHS: the measure LP solves through it.
    assert centralized.linprog is lp_module.solve
    folder = Path(lp_module.__file__).parent
    assert sorted(p.name for p in folder.glob("*.py")
                  if "_highspy" in p.read_text(encoding="utf-8")) == ["lp.py"]


def test_linprog_infeasible_lp_is_solver_error():
    # x <= -1 with 0 <= x <= 1.
    with pytest.raises(SolverError):
        lp_module.solve(np.zeros(1), A_ub=sparse.coo_array([[1.0]]), b_ub=np.array([-1.0]),
                        A_eq=sparse.coo_array((0, 1)), b_eq=np.zeros(0),
                        lower=np.zeros(1), upper=np.ones(1))


def sweep_market():
    """The criterion-8 market; its third agent is the swept one."""
    space, losses = to_space(load_panel(SWEEP_PANEL.read_text()))
    return (space, list(losses),
            [Distortion.kahneman_tversky(0.4), Distortion.kahneman_tversky(0.5)], 0.15)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_lp_matches_cold_scipy_solve(monkeypatch):
    rng = np.random.default_rng(50)
    markets = [sweep_market()]
    for _ in range(12):
        n_states, n_agents = int(rng.integers(3, 30)), int(rng.integers(1, 4))
        sp = rand_space(rng, n_states)
        markets.append((sp, [rand_losses(rng, n_states, scale=8.0) for _ in range(n_agents + 1)],
                        [rand_distortion(rng) for _ in range(n_agents)],
                        float(rng.uniform(0.08, 0.9))))
    for sp, xs, base, alpha in markets:
        lp = None
        for gamma in (0.3, 0.4, 0.5, 0.6, 0.65, 0.7):
            ds = base + [Distortion.power(gamma)]
            first, lp = lp is None, solve_measure_lp(sp, xs, ds, alpha, warm=lp)
            with monkeypatch.context() as m:
                m.setattr(centralized, "linprog", scipy_linprog)
                cold = solve_measure_lp(sp, xs, ds, alpha)
            if first:
                # The cold solve is scipy's linprog, bit for bit.
                assert lp.value == cold.value
                assert np.array_equal(lp.q_star, cold.q_star)
            assert lp.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
            gains = [centralized_welfare(sp, xs, ds, r).aggregate_gain for r in (lp, cold)]
            assert gains[0] == pytest.approx(gains[1], rel=1e-9, abs=1e-9)


def central_lp_shaped_market():
    """A market of the central-lp workload's shape: 480 months x 10 agents
    with Pareto-tailed losses in every cell, alternating Kahneman-Tversky and
    Prelec1, alpha 0.15."""
    rng = np.random.default_rng(35)
    m, n = 480, 10
    xs = [np.round(1e3 * (rng.pareto(rng.uniform(1.5, 3.0), m) + 1.0), 2) for _ in range(n)]
    ds = [Distortion.kahneman_tversky(rng.uniform(0.4, 0.9)) if i % 2 == 0
          else Distortion.prelec1(rng.uniform(0.5, 0.9)) for i in range(n)]
    return EmpiricalSpace.uniform(m), xs, ds, 0.15


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
@pytest.mark.parametrize("market", ["sweep", "central-lp"])
def test_lp_solve_is_scipys_linprog_bit_for_bit(monkeypatch, market):
    # On the cold measure LP, lp.solve's x, value, duals and iteration count
    # are those of scipy's linprog(method="highs"); the duals set every tie
    # slope.
    if market == "sweep":
        sp, xs, base, alpha = sweep_market()
        ds = base + [Distortion.power(0.5)]
    else:
        sp, xs, ds, alpha = central_lp_shaped_market()
    seen = []

    def spy(**kwargs):
        seen.append((kwargs, lp_module.solve(**kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(centralized, "linprog", spy)
    solve_measure_lp(sp, xs, ds, alpha)
    ((kwargs, got),) = seen
    want = scipy_linprog(**kwargs)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.fun == want.fun
    assert got.duals.tobytes() == want.duals.tobytes()
    assert got.nit == want.nit > 0


def scipy_csc(A_ub, A_eq):
    """indptr, indices and data of scipy's ``csc_array(vstack((A_ub, A_eq)))``
    on the blocks as ``csr_matrix``, as the measure LP once built them."""
    blocks = [sparse.csr_matrix((a.data, (a.row, a.col)), shape=a.shape) for a in (A_ub, A_eq)]
    A = sparse.csc_array(sparse.vstack(blocks))
    return A.indptr, A.indices, A.data


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_matrix_is_scipys_csc_exactly(monkeypatch):
    # The column-wise arrays HiGHS is given are scipy's, dtypes included,
    # so every pivot is the one a scipy-built matrix gave.
    rng = np.random.default_rng(51)
    sp, xs, base, alpha = sweep_market()
    markets = [(sp, xs, base + [Distortion.power(0.5)], alpha)]
    for k in range(12):
        n_states, n_agents = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        xs = [rand_losses(rng, n_states) for _ in range(n_agents)]
        if k % 3 == 1:
            xs = [np.round(X) for X in xs]  # tied losses: states share a level
        if k % 3 == 2:
            xs[0] = np.zeros(n_states)  # a constant-zero agent has no layer
        markets.append((rand_space(rng, n_states), xs,
                        [rand_distortion(rng) for _ in xs], float(rng.uniform(0.08, 0.9))))
    seen = []

    def spy(*args, **kwargs):
        res = linprog_under_test(*args, **kwargs)
        seen.append((kwargs["A_ub"], kwargs["A_eq"], res.model.problem[1:4]))
        return res

    linprog_under_test = centralized.linprog
    monkeypatch.setattr(centralized, "linprog", spy)
    for market in markets:
        solve_measure_lp(*market)
    assert len(seen) == len(markets)
    for a_ub, a_eq, given in seen:
        assert_same_arrays(given, scipy_csc(a_ub, a_eq))


def test_lp_matrix_with_no_equality_rows_is_scipys_csc():
    # max x + 2y + 3z subject to x + y <= 1, y + z <= 1, x + z <= 1.5, 0 <= x, y, z <= 1.
    a_ub = sparse.coo_array(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    a_eq = sparse.coo_array((0, 3))
    res = lp_module.solve(np.array([-1.0, -2.0, -3.0]), A_ub=a_ub,
                          b_ub=np.array([1.0, 1.0, 1.5]), A_eq=a_eq, b_eq=np.zeros(0),
                          lower=np.zeros(3), upper=np.ones(3))
    assert_same_arrays(res.model.problem[1:4], scipy_csc(a_ub, a_eq))
    assert res.fun == pytest.approx(-3.5)  # at (0.5, 0, 1)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_lp_memory_linear_in_states_and_agents():
    # Aim 3's "no hidden O(m^2)": doubling m, or n, at most about doubles
    # the Python-side peak (HiGHS's own memory is not traced).  A dense
    # layers x states block would add 8 n m^2 bytes and fail the bound.
    def peak(m, n):
        rng = np.random.default_rng(52)
        sp = EmpiricalSpace.uniform(m)
        xs = [rng.uniform(1.0, 100.0, m) for _ in range(n)]
        ds = [Distortion.power(0.5 + 0.1 * i) for i in range(n)]
        tracemalloc.start()
        try:
            solve_measure_lp(sp, xs, ds, 0.2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10, 2)  # the binding is loaded before any peak is traced
    base = peak(60, 3)
    assert peak(120, 3) < 2.3 * base
    assert peak(60, 6) < 2.3 * base


def test_sweep_repeated_grid_point_gives_identical_rows():
    sp, xs, base, alpha = sweep_market()
    dist_sets = [single(d) for d in base + [Distortion.power(0.5)]]
    rows = sweep_rows(sp, xs, dist_sets, 2, [0.5, 0.5], alpha)
    assert rows[0] == rows[1]


def test_sweep_of_an_empty_grid_has_no_rows():
    sp, xs, base, alpha = sweep_market()
    dist_sets = [single(d) for d in base + [Distortion.power(0.5)]]
    assert sweep_rows(sp, xs, dist_sets, 2, [], alpha) == []


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_lp_refuses_another_alpha_or_endowments():
    sp, xs, ds = one_agent_instance()
    lp = solve_measure_lp(sp, xs, ds, 0.5)
    with pytest.raises(DomainError, match="same space, endowments and alpha"):
        solve_measure_lp(sp, xs, ds, 0.4, warm=lp)
    with pytest.raises(DomainError, match="column upper bounds only"):
        solve_measure_lp(sp, [np.array([0.0, 7.0])], ds, 0.5, warm=lp)
    with pytest.raises(DomainError):
        solve_measure_lp(EmpiricalSpace.uniform(3), [np.array([0.0, 10.0, 4.0])], ds, 0.5, warm=lp)
    # Another distortion only moves the layer cap nu: 10 * 0.5 ** 0.8.
    warm = solve_measure_lp(sp, xs, [Distortion.power(0.8)], 0.5, warm=lp)
    assert warm.value == pytest.approx(10 * 0.5 ** 0.8, abs=1e-9)


def test_highs_binding_has_every_name_the_warm_restart_uses():
    # A scipy whose binding lacks one of these fails here, not mid-sweep.
    highs = lp_module._highs_binding()._Highs
    for name in ("getBasis", "setBasis", "clearSolver", "setOptionValue", "getOptionValue"):
        assert hasattr(highs, name), name


def test_warm_linprog_takes_the_cold_calls_arrays_and_new_upper_bounds_only():
    # max x + 2y + 3z subject to x + y <= 1, y + z <= 1, x + z <= 1.5.
    a_ub = sparse.coo_array(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    args = dict(A_ub=a_ub, b_ub=np.array([1.0, 1.0, 1.5]), A_eq=sparse.coo_array((0, 3)),
                b_eq=np.zeros(0))
    c, lower = np.array([-1.0, -2.0, -3.0]), np.zeros(3)
    res = lp_module.solve(c, lower=lower, upper=np.ones(3), **args)
    # z <= 0.5: the optimum moves to (0.5, 0.5, 0.5).
    warm = lp_module.solve(c, lower=lower, upper=np.array([1.0, 1.0, 0.5]), warm=res.model,
                           **args)
    assert warm.model is res.model
    assert warm.fun == pytest.approx(-3.0)
    with pytest.raises(DomainError, match="column upper bounds only"):
        lp_module.solve(c, lower=lower, upper=np.ones(3), warm=res.model,
                        **dict(args, A_ub=sparse.coo_array(a_ub.toarray())))
    with pytest.raises(DomainError, match="column upper bounds only"):
        lp_module.solve(c, lower=np.full(3, 0.1), upper=np.ones(3), warm=res.model, **args)


GRID = (0.3, 0.4, 0.5, 0.6, 0.65, 0.7)
DEVEX = ("simplex_dual_edge_weight_strategy", 1)


def highs_options(highs):
    """Every HiGHS option of a model, by name."""
    names = [n for n in dir(lp_module._highs_binding().HighsOptions) if not n.startswith("_")]
    return {name: highs.getOptionValue(name)[1] for name in names}


def warm_and_cold(sp, xs, ds, alpha, warm):
    """A warm solve from ``warm`` and a cold one, which must agree."""
    lp = solve_measure_lp(sp, xs, ds, alpha, warm=warm)
    cold = solve_measure_lp(sp, xs, ds, alpha)
    assert lp.model is warm.model
    assert lp.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
    gains = [centralized_welfare(sp, xs, ds, r).aggregate_gain for r in (lp, cold)]
    assert gains[0] == pytest.approx(gains[1], rel=1e-9, abs=1e-9)
    return lp, cold


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_sweep_builds_the_measure_lp_once(monkeypatch):
    sp, xs, base, alpha = sweep_market()
    builds, warms = [], []
    colwise, solve = lp_module._colwise, centralized.linprog

    def build_spy(*args):
        builds.append(args)
        return colwise(*args)

    def solve_spy(*args, **kwargs):
        warms.append(kwargs.get("warm"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp_module, "_colwise", build_spy)
    monkeypatch.setattr(centralized, "linprog", solve_spy)
    dist_sets = [single(d) for d in base + [Distortion.power(0.5)]]
    assert len(sweep_rows(sp, xs, dist_sets, 2, list(GRID), alpha)) == len(GRID)
    assert len(builds) == 1
    # Every grid point still solves through centralized.linprog, the later
    # ones warm on the first one's model.
    assert len(warms) == len(GRID) and warms[0] is None
    assert isinstance(warms[1], lp_module.Model)
    assert all(w is warms[1] for w in warms[1:])


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_lp_evaluates_only_the_changed_caps(monkeypatch):
    sp, xs, base, alpha = sweep_market()
    lp = solve_measure_lp(sp, xs, base + [Distortion.power(0.3)], alpha)
    seen, evaluate = [], Distortion.__call__

    def spy(d, t):
        seen.append(d)
        return evaluate(d, t)

    monkeypatch.setattr(Distortion, "__call__", spy)
    lp = solve_measure_lp(sp, xs, base + [Distortion.power(0.5)], alpha, warm=lp)
    assert seen == [Distortion.power(0.5)]
    seen.clear()
    solve_measure_lp(sp, xs, [Distortion.power(0.9), base[1], Distortion.power(0.5)], alpha,
                     warm=lp)
    assert seen == [Distortion.power(0.9)]


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_lp_matches_cold_in_any_grid_order():
    rng = np.random.default_rng(53)
    markets = [sweep_market()]
    for _ in range(8):
        n_states, n_agents = int(rng.integers(3, 30)), int(rng.integers(1, 4))
        markets.append((rand_space(rng, n_states),
                        [rand_losses(rng, n_states, scale=8.0) for _ in range(n_agents + 1)],
                        [rand_distortion(rng) for _ in range(n_agents)],
                        float(rng.uniform(0.08, 0.9))))
    fresh = lp_module._highs_binding()._Highs()
    for key, value in lp_module._HIGHS_OPTIONS:
        fresh.setOptionValue(key, value)
    for sp, xs, base, alpha in markets:
        for order in (GRID[::-1], tuple(rng.permutation(GRID))):
            lp = solve_measure_lp(sp, xs, base + [Distortion.power(order[0])], alpha)
            for gamma in order[1:]:
                lp, cold = warm_and_cold(sp, xs, base + [Distortion.power(gamma)], alpha, lp)
                # A warm solve prices by Devex; a cold one keeps scipy's options.
                assert lp.model.highs.getOptionValue(DEVEX[0])[1] == DEVEX[1]
                assert highs_options(cold.model.highs) == highs_options(fresh)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_lp_from_an_older_contract_follows_the_model():
    # Contracts of one chain share its model, which holds the caps of the
    # latest solve, not those of the contract a solve starts from.
    sp, xs, base, alpha = sweep_market()
    old = solve_measure_lp(sp, xs, base + [Distortion.power(0.3)], alpha)
    new = solve_measure_lp(sp, xs, base + [Distortion.power(0.7)], alpha, warm=old)
    for gamma in (0.3, 0.5, 0.3, 0.7):
        warm_and_cold(sp, xs, base + [Distortion.power(gamma)], alpha, old)
    warm_and_cold(sp, xs, [Distortion.power(0.9)] + base[1:] + [Distortion.power(0.5)], alpha,
                  new)
    warm_and_cold(sp, xs, base + [Distortion.power(0.5)], alpha, old)


# -- indemnity case logic -----------------------------------------------------


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_case_logic_every_layer_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_states = int(rng.integers(2, 6))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states) for _ in range(2)]
        ds = [rand_distortion(rng) for _ in range(2)]
        alpha = float(rng.uniform(0.1, 0.9))
        contract = solve_centralized(sp, xs, ds, alpha)
        for i, (X, d) in enumerate(zip(xs, ds)):
            bps = contract.breakpoints[i]
            for k, lo in enumerate(bps[:-1]):
                exceed = X > lo
                qv = float(contract.q_star[exceed].sum())
                nu_arg = float(sp.weights[exceed].sum())
                if not np.any(~exceed) or float(sp.weights[~exceed].sum()) == 0.0:
                    nu_arg = 1.0
                nu = d(min(nu_arg, 1.0))
                slope = contract.slopes[i][k]
                if qv < nu - TIE_BAND:
                    assert slope == 1.0
                elif qv > nu + TIE_BAND:
                    assert slope == 0.0
                else:
                    assert 0.0 <= slope <= 1.0


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_one_distortion_pass_per_contract(monkeypatch):
    # The LP's caps nu are the tables the case rule reads: each agent's
    # distortion is evaluated once, on its whole layer grid.
    rng = np.random.default_rng(51)
    sp = rand_space(rng, 6)
    xs = [rand_losses(rng, 6) for _ in range(3)]
    ds = [rand_distortion(rng) for _ in range(3)]
    calls, evaluate = [], Distortion.__call__

    def spy(self, t):
        calls.append(self)
        return evaluate(self, t)

    monkeypatch.setattr(Distortion, "__call__", spy)
    solve_centralized(sp, xs, ds, 0.3)
    assert calls == ds


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_indemnity_is_lipschitz_and_bounded():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n_states = int(rng.integers(2, 6))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states) for _ in range(2)]
        ds = [rand_distortion(rng) for _ in range(2)]
        contract = solve_centralized(sp, xs, ds, 0.2)
        profiles = contract.indemnity_profiles(sp, xs)
        for i, X in enumerate(xs):
            assert np.all(profiles[i] >= -1e-12)
            assert np.all(profiles[i] <= X + 1e-12)
            order = np.argsort(X)
            gaps_x = np.diff(X[order])
            gaps_i = np.diff(profiles[i][order])
            assert np.all(gaps_i <= gaps_x + 1e-9)
            assert np.all(gaps_i >= -1e-9)


def test_deductible_detection():
    # X = (0, 5, 10) on three equal states under power(0.5).
    bps = [0.0, 5.0, 10.0]
    # Retain the first layer, cede the tail: deductible at 5.
    contract = hand_contract([0.1, 0.5, 0.4], bps, [0.0, 1.0])
    assert contract.deductible(0) == 5.0
    # Full cession is a deductible at 0.
    contract = hand_contract([0.98, 0.01, 0.01], bps, [1.0, 1.0])
    assert contract.deductible(0) == 0.0
    # No cession has no deductible.
    contract = hand_contract([0.0, 0.25, 0.75], bps, [0.0, 0.0])
    assert contract.deductible(0) is None


def test_contract_to_dict():
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0], value=10 * SQ)
    payload = contract.to_dict(labels=["CA"])
    assert payload["schema_version"] == 1
    assert payload["agents"][0]["label"] == "CA"
    assert payload["agents"][0]["deductible"] == 0.0
    assert payload["lp_value"] == pytest.approx(10 * SQ)


# -- realized welfare sits on the LP frontier ---------------------------------


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_realized_welfare_matches_lp_frontier():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n_states = int(rng.integers(2, 7))
        n_agents = int(rng.integers(1, 4))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states) for _ in range(n_agents)]
        ds = [rand_distortion(rng) for _ in range(n_agents)]
        alpha = float(rng.uniform(0.1, 0.9))
        contract = solve_centralized(sp, xs, ds, alpha)
        welfare = centralized_welfare(sp, xs, ds, contract)
        rho_sum = sum(choquet(sp, X, d) for X, d in zip(xs, ds))
        assert welfare.aggregate_gain == pytest.approx(
            rho_sum - contract.value, abs=1e-9)
        assert welfare.aggregate_gain >= -1e-9
        assert welfare.average_gain == pytest.approx(
            welfare.aggregate_gain / (n_agents + 1), abs=1e-12)


def test_optimality_certificate_at_benchmark_scale():
    # The central-lp workload's shape: 480 months x 10 agents of
    # Pareto-tailed losses, alternating Kahneman-Tversky and Prelec1.
    rng = np.random.default_rng(480)
    m, n, alpha = 480, 10, 0.15
    sp = EmpiricalSpace.uniform(m)
    tails, scales = rng.uniform(1.5, 3.0, n), rng.uniform(1e3, 1e4, n)
    xs = [np.round(scale * (1.0 - rng.random(m)) ** (-1.0 / tail), 2)
          for tail, scale in zip(tails, scales)]
    ds = [Distortion.kahneman_tversky(rng.uniform(0.4, 0.9)) if i % 2 == 0
          else Distortion.prelec1(rng.uniform(0.5, 0.9)) for i in range(n)]
    contract = solve_centralized(sp, xs, ds, alpha)
    welfare = centralized_welfare(sp, xs, ds, contract)
    rho_sum = math.fsum(choquet(sp, X, d) for X, d in zip(xs, ds))
    assert abs(rho_sum - welfare.aggregate_gain - contract.value) <= 1e-9 * abs(contract.value)
    q = contract.q_star
    assert np.all(q >= 0.0) and np.all(q <= sp.weights / alpha)
    assert abs(math.fsum(q) - 1.0) <= 1e-9


def test_welfare_is_premium_independent():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0])
    base = centralized_welfare(sp, xs, ds, contract)
    priced = centralized_welfare(sp, xs, ds, contract, premiums=[3.0])
    assert priced.aggregate_gain == base.aggregate_gain
    assert priced.policyholder_gains[0] == pytest.approx(
        base.gross_gains[0] - 3.0, abs=1e-12)
    assert priced.insurer_gain == pytest.approx(3.0 - base.insurer_risk, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_welfare_rejects_non_finite_premiums(bad):
    # A NaN gain would reach the JSON output as NaN, which is not JSON.
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0])
    with pytest.raises(DomainError, match="premiums must be finite"):
        centralized_welfare(sp, xs, ds, contract, premiums=[bad])


def test_welfare_rejects_a_premium_count_other_than_the_agent_count():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0])
    with pytest.raises(ProfileMismatchError, match="one premium per agent required"):
        centralized_welfare(sp, xs, ds, contract, premiums=[1.0, 2.0])


def test_welfare_to_dict_writes_the_premium_split_only_when_priced():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0])
    priced = centralized_welfare(sp, xs, ds, contract, premiums=[3.0])
    out = priced.to_dict(["A"])
    assert out["policyholder_gains"] == priced.policyholder_gains.tolist()
    assert out["insurer_gain"] == priced.insurer_gain
    unpriced = centralized_welfare(sp, xs, ds, contract).to_dict(["A"])
    assert unpriced == {k: v for k, v in out.items()
                        if k not in ("policyholder_gains", "insurer_gain")}


def test_no_insurance_contract_zero_gain():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.1, 0.9], [0.0, 10.0], [0.0])
    welfare = centralized_welfare(sp, xs, ds, contract)
    assert welfare.aggregate_gain == pytest.approx(0.0, abs=1e-12)
    assert welfare.insurer_risk == 0.0


# -- Stackelberg premiums -----------------------------------------------------


def test_stackelberg_zero_indemnity_zero_premium():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.1, 0.9], [0.0, 10.0], [0.0])
    premiums = stackelberg_premiums(sp, xs, ds, contract)
    assert premiums[0] == pytest.approx(0.0, abs=1e-12)


def test_stackelberg_full_cession_hand_choquet():
    sp, xs, ds = one_agent_instance()
    contract = hand_contract([0.7, 0.3], [0.0, 10.0], [1.0])
    premiums = stackelberg_premiums(sp, xs, ds, contract)
    assert premiums[0] == pytest.approx(10 * SQ, abs=1e-12)


def test_stackelberg_identity_full_cession_is_expectation():
    sp = EmpiricalSpace.uniform(2)
    xs = [np.array([0.0, 10.0])]
    ds = [Distortion.identity()]
    contract = hand_contract([0.9, 0.1], [0.0, 10.0], [1.0])
    premiums = stackelberg_premiums(sp, xs, ds, contract)
    assert premiums[0] == pytest.approx(5.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_stackelberg_identities_random():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n_states = int(rng.integers(2, 6))
        n_agents = int(rng.integers(1, 4))
        sp = rand_space(rng, n_states)
        xs = [rand_losses(rng, n_states) for _ in range(n_agents)]
        ds = [rand_distortion(rng) for _ in range(n_agents)]
        alpha = float(rng.uniform(0.1, 0.9))
        contract = solve_centralized(sp, xs, ds, alpha)
        premiums = stackelberg_premiums(sp, xs, ds, contract)
        welfare = centralized_welfare(sp, xs, ds, contract, premiums=premiums)
        assert welfare.policyholder_gains == pytest.approx(
            np.zeros(n_agents), abs=1e-9)
        assert welfare.insurer_gain == pytest.approx(
            welfare.aggregate_gain, abs=1e-9)


def test_stackelberg_alpha_threshold_reports_no_insurance():
    # An expensive-capital insurer (tiny alpha) prices itself out of the
    # market; the solver reports the no-cession contract with a warning
    # instead of hard-coding a threshold.
    sp = EmpiricalSpace.uniform(4)
    xs = [np.array([0.0, 1.0, 2.0, 8.0])]
    ds = [Distortion.power(0.9)]
    with pytest.warns(NoCessionWarning):
        contract = solve_centralized(sp, xs, ds, 0.01)
    assert contract.cedes_nothing()
    welfare = centralized_welfare(sp, xs, ds, contract)
    assert welfare.aggregate_gain == pytest.approx(0.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_insurer_risk_is_es_of_pool():
    # On an LP contract every state's value is a breakpoint, so the pool the
    # welfare pass reads off its layer sums is the indemnity profiles' sum,
    # bit for bit.
    rng = np.random.default_rng(46)
    sp, xs, base, alpha = sweep_market()
    markets = [(sp, xs, base + [Distortion.power(gamma)], alpha) for gamma in (0.3, 0.5, 0.7)]
    for _ in range(40):
        markets.append(random_market(rng, int(rng.integers(1, 30)), int(rng.integers(1, 5))))
    for sp, xs, ds, alpha in markets:
        contract = solve_centralized(sp, xs, ds, alpha)
        pool = contract.indemnity_profiles(sp, xs).sum(axis=0)
        assert centralized_welfare(sp, xs, ds, contract).insurer_risk == es(sp, pool, alpha)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_welfare_prices_each_agent_once_and_builds_no_indemnity_profile(monkeypatch):
    sp, xs, base, alpha = sweep_market()
    ds = base + [Distortion.power(0.5)]
    contract = solve_centralized(sp, xs, ds, alpha)
    calls, evaluated, pricing = [], [], []
    price, evaluate = centralized._layer_prices, riskmeasure._layer_values

    def spy(*args, **kwargs):
        calls.append(args[2])
        pricing.append(True)
        try:
            return price(*args, **kwargs)
        finally:
            pricing.pop()

    def evaluate_spy(*args, **kwargs):
        assert pricing, "a layer function was evaluated outside _layer_prices"
        evaluated.append(args[2])
        return evaluate(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the welfare pass evaluated an indemnity profile")

    monkeypatch.setattr(centralized, "_layer_prices", spy)
    for owner in (centralized, riskmeasure):
        monkeypatch.setattr(owner, "_layer_values", evaluate_spy)
    monkeypatch.setattr(CentralizedContract, "indemnity_profiles", refuse)
    welfare = centralized_welfare(sp, xs, ds, contract)
    assert len(calls) == len(xs)
    assert all(np.array_equal(z, X) for z, X in zip(calls, xs))
    assert len(evaluated) == len(xs)
    assert all(np.array_equal(z, X) for z, X in zip(evaluated, xs))
    assert welfare.insurer_risk > 0.0


# -- grid points priced on layer tables ---------------------------------------


def choquet_gains(sp, xs, ds, contract):
    """rho_i(X_i) - rho_i(X_i - I_i(X_i)) from two Choquet integrals each."""
    return np.array([choquet(sp, X, d) - choquet(sp, X - contract.indemnity(i, X), d)
                     for i, (X, d) in enumerate(zip(xs, ds))])


def assert_gross_gains_match(sp, xs, ds, contract):
    gross = centralized_welfare(sp, xs, ds, contract).gross_gains
    # The premiums and the welfare's gross gains come from one helper.
    assert np.array_equal(stackelberg_premiums(sp, xs, ds, contract), gross)
    assert gross == pytest.approx(choquet_gains(sp, xs, ds, contract), rel=1e-12)


def random_market(rng, n_states, n_agents):
    """Space, endowments, distortions and alpha; some markets carry a state
    of zero weight, every endowment some exact zeros."""
    sp = rand_space(rng, n_states)
    if n_states > 2 and rng.uniform() < 0.4:
        w = sp.weights.copy()
        w[int(rng.integers(n_states))] = 0.0
        sp = EmpiricalSpace(w / w.sum())
    return (sp, [rand_losses(rng, n_states, scale=8.0) for _ in range(n_agents)],
            [rand_distortion(rng) for _ in range(n_agents)], float(rng.uniform(0.08, 0.9)))


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_gross_gains_equal_choquet_differences_on_lp_contracts():
    rng = np.random.default_rng(270)
    sp, xs, base, alpha = sweep_market()
    markets = [(sp, xs, base + [Distortion.power(0.5)], alpha)]
    for _ in range(40):
        markets.append(random_market(rng, int(rng.integers(1, 30)), int(rng.integers(1, 5))))
    # An all-zero endowment beside a loss, on non-uniform weights.
    markets.append((EmpiricalSpace([0.1, 0.2, 0.3, 0.4]),
                    [np.zeros(4), np.array([0.0, 2.0, 5.0, 9.0])],
                    [Distortion.power(0.4), Distortion.prelec1(0.6)], 0.3))
    for sp, xs, ds, alpha in markets:
        assert_gross_gains_match(sp, xs, ds, solve_centralized(sp, xs, ds, alpha))


def test_gross_gains_split_hand_built_layers_at_the_endowments_values():
    rng = np.random.default_rng(271)
    for _ in range(60):
        n_states, n_agents = int(rng.integers(1, 15)), int(rng.integers(1, 4))
        sp, xs, ds, _ = random_market(rng, n_states, n_agents)
        bps, slopes = [], []
        for X in xs:
            # Breakpoints that skip some values of X, start above 0 or stop
            # below max X, with fractional slopes.
            top = float(X.max()) * rng.uniform(0.5, 1.5) + 1.0
            b = np.unique(np.concatenate([rng.uniform(0.0, top, int(rng.integers(1, 6))),
                                          rng.choice(X, int(rng.integers(0, 3)))]))
            bps.append(b)
            slopes.append(rng.choice([0.0, 0.25, 1.0], b.size - 1))
        contract = CentralizedContract(0.5, sp.weights.copy(), 0.0, tuple(bps), tuple(slopes))
        assert_gross_gains_match(sp, xs, ds, contract)
    # One layer [0, 10] over X = (0, 2, 5, 10), fully ceded: the gain is
    # rho(X) itself, which the unsplit layer would price as 10 * T(3/4).
    sp, X, d = EmpiricalSpace.uniform(4), np.array([0.0, 2.0, 5.0, 10.0]), Distortion.power(0.5)
    contract = CentralizedContract(0.5, sp.weights.copy(), 0.0, (np.array([0.0, 10.0]),),
                                   (np.array([1.0]),))
    (gain,) = stackelberg_premiums(sp, [X], [d], contract)
    assert gain == pytest.approx(choquet(sp, X, d), rel=1e-12)
    assert gain != pytest.approx(10.0 * d(0.75))


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_gross_gains_of_an_older_contract_use_its_own_distortions():
    # The model of a warm chain holds the caps of its latest solve; an older
    # contract of the chain is still priced with the distortions passed in.
    sp, xs, base, alpha = sweep_market()
    old_ds = base + [Distortion.power(0.3)]
    old = solve_measure_lp(sp, xs, old_ds, alpha)
    solve_measure_lp(sp, xs, base + [Distortion.power(0.7)], alpha, warm=old)
    assert_gross_gains_match(sp, xs, old_ds, old)


def sweep_markets():
    """The criterion-8 market and 8 random ones, as (space, endowments,
    single-distortion sets, swept index, alpha)."""
    sp, xs, base, alpha = sweep_market()
    out = [(sp, xs, [single(d) for d in base + [Distortion.power(0.5)]], 2, alpha)]
    rng = np.random.default_rng(272)
    for _ in range(8):
        n_agents = int(rng.integers(1, 5))
        sp, xs, ds, alpha = random_market(rng, int(rng.integers(2, 30)), n_agents)
        out.append((sp, xs, [single(d) for d in ds], int(rng.integers(n_agents)), alpha))
    return out


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_sweep_rows_equal_direct_welfare_calls():
    grid = [0.3, 0.5, 0.7, 0.5, 1.4]
    for sp, xs, dist_sets, swept, alpha in sweep_markets():
        rows = sweep_rows(sp, xs, dist_sets, swept, grid, alpha)
        assert [row[0] for row in rows] == grid
        for gamma, rpra, cen, dec, pct in rows:
            ds = [Distortion.power(gamma) if i == swept else s[0]
                  for i, s in enumerate(dist_sets)]
            agents = [AgentSpec(sp, single(d), x) for d, x in zip(ds, xs)]
            report = welfare_report(agents, solve_robust(agents).allocation)
            cold = centralized_welfare(sp, xs, ds, solve_measure_lp(sp, xs, ds, alpha))
            assert dec == pytest.approx(report.average_gain, rel=1e-12)
            assert cen == pytest.approx(cold.average_gain, rel=1e-12)
            assert rpra == 1.0 - gamma
            if cen != 0.0:
                assert pct == 100.0 * (cen - dec) / cen


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_sweep_prices_each_pre_trade_risk_once(monkeypatch):
    from paretopool import cli
    sp, xs, dist_sets, swept, alpha = sweep_markets()[0]
    seen, price = [], cli.choquet

    def spy(space, values, d):
        seen.append((next(i for i, x in enumerate(xs) if x is values), d))
        return price(space, values, d)

    monkeypatch.setattr(cli, "choquet", spy)
    grid = [0.3, 0.5, 0.3, 0.7, 0.5, 0.65]
    assert len(sweep_rows(sp, xs, dist_sets, swept, grid, alpha)) == len(grid)
    # Once per distinct (agent, distortion): the fixed agents once each, the
    # swept one once per distinct grid value.
    assert len(seen) == len(set(seen))
    for i, s in enumerate(dist_sets):
        if i != swept:
            assert seen.count((i, s[0])) == 1
    assert sorted(d.params[0] for i, d in seen if i == swept) == [0.3, 0.5, 0.65, 0.7]


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_warm_measure_lp_sorts_nothing(monkeypatch):
    sp, xs, base, alpha = sweep_market()
    tables, table = [], riskmeasure._layer_table

    def spy(*args, **kwargs):
        tables.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(riskmeasure, "_layer_table", spy)
    monkeypatch.setattr(centralized, "_layer_table", spy)
    lp = solve_measure_lp(sp, xs, base + [Distortion.power(0.3)], alpha)
    assert len(tables) == len(xs)        # the cold build, once per agent
    tables.clear()
    for gamma in GRID:
        lp = solve_measure_lp(sp, xs, base + [Distortion.power(gamma)], alpha, warm=lp)
    assert tables == []


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
def test_sweep_index_must_name_an_agent():
    sp, xs, dist_sets, _, alpha = sweep_markets()[0]
    n = len(dist_sets)
    for bad in (n, -1):
        with pytest.raises(DomainError, match=f"sweep index {bad} .* {n} agents"):
            sweep_rows(sp, xs, dist_sets, bad, [0.3, 0.7], alpha)
    rows = sweep_rows(sp, xs, dist_sets, n - 1, [0.3, 0.7], alpha)
    assert rows[0][2:] != rows[1][2:]


# -- the centralized market against the layer market ---------------------------


def layer_optimum_with_insurer(sp, xs, ds, alpha):
    """solve_fixed's value with the policyholders and a tvar(alpha) agent
    of zero endowment in the role of the insurer."""
    insurer = AgentSpec(sp, single(Distortion.tvar(alpha)), np.zeros(sp.state_count))
    agents = [AgentSpec(sp, single(d), x) for d, x in zip(ds, xs)] + [insurer]
    return solve_fixed(agents)[1]


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 25))
@settings(max_examples=100, deadline=None)
def test_one_policyholder_lp_is_the_layer_optimum_with_a_tvar_insurer(seed, n_states):
    # Both equal sum_k len_k min(T(P(X > b_k)), min(P(X > b_k) / alpha, 1)).
    sp, xs, ds, alpha = random_market(np.random.default_rng(seed), n_states, 1)
    value = solve_centralized(sp, xs, ds, alpha).value
    optimum = layer_optimum_with_insurer(sp, xs, ds, alpha)
    assert abs(value - optimum) <= 1e-12 * abs(optimum)


@pytest.mark.filterwarnings("ignore::paretopool.errors.NoCessionWarning")
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 25),
       n_agents=st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_comonotone_layer_optimum_is_at_most_the_lp_value(seed, n_states, n_agents):
    # Ceding each I_i(X_i) to the tvar agent allocates S comonotonely, so the
    # layer optimum is at most the sum of the one-policyholder values, which
    # the LP reaches with the measure p / alpha on the top states.
    rng = np.random.default_rng(seed)
    sp, xs, ds, alpha = random_market(rng, n_states, n_agents)
    order = rng.permutation(n_states)
    comonotone = []
    for x in xs:
        y = np.empty_like(x)
        y[order] = np.sort(x)
        comonotone.append(y)
    value = solve_centralized(sp, comonotone, ds, alpha).value
    assert layer_optimum_with_insurer(sp, comonotone, ds, alpha) <= value + 1e-12 * abs(value)
