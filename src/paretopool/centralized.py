"""Centralized insurance market: Pareto-optimal indemnities and premiums.

All agents share one reference measure and price with plain distortion risk
measures; the insurer prices with expected shortfall at level alpha.  The
Pareto frontier is found by the measure problem

    max over Q in {0 <= q <= p/alpha, sum q = 1} of
        sum_i sum_layers length * min(Q(X_i > t), nu_i(X_i > t))

with nu_i the agent's distorted reference survival.  Optimal indemnities
cover exactly the layers where Q* sits below nu_i; premiums move welfare
between policyholders and insurer without changing the aggregate gain.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoCessionWarning, ProfileMismatchError
from .lp import Coo, Model
from .lp import solve as linprog  # a module global: tests and the tracer patch it
from .riskmeasure import (EmpiricalSpace, _layer_prices, _layer_values, _layer_table,
                          _tails, as_profile, es)

log = logging.getLogger(__name__)

# Half-width of the tie band around Q* = nu in the indemnity case split.
TIE_BAND = 1e-12


def _check_inputs(space, endowments, distortions, alpha):
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"insurer alpha must lie in (0, 1), got {alpha}")
    if len(endowments) == 0 or len(endowments) != len(distortions):
        raise ProfileMismatchError("need one distortion per endowment")
    xs = []
    for X in endowments:
        x = as_profile(space, X)
        if np.any(x < 0.0):
            raise DomainError("endowments must be non-negative losses")
        xs.append(x)
    return xs, alpha


@dataclass(frozen=True, eq=False)
class CentralizedContract:
    """Per-agent indemnity marginals plus the supporting measure Q*.

    slopes[i][k] is the indemnity slope of agent i on its own layer k:
    1 where Q* undercuts nu_i, 0 where it exceeds it, and on the tie band
    the cession fraction the measure LP's dual gives that layer.  ``value``
    is the LP optimum.  ``model`` is the live HiGHS model of the solve
    (None only for a hand-built contract); a warm solve from this contract
    moves it on to the new problem, so every contract of one warm chain
    shares it.
    """

    alpha: float
    q_star: np.ndarray
    value: float
    breakpoints: tuple[np.ndarray, ...]
    slopes: tuple[np.ndarray, ...]
    model: Model | None = field(default=None, repr=False)

    def indemnity(self, i: int, x) -> np.ndarray:
        return _layer_values(self.breakpoints[i], self.slopes[i], x)[-1]

    def indemnity_profiles(self, space: EmpiricalSpace, endowments) -> np.ndarray:
        self._check_agents(len(endowments))
        return np.array([self.indemnity(i, as_profile(space, X))
                         for i, X in enumerate(endowments)])

    def _check_agents(self, count: int) -> None:
        if count != len(self.slopes):
            raise ProfileMismatchError(f"the contract has {len(self.slopes)} agents but "
                                       f"the market has {count} endowments")

    def deductible(self, i: int) -> float | None:
        """Deductible level when agent i's contract is 0..0 then 1..1.

        Returns None for any other slope pattern, including no cession at
        all and any fractional tie layer.
        """
        s = self.slopes[i]
        ones = np.flatnonzero(s == 1.0)
        if ones.size == 0:
            return None
        first = ones[0]
        if np.all(s[:first] == 0.0) and np.all(s[first:] == 1.0):
            return float(self.breakpoints[i][first])
        return None

    def cedes_nothing(self) -> bool:
        return all(float(np.dot(s, np.diff(b))) == 0.0
                   for s, b in zip(self.slopes, self.breakpoints))

    def to_dict(self, labels) -> dict:
        agents = [{"label": label,
                   "breakpoints": self.breakpoints[i].tolist(),
                   "slopes": self.slopes[i].tolist(),
                   "deductible": self.deductible(i)}
                  for i, label in enumerate(labels)]
        return {
            "schema_version": 1,
            "alpha": self.alpha,
            "lp_value": self.value,
            "q_star": self.q_star.tolist(),
            "agents": agents,
        }


@dataclass(frozen=True, eq=False)
class _MeasureLP:
    """What a cold :func:`solve_measure_lp` built, kept on its live model so
    that a warm solve neither rebuilds nor compares it.

    Per agent: :func:`_layer_table`'s ``breakpoints``, reference survival
    ``tails`` Q(X_i > b_k) and state ``levels`` (breakpoints[i][levels[i]]
    is X_i); ``lens`` holds every layer length and ``first`` each agent's
    first layer; ``args`` the keywords c, A_ub, b_ub, A_eq, b_eq and lower
    that every solve passes to :data:`linprog`.
    """

    weights: np.ndarray
    breakpoints: tuple
    levels: tuple
    tails: list
    lens: np.ndarray
    first: np.ndarray
    args: dict


def _build_measure_lp(space: EmpiricalSpace, xs) -> _MeasureLP:
    """Everything of the measure LP but the bounds p/alpha and the caps nu.

    Equality row first_i + k: R_ik - R_i,k+1 - q(X_i = b_k+1) = 0, without
    R_i,k+1 on agent i's top layer; row n_aux: sum q = 1.
    """
    n_states = space.state_count
    # State s sits on breakpoint levels[i][s]: it lies in {X_i > b_k} iff k < level.
    bps_all, tables, levels = zip(*(_layer_table(X, [space.weights], origin=True)
                                    for X in xs))
    tails_all = [t[0, :-1] for t in tables]
    lens = np.concatenate([np.diff(bps) for bps in bps_all])
    n_aux = lens.size
    first = np.cumsum([0] + [bps.size - 1 for bps in bps_all])[:-1]
    layer = np.arange(n_aux)
    inner = np.setdiff1d(layer[:-1], first - 1)
    r_col = n_states + layer
    q_rows = np.concatenate([start + lv[lv > 0] - 1 for start, lv in zip(first, levels)])
    q_cols = np.concatenate([np.flatnonzero(lv) for lv in levels])
    n_cols = n_states + 2 * n_aux
    a_eq = Coo(np.repeat([1.0, -1.0, 1.0], [n_aux, inner.size + q_rows.size, n_states]),
                np.concatenate([layer, inner, q_rows, np.full(n_states, n_aux)]),
                np.concatenate([r_col, r_col[inner] + 1, q_cols, np.arange(n_states)]),
                (n_aux + 1, n_cols))
    a_ub = Coo(np.repeat([1.0, -1.0], n_aux), np.tile(layer, 2),
                np.concatenate([r_col + n_aux, r_col]), (n_aux, n_cols))
    # R is free, not >= 0 (its chain sums q's): it stays basic, for fewer pivots.
    args = dict(c=np.concatenate([np.zeros(n_states + n_aux), -lens]), A_ub=a_ub,
                b_ub=np.zeros(n_aux), A_eq=a_eq, b_eq=np.append(np.zeros(n_aux), 1.0),
                lower=np.repeat([0.0, -np.inf, 0.0], [n_states, n_aux, n_aux]))
    return _MeasureLP(space.weights, bps_all, levels, tails_all, lens, first, args)


def solve_measure_lp(space: EmpiricalSpace, endowments, distortions, alpha: float,
                     warm: CentralizedContract | None = None) -> CentralizedContract:
    """Solve the layered measure problem on nested exceedance rows and
    return the contract it supports.

    Agent i's exceedance sets shrink layer by layer, so R_ik = Q(X_i > b_k)
    obeys the chain R_ik = R_i,k+1 + Q(X_i = b_k+1) with R_iL = 0.  Columns:
    q, then R, then aux (one R and one aux per agent and layer).  The chains
    and sum q = 1 are equality rows; aux_ik - R_ik <= 0 are inequality rows,
    whose duals over the layer length are the cession fractions.  O(n m)
    nonzeros; deterministic.

    Layer slope: 1 if Q*(X_i > b_k) < nu_ik - TIE_BAND, 0 if above the band,
    and inside it the clipped cession fraction.  By complementary slackness
    the contract then attains the LP value exactly, even where the saddle
    point is degenerate.  Warns when the contract cedes nothing.

    The distortions enter only as the aux columns' caps nu, which each solve
    works out for every agent.  ``warm``, an earlier contract of the same
    space, endowments and alpha, re-solves its live HiGHS model from its
    optimal basis without building the LP again; another alpha, space
    weights or endowments raise DomainError.  An unchanged distortion gives
    the very same caps, so only changed caps go into HiGHS.  That model then
    holds this solve.  No solve sorts to read Q*(X_i > b_k): the suffix sums
    of :func:`_tails` run on the state levels the cold build kept.
    """
    xs, alpha = _check_inputs(space, endowments, distortions, alpha)
    if warm is None:
        lp = _build_measure_lp(space, xs)
    else:
        lp = None if warm.model is None else warm.model.source
        if lp is None or alpha != warm.alpha or not np.array_equal(space.weights, lp.weights):
            raise DomainError("a warm measure LP needs a solved LP of the same "
                              "space, endowments and alpha")
        if len(xs) != len(lp.levels) or not all(
                np.array_equal(X, b[v]) for X, b, v in zip(xs, lp.breakpoints, lp.levels)):
            raise DomainError("a warm measure LP needs the same endowments: a warm "
                              "LP solve may change column upper bounds only")
    nus = [d(t) for d, t in zip(distortions, lp.tails)]
    n_states, n_aux = space.state_count, lp.lens.size
    upper = np.concatenate([space.weights / alpha, np.full(n_aux, np.inf)] + nus)
    res = linprog(**lp.args, upper=upper, warm=None if warm is None else warm.model)
    # Not -fun: with no layer, fun is +0.0 and the value must stay +0.0.
    value = float(0.0 - res.fun)
    a_ub, a_eq = lp.args["A_ub"], lp.args["A_eq"]
    log.debug("measure LP solved: %d states, %d layers, %d rows, %d columns, "
              "%d nonzeros, HiGHS status %d, %s start, %d iterations, value %.6g",
              n_states, n_aux, a_ub.shape[0] + a_eq.shape[0], upper.size,
              a_ub.nnz + a_eq.nnz, res.status, "cold" if warm is None else "warm",
              res.nit, value)
    q = res.x[:n_states].copy()
    res.model.source = lp
    fractions = np.clip(-res.duals / lp.lens, 0.0, 1.0)

    slopes = []
    for bps, level, nu, on_tie in zip(lp.breakpoints, lp.levels, nus,
                                      np.split(fractions, lp.first[1:])):
        # Q*(X_i > b_k) as raw sums: neither clipped nor pinned.
        qv = _tails(level, q, bps.size, pin=False)[:-1]
        slopes.append(np.where(qv < nu - TIE_BAND, 1.0,
                               np.where(qv > nu + TIE_BAND, 0.0, on_tie)))
    contract = CentralizedContract(alpha, q, value, lp.breakpoints, tuple(slopes), res.model)
    if contract.cedes_nothing():
        warnings.warn("centralized contract cedes nothing to the insurer",
                      NoCessionWarning, stacklevel=2)
    return contract


def solve_centralized(space: EmpiricalSpace, endowments, distortions,
                      alpha: float) -> CentralizedContract:
    """The Pareto-optimal centralized contract, from a cold :func:`solve_measure_lp`."""
    return solve_measure_lp(space, endowments, distortions, alpha)


def stackelberg_premiums(space: EmpiricalSpace, endowments, distortions,
                         contract: CentralizedContract) -> np.ndarray:
    """Premiums that make every policyholder exactly indifferent.

        pi_i = rho_i(X_i) - rho_i(X_i - I_i(X_i)) = rho_i(I_i(X_i))

    by comonotone additivity, so the whole welfare gain accrues to the
    insurer: the gross gains of :func:`centralized_welfare`.
    """
    return centralized_welfare(space, endowments, distortions, contract).gross_gains


@dataclass(frozen=True, eq=False)
class CentralizedWelfare:
    """Welfare accounting of a centralized contract.

    ``aggregate_gain`` nets the insurer's expected-shortfall burden against
    the policyholders' gross risk reductions and does not depend on
    premiums; ``average_gain`` divides by agents plus one for the insurer.
    """

    gross_gains: np.ndarray
    insurer_risk: float
    aggregate_gain: float
    average_gain: float
    policyholder_gains: np.ndarray | None = None
    insurer_gain: float | None = None

    def to_dict(self, labels) -> dict:
        out = {
            "schema_version": 1,
            "labels": list(labels),
            "gross_gains": self.gross_gains.tolist(),
            "insurer_risk": self.insurer_risk,
            "aggregate_gain": self.aggregate_gain,
            "average_gain": self.average_gain,
        }
        if self.policyholder_gains is not None:
            out["policyholder_gains"] = self.policyholder_gains.tolist()
        if self.insurer_gain is not None:
            out["insurer_gain"] = self.insurer_gain
        return out


def centralized_welfare(space: EmpiricalSpace, endowments, distortions,
                        contract: CentralizedContract,
                        premiums=None) -> CentralizedWelfare:
    """Evaluate gains for policyholders and the expected-shortfall insurer.

    One validated pass: per agent, one :func:`_layer_prices` call prices the
    gross gain rho_i(I_i(X_i)) on the contract's own layers under
    ``distortions[i]`` and gives I_i(X_i) at every state.  The insurer's
    risk is the expected shortfall of their sum, the pool.
    """
    xs, _ = _check_inputs(space, endowments, distortions, contract.alpha)
    contract._check_agents(len(xs))
    priced = [_layer_prices(bps, slopes[None], X, [space.weights], [[d]])
              for bps, slopes, X, d in zip(contract.breakpoints, contract.slopes,
                                           xs, distortions)]
    gross = np.array([values[0] for values, _ in priced])
    pool = np.sum([ceded[0] for _, ceded in priced], axis=0)
    insurer_risk = es(space, pool, contract.alpha)
    aggregate = float(np.sum(gross) - insurer_risk)
    average = aggregate / (len(gross) + 1)
    policyholder_gains = None
    insurer_gain = None
    if premiums is not None:
        premiums = np.asarray(premiums, dtype=float)
        if premiums.shape != gross.shape:
            raise ProfileMismatchError("one premium per agent required")
        if not np.isfinite(premiums).all():
            raise DomainError("premiums must be finite")
        policyholder_gains = gross - premiums
        insurer_gain = float(np.sum(premiums) - insurer_risk)
    return CentralizedWelfare(
        gross_gains=gross,
        insurer_risk=float(insurer_risk),
        aggregate_gain=aggregate,
        average_gain=float(average),
        policyholder_gains=policyholder_gains,
        insurer_gain=insurer_gain,
    )
