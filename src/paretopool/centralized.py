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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoCessionWarning, ProfileMismatchError, SolverError
from .riskmeasure import (EmpiricalSpace, _layer_function, _layer_table,
                          as_profile, choquet, es)

log = logging.getLogger(__name__)

# Half-width of the tie band around Q* = nu in the indemnity case split.
TIE_BAND = 1e-12


def load_lp_solver() -> None:
    """Import scipy's LP solver and sparse matrices now.

    The measure LP imports scipy on first use, so commands that solve no LP
    (``summary``, ``po-decentralized``) never load it.  Start threads that
    solve LPs after this call: a package's first import should not run in
    several threads at once.
    """
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401


class _Linprog:
    """``scipy.optimize.linprog``, imported on its first call.

    An instance, not a function: a tracer that wraps every public function
    of this module and also ``linprog`` (``perfbench/tracer.py``) would
    otherwise time the HiGHS call twice, one span inside the other.
    """

    def __call__(self, *args, **kwargs):
        from scipy.optimize import linprog as highs
        return highs(*args, **kwargs)


linprog = _Linprog()


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


def _layer_survivals(space: EmpiricalSpace, X: np.ndarray):
    """Layer breakpoints of X and the pinned reference survival above each."""
    bps, tails = _layer_table(X, [space.weights], origin=True)
    return bps, tails[0, :-1]


@dataclass(frozen=True, eq=False)
class MeasureLPResult:
    """Maximising measure, optimal value and dual cession fractions.

    cession[i][k] is the multiplier of agent i's layer-k exceedance
    constraint divided by the layer length.  By complementary slackness an
    indemnity with these marginal slopes attains the LP value exactly, so
    they resolve the tie layers where Q* equals nu.
    """

    q_star: np.ndarray
    value: float
    cession: tuple[np.ndarray, ...]


def solve_measure_lp(space: EmpiricalSpace, endowments, distortions,
                     alpha: float) -> MeasureLPResult:
    """Solve the layered measure problem on nested exceedance rows.

    Agent i's exceedance sets shrink layer by layer, so R_ik = Q(X_i > b_k)
    obeys the chain R_ik = R_i,k+1 + Q(X_i = b_k+1) with R_iL = 0.  Columns:
    q, then R, then aux (one R and one aux per agent and layer).  The chains
    and sum q = 1 are equality rows; aux_ik - R_ik <= 0 are inequality rows,
    whose duals are the cession fractions.  O(n m) nonzeros; deterministic.
    """
    xs, alpha = _check_inputs(space, endowments, distortions, alpha)
    from scipy import sparse
    n_states = space.state_count
    lens_all, nus_all, levels = [], [], []
    for X, d in zip(xs, distortions):
        bps, surv = _layer_survivals(space, X)
        lens_all.append(np.diff(bps))
        nus_all.append(d(surv))
        # State s sits on breakpoint level[s]: it lies in {X > b_k} iff k < level.
        levels.append(np.searchsorted(bps, X))
    lens, nus = np.concatenate(lens_all), np.concatenate(nus_all)
    n_aux = lens.size
    caps = space.weights / alpha

    if n_aux == 0:
        # Everything is a constant zero loss; any feasible q is optimal.
        q = np.minimum(caps, 1.0)
        q *= 1.0 / q.sum()
        return MeasureLPResult(q, 0.0, tuple(np.zeros(0) for _ in xs))

    # Equality row first_i + k: R_ik - R_i,k+1 - q(X_i = b_k+1) = 0, without
    # R_i,k+1 on agent i's top layer; row n_aux: sum q = 1.
    layer = np.arange(n_aux)
    first = np.cumsum([0] + [v.size for v in lens_all])[:-1]
    inner = np.setdiff1d(layer[:-1], first - 1)
    r_col = n_states + layer
    q_rows = np.concatenate([start + lv[lv > 0] - 1 for start, lv in zip(first, levels)])
    q_cols = np.concatenate([np.flatnonzero(lv) for lv in levels])
    n_cols = n_states + 2 * n_aux
    a_eq = sparse.csr_matrix(
        (np.repeat([1.0, -1.0, 1.0], [n_aux, inner.size + q_rows.size, n_states]),
         (np.concatenate([layer, inner, q_rows, np.full(n_states, n_aux)]),
          np.concatenate([r_col, r_col[inner] + 1, q_cols, np.arange(n_states)]))),
        shape=(n_aux + 1, n_cols))
    a_ub = sparse.csr_matrix(
        (np.repeat([1.0, -1.0], n_aux),
         (np.tile(layer, 2), np.concatenate([r_col + n_aux, r_col]))),
        shape=(n_aux, n_cols))
    cost = np.concatenate([np.zeros(n_states + n_aux), -lens])
    # R is free, not >= 0 (its chain sums q's): it stays basic, for fewer pivots.
    bounds = np.column_stack([np.repeat([0.0, -np.inf, 0.0], [n_states, n_aux, n_aux]),
                              np.concatenate([caps, np.full(n_aux, np.inf), nus])])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n_aux), A_eq=a_eq,
                  b_eq=np.append(np.zeros(n_aux), 1.0), bounds=bounds,
                  method="highs")
    if not res.success:
        raise SolverError(f"measure LP failed: {res.message}")
    log.debug("measure LP solved: %d states, %d layers, %d rows, %d columns, "
              "%d nonzeros, HiGHS status %d, %d iterations, value %.6g",
              n_states, n_aux, a_ub.shape[0] + a_eq.shape[0], n_cols,
              a_ub.nnz + a_eq.nnz, res.status, res.nit, -res.fun)
    fractions = np.clip(-res.ineqlin.marginals / lens, 0.0, 1.0)
    return MeasureLPResult(res.x[:n_states].copy(), float(-res.fun),
                           tuple(np.split(fractions, first[1:])))


@dataclass(frozen=True, eq=False)
class CentralizedContract:
    """Per-agent indemnity marginals plus the supporting measure Q*.

    slopes[i][k] is the indemnity slope of agent i on its own layer k:
    1 where Q* undercuts nu_i, 0 where it exceeds it, 0.5 on the tie band.
    """

    alpha: float
    q_star: np.ndarray
    lp_value: float
    breakpoints: tuple[np.ndarray, ...]
    slopes: tuple[np.ndarray, ...]

    @property
    def agent_count(self) -> int:
        return len(self.slopes)

    def indemnity(self, i: int, x) -> np.ndarray:
        return _layer_function(self.breakpoints[i], self.slopes[i], x)

    def indemnity_profiles(self, space: EmpiricalSpace, endowments) -> np.ndarray:
        return np.array([self.indemnity(i, as_profile(space, X))
                         for i, X in enumerate(endowments)])

    def deductible(self, i: int) -> float | None:
        """Deductible level when agent i's contract is 0..0 then 1..1.

        Returns None for any other slope pattern, including no cession at
        all and any 0.5 tie layer.
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

    def to_dict(self, labels=None) -> dict:
        labels = list(labels) if labels is not None else [
            f"agent_{i}" for i in range(self.agent_count)]
        agents = [{"label": label,
                   "breakpoints": self.breakpoints[i].tolist(),
                   "slopes": self.slopes[i].tolist(),
                   "deductible": self.deductible(i)}
                  for i, label in enumerate(labels)]
        return {
            "schema_version": 1,
            "alpha": self.alpha,
            "lp_value": self.lp_value,
            "q_star": self.q_star.tolist(),
            "agents": agents,
        }


def build_indemnities(space: EmpiricalSpace, q_star, endowments, distortions,
                      alpha: float, lp_value: float = float("nan"),
                      tie_slopes=None) -> CentralizedContract:
    """Turn a maximising measure into per-agent indemnity marginals.

    Layer slope: 1 if Q*(X_i > t) < nu_i - TIE_BAND, 0 if above the band,
    0.5 inside it.  ``tie_slopes`` (per-agent arrays in [0, 1]) overrides
    the 0.5 default on tie layers only; strict layers keep the case rule.
    Warns when the resulting contract cedes nothing.
    """
    xs, alpha = _check_inputs(space, endowments, distortions, alpha)
    q = np.asarray(q_star, dtype=float)
    if q.shape != (space.state_count,):
        raise ProfileMismatchError("q_star length does not match the space")
    all_bps, all_slopes = [], []
    for i, (X, d) in enumerate(zip(xs, distortions)):
        bps, surv = _layer_survivals(space, X)
        nu = d(surv)
        # Q*(X_i > b_k) as raw sums: neither clipped nor pinned.
        qv = _layer_table(X, [q], origin=True, pin=False)[1][0, :-1]
        on_tie = np.full(qv.size, 0.5) if tie_slopes is None else \
            np.clip(np.asarray(tie_slopes[i], dtype=float), 0.0, 1.0)
        if on_tie.shape != qv.shape:
            raise ProfileMismatchError("tie_slopes do not match the layer grid")
        slopes = np.where(qv < nu - TIE_BAND, 1.0,
                          np.where(qv > nu + TIE_BAND, 0.0, on_tie))
        all_bps.append(bps)
        all_slopes.append(slopes)
    contract = CentralizedContract(alpha, q, float(lp_value),
                                   tuple(all_bps), tuple(all_slopes))
    if contract.cedes_nothing():
        warnings.warn("centralized contract cedes nothing to the insurer",
                      NoCessionWarning, stacklevel=2)
    return contract


def solve_centralized(space: EmpiricalSpace, endowments, distortions,
                      alpha: float) -> CentralizedContract:
    """Measure LP followed by indemnity construction.

    Tie layers (Q* equal to nu within the band) take their slope from the
    LP duals, which keeps the realized contract on the Pareto frontier even
    when the saddle point is degenerate; a blanket 0.5 there can lose a
    finite amount of welfare.
    """
    lp = solve_measure_lp(space, endowments, distortions, alpha)
    return build_indemnities(space, lp.q_star, endowments, distortions,
                             alpha, lp.value, tie_slopes=lp.cession)


def stackelberg_premiums(space: EmpiricalSpace, endowments, distortions,
                         contract: CentralizedContract) -> np.ndarray:
    """Premiums that make every policyholder exactly indifferent.

        pi_i = rho_i(X_i) - rho_i(X_i - I_i(X_i))

    so the whole welfare gain accrues to the insurer.
    """
    xs, _ = _check_inputs(space, endowments, distortions, contract.alpha)
    out = np.empty(len(xs))
    for i, (X, d) in enumerate(zip(xs, distortions)):
        retained = X - contract.indemnity(i, X)
        out[i] = choquet(space, X, d) - choquet(space, retained, d)
    return out


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

    def to_dict(self, labels=None) -> dict:
        labels = list(labels) if labels is not None else [
            f"agent_{i}" for i in range(self.gross_gains.size)]
        out = {
            "schema_version": 1,
            "labels": labels,
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
    """Evaluate gains for policyholders and the expected-shortfall insurer."""
    xs, alpha = _check_inputs(space, endowments, distortions, contract.alpha)
    indemnities = contract.indemnity_profiles(space, xs)
    gross = np.empty(len(xs))
    for i, (X, d) in enumerate(zip(xs, distortions)):
        gross[i] = choquet(space, X, d) - choquet(space, X - indemnities[i], d)
    pool = indemnities.sum(axis=0)
    insurer_risk = es(space, pool, alpha)
    aggregate = float(np.sum(gross) - insurer_risk)
    average = aggregate / (len(xs) + 1)
    policyholder_gains = None
    insurer_gain = None
    if premiums is not None:
        premiums = np.asarray(premiums, dtype=float)
        if premiums.shape != (len(xs),):
            raise ProfileMismatchError("one premium per agent required")
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
