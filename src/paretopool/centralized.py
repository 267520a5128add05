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

from .errors import DomainError, NoCessionWarning, ProfileMismatchError, SolverError
from .riskmeasure import (EmpiricalSpace, _layer_function, _layer_table,
                          as_profile, choquet, es)

log = logging.getLogger(__name__)

# Half-width of the tie band around Q* = nu in the indemnity case split.
TIE_BAND = 1e-12


# The HiGHS options of scipy's linprog(method="highs").
_HIGHS_OPTIONS = (("presolve", "on"), ("simplex_strategy", 1),  # dual simplex
                  ("output_flag", False), ("log_to_console", False),
                  ("highs_debug_level", 0))


@dataclass(eq=False)
class _HighsModel:
    """A live HiGHS model and the problem data it holds.

    ``problem`` is everything a warm start must leave unchanged: costs,
    matrix, row bounds and column lower bounds.  ``upper`` tracks the
    column upper bounds now in the model.
    """

    highs: object
    problem: tuple
    upper: np.ndarray


class _Linprog:
    """``scipy.optimize.linprog(method="highs")`` on scipy's own HiGHS binding.

    Same call, result fields, options (presolve on, dual simplex, no
    output) and post-solve check as scipy's; a solve that is not optimal,
    or whose solution breaks a bound, slack or equality row by more than
    10 sqrt(1e-9), raises :class:`SolverError`.  The result's ``model``
    is the live HiGHS model.  ``warm=model`` re-solves that model after
    pushing in the changed column upper bounds only: a bound change keeps
    the last optimal basis dual feasible, so the dual simplex restarts from
    it in a few pivots.  Any other change raises :class:`DomainError`.

    An instance, not a function: a tracer that wraps every public function
    of this module and also ``linprog`` (``perfbench/tracer.py``) would
    otherwise time the HiGHS call twice, one span inside the other.
    """

    def __call__(self, c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs",
                 warm: _HighsModel | None = None):
        from scipy import sparse
        from scipy.optimize import OptimizeResult
        from scipy.optimize._highspy import _core as highspy
        if method != "highs":
            raise ValueError(f"unsupported LP method '{method}'")
        inf = highspy.kHighsInf
        n_ub = len(b_ub)
        A = sparse.csc_array(sparse.vstack((A_ub, A_eq)))
        lhs = np.concatenate([np.full(n_ub, -inf), b_eq])
        rhs = np.concatenate([b_ub, b_eq])
        lower, upper = np.clip(np.asarray(bounds, dtype=float).T, -inf, inf)
        cost = np.asarray(c, dtype=float)
        problem = (cost, A.indptr, A.indices, A.data, lhs, rhs, lower)
        if warm is None:
            model = _HighsModel(highspy._Highs(), problem, upper)
            for key, value in _HIGHS_OPTIONS:
                model.highs.setOptionValue(key, value)
            lp = highspy.HighsLp()
            lp.num_row_, lp.num_col_ = A.shape
            lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
            lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
            lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
                A.indptr, A.indices, A.data
            lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
            lp.row_lower_, lp.row_upper_ = lhs, rhs
            if model.highs.passModel(lp) == highspy.HighsStatus.kError:
                raise SolverError("HiGHS refused the LP")
        else:
            model = warm
            if not all(np.array_equal(a, b) for a, b in zip(problem, model.problem)):
                raise DomainError("a warm LP solve may change column upper bounds only")
            changed = np.flatnonzero(upper != model.upper)
            model.highs.changeColsBounds(changed.size, changed, lower[changed],
                                         upper[changed])
            model.upper = upper
        highs = model.highs
        run = highs.run()
        status = highs.getModelStatus()
        if run == highspy.HighsStatus.kError or status != highspy.HighsModelStatus.kOptimal:
            raise SolverError(f"HiGHS: {highs.modelStatusToString(status)}")
        solution, info = highs.getSolution(), highs.getInfo()
        x = np.array(solution.col_value)
        fun = info.objective_function_value
        residual = rhs - np.array(solution.row_value)
        slack, con = residual[:n_ub], residual[n_ub:]
        tol = 10.0 * 1e-9 ** 0.5
        if (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
                or np.any(x < lower - tol) or np.any(x > upper + tol)
                or np.any(slack < -tol) or np.any(np.abs(con) > tol)):
            raise SolverError(f"HiGHS solution breaks the constraints by more than {tol:.2e}")
        return OptimizeResult(
            x=x, fun=fun, success=True, status=0,
            message=highs.modelStatusToString(status),
            nit=info.simplex_iteration_count,
            ineqlin=OptimizeResult(marginals=np.array(solution.row_dual)[:n_ub],
                                   residual=slack),
            model=model)


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
    they resolve the tie layers where Q* equals nu.  ``model`` is the live
    HiGHS model of the solve (None when there was no LP); a warm solve from
    this result moves it on to the new problem.
    """

    q_star: np.ndarray
    value: float
    cession: tuple[np.ndarray, ...]
    model: _HighsModel | None = field(default=None, repr=False)


def solve_measure_lp(space: EmpiricalSpace, endowments, distortions,
                     alpha: float, warm: MeasureLPResult | None = None) -> MeasureLPResult:
    """Solve the layered measure problem on nested exceedance rows.

    Agent i's exceedance sets shrink layer by layer, so R_ik = Q(X_i > b_k)
    obeys the chain R_ik = R_i,k+1 + Q(X_i = b_k+1) with R_iL = 0.  Columns:
    q, then R, then aux (one R and one aux per agent and layer).  The chains
    and sum q = 1 are equality rows; aux_ik - R_ik <= 0 are inequality rows,
    whose duals are the cession fractions.  O(n m) nonzeros; deterministic.

    The distortions enter only as the aux columns' caps nu.  ``warm``, an
    earlier result of the same space, endowments and alpha, re-solves its
    live HiGHS model with the new caps from its optimal basis (that model
    then holds this solve); any other difference raises DomainError.
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
    args = dict(A_ub=a_ub, b_ub=np.zeros(n_aux), A_eq=a_eq,
                b_eq=np.append(np.zeros(n_aux), 1.0), bounds=bounds, method="highs")
    if warm is not None:
        if warm.model is None or not np.array_equal(warm.model.upper[:n_states], caps):
            raise DomainError("a warm measure LP needs a solved LP of the same "
                              "space, endowments and alpha")
        args["warm"] = warm.model
    res = linprog(cost, **args)
    log.debug("measure LP solved: %d states, %d layers, %d rows, %d columns, "
              "%d nonzeros, HiGHS status %d, %s start, %d iterations, value %.6g",
              n_states, n_aux, a_ub.shape[0] + a_eq.shape[0], n_cols,
              a_ub.nnz + a_eq.nnz, res.status, "cold" if warm is None else "warm",
              res.nit, -res.fun)
    fractions = np.clip(-res.ineqlin.marginals / lens, 0.0, 1.0)
    return MeasureLPResult(res.x[:n_states].copy(), float(-res.fun),
                           tuple(np.split(fractions, first[1:])), res.get("model"))


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
    0.5 inside it.  ``tie_slopes`` (per-agent finite arrays, clipped into
    [0, 1]) overrides the 0.5 default on tie layers only; strict layers
    keep the case rule.
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
            np.asarray(tie_slopes[i], dtype=float)
        if on_tie.shape != qv.shape:
            raise ProfileMismatchError("tie_slopes do not match the layer grid")
        if not np.isfinite(on_tie).all():
            raise DomainError("tie_slopes must be finite")
        on_tie = np.clip(on_tie, 0.0, 1.0)
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

    so the whole welfare gain accrues to the insurer: each premium is the
    agent's gross gain in :func:`centralized_welfare`, bit for bit.
    """
    xs, _ = _check_inputs(space, endowments, distortions, contract.alpha)
    return _gross_gains(space, xs, distortions, contract.indemnity_profiles(space, xs))


def _gross_gains(space, xs, distortions, indemnities) -> np.ndarray:
    """rho_i(X_i) - rho_i(X_i - I_i(X_i)) per agent."""
    return np.array([choquet(space, X, d) - choquet(space, X - I, d)
                     for X, d, I in zip(xs, distortions, indemnities)])


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
    gross = _gross_gains(space, xs, distortions, indemnities)
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
