"""Pareto-optimal peer-to-peer risk sharing for distortion-risk-measure agents.

The aggregate loss S is split into layers between 0 and its sorted distinct
values.  On each layer the cheapest distorted survival probability across
agents decides who carries that slice; side payments then redistribute the
welfare gain so that every agent improves by a chosen amount.  Robust agents
carry several candidate distortions and the solver maximises the layer value
over the finite candidate product.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .distortion import PRELEC1, PRELEC2, DistortionSet
from .errors import (DomainError, InvalidWeightsError, ProfileMismatchError,
                     ResourceLimitError, UnsupportedOperationError)
from .riskmeasure import (EmpiricalSpace, _layer_function, _layer_table,
                          as_profile, robust_drm, var)

log = logging.getLogger(__name__)

TIE_TOL = 1e-12
PRODUCT_CAP = 1_000_000
# Survival level whose VaR gives the deductible of an all-Prelec market.
PRELEC_SPLIT_LEVEL = math.exp(-1.0)


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One market participant.

    ``belief`` is the agent's own probability over the shared state set,
    ``distortions`` the candidate set of its (robust) risk measure and
    ``endowment`` the non-negative per-state initial loss.
    """

    belief: EmpiricalSpace
    distortions: DistortionSet
    endowment: np.ndarray

    def __post_init__(self) -> None:
        x = as_profile(self.belief, self.endowment)
        if np.any(x < 0.0):
            raise DomainError("endowments must be non-negative losses")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "endowment", x)


def _check_market(agents) -> int:
    if not agents:
        raise DomainError("at least one agent required")
    m = agents[0].belief.state_count
    for a in agents:
        if a.belief.state_count != m:
            raise ProfileMismatchError("agents must share one state set")
    return m


def aggregate_loss(agents) -> np.ndarray:
    _check_market(agents)
    return np.sum([a.endowment for a in agents], axis=0)


@dataclass(frozen=True, eq=False)
class LayerGrid:
    """Layer boundaries of an aggregate loss plus per-belief survivals.

    breakpoints[0] = 0 and the remaining entries are the sorted distinct
    values of S.  survivals[i, k] is agent i's probability that S exceeds
    breakpoints[k], constant across the open layer k.
    """

    breakpoints: np.ndarray
    survivals: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def layer_count(self) -> int:
        return self.breakpoints.size - 1


def layer_decomposition(S, beliefs) -> LayerGrid:
    """Break the aggregate loss into layers and tabulate survivals.

    An all-zero S yields zero layers (a degenerate but legal grid).
    """
    if not beliefs:
        raise DomainError("at least one belief required")
    ref = beliefs[0]
    S = as_profile(ref, S)
    if np.any(S < 0.0):
        raise DomainError("aggregate loss must be non-negative")
    if any(b.state_count != ref.state_count for b in beliefs):
        raise ProfileMismatchError("beliefs must share one state set")
    # Beliefs shared by several agents are tabulated once.
    breakpoints, tails = _layer_table(S, [b.weights for b in beliefs], origin=True)
    return LayerGrid(breakpoints, tails[:, :-1])


@dataclass(frozen=True, eq=False)
class LayerAllocation:
    """A comonotone layer allocation g_i plus side payments.

    slopes[i, k] is agent i's marginal share on layer k; columns sum to 1.
    ``chosen_distortions`` records which candidate of each agent's set the
    solver priced the layers with.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    side_payments: np.ndarray
    chosen_distortions: tuple[int, ...]

    @property
    def agent_count(self) -> int:
        return int(self.slopes.shape[0])

    def coverage(self, x) -> np.ndarray:
        """g_i evaluated at x for every agent; x scalar or 1-D array.

        Defined on [0, max S]; beyond the last breakpoint the functions
        stay flat, which is irrelevant on the support of S.
        """
        return _layer_function(self.breakpoints, self.slopes, x)

    def profiles(self, S) -> np.ndarray:
        """Per-state post-trade losses g_i(S) + c_i, shape (agents, states)."""
        return self.coverage(S) + self.side_payments[:, None]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "breakpoints": self.breakpoints.tolist(),
            "slopes": self.slopes.tolist(),
            "side_payments": self.side_payments.tolist(),
            "chosen_distortions": list(self.chosen_distortions),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LayerAllocation":
        if payload.get("schema_version") != 1:
            raise DomainError("unsupported allocation schema version")
        return cls(
            breakpoints=np.asarray(payload["breakpoints"], dtype=float),
            slopes=np.asarray(payload["slopes"], dtype=float),
            side_payments=np.asarray(payload["side_payments"], dtype=float),
            chosen_distortions=tuple(int(i) for i in payload["chosen_distortions"]),
        )


def solve_fixed(agents, *, chosen: tuple[int, ...] | None = None,
                tie_tol: float = TIE_TOL) -> tuple[LayerAllocation, float]:
    """Optimal layer allocation when each agent prices with one distortion.

    Each layer goes entirely to the agent with the smallest distorted
    survival there; ties within relative ``tie_tol`` keep the lowest agent
    index.  Returns the allocation (side payments zeroed) and the optimum
    value  sum_k length_k * min_i T_i(Q_i(S > b_k)).
    """
    _check_market(agents)
    n = len(agents)
    if chosen is None:
        if any(len(a.distortions) != 1 for a in agents):
            raise UnsupportedOperationError(
                "solve_fixed needs singleton candidate sets; use solve_robust")
        chosen = (0,) * n
    grid = layer_decomposition(aggregate_loss(agents), [a.belief for a in agents])
    return _solve_on_grid(agents, grid, chosen, tie_tol)


def _solve_on_grid(agents, grid: LayerGrid, chosen,
                   tie_tol: float) -> tuple[LayerAllocation, float]:
    n, m = len(agents), grid.layer_count
    slopes = np.zeros((n, m))
    distorted = np.array([a.distortions[c](s)
                          for a, c, s in zip(agents, chosen, grid.survivals)])
    mins = distorted.min(axis=0)
    winners = (distorted <= mins[None, :] * (1.0 + tie_tol)).argmax(axis=0)
    slopes[winners, np.arange(m)] = 1.0
    value = float(np.dot(grid.lengths, mins))
    alloc = LayerAllocation(grid.breakpoints, slopes, np.zeros(n), tuple(chosen))
    return alloc, value


@dataclass(frozen=True, eq=False)
class RobustSolution:
    chosen: tuple[int, ...]
    allocation: LayerAllocation
    value: float


def _combo_value(tables, lengths, combo) -> float:
    stacked = np.array([tables[i][c] for i, c in enumerate(combo)])
    return float(np.dot(lengths, stacked.min(axis=0)))


def solve_robust(agents, *, product_cap: int = PRODUCT_CAP,
                 allow_coordinate_ascent: bool = True,
                 tie_tol: float = TIE_TOL) -> RobustSolution:
    """Worst-case-optimal allocation over finite candidate distortion sets.

    The layer value is maximised over the product of candidate sets;
    exhaustive enumeration is used while the product size stays within
    ``product_cap``, otherwise deterministic coordinate ascent from uniform
    candidate-index starts.  Ties keep the lexicographically first
    maximiser.  The chosen candidates are then solved on the same layer
    grid with ``tie_tol``; singleton sets reproduce :func:`solve_fixed` exactly.
    """
    _check_market(agents)
    sizes = [len(a.distortions) for a in agents]
    grid = layer_decomposition(aggregate_loss(agents), [a.belief for a in agents])
    tables = [[d(grid.survivals[i]) for d in a.distortions]
              for i, a in enumerate(agents)]
    lengths = grid.lengths
    product = math.prod(sizes)
    if grid.layer_count == 0:
        best_combo = (0,) * len(agents)
    elif product <= product_cap:
        best_combo, best = None, -math.inf
        for combo in itertools.product(*(range(s) for s in sizes)):
            v = _combo_value(tables, lengths, combo)
            if v > best:
                best_combo, best = combo, v
        log.debug("robust solve: exhaustive over %d combos", product)
    else:
        if not allow_coordinate_ascent:
            raise ResourceLimitError(
                f"candidate product {product} exceeds cap {product_cap}")
        best_combo, best = _coordinate_ascent(tables, lengths, sizes)
        log.debug("robust solve: coordinate ascent over product %d", product)
    alloc, value = _solve_on_grid(agents, grid, best_combo, tie_tol)
    return RobustSolution(tuple(best_combo), alloc, value)


def _coordinate_ascent(tables, lengths, sizes):
    """Deterministic sweeps from every uniform candidate-index start."""
    best_combo, best = None, -math.inf
    for start in range(max(sizes)):
        combo = [min(start, s - 1) for s in sizes]
        value = _combo_value(tables, lengths, combo)
        improved = True
        while improved:
            improved = False
            for i in range(len(sizes)):
                for c in range(sizes[i]):
                    if c == combo[i]:
                        continue
                    trial = combo.copy()
                    trial[i] = c
                    v = _combo_value(tables, lengths, trial)
                    if v > value:
                        combo, value = trial, v
                        improved = True
        if value > best:
            best_combo, best = tuple(combo), value
    return best_combo, best


def _robust_values(agents, profiles) -> np.ndarray:
    return np.array([robust_drm(a.belief, profiles[i], a.distortions)[0]
                     for i, a in enumerate(agents)])


def side_payments(alloc: LayerAllocation, agents, weights=None) -> np.ndarray:
    """Side payments c_i delivering the chosen welfare split.

        c_i = rho_i(X_i) - rho_i(g_i(S)) - w_i

    with rho_i the agent's (robust) risk measure and w_i >= 0 summing to the
    total welfare gain W.  ``weights`` may be None or "equal" (w_i = W / n),
    "last" (all of W to the last agent) or an explicit vector whose sum is
    W within 1e-9 * max(1, |W|)."""
    return _payments(*_pre_trade_values(agents, alloc), weights)


def _pre_trade_values(agents, alloc: LayerAllocation):
    """rho_i(X_i) and rho_i(g_i(S)), the risks before side payments."""
    S = aggregate_loss(agents)
    if alloc.agent_count != len(agents):
        raise ProfileMismatchError("allocation and agent list disagree on size")
    return (_robust_values(agents, [a.endowment for a in agents]),
            _robust_values(agents, alloc.coverage(S)))


def _payments(initial, pre, weights) -> np.ndarray:
    total = float(np.sum(initial - pre))
    if callable(weights):
        weights = weights(total)
    return initial - pre - _resolve_weights(weights, total, len(initial))


def _resolve_weights(weights, total: float, n: int) -> np.ndarray:
    if weights is None or (isinstance(weights, str) and weights == "equal"):
        return np.full(n, total / n)
    if isinstance(weights, str):
        if weights == "last":
            w = np.zeros(n)
            w[-1] = total
            return w
        raise InvalidWeightsError(f"unknown weight rule '{weights}'")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise InvalidWeightsError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise InvalidWeightsError("welfare weights must be non-negative")
    if abs(float(np.sum(w)) - total) > 1e-9 * max(1.0, abs(total)):
        raise InvalidWeightsError(
            f"weights sum to {float(np.sum(w))!r}, expected the welfare gain {total!r}")
    return w


@dataclass(frozen=True, eq=False)
class MarketReport:
    """Welfare accounting of a completed trade.

    ``optimum_value`` is the attained objective sum_i rho_i(g_i(S) + c_i),
    which equals the layer optimum for singleton candidate sets.
    """

    initial_values: np.ndarray
    post_trade_values: np.ndarray
    welfare_gains: np.ndarray
    total_welfare: float
    average_gain: float
    optimum_value: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "initial_values": self.initial_values.tolist(),
            "post_trade_values": self.post_trade_values.tolist(),
            "welfare_gains": self.welfare_gains.tolist(),
            "total_welfare": self.total_welfare,
            "average_gain": self.average_gain,
            "optimum_value": self.optimum_value,
        }


def welfare_report(agents, alloc: LayerAllocation) -> MarketReport:
    """Evaluate initial and post-trade risk for a finished allocation."""
    _check_market(agents)
    S = aggregate_loss(agents)
    return _market_report(_robust_values(agents, [a.endowment for a in agents]),
                          _robust_values(agents, alloc.profiles(S)))


def _market_report(initial, post) -> MarketReport:
    gains = initial - post
    total = float(np.sum(gains))
    return MarketReport(
        initial_values=initial,
        post_trade_values=post,
        welfare_gains=gains,
        total_welfare=total,
        average_gain=total / len(initial),
        optimum_value=float(np.sum(post)),
    )


def settle(agents, alloc: LayerAllocation,
           weights=None) -> tuple[LayerAllocation, MarketReport]:
    """Attach side payments to an allocation and report the trade's welfare.

    The same values as :func:`side_payments`, :func:`with_side_payments`
    and :func:`welfare_report` of the result, with each agent's risk
    evaluated once per profile: rho_i(X_i), rho_i(g_i(S)) and
    rho_i(g_i(S) + c_i).  ``weights`` is what :func:`side_payments` takes,
    or a function of the welfare gain W that returns it.
    """
    initial, pre = _pre_trade_values(agents, alloc)
    settled = with_side_payments(alloc, _payments(initial, pre, weights))
    post = _robust_values(agents, settled.profiles(aggregate_loss(agents)))
    return settled, _market_report(initial, post)


def prelec_deductible(space: EmpiricalSpace, S, distortions) -> float:
    """Deductible of an all-Prelec market with a common belief.

    All agents must use prelec1 distortions, or all prelec2 with a common
    beta.  Either way the distorted survival curves share one crossing
    level, so the optimal split is a deductible at

        d* = VaR_{exp(-1)}(S)

    with the most tail-averse agent below and the least above.
    """
    dists = list(distortions)
    if not dists:
        raise DomainError("at least one distortion required")
    families = {d.family for d in dists}
    if families == {PRELEC1}:
        pass
    elif families == {PRELEC2}:
        betas = {d.params[1] for d in dists}
        if len(betas) != 1:
            raise UnsupportedOperationError(
                "prelec2 deductible rule needs a common beta")
    else:
        raise UnsupportedOperationError(
            f"deductible rule covers all-prelec1 or common-beta prelec2 markets, got {sorted(families)}")
    return var(space, S, PRELEC_SPLIT_LEVEL)


def with_side_payments(alloc: LayerAllocation, c) -> LayerAllocation:
    """Return a copy of the allocation carrying the given side payments."""
    c = np.asarray(c, dtype=float)
    if c.shape != (alloc.agent_count,):
        raise ProfileMismatchError("side payment vector has wrong length")
    return replace(alloc, side_payments=c)
