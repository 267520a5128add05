"""Pareto-optimal peer-to-peer risk sharing for distortion-risk-measure agents.

The solvers are optimal among comonotone (layer) allocations.  The
aggregate loss S is split into layers between 0 and its sorted distinct
values.  On each layer the cheapest distorted survival probability across
agents decides who carries that slice.  Side payments then split the
welfare gain W in non-negative proportions of W, resolved by
:func:`welfare_shares`, the one reader of welfare weights.  Robust agents
carry several candidate distortions and the solver maximises the layer
value over the finite candidate product.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .distortion import PRELEC1, PRELEC2, DistortionSet
from .errors import (DomainError, InvalidWeightsError, ProfileMismatchError,
                     ResourceLimitError, UnsupportedOperationError)
from .riskmeasure import (EmpiricalSpace, _layer_prices, _layer_values, _layer_table,
                          as_profile, robust_drm, var)

log = logging.getLogger(__name__)

# Relative band within which distorted survivals tie; the first tied agent
# (in market order) carries the layer.
TIE_TOL = 1e-12
PRODUCT_CAP = 1_000_000
# Named welfare splits: the proportions of W that each rule gives n agents.
WEIGHT_RULES = {"equal": np.ones, "last": lambda n: np.eye(n)[-1]}
# Survival level whose VaR gives the deductible of an all-Prelec market.
PRELEC_SPLIT_LEVEL = math.exp(-1.0)


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One market participant.

    ``belief`` is the agent's own probability over the shared state set,
    ``distortions`` the candidate set of its (robust) risk measure (an
    iterable of distortions becomes a :class:`DistortionSet`) and
    ``endowment`` the non-negative per-state initial loss.
    """

    belief: EmpiricalSpace
    distortions: DistortionSet
    endowment: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.distortions, DistortionSet):
            object.__setattr__(self, "distortions", DistortionSet(self.distortions))
        x = as_profile(self.belief, self.endowment)
        if np.any(x < 0.0):
            raise DomainError("endowments must be non-negative losses")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "endowment", x)


def _check_market(agents, alloc: LayerAllocation | None = None) -> np.ndarray:
    """The aggregate loss S of a market, after checking that the agents share
    one state set and that ``alloc``, if given, splits all of S among them."""
    if not agents:
        raise DomainError("at least one agent required")
    m = agents[0].belief.state_count
    for a in agents:
        if a.belief.state_count != m:
            raise ProfileMismatchError("agents must share one state set")
    S = np.sum([a.endowment for a in agents], axis=0)
    if alloc is not None and alloc.agent_count != len(agents):
        raise ProfileMismatchError("allocation and agent list disagree on size")
    if alloc is not None and alloc.breakpoints[-1] < S.max() * (1.0 - 1e-12):
        raise ProfileMismatchError(f"allocation covers losses up to {alloc.breakpoints[-1]}, "
                                   f"below the market's largest aggregate loss {S.max()}")
    return S


def aggregate_loss(agents) -> np.ndarray:
    return _check_market(agents)


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
    breakpoints, tails, _ = _layer_table(S, [b.weights for b in beliefs], origin=True)
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
        stay flat (irrelevant on the support of S).  NaN raises DomainError.
        """
        return _layer_values(self.breakpoints, self.slopes, x)[-1]

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
        """Reload :meth:`to_dict` output; a malformed field raises DomainError."""
        if payload.get("schema_version") != 1:
            raise DomainError("unsupported allocation schema version")
        arrays = []
        for field in ("breakpoints", "slopes", "side_payments"):
            try:
                if not _json_numbers(payload[field]):
                    raise TypeError("every entry must be a JSON number, not a string or bool")
                arrays.append(np.asarray(payload[field], dtype=float))
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"malformed allocation {field}: {exc!r}") from None
        (b, h, c), chosen = arrays, payload.get("chosen_distortions")
        try:
            # -1 marks a bool, and operator.index refuses floats and strings.
            chosen = tuple(-1 if isinstance(i, (bool, np.bool_)) else operator.index(i)
                           for i in chosen)
        except TypeError:
            chosen = (-1,)
        n = h.shape[0] if h.ndim == 2 else -1
        for field, bad, want in (
                ("breakpoints", b.ndim != 1 or b.size == 0 or b[0] != 0.0
                 or not np.isfinite(b).all() or np.any(np.diff(b) <= 0.0),
                 "finite and strictly increasing from 0.0"),
                ("slopes", h.shape != (n, b.size - 1)
                 or not np.all((h >= 0.0) & (h <= 1.0)),
                 f"in [0, 1] with {b.size - 1} columns, one per layer"),
                ("side_payments", c.shape != (n,) or not np.isfinite(c).all(),
                 "finite, one per agent"),
                ("chosen_distortions", len(chosen) != n or min(chosen, default=0) < 0,
                 "one non-negative integer per agent")):
            if bad:
                raise DomainError(f"allocation {field} must be {want}")
        return cls(b, h, c, chosen)


def _json_numbers(value) -> bool:
    """Whether every entry of a nested list is an int or a float, not a bool."""
    if isinstance(value, (list, tuple)):
        return all(map(_json_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def solve_fixed(agents) -> tuple[LayerAllocation, float]:
    """Optimal layer allocation when each agent prices with one distortion.

    The singleton case of :func:`solve_robust`, the one layer solve: each
    layer goes entirely to the agent with the smallest distorted survival
    there; ties within relative ``TIE_TOL`` keep the lowest agent index.
    Returns the allocation (side payments zeroed) and the optimum value
    sum_k length_k * min_i T_i(Q_i(S > b_k)).  A set of several candidates
    raises :class:`UnsupportedOperationError`; to price with candidate c of
    such a set, pass ``AgentSpec(a.belief, single(a.distortions[c]),
    a.endowment)``.
    """
    if any(len(a.distortions) != 1 for a in agents):
        raise UnsupportedOperationError(
            "solve_fixed needs singleton candidate sets; use solve_robust")
    solution = solve_robust(agents)
    return solution.allocation, solution.value


@dataclass(frozen=True, eq=False)
class RobustSolution:
    allocation: LayerAllocation
    value: float

    @property
    def chosen(self) -> tuple[int, ...]:
        return self.allocation.chosen_distortions


def solve_robust(agents) -> RobustSolution:
    """Worst-case-optimal allocation over finite candidate distortion sets.

    Every candidate is evaluated once on the market's layer grid.  The
    layer value is maximised by exhaustive search over the product of
    candidate sets; ties keep the lexicographically first maximiser.  A
    product above ``PRODUCT_CAP`` raises :class:`ResourceLimitError` before
    any layer work.  Each layer then goes to the agent whose chosen
    candidate prices it lowest, the first such agent within ``TIE_TOL``;
    with singleton sets this is :func:`solve_fixed`.  The returned max-min
    value is a lower bound on the least worst-case total; when the
    allocation's worst-case total exceeds it beyond the tie band, a warning
    says the allocation is not certified optimal.
    """
    S = _check_market(agents)
    sizes = [len(a.distortions) for a in agents]
    product = math.prod(sizes)
    if product > PRODUCT_CAP:
        raise ResourceLimitError(
            f"candidate product {product} exceeds cap {PRODUCT_CAP}")
    grid = layer_decomposition(S, [a.belief for a in agents])
    tables = [[d(grid.survivals[i]) for d in a.distortions]
              for i, a in enumerate(agents)]
    lengths = grid.lengths
    best = -math.inf
    for combo in itertools.product(*(range(s) for s in sizes)):
        stacked = np.array([tables[i][c] for i, c in enumerate(combo)])
        v = float(np.dot(lengths, stacked.min(axis=0)))
        if v > best:
            best_combo, best, distorted = combo, v, stacked
    log.debug("robust solve: exhaustive over %d combos", product)
    n, m = distorted.shape
    winners = (distorted <= distorted.min(axis=0) * (1.0 + TIE_TOL)).argmax(axis=0)
    slopes = np.zeros((n, m))
    slopes[winners, np.arange(m)] = 1.0
    alloc = LayerAllocation(grid.breakpoints, slopes, np.zeros(n), best_combo)
    # Worst-case total of the allocation: an upper bound on the optimum.
    upper = sum(max(float(np.dot(lengths * h, t)) for t in ts)
                for h, ts in zip(slopes, tables))
    if upper > best * (1.0 + TIE_TOL + 1e-9):
        log.warning("robust allocation not certified optimal: its worst-case "
                    "total %.9g exceeds the max-min value %.9g", upper, best)
    return RobustSolution(alloc, best)


def side_payments(alloc: LayerAllocation, agents, weights=None) -> np.ndarray:
    """Side payments c_i delivering the chosen welfare split.

        c_i = rho_i(X_i) - rho_i(g_i(S)) - W * p_i / sum(p)

    with rho_i the agent's (robust) risk measure, W the total welfare gain
    and p the non-negative proportions of W that :func:`welfare_shares`
    reads from ``weights``: None or "equal" (W / n each), "last" (all of W
    to the last agent) or one proportion per agent."""
    return _payments(*_pre_trade_values(agents, alloc), weights)


def _pre_trade_values(agents, alloc: LayerAllocation):
    """rho_i(X_i) and rho_i(g_i(S)), the risks before side payments: only X_i
    is sorted; g_i(S) is priced on the allocation's own layers."""
    S = _check_market(agents, alloc)
    return (np.array([robust_drm(a.belief, a.endowment, a.distortions)[0] for a in agents]),
            _layer_prices(alloc.breakpoints, alloc.slopes, S,
                          [a.belief.weights for a in agents], [a.distortions for a in agents])[0])


def _payments(initial, pre, weights) -> np.ndarray:
    p = welfare_shares(weights, len(initial))
    return initial - pre - float(np.sum(initial - pre)) * p / p.sum()


def welfare_shares(weights, n: int) -> np.ndarray:
    """Proportions p of the welfare gain W, one per agent: i gets W p_i / sum(p).

    ``weights`` is None or "equal", "last" (all of W to the last agent) or
    n finite, non-negative proportions with a positive, finite sum; anything
    else raises :class:`InvalidWeightsError`.  A vector comes back scaled by
    a power of two, which is exact, so that W * p cannot overflow.
    """
    if weights is None:
        weights = "equal"
    if isinstance(weights, str) and weights in WEIGHT_RULES:
        return WEIGHT_RULES[weights](n)
    try:
        p = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        p = None
    if p is None or p.ndim != 1:
        raise InvalidWeightsError(f"weights must be one of {tuple(WEIGHT_RULES)} or a "
                                  f"vector of proportions, got {weights!r}")
    if p.size != n:
        raise InvalidWeightsError(f"{p.size} weights for {n} agents")
    if not (np.isfinite(p).all() and (p >= 0.0).all()
            and 0.0 < sum(p.tolist()) < math.inf):
        raise InvalidWeightsError("weight proportions must be non-negative "
                                  "with a positive finite sum")
    return np.ldexp(p, -np.frexp(p.max())[1])


@dataclass(frozen=True, eq=False)
class MarketReport:
    """Welfare accounting of a completed trade.

    ``optimum_value`` is the attained objective sum_i (rho_i(g_i(S)) + c_i),
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
    """Initial risk rho_i(X_i) and post-trade risk rho_i(g_i(S)) + c_i of a
    finished allocation (:func:`_pre_trade_values`); cash shifts a
    translation-invariant rho_i by c_i."""
    initial, pre = _pre_trade_values(agents, alloc)
    return _market_report(initial, pre + alloc.side_payments)


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
    and :func:`welfare_report` of the result, from one pricing of rho_i(X_i)
    and rho_i(g_i(S)) (:func:`_pre_trade_values`); ``weights`` gives the
    proportions of the welfare gain W, as for :func:`side_payments`.
    """
    initial, pre = _pre_trade_values(agents, alloc)
    settled = with_side_payments(alloc, _payments(initial, pre, weights))
    return settled, _market_report(initial, pre + settled.side_payments)


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
    if families not in ({PRELEC1}, {PRELEC2}):
        raise UnsupportedOperationError(
            f"deductible rule covers all-prelec1 or common-beta prelec2 markets, got {sorted(families)}")
    if families == {PRELEC2} and len({d.params[1] for d in dists}) != 1:
        raise UnsupportedOperationError("prelec2 deductible rule needs a common beta")
    return var(space, S, PRELEC_SPLIT_LEVEL)


def with_side_payments(alloc: LayerAllocation, c) -> LayerAllocation:
    """Return a copy of the allocation carrying the given side payments."""
    c = np.asarray(c, dtype=float)
    if c.shape != (alloc.agent_count,):
        raise ProfileMismatchError("side payment vector has wrong length")
    if not np.isfinite(c).all():
        raise DomainError("side payments must be finite")
    return replace(alloc, side_payments=c)
