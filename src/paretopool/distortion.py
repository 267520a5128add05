"""Probability distortion functions and their local risk-aversion indices.

A distortion is a non-decreasing map T on [0, 1] with T(0) = 0 and T(1) = 1,
and the :class:`Distortion` constructor admits nothing else.
Applied to survival probabilities it produces a distortion risk measure via
the Choquet integral (see :mod:`paretopool.riskmeasure`).  This module holds
the parametric families used throughout the package together with the
probability risk aversion index

    pra(t) = -T''(t) / T'(t)

and its relative version rpra(t) = t * pra(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError, UnsupportedOperationError

IDENTITY = "identity"
POWER = "power"
PRELEC1 = "prelec1"
PRELEC2 = "prelec2"
KAHNEMAN_TVERSKY = "kahneman_tversky"
TVAR = "tvar"
TABULATED = "tabulated"

PARAM_NAMES: dict[str, tuple[str, ...]] = {
    IDENTITY: (),
    POWER: ("gamma",),
    PRELEC1: ("alpha",),
    PRELEC2: ("alpha", "beta"),
    KAHNEMAN_TVERSKY: ("gamma",),
    TVAR: ("alpha",),
    TABULATED: (),
}

# The Kahneman-Tversky curve is non-decreasing iff g >= g* (Ingersoll 2008).
# With x = t / (1 - t), T' has the sign of h(x) = g + x - (1 - g) * x**g, whose
# minimum over x > 0 is g - x* (1 - g) / g at x* = (g (1 - g)) ** (1 / (1 - g));
# so g* is the root of g**2 = (1 - g) * x*, g* = 0.2792042470149385419...
# KT_GAMMA_MIN is the smallest double >= g*.
KT_GAMMA_MIN = 0.27920424701493857
# Slack on a table's monotonicity and end values.
_MONOTONE_SLACK = 1e-12


def _domain_issues(family: str, params: tuple[float, ...],
                   knots: tuple[tuple[float, float], ...]) -> list[str]:
    """Why (family, params, knots) is not a distortion; empty when it is."""
    if family not in PARAM_NAMES:
        return [f"unknown family '{family}'"]
    if family == TABULATED:
        return ["tabulated takes no parameters"] if params else _knot_issues(knots)
    if knots:
        return [f"{family} takes no knots"]
    names = PARAM_NAMES[family]
    if len(params) != len(names):
        return [f"{family} takes {len(names)} parameter(s) {names}, got {len(params)}"]
    issues: list[str] = []
    vals = dict(zip(names, params))
    if family == POWER and not 0.0 < vals["gamma"] < math.inf:
        issues.append(f"power: gamma must be positive and finite, got {vals['gamma']}")
    if family in (PRELEC1, PRELEC2) and not 0.0 < vals["alpha"] < 1.0:
        issues.append(f"{family}: alpha must lie in (0, 1), got {vals['alpha']}")
    if family == PRELEC2 and not 0.0 < vals["beta"] < math.inf:
        issues.append(f"prelec2: beta must be positive and finite, got {vals['beta']}")
    if family == KAHNEMAN_TVERSKY and not KT_GAMMA_MIN <= vals["gamma"] <= 1.0:
        issues.append(
            f"kahneman_tversky: gamma must lie in [{KT_GAMMA_MIN}, 1], got {vals['gamma']}")
    if family == TVAR and not 0.0 < vals["alpha"] < 1.0:
        issues.append(f"tvar: alpha must lie in (0, 1), got {vals['alpha']}")
    return issues


def _knot_issues(knots) -> list[str]:
    if len(knots) < 2:
        return ["tabulated: at least two knots required"]
    ts = [t for t, _ in knots]
    vs = [v for _, v in knots]
    issues: list[str] = []
    if ts[0] != 0.0 or ts[-1] != 1.0:
        issues.append("tabulated: knot abscissae must start at 0 and end at 1")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        issues.append("tabulated: knot abscissae must be strictly increasing")
    if any(not math.isfinite(v) for v in vs):
        issues.append("tabulated: knot values must be finite")
    if any(b - a < -_MONOTONE_SLACK for a, b in zip(vs, vs[1:])):
        issues.append("tabulated: knot values are not non-decreasing")
    if abs(vs[0]) > _MONOTONE_SLACK or abs(vs[-1] - 1.0) > _MONOTONE_SLACK:
        issues.append("tabulated: values must run from 0 at t=0 to 1 at t=1")
    return issues


@dataclass(frozen=True)
class Distortion:
    """A distortion function, tagged by family.

    ``params`` holds a parametric family's parameters positionally in the
    order given by ``PARAM_NAMES``; ``knots`` holds a tabulated one's
    (t, T(t)) pairs.  Every instance is a distortion: the constructor raises
    :class:`DomainError` unless the parameters lie in the family's exact
    range, or the knots run from (0, 0) to (1, 1) with strictly increasing
    abscissae and non-decreasing values.
    """

    family: str
    params: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        params = tuple(float(p) for p in self.params)
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "knots", knots)
        issues = _domain_issues(self.family, params, knots)
        if issues:
            raise DomainError("; ".join(issues))

    @classmethod
    def identity(cls) -> "Distortion":
        return cls(IDENTITY)

    @classmethod
    def power(cls, gamma: float) -> "Distortion":
        """T(t) = t ** gamma with finite gamma > 0."""
        return cls(POWER, (gamma,))

    @classmethod
    def prelec1(cls, alpha: float) -> "Distortion":
        """T(t) = exp(-(-ln t) ** alpha), alpha in (0, 1)."""
        return cls(PRELEC1, (alpha,))

    @classmethod
    def prelec2(cls, alpha: float, beta: float) -> "Distortion":
        """T(t) = exp(-beta * (-ln t) ** alpha), alpha in (0, 1), finite beta > 0."""
        return cls(PRELEC2, (alpha, beta))

    @classmethod
    def kahneman_tversky(cls, gamma: float) -> "Distortion":
        """T(t) = t**g / (t**g + (1 - t)**g) ** (1/g), g in [KT_GAMMA_MIN, 1]."""
        return cls(KAHNEMAN_TVERSKY, (gamma,))

    @classmethod
    def tvar(cls, alpha: float) -> "Distortion":
        """T(t) = min(t / alpha, 1); the expected-shortfall distortion."""
        return cls(TVAR, (alpha,))

    @classmethod
    def tabulated(cls, knots) -> "Distortion":
        """Piecewise-linear table of (t, T(t)) knots from (0, 0) to (1, 1)."""
        return cls(TABULATED, (), tuple(knots))

    def params_dict(self) -> dict[str, float]:
        return dict(zip(PARAM_NAMES[self.family], self.params))

    def label(self) -> str:
        if self.family == TABULATED:
            return f"tabulated[{len(self.knots)} knots]"
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params_dict().items())
        return f"{self.family}({inner})" if inner else self.family

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Evaluate T at t.  Accepts scalars or arrays; t must lie in [0, 1]."""
        arr = np.asarray(t, dtype=float)
        if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr))):
            raise DomainError(f"distortion argument outside [0, 1]: {t!r}")
        out = self._eval_array(arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def _eval_array(self, arr: np.ndarray) -> np.ndarray:
        f = self.family
        if f == IDENTITY:
            return arr.astype(float, copy=True)
        if f == POWER:
            return arr ** self.params[0]
        if f == TVAR:
            return np.minimum(arr / self.params[0], 1.0)
        if f == PRELEC1 or f == PRELEC2:
            alpha = self.params[0]
            beta = self.params[1] if f == PRELEC2 else 1.0
            safe = np.clip(arr, np.finfo(float).tiny, 1.0)
            with np.errstate(divide="ignore"):
                core = np.exp(-beta * (-np.log(safe)) ** alpha)
            return np.where(arr <= 0.0, 0.0, core)
        if f == KAHNEMAN_TVERSKY:
            g = self.params[0]
            num = arr ** g
            den = (arr ** g + (1.0 - arr) ** g) ** (1.0 / g)
            return num / den
        # TABULATED; the constructor admits no other family.
        ts = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        return np.interp(arr, ts, vs)

    # -- local risk aversion ------------------------------------------------

    def pra(self, t: float) -> float:
        """Probability risk aversion -T''(t)/T'(t) at an interior point.

        Every parametric family has a closed form.  Tabulated distortions
        have no second derivative and are rejected.
        """
        t = float(t)
        if not 0.0 < t < 1.0:
            raise DomainError(f"pra requires t in (0, 1), got {t}")
        f = self.family
        if f == IDENTITY:
            return 0.0
        if f == POWER:
            return (1.0 - self.params[0]) / t
        if f in (PRELEC1, PRELEC2):
            alpha = self.params[0]
            beta = self.params[1] if f == PRELEC2 else 1.0
            lt = math.log(t)
            return (lt + alpha * beta * (-lt) ** alpha - alpha + 1.0) / (t * lt)
        if f == TVAR:
            if t < self.params[0]:
                return 0.0
            raise SingularityError(
                f"tvar distortion has zero slope at t={t} >= alpha={self.params[0]}")
        if f == KAHNEMAN_TVERSKY:
            # With s = 1 - t, D = t**g + s**g and A = t**(g-1) - s**(g-1):
            # u = T'/T = g/t - A/D and T''/T = u' + u**2, so
            # pra = -(u' + u**2)/u.  u and u' are carried times t and t**2
            # (tu, t2du) so that no power of t overflows as t -> 0.
            g, s = self.params[0], 1.0 - t
            a, b = t ** g, s ** g
            D = a + b
            r = (a - t * b / s) / D                    # t * A / D
            tu = g - r
            if tu <= 0.0:
                raise SingularityError(f"kahneman_tversky slope T'({t}) <= 0")
            t2du = -g - (g - 1.0) * (a + t * t * b / (s * s)) / D + g * r * r
            return -(t2du + tu * tu) / (t * tu)
        raise UnsupportedOperationError(
            "pra is undefined for tabulated distortions")

    def rpra(self, t: float) -> float:
        """Relative probability risk aversion t * pra(t)."""
        return float(t) * self.pra(t)


@dataclass(frozen=True)
class DistortionSet:
    """A finite, non-empty, ordered set of candidate distortions.

    Robust risk measures take the worst case over these candidates; a
    singleton set recovers the plain distortion risk measure.
    """

    candidates: tuple[Distortion, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        cands = tuple(self.candidates)
        if not cands:
            raise DomainError("a distortion set must hold at least one candidate")
        if not all(isinstance(c, Distortion) for c in cands):
            raise DomainError("candidates must be Distortion instances")
        object.__setattr__(self, "candidates", cands)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, i: int) -> Distortion:
        return self.candidates[i]


def single(d: Distortion) -> DistortionSet:
    """Wrap one distortion as a singleton candidate set."""
    return DistortionSet((d,))
