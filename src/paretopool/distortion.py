"""Probability distortion functions and their local risk-aversion indices.

A distortion is a non-decreasing map T on [0, 1] with T(0) = 0 and T(1) = 1.
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

FAMILIES = (IDENTITY, POWER, PRELEC1, PRELEC2, KAHNEMAN_TVERSKY, TVAR, TABULATED)

PARAM_NAMES: dict[str, tuple[str, ...]] = {
    IDENTITY: (),
    POWER: ("gamma",),
    PRELEC1: ("alpha",),
    PRELEC2: ("alpha", "beta"),
    KAHNEMAN_TVERSKY: ("gamma",),
    TVAR: ("alpha",),
    TABULATED: (),
}

# Below this exponent the Kahneman-Tversky curve stops being monotone.
KT_GAMMA_MIN = 0.279
# Central finite-difference step used for the Kahneman-Tversky pra.
KT_FD_STEP = 1e-6
# Grid resolution for the monotonicity check in validate().
GRID_POINTS = 10_000
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a distortion validity check.

    ``violations`` is empty exactly when the checked object is valid.
    """

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_params(family: str, params: tuple[float, ...] = (),
                    knots: tuple[tuple[float, float], ...] = ()) -> ValidationReport:
    """Check parameter ranges for a distortion described by raw values.

    The :class:`Distortion` constructor raises :class:`DomainError` on any
    violation reported here (for example prelec1 with alpha = 1.5); unlike
    :func:`validate` this needs no constructed Distortion.
    """
    issues: list[str] = []
    if family not in FAMILIES:
        return ValidationReport((f"unknown family '{family}'",))
    names = PARAM_NAMES[family]
    if family != TABULATED and len(params) != len(names):
        return ValidationReport(
            (f"{family} takes {len(names)} parameter(s) {names}, got {len(params)}",))
    vals = dict(zip(names, params))
    if family == POWER and not 0.0 < vals["gamma"] < math.inf:
        issues.append(f"power: gamma must be positive and finite, got {vals['gamma']}")
    if family in (PRELEC1, PRELEC2) and not 0.0 < vals["alpha"] < 1.0:
        issues.append(f"{family}: alpha must lie in (0, 1), got {vals['alpha']}")
    if family == PRELEC2 and not 0.0 < vals["beta"] < math.inf:
        issues.append(f"prelec2: beta must be positive and finite, got {vals['beta']}")
    if family == KAHNEMAN_TVERSKY and not KT_GAMMA_MIN < vals["gamma"] <= 1.0:
        issues.append(
            f"kahneman_tversky: gamma must lie in ({KT_GAMMA_MIN}, 1], got {vals['gamma']}")
    if family == TVAR and not 0.0 < vals["alpha"] < 1.0:
        issues.append(f"tvar: alpha must lie in (0, 1), got {vals['alpha']}")
    if family == TABULATED:
        issues.extend(_knot_structure_issues(knots))
    return ValidationReport(tuple(issues))


def _knot_structure_issues(knots) -> list[str]:
    issues: list[str] = []
    if len(knots) < 2:
        return ["tabulated: at least two knots required"]
    ts = [float(t) for t, _ in knots]
    if ts[0] != 0.0 or ts[-1] != 1.0:
        issues.append("tabulated: knot abscissae must start at 0 and end at 1")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        issues.append("tabulated: knot abscissae must be strictly increasing")
    if any(not math.isfinite(float(v)) for _, v in knots):
        issues.append("tabulated: knot values must be finite")
    return issues


@dataclass(frozen=True)
class Distortion:
    """A distortion function, tagged by family.

    ``params`` holds the family's parameters positionally in the order given
    by ``PARAM_NAMES``; ``knots`` is used by the tabulated family only.
    Parameter domain constraints are enforced at construction.  Knot value
    monotonicity is deliberately not enforced here so that :func:`validate`
    can report it; evaluation of such a table still works mechanically.
    """

    family: str
    params: tuple[float, ...] = ()
    knots: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        params = tuple(float(p) for p in self.params)
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "knots", knots)
        report = validate_params(self.family, params, knots)
        if not report.ok:
            raise DomainError("; ".join(report.violations))

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
        """T(t) = t**g / (t**g + (1 - t)**g) ** (1/g), g in (0.279, 1]."""
        return cls(KAHNEMAN_TVERSKY, (gamma,))

    @classmethod
    def tvar(cls, alpha: float) -> "Distortion":
        """T(t) = min(t / alpha, 1); the expected-shortfall distortion."""
        return cls(TVAR, (alpha,))

    @classmethod
    def tabulated(cls, knots) -> "Distortion":
        """Piecewise-linear table of (t, T(t)) knots; evaluation only."""
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

        Closed forms are used for every family that has one; the
        Kahneman-Tversky index falls back to central finite differences
        with step ``KT_FD_STEP``.  Tabulated distortions have no second
        derivative and are rejected.
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
            return self._pra_finite_difference(t)
        raise UnsupportedOperationError(
            "pra is undefined for tabulated distortions")

    def _pra_finite_difference(self, t: float) -> float:
        h = KT_FD_STEP
        if t <= h or t >= 1.0 - h:
            raise DomainError(
                f"finite-difference pra needs t in ({h}, {1 - h}), got {t}")
        fm, f0, fp = self(t - h), self(t), self(t + h)
        d1 = (fp - fm) / (2.0 * h)
        if d1 <= 0.0:
            raise SingularityError(f"estimated T'({t}) <= 0")
        d2 = (fp - 2.0 * f0 + fm) / (h * h)
        return -d2 / d1

    def rpra(self, t: float) -> float:
        """Relative probability risk aversion t * pra(t)."""
        return float(t) * self.pra(t)


def validate(d: Distortion) -> ValidationReport:
    """Full validity check of a constructed distortion.

    Parameter ranges are re-checked, boundary values T(0) = 0 and T(1) = 1
    are verified, and monotonicity is checked on a uniform grid of
    ``GRID_POINTS`` points for parametric families or knot-wise for
    tabulated ones.  Returns a report whose violation list is empty iff the
    distortion is valid.
    """
    issues = list(validate_params(d.family, d.params, d.knots).violations)
    if d.family == TABULATED:
        vals = np.array([v for _, v in d.knots], dtype=float)
        if np.any(np.diff(vals) < -_MONOTONE_SLACK):
            issues.append("tabulated: knot values are not non-decreasing")
        if vals.size and (abs(vals[0]) > _MONOTONE_SLACK or abs(vals[-1] - 1.0) > _MONOTONE_SLACK):
            issues.append("tabulated: values must run from 0 at t=0 to 1 at t=1")
        return ValidationReport(tuple(issues))
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    vals = d(grid)
    if abs(vals[0]) > _MONOTONE_SLACK:
        issues.append(f"T(0) = {vals[0]!r}, expected 0")
    if abs(vals[-1] - 1.0) > _MONOTONE_SLACK:
        issues.append(f"T(1) = {vals[-1]!r}, expected 1")
    neg = np.diff(vals) < -_MONOTONE_SLACK
    if np.any(neg):
        where = grid[:-1][neg][0]
        issues.append(f"not non-decreasing near t = {where:.6f}")
    if np.any(vals < -_MONOTONE_SLACK) or np.any(vals > 1.0 + _MONOTONE_SLACK):
        issues.append("values leave [0, 1]")
    return ValidationReport(tuple(issues))


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
