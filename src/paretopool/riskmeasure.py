"""Distortion risk measures on finite empirical probability spaces.

States are indexed 0..m-1 with strictly positive total weight 1.  A loss
profile is a plain 1-D float array of per-state amounts; helper
:func:`as_profile` validates shape and finiteness.  The Choquet integral is
computed layer-wise over the sorted distinct values of the profile, which
makes translation invariance and comonotone additivity hold up to float
rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import Distortion, DistortionSet
from .errors import DomainError, ProfileMismatchError

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EmpiricalSpace:
    """A finite probability space given by per-state weights.

    Weights must be non-negative, finite and sum to 1 within
    ``WEIGHT_SUM_TOL``.  The stored array is read-only.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a non-empty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise DomainError("weights must be finite and non-negative")
        if abs(math.fsum(w.tolist()) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {math.fsum(w.tolist())!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def state_count(self) -> int:
        return int(self.weights.size)

    @classmethod
    def uniform(cls, m: int) -> "EmpiricalSpace":
        if m <= 0:
            raise DomainError("state count must be positive")
        return cls(np.full(m, 1.0 / m))


def as_profile(space: EmpiricalSpace, values) -> np.ndarray:
    """Coerce values to a float profile matching the space's state count."""
    z = np.asarray(values, dtype=float)
    if z.ndim != 1 or z.size != space.state_count:
        raise ProfileMismatchError(
            f"profile of length {z.size if z.ndim == 1 else z.shape} does not match "
            f"{space.state_count} states")
    if not np.all(np.isfinite(z)):
        raise ProfileMismatchError("profile values must be finite")
    return z


def survival(space: EmpiricalSpace, values, x: float) -> float:
    """Probability that the profile strictly exceeds x."""
    z = as_profile(space, values)
    mask = z > float(x)
    # The excluded mass is an exact float zero iff the event has full
    # measure; return exactly 1 then, since distortions with unbounded
    # endpoint slope amplify a one-ulp shortfall.
    if float(np.sum(space.weights[~mask])) == 0.0:
        return 1.0
    return float(np.sum(space.weights[mask]))


def _layer_table(z: np.ndarray, weight_rows, *, origin: bool = False,
                 pin: bool = True):
    """Sorted distinct values zs of z and, per weight row, the mass of z > zs[k].

    One sort, then a bincount and suffix sums (no cancellation) per distinct
    row object: O(m log m + rows * m).  ``origin`` prepends 0 when the
    non-negative z has no zero, giving a loss's layer breakpoints.  ``pin``
    clips into [0, 1] and sets exactly 1 where the mass at or below zs[k] is
    an exact zero (full measure): distortions with unbounded endpoint slope
    would amplify a one-ulp shortfall of the float sum.
    """
    zs, inverse = np.unique(z, return_inverse=True)
    if origin and zs[0] != 0.0:
        zs, inverse = np.concatenate([[0.0], zs]), inverse + 1
    distinct: dict[int, np.ndarray] = {}
    for w in weight_rows:
        if id(w) not in distinct:
            mass = np.bincount(inverse, weights=w, minlength=zs.size)
            t = np.append(np.cumsum(mass[::-1])[::-1][1:], 0.0)
            if pin:
                t = np.clip(t, 0.0, 1.0)
                t[np.cumsum(mass) == 0.0] = 1.0
            distinct[id(w)] = t
    return zs, np.array([distinct[id(w)] for w in weight_rows])


def _layer_function(breakpoints: np.ndarray, slopes: np.ndarray, x) -> np.ndarray:
    """sum_k slopes[..., k] * clip(x - b_k, 0, b_k+1 - b_k) at scalar or 1-D x.

    Each x reads the cumulative sum of the layers below its own, found by
    ``searchsorted``: O((layers + points) log layers) per row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lower, lengths = breakpoints[:-1], np.diff(breakpoints)
    if lower.size == 0:
        return np.zeros(slopes.shape[:-1] + x.shape)
    below = np.cumsum(slopes * lengths, axis=-1)
    below = np.concatenate([np.zeros_like(below[..., :1]), below[..., :-1]], axis=-1)
    k = np.clip(np.searchsorted(lower, x, side="right") - 1, 0, lower.size - 1)
    return below[..., k] + slopes[..., k] * np.clip(x - lower[k], 0.0, lengths[k])


def _distinct_layers(space: EmpiricalSpace, values):
    """Sorted distinct values and the survival tails[k] = Q(Z > zs[k])."""
    zs, tails = _layer_table(as_profile(space, values), [space.weights])
    return zs, tails[0]


def choquet(space: EmpiricalSpace, values, d: Distortion) -> float:
    """Choquet integral of the profile under the distorted measure T(Q(.)).

    Layer form over distinct sorted values z_1 < ... < z_m:

        z_1 + sum_k (z_{k+1} - z_k) * T(Q(Z > z_k))

    which is exact for profiles bounded below (negative values included,
    via the built-in translation by the minimum).
    """
    zs, tails = _distinct_layers(space, values)
    if zs.size == 1:
        return float(zs[0])
    return float(zs[0] + np.dot(np.diff(zs), d(tails[:-1])))


def var(space: EmpiricalSpace, values, alpha: float) -> float:
    """Value at risk: inf{t : Q(Z > t) <= alpha} (strict survival)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"var level must lie in (0, 1), got {alpha}")
    zs, tails = _distinct_layers(space, values)
    return float(zs[np.argmax(tails <= alpha)])


def es(space: EmpiricalSpace, values, alpha: float) -> float:
    """Expected shortfall (1/alpha) * integral of VaR_u over u in (0, alpha].

    Evaluated exactly from the piecewise-constant quantile function; agrees
    with the Choquet integral under the tvar distortion.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"es level must lie in (0, 1), got {alpha}")
    zs, tails = _distinct_layers(space, values)
    # VaR_u = zs[k] for u in [tails[k], tails[k-1]); tails[-1] = 0.
    upper = np.concatenate([[1.0], tails[:-1]])
    seg = np.clip(np.minimum(upper, alpha) - np.minimum(tails, alpha), 0.0, None)
    return float(np.dot(zs, seg) / alpha)


def robust_drm(space: EmpiricalSpace, values, candidates: DistortionSet) -> tuple[float, int]:
    """Worst-case Choquet value over a finite candidate set.

    Returns (value, index of the attaining candidate); exact ties keep the
    lowest index.
    """
    best = -math.inf
    best_idx = 0
    for idx, d in enumerate(candidates):
        v = choquet(space, values, d)
        if v > best:
            best, best_idx = v, idx
    return best, best_idx
