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
    """Probability that the profile strictly exceeds x, pinned as by :func:`_tails`."""
    above = (as_profile(space, values) > float(x)).astype(np.intp)
    return float(_tails(above, space.weights, 1)[0])


def _tails(levels: np.ndarray, w, size: int, pin: bool = True) -> np.ndarray:
    """Per breakpoint b_k, k < size, the mass w of the states above it.

    ``levels[s]`` counts the breakpoints strictly below state s's value, so
    entry k is Q(Z > b_k): a bincount and suffix sums (no cancellation), no
    sort.  ``pin`` clips into [0, 1] and sets exactly 1 where the mass at or
    below b_k is an exact zero (full measure): distortions with unbounded
    endpoint slope would amplify a one-ulp shortfall of the float sum.
    """
    mass = np.bincount(levels, weights=w, minlength=size + 1)
    t = np.cumsum(mass[::-1])[::-1][1:]
    if pin:
        t = np.clip(t, 0.0, 1.0)
        t[np.cumsum(mass[:-1]) == 0.0] = 1.0
    return t


def _layer_table(z: np.ndarray, weight_rows, *, origin: bool = False):
    """Sorted distinct values zs of z, per weight row the pinned mass of
    z > zs[k], and each state's level: its index in zs, so zs[levels] == z.

    One sort, then :func:`_tails` per distinct row object:
    O(m log m + rows * m).  ``origin`` prepends 0 when the non-negative z has
    no zero, giving a loss's layer breakpoints.
    """
    zs, levels = np.unique(z, return_inverse=True)
    if origin and zs[0] != 0.0:
        zs, levels = np.concatenate([[0.0], zs]), levels + 1
    distinct: dict[int, np.ndarray] = {}
    for w in weight_rows:
        if id(w) not in distinct:
            distinct[id(w)] = _tails(levels, w, zs.size)
    return zs, np.array([distinct[id(w)] for w in weight_rows]), levels


def _layer_prices(breakpoints: np.ndarray, slopes: np.ndarray, z: np.ndarray,
                  weight_rows, candidate_sets) -> np.ndarray:
    """Per row i, the largest over ``candidate_sets[i]`` of the Choquet value of
    g_i(z) = :func:`_layer_function` under ``weight_rows[i]``, with no sort: by
    comonotone additivity, sum_k len_k slopes[i, k] T(Q(z > b_k)) over the
    layers row i carries, once a layer with a value of z strictly inside it
    is split there, both parts keeping its slope.
    """
    level = np.searchsorted(breakpoints, z)
    inside = (level > 0) & (level < breakpoints.size)
    inside[inside] = breakpoints[level[inside]] != z[inside]
    if inside.any():
        cuts = np.unique(z[inside])
        at = np.searchsorted(breakpoints, cuts)
        breakpoints = np.insert(breakpoints, at, cuts)
        slopes = np.insert(slopes, at, slopes[:, at - 1], axis=1)
        level = np.searchsorted(breakpoints, z)
    lengths, tails = np.diff(breakpoints), {}
    values = np.zeros(len(slopes))
    for i in np.flatnonzero(slopes.any(axis=1)):  # a row carrying nothing prices at 0
        w, carried = weight_rows[i], slopes[i] != 0.0
        if id(w) not in tails:
            tails[id(w)] = _tails(level, w, breakpoints.size)[:-1]
        held, t = lengths[carried] * slopes[i, carried], tails[id(w)][carried]
        values[i] = max(float(np.dot(held, d(t))) for d in candidate_sets[i])
    return values


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
    zs, tails, _ = _layer_table(as_profile(space, values), [space.weights])
    return zs, tails[0]


def choquet(space: EmpiricalSpace, values, d: Distortion) -> float:
    """Choquet integral of the profile under the distorted measure T(Q(.)).

    Layer form over distinct sorted values z_1 < ... < z_m:

        z_1 + sum_k (z_{k+1} - z_k) * T(Q(Z > z_k))

    which is exact for profiles bounded below (negative values included,
    via the built-in translation by the minimum).
    """
    return _choquet_layers(*_distinct_layers(space, values), d)


def _choquet_layers(zs: np.ndarray, tails: np.ndarray, d: Distortion) -> float:
    """:func:`choquet` on the layer table of :func:`_distinct_layers`."""
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

    The profile is sorted once and every candidate priced on that one layer
    table, each value bit for bit its :func:`choquet`.  Returns (value,
    index of the attaining candidate); exact ties keep the lowest index.
    """
    zs, tails = _distinct_layers(space, values)
    best = -math.inf
    best_idx = 0
    for idx, d in enumerate(candidates):
        v = _choquet_layers(zs, tails, d)
        if v > best:
            best, best_idx = v, idx
    return best, best_idx
