"""Generalized Pareto family and the predictive transform for future peaks.

Everything here is a pure function of immutable inputs.  The two-parameter
GP distribution ``H(x) = 1 - (1 + g*x/s)**(-1/g)`` models excesses over a
high threshold; its threshold-stability property (an excess over a higher
threshold is again GP with scale ``s + g*u``) is what lets predictions be
pushed from an intermediate quantile level deep into the tail.

The predictive law of a peak above the extreme level is evaluated through
the affine representation

    Y = t + s*(r**(-g) - 1)/g + r**(-g) * U,     U ~ GP(g, s),

where ``t`` is the intermediate threshold and ``r`` is the tail ratio
(extreme tail mass over intermediate tail mass).  This is algebraically
identical to transforming the GP argument directly but is numerically
stable and yields closed-form quantiles and means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BeyondEndpointError,
    DomainError,
    InfiniteMeanError,
    UnboundedQuantileError,
)

__all__ = [
    "GAMMA_ZERO_TOL",
    "GpParams",
    "Support",
    "LevelPair",
    "gp_cdf",
    "gp_pdf",
    "gp_quantile",
    "gp_sample",
    "threshold_shift",
    "predictive_cdf",
    "predictive_pdf",
    "predictive_quantile",
    "predictive_mean",
    "predictive_shift_scale",
    "extrapolation_weight",
]

# Below this |shape| the closed-form loses all precision to cancellation in
# (1 + g*x)**(-1/g); the exponential limit is exact to machine precision there.
GAMMA_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class GpParams:
    """Shape/scale pair of a generalized Pareto distribution.

    The shape is restricted to ``gamma > -1/2``, the regime where
    likelihood-based inference is regular.
    """

    gamma: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.sigma)):
            raise DomainError("GP parameters must be finite")
        if self.sigma <= 0.0:
            raise DomainError(f"scale must be positive, got {self.sigma}")
        if self.gamma <= -0.5:
            raise DomainError(f"shape must exceed -1/2, got {self.gamma}")

    @property
    def upper(self) -> float:
        """Right endpoint of the excess distribution (inf for gamma >= 0)."""
        if self.gamma < 0.0:
            return -self.sigma / self.gamma
        return math.inf


@dataclass(frozen=True)
class Support(object):
    """An interval on which a density lives; ``upper`` may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError(f"empty support [{self.lower}, {self.upper}]")

    @classmethod
    def for_params(cls, params: GpParams) -> "Support":
        return cls(0.0, params.upper)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.upper)


@dataclass(frozen=True)
class LevelPair:
    """Intermediate level, extreme level, and their tail-mass ratio.

    ``tau_star = (1 - tau_e) / (1 - tau_i)`` measures how far beyond the
    intermediate threshold the prediction reaches: 1 means no extrapolation,
    values near 0 mean the extreme threshold sits far deeper in the tail.
    """

    tau_i: float
    tau_e: float
    tau_star: float

    def __post_init__(self):
        if not 0.0 < self.tau_i < 1.0:
            raise DomainError(f"intermediate level must lie in (0,1), got {self.tau_i}")
        if not self.tau_i <= self.tau_e < 1.0:
            raise DomainError(
                f"extreme level must lie in [tau_i, 1), got {self.tau_e}"
            )
        if not 0.0 < self.tau_star <= 1.0:
            raise DomainError(f"tail ratio must lie in (0,1], got {self.tau_star}")
        implied = (1.0 - self.tau_e) / (1.0 - self.tau_i)
        if abs(implied - self.tau_star) > 1e-12 * max(1.0, abs(self.tau_star)):
            raise DomainError(
                f"inconsistent levels: (1-tau_e)/(1-tau_i)={implied!r} "
                f"but tau_star={self.tau_star!r}"
            )

    @classmethod
    def from_levels(cls, tau_i: float, tau_e: float) -> "LevelPair":
        return cls(tau_i, tau_e, (1.0 - tau_e) / (1.0 - tau_i))

    @classmethod
    def from_tau_star(cls, tau_i: float, tau_star: float) -> "LevelPair":
        return cls(tau_i, 1.0 - tau_star * (1.0 - tau_i), tau_star)

    @classmethod
    def intermediate(cls, tau_i: float) -> "LevelPair":
        """No extrapolation: tau_e == tau_i, tau_star == 1."""
        return cls(tau_i, tau_i, 1.0)


def _near_zero(gamma) -> np.ndarray:
    return np.abs(gamma) < GAMMA_ZERO_TOL


def _as_float(x, like):
    return float(x) if np.ndim(like) == 0 else x


def gp_cdf_vec(gamma, sigma, x):
    """GP cdf, broadcasting over parameters and argument.

    Clamped to exact 0/1 outside the support so that predictive
    compositions can probe boundary points safely.  Like ``gp_pdf_vec``,
    both branches are evaluated on whole arrays and masked afterwards.
    """
    gamma = np.asarray(gamma, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    zero = _near_zero(gamma)
    g = np.where(zero, 1.0, gamma)  # near-zero shapes take the exponential branch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = 1.0 + g * x / sigma
        out = -np.expm1(-np.log(base) / g)
        if np.any(zero):
            out = np.where(zero, -np.expm1(-x / sigma), out)
    # past the endpoint (base <= 0, only reachable when gamma < 0) the cdf is 1
    out = np.where(x > 0.0, np.where(zero | (base > 0.0), out, 1.0), 0.0)
    return np.clip(out, 0.0, 1.0)


def gp_pdf_vec(gamma, sigma, x):
    """GP density, broadcasting over parameters and argument; 0 outside support.

    Both branches are evaluated on whole arrays and masked afterwards, so a
    mixture block costs a few ufunc passes; the exponent is formed on the
    unbroadcast shapes.
    """
    gamma = np.asarray(gamma, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    zero = _near_zero(gamma)
    g = np.where(zero, 1.0, gamma)  # near-zero shapes take the exponential branch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = 1.0 + g * x / sigma
        out = np.exp(-(1.0 / g + 1.0) * np.log(base)) / sigma
        if np.any(zero):
            out = np.where(zero, np.exp(-x / sigma) / sigma, out)
    return np.where((x >= 0.0) & (zero | (base > 0.0)), out, 0.0)


def gp_quantile_vec(gamma, sigma, prob):
    """GP quantile for prob in [0,1); prob=1 allowed only for gamma<0.  Both
    branches are evaluated on whole arrays, as in ``gp_cdf_vec``."""
    gamma = np.asarray(gamma, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    prob = np.asarray(prob, dtype=float)
    if np.any((prob < 0.0) | (prob > 1.0)):
        raise DomainError("quantile probability must lie in [0, 1]")
    if np.any((prob == 1.0) & (gamma > -GAMMA_ZERO_TOL)):
        raise UnboundedQuantileError(
            "quantile at probability 1 is infinite for nonnegative shape"
        )
    zero = _near_zero(gamma)
    g = np.where(zero, 1.0, gamma)  # near-zero shapes take the exponential branch
    with np.errstate(divide="ignore"):  # prob=1 with g<0 hits the endpoint
        log_q = np.log1p(-prob)
        return np.where(zero, -sigma * log_q, sigma * np.expm1(-g * log_q) / g)


def gp_cdf(p: GpParams, x: float) -> float:
    """P(U <= x) for U ~ GP(p); 0 below the support, 1 at and past the endpoint."""
    return _as_float(gp_cdf_vec(p.gamma, p.sigma, x), x)


def gp_pdf(p: GpParams, x: float) -> float:
    """GP density at ``x``; 0 outside the support."""
    return _as_float(gp_pdf_vec(p.gamma, p.sigma, x), x)


def gp_logpdf_vec(gamma, sigma, x):
    """Log density; -inf outside the support.  Used by likelihood code.
    Evaluated on whole arrays and masked afterwards, like ``gp_pdf_vec``."""
    gamma = np.asarray(gamma, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    zero = _near_zero(gamma)
    g = np.where(zero, 1.0, gamma)  # near-zero shapes take the exponential branch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = 1.0 + g * x / sigma
        out = np.where(zero, -x / sigma, -(1.0 / g + 1.0) * np.log(base)) - np.log(sigma)
    return np.where((x >= 0.0) & (zero | (base > 0.0)), out, -np.inf)


def gp_quantile(p: GpParams, prob: float) -> float:
    """Inverse cdf.  Round-trips with ``gp_cdf`` to ~1e-10 relative."""
    return _as_float(gp_quantile_vec(p.gamma, p.sigma, prob), prob)


def gp_sample(p: GpParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-cdf sampling, deterministic given the generator state."""
    return gp_quantile_vec(p.gamma, p.sigma, rng.random(size))


def threshold_shift(p: GpParams, u: float) -> GpParams:
    """Law of the excess over a higher threshold ``u`` (threshold stability).

    An excess ``U - u`` given ``U > u`` is again GP with the same shape and
    scale ``sigma + gamma*u``.  Composes as a semigroup in ``u``.
    """
    if u < 0.0:
        raise DomainError(f"threshold shift must be nonnegative, got {u}")
    new_sigma = p.sigma + p.gamma * u
    if new_sigma <= 0.0:
        raise BeyondEndpointError(
            f"shift u={u} reaches past the endpoint {p.upper:.6g}"
        )
    return GpParams(p.gamma, new_sigma)


def predictive_shift_scale(p: GpParams, levels: LevelPair) -> tuple[float, float]:
    """Location/scale pair (m, s) of the affine predictive representation.

    The peak above the extreme threshold is distributed as
    ``t + m + s*U`` with ``U ~ GP(p)``; ``m = 0`` and ``s = 1`` when
    ``tau_star == 1``, reducing the predictive law to the plain excess law.
    """
    r = levels.tau_star
    if r == 1.0:
        return 0.0, 1.0
    g = p.gamma
    if abs(g) < GAMMA_ZERO_TOL:
        return -p.sigma * math.log(r), 1.0
    s = r ** (-g)
    m = p.sigma * (s - 1.0) / g
    return m, s


def predictive_cdf(p: GpParams, t_i: float, levels: LevelPair, y) -> float:
    """Cdf of a future peak above the extreme threshold, given params and levels.

    Evaluable for every real ``y`` (0 below the support, 1 past the endpoint).
    """
    m, s = predictive_shift_scale(p, levels)
    z = (np.asarray(y, dtype=float) - t_i - m) / s
    return _as_float(gp_cdf_vec(p.gamma, p.sigma, z), y)


def predictive_pdf(p: GpParams, t_i: float, levels: LevelPair, y) -> float:
    """Density of the predictive law; the exact derivative of ``predictive_cdf``."""
    m, s = predictive_shift_scale(p, levels)
    z = (np.asarray(y, dtype=float) - t_i - m) / s
    return _as_float(gp_pdf_vec(p.gamma, p.sigma, z) / s, y)


def predictive_quantile(p: GpParams, t_i: float, levels: LevelPair, prob) -> float:
    """Quantile of the predictive law; closed form via the affine representation."""
    m, s = predictive_shift_scale(p, levels)
    q = gp_quantile_vec(p.gamma, p.sigma, prob)
    return _as_float(t_i + m + s * q, prob)


def predictive_mean(p: GpParams, t_i: float, levels: LevelPair) -> float:
    """Expected value of the predictive law; requires shape < 1."""
    if p.gamma >= 1.0:
        raise InfiniteMeanError(
            f"predictive mean is infinite for shape {p.gamma} >= 1"
        )
    m, s = predictive_shift_scale(p, levels)
    return t_i + m + s * p.sigma / (1.0 - p.gamma)


def extrapolation_weight(gamma: float, x: float) -> float:
    """Weight measuring how strongly estimation error amplifies with tail depth.

    ``x`` is the inverse tail ratio (1/tau_star >= 1); heavier penalties apply
    to short tails, logarithmic ones to heavy tails.
    """
    if x <= 0.0:
        raise DomainError(f"weight argument must be positive, got {x}")
    if gamma > GAMMA_ZERO_TOL:
        return math.log(x)
    if gamma < -GAMMA_ZERO_TOL:
        return x ** (-gamma)
    return math.log(x) ** 2
