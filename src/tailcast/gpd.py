"""Generalized Pareto family, its likelihood, and the predictive transform for future peaks.

Everything here is a pure function of immutable inputs.  The two-parameter
GP distribution ``H(x) = 1 - (1 + g*x/s)**(-1/g)`` models excesses over a
high threshold; its threshold-stability property (an excess over a higher
threshold is again GP with scale ``s + g*u``) is what lets predictions be
pushed from an intermediate quantile level deep into the tail.

The predictive law of a peak above the extreme level is the affine map

    Y = t + s*(r**(-g) - 1)/g + r**(-g) * U,     U ~ GP(g, s),

where ``t`` is the intermediate threshold and ``r`` is the tail ratio
(extreme tail mass over intermediate tail mass).  :func:`shift_scale` gives
its shift and scale, which ``predict`` averages over one draw (a point fit)
or many (a posterior); :func:`gp_loglik` is the one GP log-likelihood.
``GAMMA_ZERO_TOL``, the band where these formulas take their limit as the
shape goes to 0, is used in this module only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BeyondEndpointError, DomainError, UnboundedQuantileError

__all__ = [
    "GAMMA_ZERO_TOL",
    "GpParams",
    "Support",
    "LevelPair",
    "gp_cdf",
    "gp_pdf",
    "gp_quantile",
    "gp_sample",
    "gp_loglik",
    "threshold_shift",
    "shift_scale",
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
        t = g * x / sigma
        base = 1.0 + t  # the support test only: log1p keeps t's precision
        out = -np.expm1(-np.log1p(t) / g)
        if zero.any():
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
        t = g * x / sigma
        base = 1.0 + t  # the support test only: log1p keeps t's precision
        out = np.exp(-(1.0 / g + 1.0) * np.log1p(t)) / sigma
        if zero.any():
            out = np.where(zero, np.exp(-x / sigma) / sigma, out)
    return np.where((x >= 0.0) & (zero | (base > 0.0)), out, 0.0)


def gp_quantile_vec(gamma, sigma, prob):
    """GP quantile for prob in [0,1); prob=1 allowed only for gamma<0.  Both
    branches are evaluated on whole arrays, as in ``gp_cdf_vec``."""
    gamma = np.asarray(gamma, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    prob = np.asarray(prob, dtype=float)
    if ((prob < 0.0) | (prob > 1.0)).any():
        raise DomainError("quantile probability must lie in [0, 1]")
    if ((prob == 1.0) & (gamma > -GAMMA_ZERO_TOL)).any():
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


def gp_loglik(x: np.ndarray) -> Callable[..., float]:
    """The GP log-likelihood of the ascending excesses ``x``, as a function
    ``loglik(gamma, log_sigma, log1p_sum=None)`` on Python floats.

    It is ``-k log sigma - (1 + 1/gamma) S`` with ``S = sum(log1p(x * (gamma
    / sigma)))``, its limit ``-k log sigma - sum(x) / sigma`` for near-zero
    shapes, and -inf for shapes at or below -1/2 or an excess at or past the
    endpoint.  A caller holding ``S`` already (a lockstep block's row)
    passes it as ``log1p_sum``.  ``S`` is formed in one buffer per ``x``,
    without a temporary per call: not for concurrent use.
    """
    k = x.size
    x_sum = float(np.add.reduce(x))
    x_max = float(x[-1])
    buf = np.empty_like(x)

    def loglik(gamma: float, log_sigma: float, log1p_sum: float | None = None) -> float:
        if gamma <= -0.5:
            return -math.inf
        sigma = math.exp(log_sigma)
        if gamma < 0.0 and x_max * (-gamma) >= sigma:
            return -math.inf
        if abs(gamma) < GAMMA_ZERO_TOL:
            return -k * log_sigma - x_sum / sigma
        if log1p_sum is None:
            np.multiply(x, gamma / sigma, out=buf)
            log1p_sum = float(np.add.reduce(np.log1p(buf, out=buf)))
        return -k * log_sigma - (1.0 + 1.0 / gamma) * log1p_sum

    return loglik


def gp_quantile(p: GpParams, prob: float) -> float:
    """Inverse cdf.  ``gp_cdf`` of it is ``prob`` within 1e-10 absolute for
    ``prob`` in [1e-6, 1 - 1e-6], scales in [0.01, 100] and shapes on both
    sides of the zero-shape band (a hypothesis test asserts this)."""
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


def shift_scale(gamma, sigma, tau_star: float):
    """Shift and scale of the affine predictive map ``Y = t + shift + scale*U``.

    ``shift = sigma*(r**-gamma - 1)/gamma`` and ``scale = r**-gamma`` at the
    tail ratio ``r = tau_star``; near-zero shapes take the limit
    ``(-sigma*log r, 1)``, and ``r = 1`` gives (0, 1), the plain excess law.
    Floats give floats and arrays arrays, element by element the same bits:
    both take numpy's array loop for the power, not Python's ``**`` nor
    numpy's scalar shortcuts (a square root for shape -1/2, a reciprocal for
    shape 1), which round differently.
    """
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    s = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a shape of exactly 0
        scale = np.power(tau_star, -g)
        shift = s * (scale - 1.0) / g
    zero = _near_zero(g)
    if zero.any():
        scale = np.where(zero, 1.0, scale)
        shift = np.where(zero, -s * math.log(tau_star), shift)
    if np.ndim(gamma) == 0:
        return float(shift[0]), float(scale[0])
    return shift, scale


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
