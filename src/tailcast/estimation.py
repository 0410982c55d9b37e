"""Exceedance extraction and frequentist GP parameter estimators.

The estimators consume an :class:`ExceedanceSet` (the top ``k`` order
statistics minus the threshold order statistic) and produce a
:class:`GpFit`.  Maximum likelihood is a one-dimensional root search on the
profile likelihood in ``theta = gamma / sigma``, over shapes above -1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryWarning,
    DegenerateDataError,
    DomainError,
    EstimationError,
    TieWarning,
)
from .gpd import GAMMA_ZERO_TOL, GpParams
from .roots import brentq

__all__ = [
    "SortedSample",
    "ExceedanceSet",
    "GpFit",
    "select_exceedances",
    "exceedances_from_excesses",
    "fit_ml",
    "fit_pwm",
    "pwm_scale",
    "fit_hill",
    "endpoint_estimate",
    "stability_trace",
    "gp_negloglik",
]

_SHAPE_LOWER = -0.5
_BOUNDARY_MARGIN = 5e-3
_GRAD_TOL = 1e-6


def __getattr__(name: str):
    # `minimize` is unused here; perfbench/tracing.py looks it up to wrap it.
    # Imported on first access (PEP 562), so scipy stays off the import path.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize

    return minimize


@dataclass(frozen=True)
class SortedSample:
    """Ascending sample values; the raw material for threshold selection."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise DomainError("sample must be a nonempty 1-d array")
        if np.any(np.diff(v) < 0.0):
            raise DomainError("sample values must be nondecreasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size and not np.all(np.isfinite(arr)):
            raise DomainError("sample contains non-finite values")
        return cls(np.sort(arr))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ExceedanceSet:
    """Top-``k`` excesses over the threshold order statistic.

    ``tau_i = 1 - k/n`` is the intermediate quantile level the threshold
    represents.  Zero excesses (ties with the threshold) are dropped at
    construction, so ``len(excesses)`` may be less than ``k``.
    """

    k: int
    threshold: float
    excesses: np.ndarray
    tau_i: float
    n_dropped: int = 0

    def __post_init__(self):
        e = np.asarray(self.excesses, dtype=float)
        if e.size < 1:
            raise DegenerateDataError("no positive excesses above the threshold")
        if np.any(e <= 0.0):
            raise DomainError("excesses must be strictly positive")
        if np.any(np.diff(e) < 0.0):
            raise DomainError("excesses must be ascending")
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        if not 0.0 <= self.tau_i < 1.0:
            raise DomainError(f"tau_i must lie in [0,1), got {self.tau_i}")
        object.__setattr__(self, "excesses", e)

    @property
    def n_excesses(self) -> int:
        return int(self.excesses.size)


def select_exceedances(s: SortedSample, k: int) -> ExceedanceSet:
    """Split a sorted sample at its ``(n-k)``-th order statistic.

    Ties with the threshold produce zero excesses; those are dropped with a
    :class:`TieWarning` since the excess law lives on the positive axis.
    """
    n = s.n
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < n={n}, got {k}")
    threshold = float(s.values[n - k - 1])
    top = s.values[n - k:]
    excesses = top - threshold
    positive = excesses > 0.0
    dropped = int(k - np.count_nonzero(positive))
    if dropped == k:
        raise DegenerateDataError(
            f"all top-{k} values tie with the threshold {threshold!r}"
        )
    if dropped:
        warnings.warn(
            f"dropped {dropped} zero excess(es) tied with the threshold",
            TieWarning,
            stacklevel=2,
        )
    return ExceedanceSet(
        k=k,
        threshold=threshold,
        excesses=excesses[positive],
        tau_i=1.0 - k / n,
        n_dropped=dropped,
    )


def exceedances_from_excesses(
    excesses, threshold: float = 0.0, tau_i: float = 0.0
) -> ExceedanceSet:
    """Wrap an already-extracted excess sample (e.g. exact simulated excesses)."""
    e = np.sort(np.asarray(excesses, dtype=float))
    return ExceedanceSet(k=e.size, threshold=threshold, excesses=e, tau_i=tau_i)


@dataclass(frozen=True)
class GpFit:
    """A fitted GP parameter pair plus fit provenance."""

    params: GpParams
    method: str
    k: int
    threshold: float
    converged: bool
    loglik: float | None = None
    boundary: bool = False
    pwm_valid: bool | None = None
    details: dict = field(default_factory=dict, compare=False)


def gp_negloglik(theta, excesses: np.ndarray) -> float:
    """Mean negative GP log-likelihood in ``(gamma, log sigma)`` coordinates.

    Returns +inf outside the admissible region (shape <= -1/2, or any
    excess past the implied endpoint), which keeps searches inside the
    valid likelihood region.
    """
    gamma, log_sigma = float(theta[0]), float(theta[1])
    if not (math.isfinite(gamma) and math.isfinite(log_sigma)):
        return math.inf
    if gamma <= _SHAPE_LOWER:
        return math.inf
    sigma = math.exp(log_sigma)
    if gamma < 0.0 and excesses[-1] * (-gamma) >= sigma:
        return math.inf
    if abs(gamma) < GAMMA_ZERO_TOL:
        return log_sigma + float(np.mean(excesses)) / sigma
    z = gamma * excesses / sigma
    return log_sigma + (1.0 + 1.0 / gamma) * float(np.mean(np.log1p(z)))


def _negloglik_grad(theta, excesses: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`gp_negloglik` in ``(gamma, log sigma)``."""
    gamma, log_sigma = float(theta[0]), float(theta[1])
    sigma = math.exp(log_sigma)
    if gamma <= _SHAPE_LOWER or (
        gamma < 0.0 and excesses[-1] * (-gamma) >= sigma
    ):
        return np.array([math.nan, math.nan])
    u = excesses / sigma
    if abs(gamma) < GAMMA_ZERO_TOL:
        mean_u = float(np.mean(u))
        # limits as gamma -> 0 of the general expressions below
        d_gamma = mean_u - float(np.mean(u * u)) / 2.0
        d_logs = 1.0 - mean_u
        return np.array([d_gamma, d_logs])
    w = 1.0 + gamma * u
    log_w = np.log(w)
    ratio = u / w
    mean_log_w = float(np.mean(log_w))
    mean_ratio = float(np.mean(ratio))
    d_gamma = -mean_log_w / gamma**2 + (1.0 + 1.0 / gamma) * mean_ratio
    d_logs = 1.0 - (1.0 + gamma) * mean_ratio
    return np.array([d_gamma, d_logs])


def _profile_score(t: float, y: np.ndarray) -> float:
    """Derivative in ``t = theta x_max`` of the scaled profile
    ``log(g/t) + (1 + 1/g) m``, with ``m = mean(log1p(t y))`` and the best
    admissible shape ``g = max(m, -1/2)``.  On the edge g = -1/2 it is
    ``(k/u - sum(y / (1 - u y))) / k`` in ``u = -t = x_max / (2 sigma)``,
    where the log-likelihood is concave: one root, and no kink at m = -1/2."""
    if t == 0.0:  # the limit at the exponential fit
        return float(np.mean(y) - np.mean(y * y) / (2.0 * np.mean(y)))
    w = t * y
    g = max(float(np.mean(np.log1p(w))), _SHAPE_LOWER)
    return float(np.mean(y / (1.0 + w))) * (1.0 / g + 1.0) - 1.0 / t


def _profile_fit(y: np.ndarray) -> tuple[float, float]:
    """(gamma, sigma / x_max) at the root of the profile score between the
    neighbours of the best point of a grid in ``t``."""
    y_bar = float(np.mean(y))
    t_hi = 2.0 * (y_bar - float(y[0])) / float(y[0]) ** 2
    t = np.concatenate([
        -1.0 + np.geomspace(1e-15, 0.25, 24),  # toward the pole at -1
        -np.geomspace(0.5, 1e-6, 12),
        [0.0],
        np.geomspace(min(1e-6, 0.5 * t_hi), t_hi, 40),  # to Grimshaw's bound
    ])
    m = np.log1p(np.multiply.outer(t, y)).mean(axis=1)
    g = np.maximum(m, _SHAPE_LOWER)
    # g/t -> mean(y) as t -> 0, the exponential fit's profile value
    ratio = np.divide(g, t, out=np.full(t.size, y_bar), where=t != 0.0)
    f = np.log(ratio) + np.where(m > _SHAPE_LOWER, m + 1.0, -m)
    i = int(np.argmin(f))
    lo, hi = t[max(i - 1, 0)], t[min(i + 1, t.size - 1)]
    if not _profile_score(lo, y) <= 0.0 <= _profile_score(hi, y):
        raise EstimationError("the best profile-likelihood cell brackets no root")
    root = brentq(lambda theta: _profile_score(theta, y), lo, hi, xtol=1e-15)
    if root == 0.0:
        return 0.0, y_bar
    # an edge fit is reported just inside the admissible shapes
    gamma = max(float(np.mean(np.log1p(root * y))), math.nextafter(_SHAPE_LOWER, 0.0))
    return gamma, gamma / root


def fit_ml(e: ExceedanceSet) -> GpFit:
    """Maximum likelihood GP fit on the excesses, over shapes above -1/2.

    Given ``theta = gamma / sigma`` the best shape is ``mean(log1p(theta x))``
    (Grimshaw 1993), or -1/2 where that falls below, so the fit is the root
    of a profile score in one variable, bracketed by a grid.  An edge fit is
    reported as ``gamma = nextafter(-1/2, 0)``; shapes below -0.495 raise a
    :class:`BoundaryWarning`.  Raises :class:`EstimationError` (carrying the
    estimate) if an interior fit's scaled gradient does not vanish.
    """
    x = e.excesses
    if x.size < 2:
        raise DomainError("maximum likelihood needs at least 2 excesses")
    if float(np.ptp(x)) == 0.0:
        raise DegenerateDataError("excesses are all equal; GP fit is degenerate")

    x_max = float(x[-1])
    gamma, scale = _profile_fit(x / x_max)
    best = np.array([gamma, math.log(scale * x_max)])
    best_val = gp_negloglik(best, x)

    grad_norm = float(np.linalg.norm(_negloglik_grad(best, x)))
    gamma_hat = float(best[0])
    sigma_hat = float(math.exp(best[1]))
    boundary = gamma_hat < _SHAPE_LOWER + _BOUNDARY_MARGIN
    if boundary:
        warnings.warn(
            f"ML shape estimate {gamma_hat:.4f} presses the -1/2 boundary",
            BoundaryWarning,
            stacklevel=2,
        )
    converged = grad_norm < _GRAD_TOL or boundary
    if not converged:
        raise EstimationError(
            f"ML did not converge: scaled gradient norm {grad_norm:.3e}",
            best=(gamma_hat, sigma_hat),
        )
    loglik = -best_val * x.size
    return GpFit(
        params=GpParams(gamma_hat, sigma_hat),
        method="ml",
        k=e.k,
        threshold=e.threshold,
        converged=True,
        loglik=loglik,
        boundary=boundary,
        details={"grad_norm": grad_norm},
    )


def _pwm_estimate(e: ExceedanceSet) -> tuple[float, float]:
    """Probability-weighted-moment (shape, scale), before any regime check.

    Uses the literal weights ``i/k`` paired with the i-th largest excess.
    """
    x = e.excesses
    if x.size < 2:
        raise DomainError("PWM needs at least 2 excesses")
    k = x.size
    m1 = float(np.mean(x))
    descending = x[::-1]
    weights = np.arange(1, k + 1, dtype=float) / k
    m2 = float(np.sum(weights * descending)) / k
    if m2 <= 0.0:
        raise DegenerateDataError("second probability-weighted moment is zero")
    ratio = m1 / (2.0 * m2)
    if ratio == 1.0:
        raise DegenerateDataError("singular moment ratio: M1 = 2*M2")
    inv = 1.0 / (ratio - 1.0)
    return 1.0 - inv, m1 * inv


def fit_pwm(e: ExceedanceSet) -> GpFit:
    """Probability-weighted-moment GP fit.

    The estimator is reliable for shapes below 1/2; ``pwm_valid`` records
    whether the estimate lands in that regime.  Shapes at or below -1/2
    raise :class:`EstimationError`.
    """
    gamma_hat, sigma_hat = _pwm_estimate(e)
    if sigma_hat <= 0.0 or gamma_hat <= _SHAPE_LOWER:
        raise EstimationError(
            f"PWM estimate out of regime: gamma={gamma_hat:.4f}, "
            f"sigma={sigma_hat:.4f}",
            best=(gamma_hat, sigma_hat),
        )
    return GpFit(
        params=GpParams(gamma_hat, sigma_hat),
        method="pwm",
        k=e.k,
        threshold=e.threshold,
        converged=True,
        loglik=None,
        pwm_valid=gamma_hat < 0.5,
    )


def pwm_scale(e: ExceedanceSet) -> float:
    """PWM scale estimate, whatever the PWM shape estimate.

    The anchor of the default Bayesian scale prior needs only a positive
    scale, so unlike :func:`fit_pwm` this accepts shapes at or below -1/2.
    Equals ``fit_pwm(e).params.sigma`` wherever ``fit_pwm`` succeeds.
    """
    gamma_hat, sigma_hat = _pwm_estimate(e)
    if not sigma_hat > 0.0:
        raise EstimationError(
            f"PWM scale estimate is not positive: sigma={sigma_hat:.4f}",
            best=(gamma_hat, sigma_hat),
        )
    return sigma_hat


def fit_hill(s: SortedSample, k: int) -> float:
    """Hill estimate of a positive tail index from the top ``k`` log-spacings."""
    n = s.n
    if not 1 <= k < n:
        raise DomainError(f"k must satisfy 1 <= k < n={n}, got {k}")
    top = s.values[n - k - 1:]
    if top[0] <= 0.0:
        raise DomainError("Hill estimation requires positive top order statistics")
    return float(np.mean(np.log(top[1:] / top[0])))


def endpoint_estimate(fit: GpFit, threshold: float) -> float:
    """Estimated right endpoint ``threshold - sigma/gamma``; +inf unless gamma < 0."""
    gamma = fit.params.gamma
    if gamma >= 0.0:
        return math.inf
    return threshold - fit.params.sigma / gamma


def stability_trace(s: SortedSample, ks, method: str = "ml"):
    """Shape estimates across a range of effective sample sizes.

    Supports the visual-stability way of choosing ``k``: fit at each
    candidate and look for a flat stretch.  Failed fits yield NaN rows; an
    unknown ``method`` raises :class:`DomainError` before any fit.
    """
    if method not in ("ml", "pwm", "hill"):
        raise DomainError(f"unknown method {method!r}")
    fitter = {"ml": fit_ml, "pwm": fit_pwm}.get(method)
    rows = []
    for k in ks:
        try:
            if method == "hill":
                gamma_k = fit_hill(s, int(k))
            else:
                gamma_k = fitter(select_exceedances(s, int(k))).params.gamma
        except (DomainError, DegenerateDataError, EstimationError):
            gamma_k = math.nan
        rows.append((int(k), gamma_k))
    return rows
