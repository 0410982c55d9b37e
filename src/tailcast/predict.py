"""Frequentist and Bayesian predictive laws for future peaks.

A predictive model is an evaluable law (cdf / pdf / quantile / mean) for
the next observation given that it exceeds an extreme threshold.  The
frequentist kind is a single GP transform with plugged-in estimates and the
sample threshold; the Bayesian kind is an equal-weight mixture of the same
transform over posterior draws.  Extreme levels are chosen either directly,
through the endpoint-gap factor ``c`` (short tails), or through a return
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .bayes import (
    PosteriorSample,
    PriorSpec,
    SamplerConfig,
    default_prior,
    sample_posterior,
)
from .errors import DomainError, InfiniteMeanError, LevelRuleError, NumericError
from .estimation import ExceedanceSet, GpFit, fit_ml, fit_pwm, pwm_scale
from .gpd import (
    GAMMA_ZERO_TOL,
    GpParams,
    LevelPair,
    gp_cdf_vec,
    gp_pdf_vec,
    gp_quantile_vec,
    predictive_cdf,
    predictive_mean,
    predictive_pdf,
    predictive_quantile,
    predictive_shift_scale,
)

__all__ = [
    "PredictiveModel",
    "FrequentistPredictive",
    "BayesianPredictive",
    "PredictiveInterval",
    "TailFit",
    "fit_tail",
    "freq_predictive",
    "bayes_predictive",
    "predictive_interval",
    "extreme_level_from_c",
    "ReturnPeriodLevels",
    "extreme_level_from_return_period",
    "unconditional_tail_cdf",
    "tail_equivalence_ratio",
    "prediction_grid",
]

_CHUNK = 64  # rows per block when evaluating a mixture on an array of points
_BRENT_RTOL = 4.0 * np.finfo(float).eps  # the smallest relative tolerance brentq accepts


class PredictiveModel:
    """Common surface of the predictive laws; concrete kinds implement the math."""

    kind: str
    threshold: float
    levels: LevelPair
    mass_check_tol: float

    def cdf(self, y):
        raise NotImplementedError

    def pdf(self, y):
        raise NotImplementedError

    def quantile(self, prob):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support_lower(self) -> float:
        raise NotImplementedError

    def support_upper(self) -> float:
        raise NotImplementedError

    def at(self, levels: LevelPair) -> PredictiveModel:
        """The same fitted law, read at other levels."""
        raise NotImplementedError


class FrequentistPredictive(PredictiveModel):
    """Plug-in GP predictive law anchored at the sample threshold."""

    kind = "frequentist"
    mass_check_tol = 1e-8

    def __init__(self, params: GpParams, threshold: float, levels: LevelPair):
        self.params = params
        self.threshold = float(threshold)
        self.levels = levels

    def cdf(self, y):
        return predictive_cdf(self.params, self.threshold, self.levels, y)

    def pdf(self, y):
        return predictive_pdf(self.params, self.threshold, self.levels, y)

    def quantile(self, prob):
        return predictive_quantile(self.params, self.threshold, self.levels, prob)

    def mean(self) -> float:
        return predictive_mean(self.params, self.threshold, self.levels)

    def support_lower(self) -> float:
        m, _ = predictive_shift_scale(self.params, self.levels)
        return self.threshold + m

    def support_upper(self) -> float:
        if self.params.gamma >= 0.0:
            return math.inf
        m, s = predictive_shift_scale(self.params, self.levels)
        return self.threshold + m + s * self.params.upper

    def at(self, levels: LevelPair) -> FrequentistPredictive:
        return FrequentistPredictive(self.params, self.threshold, levels)


class BayesianPredictive(PredictiveModel):
    """Equal-weight mixture of per-draw predictive transforms."""

    kind = "bayesian"
    mass_check_tol = 1e-4

    def __init__(self, ps: PosteriorSample, threshold: float, levels: LevelPair):
        if ps.m < 100:
            raise DomainError(
                f"mixture predictive needs at least 100 draws, have {ps.m}"
            )
        self.draws = ps
        self.threshold = float(threshold)
        self.levels = levels
        self._g = ps.gammas
        self._s = ps.sigmas
        r = levels.tau_star
        if r == 1.0:
            self._shift = np.zeros_like(self._g)
            self._scale = np.ones_like(self._g)
        else:
            near0 = np.abs(self._g) < GAMMA_ZERO_TOL
            scale = np.where(near0, 1.0, r ** -self._g)
            shift = np.where(
                near0,
                -self._s * math.log(r),
                self._s * (scale - 1.0) / np.where(near0, 1.0, self._g),
            )
            self._shift = shift
            self._scale = scale

    def _mix(self, y, kernel):
        y_arr = np.asarray(y, dtype=float)
        scalar = y_arr.ndim == 0
        pts = np.atleast_1d(y_arr)
        out = np.empty(pts.shape, dtype=float)
        # onsets rounded as support_lower() rounds them, so that the draw
        # whose support starts there sits at z = 0 and not just below it
        onset = self.threshold + self._shift
        for start in range(0, pts.size, _CHUNK):
            block = pts[start : start + _CHUNK, None]
            z = (block - onset) / self._scale
            out[start : start + _CHUNK] = kernel(z).mean(axis=1)
        return float(out[0]) if scalar else out

    def cdf(self, y):
        return self._mix(y, lambda z: gp_cdf_vec(self._g, self._s, z))

    def pdf(self, y):
        return self._mix(
            y, lambda z: gp_pdf_vec(self._g, self._s, z) / self._scale
        )

    def quantile(self, prob):
        if np.ndim(prob) != 0:
            return np.array([self.quantile(float(p)) for p in np.asarray(prob)])
        prob = float(prob)
        if not 0.0 <= prob < 1.0:
            if prob == 1.0 and np.all(self._g < 0.0):
                return self.support_upper()
            raise DomainError(f"quantile probability must lie in [0,1), got {prob}")
        if prob == 0.0:
            return self.support_lower()
        per_draw = (
            self.threshold
            + self._shift
            + self._scale * gp_quantile_vec(self._g, self._s, prob)
        )
        lo = float(np.min(per_draw))
        hi = float(np.max(per_draw))
        if not lo <= hi:
            raise NumericError("mixture quantile bracket is empty")
        if hi - lo < 1e-12:
            return lo
        # the mixture cdf is monotone and crosses prob inside the per-draw bracket
        try:
            return brentq(
                lambda y: self.cdf(y) - prob, lo, hi, xtol=1e-10, rtol=_BRENT_RTOL
            )
        except RuntimeError as exc:
            raise NumericError(f"mixture quantile did not converge: {exc}") from exc
        except ValueError:
            # draws a few ulps apart can round the cdf at both bracket ends
            # to one side of prob, where brentq has no sign change to follow
            return lo if self.cdf(lo) >= prob else hi

    def mean(self) -> float:
        if np.any(self._g >= 1.0):
            raise InfiniteMeanError(
                "mixture mean is infinite: some posterior draws have shape >= 1"
            )
        per_draw = (
            self.threshold
            + self._shift
            + self._scale * self._s / (1.0 - self._g)
        )
        return float(np.mean(per_draw))

    def support_lower(self) -> float:
        return self.threshold + float(np.min(self._shift))

    def support_upper(self) -> float:
        if np.any(self._g >= 0.0):
            return math.inf
        uppers = (
            self.threshold + self._shift + self._scale * (-self._s / self._g)
        )
        return float(np.max(uppers))

    def at(self, levels: LevelPair) -> BayesianPredictive:
        return BayesianPredictive(self.draws, self.threshold, levels)


def freq_predictive(fit: GpFit, levels: LevelPair) -> FrequentistPredictive:
    """Predictive law from a frequentist fit, anchored at the fit threshold."""
    return FrequentistPredictive(fit.params, fit.threshold, levels)


def bayes_predictive(
    ps: PosteriorSample, threshold: float, levels: LevelPair
) -> BayesianPredictive:
    """Posterior-mixture predictive law anchored at ``threshold``."""
    return BayesianPredictive(ps, threshold, levels)


@dataclass(frozen=True)
class TailFit:
    """A GP tail fitted to one exceedance set: a point fit or a posterior.

    ``at(levels)`` reads the predictive law of future peaks at any extreme
    level through threshold stability, so one fit serves every level.
    """

    e: ExceedanceSet
    fit: GpFit | None = None
    posterior: PosteriorSample | None = None

    @property
    def gamma(self) -> float:
        """Fitted shape; the posterior mean shape for a Bayesian fit."""
        if self.fit is not None:
            return self.fit.params.gamma
        return float(np.mean(self.posterior.gammas))

    def at(self, levels: LevelPair) -> PredictiveModel:
        if self.fit is not None:
            return freq_predictive(self.fit, levels)
        return bayes_predictive(self.posterior, self.e.threshold, levels)


def fit_tail(
    e: ExceedanceSet,
    method: str,
    prior: PriorSpec | None = None,
    sampler: SamplerConfig | None = None,
) -> TailFit:
    """Fit the tail of ``e`` by ``"ml"``, ``"pwm"`` or ``"bayes"``.

    The Bayesian fit defaults to :func:`default_prior` anchored on the PWM
    scale and to ``SamplerConfig()``; ``prior`` and ``sampler`` are ignored
    by the point fits.
    """
    if method == "ml":
        return TailFit(e, fit=fit_ml(e))
    if method == "pwm":
        return TailFit(e, fit=fit_pwm(e))
    if method == "bayes":
        if prior is None:
            prior = default_prior(scale_anchor=pwm_scale(e))
        ps = sample_posterior(prior, e, sampler or SamplerConfig())
        return TailFit(e, posterior=ps)
    raise DomainError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PredictiveInterval:
    lower: float
    upper: float
    alpha: float
    rule: str = "equal-tailed"

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


def predictive_interval(m: PredictiveModel, alpha: float) -> PredictiveInterval:
    """Equal-tailed interval carrying ``1 - alpha`` of the predictive mass.

    The mass condition is re-verified through the model cdf; a violation
    beyond the model's tolerance raises :class:`NumericError`.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    lower = m.quantile(alpha / 2.0)
    upper = m.quantile(1.0 - alpha / 2.0)
    cdf_lower, cdf_upper = m.cdf([lower, upper]).tolist()
    mass = cdf_upper - cdf_lower
    if abs(mass - (1.0 - alpha)) > m.mass_check_tol:
        raise NumericError(
            f"interval mass {mass!r} misses 1-alpha={1 - alpha!r} "
            f"beyond tolerance {m.mass_check_tol}"
        )
    return PredictiveInterval(float(lower), float(upper), alpha)


def extreme_level_from_c(gamma: float, tau_i: float, c: float) -> LevelPair:
    """Extreme level with the endpoint gap shrunk by the factor ``c``.

    For a short tail the gap between the endpoint and the extreme threshold
    is ``1/c`` times the gap at the intermediate threshold when
    ``tau_star = c**(1/gamma)``.  Inapplicable for nonnegative shapes.
    """
    if gamma >= 0.0:
        raise LevelRuleError(
            "the endpoint-gap rule requires a negative shape (finite endpoint)"
        )
    if c < 1.0:
        raise DomainError(f"gap factor must be at least 1, got {c}")
    tau_star = c ** (1.0 / gamma)
    return LevelPair.from_tau_star(tau_i, tau_star)


@dataclass(frozen=True)
class ReturnPeriodLevels:
    """Level pair for a return period plus the implied fitting sample size."""

    levels: LevelPair
    k: int
    T: int


def extreme_level_from_return_period(T: int, n: int) -> ReturnPeriodLevels:
    """Levels for a return period ``T``: extreme level ``1 - 1/T``.

    The intermediate level is pinned four tail-lengths below the extreme
    one, so the tail ratio is exactly 1/4; the implied effective sample
    size ``4n/T`` (rounded, for fitting) must stay above 2.
    """
    if T < 2:
        raise DomainError(f"return period must be at least 2, got {T}")
    if T <= 4:
        raise LevelRuleError(
            f"return period {T} leaves no room for an intermediate level"
        )
    k_raw = 4.0 * n / T
    if k_raw <= 2.0:
        raise LevelRuleError(
            f"return period {T} implies an effective sample size {k_raw:.2f} <= 2"
        )
    k = max(2, round(k_raw))
    levels = LevelPair(1.0 - 4.0 / T, 1.0 - 1.0 / T, 0.25)
    return ReturnPeriodLevels(levels=levels, k=k, T=T)


def unconditional_tail_cdf(m: PredictiveModel, y: float) -> float:
    """Tail-composed cdf ``tau_i + (1 - tau_i) * m.cdf(y)`` for ``y`` past the threshold.

    Requires a model built with no extrapolation (tail ratio 1), since the
    composition splices the conditional law onto the intermediate level.
    """
    if m.levels.tau_star != 1.0:
        raise DomainError("tail composition requires a model built at tau_star = 1")
    if np.any(np.asarray(y) <= m.threshold):
        raise DomainError("tail composition is defined only above the threshold")
    tau_i = m.levels.tau_i
    return tau_i + (1.0 - tau_i) * m.cdf(y)


def tail_equivalence_ratio(
    m: PredictiveModel, oracle_quantile: float, tau_star: float
) -> float:
    """Forecast exceedance mass at the true quantile, relative to its target.

    The oracle quantile is the true conditional quantile at level
    ``1 - tau_star`` (known in simulation); a well-calibrated forecaster
    yields ratios near 1.
    """
    if not 0.0 < tau_star <= 1.0:
        raise DomainError(f"tau_star must lie in (0,1], got {tau_star}")
    return (1.0 - m.cdf(oracle_quantile)) / tau_star


def prediction_grid(
    m: PredictiveModel, lo: float, hi: float, count: int
) -> np.ndarray:
    """(y, pdf, cdf) triples on an equally spaced grid, ready for plotting tools."""
    if count < 2:
        raise DomainError(f"grid needs at least 2 points, got {count}")
    if not lo < hi:
        raise DomainError(f"empty grid range [{lo}, {hi}]")
    y = np.linspace(lo, hi, count)
    pdf = np.asarray(m.pdf(y), dtype=float)
    cdf = np.asarray(m.cdf(y), dtype=float)
    return np.column_stack([y, pdf, cdf])
