"""Frequentist and Bayesian predictive laws for future peaks.

A predictive model is an evaluable law (cdf / pdf / quantile / mean) for
the next observation given that it exceeds an extreme threshold.  Every
law is one class, :class:`MixturePredictive`: an equal-weight mixture of
the affine GP map (:func:`~tailcast.gpd.shift_scale`) over (shape, scale)
draws, anchored at the sample threshold.  The Bayesian kind mixes the
posterior draws; the frequentist kind is the mixture of one draw, the
plugged-in estimate, whose quantile the mixture gives in closed form.
A law reads its fit at other levels with ``at(levels)``, and maps to
another scale with ``affine(loc, scale)``: GP laws are closed under
``y -> loc + scale * y``, so the observable-scale law of a filtered series
is a law of the same kind.  Extreme levels are chosen either directly,
through the endpoint-gap factor ``c`` (short tails), or through a return
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bayes import (
    PosteriorSample,
    PriorSpec,
    SamplerConfig,
    default_prior,
    sample_posterior,
    sample_posteriors,
)
from .errors import DomainError, InfiniteMeanError, LevelRuleError, NumericError, TailcastError
from .estimation import ExceedanceSet, GpFit, fit_ml, fit_pwm, pwm_scale
from .gpd import GpParams, LevelPair, gp_cdf_vec, gp_pdf_vec, gp_quantile_vec, shift_scale
from .roots import brentq

__all__ = [
    "MixturePredictive",
    "FrequentistPredictive",
    "BayesianPredictive",
    "PredictiveInterval",
    "TailFit",
    "fit_tail",
    "fit_tails",
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

_BLOCK = 64 * 2_500  # (points x draws) values per block when a mixture evaluates an array


class MixturePredictive:
    """Equal-weight mixture of the affine predictive map over (shape, scale)
    draws, anchored at ``threshold``.  The kinds below set ``mass_check_tol``
    and rebuild themselves for :meth:`at` and :meth:`affine`."""

    def __init__(self, gammas, sigmas, threshold: float, levels: LevelPair):
        self._g = np.asarray(gammas, dtype=float)
        self._s = np.asarray(sigmas, dtype=float)
        self.threshold = float(threshold)
        self.levels = levels
        self._shift, self._scale = shift_scale(self._g, self._s, levels.tau_star)
        # each draw's support onset, rounded once: the draw whose support
        # starts at support_lower() sits at z = 0 there, not just below it
        self._onset = self.threshold + self._shift

    def _mix(self, y, kernel):
        y_arr = np.asarray(y, dtype=float)
        pts = y_arr.reshape(-1, 1)
        out = np.empty(pts.shape[0])
        m = self._g.size
        rows = max(1, _BLOCK // m)
        for start in range(0, pts.shape[0], rows):
            z = (pts[start : start + rows] - self._onset) / self._scale
            # the row means np.mean takes, without its per-call overhead
            out[start : start + rows] = np.add.reduce(kernel(z), axis=1) / m
        return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)

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
            if prob == 1.0 and (self._g < 0.0).all():
                return self.support_upper()
            raise DomainError(f"quantile probability must lie in [0,1), got {prob}")
        if prob == 0.0:
            return self.support_lower()
        per_draw = self._onset + self._scale * gp_quantile_vec(self._g, self._s, prob)
        lo, hi = float(per_draw.min()), float(per_draw.max())
        if not lo <= hi:
            raise NumericError("mixture quantile bracket is empty")
        if hi - lo < 1e-12:  # one draw, or draws that agree: the closed form
            return lo
        # the mixture cdf is monotone and crosses prob inside the per-draw bracket
        try:
            return brentq(lambda y: self.cdf(y) - prob, lo, hi, xtol=1e-10)
        except RuntimeError as exc:
            raise NumericError(f"mixture quantile did not converge: {exc}") from exc
        except ValueError:
            # draws a few ulps apart can round the cdf at both bracket ends
            # to one side of prob, where brentq has no sign change to follow
            return lo if self.cdf(lo) >= prob else hi

    def mean(self) -> float:
        if (self._g >= 1.0).any():
            raise InfiniteMeanError(
                f"predictive mean is infinite for shape {float(self._g.max())} >= 1"
            )
        return float((self._onset + self._scale * self._s / (1.0 - self._g)).mean())

    def support_lower(self) -> float:
        return float(self._onset.min())

    def support_upper(self) -> float:
        if (self._g >= 0.0).any():
            return math.inf
        return float((self._onset + self._scale * (-self._s / self._g)).max())

    def affine(self, loc: float, scale: float) -> MixturePredictive:
        """The law of ``loc + scale * Y`` for ``Y`` of this law, ``scale > 0``.

        If ``Y - t ~ GP(g, s)`` then ``loc + scale*Y - (loc + scale*t) ~
        GP(g, scale*s)``, and the predictive shift is linear in ``s``, so
        the map is a law of the same kind with every scale multiplied by
        ``scale``, and it commutes with :meth:`at`.
        """
        if scale <= 0.0:
            raise DomainError(f"affine scale must be positive, got {scale}")
        return self._rescaled(loc + scale * self.threshold, scale)


# each kind holds the law's methods in its own namespace, where
# perfbench/tracing.py wraps them to time the two kinds apart
_LAW = (MixturePredictive.cdf, MixturePredictive.pdf, MixturePredictive.quantile,
        MixturePredictive.mean)


class FrequentistPredictive(MixturePredictive):
    """Plug-in GP predictive law anchored at the sample threshold: the
    mixture of one draw, the estimate."""

    mass_check_tol = 1e-8
    cdf, pdf, quantile, mean = _LAW

    def __init__(self, params: GpParams, threshold: float, levels: LevelPair):
        self.params = params
        super().__init__([params.gamma], [params.sigma], threshold, levels)

    def at(self, levels: LevelPair) -> FrequentistPredictive:
        return FrequentistPredictive(self.params, self.threshold, levels)

    def _rescaled(self, threshold: float, scale: float) -> FrequentistPredictive:
        p = self.params
        return FrequentistPredictive(GpParams(p.gamma, scale * p.sigma), threshold, self.levels)


class BayesianPredictive(MixturePredictive):
    """Equal-weight mixture of per-draw predictive transforms over a posterior."""

    mass_check_tol = 1e-4
    cdf, pdf, quantile, mean = _LAW

    def __init__(self, ps: PosteriorSample, threshold: float, levels: LevelPair):
        if ps.m < 100:
            raise DomainError(
                f"mixture predictive needs at least 100 draws, have {ps.m}"
            )
        self.draws = ps
        super().__init__(ps.gammas, ps.sigmas, threshold, levels)

    def at(self, levels: LevelPair) -> BayesianPredictive:
        return BayesianPredictive(self.draws, self.threshold, levels)

    def _rescaled(self, threshold: float, scale: float) -> BayesianPredictive:
        draws = replace(self.draws, sigmas=scale * self.draws.sigmas, threshold=threshold)
        return BayesianPredictive(draws, threshold, self.levels)


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

    def at(self, levels: LevelPair) -> MixturePredictive:
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
    by the point fits.  :func:`fit_tails` is the batch form.
    """
    if method == "bayes":
        return TailFit(e, posterior=sample_posterior(*_chain_args(e, prior, sampler)))
    if method == "ml":
        return TailFit(e, fit=fit_ml(e))
    if method == "pwm":
        return TailFit(e, fit=fit_pwm(e))
    raise DomainError(f"unknown method {method!r}")


def _chain_args(e: ExceedanceSet, prior: PriorSpec | None, sampler: SamplerConfig | None):
    """The ``(prior, e, sampler)`` a Bayesian fit of ``e`` samples with."""
    if prior is None:
        prior = default_prior(scale_anchor=pwm_scale(e))
    return prior, e, sampler or SamplerConfig()


def fit_tails(es, method: str, priors=None, samplers=None) -> list[TailFit | Exception]:
    """:func:`fit_tail` of every ``(es[j], method, priors[j], samplers[j])``:
    its :class:`TailFit`, or the :class:`TailcastError` it would raise.  An
    exception in a set's place, a selection that failed, comes back as is,
    unfitted.  ``priors`` and ``samplers`` default to None for every set.
    The Bayesian chains advance together (:func:`sample_posteriors`) with
    the draws :func:`sample_posterior` would give each, and warn after all.
    """
    n = len(es)
    out: list = [None] * n
    chains = []  # (j, prior, e, sampler)
    for j, e, prior, sampler in zip(
        range(n), es, priors or [None] * n, samplers or [None] * n, strict=True
    ):
        try:
            if isinstance(e, Exception):
                out[j] = e
            elif method == "bayes":
                chains.append((j, *_chain_args(e, prior, sampler)))
            else:
                out[j] = fit_tail(e, method)
        except TailcastError as exc:
            out[j] = exc
    if chains:
        idx, *args = zip(*chains)
        for j, ps in zip(idx, sample_posteriors(*args)):
            out[j] = TailFit(es[j], posterior=ps) if isinstance(ps, PosteriorSample) else ps
    return out


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


def predictive_interval(m: MixturePredictive, alpha: float) -> PredictiveInterval:
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


def unconditional_tail_cdf(m: MixturePredictive, y: float) -> float:
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
    m: MixturePredictive, oracle_quantile: float, tau_star: float
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
    m: MixturePredictive, lo: float, hi: float, count: int
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
