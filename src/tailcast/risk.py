"""Extreme risk measures from fitted tails and predictive laws.

Extreme Value-at-Risk comes from the standard extrapolation formula
(threshold plus a power-rescaled tail step); the same number falls out of
the intermediate predictive law's quantile at ``1 - tau_star``, which is
the route every forecast takes: :func:`extreme_forecast` gives the VaR
point, the extreme-level law and its interval.  Expected shortfall is either
the first-order tail approximation or the predictive mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from numpy.linalg import LinAlgError

from .errors import DomainError, InfiniteMeanError, TailcastError
from .estimation import ExceedanceSet, GpFit, SortedSample, pwm_scale, select_exceedances
from .gpd import LevelPair, shift_scale
from .predict import (
    BayesianPredictive,
    MixturePredictive,
    PredictiveInterval,
    extreme_level_from_return_period,
    fit_tails,
    predictive_interval,
)

__all__ = [
    "RiskReport",
    "extreme_var",
    "var_from_predictive",
    "extreme_forecast",
    "es_first_order",
    "es_point_forecast",
    "return_level_curve",
    "shortfall_report",
]

# failures that fail one row of a table (a return period, a rolling origin)
# and not the table; anything else is a bug
ROW_FAILURES = (TailcastError, ArithmeticError, LinAlgError)


@dataclass(frozen=True)
class RiskReport:
    tau_e: float
    var_point: float
    method: str
    es_point: float | None = None
    es_reason: str | None = None
    interval: PredictiveInterval | None = None


def extreme_var(fit: GpFit, e: ExceedanceSet, tau_e: float) -> float:
    """Extrapolated quantile at ``tau_e``: threshold plus the rescaled tail step."""
    if tau_e < e.tau_i:
        raise DomainError(
            f"extreme level {tau_e} lies below the intermediate level {e.tau_i}"
        )
    if tau_e >= 1.0:
        raise DomainError(f"extreme level must be below 1, got {tau_e}")
    tau_star = (1.0 - tau_e) / (1.0 - e.tau_i)
    shift, _ = shift_scale(fit.params.gamma, fit.params.sigma, tau_star)
    return e.threshold + shift


def var_from_predictive(m: MixturePredictive, tau_star: float) -> float:
    """Quantile of the intermediate predictive law at probability ``1 - tau_star``.

    For the frequentist kind, the mixture of one draw, this is the closed
    form of :func:`extreme_var`; for the Bayesian kind it is the
    posterior-mixture quantile, found by root search.
    """
    if not 0.0 < tau_star <= 1.0:
        raise DomainError(f"tau_star must lie in (0,1], got {tau_star}")
    if m.levels.tau_star != 1.0:
        raise DomainError(
            "point forecasts extrapolate from the intermediate law; "
            "build the model at tau_star = 1"
        )
    return float(m.quantile(1.0 - tau_star))


def es_first_order(var_value: float, gamma: float) -> float:
    """First-order expected-shortfall approximation from a quantile.

    ``var / (1 - gamma)`` for heavy/light tails; for short tails the
    leading term is the quantile itself.
    """
    if gamma >= 1.0:
        raise InfiniteMeanError(
            f"expected shortfall is infinite for shape {gamma} >= 1"
        )
    if gamma >= 0.0:
        return var_value / (1.0 - gamma)
    return var_value


def es_point_forecast(m: MixturePredictive, levels: LevelPair | None = None) -> float:
    """Expected shortfall as the mean of the predictive law at the extreme level.

    Closed-form predictive means keep this exact and cheap inside
    replication loops.  Bayesian models are gated on the shape prior:
    support reaching 1 or beyond would admit draws with infinite means.
    """
    if isinstance(m, BayesianPredictive):
        lo, hi = m.draws.shape_support
        if hi > 1.0:
            raise InfiniteMeanError(
                f"shape prior support ({lo}, {hi}) reaches 1; expected-shortfall "
                "forecasts need a prior supported strictly below 1"
            )
    if levels is not None and levels != m.levels:
        raise DomainError("levels disagree with the model's own levels")
    return m.mean()


def extreme_forecast(m: MixturePredictive, tau_star: float, alpha: float | None = None):
    """``(point, law, interval)`` at tail ratio ``tau_star`` from the
    intermediate law ``m``: the VaR point (:func:`var_from_predictive`), the
    law at the extreme level and, given ``alpha``, its ``1 - alpha`` interval."""
    point = var_from_predictive(m, tau_star)
    law = m.at(LevelPair.from_tau_star(m.levels.tau_i, tau_star))
    return point, law, None if alpha is None else predictive_interval(law, alpha)


def return_level_curve(
    sample: SortedSample, T_range, alpha: float = 0.05, method: str = "ml", prior=None,
    sampler=None,
) -> list[dict]:
    """Point forecasts and intervals across return periods.

    The fixed ratio-1/4 rule supplies each period's ``k`` and levels; the
    top ``k`` order statistics of ``sample`` are selected once, and one
    :func:`fit_tails` call fits every period by ``method`` (a Bayes fit with
    ``sampler``, under ``prior(anchor)`` at the PWM scale anchor, or the
    default prior).  Rows keep per-period failures (``ROW_FAILURES``) as
    error strings so one bad period does not kill the curve; any other
    exception is a bug and propagates.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    periods, staged, priors = [], [], []  # (T, rule); the exceedances or the failure
    for T in map(int, T_range):
        rule = spec = None
        try:
            rule = extreme_level_from_return_period(T, sample.n)
            e = select_exceedances(sample, rule.k)
            spec = prior(pwm_scale(e)) if prior and method == "bayes" else None
        except ROW_FAILURES as exc:
            e = exc
        periods.append((T, rule))
        staged.append(e)
        priors.append(spec)
    rows: list[dict] = []
    tails = fit_tails(staged, method, priors, [sampler] * len(staged))
    for (T, rule), tail in zip(periods, tails):
        try:
            if isinstance(tail, Exception):
                raise tail
            point, _, interval = extreme_forecast(
                tail.at(LevelPair.intermediate(tail.e.tau_i)), rule.levels.tau_star, alpha
            )
            rows.append({"T": T, "tau_e": rule.levels.tau_e, "k": rule.k, "point": point,
                         "lower": interval.lower, "upper": interval.upper, "error": ""})
        except ROW_FAILURES as exc:
            rows.append({"T": T, "tau_e": math.nan, "k": 0, "point": math.nan,
                         "lower": math.nan, "upper": math.nan, "error": str(exc)})
    return rows


def shortfall_report(
    m: MixturePredictive,
    tau_e: float,
    method: str,
    interval_alpha: float | None = None,
) -> RiskReport:
    """Bundle VaR and (when finite) ES point forecasts into a report."""
    tau_star = (1.0 - tau_e) / (1.0 - m.levels.tau_i)
    var_point, extreme_model, interval = extreme_forecast(m, tau_star, interval_alpha)
    es_point = es_reason = None
    try:
        es_point = es_point_forecast(extreme_model)
    except InfiniteMeanError as exc:
        es_reason = str(exc)
    return RiskReport(tau_e, var_point, method, es_point, es_reason, interval)
