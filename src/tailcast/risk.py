"""Extreme risk measures from fitted tails and predictive laws.

Extreme Value-at-Risk comes from the standard extrapolation formula
(threshold plus a power-rescaled tail step); the same number falls out of
the intermediate predictive law's quantile at ``1 - tau_star``, which is
the route used for Bayesian point forecasts.  Expected shortfall is either
the first-order tail approximation or the predictive mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from numpy.linalg import LinAlgError

from .errors import DomainError, InfiniteMeanError, TailcastError
from .estimation import ExceedanceSet, GpFit
from .gpd import GAMMA_ZERO_TOL, LevelPair
from .predict import (
    BayesianPredictive,
    PredictiveInterval,
    PredictiveModel,
    extreme_level_from_return_period,
    predictive_interval,
)

__all__ = [
    "RiskReport",
    "extreme_var",
    "var_from_predictive",
    "es_first_order",
    "es_point_forecast",
    "return_level_curve",
    "shortfall_report",
]


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
    gamma, sigma = fit.params.gamma, fit.params.sigma
    if abs(gamma) < GAMMA_ZERO_TOL:
        return e.threshold - sigma * math.log(tau_star)
    return e.threshold + sigma * (tau_star ** -gamma - 1.0) / gamma


def var_from_predictive(m: PredictiveModel, tau_star: float) -> float:
    """Quantile of the intermediate predictive law at probability ``1 - tau_star``.

    For the frequentist kind this agrees with :func:`extreme_var`
    algebraically; for the Bayesian kind it is the posterior-mixture
    quantile.
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


def es_point_forecast(m: PredictiveModel, levels: LevelPair | None = None) -> float:
    """Expected shortfall as the mean of the predictive law at the extreme level.

    Closed-form predictive means keep this exact and cheap inside
    replication loops.  Bayesian models are gated on the shape prior:
    support reaching 1 or beyond would admit draws with infinite means.
    """
    # a conditional law's gate is that of the mixture behind its affine map
    mixture = getattr(m, "residual_model", m)
    if isinstance(mixture, BayesianPredictive):
        lo, hi = mixture.draws.shape_support
        if hi > 1.0:
            raise InfiniteMeanError(
                f"shape prior support ({lo}, {hi}) reaches 1; expected-shortfall "
                "forecasts need a prior supported strictly below 1"
            )
    if levels is not None and levels != m.levels:
        raise DomainError("levels disagree with the model's own levels")
    return m.mean()


def return_level_curve(
    model_factory,
    n: int,
    T_range,
    alpha: float = 0.05,
) -> list[dict]:
    """Point forecasts and intervals across return periods.

    ``model_factory(k, levels)`` must build an intermediate-level predictive
    model (tail ratio 1) from the top ``k`` order statistics; the fixed
    ratio-1/4 rule supplies ``k`` and the levels for each ``T``.  Rows keep
    per-period package, arithmetic and linear-algebra failures as error
    strings so one bad period does not kill the curve; any other exception
    is a bug and propagates.
    """
    rows: list[dict] = []
    for T in T_range:
        row: dict = {"T": int(T)}
        try:
            rule = extreme_level_from_return_period(int(T), n)
            m = model_factory(rule.k, LevelPair.intermediate(rule.levels.tau_i))
            point = var_from_predictive(m, rule.levels.tau_star)
            interval = predictive_interval(m.at(rule.levels), alpha)
            row.update(
                tau_e=rule.levels.tau_e,
                k=rule.k,
                point=point,
                lower=interval.lower,
                upper=interval.upper,
                error="",
            )
        except (TailcastError, ArithmeticError, LinAlgError) as exc:
            row.update(
                tau_e=math.nan, k=0, point=math.nan,
                lower=math.nan, upper=math.nan, error=str(exc),
            )
        rows.append(row)
    return rows


def shortfall_report(
    m: PredictiveModel,
    tau_e: float,
    method: str,
    interval_alpha: float | None = None,
) -> RiskReport:
    """Bundle VaR and (when finite) ES point forecasts into a report."""
    tau_star = (1.0 - tau_e) / (1.0 - m.levels.tau_i)
    var_point = var_from_predictive(m, tau_star)
    es_point = None
    es_reason = None
    ext_levels = LevelPair.from_tau_star(m.levels.tau_i, tau_star)
    extreme_model = m.at(ext_levels)
    try:
        es_point = es_point_forecast(extreme_model)
    except InfiniteMeanError as exc:
        es_reason = str(exc)
    interval = None
    if interval_alpha is not None:
        interval = predictive_interval(extreme_model, interval_alpha)
    return RiskReport(
        tau_e=tau_e,
        var_point=var_point,
        method=method,
        es_point=es_point,
        es_reason=es_reason,
        interval=interval,
    )
