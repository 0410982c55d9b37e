"""Peaks-over-threshold forecasting toolkit.

Fit generalized Pareto tails by maximum likelihood, probability-weighted
moments, or a Bayesian posterior; turn the fits into predictive laws for
future peaks above intermediate or extreme thresholds; read off predictive
intervals and tail risk point forecasts; and stress the whole pipeline in
a seeded simulation lab.
"""

from .bayes import (
    DataDependentScale,
    LogUniformScale,
    PosteriorSample,
    PriorSpec,
    SamplerConfig,
    TruncatedNormalShape,
    UniformWindowShape,
    default_prior,
    log_posterior_unnorm,
    log_prior,
    posterior_summary,
    sample_posterior,
)
from .density import hellinger
from .estimation import (
    ExceedanceSet,
    GpFit,
    SortedSample,
    endpoint_estimate,
    exceedances_from_excesses,
    fit_hill,
    fit_ml,
    fit_pwm,
    select_exceedances,
    stability_trace,
)
from .gpd import (
    GpParams,
    LevelPair,
    Support,
    extrapolation_weight,
    gp_cdf,
    gp_pdf,
    gp_quantile,
    gp_sample,
    threshold_shift,
)
from .predict import (
    BayesianPredictive,
    FrequentistPredictive,
    PredictiveInterval,
    TailFit,
    bayes_predictive,
    extreme_level_from_c,
    extreme_level_from_return_period,
    fit_tail,
    fit_tails,
    freq_predictive,
    prediction_grid,
    predictive_interval,
    tail_equivalence_ratio,
    unconditional_tail_cdf,
)
from .risk import (
    RiskReport,
    es_first_order,
    es_point_forecast,
    extreme_forecast,
    extreme_var,
    return_level_curve,
    shortfall_report,
    var_from_predictive,
)
from .timeseries import (
    ArModel,
    Garch11Model,
    ResidualSeries,
    RollingConfig,
    conditional_predictive,
    fit_ar,
    fit_garch11,
    residual_pipeline,
    residuals_from_filter,
    rolling_forecast,
)

__version__ = "0.1.0"
