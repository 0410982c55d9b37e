"""Synthetic generators and experiment runners for empirical guarantees.

Families cover the three domains of attraction (heavy, light, short
tails), all sampled by inverse cdf so a replication is fully determined by
its seed.  Replication seeds are spawned from the experiment seed through
``numpy.random.SeedSequence([seed, context, replication])``, which makes
aggregates independent of execution order.

Runners check the observable consequences of the asymptotic theory:
conditional coverage of predictive intervals, contraction of the Hellinger
distance between estimated and true predictive densities, tail-equivalence
ratios, and relative errors of tail risk point forecasts.  Every runner
supports an ``"oracle"`` arm built from true parameters, whose result
bounds what the estimated arms can sensibly achieve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bayes import PriorSpec, SamplerConfig, default_prior
from .density import hellinger
from .errors import (
    DegenerateDataError,
    DomainError,
    EstimationError,
    InfiniteMeanError,
    NumericError,
    SamplerError,
)
from .estimation import SortedSample, select_exceedances
from .gpd import (
    GpParams,
    LevelPair,
    Support,
    gp_cdf_vec,
    gp_pdf,
    gp_quantile_vec,
    threshold_shift,
)
from .predict import (
    FrequentistPredictive,
    PredictiveInterval,
    extreme_level_from_c,
    fit_tail,
    predictive_interval,
    tail_equivalence_ratio,
)
from .risk import es_point_forecast, var_from_predictive
from .timeseries import conditional_predictive, fit_ar, residual_pipeline

__all__ = [
    "ExactGP",
    "Pareto",
    "Frechet",
    "Burr",
    "Exponential",
    "BetaTail",
    "Generator",
    "KRule",
    "LevelRule",
    "ExperimentConfig",
    "CoverageStat",
    "CoverageResult",
    "generate",
    "coverage_experiment",
    "contraction_experiment",
    "HELLINGER_ABS_TOL",
    "tail_equivalence_experiment",
    "risk_error_experiment",
    "TsCoverageConfig",
    "ts_coverage_experiment",
]


@dataclass(frozen=True)
class ExactGP:
    gamma: float
    sigma: float

    @property
    def true_gamma(self) -> float:
        return self.gamma

    def quantile(self, u):
        return gp_quantile_vec(self.gamma, self.sigma, u)

    def cdf(self, x):
        return gp_cdf_vec(self.gamma, self.sigma, x)

    def conditional_excess_params(self, t: float) -> GpParams:
        """Exact law of the excess over ``t`` (threshold stability)."""
        return threshold_shift(GpParams(self.gamma, self.sigma), t)


@dataclass(frozen=True)
class Pareto:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError("Pareto exponent must be positive")

    @property
    def true_gamma(self) -> float:
        return 1.0 / self.alpha

    def quantile(self, u):
        return (1.0 - np.asarray(u)) ** (-1.0 / self.alpha)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=float)
        tail = x >= 1.0
        out[tail] = 1.0 - x[tail] ** -self.alpha
        return out


@dataclass(frozen=True)
class Frechet:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError("Frechet exponent must be positive")

    @property
    def true_gamma(self) -> float:
        return 1.0 / self.alpha

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log(u)) ** (-1.0 / self.alpha)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=float)
        pos = x > 0.0
        out[pos] = np.exp(-(x[pos] ** -self.alpha))
        return out


@dataclass(frozen=True)
class Burr:
    shape1: float
    shape2: float

    def __post_init__(self):
        if self.shape1 <= 0.0 or self.shape2 <= 0.0:
            raise DomainError("Burr shapes must be positive")

    @property
    def true_gamma(self) -> float:
        return 1.0 / (self.shape1 * self.shape2)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return ((1.0 - u) ** (-1.0 / self.shape2) - 1.0) ** (1.0 / self.shape1)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=float)
        pos = x > 0.0
        out[pos] = 1.0 - (1.0 + x[pos] ** self.shape1) ** -self.shape2
        return out


@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0.0:
            raise DomainError("exponential rate must be positive")

    @property
    def true_gamma(self) -> float:
        return 0.0

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * x))


@dataclass(frozen=True)
class BetaTail:
    """Beta(a, b) on (0,1): short-tailed with index -1/b."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise DomainError("Beta parameters must be positive")

    @property
    def true_gamma(self) -> float:
        return -1.0 / self.b

    def quantile(self, u):
        from scipy.special import betaincinv

        return betaincinv(self.a, self.b, np.asarray(u, dtype=float))

    def cdf(self, x):
        from scipy.special import betainc

        return betainc(self.a, self.b, np.clip(np.asarray(x, dtype=float), 0.0, 1.0))


Family = ExactGP | Pareto | Frechet | Burr | Exponential | BetaTail


@dataclass(frozen=True)
class Generator:
    family: Family
    seed: int = 0

    @property
    def true_gamma(self) -> float:
        return self.family.true_gamma


def generate(g: Generator, n: int, seed: int | None = None) -> SortedSample:
    """Inverse-cdf sample of size ``n``, sorted; deterministic given the seed."""
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    rng = np.random.default_rng(g.seed if seed is None else seed)
    u = rng.random(n)
    return SortedSample(np.sort(np.asarray(g.family.quantile(u), dtype=float)))


@dataclass(frozen=True)
class KRule:
    """Effective-sample-size rule: fixed, or ``coef * n^delta * log(n)^eta``."""

    kind: str = "power"
    k: int = 0
    coef: float = 1.0
    delta: float = 0.5
    eta: float = 0.0

    def k_for(self, n: int) -> int:
        if self.kind == "fixed":
            k = self.k
        elif self.kind == "power":
            k = int(self.coef * n**self.delta * math.log(n) ** self.eta)
        else:
            raise DomainError(f"unknown k rule {self.kind!r}")
        return max(2, min(k, n - 1))


@dataclass(frozen=True)
class LevelRule:
    """Extreme-level rule: a tail ratio target or an endpoint-gap factor."""

    kind: str = "tau-star"
    value: float = 0.25

    def levels_for(self, tau_i: float, gamma: float | None = None) -> LevelPair:
        if self.kind == "tau-star":
            return LevelPair.from_tau_star(tau_i, self.value)
        if self.kind == "c":
            if gamma is None:
                raise DomainError("the endpoint-gap rule needs a shape estimate")
            return extreme_level_from_c(gamma, tau_i, self.value)
        raise DomainError(f"unknown level rule {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    generator: Generator
    n: int
    k_rule: KRule
    level_rule: LevelRule = field(default_factory=LevelRule)
    alpha: float = 0.05
    replications: int = 100
    methods: tuple[str, ...] = ("ml",)
    seed: int = 0
    sampler: SamplerConfig = field(
        default_factory=lambda: SamplerConfig(burn_in=1_000, draws=2_500)
    )
    prior: PriorSpec | None = None
    n_ladder: tuple[int, ...] | None = None
    rel_err_tol: float = 0.15

    def __post_init__(self):
        if self.replications < 50:
            raise DomainError("experiments need at least 50 replications")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        _check_methods(self.methods, ("oracle", "ml", "pwm", "bayes"))


def _check_methods(methods, supported) -> None:
    """Refuse an arm that would fail every replication."""
    for m in methods:
        if m not in supported:
            raise DomainError(f"method {m!r} is not one of {', '.join(supported)}")


def _rep_seed(cfg_seed: int, rep: int, n_ctx: int = 0) -> int:
    return int(
        np.random.SeedSequence([cfg_seed, n_ctx, rep, 7]).generate_state(1)[0]
    )


_FIT_FAILURES = (EstimationError, DegenerateDataError, DomainError)
_REP_FAILURES = (*_FIT_FAILURES, SamplerError, NumericError, InfiniteMeanError)


@dataclass
class _Tally:
    """One method's replications: the values of those that succeeded, how
    many of them fell back from ML to PWM, and the failures by class."""

    values: list = field(default_factory=list)
    fallbacks: int = 0
    reasons: Counter = field(default_factory=Counter)

    def columns(self) -> dict:
        """The failure columns of a row, e.g. ``"EstimationError:2;SamplerError:1"``."""
        return {
            "failures": sum(self.reasons.values()),
            "fallbacks": self.fallbacks,
            "failure_reasons": ";".join(
                f"{name}:{count}" for name, count in sorted(self.reasons.items())
            ),
        }


def _replicate(methods, reps: int, draw, evaluate) -> dict[str, _Tally]:
    """Run every method on every replication.

    ``draw(rep)`` is called once per replication, before any method runs,
    and ``evaluate(method, rep, ctx)`` returns ``(value, fell_back)``.  A
    failure in ``_REP_FAILURES`` is counted by class; any other exception
    is a bug and propagates.
    """
    tallies = {m: _Tally() for m in methods}
    for rep in range(reps):
        ctx = draw(rep)
        for method, tally in tallies.items():
            try:
                value, fell_back = evaluate(method, rep, ctx)
            except _REP_FAILURES as exc:
                tally.reasons[type(exc).__name__] += 1
            else:
                tally.values.append(value)
                tally.fallbacks += fell_back
    return tallies


def _draw(cfg: ExperimentConfig, n: int, rep: int, n_ctx: int):
    """Replication ``rep``'s sample of size ``n``, and the rng that seeded it."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n_ctx, rep]))
    return generate(cfg.generator, n, seed=int(rng.integers(2**63))), rng


def _rows_at(cfg: ExperimentConfig, n: int, n_ctx: int, evaluate, summarise):
    """One row per method at sample size ``n``.

    ``evaluate(method, sample, k, rep_seed)`` scores one replication and
    ``summarise(values)`` turns a method's scores into the row's statistics.
    ``n_ctx`` enters the replication seeds: the ladder experiments pass ``n``
    even without a ladder, the others 0.
    """
    k = cfg.k_rule.k_for(n)
    tallies = _replicate(
        cfg.methods,
        cfg.replications,
        lambda rep: _draw(cfg, n, rep, n_ctx)[0],
        lambda method, rep, sample: evaluate(
            method, sample, k, _rep_seed(cfg.seed, rep, n_ctx)
        ),
    )
    return [
        {
            "n": n,
            "k": k,
            "method": m,
            **summarise(tallies[m].values),
            "replications": len(tallies[m].values),
            **tallies[m].columns(),
        }
        for m in cfg.methods
    ]


def _quantiles(values, *probs: float) -> list[float]:
    """Quantiles of ``values`` (``np.median`` at 0.5), NaN when there are none."""
    arr = np.asarray(values)
    if not arr.size:
        return [math.nan] * len(probs)
    return [float(np.median(arr) if p == 0.5 else np.quantile(arr, p)) for p in probs]


def _estimated_model(cfg: ExperimentConfig, method: str, sample, k: int, rep_seed: int):
    """(intermediate model, extreme model, fallback flag) fitted to the top
    ``k`` of one replication's sample.

    ML falls back to PWM (flagged) so aggregates stay defined.
    """
    e = select_exceedances(sample, k)
    try:
        tail = fit_tail(e, method, cfg.prior, replace(cfg.sampler, seed=rep_seed))
        fell_back = False
    except _FIT_FAILURES:
        if method != "ml":
            raise
        tail, fell_back = fit_tail(e, "pwm"), True
    ext_levels = cfg.level_rule.levels_for(e.tau_i, tail.gamma)
    return tail.at(LevelPair.intermediate(e.tau_i)), tail.at(ext_levels), fell_back


def _oracle_model(fam: ExactGP, tau_i: float, levels: LevelPair):
    """The predictive law from true parameters at the true ``tau_i`` quantile."""
    t_i = float(fam.quantile(tau_i))
    return FrequentistPredictive(fam.conditional_excess_params(t_i), t_i, levels)


@dataclass(frozen=True)
class CoverageStat:
    method: str
    coverage: float
    se: float
    mean_width: float
    n_used: int
    failures: int
    fallbacks: int
    failure_reasons: str


@dataclass(frozen=True)
class CoverageResult:
    stats: dict[str, CoverageStat]
    config_seed: int

    def rows(self) -> list[dict]:
        return [asdict(s) for s in self.stats.values()]


def coverage_experiment(cfg: ExperimentConfig) -> CoverageResult:
    """Empirical conditional coverage of equal-tailed predictive intervals.

    Each replication fits on ``n`` points and tests against an independent
    draw conditioned (by inverse-cdf truncation) on exceeding the true
    extreme threshold.  The ``"oracle"`` arm intervals come from the true
    conditional quantiles and have no estimation error.
    """
    fam = cfg.generator.family
    k = cfg.k_rule.k_for(cfg.n)
    oracle_levels = cfg.level_rule.levels_for(1.0 - k / cfg.n, fam.true_gamma)

    def peak_quantile(tau_e: float, p: float) -> float:
        """The true ``p`` quantile of a peak above the ``tau_e`` quantile."""
        return float(fam.quantile(tau_e + p * (1.0 - tau_e)))

    def draw(rep: int):
        sample, rng = _draw(cfg, cfg.n, rep, 0)
        return sample, rng.random()

    def evaluate(method: str, rep: int, ctx):
        sample, u_test = ctx
        if method == "oracle":
            tau_e, fell_back = oracle_levels.tau_e, False
            interval = PredictiveInterval(
                peak_quantile(tau_e, cfg.alpha / 2),
                peak_quantile(tau_e, 1 - cfg.alpha / 2),
                cfg.alpha,
            )
        else:
            _, model_ext, fell_back = _estimated_model(
                cfg, method, sample, k, _rep_seed(cfg.seed, rep)
            )
            tau_e = model_ext.levels.tau_e
            interval = predictive_interval(model_ext, cfg.alpha)
        covered = interval.contains(peak_quantile(tau_e, u_test))
        return (int(covered), interval.width), fell_back

    tallies = _replicate(cfg.methods, cfg.replications, draw, evaluate)
    stats = {}
    for m in cfg.methods:
        oks = tallies[m].values
        n_used = len(oks)
        if n_used:
            cov = sum(o[0] for o in oks) / n_used
            se = math.sqrt(cov * (1.0 - cov) / n_used)
            width = sum(o[1] for o in oks) / n_used
        else:
            cov = se = width = math.nan
        stats[m] = CoverageStat(m, cov, se, width, n_used, **tallies[m].columns())
    return CoverageResult(stats=stats, config_seed=cfg.seed)


def _true_peak_pdf(fam: ExactGP, t_e: float):
    """Exact density of a peak above ``t_e`` for the exact-GP family."""
    excess_params = fam.conditional_excess_params(t_e)

    def pdf(y):
        return gp_pdf(excess_params, y - t_e)

    return pdf, excess_params


# Tolerance on the integral 2 H^2 that each arm of contraction_experiment asks
# of `hellinger`.  A mixture density jumps at every draw's onset, and the
# K15 - G7 error estimate can miss part of that staircase, so the Bayes
# figure comes from a measured error-versus-time table (ROADMAP baseline):
# against a reference with a panel break at every onset, 98 replications
# (m = 2,000, n = 2,000 and 32,000) stayed within 3.2e-5 at 5e-5, while at
# 2e-5 one ended at 3.2e-5 and at 1e-5 a call took longer than quad at 2e-4.
HELLINGER_ABS_TOL = {"oracle": 1e-8, "ml": 1e-8, "pwm": 1e-8, "bayes": 5e-5}


def contraction_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Hellinger distance between estimated and true predictive densities.

    Runs on a ladder of sample sizes (``cfg.n_ladder`` or the single
    ``cfg.n``); the generator must be exact-GP so the true predictive
    density is available in closed form.  Reports per-(n, method) medians
    and decile bands of the distance.
    """
    fam = cfg.generator.family
    if not isinstance(fam, ExactGP):
        raise DomainError("contraction experiments need the exact-GP generator")

    def evaluate(method: str, sample, k: int, rep_seed: int):
        if method == "oracle":
            tau_i = 1.0 - k / sample.n
            levels = cfg.level_rule.levels_for(tau_i, fam.true_gamma)
            model, fell_back = _oracle_model(fam, tau_i, levels), False
        else:
            _, model, fell_back = _estimated_model(cfg, method, sample, k, rep_seed)
        t_e_true = float(fam.quantile(model.levels.tau_e))
        true_pdf, excess_params = _true_peak_pdf(fam, t_e_true)
        lower = min(model.support_lower(), t_e_true)
        upper_true = (
            t_e_true + excess_params.upper if excess_params.gamma < 0 else math.inf
        )
        upper = max(model.support_upper(), upper_true)
        distance = hellinger(
            true_pdf,
            model.pdf,
            Support(lower, upper),
            abs_tol=HELLINGER_ABS_TOL[method],
            breakpoints=(t_e_true, model.support_lower()),
        )
        return distance, fell_back

    def summarise(values) -> dict:
        med, q10, q90 = _quantiles(values, 0.5, 0.1, 0.9)
        return {"median_hellinger": med, "q10": q10, "q90": q90}

    ladder = cfg.n_ladder or (cfg.n,)
    return [row for n in ladder for row in _rows_at(cfg, n, n, evaluate, summarise)]


def tail_equivalence_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Distribution of the tail-equivalence ratio across replications.

    The ratio compares the forecaster's exceedance mass at the true
    conditional quantile with its target; medians near 1 with shrinking
    bands certify calibrated tail forecasts.
    """
    fam = cfg.generator.family
    if cfg.level_rule.kind != "tau-star":
        raise DomainError("tail-equivalence experiments use the tau-star rule")
    if "oracle" in cfg.methods and not isinstance(fam, ExactGP):
        raise DomainError("the oracle arm needs the exact-GP generator")
    tau_star = cfg.level_rule.value

    def evaluate(method: str, sample, k: int, rep_seed: int):
        if method == "oracle":
            tau_i = 1.0 - k / sample.n
            levels = LevelPair.intermediate(tau_i)
            model, fell_back = _oracle_model(fam, tau_i, levels), False
        else:
            model, _, fell_back = _estimated_model(cfg, method, sample, k, rep_seed)
        q_true = float(fam.quantile(1.0 - tau_star * (1.0 - model.levels.tau_i)))
        return tail_equivalence_ratio(model, q_true, tau_star), fell_back

    def summarise(values) -> dict:
        med, lo, hi = _quantiles(values, 0.5, 0.05, 0.95)
        return {"median_ratio": med, "band_lo": lo, "band_hi": hi, "band_width": hi - lo}

    ladder = cfg.n_ladder or (cfg.n,)
    return [row for n in ladder for row in _rows_at(cfg, n, n, evaluate, summarise)]


def _true_tail_es(fam: Family):
    """Closed-form tail conditional expectation as a function of ``tau_e``.

    Raises at once for a family without a closed form or with an infinite
    tail mean.
    """
    if isinstance(fam, Pareto):
        if fam.alpha <= 1.0:
            raise InfiniteMeanError("Pareto tail mean is infinite for alpha <= 1")
        return lambda tau_e: float(fam.quantile(tau_e)) * fam.alpha / (fam.alpha - 1.0)
    if isinstance(fam, ExactGP):
        if fam.gamma >= 1.0:
            raise InfiniteMeanError("GP tail mean is infinite for shape >= 1")

        def gp_es(tau_e: float) -> float:
            t_e = float(fam.quantile(tau_e))
            shifted = fam.conditional_excess_params(t_e)
            return t_e + shifted.sigma / (1.0 - shifted.gamma)

        return gp_es
    if isinstance(fam, Exponential):
        return lambda tau_e: float(fam.quantile(tau_e)) + 1.0 / fam.rate
    raise DomainError(f"no closed-form tail expectation for {type(fam).__name__}")


def risk_error_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Relative error of tail quantile and shortfall point forecasts.

    Compares the predictive-route forecasts against the generator's
    closed-form values; reports the fraction of replications within
    ``cfg.rel_err_tol`` and the error quantiles.
    """
    fam = cfg.generator.family
    if cfg.level_rule.kind != "tau-star":
        raise DomainError("risk-error experiments use the tau-star rule")
    tau_star = cfg.level_rule.value
    true_es = _true_tail_es(fam)
    _check_methods(cfg.methods, ("ml", "pwm", "bayes"))
    # the default prior's shape support does not depend on its scale anchor
    prior = default_prior(1.0) if cfg.prior is None else cfg.prior
    if "bayes" in cfg.methods and not prior.es_compatible:
        raise InfiniteMeanError(
            "the bayes arm's shape prior reaches 1, where expected shortfall is "
            "infinite; risk-error needs a prior supported strictly below 1"
        )

    def evaluate(method: str, sample, k: int, rep_seed: int):
        model_int, model_ext, fell_back = _estimated_model(
            cfg, method, sample, k, rep_seed
        )
        tau_e = model_ext.levels.tau_e
        var_true = float(fam.quantile(tau_e))
        es_true = true_es(tau_e)
        var_hat = var_from_predictive(model_int, tau_star)
        es_hat = es_point_forecast(model_ext)
        errors = (
            abs(var_hat - var_true) / abs(var_true),
            abs(es_hat - es_true) / abs(es_true),
        )
        return errors, fell_back

    def within_tol(errs) -> float:
        return float(np.mean(errs < cfg.rel_err_tol)) if errs.size else math.nan

    def summarise(pairs) -> dict:
        v, s = (np.asarray([p[i] for p in pairs]) for i in (0, 1))
        v_med, v_q90 = _quantiles(v, 0.5, 0.9)
        s_med, s_q90 = _quantiles(s, 0.5, 0.9)
        return {
            "var_within_tol": within_tol(v),
            "es_within_tol": within_tol(s),
            "var_median_err": v_med,
            "es_median_err": s_med,
            "var_q90_err": v_q90,
            "es_q90_err": s_q90,
        }

    return _rows_at(cfg, cfg.n, 0, evaluate, summarise)


@dataclass(frozen=True)
class TsCoverageConfig:
    """Rolling-origin conditional coverage for AR(1) + iid innovations.

    The default stride equals the window, so successive origins use
    disjoint stretches of the series and their violations are independent;
    an overlapping stride is allowed but leaves the rate estimate heavily
    correlated across origins.
    """

    phi: float
    innovations: Family
    window: int = 1000
    origins: int = 500
    k: int = 100
    tau_star: float = 0.25
    alpha: float = 0.05
    methods: tuple[str, ...] = ("ml",)
    seed: int = 0
    sampler: SamplerConfig = field(
        default_factory=lambda: SamplerConfig(burn_in=1_000, draws=2_500)
    )
    prior: PriorSpec | None = None
    burn: int = 200
    stride: int | None = None
    ar_intercept: bool = True  # uncentered innovations need the intercept

    def __post_init__(self):
        _check_methods(self.methods, ("ml", "pwm", "bayes"))


def ts_coverage_experiment(cfg: TsCoverageConfig) -> list[dict]:
    """Violation rate of one-step-ahead conditional predictive intervals.

    At each rolling origin the filter and tail are refit, and the test
    point is the next observation regenerated conditionally on its
    innovation exceeding the true extreme quantile, so interval violations
    should occur at rate ``alpha``.
    """
    from scipy.signal import lfilter

    stride = cfg.window if cfg.stride is None else cfg.stride
    if stride < 1:
        raise DomainError("stride must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    n_total = cfg.burn + cfg.window + (cfg.origins - 1) * stride + 1
    eps = np.asarray(cfg.innovations.quantile(rng.random(n_total)), dtype=float)
    y = lfilter([1.0], [1.0, -cfg.phi], eps)
    y = y[cfg.burn :]
    u_test = rng.random(cfg.origins)

    def evaluate(method: str, j: int, seg):
        ar = fit_ar(seg, 1, intercept=cfg.ar_intercept)
        rs = residual_pipeline(seg, ar)
        tau_i = 1.0 - cfg.k / rs.residuals.size
        ext_levels = LevelPair.from_tau_star(tau_i, cfg.tau_star)
        sampler = replace(cfg.sampler, seed=_rep_seed(cfg.seed, j, n_ctx=2))
        model_ext = conditional_predictive(
            rs, cfg.k, ext_levels, method, cfg.prior, sampler
        )
        interval = predictive_interval(model_ext, cfg.alpha)
        # regenerate the next step conditionally on a tail innovation
        tau_e_inn = ext_levels.tau_e
        eps_star = float(
            cfg.innovations.quantile(tau_e_inn + u_test[j] * (1.0 - tau_e_inn))
        )
        y_star = cfg.phi * seg[-1] + eps_star
        return int(not interval.contains(y_star)), False

    tallies = _replicate(
        cfg.methods,
        cfg.origins,
        lambda j: y[j * stride : j * stride + cfg.window],
        evaluate,
    )
    rows: list[dict] = []
    for method in cfg.methods:
        used, violations = len(tallies[method].values), sum(tallies[method].values)
        rows.append(
            {
                "method": method,
                "violation_rate": violations / used if used else math.nan,
                "origins_used": used,
                "violations": violations,
                **tallies[method].columns(),
                "alpha": cfg.alpha,
            }
        )
    return rows
