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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import beta as beta_dist

from .bayes import PriorSpec, SamplerConfig
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
from .gpd import GpParams, LevelPair, Support, gp_pdf, threshold_shift
from .predict import (
    FrequentistPredictive,
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
        from .gpd import gp_quantile_vec

        return gp_quantile_vec(self.gamma, self.sigma, u)

    def cdf(self, x):
        from .gpd import gp_cdf_vec

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
        return beta_dist.ppf(np.asarray(u, dtype=float), self.a, self.b)

    def cdf(self, x):
        return beta_dist.cdf(np.asarray(x, dtype=float), self.a, self.b)


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
            from .predict import extreme_level_from_c

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


def _rep_rng(cfg_seed: int, rep: int, n_ctx: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg_seed, n_ctx, rep]))


def _rep_seed(cfg_seed: int, rep: int, n_ctx: int = 0) -> int:
    return int(
        np.random.SeedSequence([cfg_seed, n_ctx, rep, 7]).generate_state(1)[0]
    )


_FIT_FAILURES = (EstimationError, DegenerateDataError, DomainError)
_REP_FAILURES = (*_FIT_FAILURES, SamplerError, NumericError, InfiniteMeanError)


def _estimated_model(cfg: ExperimentConfig, method: str, e, rep_seed: int):
    """(intermediate model, extreme model, fallback flag) for one replication.

    ML falls back to PWM (flagged) so aggregates stay defined.
    """
    try:
        tail = fit_tail(e, method, cfg.prior, replace(cfg.sampler, seed=rep_seed))
        fell_back = False
    except _FIT_FAILURES:
        if method != "ml":
            raise
        tail, fell_back = fit_tail(e, "pwm"), True
    ext_levels = cfg.level_rule.levels_for(e.tau_i, tail.gamma)
    return tail.at(LevelPair.intermediate(e.tau_i)), tail.at(ext_levels), fell_back


@dataclass(frozen=True)
class CoverageStat:
    method: str
    coverage: float
    se: float
    mean_width: float
    n_used: int
    failures: int
    fallbacks: int


@dataclass(frozen=True)
class CoverageResult:
    stats: dict[str, CoverageStat]
    config_seed: int

    def rows(self) -> list[dict]:
        return [
            {
                "method": s.method,
                "coverage": s.coverage,
                "se": s.se,
                "mean_width": s.mean_width,
                "n_used": s.n_used,
                "failures": s.failures,
                "fallbacks": s.fallbacks,
            }
            for s in self.stats.values()
        ]


def coverage_experiment(cfg: ExperimentConfig) -> CoverageResult:
    """Empirical conditional coverage of equal-tailed predictive intervals.

    Each replication fits on ``n`` points and tests against an independent
    draw conditioned (by inverse-cdf truncation) on exceeding the true
    extreme threshold.  The ``"oracle"`` arm intervals come from the true
    conditional quantiles and have no estimation error.
    """
    fam = cfg.generator.family
    k = cfg.k_rule.k_for(cfg.n)
    tau_i_nominal = 1.0 - k / cfg.n
    if cfg.level_rule.kind == "tau-star":
        oracle_levels = cfg.level_rule.levels_for(tau_i_nominal)
    else:
        oracle_levels = cfg.level_rule.levels_for(tau_i_nominal, fam.true_gamma)

    def one_rep(rep: int) -> dict:
        rng = _rep_rng(cfg.seed, rep)
        sample = generate(cfg.generator, cfg.n, seed=int(rng.integers(2**63)))
        u_test = rng.random()
        out: dict = {}
        for method in cfg.methods:
            try:
                if method == "oracle":
                    tau_e = oracle_levels.tau_e
                    x_test = float(fam.quantile(tau_e + u_test * (1.0 - tau_e)))
                    lo = float(fam.quantile(tau_e + (cfg.alpha / 2) * (1 - tau_e)))
                    hi = float(
                        fam.quantile(tau_e + (1 - cfg.alpha / 2) * (1 - tau_e))
                    )
                    out[method] = (int(lo <= x_test <= hi), hi - lo, 0)
                else:
                    e = select_exceedances(sample, k)
                    _, model_ext, fell_back = _estimated_model(
                        cfg, method, e, _rep_seed(cfg.seed, rep)
                    )
                    tau_e = model_ext.levels.tau_e
                    x_test = float(fam.quantile(tau_e + u_test * (1.0 - tau_e)))
                    interval = predictive_interval(model_ext, cfg.alpha)
                    out[method] = (
                        int(interval.contains(x_test)),
                        interval.width,
                        int(fell_back),
                    )
            except _REP_FAILURES:
                out[method] = None
        return out

    results = [one_rep(rep) for rep in range(cfg.replications)]

    stats = {}
    for m in cfg.methods:
        oks = [r[m] for r in results if r[m] is not None]
        n_used = len(oks)
        failures = cfg.replications - n_used
        if n_used:
            cov = sum(o[0] for o in oks) / n_used
            se = math.sqrt(cov * (1.0 - cov) / n_used)
            width = sum(o[1] for o in oks) / n_used
            fallbacks = sum(o[2] for o in oks)
        else:
            cov = se = width = math.nan
            fallbacks = 0
        stats[m] = CoverageStat(
            method=m,
            coverage=cov,
            se=se,
            mean_width=width,
            n_used=n_used,
            failures=failures,
            fallbacks=fallbacks,
        )
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
    ladder = cfg.n_ladder or (cfg.n,)

    rows: list[dict] = []
    for n in ladder:
        k = cfg.k_rule.k_for(n)

        def one_rep(rep: int, n=n, k=k) -> dict:
            rng = _rep_rng(cfg.seed, rep, n_ctx=n)
            sample = generate(cfg.generator, n, seed=int(rng.integers(2**63)))
            out: dict = {}
            for method in cfg.methods:
                try:
                    if method == "oracle":
                        tau_i = 1.0 - k / n
                        levels = cfg.level_rule.levels_for(tau_i, fam.true_gamma)
                        t_i_true = float(fam.quantile(tau_i))
                        params_i = fam.conditional_excess_params(t_i_true)
                        model = FrequentistPredictive(params_i, t_i_true, levels)
                    else:
                        e = select_exceedances(sample, k)
                        _, model, _ = _estimated_model(
                            cfg, method, e, _rep_seed(cfg.seed, rep, n_ctx=n)
                        )
                        levels = model.levels
                    t_e_true = float(fam.quantile(levels.tau_e))
                    true_pdf, excess_params = _true_peak_pdf(fam, t_e_true)
                    lower = min(model.support_lower(), t_e_true)
                    upper_true = (
                        t_e_true + excess_params.upper
                        if excess_params.gamma < 0
                        else math.inf
                    )
                    upper = max(model.support_upper(), upper_true)
                    out[method] = hellinger(
                        true_pdf,
                        model.pdf,
                        Support(lower, upper),
                        abs_tol=HELLINGER_ABS_TOL[method],
                        breakpoints=(t_e_true, model.support_lower()),
                    )
                except _REP_FAILURES:
                    out[method] = None
            return out

        results = [one_rep(rep) for rep in range(cfg.replications)]
        for method in cfg.methods:
            arr = np.asarray([r[method] for r in results if r[method] is not None])
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "method": method,
                    "median_hellinger": float(np.median(arr)) if arr.size else math.nan,
                    "q10": float(np.quantile(arr, 0.1)) if arr.size else math.nan,
                    "q90": float(np.quantile(arr, 0.9)) if arr.size else math.nan,
                    "replications": int(arr.size),
                    "failures": cfg.replications - int(arr.size),
                }
            )
    return rows


def tail_equivalence_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Distribution of the tail-equivalence ratio across replications.

    The ratio compares the forecaster's exceedance mass at the true
    conditional quantile with its target; medians near 1 with shrinking
    bands certify calibrated tail forecasts.
    """
    fam = cfg.generator.family
    if cfg.level_rule.kind != "tau-star":
        raise DomainError("tail-equivalence experiments use the tau-star rule")
    tau_star = cfg.level_rule.value
    ladder = cfg.n_ladder or (cfg.n,)

    rows: list[dict] = []
    for n in ladder:
        k = cfg.k_rule.k_for(n)

        def one_rep(rep: int, n=n, k=k) -> dict:
            rng = _rep_rng(cfg.seed, rep, n_ctx=n)
            sample = generate(cfg.generator, n, seed=int(rng.integers(2**63)))
            out: dict = {}
            for method in cfg.methods:
                try:
                    if method == "oracle":
                        if not isinstance(fam, ExactGP):
                            raise DomainError(
                                "oracle arm implemented for exact-GP only"
                            )
                        tau_i = 1.0 - k / n
                        t_i_true = float(fam.quantile(tau_i))
                        params_i = fam.conditional_excess_params(t_i_true)
                        model = FrequentistPredictive(
                            params_i, t_i_true, LevelPair.intermediate(tau_i)
                        )
                        tau_i_eff = tau_i
                    else:
                        e = select_exceedances(sample, k)
                        model, _, _ = _estimated_model(
                            cfg, method, e, _rep_seed(cfg.seed, rep, n_ctx=n)
                        )
                        tau_i_eff = e.tau_i
                    tau_e = 1.0 - tau_star * (1.0 - tau_i_eff)
                    q_true = float(fam.quantile(tau_e))
                    out[method] = tail_equivalence_ratio(model, q_true, tau_star)
                except _REP_FAILURES:
                    out[method] = None
            return out

        results = [one_rep(rep) for rep in range(cfg.replications)]
        for method in cfg.methods:
            arr = np.asarray([r[method] for r in results if r[method] is not None])
            if arr.size:
                med = float(np.median(arr))
                lo = float(np.quantile(arr, 0.05))
                hi = float(np.quantile(arr, 0.95))
            else:
                med = lo = hi = math.nan
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "method": method,
                    "median_ratio": med,
                    "band_lo": lo,
                    "band_hi": hi,
                    "band_width": hi - lo,
                    "replications": int(arr.size),
                    "failures": cfg.replications - int(arr.size),
                }
            )
    return rows


def _true_tail_es(fam: Family, tau_e: float) -> float:
    """Closed-form tail conditional expectation where available."""
    if isinstance(fam, Pareto):
        if fam.alpha <= 1.0:
            raise InfiniteMeanError("Pareto tail mean is infinite for alpha <= 1")
        return float(fam.quantile(tau_e)) * fam.alpha / (fam.alpha - 1.0)
    if isinstance(fam, ExactGP):
        if fam.gamma >= 1.0:
            raise InfiniteMeanError("GP tail mean is infinite for shape >= 1")
        t_e = float(fam.quantile(tau_e))
        shifted = fam.conditional_excess_params(t_e)
        return t_e + shifted.sigma / (1.0 - shifted.gamma)
    if isinstance(fam, Exponential):
        return float(fam.quantile(tau_e)) + 1.0 / fam.rate
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
    k = cfg.k_rule.k_for(cfg.n)

    def one_rep(rep: int) -> dict:
        rng = _rep_rng(cfg.seed, rep)
        sample = generate(cfg.generator, cfg.n, seed=int(rng.integers(2**63)))
        out: dict = {}
        for method in cfg.methods:
            try:
                e = select_exceedances(sample, k)
                model_int, model_ext, _ = _estimated_model(
                    cfg, method, e, _rep_seed(cfg.seed, rep)
                )
                tau_e = model_ext.levels.tau_e
                var_true = float(fam.quantile(tau_e))
                es_true = _true_tail_es(fam, tau_e)
                var_hat = var_from_predictive(model_int, tau_star)
                es_hat = es_point_forecast(model_ext)
                out[method] = (
                    abs(var_hat - var_true) / abs(var_true),
                    abs(es_hat - es_true) / abs(es_true),
                )
            except _REP_FAILURES:
                out[method] = None
        return out

    results = [one_rep(rep) for rep in range(cfg.replications)]

    rows: list[dict] = []
    for method in cfg.methods:
        pairs = [r[method] for r in results if r[method] is not None]
        v = np.asarray([p[0] for p in pairs])
        s = np.asarray([p[1] for p in pairs])
        rows.append(
            {
                "n": cfg.n,
                "k": k,
                "method": method,
                "var_within_tol": float(np.mean(v < cfg.rel_err_tol)) if v.size else math.nan,
                "es_within_tol": float(np.mean(s < cfg.rel_err_tol)) if s.size else math.nan,
                "var_median_err": float(np.median(v)) if v.size else math.nan,
                "es_median_err": float(np.median(s)) if s.size else math.nan,
                "var_q90_err": float(np.quantile(v, 0.9)) if v.size else math.nan,
                "es_q90_err": float(np.quantile(s, 0.9)) if s.size else math.nan,
                "replications": int(v.size),
                "failures": cfg.replications - int(v.size),
            }
        )
    return rows


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

    def one_origin(j: int) -> dict:
        out: dict = {}
        seg = y[j * stride : j * stride + cfg.window]
        for method in cfg.methods:
            try:
                ar = fit_ar(seg, 1, intercept=cfg.ar_intercept)
                rs = residual_pipeline(seg, ar)
                n_res = rs.residuals.size
                tau_i = 1.0 - cfg.k / n_res
                ext_levels = LevelPair.from_tau_star(tau_i, cfg.tau_star)
                sampler = replace(cfg.sampler, seed=_rep_seed(cfg.seed, j, n_ctx=2))
                model_ext = conditional_predictive(
                    rs, cfg.k, ext_levels, method, cfg.prior, sampler
                )
                interval = predictive_interval(model_ext, cfg.alpha)
                # regenerate the next step conditionally on a tail innovation
                tau_e_inn = ext_levels.tau_e
                eps_star = float(
                    cfg.innovations.quantile(
                        tau_e_inn + u_test[j] * (1.0 - tau_e_inn)
                    )
                )
                y_star = cfg.phi * seg[-1] + eps_star
                out[method] = int(not interval.contains(y_star))
            except _REP_FAILURES:
                out[method] = None
        return out

    results = [one_origin(j) for j in range(cfg.origins)]

    rows: list[dict] = []
    for method in cfg.methods:
        vals = [r[method] for r in results if r[method] is not None]
        used = len(vals)
        violations = sum(vals)
        rows.append(
            {
                "method": method,
                "violation_rate": violations / used if used else math.nan,
                "origins_used": used,
                "violations": violations,
                "failures": cfg.origins - used,
                "alpha": cfg.alpha,
            }
        )
    return rows
