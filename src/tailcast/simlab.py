"""Synthetic generators and experiment runners for empirical guarantees.

Families cover the three domains of attraction (heavy, light, short
tails), all sampled by inverse cdf so a replication is fully determined by
its seed.  A replication draws all ``n`` uniforms but maps only the top
``k + 1`` through the quantile, since its methods read no more.
Replication seeds are spawned from the experiment seed through
``numpy.random.SeedSequence([seed, context, replication])``, which makes
aggregates independent of execution order.  So an experiment runs in
stages: it draws every replication (or filters every window), selects its
exceedances once, fits each arm's tails in one :func:`fit_tails` call,
then evaluates each replication from its fits alone.

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
from .estimation import ExceedanceSet, SortedSample, _split_top
from .gpd import (
    GpParams,
    LevelPair,
    Support,
    gp_pdf,
    gp_quantile_vec,
    threshold_shift,
)
from .predict import (
    FrequentistPredictive,
    PredictiveInterval,
    TailFit,
    extreme_level_from_c,
    fit_tails,
    predictive_interval,
    tail_equivalence_ratio,
)
from .risk import es_point_forecast, extreme_forecast
from .timeseries import _origin_stage, fit_ar, residual_pipeline

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


Family = ExactGP | Pareto | Frechet | Burr | Exponential | BetaTail


@dataclass(frozen=True)
class Generator:
    family: Family
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed, "generator")

    @property
    def true_gamma(self) -> float:
        return self.family.true_gamma


def _top(fam: Family, n: int, m: int, seed: int) -> np.ndarray:
    """The top ``m`` of an inverse-cdf sample of size ``n``, ascending: bit for
    bit those of the sorted sample, as the quantile is monotone and elementwise."""
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    u = np.random.default_rng(seed).random(n)
    if m < n:
        u = np.partition(u, n - m)[n - m :]
    return np.sort(np.asarray(fam.quantile(u), dtype=float))


def generate(g: Generator, n: int, seed: int | None = None) -> SortedSample:
    """Inverse-cdf sample of size ``n``, sorted; deterministic given the seed."""
    return SortedSample(_top(g.family, n, n, g.seed if seed is None else seed))


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
        _check_seed(self.seed, "experiment")
        if self.replications < 50:
            raise DomainError("experiments need at least 50 replications")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        _check_methods(self.methods, ("oracle", "ml", "pwm", "bayes"))


def _check_seed(seed: int, what: str) -> None:
    """Refuse a seed that ``numpy.random`` would reject mid-run."""
    if seed < 0:
        raise DomainError(f"{what} seed must be non-negative, got {seed}")


def _check_methods(methods, supported) -> None:
    """Refuse an arm that would fail every replication, or run twice."""
    for m in methods:
        if m not in supported:
            raise DomainError(f"method {m!r} is not one of {', '.join(supported)}")
    if len(set(methods)) < len(methods):
        raise DomainError(f"a method is listed twice in {list(methods)}")


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


def _replicate(methods, ctxs, staged, evaluate, fell_back=frozenset()) -> dict[str, _Tally]:
    """Score every method on every replication from what was staged for it.

    ``staged[method][rep]`` is replication ``rep``'s fit (or law) for
    ``method``, made for all replications at once before any is scored, or
    the failure raised for it; ``evaluate(method, staged, ctxs[rep])``
    returns the score and runs no fit.  ``(method, rep)`` in ``fell_back``
    marks a fit that fell back from ML to PWM.  A failure in
    ``_REP_FAILURES`` is counted by class; any other exception is a bug and
    propagates.
    """
    tallies = {m: _Tally() for m in methods}
    for rep, ctx in enumerate(ctxs):
        for method, tally in tallies.items():
            try:
                tail = staged[method][rep]
                if isinstance(tail, Exception):
                    raise tail
                tally.values.append(evaluate(method, tail, ctx))
            except _REP_FAILURES as exc:
                tally.reasons[type(exc).__name__] += 1
            else:
                tally.fallbacks += (method, rep) in fell_back
    return tallies


@dataclass(frozen=True)
class _Draw:
    """What a replication's methods read of its sample of size ``n``: the top
    ``min(k + 1, n)`` order statistics, and the coverage test point's uniform."""

    top: np.ndarray
    n: int
    k: int
    u_test: float

    def exceedances(self) -> ExceedanceSet:
        """``select_exceedances`` of the whole sorted sample at ``k``."""
        return _split_top(self.top, self.n, self.k)


def _draw(cfg: ExperimentConfig, n: int, k: int, rep: int, n_ctx: int) -> _Draw:
    """Replication ``rep``'s draw at ``(n, k)``."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n_ctx, rep]))
    top = _top(cfg.generator.family, n, k + 1, int(rng.integers(2**63)))
    return _Draw(top, n, k, rng.random())


def _rows_at(cfg: ExperimentConfig, n: int, n_ctx: int, evaluate, summarise):
    """One row per method at sample size ``n``, in three stages.

    Every replication is drawn and its exceedances selected once, a failure
    kept in place.  Each estimated arm is one :func:`fit_tails` call, and
    the ML fits that fail are refitted by PWM in one more (flagged
    fallbacks, so aggregates stay defined).  Then ``evaluate(method, tail,
    draw)`` scores a replication from its :class:`TailFit` (None for the
    oracle), and ``summarise(values)`` turns a method's scores into the
    row's statistics.  ``n_ctx`` enters the replication seeds: the ladder
    experiments pass ``n`` even without a ladder, the others 0.
    """
    k = cfg.k_rule.k_for(n)
    draws = [_draw(cfg, n, k, rep, n_ctx) for rep in range(cfg.replications)]
    arms = [m for m in cfg.methods if m != "oracle"]
    es: list = []  # each replication's exceedances, or the failure
    for draw in draws if arms else ():
        try:
            es.append(draw.exceedances())
        except _REP_FAILURES as exc:
            es.append(exc)
    tails = {"oracle": [None] * len(draws)}
    for m in arms:
        if m == "bayes":
            samplers = [replace(cfg.sampler, seed=_rep_seed(cfg.seed, rep, n_ctx))
                        for rep in range(len(es))]
            tails[m] = fit_tails(es, m, [cfg.prior] * len(es), samplers)
        else:
            tails[m] = fit_tails(es, m)
    failed = [rep for rep, (e, tail) in enumerate(zip(es, tails.get("ml", ())))
              if tail is not e and isinstance(tail, _FIT_FAILURES)]
    for rep, tail in zip(failed, fit_tails([es[rep] for rep in failed], "pwm")):
        tails["ml"][rep] = tail
    tallies = _replicate(cfg.methods, draws, tails, evaluate, {("ml", rep) for rep in failed})
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


def _extreme_model(cfg: ExperimentConfig, tail: TailFit):
    """The predictive law of ``tail`` at the extreme levels of ``cfg``'s rule."""
    return tail.at(cfg.level_rule.levels_for(tail.e.tau_i, tail.gamma))


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

    def evaluate(method: str, tail: TailFit | None, draw: _Draw):
        if method == "oracle":
            tau_e = oracle_levels.tau_e
            interval = PredictiveInterval(
                peak_quantile(tau_e, cfg.alpha / 2),
                peak_quantile(tau_e, 1 - cfg.alpha / 2),
                cfg.alpha,
            )
        else:
            model_ext = _extreme_model(cfg, tail)
            tau_e = model_ext.levels.tau_e
            interval = predictive_interval(model_ext, cfg.alpha)
        covered = interval.contains(peak_quantile(tau_e, draw.u_test))
        return int(covered), interval.width

    def summarise(oks) -> dict:
        if not oks:
            return {"coverage": math.nan, "se": math.nan, "mean_width": math.nan}
        cov = sum(o[0] for o in oks) / len(oks)
        se = math.sqrt(cov * (1.0 - cov) / len(oks))
        return {"coverage": cov, "se": se, "mean_width": sum(o[1] for o in oks) / len(oks)}

    stats = {}
    for row in _rows_at(cfg, cfg.n, 0, evaluate, summarise):
        del row["n"], row["k"]
        row["n_used"] = row.pop("replications")
        stats[row["method"]] = CoverageStat(**row)
    return CoverageResult(stats=stats, config_seed=cfg.seed)


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

    def evaluate(method: str, tail: TailFit | None, draw: _Draw):
        if method == "oracle":
            tau_i = 1.0 - draw.k / draw.n
            levels = cfg.level_rule.levels_for(tau_i, fam.true_gamma)
            model = _oracle_model(fam, tau_i, levels)
        else:
            model = _extreme_model(cfg, tail)
        t_e_true = float(fam.quantile(model.levels.tau_e))
        excess_params = fam.conditional_excess_params(t_e_true)
        lower = min(model.support_lower(), t_e_true)
        upper = max(model.support_upper(), t_e_true + excess_params.upper)
        return hellinger(
            lambda y: gp_pdf(excess_params, y - t_e_true),
            model.pdf,
            Support(lower, upper),
            abs_tol=HELLINGER_ABS_TOL[method],
            breakpoints=(t_e_true, model.support_lower()),
        )

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

    def evaluate(method: str, tail: TailFit | None, draw: _Draw):
        if method == "oracle":
            tau_i = 1.0 - draw.k / draw.n
            model = _oracle_model(fam, tau_i, LevelPair.intermediate(tau_i))
        else:
            model = tail.at(LevelPair.intermediate(tail.e.tau_i))
        q_true = float(fam.quantile(1.0 - tau_star * (1.0 - model.levels.tau_i)))
        return tail_equivalence_ratio(model, q_true, tau_star)

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

    def evaluate(method: str, tail: TailFit, draw: _Draw):
        law = tail.at(LevelPair.intermediate(tail.e.tau_i))
        var_hat, model_ext, _ = extreme_forecast(law, tau_star)
        tau_e = model_ext.levels.tau_e
        var_true = float(fam.quantile(tau_e))
        es_true = true_es(tau_e)
        es_hat = es_point_forecast(model_ext)
        return abs(var_hat - var_true) / abs(var_true), abs(es_hat - es_true) / abs(es_true)

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

    def __post_init__(self):
        _check_seed(self.seed, "ts-coverage")
        _check_methods(self.methods, ("ml", "pwm", "bayes"))
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")
        if not 0.0 < self.tau_star <= 1.0:
            raise DomainError(f"tau_star must lie in (0,1], got {self.tau_star}")
        if self.origins < 1:
            raise DomainError(f"origins must be positive, got {self.origins}")
        if not 1 <= self.k < self.window - 1:  # an AR(1) window keeps window - 1 residuals
            raise DomainError(f"k must satisfy 1 <= k < {self.window - 1}, got {self.k}")


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
    y = lfilter([1.0], [1.0, -cfg.phi], eps)[cfg.burn :]
    u_test = rng.random(cfg.origins)
    windows = [y[j * stride : j * stride + cfg.window] for j in range(cfg.origins)]

    def filtered(j: int):
        ar = fit_ar(windows[j], 1, intercept=True)  # uncentered innovations need the intercept
        rs = residual_pipeline(windows[j], ar)
        # the extreme levels' own check fires before the fit
        LevelPair.from_tau_star(1.0 - cfg.k / rs.residuals.size, cfg.tau_star)
        return rs

    origins = range(cfg.origins)
    samplers = [replace(cfg.sampler, seed=_rep_seed(cfg.seed, j, n_ctx=2)) for j in origins]
    _, laws = _origin_stage(filtered, origins, cfg.k, cfg.methods, cfg.prior, samplers)

    def evaluate(method: str, law, j: int):
        ext_levels = LevelPair.from_tau_star(law.levels.tau_i, cfg.tau_star)
        interval = predictive_interval(law.at(ext_levels), cfg.alpha)
        # regenerate the next step conditionally on a tail innovation
        tau_e_inn = ext_levels.tau_e
        eps_star = float(
            cfg.innovations.quantile(tau_e_inn + u_test[j] * (1.0 - tau_e_inn))
        )
        y_star = cfg.phi * windows[j][-1] + eps_star
        return int(not interval.contains(y_star))

    tallies = _replicate(cfg.methods, origins, laws, evaluate)
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
