"""Prior specification, GP posterior, and an adaptive random-walk sampler.

Priors factor into a shape part and a scale part.  The shape prior must be
integrable on (-1/2, 0) and bounded on (0, inf); the scale prior is either
the improper log-uniform or a data-dependent family whose base density is
rescaled by a consistent scale estimate.  A :class:`PriorSpec` checks both
conditions numerically for a :class:`CustomShape`; the built-in shapes are
normalized densities, so they meet them by construction.

Sampling runs a random-walk Metropolis chain on ``(gamma, log sigma)``
whose proposal covariance adapts toward ``2.38^2/2`` times the empirical
posterior covariance during burn-in and is frozen afterwards, so the
retained chain is a valid time-homogeneous Markov chain.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    DegenerateDataError,
    PriorError,
    SamplerError,
    SamplerHealthWarning,
)
from .estimation import ExceedanceSet, fit_ml, _negloglik_grad
from .gpd import GAMMA_ZERO_TOL, GpParams, gp_logpdf_vec

__all__ = [
    "TruncatedNormalShape",
    "UniformWindowShape",
    "CustomShape",
    "LogUniformScale",
    "DataDependentScale",
    "gamma_base_log_density",
    "PriorSpec",
    "default_prior",
    "SamplerConfig",
    "PosteriorSample",
    "PosteriorSummary",
    "log_prior",
    "log_posterior_unnorm",
    "sample_posterior",
    "posterior_summary",
]

_SHAPE_LOWER = -0.5
_CHOL_ENTRIES = ((0, 1, 1), (0, 0, 1))  # l00, l10, l11 of a lower 2x2 factor


@dataclass(frozen=True)
class TruncatedNormalShape:
    """Normal density truncated to (-1/2, inf)."""

    mean: float = 0.0
    sd: float = 10.0
    _log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sd <= 0.0:
            raise PriorError("truncated-normal sd must be positive")
        # normalization of the truncation; erfc underflows to 0 about 27 sd
        # below the bound, and the product overflows for sd near 1e308
        tail = 0.5 * math.erfc((_SHAPE_LOWER - self.mean) / (self.sd * math.sqrt(2)))
        norm = self.sd * math.sqrt(2 * math.pi) * tail
        if not 0.0 < norm < math.inf:
            raise PriorError(
                f"truncated-normal prior ({self.mean}, {self.sd}) has no "
                "representable normalization above -1/2"
            )
        object.__setattr__(self, "_log_norm", math.log(norm))

    @property
    def support(self) -> tuple[float, float]:
        return (_SHAPE_LOWER, math.inf)

    def log_density(self, gamma: float) -> float:
        if gamma <= _SHAPE_LOWER:
            return -math.inf
        z = (gamma - self.mean) / self.sd
        return -0.5 * z * z - self._log_norm


@dataclass(frozen=True)
class UniformWindowShape:
    """Uniform density on a window (lo, hi) inside (-1/2, inf)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (_SHAPE_LOWER <= self.lo < self.hi) or not math.isfinite(self.hi):
            raise PriorError(
                f"uniform window must satisfy -1/2 <= lo < hi < inf, "
                f"got ({self.lo}, {self.hi})"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def log_density(self, gamma: float) -> float:
        if self.lo < gamma < self.hi:
            return -math.log(self.hi - self.lo)
        return -math.inf


@dataclass(frozen=True)
class CustomShape:
    """User-supplied shape log-density on a declared support."""

    log_density_fn: Callable[[float], float]
    lo: float = _SHAPE_LOWER
    hi: float = math.inf

    @property
    def support(self) -> tuple[float, float]:
        return (max(self.lo, _SHAPE_LOWER), self.hi)

    def log_density(self, gamma: float) -> float:
        lo, hi = self.support
        if not lo < gamma < hi:
            return -math.inf
        return float(self.log_density_fn(gamma))


@dataclass(frozen=True)
class LogUniformScale:
    """Improper prior proportional to 1/sigma (uniform on log sigma)."""

    def log_density(self, sigma: float) -> float:
        if sigma <= 0.0:
            return -math.inf
        return -math.log(sigma)


@dataclass(frozen=True)
class DataDependentScale:
    """Base density on (0, inf) rescaled by a consistent scale anchor.

    Evaluates as ``base(sigma / anchor) / anchor``.
    """

    base_log_density: Callable[[float], float]
    anchor: float

    def __post_init__(self):
        if not (math.isfinite(self.anchor) and self.anchor > 0.0):
            raise PriorError(f"scale anchor must be positive, got {self.anchor}")

    def log_density(self, sigma: float) -> float:
        if sigma <= 0.0:
            return -math.inf
        return float(self.base_log_density(sigma / self.anchor)) - math.log(self.anchor)


def gamma_base_log_density(shape: float = 1.0, rate: float = 1.0):
    """Log-density of a Gamma(shape, rate) base for data-dependent scale priors."""
    if shape <= 0.0 or rate <= 0.0:
        raise PriorError("Gamma base parameters must be positive")
    log_norm = shape * math.log(rate) - math.lgamma(shape)

    def logpdf(x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return log_norm + (shape - 1.0) * math.log(x) - rate * x

    return logpdf


@dataclass(frozen=True)
class PriorSpec:
    """Validated shape/scale prior pair.

    Construction runs the numeric gate on a :class:`CustomShape`: the shape
    prior must integrate to a finite value over (-1/2, 0) and be bounded on
    (0, inf).  The built-in shapes are normalized densities, so integrable
    and bounded by construction.
    """

    shape: TruncatedNormalShape | UniformWindowShape | CustomShape
    scale: LogUniformScale | DataDependentScale

    def __post_init__(self):
        if isinstance(self.shape, CustomShape):
            self._check_shape_prior()

    def _check_shape_prior(self):
        from scipy.integrate import quad

        lo, hi = self.shape.support

        def dens(g):
            v = self.shape.log_density(g)
            if v == -math.inf:
                return 0.0
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf

        upper = min(0.0, hi)
        if lo < upper:
            # integrability near the shape boundary: integrate in log distance
            # from the boundary (so boundary layers stay visible to quadrature)
            # and require that tightening the cutoff adds no further unit mass
            def mass_above(cut: float) -> float:
                a, b = math.log(cut), math.log(upper - lo)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    val, _ = quad(
                        lambda w: dens(lo + math.exp(w)) * math.exp(w),
                        a, b, limit=200,
                    )
                return val

            cuts = [c for c in (1e-4, 1e-8) if c < (upper - lo) / 4.0]
            masses = [mass_above(c) for c in cuts]
            if not all(math.isfinite(m) for m in masses) or (
                len(masses) == 2 and masses[1] - masses[0] > 1.0
            ):
                raise PriorError(
                    "shape prior is not integrable on the negative-shape range"
                )
        if hi > 0.0:
            grid_hi = min(hi, 1e4)
            grid = np.linspace(1e-9, grid_hi, 512)
            vals = np.array([dens(g) for g in grid])
            if not np.all(np.isfinite(vals)):
                raise PriorError("shape prior is unbounded on the positive range")
            if hi == math.inf and vals[-1] > 100.0 and vals[-1] > 1.5 * vals[256]:
                raise PriorError(
                    "shape prior keeps growing on the positive range; "
                    "its supremum looks unbounded"
                )

    @property
    def shape_support(self) -> tuple[float, float]:
        return self.shape.support

    @property
    def es_compatible(self) -> bool:
        """Whether the shape support stays strictly below 1 (finite tail means)."""
        return self.shape_support[1] <= 1.0


def default_prior(scale_anchor: float) -> PriorSpec:
    """Diffuse shape prior with a data-dependent exponential-type scale prior."""
    return PriorSpec(
        shape=TruncatedNormalShape(0.0, 10.0),
        scale=DataDependentScale(gamma_base_log_density(1.0, 1.0), scale_anchor),
    )


def _theta_pair(theta) -> tuple[float, float]:
    if isinstance(theta, GpParams):
        return theta.gamma, theta.sigma
    gamma, sigma = float(theta[0]), float(theta[1])
    return gamma, sigma


def log_prior(spec: PriorSpec, theta) -> float:
    """Log prior density; -inf encodes exclusion from the parameter space."""
    gamma, sigma = _theta_pair(theta)
    if gamma <= _SHAPE_LOWER or sigma <= 0.0:
        return -math.inf
    return spec.shape.log_density(gamma) + spec.scale.log_density(sigma)


def log_posterior_unnorm(spec: PriorSpec, e: ExceedanceSet, theta) -> float:
    """Unnormalized log posterior: GP log-likelihood of the excesses plus log prior."""
    gamma, sigma = _theta_pair(theta)
    lp = log_prior(spec, theta)
    if lp == -math.inf:
        return -math.inf
    ll = float(np.sum(gp_logpdf_vec(gamma, sigma, e.excesses)))
    return ll + lp


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    burn_in: int = 5_000
    draws: int = 20_000
    thin: int = 1
    adapt_interval: int = 100

    def __post_init__(self):
        if self.burn_in < 0 or min(self.draws, self.thin, self.adapt_interval) < 1:
            raise DomainError("sampler configuration counts are out of range")


@dataclass(frozen=True)
class PosteriorSample:
    """Retained posterior draws plus chain diagnostics."""

    gammas: np.ndarray
    sigmas: np.ndarray
    acceptance_rate: float
    burn_in: int
    thin: int
    seed: int
    ess: tuple[float, float]
    threshold: float
    shape_support: tuple[float, float]

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if g.size < 1 or g.shape != s.shape:
            raise DomainError("posterior draws must be nonempty and aligned")
        if np.any(g <= _SHAPE_LOWER) or np.any(s <= 0.0):
            raise DomainError("posterior draws violate the parameter space")
        if not 0.0 < self.acceptance_rate < 1.0:
            raise SamplerError(
                f"acceptance rate {self.acceptance_rate!r} outside (0, 1)"
            )
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "sigmas", s)

    @property
    def m(self) -> int:
        return int(self.gammas.size)


def _initial_state(spec, e, logpost, fit):
    """ML fit if the prior admits it, else a point inside the prior support."""
    if fit is not None:
        start = (fit.params.gamma, math.log(fit.params.sigma))
        if math.isfinite(logpost(*start)):
            return start
    lo, hi = spec.shape_support
    mid = 0.5 * (lo + min(hi, lo + 2.0))
    for sigma0 in (float(np.mean(e.excesses)), float(np.median(e.excesses)), 1.0):
        cand = (mid, math.log(sigma0))
        if math.isfinite(logpost(*cand)):
            return cand
    raise SamplerError("could not find a starting point with positive posterior mass")


def _initial_proposal_cov(e, fit):
    """Inverse observed information at the ML fit; diagonal fallback."""
    if fit is None:
        return np.diag([0.01, 0.01])
    theta = np.array([fit.params.gamma, math.log(fit.params.sigma)])
    h = 1e-5
    hess = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        hess[:, j] = (
            _negloglik_grad(theta + step, e.excesses)
            - _negloglik_grad(theta - step, e.excesses)
        ) / (2.0 * h)
    hess = 0.5 * (hess + hess.T) * e.excesses.size
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return np.diag([0.01, 0.01])
    if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0.0):
        return np.diag([0.01, 0.01])
    return cov


def sample_posterior(
    spec: PriorSpec, e: ExceedanceSet, cfg: SamplerConfig
) -> PosteriorSample:
    """Adaptive random-walk Metropolis on ``(gamma, log sigma)``.

    Proposal covariance adapts during burn-in toward ``2.38^2/2`` times the
    running posterior covariance and is frozen afterwards.  Deterministic
    given ``cfg.seed``.  Emits :class:`SamplerHealthWarning` when the
    post-adaptation acceptance rate leaves [0.1, 0.6] or when draws pile up
    against a finite shape-prior boundary.
    """
    if e.n_excesses < 2:
        raise DomainError("posterior sampling needs at least 2 excesses")
    x = e.excesses
    k = x.size
    x_sum = float(np.sum(x))
    x_max = float(x[-1])
    shape_logpdf = spec.shape.log_density
    scale_logpdf = spec.scale.log_density
    buf = np.empty_like(x)

    def logpost(gamma: float, log_sigma: float) -> float:
        if gamma <= _SHAPE_LOWER:
            return -math.inf
        sigma = math.exp(log_sigma)
        if gamma < 0.0 and x_max * (-gamma) >= sigma:
            return -math.inf
        lp = shape_logpdf(gamma) + scale_logpdf(sigma)
        if lp == -math.inf:
            return -math.inf
        if abs(gamma) < GAMMA_ZERO_TOL:
            ll = -k * log_sigma - x_sum / sigma
        else:
            # the pairwise sum np.sum takes, without a temporary per call
            np.multiply(x, gamma / sigma, out=buf)
            ll = -k * log_sigma - (1.0 + 1.0 / gamma) * float(
                np.add.reduce(np.log1p(buf, out=buf))
            )
        # + log_sigma: Jacobian of the log-scale reparameterization
        return ll + lp + log_sigma

    rng = np.random.default_rng(cfg.seed)
    try:  # one ML fit seeds both the starting point and the proposal
        fit = fit_ml(e)
    except (EstimationError, DegenerateDataError, DomainError):
        fit = None
    g_cur, ls_cur = _initial_state(spec, e, logpost, fit)
    lp_cur = logpost(g_cur, ls_cur)

    burn_in = cfg.burn_in
    total = burn_in + cfg.draws * cfg.thin
    z = rng.standard_normal((total, 2))
    log_u = np.log(rng.random(total)).tolist()
    z0, z1 = z[:, 0].tolist(), z[:, 1].tolist()

    cov = _initial_proposal_cov(e, fit)
    scale_factor = 2.38**2 / 2.0
    chol = np.linalg.cholesky(scale_factor * cov + 1e-12 * np.eye(2))
    l00, l10, l11 = chol[_CHOL_ENTRIES].tolist()

    # np.cov of this C-order array's transpose: another layout changes its bits
    history = np.empty((burn_in, 2))
    trace_g: list[float] = []
    trace_ls: list[float] = []
    filled = accepted_tail = 0

    for i in range(total):
        g_prop = g_cur + l00 * z0[i]
        ls_prop = ls_cur + (l10 * z0[i] + l11 * z1[i])
        lp_prop = logpost(g_prop, ls_prop)
        if lp_prop - lp_cur > log_u[i]:
            g_cur, ls_cur, lp_cur = g_prop, ls_prop, lp_prop
            if i >= burn_in:
                accepted_tail += 1
        trace_g.append(g_cur)
        trace_ls.append(ls_cur)
        if i < burn_in and (i + 1) % cfg.adapt_interval == 0:
            history[filled : i + 1, 0] = trace_g[filled:]
            history[filled : i + 1, 1] = trace_ls[filled:]
            filled = i + 1
            emp = np.cov(history[: i + 1].T)
            if np.all(np.isfinite(emp)):
                try:
                    chol = np.linalg.cholesky(scale_factor * emp + 1e-10 * np.eye(2))
                    l00, l10, l11 = chol[_CHOL_ENTRIES].tolist()
                except np.linalg.LinAlgError:
                    pass
    out_g = np.array(trace_g[burn_in :: cfg.thin])
    # math.exp, not np.exp: the two differ in the last bit on some arguments
    out_s = np.array([math.exp(v) for v in trace_ls[burn_in :: cfg.thin]])

    post_iters = cfg.draws * cfg.thin
    if accepted_tail == 0:
        raise SamplerError("chain rejected every proposal after burn-in")
    rate = accepted_tail / post_iters
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside [0.1, 0.6] after adaptation",
            SamplerHealthWarning,
            stacklevel=2,
        )
    lo, hi = spec.shape_support
    if math.isfinite(hi):
        width = hi - lo
        near = np.mean(
            (out_g < lo + 0.02 * width) | (out_g > hi - 0.02 * width)
        )
        if near > 0.2:
            warnings.warn(
                f"{near:.0%} of shape draws pile against the prior window "
                f"({lo}, {hi}); the window may exclude the data-supported region",
                SamplerHealthWarning,
                stacklevel=2,
            )

    ess = (_ess(out_g), _ess(out_s))
    return PosteriorSample(
        gammas=out_g,
        sigmas=out_s,
        acceptance_rate=rate,
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        seed=cfg.seed,
        ess=ess,
        threshold=e.threshold,
        shape_support=spec.shape_support,
    )


def _ess(chain: np.ndarray) -> float:
    """Effective sample size via the initial monotone sequence estimator."""
    n = chain.size
    if n < 8:
        return float(n)
    x = chain - chain.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    pair_sums = []
    i = 0
    while i + 1 < n:
        s = rho[i] + rho[i + 1]
        if s <= 0.0:
            break
        pair_sums.append(s)
        i += 2
    for j in range(1, len(pair_sums)):
        pair_sums[j] = min(pair_sums[j], pair_sums[j - 1])
    iact = max(-1.0 + 2.0 * sum(pair_sums), 1.0)
    return float(n / iact)


@dataclass(frozen=True)
class PosteriorSummary:
    mean_gamma: float
    mean_sigma: float
    ci_gamma: tuple[float, float]
    ci_sigma: tuple[float, float]
    level: float
    endpoint_mean: float | None = None
    ci_endpoint: tuple[float, float] | None = None
    prob_finite_endpoint: float = 0.0


def posterior_summary(
    ps: PosteriorSample, level: float = 0.95, threshold: float | None = None
) -> PosteriorSummary:
    """Posterior means and equal-tailed credible intervals from the draws.

    Endpoint summaries (``threshold - sigma/gamma``) are computed over the
    draws with negative shape; the threshold defaults to the one the
    posterior was fit at.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"credible level must lie in (0,1), got {level}")
    if ps.m < 100:
        raise DomainError(f"need at least 100 draws for interval output, have {ps.m}")
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    g, s = ps.gammas, ps.sigmas
    ci_g = (float(np.quantile(g, lo_q)), float(np.quantile(g, hi_q)))
    ci_s = (float(np.quantile(s, lo_q)), float(np.quantile(s, hi_q)))
    t = ps.threshold if threshold is None else threshold
    neg = g < 0.0
    endpoint_mean = None
    ci_end = None
    if np.any(neg):
        endpoints = t - s[neg] / g[neg]
        endpoint_mean = float(np.mean(endpoints))
        ci_end = (
            float(np.quantile(endpoints, lo_q)),
            float(np.quantile(endpoints, hi_q)),
        )
    return PosteriorSummary(
        mean_gamma=float(np.mean(g)),
        mean_sigma=float(np.mean(s)),
        ci_gamma=ci_g,
        ci_sigma=ci_s,
        level=level,
        endpoint_mean=endpoint_mean,
        ci_endpoint=ci_end,
        prob_finite_endpoint=float(np.mean(neg)),
    )
