"""Prior specification, GP posterior, and an independence sampler in theta = gamma/sigma.

Priors factor into a shape part and a scale part.  The shape prior must be
integrable on (-1/2, 0) and bounded on (0, inf); the scale prior is either
the improper log-uniform or a data-dependent family whose base density is
rescaled by a consistent scale estimate.  A :class:`PriorSpec` checks both
conditions numerically for a :class:`CustomShape`; the built-in shapes are
normalized densities, so they meet them by construction.  The built-in
densities take arrays; a user callable is evaluated once per value.

Sampling works in ``theta = gamma/sigma`` (Grimshaw 1993; Zhang & Stephens
2009, *Technometrics* 51(3)).  With ``S(theta) = sum(log1p(theta*x))`` over
the k excesses, a flat shape prior and a 1/sigma scale prior, ``S/gamma``
given theta is exactly Gamma(k - 1), so theta has the marginal
``m(theta) ~ |theta/S|^(k-1) exp(-S)`` times the Gamma mass that keeps
gamma in the shape prior's support.  An independence Metropolis sampler
proposes theta from a piecewise log-linear fit of ``log m`` on a grid
around its mode, plus a Cauchy outer component that covers the whole
line, then gamma from its exact conditional truncated to the shape
support.  The weight ``m/q`` times ``p_shape(gamma) p_scale(sigma) sigma``
makes the chain target the posterior of any :class:`PriorSpec` exactly.
Every proposal, its ``S(theta)`` (one proposals x k ``log1p`` block) and
its prior terms are arrays; only the accept/reject scan is sequential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericError, PriorError, SamplerError, SamplerHealthWarning
from .density import integrate_density
from .estimation import ExceedanceSet
from .gpd import GpParams, Support, gp_loglik

__all__ = [
    "TruncatedNormalShape", "UniformWindowShape", "CustomShape", "LogUniformScale",
    "DataDependentScale", "gamma_base_log_density", "PriorSpec", "default_prior",
    "SamplerConfig", "PosteriorSample", "PosteriorSummary", "log_prior",
    "log_posterior_unnorm", "sample_posterior", "sample_posteriors", "posterior_summary",
]

_SHAPE_LOWER = -0.5
_OUTER = 0.05  # share of theta proposals drawn from the Cauchy outer component
_NODES = 128  # grid nodes of the piecewise log-linear theta proposal
_DROP = 36.0  # the grid ends where log m has fallen this far below its top
_FLOOR = 50.0  # grid heights are held within this of the top
_BLOCK = 1 << 16  # (proposals x k) log1p values per block, to stay in cache
_ESS_FLOOR = 0.1  # a retained ESS of gamma under this share of the draws warns


def _each(fn, values: np.ndarray) -> np.ndarray:
    """A log-density on an array: at once for the built-in Gamma base, and
    once per value for a user callable."""
    if isinstance(fn, _GammaBase):
        return fn(values)
    return np.array([float(fn(v)) for v in values.tolist()], dtype=float)


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

    def log_density(self, gamma):
        g = np.asarray(gamma, dtype=float)
        z = (g - self.mean) / self.sd
        return np.where(g > _SHAPE_LOWER, -0.5 * z * z - self._log_norm, -np.inf)


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

    def log_density(self, gamma):
        g = np.asarray(gamma, dtype=float)
        return np.where((self.lo < g) & (g < self.hi), -math.log(self.hi - self.lo), -np.inf)


@dataclass(frozen=True)
class CustomShape:
    """User-supplied shape log-density on a declared support."""

    log_density_fn: Callable[[float], float]
    lo: float = _SHAPE_LOWER
    hi: float = math.inf

    @property
    def support(self) -> tuple[float, float]:
        return (max(self.lo, _SHAPE_LOWER), self.hi)

    def log_density(self, gamma):
        g = np.asarray(gamma, dtype=float)
        lo, hi = self.support
        inside = (lo < g) & (g < hi)
        out = np.full(g.shape, -np.inf)
        out[inside] = _each(self.log_density_fn, g[inside])
        return out


@dataclass(frozen=True)
class LogUniformScale:
    """Improper prior proportional to 1/sigma (uniform on log sigma)."""

    def log_density(self, sigma):
        s = np.asarray(sigma, dtype=float)
        return -np.log(s, out=np.full(s.shape, np.inf), where=s > 0.0)


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

    def log_density(self, sigma):
        x = np.asarray(sigma, dtype=float) / self.anchor
        out = np.full(x.shape, -np.inf)
        out[x > 0.0] = _each(self.base_log_density, x[x > 0.0]) - math.log(self.anchor)
        return out


@dataclass(frozen=True)
class _GammaBase:
    shape: float
    rate: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        log_norm = self.shape * math.log(self.rate) - math.lgamma(self.shape)
        log_x = np.log(x, out=np.zeros(x.shape), where=x > 0.0)
        return np.where(x > 0.0, log_norm + (self.shape - 1.0) * log_x - self.rate * x, -np.inf)


def gamma_base_log_density(shape: float = 1.0, rate: float = 1.0):
    """Log-density of a Gamma(shape, rate) base for data-dependent scale
    priors; it takes arrays."""
    if shape <= 0.0 or rate <= 0.0:
        raise PriorError("Gamma base parameters must be positive")
    return _GammaBase(float(shape), float(rate))


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
        lo, hi = self.shape.support
        upper = min(0.0, hi)
        if lo < upper:
            # integrability near the shape boundary: integrate in log distance
            # from the boundary (so boundary layers stay visible to quadrature)
            # and require that tightening the cutoff adds no further unit mass
            def in_log_distance(w):
                with np.errstate(over="ignore"):
                    return np.exp(self.shape.log_density(lo + np.exp(w))) * np.exp(w)

            def mass_above(cut: float) -> float:
                try:
                    return integrate_density(
                        in_log_distance, Support(math.log(cut), math.log(upper - lo))
                    )
                except NumericError:  # not finite, or no convergence: not integrable
                    return math.inf

            cuts = [c for c in (1e-4, 1e-8) if c < (upper - lo) / 4.0]
            masses = [mass_above(c) for c in cuts]
            if not all(math.isfinite(m) for m in masses) or (
                len(masses) == 2 and masses[1] - masses[0] > 1.0
            ):
                raise PriorError(
                    "shape prior is not integrable on the negative-shape range"
                )
        if hi > 0.0:
            # judged on the log-density, which may exceed the float range of
            # exp.  Growth is a rise over the grid's last quarter that goes on
            # past the point where its height is judged, so that no narrow
            # peak reads as growth, wherever it sits
            grid = np.geomspace(1e-9, hi if hi < math.inf else 1e12, 512)
            logd = self.shape.log_density(grid)
            if np.any(np.isnan(logd) | (logd == math.inf)):
                raise PriorError("shape prior is unbounded on the positive range")
            last = logd[384:]
            if (
                hi == math.inf
                and np.all(last[1:] >= last[:-1])
                and last[-2] > max(math.log(100.0), last[0] + math.log(1.5))
            ):
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
    return float(spec.shape.log_density(gamma) + spec.scale.log_density(sigma))


def log_posterior_unnorm(spec: PriorSpec, e: ExceedanceSet, theta) -> float:
    """Unnormalized log posterior: GP log-likelihood of the excesses plus log prior."""
    gamma, sigma = _theta_pair(theta)
    lp = log_prior(spec, theta)
    if lp == -math.inf:
        return -math.inf
    return gp_loglik(e.excesses)(gamma, math.log(sigma)) + lp


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    burn_in: int = 5_000
    draws: int = 20_000
    thin: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"sampler seed must be non-negative, got {self.seed}")
        if self.burn_in < 0 or min(self.draws, self.thin) < 1:
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
        if not 0.0 < self.acceptance_rate <= 1.0:
            raise SamplerError(
                f"acceptance rate {self.acceptance_rate!r} outside (0, 1]"
            )
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "sigmas", s)

    @property
    def m(self) -> int:
        return int(self.gammas.size)


def _log1p_sums(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``S(theta)`` of every theta: the (thetas x k) log1p block, by rows."""
    out = np.empty(theta.size)
    buf = np.empty((max(1, _BLOCK // x.size), x.size))
    for i in range(0, theta.size, buf.shape[0]):
        rows = slice(i, i + buf.shape[0])
        block = np.multiply(theta[rows, None], x, out=buf[: theta[rows].size])
        np.add.reduce(np.log1p(block, out=block), axis=1, out=out[rows])
    return out


def _log_marginal(phi, x, support):
    """``log m`` at ``phi = log1p(theta * max(x))``, up to a constant, and
    what the conditional of gamma needs there: ``S``, ``S/theta`` and the
    window ``(u1, u2)`` of the Gamma(k - 1) variable ``G = S/gamma`` that
    keeps gamma in ``support``, with the window ends' probabilities on the
    tail that keeps them small (the upper one where ``u1 > k - 1``)."""
    from scipy.special import gammainc, gammaincc

    a, (lo, hi) = x.size - 1.0, support
    theta = np.expm1(phi) / x[-1]
    S = _log1p_sums(theta, x)
    ratio = np.where(theta == 0.0, x.sum(), S / theta)
    # gamma has the sign of S, and |gamma| runs over (g_lo, g_hi)
    g_lo = np.where(S > 0.0, max(lo, 0.0), max(-hi, 0.0))
    g_hi = np.where(S > 0.0, hi, -lo)
    empty = g_hi <= g_lo
    u1 = np.where(empty, np.inf, np.abs(S) / g_hi)
    u2 = np.where(empty | (g_lo == 0.0), np.inf, np.abs(S) / g_lo)
    upper = u1 > a
    ends = np.empty((2, S.size))  # lower first
    ends[:, upper] = gammaincc(a, np.stack((u2[upper], u1[upper])))
    ends[:, ~upper] = gammainc(a, np.stack((u1[~upper], u2[~upper])))
    log_m = phi - a * np.log(ratio) - S + np.log(ends[1] - ends[0])
    return np.where(np.isnan(log_m), -np.inf, log_m), S, ratio, (u1, u2, upper, ends)


def _theta_grid(log_m):
    """Nodes and log heights of the proposal in phi: a zoom onto the mode of
    ``log m``, then nodes out to where it has fallen ``_DROP`` below it."""
    phi = np.linspace(-30.0, 30.0, 64)
    for _ in range(4):
        heights = log_m(phi)
        i = int(np.argmax(heights))
        if heights[i] == -np.inf:
            raise SamplerError("no value of gamma/sigma has positive posterior mass")
        mode, phi = phi[i], np.linspace(phi[max(i - 1, 0)], phi[min(i + 1, phi.size - 1)], 33)
    steps = 1e-3 * 2.0 ** np.arange(16)
    reach = []
    for side in (-1.0, 1.0):
        fallen = np.flatnonzero(~(log_m(mode + side * steps) > heights[i] - _DROP))
        reach.append(steps[fallen[0]] if fallen.size else steps[-1])
    nodes = np.linspace(mode - reach[0], mode + reach[1], _NODES)
    heights = log_m(nodes)
    return nodes, np.maximum(heights, heights.max() - _FLOOR)


def _chain(spec: PriorSpec, e: ExceedanceSet, cfg: SamplerConfig) -> PosteriorSample:
    """One chain: its proposals and weights as arrays, then the scan."""
    from scipy.special import gammaincinv, gammainccinv

    if e.n_excesses < 2:
        raise DomainError("posterior sampling needs at least 2 excesses")
    x, support = e.excesses, spec.shape_support
    a, n = x.size - 1.0, cfg.burn_in + cfg.draws * cfg.thin
    rng = np.random.default_rng(cfg.seed)
    u = rng.random((4, n))  # component and segment, place, gamma, acceptance
    with np.errstate(all="ignore"):
        nodes, heights = _theta_grid(lambda phi: _log_marginal(phi, x, support)[0])
        # phi from the grid: a segment by its mass, then a place in it by
        # inverting its exponential cdf; or from the Cauchy outer component
        h, d, top = nodes[1] - nodes[0], np.diff(heights), heights.max()
        flat = d == 0.0
        cum = np.cumsum(np.exp(heights[:-1] - top) * np.where(flat, 1.0, np.expm1(d) / d))
        j = np.minimum(np.searchsorted(cum, (u[0] - _OUTER) / (1.0 - _OUTER) * cum[-1]), d.size - 1)
        place = np.where(flat[j], u[1], np.log1p(u[1] * np.expm1(d[j])) / d[j])
        mode, width = nodes[np.argmax(heights)], 0.5 * (nodes[-1] - nodes[0])
        phi = np.where(u[0] >= _OUTER, nodes[j] + h * place,
                       mode + width * np.tan(np.pi * (u[1] - 0.5)))
        on_grid = np.interp(phi, nodes, heights, left=-np.inf, right=-np.inf) - top
        outer = math.log(_OUTER / (np.pi * width)) - np.log1p(((phi - mode) / width) ** 2)
        log_q = np.logaddexp(math.log1p(-_OUTER) + on_grid - np.log(h * cum[-1]), outer)
        # G = S/gamma from Gamma(k - 1) inside its window: by inversion,
        # or drawn directly where the window is the whole half-line
        log_m, S, ratio, (u1, u2, upper, ends) = _log_marginal(phi, x, support)
        level = ends[0] + u[2] * (ends[1] - ends[0])
        free, G = (u1 == 0.0) & (u2 == np.inf), np.empty(n)
        for rows, inverse in ((upper & ~free, gammainccinv), (~(upper | free), gammaincinv)):
            G[rows] = inverse(a, level[rows])
        G[free] = rng.standard_gamma(a, int(free.sum()))
        gammas, sigmas = S / G, ratio / G
        log_w = (log_m - log_q + spec.shape.log_density(gammas)
                 + spec.scale.log_density(sigmas) + np.log(sigmas))
    log_w = np.where(np.isfinite(log_w), log_w, -np.inf)
    if not (log_w > -np.inf).any():
        raise SamplerError("no proposal has positive posterior mass")
    cur = first = int(np.argmax(log_w > -np.inf))  # the chain starts there
    top, moves, states = log_w[first], 0, [first] * (first + 1)
    for i, w, log_u in zip(range(first + 1, n), log_w[first + 1 :].tolist(),
                           np.log(u[3, first + 1 :]).tolist()):
        if w - top > log_u:
            cur, top = i, w
            moves += i >= cfg.burn_in
        states.append(cur)
    kept = np.array(states[cfg.burn_in :: cfg.thin])
    return _finish(spec, e, cfg, gammas[kept], sigmas[kept], moves)


def _finish(spec, e, cfg, out_g, out_s, moves: int) -> PosteriorSample:
    """The retained draws, with health warnings named at the sampler's caller."""
    if moves == 0:
        raise SamplerError("chain rejected every proposal after burn-in")
    ess, (lo, hi) = (_ess(out_g), _ess(out_s)), spec.shape_support
    edge = 0.02 * (hi - lo)
    near = np.mean((out_g < lo + edge) | (out_g > hi - edge)) if math.isfinite(hi) else 0.0
    for bad, message in (
        (ess[0] < _ESS_FLOOR * out_g.size, f"retained ESS of gamma {ess[0]:.0f} is "
         f"under {_ESS_FLOOR:.0%} of the {out_g.size} draws"),
        (near > 0.2, f"{near:.0%} of shape draws pile against the prior window "
         f"({lo}, {hi}); the window may exclude the data-supported region"),
    ):
        if bad:
            warnings.warn(message, SamplerHealthWarning, stacklevel=4)
    return PosteriorSample(
        gammas=out_g, sigmas=out_s, acceptance_rate=moves / (cfg.draws * cfg.thin),
        burn_in=cfg.burn_in, thin=cfg.thin, seed=cfg.seed, ess=ess,
        threshold=e.threshold, shape_support=spec.shape_support,
    )


def sample_posterior(
    spec: PriorSpec, e: ExceedanceSet, cfg: SamplerConfig
) -> PosteriorSample:
    """Independence Metropolis on ``(gamma, theta = gamma/sigma)``.

    ``cfg.burn_in + cfg.draws * cfg.thin`` proposals are scanned; the first
    ``burn_in`` states are discarded, then every ``thin``-th is kept.
    Deterministic given ``cfg.seed``.  Emits :class:`SamplerHealthWarning`
    when the retained ESS of gamma is under 10% of the draws or when draws
    pile up against a finite shape-prior boundary.
    """
    return _chain(spec, e, cfg)


def sample_posteriors(
    specs: Sequence[PriorSpec], es: Sequence[ExceedanceSet], cfgs: Sequence[SamplerConfig]
) -> list[PosteriorSample | DomainError | SamplerError]:
    """:func:`sample_posterior` of every ``(spec, e, cfg)``, each equal to the
    one-chain call bit for bit.  A chain that cannot run gives its exception
    in its place, and the others still run."""
    out: list = []
    for spec, e, cfg in zip(specs, es, cfgs, strict=True):
        try:
            out.append(_chain(spec, e, cfg))
        except (DomainError, SamplerError) as exc:
            out.append(exc)
    return out


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
