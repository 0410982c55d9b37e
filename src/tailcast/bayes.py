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

:func:`sample_posteriors` runs many chains in lockstep, one step of all of
them at a time.  Each chain keeps its own generator, start, proposal,
adaptation and trace, on Python floats; only the log1p sums of chains with
the same excess count are one (chains x k) block, whose rows equal the
one-chain sums bit for bit and go to :func:`~tailcast.gpd.gp_loglik`, the
likelihood both loops use.  So every chain gives :func:`sample_posterior`'s
draws, at less dispatch cost per step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    EstimationError,
    DegenerateDataError,
    NumericError,
    PriorError,
    SamplerError,
    SamplerHealthWarning,
)
from .density import integrate_density
from .estimation import ExceedanceSet, fit_ml, _negloglik_grad
from .gpd import GpParams, Support, gp_loglik

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
    "sample_posteriors",
    "posterior_summary",
]

_SHAPE_LOWER = -0.5
_CHOL_ENTRIES = ((0, 1, 1), (0, 0, 1))  # l00, l10, l11 of a lower 2x2 factor
_SCALE_FACTOR = 2.38**2 / 2.0  # proposal scale for d = 2
# Fewer chains than this step one at a time: the lockstep block's fixed cost
# per step then outweighs the dispatch it saves (measured at k = 50 to 500,
# where 2 chains took 1.14-1.45 times as long in lockstep and 4 chains 0.85-0.98)
_LOCKSTEP_MIN_CHAINS = 4


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
            def in_log_distance(w):
                return np.array([dens(lo + math.exp(v)) * math.exp(v) for v in w])

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
            logd = np.array([self.shape.log_density(g) for g in grid])
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
    return spec.shape.log_density(gamma) + spec.scale.log_density(sigma)


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
    adapt_interval: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"sampler seed must be non-negative, got {self.seed}")
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
    """Inverse observed information at the ML fit; diagonal fallback.  The
    difference in gamma is one-sided where a step back would cross -1/2."""
    if fit is None:
        return np.diag([0.01, 0.01])
    theta = np.array([fit.params.gamma, math.log(fit.params.sigma)])
    h = 1e-5
    hess = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        one_sided = j == 0 and theta[0] - h <= _SHAPE_LOWER
        back, width = (theta, h) if one_sided else (theta - step, 2.0 * h)
        hess[:, j] = (
            _negloglik_grad(theta + step, e.excesses)
            - _negloglik_grad(back, e.excesses)
        ) / width
    hess = 0.5 * (hess + hess.T) * e.excesses.size
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return np.diag([0.01, 0.01])
    if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0.0):
        return np.diag([0.01, 0.01])
    return cov


def _log_posterior(spec: PriorSpec, e: ExceedanceSet):
    """``logpost(gamma, log_sigma)``: the chain's target on Python floats."""
    loglik = gp_loglik(e.excesses)
    shape_logpdf = spec.shape.log_density
    scale_logpdf = spec.scale.log_density

    def logpost(gamma: float, log_sigma: float) -> float:
        lp = shape_logpdf(gamma) + scale_logpdf(math.exp(log_sigma))
        if lp == -math.inf:
            return -math.inf
        # + log_sigma: Jacobian of the log-scale reparameterization
        return loglik(gamma, log_sigma) + lp + log_sigma

    return logpost


@dataclass(frozen=True)
class _Chain:
    """A chain before its first step: its target, start and first proposal."""

    spec: PriorSpec
    e: ExceedanceSet
    cfg: SamplerConfig
    logpost: Callable[[float, float], float]
    start: tuple[float, float, float]  # gamma, log sigma, log posterior
    chol: tuple[float, float, float]  # l00, l10, l11 of the proposal factor

    @property
    def total(self) -> int:
        return self.cfg.burn_in + self.cfg.draws * self.cfg.thin

    def draws(self) -> tuple[np.ndarray, np.ndarray]:
        """The (steps x 2) proposal normals and the log uniforms of each step."""
        rng = np.random.default_rng(self.cfg.seed)
        return rng.standard_normal((self.total, 2)), np.log(rng.random(self.total))


def _start(spec: PriorSpec, e: ExceedanceSet, cfg: SamplerConfig) -> _Chain:
    """Set a chain up: one ML fit gives its start and its first proposal."""
    if e.n_excesses < 2:
        raise DomainError("posterior sampling needs at least 2 excesses")
    logpost = _log_posterior(spec, e)
    try:
        fit = fit_ml(e)
    except (EstimationError, DegenerateDataError, DomainError):
        fit = None
    g0, ls0 = _initial_state(spec, e, logpost, fit)
    cov = _initial_proposal_cov(e, fit)
    chol = np.linalg.cholesky(_SCALE_FACTOR * cov + 1e-12 * np.eye(2))
    return _Chain(
        spec, e, cfg, logpost, (g0, ls0, logpost(g0, ls0)),
        tuple(chol[_CHOL_ENTRIES].tolist()),
    )


def _adapt(history: np.ndarray) -> tuple[float, float, float] | None:
    """The proposal factor from a (steps x 2) C-order history, or None to keep
    the current one.  np.cov of its transpose: another layout changes its bits."""
    emp = np.cov(history.T)
    if not np.all(np.isfinite(emp)):
        return None
    try:
        chol = np.linalg.cholesky(_SCALE_FACTOR * emp + 1e-10 * np.eye(2))
    except np.linalg.LinAlgError:
        return None
    return tuple(chol[_CHOL_ENTRIES].tolist())


def _steps(chain: _Chain):
    """One chain's Metropolis loop on Python floats: the traces of gamma and
    log sigma, and the moves accepted after burn-in."""
    burn_in, every = chain.cfg.burn_in, chain.cfg.adapt_interval
    logpost = chain.logpost
    z, log_u = chain.draws()
    z0, z1, log_u = z[:, 0].tolist(), z[:, 1].tolist(), log_u.tolist()
    l00, l10, l11 = chain.chol
    g_cur, ls_cur, lp_cur = chain.start
    history = np.empty((burn_in, 2))
    trace_g: list[float] = []
    trace_ls: list[float] = []
    filled = accepted_tail = 0

    for i in range(chain.total):
        g_prop = g_cur + l00 * z0[i]
        ls_prop = ls_cur + (l10 * z0[i] + l11 * z1[i])
        lp_prop = logpost(g_prop, ls_prop)
        if lp_prop - lp_cur > log_u[i]:
            g_cur, ls_cur, lp_cur = g_prop, ls_prop, lp_prop
            if i >= burn_in:
                accepted_tail += 1
        trace_g.append(g_cur)
        trace_ls.append(ls_cur)
        if i < burn_in and (i + 1) % every == 0:
            history[filled : i + 1, 0] = trace_g[filled:]
            history[filled : i + 1, 1] = trace_ls[filled:]
            filled = i + 1
            l00, l10, l11 = _adapt(history[: i + 1]) or (l00, l10, l11)
    return trace_g, trace_ls, accepted_tail


def _lockstep(chains: list[_Chain]):
    """The Metropolis loops of chains with the same settings and excess count,
    one step at a time: per chain, the proposal, the prior and the
    acceptance are :func:`_steps`'s on Python floats, and the log1p sums of
    every chain are one (chains x k) block, each row of whose ``add.reduce``
    equals the 1-D sum bit for bit; each chain's likelihood combines its
    row in :func:`~tailcast.gpd.gp_loglik`.  Returns the (steps x chains)
    traces of gamma and log sigma and the accepted moves per chain.
    """
    cfg = chains[0].cfg
    burn_in, every, total = cfg.burn_in, cfg.adapt_interval, chains[0].total
    n = len(chains)
    x = np.stack([c.e.excesses for c in chains])
    buf = np.empty_like(x)
    coef = np.empty((n, 1))
    z0, z1, log_u = (np.empty((total, n)) for _ in range(3))
    for j, c in enumerate(chains):
        z, lu = c.draws()
        z0[:, j], z1[:, j], log_u[:, j] = z[:, 0], z[:, 1], lu
    trace_g, trace_ls = np.empty((total, n)), np.empty((total, n))
    g_cur = [c.start[0] for c in chains]
    ls_cur = [c.start[1] for c in chains]
    lp_cur = [c.start[2] for c in chains]
    chol = [c.chol for c in chains]
    logliks = [gp_loglik(c.e.excesses) for c in chains]
    priors = [(c.spec.shape.log_density, c.spec.scale.log_density) for c in chains]
    accepted = [0] * n
    neg_inf = -math.inf

    for i in range(total):
        props = []  # (gamma, log sigma, log prior)
        ratios = []  # gamma/sigma, the row's coefficient; 0 outside the prior
        for g, ls, (l00, l10, l11), za, zb, (shape_lp, scale_lp) in zip(
            g_cur, ls_cur, chol, z0[i].tolist(), z1[i].tolist(), priors
        ):
            g += l00 * za
            ls += l10 * za + l11 * zb
            sigma = math.exp(ls)
            lp = shape_lp(g) + scale_lp(sigma)
            props.append((g, ls, lp))
            ratios.append(0.0 if lp == neg_inf else g / sigma)
        coef[:, 0] = ratios
        np.multiply(x, coef, out=buf)
        # a row past its endpoint holds -inf or nan, and gp_loglik rejects it
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = np.add.reduce(np.log1p(buf, out=buf), axis=1).tolist()
        post = i >= burn_in
        for j, ((g, ls, lp), s, lu, loglik) in enumerate(
            zip(props, sums, log_u[i].tolist(), logliks)
        ):
            if lp != neg_inf:
                lp = loglik(g, ls, s) + lp + ls
            if lp - lp_cur[j] > lu:
                g_cur[j], ls_cur[j], lp_cur[j] = g, ls, lp
                accepted[j] += post
        trace_g[i] = g_cur
        trace_ls[i] = ls_cur
        if i < burn_in and (i + 1) % every == 0:
            for j in range(n):
                history = np.stack((trace_g[: i + 1, j], trace_ls[: i + 1, j]), axis=1)
                chol[j] = _adapt(history) or chol[j]
    return trace_g, trace_ls, accepted


def _finish(chain: _Chain, trace_g, trace_ls, accepted_tail: int) -> PosteriorSample:
    """The retained draws of a whole trace, with health warnings named at the
    sampler's caller."""
    cfg, spec = chain.cfg, chain.spec
    out_g = np.array(trace_g[cfg.burn_in :: cfg.thin])
    # math.exp, not np.exp: the two differ in the last bit on some arguments
    out_s = np.array([math.exp(v) for v in trace_ls[cfg.burn_in :: cfg.thin]])

    post_iters = cfg.draws * cfg.thin
    if accepted_tail == 0:
        raise SamplerError("chain rejected every proposal after burn-in")
    rate = accepted_tail / post_iters
    if not 0.1 <= rate <= 0.6:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside [0.1, 0.6] after adaptation",
            SamplerHealthWarning,
            stacklevel=3,
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
                stacklevel=3,
            )

    return PosteriorSample(
        gammas=out_g,
        sigmas=out_s,
        acceptance_rate=rate,
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        seed=cfg.seed,
        ess=(_ess(out_g), _ess(out_s)),
        threshold=chain.e.threshold,
        shape_support=spec.shape_support,
    )


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
    chain = _start(spec, e, cfg)
    return _finish(chain, *_steps(chain))


def sample_posteriors(
    specs: Sequence[PriorSpec], es: Sequence[ExceedanceSet], cfgs: Sequence[SamplerConfig]
) -> list[PosteriorSample | DomainError | SamplerError]:
    """:func:`sample_posterior` of every ``(spec, e, cfg)``, chains in lockstep.

    Chains with the same excess count and the same settings but the seed
    advance together (:func:`_lockstep`); a group of fewer than
    ``_LOCKSTEP_MIN_CHAINS`` runs the scalar loop, which is faster there.
    Every chain keeps its own generator, start, proposal, adaptation and
    trace, so each result equals :func:`sample_posterior`'s bit for bit.
    A chain that cannot start, or rejects every proposal, gives its
    exception in place of a sample, and the others still run.
    """
    out: list = [None] * len(es)
    groups: dict = {}
    for j, (spec, e, cfg) in enumerate(zip(specs, es, cfgs, strict=True)):
        try:
            chain = _start(spec, e, cfg)
        except (DomainError, SamplerError) as exc:
            out[j] = exc
        else:
            groups.setdefault((e.n_excesses, replace(cfg, seed=0)), []).append((j, chain))
    for members in groups.values():
        chains = [chain for _, chain in members]
        if len(chains) < _LOCKSTEP_MIN_CHAINS:
            traces = [_steps(chain) for chain in chains]
        else:
            trace_g, trace_ls, accepted = _lockstep(chains)
            # one chain's floats at a time: a list per chain would outweigh the arrays
            traces = (
                (trace_g[:, j], trace_ls[:, j].tolist(), accepted[j])
                for j in range(len(chains))
            )
        for (j, chain), trace in zip(members, traces):
            try:
                out[j] = _finish(chain, *trace)
            except (DomainError, SamplerError) as exc:
                out[j] = exc
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
