"""Location-scale filtering and one-step-ahead conditional peak prediction.

An observable series ``Y_i = mu_i + xi_i * eps_i`` is reduced to
approximately iid residuals through an AR least-squares fit, a GARCH(1,1)
Gaussian quasi-likelihood fit, or externally supplied filter outputs.  The
peaks-over-threshold machinery then runs on the residuals, and the
resulting predictive law is mapped back to the observable scale with the
one-step-ahead location and scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .bayes import PriorSpec, SamplerConfig
from .errors import (
    BoundaryWarning,
    DegenerateDataError,
    DomainError,
    EstimationError,
    TailcastError,
)
from .estimation import SortedSample, select_exceedances
from .gpd import LevelPair
from .predict import PredictiveModel, fit_tail, predictive_interval
from .risk import var_from_predictive

__all__ = [
    "ArModel",
    "Garch11Model",
    "ResidualSeries",
    "AffinePredictive",
    "RollingConfig",
    "fit_ar",
    "fit_garch11",
    "residual_pipeline",
    "residuals_from_filter",
    "conditional_predictive",
    "rolling_forecast",
]

_GARCH_WARMUP = 10  # recursion-initialization transient dropped from POT fitting
_GARCH_MAX_PERSISTENCE = 0.9995
# fit_garch11 runs one projected Newton search from the best cell of a coarse
# (alpha, beta) grid: alpha at 0 and log-spaced from 0.01 to 0.8, beta with
# 1 - beta log-spaced from 1 to 0.01, cells past the persistence cap skipped.
_GARCH_GRID_ALPHA = np.concatenate([[0.0], np.geomspace(0.01, 0.8, 15)])
_GARCH_GRID_BETA = 1.0 - np.geomspace(1.0, 0.01, 16)
# When that search ends with alpha below this, beta is weakly identified and
# nearly iid input can give the quasi-likelihood several basins, so the fit
# also searches from the fixed starts below and keeps the best end point.  On
# 150 iid windows of n = 1,000, a threshold of 0.02 left 5 fits in a worse
# basin than the four starts alone, 0.05 none; on 100 simulated GARCH
# windows, 0.05 fired on 9.
_GARCH_FALLBACK_ALPHA = 0.05
# (alpha, beta) starts of the fallback; the low-alpha, high-beta one reaches
# the basin each of the other three tends to miss on nearly iid input.  On
# the alpha = 0 face the variance drifts from mean(e^2) at rate beta, which
# can have basins of its own, searched when the best alpha is below 0.01.
_GARCH_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.02, 0.50), (0.01, 0.98))
_GARCH_FACE_STARTS = ((0.0, 0.5), (0.0, 0.9), (0.0, 0.98), (0.0, 0.995))
_GARCH_FACE_ALPHA = 0.01
# a search stops when a step, or the step its model predicts, lowers the
# objective by at most this much, relative (SLSQP's ftol before it)
_GARCH_FTOL = 1e-14
_GARCH_MAX_STEPS = 100
# outward normals in (alpha, beta) of alpha >= 0, beta >= 0 and
# alpha + beta <= cap, and bases of the steps that keep each one binding
_GARCH_NORMALS = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
_GARCH_BASES = {(): np.eye(4), (0,): np.eye(4)[:, [0, 1, 3]], (1,): np.eye(4)[:, :3],
                (2,): np.c_[np.eye(4)[:, :2], [0.0, 0.0, 1.0, -1.0]]}


def __getattr__(name: str):
    # `minimize` (no longer called here; perfbench/tracing.py wraps it) is
    # imported on first access (PEP 562), so scipy stays off the import path
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize

    return minimize


@dataclass(frozen=True)
class ArModel:
    """Autoregression with unit scale: ``mu_i = c + sum_j phi_j * Y_{i-j}``.

    The intercept defaults to 0 (the plain autoregressive location form);
    fitting with an intercept absorbs a nonzero innovation mean.
    """

    coefficients: np.ndarray
    fitted_on: int
    intercept: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.coefficients, dtype=float)
        if phi.ndim != 1 or phi.size < 1 or not np.all(np.isfinite(phi)):
            raise DomainError("AR coefficients must be a finite nonempty vector")
        if not math.isfinite(self.intercept):
            raise DomainError("AR intercept must be finite")
        object.__setattr__(self, "coefficients", phi)

    @property
    def order(self) -> int:
        return int(self.coefficients.size)


@dataclass(frozen=True)
class Garch11Model:
    """GARCH(1,1) around a constant mean, covariance stationary."""

    omega: float
    alpha: float
    beta: float
    mean: float
    fitted_on: int

    def __post_init__(self):
        if self.omega <= 0.0 or self.alpha < 0.0 or self.beta < 0.0:
            raise DomainError("GARCH parameters must satisfy omega>0, alpha,beta>=0")
        if self.alpha + self.beta >= 1.0:
            raise DomainError("GARCH persistence alpha+beta must stay below 1")


LocScaleModel = ArModel | Garch11Model


@dataclass(frozen=True)
class ResidualSeries:
    """Standardized residuals with the one-step-ahead filter outputs.

    All arrays are aligned past the warm-up prefix, so
    ``series[skipped_prefix + i] == mu[i] + xi[i] * residuals[i]``.
    """

    residuals: np.ndarray
    mu: np.ndarray
    xi: np.ndarray
    mu_next: float
    xi_next: float
    skipped_prefix: int

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        if r.size < 1 or not np.all(np.isfinite(r)):
            raise DomainError("residuals must be finite and nonempty")
        if self.xi_next <= 0.0:
            raise DomainError(f"one-step-ahead scale must be positive, got {self.xi_next}")
        if np.any(np.asarray(self.xi) <= 0.0):
            raise DomainError("filter scales must be positive")


def fit_ar(series, p: int, intercept: bool = False) -> ArModel:
    """Ordinary least squares on the lagged design.

    Use ``intercept=True`` when the innovations are not centered; the
    intercept-free form forces the regression line through the origin and
    is badly biased for series with a nonzero location.
    """
    y = np.asarray(series, dtype=float)
    if p < 1:
        raise DomainError(f"AR order must be at least 1, got {p}")
    if y.size <= 10 * p:
        raise DomainError(f"series of length {y.size} is too short for AR({p})")
    if float(np.ptp(y)) == 0.0:
        raise DegenerateDataError("constant series: lagged design is rank deficient")
    cols = [y[p - j - 1 : y.size - j - 1] for j in range(p)]
    if intercept:
        cols.append(np.ones(y.size - p))
    design = np.column_stack(cols)
    target = y[p:]
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateDataError(
            f"lagged design has rank {rank} < {design.shape[1]}; "
            "coefficients unidentified"
        )
    c = float(coef[-1]) if intercept else 0.0
    return ArModel(coefficients=coef[:p], fitted_on=y.size, intercept=c)


def _garch_sigma2(y_centered_sq: np.ndarray, omega: float, alpha: float, beta: float):
    """Variance recursion, vectorized through a linear filter."""
    from scipy.signal import lfilter

    n = y_centered_sq.size
    s2_0 = float(np.mean(y_centered_sq))
    c = omega + alpha * y_centered_sq[:-1]
    tail, _ = lfilter([1.0], [1.0, -beta], c, zi=np.array([beta * s2_0]))
    out = np.empty(n)
    out[0] = s2_0
    out[1:] = tail
    return out


def _garch_neg_qll(params, y, hessian: bool = False):
    """Gaussian negative quasi-log-likelihood per observation and its gradient,
    and with ``hessian`` its Hessian too.

    ``params = (mean, log omega, alpha, beta)``.  The derivatives of the
    variance path obey the same linear recursion as the variance itself,
    ``d s2_t = c_t + beta * d s2_{t-1}``, with ``c_t`` equal to
    ``-2 alpha e_{t-1}`` (mean), ``omega`` (log omega), ``e_{t-1}^2``
    (alpha) and ``s2_{t-1}`` (beta); they start from the derivative of
    the initial variance ``s2_0 = mean(e^2)``, which depends on the mean
    only.  The second derivatives obey it too, driven by the derivatives of
    ``c_t`` (``2 alpha``, ``-2 e_{t-1}``, ``omega``, and ``d s2_{t-1}`` in
    the pairs that hold beta) and started at ``d^2 s2_0 / d mean^2 = 2``.
    """
    from scipy.signal import lfilter

    mu, log_omega, alpha, beta = params
    omega = math.exp(log_omega)
    n = y.size
    e = y - mu
    sq = e * e
    s2 = _garch_sigma2(sq, omega, alpha, beta)
    ratio = sq / s2
    value = 0.5 * float((np.log(s2) + ratio).sum()) / n
    drivers = np.empty((4, n - 1))
    drivers[0] = -2.0 * alpha * e[:-1]
    drivers[1] = omega
    drivers[2] = sq[:-1]
    drivers[3] = s2[:-1]
    ds2 = np.zeros((4, n))
    ds2[0, 0] = -2.0 * float(e.sum()) / n
    ds2[:, 1:], _ = lfilter([1.0], [1.0, -beta], drivers, axis=1, zi=beta * ds2[:, :1])
    w = (1.0 - ratio) / s2
    grad = ds2[:, 1:] @ w[1:]
    grad += ds2[:, 0] * w[0]
    grad *= 0.5 / n
    grad[0] -= float((e / s2).sum()) / n
    if not hessian:
        return value, grad
    # (mean, mean), (mean, alpha) and the pairs with beta; (log omega,
    # log omega) is row 1 of ds2, and the other pairs vanish
    second = np.vstack([np.full(n - 1, 2.0 * alpha), -2.0 * e[:-1], ds2[:3, :-1],
                        2.0 * ds2[3, :-1]])
    tail, _ = lfilter([1.0], [1.0, -beta], second, axis=1, zi=2.0 * beta * np.eye(6, 1))
    upper = np.zeros((4, 4))
    upper[(0, 0, 0, 1, 2, 3), (0, 2, 3, 3, 3, 3)] = tail @ w[1:]
    upper[0, 0] += 2.0 * w[0]
    upper[1, 1] = ds2[1, 1:] @ w[1:]
    hess = (ds2 * ((2.0 * ratio - 1.0) / (s2 * s2))) @ ds2.T + upper + np.triu(upper, 1).T
    # the mean enters the squared deviations as well as the variance path
    cross = 2.0 * (ds2 @ (e / (s2 * s2)))
    hess[0] += cross
    hess[:, 0] += cross
    hess[0, 0] += 2.0 * float((1.0 / s2).sum())
    return value, grad, hess * (0.5 / n)


def _garch_grid_neg_qll(z: np.ndarray) -> np.ndarray:
    """:func:`_garch_neg_qll` at ``(0, log(1 - alpha - beta), alpha, beta)``
    on every cell of the ``(alpha, beta)`` grid, without the gradient.

    With the mean at 0 and ``omega = 1 - alpha - beta`` (variance targeting
    on the standardized ``z``), ``d_t = s2_t - 1`` obeys
    ``d_t = alpha (z_{t-1}^2 - 1) + beta d_{t-1}``, so for a fixed ``beta``
    the variance path is linear in ``alpha``:
    ``s2_t = 1 + beta^t (s2_0 - 1) + alpha G_t`` with ``G`` one linear
    filter of ``z^2 - 1``.  A column of cells costs one filter pass and
    one (cells x n) log.  Rows are ``alpha``, columns ``beta``; cells past
    the persistence cap are ``inf``.
    """
    from scipy.signal import lfilter

    n = z.size
    sq = z * z
    s2_0 = float(np.mean(sq))
    drive = sq[:-1] - 1.0
    steps = np.arange(n)
    g = np.zeros(n)
    out = np.full((_GARCH_GRID_ALPHA.size, _GARCH_GRID_BETA.size), np.inf)
    for j, beta in enumerate(_GARCH_GRID_BETA):
        rows = _GARCH_GRID_ALPHA <= _GARCH_MAX_PERSISTENCE - beta
        g[1:] = lfilter([1.0], [1.0, -beta], drive)
        s2 = 1.0 + beta**steps * (s2_0 - 1.0) + _GARCH_GRID_ALPHA[rows, None] * g
        out[rows, j] = 0.5 * (np.log(s2) + sq / s2).sum(axis=1) / n
    return out


def _garch_search_neg_qll(v, z):
    """:func:`_garch_neg_qll` with its Hessian in the search's coordinates
    ``(mean, log(omega / (1 - beta)), alpha, beta)``: on the ``alpha = 0``
    face the valley keeps ``omega / (1 - beta)``, the level the variance
    drifts to, nearly fixed, so it is straight here and curved in log omega."""
    q = 1.0 / (1.0 - v[3])
    x = np.array([v[0], v[1] - math.log(q), v[2], v[3]])
    value, grad, hess = _garch_neg_qll(x, z, hessian=True)
    hess[:, 3] -= q * hess[:, 1]  # d log omega / d beta = -q
    hess[3] -= q * hess[1]
    hess[3, 3] -= q * q * grad[1]
    grad[3] -= q * grad[1]
    return value, grad, hess


def _garch_newton(z: np.ndarray, alpha: float, beta: float):
    """Projected Newton search (Bertsekas 1982) from ``(alpha, beta)``, mean
    0 and ``omega = 1 - alpha - beta``: ``(value or inf, (mean, log omega,
    alpha, beta))``.  Each step keeps the constraints binding that the
    gradient presses against (positive first-order multipliers), takes the
    Newton step on the exact Hessian (eigenvalues in absolute value) in the
    other directions, and halves it until its projection on the feasible
    set lowers the objective enough (Armijo)."""
    cap = _GARCH_MAX_PERSISTENCE
    v = np.array([0.0, math.log((1.0 - alpha - beta) / (1.0 - beta)), alpha, beta])
    f, g, h = _garch_search_neg_qll(v, z)
    for _ in range(_GARCH_MAX_STEPS):
        # a step along the cap moves alpha + beta by rounding, hence 1e-12
        on = [i for i, s in enumerate((v[2], v[3], cap - v[2] - v[3])) if s <= 1e-12]
        while on:
            lam = np.linalg.lstsq(_GARCH_NORMALS[on].T, -g[2:], rcond=None)[0]
            if lam.min() > 0.0:
                break
            on.pop(int(np.argmin(lam)))
        basis = _GARCH_BASES.get(tuple(on), np.eye(4)[:, :2])  # two binding: alpha, beta fixed
        ev, vec = np.linalg.eigh(basis.T @ h @ basis)
        ev = np.maximum(np.abs(ev), 1e-16 * np.abs(ev).max())
        step = -basis @ (vec @ (vec.T @ (basis.T @ g) / ev))
        if -float(g @ step) <= _GARCH_FTOL * abs(f):
            break  # the projected gradient vanishes
        t = 1.0
        for _ in range(30):
            trial = v + t * step
            a, b = max(trial[2], 0.0), max(trial[3], 0.0)
            if a + b > cap:  # the nearest point of the cap
                a = min(max(a - 0.5 * (a + b - cap), 0.0), cap)
                b = cap - a
            trial[2:] = a, b
            try:
                ft, gt, ht = _garch_search_neg_qll(trial, z)
            except OverflowError:  # exp(log omega) of a step far too long
                ft = math.inf
            if ft < f and ft <= f + 1e-4 * float(g @ (trial - v)):
                break
            t *= 0.5
        else:
            break  # no lower point along the step: converged to rounding
        v, g, h, f, f_old = trial, gt, ht, ft, f
        if f_old - f <= _GARCH_FTOL * abs(f_old):
            break
    x = np.array([v[0], v[1] + math.log(1.0 - v[3]), v[2], v[3]])
    return (f if f < math.inf else math.inf), x


def fit_garch11(series) -> Garch11Model:
    """Gaussian quasi-maximum-likelihood GARCH(1,1) fit.

    The variance recursion is initialized at the mean squared deviation
    from the fitted mean.  The fit runs on the standardized series in two
    steps.  A coarse ``(alpha, beta)`` grid, with the mean at 0 and
    ``omega`` set by variance targeting (see :func:`_garch_grid_neg_qll`),
    picks one start.  From it one projected Newton search on the exact
    Hessian (see :func:`_garch_newton`) runs over ``(mean, log omega, alpha,
    beta)`` within ``alpha, beta >= 0`` and ``alpha + beta <= 0.9995``.  When
    the search ends with ``alpha`` below ``_GARCH_FALLBACK_ALPHA``, where
    ``beta`` is weakly identified and nearly iid input can give the
    quasi-likelihood several basins, the search also runs from the four
    ``_GARCH_STARTS``, and when the best end point then has ``alpha`` below
    ``_GARCH_FACE_ALPHA``, from the ``_GARCH_FACE_STARTS`` on the face too;
    the best end point is kept.  Near-unit persistence is reported with a
    :class:`BoundaryWarning`; a solver failure raises
    :class:`EstimationError`.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 250:
        raise DomainError(f"GARCH fitting needs at least 250 observations, have {n}")
    if not np.all(np.isfinite(y)):
        raise DomainError("series contains non-finite values")
    var_y = float(np.var(y))
    if var_y == 0.0:
        raise DegenerateDataError("constant series: variance recursion is degenerate")
    guard_len = max(20, n // 10)
    if float(np.ptp(y[-guard_len:])) == 0.0:
        raise DegenerateDataError(
            "recursion guard: zero-variance tail segment in the series"
        )

    # The search runs on the standardized series: the quasi-likelihood is
    # affine-equivariant (mean and sqrt(omega) scale with the data).
    loc = float(np.mean(y))
    scale = math.sqrt(var_y)
    z = (y - loc) / scale
    cells = _garch_grid_neg_qll(z)
    i, j = np.unravel_index(np.argmin(cells), cells.shape)
    try:
        # the line search rejects, and does not report, overflowing trial points
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            start = float(_GARCH_GRID_ALPHA[i]), float(_GARCH_GRID_BETA[j])
            results = [_garch_newton(z, *start)]
            if not (results[0][0] < math.inf and results[0][1][2] >= _GARCH_FALLBACK_ALPHA):
                results += [_garch_newton(z, a0, b0) for a0, b0 in _GARCH_STARTS]
                if min(results, key=itemgetter(0))[1][2] < _GARCH_FACE_ALPHA:
                    results += [_garch_newton(z, a0, b0) for a0, b0 in _GARCH_FACE_STARTS]
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise EstimationError(
            f"GARCH quasi-likelihood maximization failed: {exc}"
        ) from exc
    value, x = min(results, key=itemgetter(0))
    if value == math.inf:
        raise EstimationError("GARCH quasi-likelihood maximization failed")
    mu_z, log_omega_z, alpha, beta = map(float, x)
    if alpha + beta > 0.98:
        warnings.warn(
            f"GARCH persistence alpha+beta = {alpha + beta:.4f} presses the "
            "stationarity boundary",
            BoundaryWarning,
            stacklevel=2,
        )
    return Garch11Model(
        omega=var_y * math.exp(log_omega_z),
        alpha=alpha,
        beta=beta,
        mean=loc + scale * mu_z,
        fitted_on=n,
    )


def residual_pipeline(series, model: LocScaleModel) -> ResidualSeries:
    """Filter a series into residuals and one-step-ahead location/scale."""
    y = np.asarray(series, dtype=float)
    if isinstance(model, ArModel):
        p = model.order
        if y.size <= p:
            raise DomainError(f"series shorter than the AR order {p}")
        phi = model.coefficients
        design = np.column_stack([y[p - j - 1 : y.size - j - 1] for j in range(p)])
        mu = model.intercept + design @ phi
        residuals = y[p:] - mu
        xi = np.ones_like(residuals)
        mu_next = model.intercept + float(np.dot(phi, y[-1 : -p - 1 : -1]))
        return ResidualSeries(
            residuals=residuals,
            mu=mu,
            xi=xi,
            mu_next=mu_next,
            xi_next=1.0,
            skipped_prefix=p,
        )
    if isinstance(model, Garch11Model):
        if y.size <= _GARCH_WARMUP:
            raise DomainError("series shorter than the GARCH warm-up prefix")
        sq = (y - model.mean) ** 2
        s2 = _garch_sigma2(sq, model.omega, model.alpha, model.beta)
        xi_all = np.sqrt(s2)
        residuals = (y - model.mean) / xi_all
        xi_next = math.sqrt(
            model.omega + model.alpha * sq[-1] + model.beta * s2[-1]
        )
        w = _GARCH_WARMUP
        return ResidualSeries(
            residuals=residuals[w:],
            mu=np.full(y.size - w, model.mean),
            xi=xi_all[w:],
            mu_next=model.mean,
            xi_next=xi_next,
            skipped_prefix=w,
        )
    raise DomainError(f"unknown filter model {type(model).__name__}")


def residuals_from_filter(series, mu, xi, mu_next: float, xi_next: float) -> ResidualSeries:
    """Adopt externally computed filter outputs (any volatility model)."""
    y = np.asarray(series, dtype=float)
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not (y.shape == mu.shape == xi.shape):
        raise DomainError("series, mu, and xi must be aligned")
    if np.any(xi <= 0.0):
        raise DomainError("external filter scales must be positive")
    return ResidualSeries(
        residuals=(y - mu) / xi,
        mu=mu,
        xi=xi,
        mu_next=float(mu_next),
        xi_next=float(xi_next),
        skipped_prefix=0,
    )


class AffinePredictive(PredictiveModel):
    """A residual-scale predictive law mapped to the observable scale.

    Densities carry the 1/scale Jacobian; quantiles and intervals map
    affinely, so the observable-scale interval is exactly
    ``loc + scale * residual interval``.
    """

    def __init__(self, inner: PredictiveModel, loc: float, scale: float):
        if scale <= 0.0:
            raise DomainError(f"affine scale must be positive, got {scale}")
        self.residual_model = inner
        self.loc = float(loc)
        self.scale = float(scale)
        self.kind = f"conditional-{inner.kind}"
        self.levels = inner.levels
        self.mass_check_tol = inner.mass_check_tol

    @property
    def threshold(self) -> float:
        return self.loc + self.scale * self.residual_model.threshold

    def cdf(self, y):
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        return self.residual_model.cdf(z if np.ndim(y) else float(z))

    def pdf(self, y):
        z = (np.asarray(y, dtype=float) - self.loc) / self.scale
        return self.residual_model.pdf(z if np.ndim(y) else float(z)) / self.scale

    def quantile(self, prob):
        return self.loc + self.scale * self.residual_model.quantile(prob)

    def mean(self) -> float:
        return self.loc + self.scale * self.residual_model.mean()

    def support_lower(self) -> float:
        return self.loc + self.scale * self.residual_model.support_lower()

    def support_upper(self) -> float:
        return self.loc + self.scale * self.residual_model.support_upper()

    def at(self, levels: LevelPair) -> AffinePredictive:
        return AffinePredictive(self.residual_model.at(levels), self.loc, self.scale)


def conditional_predictive(
    rs: ResidualSeries,
    k: int,
    levels: LevelPair | None,
    method: str = "ml",
    prior: PriorSpec | None = None,
    sampler: SamplerConfig | None = None,
) -> AffinePredictive:
    """Predictive law of the next observation given it exceeds the extreme level.

    Builds the residual-scale predictive exactly as the iid machinery would
    on the residual array, then wraps it with the one-step-ahead affine
    map.  ``levels=None`` uses the intermediate level implied by ``k``.
    """
    e = select_exceedances(SortedSample.from_data(rs.residuals), k)
    tail = fit_tail(e, method, prior, sampler)
    inner = tail.at(LevelPair.intermediate(e.tau_i) if levels is None else levels)
    return AffinePredictive(inner, rs.mu_next, rs.xi_next)


@dataclass(frozen=True)
class RollingConfig:
    filter: str = "ar"  # "ar" | "garch11" | "external"
    ar_order: int = 1
    k: int = 100
    tau_e: float = 0.999
    alpha: float = 0.01
    method: str = "ml"
    seed: int = 0
    sampler: SamplerConfig | None = None
    prior: PriorSpec | None = None


def _origin_seed(root: int, origin: int) -> int:
    return int(np.random.SeedSequence([root, origin]).generate_state(1)[0])


def rolling_forecast(series, window: int, stride: int, cfg: RollingConfig) -> list[dict]:
    """Refit, filter, and forecast on successive windows.

    ``stride == window`` reproduces a disjoint-window scheme.  Each row
    carries the one-step-ahead point forecast of the extreme quantile and
    its predictive interval on the observable scale.  A per-origin package,
    arithmetic or linear-algebra failure is recorded in the row's ``error``
    field and the run continues; any other exception is a bug and
    propagates.
    """
    arr = np.asarray(series, dtype=float)
    external = cfg.filter == "external"
    if external:
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DomainError("external filtering expects columns (y, mu, xi)")
        y_all = arr[:, 0]
    else:
        if arr.ndim != 1:
            raise DomainError("expected a univariate series")
        y_all = arr
    n = y_all.size
    if window > n:
        raise DomainError(f"window {window} exceeds the series length {n}")
    if stride < 1:
        raise DomainError(f"stride must be positive, got {stride}")

    rows: list[dict] = []
    for origin in range(0, n - window + 1, stride):
        j_target = origin + window
        row: dict = {"origin": origin, "target": j_target}
        try:
            y = y_all[origin:j_target]
            if external:
                if j_target >= n:
                    raise DomainError("external filter has no row for the target step")
                seg = arr[origin:j_target]
                rs = residuals_from_filter(
                    y, seg[:, 1], seg[:, 2],
                    mu_next=float(arr[j_target, 1]),
                    xi_next=float(arr[j_target, 2]),
                )
            elif cfg.filter == "ar":
                rs = residual_pipeline(y, fit_ar(y, cfg.ar_order))
            elif cfg.filter == "garch11":
                rs = residual_pipeline(y, fit_garch11(y))
            else:
                raise DomainError(f"unknown filter {cfg.filter!r}")

            n_res = rs.residuals.size
            tau_i = 1.0 - cfg.k / n_res
            if cfg.tau_e < tau_i:
                raise DomainError(
                    f"tau_e={cfg.tau_e} lies below the intermediate level {tau_i:.4f}"
                )
            tau_star = (1.0 - cfg.tau_e) / (1.0 - tau_i)
            sampler = replace(
                cfg.sampler or SamplerConfig(), seed=_origin_seed(cfg.seed, origin)
            )
            model_int = conditional_predictive(
                rs, cfg.k, None, cfg.method, cfg.prior, sampler
            )
            model_ext = model_int.at(LevelPair.from_tau_star(tau_i, tau_star))
            point = var_from_predictive(model_int, tau_star)
            interval = predictive_interval(model_ext, cfg.alpha)
            realized = float(y_all[j_target]) if j_target < n else math.nan
            row.update(
                mu_next=rs.mu_next,
                xi_next=rs.xi_next,
                threshold_obs=model_int.threshold,
                point=point,
                lower=interval.lower,
                upper=interval.upper,
                realized=realized,
                error="",
            )
        except (TailcastError, ArithmeticError, np.linalg.LinAlgError) as exc:
            row.update(
                mu_next=math.nan, xi_next=math.nan, threshold_obs=math.nan,
                point=math.nan, lower=math.nan, upper=math.nan,
                realized=math.nan, error=str(exc),
            )
        rows.append(row)
    return rows
