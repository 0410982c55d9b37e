"""Independent references the benchmark checks the program against.

Nothing here imports ``tailcast``.  The GP formulas are written out from
their definitions, the mixture cdf is built on ``scipy.stats.genpareto``,
and the Hellinger reference integrates panel by panel between every
draw's support onset and endpoint, where the integrand is smooth.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import genpareto


def exceedances(values: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Threshold at the (n-k)-th order statistic and the positive excesses."""
    x = np.sort(np.asarray(values, dtype=float))
    threshold = float(x[x.size - k - 1])
    e = x[x.size - k:] - threshold
    return threshold, e[e > 0.0]


def gp_loglik(gamma: float, sigma: float, e: np.ndarray) -> float:
    """GP log-likelihood of excesses ``e``; -inf outside the support."""
    if sigma <= 0.0:
        return -math.inf
    if gamma == 0.0:
        return float(-e.size * math.log(sigma) - e.sum() / sigma)
    w = 1.0 + gamma * e / sigma
    if np.any(w <= 0.0):
        return -math.inf
    return float(-e.size * math.log(sigma) - (1.0 + 1.0 / gamma) * np.log(w).sum())


def gp_mean_nll_grad(gamma: float, sigma: float, e: np.ndarray) -> np.ndarray:
    """Gradient of the mean negative log-likelihood in (gamma, log sigma).

    With u = e/sigma and w = 1 + gamma*u:
    d/dgamma = -mean(log w)/gamma^2 + (1 + 1/gamma) mean(u/w),
    d/dlog sigma = 1 - (1 + gamma) mean(u/w).
    """
    u = e / sigma
    w = 1.0 + gamma * u
    mean_ratio = float(np.mean(u / w))
    d_gamma = -float(np.mean(np.log(w))) / gamma**2 + (1.0 + 1.0 / gamma) * mean_ratio
    d_log_sigma = 1.0 - (1.0 + gamma) * mean_ratio
    return np.array([d_gamma, d_log_sigma])


def scipy_fit_loglik(e: np.ndarray) -> float:
    """Log-likelihood at ``scipy.stats.genpareto.fit(floc=0)``."""
    c, _, scale = genpareto.fit(e, floc=0.0)
    return float(np.sum(genpareto.logpdf(e, c, loc=0.0, scale=scale)))


def gp_quantile(gamma: float, sigma: float, p: float) -> float:
    if gamma == 0.0:
        return -sigma * math.log1p(-p)
    return sigma * math.expm1(-gamma * math.log1p(-p)) / gamma


class Mixture:
    """Equal-weight mixture of affine GP laws ``t + m_j + s_j * GP(g_j, sig_j)``.

    At tail ratio r the peak above the extreme threshold is
    ``t + sigma (r^-gamma - 1)/gamma + r^-gamma * U`` with ``U ~ GP(gamma,
    sigma)``: the threshold-stability shift written in closed form.
    """

    def __init__(self, gammas, sigmas, threshold: float, tau_star: float):
        self.g = np.asarray(gammas, dtype=float)
        self.sig = np.asarray(sigmas, dtype=float)
        self.t = float(threshold)
        if tau_star == 1.0:
            self.s = np.ones_like(self.g)
            self.m = np.zeros_like(self.g)
        else:
            self.s = tau_star ** -self.g
            self.m = np.where(
                self.g == 0.0,
                -self.sig * math.log(tau_star),
                self.sig * (self.s - 1.0) / np.where(self.g == 0.0, 1.0, self.g),
            )
        self.onsets = self.t + self.m
        with np.errstate(divide="ignore"):
            self.ends = np.where(
                self.g < 0.0, self.onsets + self.s * self.sig / -self.g, np.inf
            )

    def cdf(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty(y.size)
        for i, v in enumerate(y):
            z = (v - self.onsets) / self.s
            out[i] = genpareto.cdf(z, self.g, loc=0.0, scale=self.sig).mean()
        return out

    def pdf(self, y: np.ndarray) -> np.ndarray:
        """Mixture density on an array of points, in row blocks."""
        y = np.asarray(y, dtype=float)
        out = np.empty(y.size)
        for a in range(0, y.size, 256):
            z = (y[a:a + 256, None] - self.onsets) / self.s
            out[a:a + 256] = (_gp_pdf(self.g, self.sig, z) / self.s).mean(axis=1)
        return out

    def mean(self) -> float:
        return float(np.mean(self.onsets + self.s * self.sig / (1.0 - self.g)))


def _gp_pdf(g, sig, z):
    """GP density from its definition, 0 outside the support."""
    g = np.broadcast_to(g, z.shape)
    sig = np.broadcast_to(sig, z.shape)
    w = 1.0 + g * z / sig
    ok = (z >= 0.0) & (w > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe_g = np.where(g == 0.0, 1.0, g)
        expo = np.where(g == 0.0, -z / sig, -(1.0 / safe_g + 1.0) * np.log(w))
        val = np.exp(expo) / sig
    return np.where(ok, val, 0.0)


_GL = {p: np.polynomial.legendre.leggauss(p) for p in (10, 20)}


def _panel_integral(fun, edges: np.ndarray, nodes: int) -> float:
    """Gauss-Legendre on every panel between consecutive ``edges``."""
    x, w = _GL[nodes]
    a, b = edges[:-1], edges[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[:, None] + half[:, None] * x[None, :]
    vals = fun(pts.ravel()).reshape(pts.shape)
    return float(np.sum(vals * w[None, :] * half[:, None]))


def hellinger_reference(
    true_gamma: float, true_sigma: float, true_onset: float, mix: Mixture
) -> tuple[float, float]:
    """Hellinger distance between ``true_onset + GP(true)`` and ``mix``.

    Panels break at every draw's onset and endpoint and at the true law's
    onset and endpoint.  The half-line past the last breakpoint is mapped
    onto (0, 1) through ``x = b + L t/(1-t)`` and split geometrically
    toward t = 1.  Returns the distance and an error estimate for the
    integral 2 H^2: the gap between 10- and 20-node rules on the same panels.
    """
    true_end = (
        true_onset + true_sigma / -true_gamma if true_gamma < 0.0 else math.inf
    )

    def f(y):
        return _gp_pdf(true_gamma, true_sigma, y - true_onset)

    def integrand(y):
        d = np.sqrt(f(y)) - np.sqrt(np.maximum(mix.pdf(y), 0.0))
        return d * d

    breaks = np.concatenate([mix.onsets, mix.ends, [true_onset, true_end]])
    breaks = np.unique(breaks[np.isfinite(breaks)])
    bounded = true_gamma < 0.0 and np.all(np.isfinite(mix.ends))
    last = float(breaks[-1])
    scale = float(np.max(mix.s * mix.sig)) + true_sigma

    def tail(t):
        one_minus = 1.0 - t
        y = last + scale * t / one_minus
        return integrand(y) * scale / (one_minus * one_minus)

    t_edges = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, 45)])
    vals = []
    for nodes in (10, 20):
        total = _panel_integral(integrand, breaks, nodes)
        if not bounded:
            total += _panel_integral(tail, t_edges, nodes)
        vals.append(total)
    return math.sqrt(max(0.5 * vals[1], 0.0)), abs(vals[1] - vals[0])
