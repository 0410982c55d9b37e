"""Hellinger distance between densities by adaptive Gauss–Kronrod quadrature.

Densities are evaluated on arrays: every ``f``, ``g`` or ``pdf`` passed
here takes a 1-D float array of points and returns an array of the same
shape, 0 outside its own support.  One globally adaptive G7/K15 rule
handles bounded and unbounded supports: the half-line is mapped onto
(0, 1) through ``x = lower + t/(1-t)`` so the integrand stays proper.
Each refinement round evaluates the densities once, on the 15 nodes of
every new panel.  Distances are the square root of half the integrated
squared difference of root densities, so values live in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .gpd import Support

__all__ = ["hellinger", "integrate_density"]

_ABS_TOL = 1e-8
_MAX_PANELS = 2000
# The first round cuts every breakpoint segment into this many equal panels:
# on one or two coarse panels the K15 - G7 gap can miss a mixture's
# staircase of onsets altogether and stop early (see ROADMAP)
_FIRST_PANELS = 16
# On the half-line the last panel is also cut geometrically toward t = 1,
# out to x - lower of about 2^28 times the panel's start: a heavy tail
# leaves a cusp (1-t)^(1/gamma - 1) there that one panel's K15 - G7 gap misses.
# A bounded support has its first and last panels cut the same way toward
# its ends, so a density many scales narrower than the support still meets
# first-round nodes
_TAIL_GRADE = 0.5 ** np.arange(1, 25)

# 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule on its odd
# nodes (QUADPACK's qk15 constants; Piessens et al. 1983)
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1:8:2] = _WG
_GAUSS[13:7:-2] = _WG[:3]


def _first_panels(edges: np.ndarray) -> np.ndarray:
    """Cut each segment between consecutive ``edges`` into equal panels."""
    cuts = edges[:-1, None] + np.diff(edges)[:, None] * (
        np.arange(1, _FIRST_PANELS) / _FIRST_PANELS
    )
    return np.unique(np.concatenate([edges, cuts.ravel()]))


def _adaptive_gk(fun, edges: np.ndarray, abs_tol: float, rel_tol: float = 0.0) -> float:
    """Integral of ``fun`` over the panels between consecutive ``edges``.

    Stops when the summed ``|K15 - G7|`` over all panels is at most
    ``abs_tol`` or ``rel_tol`` times the estimate's size, whichever is
    larger; each round bisects the largest-error panels that together hold
    half of that sum, and raises :class:`NumericError` rather than pass
    ``_MAX_PANELS`` panels.
    """
    lo = hi = val = err = np.empty(0)
    new_lo, new_hi = edges[:-1], edges[1:]
    while True:
        half = 0.5 * (new_hi - new_lo)
        x = (new_lo + half)[:, None] + half[:, None] * _NODES
        y = np.asarray(fun(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(y)):
            bad = x[~np.isfinite(y)][0]
            raise NumericError(f"integrand is not finite at {bad!r}")
        kronrod = half * (y @ _KRONROD)
        lo = np.concatenate([lo, new_lo])
        hi = np.concatenate([hi, new_hi])
        val = np.concatenate([val, kronrod])
        err = np.concatenate([err, np.abs(kronrod - half * (y @ _GAUSS))])
        total_err, estimate = float(np.sum(err)), float(np.sum(val))
        tol = max(abs_tol, rel_tol * abs(estimate))
        if total_err <= tol:
            return estimate
        order = np.argsort(err)[::-1]
        n_split = int(np.searchsorted(np.cumsum(err[order]), 0.5 * total_err)) + 1
        if lo.size + n_split > _MAX_PANELS:
            raise NumericError(
                f"quadrature did not converge: estimate={estimate!r}, "
                f"abs error={total_err!r} > {tol!r} with {lo.size} panels"
            )
        split = order[:n_split]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]


def _quad_on_support(fun, support: Support, abs_tol: float, breakpoints=(), rel_tol=0.0):
    """Adaptive quadrature of the array function ``fun`` over ``support``.

    ``breakpoints`` flags known discontinuities (e.g. density onsets), which
    start panels of their own instead of being chased by bisection.
    """
    lo, hi = support.lower, support.upper
    inner = [float(b) for b in breakpoints if lo < b < hi]
    if support.bounded:
        edges = _first_panels(np.unique([lo, *inner, hi]))
        ends = [lo + (edges[1] - lo) * _TAIL_GRADE, hi - (hi - edges[-2]) * _TAIL_GRADE]
        return _adaptive_gk(fun, np.unique(np.concatenate([edges, *ends])), abs_tol, rel_tol)

    def transformed(t):
        # a node that rounds to t = 1 stands for x = +inf, where densities vanish
        out = np.zeros_like(t)
        w = 1.0 - t
        ok = w > 0.0
        out[ok] = fun(lo + t[ok] / w[ok]) / (w[ok] * w[ok])
        return out

    ts = [(b - lo) / (1.0 + b - lo) for b in inner]
    edges = _first_panels(np.unique([0.0, *ts, 1.0]))
    edges = np.unique(np.concatenate([edges, 1.0 - (1.0 - edges[-2]) * _TAIL_GRADE]))
    return _adaptive_gk(transformed, edges, abs_tol, rel_tol)


def integrate_density(
    pdf, support: Support, abs_tol: float = _ABS_TOL, breakpoints=()
) -> float:
    """Integral of a density over its support (normalization check).

    The error estimate must fall within ``abs_tol`` times the larger of 1
    and the integral: an unnormalized density's mass has no fixed size.
    """
    return _quad_on_support(pdf, support, abs_tol, breakpoints, rel_tol=abs_tol)


def hellinger(
    f, g, support: Support, abs_tol: float = _ABS_TOL, breakpoints=()
) -> float:
    """Hellinger distance ``sqrt(0.5 * integral (sqrt f - sqrt g)^2)``.

    ``f`` and ``g`` take a 1-D array of points and return the densities
    there, 0 outside their own supports; ``support`` must cover the union
    of the two.  ``abs_tol`` bounds the error estimate of the integral,
    which is ``2 H^2``.  Pass the densities' support onsets as
    ``breakpoints`` when they differ, since the squared-root-difference
    integrand jumps there, and finite endpoints, where it has a kink.  The
    result is symmetric and lies in [0, 1] for normalized inputs.
    """

    def integrand(x):
        d = np.sqrt(np.maximum(f(x), 0.0)) - np.sqrt(np.maximum(g(x), 0.0))
        return d * d

    val = _quad_on_support(integrand, support, abs_tol, breakpoints)
    return math.sqrt(max(0.5 * val, 0.0))
