"""Brent's bracketed root search, without scipy.

This is the zeroin form of Brent (1973), *Algorithms for Minimization
without Derivatives*, ch. 4, step for step as in scipy's ``brentq.c``, so it
returns the same bits as ``scipy.optimize.brentq`` with the same defaults.
Having it here keeps ``scipy.optimize``, most of what importing the package
used to cost, off the import path.
"""

from __future__ import annotations

import math

__all__ = ["brentq"]

_EPS = 2.0**-52
_RTOL = 4 * _EPS  # scipy's default relative tolerance
_MAXITER = 100  # and its default step limit


def brentq(f, a, b, xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket is narrower than ``xtol + 4 eps |x|``.  Raises
    :class:`ValueError` on a bracket with no sign change or a NaN value of f,
    and :class:`RuntimeError` after 100 steps.
    """

    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise ValueError(f"the function value at x={x} is NaN")
        return v

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C gives inf or NaN here, and so a bisection
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"failed to converge after {_MAXITER} iterations, value is {xcur}")
