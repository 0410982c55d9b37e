"""Compare ``timeseries.fit_garch11`` with a four-start SLSQP search and with
a three-start Nelder–Mead search, window by window.

For every window it prints the gap between the fit's quasi-likelihood and
each reference's (negative quasi-log-likelihood per observation on the
standardized window; a positive gap means the fit ended worse), the fitted
(alpha, beta) and SLSQP's, the objective passes of the fit (grid cells plus
objective evaluations, each with its Hessian) and of SLSQP, the time of one
fit, and whether the fit took its low-alpha fallback.  A summary line per
corpus follows.  The references are the searches the fit used before:

- four-start SLSQP: scipy's SLSQP on the exact gradient from the four
  ``_GARCH_STARTS``, best end point kept;
- three-start Nelder–Mead: the first three of those starts, on the objective
  with a penalty outside the stationarity region.

Corpora:

- ``desk``: the 20 windows of n = 1,000 that ``tailcast ts --filter garch11
  --window 1000 --stride 1000`` fits on the benchmark's GARCH(1,1)-t input,
  at each ``--seeds`` value;
- ``iid``: 150 iid windows of n = 1,000, normal, t(5) and t(3) draws from
  ``default_rng([77, i])`` for i in 0..49;
- ``sweep``: 36 series of n = 10,000, six each of normal GARCH (0.1, 0.1,
  0.8) and (0.05, 0.08, 0.9), t(5) and t(3) GARCH (0.05, 0.08, 0.9), normal
  GARCH with near-unit persistence (0.005, 0.06, 0.935), and iid (three
  normal, three t(5)).

Run from the repository root::

    PYTHONPATH=src python tools/garch_compare.py desk --seeds 11 12 13 14 15
    PYTHONPATH=src python tools/garch_compare.py iid
    PYTHONPATH=src python tools/garch_compare.py sweep
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings

import numpy as np
from scipy.optimize import minimize

import tailcast.timeseries as ts
from tailcast.errors import BoundaryWarning

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.inputs import garch_series  # noqa: E402

WINDOW = 1_000


def four_start(z):
    """SLSQP from each of the four fixed starts, best end point kept."""
    cap = ts._GARCH_MAX_PERSISTENCE
    persistence = {
        "type": "ineq",
        "fun": lambda p: cap - p[2] - p[3],
        "jac": lambda p: np.array([0.0, 0.0, -1.0, -1.0]),
    }
    best, nfev = None, 0
    for a0, b0 in ts._GARCH_STARTS:
        res = minimize(
            ts._garch_neg_qll,
            np.array([0.0, math.log(1.0 - a0 - b0), a0, b0]),
            args=(z,),
            jac=True,
            method="SLSQP",
            bounds=[(None, None), (None, None), (0.0, cap), (0.0, cap)],
            constraints=[persistence],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        nfev += res.nfev
        if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    return best, nfev


def nelder_mead(z) -> float:
    """The best penalized Nelder–Mead end point from three fixed starts."""

    def penalized(p):
        if p[2] < 0.0 or p[3] < 0.0 or p[2] + p[3] > ts._GARCH_MAX_PERSISTENCE:
            return 1e12 * (1.0 + max(0.0, p[2] + p[3] - ts._GARCH_MAX_PERSISTENCE))
        return ts._garch_neg_qll(p, z)[0]

    best = math.inf
    for a0, b0 in ts._GARCH_STARTS[:3]:
        res = minimize(
            penalized,
            [0.0, math.log(1.0 - a0 - b0), a0, b0],
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-11, "maxiter": 4000, "maxfev": 6000},
        )
        best = min(best, res.fun)
    return best


def counted_fit(y):
    """``fit_garch11`` with its objective passes and searches counted: grid
    cells (finite ones), objective evaluations, and ``_garch_newton`` calls."""
    counts = {"cells": 0, "evals": 0, "searches": 0}
    grid, objective, newton = ts._garch_grid_neg_qll, ts._garch_neg_qll, ts._garch_newton

    def grid_counted(z):
        cells = grid(z)
        counts["cells"] += int(np.isfinite(cells).sum())
        return cells

    def objective_counted(*args, **kwargs):
        counts["evals"] += 1
        return objective(*args, **kwargs)

    def newton_counted(*args):
        counts["searches"] += 1
        return newton(*args)

    ts._garch_grid_neg_qll = grid_counted
    ts._garch_neg_qll = objective_counted
    ts._garch_newton = newton_counted
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundaryWarning)
            model = ts.fit_garch11(y)
    finally:
        ts._garch_grid_neg_qll, ts._garch_neg_qll, ts._garch_newton = grid, objective, newton
    boundary = sum(w.category is BoundaryWarning for w in caught)
    return model, counts, boundary


def fit_ms(y, repeats: int = 3) -> float:
    """The best of ``repeats`` timed calls of ``fit_garch11``, in ms."""
    best = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        for _ in range(repeats):
            start = time.perf_counter()
            ts.fit_garch11(y)
            best = min(best, time.perf_counter() - start)
    return 1e3 * best


def objective_at(model, y, z) -> float:
    """The fitted model's objective on the standardized window."""
    loc, var_y = float(np.mean(y)), float(np.var(y))
    params = np.array([
        (model.mean - loc) / math.sqrt(var_y),
        math.log(model.omega / var_y),
        model.alpha,
        model.beta,
    ])
    return ts._garch_neg_qll(params, z)[0]


def simulate(omega, alpha, beta, n, rng, df=None):
    eps = rng.standard_normal(n) if df is None else (
        rng.standard_t(df, n) * math.sqrt((df - 2.0) / df)
    )
    y = np.empty(n)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(n):
        y[t] = math.sqrt(s2) * eps[t]
        s2 = omega + alpha * y[t] * y[t] + beta * s2
    return y


def desk_windows(seeds):
    for seed in seeds:
        y = garch_series(seed)
        for origin in range(0, y.size - WINDOW + 1, WINDOW):
            yield f"desk-{seed}@{origin}", y[origin:origin + WINDOW]


def iid_windows():
    draws = {
        "normal": lambda rng: rng.standard_normal(WINDOW),
        "t5": lambda rng: rng.standard_t(5, WINDOW),
        "t3": lambda rng: rng.standard_t(3, WINDOW),
    }
    for name, draw in draws.items():
        for i in range(50):
            yield f"{name}-{i}", draw(np.random.default_rng([77, i]))


def sweep_series():
    n = 10_000
    groups = [
        ("normal-garch-0.1", (0.1, 0.1, 0.8), None),
        ("normal-garch-0.05", (0.05, 0.08, 0.9), None),
        ("t5-garch", (0.05, 0.08, 0.9), 5.0),
        ("t3-garch", (0.05, 0.08, 0.9), 3.0),
        ("near-unit", (0.005, 0.06, 0.935), None),
    ]
    for g, (name, params, df) in enumerate(groups):
        for i in range(6):
            yield f"{name}-{i}", simulate(*params, n, np.random.default_rng([2026, g, i]), df)
    for i in range(6):
        rng = np.random.default_rng([2026, len(groups), i])
        if i < 3:
            yield f"iid-normal-{i}", rng.standard_normal(n)
        else:
            yield f"iid-t5-{i}", rng.standard_t(5, n)


def compare(windows) -> None:
    gaps, nm_gaps, passes, slsqp_nfev, times = [], [], [], [], []
    fallbacks = boundary = 0
    print(f"{'window':24} {'gap/obs':>10} {'gap NM':>10} {'alpha':>7} {'beta':>7} "
          f"{'alpha0':>7} {'beta0':>7} {'passes':>6} {'nfev0':>5} {'ms':>6} fallback")
    for name, y in windows:
        z = (y - np.mean(y)) / np.std(y)
        old, n_old = four_start(z)
        model, counts, warned = counted_fit(y)
        value = objective_at(model, y, z)
        gap, nm_gap = value - old.fun, value - nelder_mead(z)
        fell = counts["searches"] > 1
        ms = fit_ms(y)
        gaps.append(gap)
        nm_gaps.append(nm_gap)
        passes.append(counts["cells"] + counts["evals"])
        slsqp_nfev.append(n_old)
        times.append(ms)
        fallbacks += fell
        boundary += warned
        print(f"{name:24} {gap:10.2e} {nm_gap:10.2e} {model.alpha:7.4f} {model.beta:7.4f} "
              f"{old.x[2]:7.4f} {old.x[3]:7.4f} {passes[-1]:6d} {n_old:5d} {ms:6.2f} "
              f"{'yes' if fell else ''}")
    gaps, nm_gaps = np.array(gaps), np.array(nm_gaps)
    print(
        f"windows {gaps.size}: worse than four-start SLSQP by more than 1e-12 per "
        f"observation on {int(np.sum(gaps > 1e-12))} (largest gap {gaps.max():.2e}), "
        f"better on {int(np.sum(gaps < -1e-12))} (smallest {gaps.min():.2e}); worse than "
        f"Nelder-Mead on {int(np.sum(nm_gaps > 1e-12))} (largest {nm_gaps.max():.2e}); "
        f"fallback on {fallbacks}; objective passes per fit {np.mean(passes):.1f} "
        f"(max {max(passes)}; SLSQP evaluations {np.mean(slsqp_nfev):.1f}); ms per fit "
        f"median {np.median(times):.2f}, mean {np.mean(times):.2f}; "
        f"BoundaryWarnings {boundary}"
    )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("corpus", choices=["desk", "iid", "sweep"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13, 14, 15])
    args = ap.parse_args(argv)
    if args.corpus == "desk":
        compare(desk_windows(args.seeds))
    elif args.corpus == "iid":
        compare(iid_windows())
    else:
        compare(sweep_series())


if __name__ == "__main__":
    main()
