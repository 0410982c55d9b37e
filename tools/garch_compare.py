"""Compare ``timeseries.fit_garch11`` with the four-start SLSQP search it replaced.

For every window it prints the gap between the two end points'
quasi-likelihoods (negative quasi-log-likelihood per observation on the
standardized window; a positive gap means the fit ended worse than the
four-start search), the fitted (alpha, beta) of each, the objective
evaluations ``minimize`` made for each, and whether the fit took its
low-alpha fallback.  A summary line per corpus follows.  The grid pass that
picks the fit's start evaluates the objective outside ``minimize`` and is not
counted.

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
import warnings

import numpy as np
from scipy.optimize import minimize

import tailcast.timeseries as ts
from tailcast.errors import BoundaryWarning

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.inputs import garch_series  # noqa: E402

WINDOW = 1_000


def four_start(z):
    """The earlier search: SLSQP from each fixed start, best end point kept."""
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


def current_fit(y, z):
    """``fit_garch11`` with its ``minimize`` calls counted, and the fitted
    model's objective on the standardized window."""
    calls = []

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        calls.append(res.nfev)
        return res

    ts.minimize = counted
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundaryWarning)
            model = ts.fit_garch11(y)
    finally:
        del ts.minimize
    loc, var_y = float(np.mean(y)), float(np.var(y))
    params = np.array([
        (model.mean - loc) / math.sqrt(var_y),
        math.log(model.omega / var_y),
        model.alpha,
        model.beta,
    ])
    value, _ = ts._garch_neg_qll(params, z)
    boundary = sum(w.category is BoundaryWarning for w in caught)
    return model, value, calls, boundary


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
    gaps, nfev_new, nfev_old = [], [], []
    fallbacks = boundary = 0
    print(f"{'window':24} {'gap/obs':>10} {'alpha':>7} {'beta':>7} {'alpha0':>7} "
          f"{'beta0':>7} {'nfev':>5} {'nfev0':>5} fallback")
    for name, y in windows:
        z = (y - np.mean(y)) / np.std(y)
        old, n_old = four_start(z)
        model, value, calls, warned = current_fit(y, z)
        gap = value - old.fun
        fell = len(calls) > 1
        gaps.append(gap)
        nfev_new.append(sum(calls))
        nfev_old.append(n_old)
        fallbacks += fell
        boundary += warned
        print(f"{name:24} {gap:10.2e} {model.alpha:7.4f} {model.beta:7.4f} "
              f"{old.x[2]:7.4f} {old.x[3]:7.4f} {sum(calls):5d} {n_old:5d} "
              f"{'yes' if fell else ''}")
    gaps = np.array(gaps)
    print(
        f"windows {gaps.size}: worse by more than 1e-12 per observation on "
        f"{int(np.sum(gaps > 1e-12))} (largest gap {gaps.max():.2e}, smallest "
        f"{gaps.min():.2e}); fallback on {fallbacks}; minimize evaluations per fit "
        f"{np.mean(nfev_new):.1f} (four starts {np.mean(nfev_old):.1f}); "
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
