"""Seeded inputs for the benchmark workloads.

Everything the program reads is made here from the workload seed with
numpy alone, so the same seed always gives byte-identical input files.
"""

from __future__ import annotations

import json
import os

import numpy as np

PARETO_ROWS = 20_000  # the fixed 20k-row Pareto(2) input of the roadmap
SHORT_ROWS = 3_140  # the size of the Milan series, with a short tail
SHORT_GAMMA = -1.0 / 3.0
GARCH_STEPS = 20_000
GARCH = {"omega": 0.05, "alpha": 0.08, "beta": 0.90, "df": 5.0}

# shape prior kept below 1 so that expected shortfall is finite (risk-bayes)
ES_CONFIG = {"prior": {"shape": {"kind": "uniform-window", "lo": -0.45, "hi": 0.95}}}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def pareto_sample(seed: int, n: int = PARETO_ROWS) -> np.ndarray:
    """Pareto(2): heavy tail with shape 1/2."""
    return (1.0 - _rng(seed, 1).random(n)) ** -0.5


def short_sample(seed: int, n: int = SHORT_ROWS) -> np.ndarray:
    """A level 20 + 5·GP(-1/3, 1): finite endpoint at 35."""
    u = _rng(seed, 2).random(n)
    g = SHORT_GAMMA
    return 20.0 + 5.0 * np.expm1(-g * np.log1p(-u)) / g


def garch_series(seed: int, n: int = GARCH_STEPS) -> np.ndarray:
    """GARCH(1,1) with unit-variance Student-t innovations, after a burn-in."""
    rng = _rng(seed, 3)
    df, w, a, b = GARCH["df"], GARCH["omega"], GARCH["alpha"], GARCH["beta"]
    burn = 500
    eps = rng.standard_t(df, n + burn) * np.sqrt((df - 2.0) / df)
    y = np.empty(n + burn)
    s2 = w / (1.0 - a - b)
    for t in range(n + burn):
        y[t] = np.sqrt(s2) * eps[t]
        s2 = w + a * y[t] * y[t] + b * s2
    return y[burn:]


def write_column(path: str, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("value\n")
        fh.write("\n".join(repr(float(v)) for v in values))
        fh.write("\n")


def make_desk_inputs(seed: int, workdir: str, scale: float = 1.0) -> dict:
    """Write the desk CSVs and config; ``scale`` shrinks them for smoke runs."""
    os.makedirs(workdir, exist_ok=True)
    paths = {
        "pareto": os.path.join(workdir, "pareto.csv"),
        "short": os.path.join(workdir, "short.csv"),
        "garch": os.path.join(workdir, "garch.csv"),
        "es_config": os.path.join(workdir, "es_config.json"),
    }
    write_column(paths["pareto"], pareto_sample(seed, int(PARETO_ROWS * scale)))
    write_column(paths["short"], short_sample(seed, max(400, int(SHORT_ROWS * scale))))
    write_column(paths["garch"], garch_series(seed, max(2_000, int(GARCH_STEPS * scale))))
    with open(paths["es_config"], "w") as fh:
        json.dump(ES_CONFIG, fh)
    return paths
