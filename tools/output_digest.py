"""Print the SHA-256 digest of every output of a fixed list of ``tailcast``
commands, one ``sha256  name`` line per output file.

The commands run in one process on small seeded inputs written to a
temporary directory, so two checkouts whose outputs are byte-identical
print the same lines, and a check of that is one ``diff``::

    PYTHONPATH=src python tools/output_digest.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/output_digest.py > before.txt
    diff before.txt after.txt

The list covers ``fit``, ``predict``, ``risk`` (one report and a
return-level table that holds a failing period), ``ts`` with the ``ar`` and
``garch11`` filters, and ``simulate`` (coverage, risk-error and
ts-coverage), each with ``--method ml`` and, on light chains, with
``--method bayes``.  A simulation config sets no prior, so the Bayes arm of
risk-error, which needs a shape prior below 1, runs through
``simlab.risk_error_experiment`` with a uniform-window prior.  A command
that exits nonzero prints ``exit <code>  <name>`` in place of its digests.
Standard error is not digested; the module path of the ``tailcast`` that
ran goes there.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

LIGHT = {"sampler": {"burn_in": 300, "draws": 1_000}}
# a shape prior below 1, so expected shortfall is finite
WINDOW = {"shape": {"kind": "uniform-window", "lo": -0.45, "hi": 0.95}}
PARETO = {"family": "pareto", "alpha": 2.0}
SIM = {"generator": PARETO, "n": 2_000, "k": {"kind": "fixed", "k": 100},
       "replications": 50, "seed": 3}
TS_SIM = {"experiment": "ts-coverage", "generator": PARETO,
          "ts": {"window": 400, "origins": 8, "k": 40}, "seed": 3}


def _column(path: str, values) -> None:
    with open(path, "w") as fh:
        fh.write("value\n" + "\n".join(repr(float(v)) for v in values) + "\n")


def _inputs(d: str) -> dict:
    """Seeded CSVs and configs in ``d``, by name."""
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    p = {name: os.path.join(d, name) for name in (
        "pareto.csv", "short.csv", "ar.csv", "garch.csv", "light.json", "es.json")}
    _column(p["pareto.csv"], (1.0 - rng.random(4_000)) ** -0.5)
    g = -1.0 / 3.0  # 20 + 5 GP(-1/3, 1): a finite endpoint at 35
    _column(p["short.csv"], 20.0 + 5.0 * np.expm1(-g * np.log1p(-rng.random(2_000))) / g)
    ar = np.zeros(2_600)
    eps = rng.standard_t(4.0, ar.size)
    for t in range(1, ar.size):
        ar[t] = 0.5 * ar[t - 1] + eps[t]
    _column(p["ar.csv"], ar[100:])
    y, s2 = np.empty(1_600), 1.0
    for t, e in enumerate(rng.standard_t(5.0, y.size) * np.sqrt(0.6)):
        y[t] = np.sqrt(s2) * e
        s2 = 0.05 + 0.08 * y[t] * y[t] + 0.9 * s2
    _column(p["garch.csv"], y)
    for name, cfg in (("light.json", LIGHT), ("es.json", {**LIGHT, "prior": WINDOW})):
        with open(p[name], "w") as fh:
            json.dump(cfg, fh)
    return p


def _commands(p: dict) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of each command; ``name`` prefixes its outputs."""
    pareto, light = ["--input", p["pareto.csv"]], ["--config", p["light.json"], "--seed", "5"]
    bayes = ["--method", "bayes", *light]
    ar = ["ts", "--input", p["ar.csv"], "--k", "50", "--window", "1000", "--stride", "500"]
    garch = ["ts", "--input", p["garch.csv"], "--k", "50", "--filter", "garch11",
             "--window", "500", "--stride", "500"]
    table = ["risk", *pareto, "--k", "200", "--return-periods"]
    out = [
        ("fit-ml", ["fit", *pareto, "--k", "200"]),
        ("fit-bayes", ["fit", *pareto, "--k", "200", *bayes]),
        ("predict-ml", ["predict", *pareto, "--k", "200", "--tau-e", "0.999",
                        "--grid-points", "50"]),
        ("predict-bayes", ["predict", *pareto, "--k", "200", "--return-period", "365", *bayes]),
        ("predict-short-ml", ["predict", "--input", p["short.csv"], "--k", "150", "--c", "2"]),
        ("risk-ml", ["risk", *pareto, "--k", "200", "--tau-e", "0.9999"]),
        ("risk-bayes", ["risk", *pareto, "--k", "200", "--tau-e", "0.9999", "--method",
                        "bayes", "--config", p["es.json"], "--seed", "5"]),
        # T = 3 leaves no intermediate level: a failing period in each table
        ("table-ml", [*table, "3:2003:100"]),
        ("table-bayes", [*table, "3:1203:300", *bayes]),
        ("ts-ar-ml", [*ar, "--format", "csv"]),
        ("ts-ar-bayes", [*ar, *bayes]),
        ("ts-garch-ml", garch),
        ("ts-garch-bayes", [*garch, *bayes]),
    ]
    for name, cfg in (
        ("sim-coverage", {**SIM, "experiment": "coverage", "methods": ["ml", "pwm"]}),
        ("sim-coverage-bayes", {**SIM, "experiment": "coverage", "methods": ["bayes"],
                                **LIGHT}),
        ("sim-risk-error", {**SIM, "experiment": "risk-error", "methods": ["ml", "pwm"]}),
        ("sim-ts", {**TS_SIM, "methods": ["ml", "pwm"]}),
        ("sim-ts-bayes", {**TS_SIM, "methods": ["bayes"], **LIGHT}),
    ):
        path = os.path.join(os.path.dirname(p["pareto.csv"]), name + ".config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out.append((name, ["simulate", "--config", path]))
    return out


def _risk_error_bayes() -> str:
    """risk-error rows, ml, pwm and bayes, under the window prior, as JSON text."""
    from tailcast.bayes import LogUniformScale, PriorSpec, SamplerConfig, UniformWindowShape
    from tailcast.simlab import (
        ExperimentConfig, Generator, KRule, Pareto, risk_error_experiment,
    )

    cfg = ExperimentConfig(
        Generator(Pareto(2.0), seed=3), 2_000, KRule("fixed", k=100),
        replications=50, methods=("ml", "pwm", "bayes"), seed=3,
        sampler=SamplerConfig(burn_in=300, draws=1_000),
        prior=PriorSpec(UniformWindowShape(-0.45, 0.95), LogUniformScale()),
    )
    return json.dumps(risk_error_experiment(cfg), sort_keys=True)


def main() -> int:
    import tailcast
    from tailcast.cli import main as cli

    print(f"tailcast from {os.path.dirname(tailcast.__file__)}", file=sys.stderr)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)  # relative paths, so no report names the temporary directory
        try:
            p = _inputs(".")
            os.mkdir("out")
            for name, argv in _commands(p):
                prefix = os.path.join("out", name)
                target = prefix if argv[0] == "simulate" else prefix + ".out"
                if argv[0] == "predict" and "--grid-points" in argv:
                    argv = [*argv, "--grid-out", prefix + ".grid.csv"]
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli([*argv, "--out", target])
                if code != 0:
                    print(f"exit {code}  {name}")
            for f in sorted(os.listdir("out")):
                with open(os.path.join("out", f), "rb") as fh:
                    print(f"{hashlib.sha256(fh.read()).hexdigest()}  {f}")
        finally:
            os.chdir(here)
    text = _risk_error_bayes().encode()
    print(f"{hashlib.sha256(text).hexdigest()}  lib-risk-error-bayes.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
