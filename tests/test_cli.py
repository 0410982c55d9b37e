import json
import os
import subprocess
import sys
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import tailcast
from tailcast import cli
from tailcast.bayes import SamplerConfig, default_prior
from tailcast.cli import main
from tailcast.simlab import (
    ExperimentConfig, Exponential, Generator, KRule, Pareto, TsCoverageConfig,
)

SCHEMA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "tailcast", "schemas",
)


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


class TestStartup:
    """``import tailcast.cli`` and ``import tailcast`` load no scipy module.

    Brent's method is ported (``tailcast.roots``); ``minimize``, ``lfilter``
    and ``betaincinv`` are imported on first use.  The numeric shape-prior
    gate, which runs only for a ``CustomShape``, integrates with
    ``tailcast.density``, so no ``scipy.integrate`` is loaded at all.
    """

    @staticmethod
    def scipy_modules_after(code):
        code += "; print(*[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        src = os.path.dirname(os.path.dirname(os.path.abspath(tailcast.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", "import sys; " + code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        return out.stdout.split()

    @pytest.mark.parametrize("module", ["tailcast.cli", "tailcast"])
    def test_import_leaves_deferred_scipy_unloaded(self, module):
        assert self.scipy_modules_after(f"import {module}") == []

    def test_default_prior_leaves_scipy_integrate_unloaded(self):
        code = "import tailcast.cli; tailcast.bayes.default_prior(1.0)"
        assert "scipy.integrate" not in self.scipy_modules_after(code)


@pytest.fixture(scope="module")
def exp_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "exp.csv"
    rng = np.random.default_rng(0)
    values = -np.log(1.0 - rng.random(5_000))
    path.write_text("value\n" + "\n".join(str(v) for v in values) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def pareto_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pareto.csv"
    rng = np.random.default_rng(1)
    values = (1.0 - rng.random(20_000)) ** -0.5
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    rng = np.random.default_rng(2)
    eps = (1.0 - rng.random(3_000)) ** -0.5
    y = np.zeros(3_000)
    for i in range(1, 3_000):
        y[i] = 0.6 * y[i - 1] + eps[i]
    path.write_text("\n".join(str(v) for v in y) + "\n")
    return str(path)


class TestFit:
    def test_json_schema(self, exp_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", exp_csv, "--k", "500", "--method", "ml",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("fit_report.schema.json"))
        assert doc["gamma"] == pytest.approx(0.0, abs=0.1)
        assert doc["sigma"] == pytest.approx(1.0, abs=0.15)

    def test_bayes_schema(self, exp_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"burn_in": 400, "draws": 1200}}))
        out = tmp_path / "fit_b.json"
        code = main(["fit", "--input", exp_csv, "--k", "300", "--method", "bayes",
                     "--seed", "3", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("fit_report.schema.json"))
        assert doc["posterior"]["m"] == 1200

    def test_empty_file_exit_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", "--input", str(empty), "--k", "10"]) == 3

    def test_non_numeric_cell_exit_3_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\n2.0\noops\n4.0\n")
        assert main(["fit", "--input", str(bad), "--k", "2"]) == 3
        assert "row 4" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["fit", "--input", "no-such-file.csv", "--k", "10"]) == 2

    def test_missing_required_flag_exit_3(self, exp_csv):
        assert main(["fit", "--input", exp_csv]) == 3

    def test_bad_adapt_interval_exit_3(self, exp_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"adapt_interval": 0}}))
        code = main(["fit", "--input", exp_csv, "--k", "500", "--method", "bayes",
                     "--config", str(cfg)])
        assert code == 3
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exit_3(self, exp_csv, tmp_path, capsys, where):
        argv = ["fit", "--input", exp_csv, "--k", "500", "--method", "bayes"]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"sampler": {"seed": -5}}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_prior_with_no_mass_above_the_shape_bound_exit_3(self, exp_csv, tmp_path,
                                                            capsys):
        # the truncation mass of N(-40, 1) above -1/2 underflows to 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"prior": {"shape": {"kind": "truncated-normal", "mean": -40, "sd": 1}}}
        ))
        code = main(["fit", "--input", exp_csv, "--k", "500", "--method", "bayes",
                     "--config", str(cfg)])
        assert code == 3
        assert "no representable normalization" in capsys.readouterr().err

    def test_csv_format(self, exp_csv, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(["fit", "--input", exp_csv, "--k", "500", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("command,")


class TestPredict:
    def test_schema_and_grid(self, exp_csv, tmp_path):
        out = tmp_path / "pred.json"
        grid_out = tmp_path / "grid.csv"
        code = main(["predict", "--input", exp_csv, "--k", "500", "--tau-e", "0.99",
                     "--alpha", "0.05", "--grid-points", "100",
                     "--grid-out", str(grid_out), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("prediction_report.schema.json"))
        assert doc["grid_path"] == str(grid_out)
        rows = grid_out.read_text().strip().splitlines()
        assert rows[0] == "y,pdf,cdf"
        cdf = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_gap_rule_inapplicable_exit_3(self, pareto_csv, capsys):
        code = main(["predict", "--input", pareto_csv, "--k", "1000", "--c", "2"])
        assert code == 3
        assert "negative shape" in capsys.readouterr().err

    def test_bayes_gap_rule_on_short_tail(self, tmp_path):
        # 20 + 5 GP(-1/3, 1): at k = 169 the PWM shape estimate is -0.546,
        # which fit_pwm rejects; the Bayes scale anchor needs only its scale
        from tailcast.gpd import GpParams, gp_sample

        values = 20.0 + 5.0 * gp_sample(GpParams(-1.0 / 3.0, 1.0), 3_140,
                                        np.random.default_rng(0))
        path = tmp_path / "short.csv"
        path.write_text("\n".join(str(v) for v in values) + "\n")
        out = tmp_path / "pred.json"
        code = main(["predict", "--input", str(path), "--k", "169", "--method", "bayes",
                     "--c", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("prediction_report.schema.json"))
        assert doc["k"] == 169

    def test_level_choice_required(self, exp_csv):
        assert main(["predict", "--input", exp_csv, "--k", "500"]) == 3

    def test_return_period_refits(self, exp_csv, tmp_path):
        out = tmp_path / "pred_rp.json"
        code = main(["predict", "--input", exp_csv, "--k", "500",
                     "--return-period", "200", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == round(4 * 5_000 / 200)
        assert doc["levels"]["tau_star"] == 0.25

    def test_return_period_fits_once_at_rule_k(self, pareto_csv, tmp_path, monkeypatch):
        import tailcast.predict as predict

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {"burn_in": 400, "draws": 1200}}))
        calls = []

        def counted(*a, **kw):
            calls.append(a[1].k)
            return real(*a, **kw)

        real = predict.sample_posterior
        monkeypatch.setattr(predict, "sample_posterior", counted)
        docs = []
        for k in ("50", "219"):  # round(4 * 20_000 / 365) = 219
            out = tmp_path / f"rp{k}.json"
            code = main(["predict", "--input", pareto_csv, "--k", k, "--method", "bayes",
                         "--return-period", "365", "--seed", "4", "--config", str(cfg),
                         "--out", str(out)])
            assert code == 0
            docs.append(out.read_bytes())
        assert calls == [219, 219]
        assert docs[0] == docs[1]

    def test_determinism_byte_identical(self, exp_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["predict", "--input", exp_csv, "--k", "500", "--tau-e", "0.99",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestRisk:
    def test_schema_and_quantile_accuracy(self, exp_csv, tmp_path):
        out = tmp_path / "risk.json"
        code = main(["risk", "--input", exp_csv, "--k", "500", "--tau-e", "0.995",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("risk_report.schema.json"))
        # exponential data: true quantile is -log(1-tau_e)
        assert doc["var_point"] == pytest.approx(-np.log(0.005), rel=0.05)
        assert doc["es_point"] is not None

    def test_es_absent_with_reason_for_very_heavy_tail(self, tmp_path):
        path = tmp_path / "heavy.csv"
        rng = np.random.default_rng(4)
        path.write_text(
            "\n".join(str(v) for v in (1.0 - rng.random(20_000)) ** -1.4) + "\n"
        )
        out = tmp_path / "risk_heavy.json"
        code = main(["risk", "--input", str(path), "--k", "500", "--tau-e", "0.999",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["es_point"] is None
        assert doc["es_reason"]

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnope\n")
        out = tmp_path / "should_not_exist.json"
        code = main(["risk", "--input", str(bad), "--k", "2", "--tau-e", "0.99",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestTs:
    def test_rolling_table(self, series_csv, tmp_path):
        out = tmp_path / "rolling.csv"
        code = main(["ts", "--input", series_csv, "--k", "100", "--window", "1000",
                     "--stride", "1000", "--filter", "ar", "--tau-e", "0.999",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["origin", "target"]
        assert len(lines) == 4  # origins 0, 1000, 2000

    def test_json_schema(self, series_csv, tmp_path):
        out = tmp_path / "rolling.json"
        code = main(["ts", "--input", series_csv, "--k", "100", "--window", "1500",
                     "--stride", "1500", "--filter", "ar", "--tau-e", "0.999",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("ts_report.schema.json"))


class TestSimulate:
    def test_coverage_run_and_schema(self, tmp_path):
        cfg = tmp_path / "cov.json"
        cfg.write_text(json.dumps({
            "experiment": "coverage",
            "generator": {"family": "exact-gp", "gamma": 0.25, "sigma": 1.0},
            "n": 1_000,
            "k": {"kind": "fixed", "k": 100},
            "levels": {"kind": "tau-star", "value": 0.25},
            "alpha": 0.05,
            "replications": 50,
            "methods": ["oracle", "ml"],
            "seed": 11,
        }))
        prefix = str(tmp_path / "covrun")
        code = main(["simulate", "--config", str(cfg), "--out", prefix])
        assert code == 0
        doc = json.loads(open(prefix + ".json").read())
        jsonschema.validate(doc, load_schema("simulation_summary.schema.json"))
        table = open(prefix + ".csv").read()
        assert table.splitlines()[0].startswith("method,coverage")

    GP = {"family": "exact-gp", "gamma": 0.25, "sigma": 1.0}
    SMALL = {"n": 1_000, "k": {"kind": "fixed", "k": 50}, "replications": 50}

    @pytest.mark.parametrize("experiment,extra", [
        ("coverage", {"methods": ["oracle", "ml", "pwm"]}),
        ("contraction", {"n_ladder": [1_000, 2_000], "methods": ["oracle", "pwm"]}),
        ("tail-equivalence", {"methods": ["oracle", "ml"]}),
        ("risk-error", {"methods": ["ml", "pwm"]}),
        ("ts-coverage", {"ts": {"window": 400, "origins": 20, "k": 40},
                         "methods": ["ml", "pwm"]}),
    ])
    def test_every_experiment_matches_schema(self, tmp_path, experiment, extra):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "experiment": experiment, "generator": self.GP, **self.SMALL,
            "seed": 3, **extra,
        }))
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--config", str(cfg), "--out", prefix]) == 0
        doc = json.loads(open(prefix + ".json").read())
        jsonschema.validate(doc, load_schema("simulation_summary.schema.json"))
        assert {row["method"] for row in doc["rows"]} == set(extra["methods"])
        header = open(prefix + ".csv").readline().rstrip("\n").split(",")
        assert {"failures", "fallbacks", "failure_reasons"} <= set(header)

    @pytest.mark.parametrize("experiment,family,methods", [
        ("tail-equivalence", {"family": "pareto", "alpha": 2.0}, ["oracle", "ml"]),
        ("risk-error", {"family": "frechet", "alpha": 2.0}, ["ml"]),
        ("risk-error", {"family": "pareto", "alpha": 0.8}, ["pwm"]),
        ("risk-error", {"family": "pareto", "alpha": 2.0}, ["ml", "bayes"]),
        ("risk-error", {"family": "pareto", "alpha": 2.0}, ["oracle", "ml"]),
        ("ts-coverage", {"family": "pareto", "alpha": 2.0}, ["oracle", "ml"]),
        ("coverage", {"family": "pareto", "alpha": 2.0}, ["ml", "mle"]),
    ])
    def test_configuration_that_fails_every_replication_exits_3(
        self, tmp_path, experiment, family, methods
    ):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "experiment": experiment, "generator": family, **self.SMALL,
            "methods": methods,
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "experiment": "coverage",
            "generator": {"family": "pareto", "alpha": 2.0},
            "n": 1_000,
            "bogus_knob": 1,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["coverage", "ts-coverage"])
    def test_negative_seed_exit_3(self, tmp_path, capsys, experiment):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "experiment": experiment, "generator": {"family": "pareto", "alpha": 2.0},
            **self.SMALL, "seed": -3,
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_family_rejected(self, tmp_path):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({
            "experiment": "coverage",
            "generator": {"family": "cauchy"},
            "n": 1_000,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_byte_identical_outputs(self, tmp_path):
        cfg = tmp_path / "teq.json"
        cfg.write_text(json.dumps({
            "experiment": "tail-equivalence",
            "generator": {"family": "pareto", "alpha": 2.0},
            "n": 4_000,
            "k": {"kind": "fixed", "k": 200},
            "levels": {"kind": "tau-star", "value": 0.25},
            "replications": 50,
            "methods": ["ml"],
            "seed": 5,
        }))
        blobs = []
        for name in ("r1", "r2"):
            prefix = str(tmp_path / name)
            assert main(["simulate", "--config", str(cfg), "--out", prefix]) == 0
            blobs.append(open(prefix + ".csv", "rb").read())
        assert blobs[0] == blobs[1]


class TestConfig:
    """One reader checks every config section: a malformed section exits 3
    with one ``error:`` line, and a key left out takes the library's default."""

    SIM = {"experiment": "coverage", "generator": {"family": "pareto", "alpha": 2.0},
           "n": 1_000, "k": {"kind": "fixed", "k": 50}, "replications": 50}
    TS = {**SIM, "experiment": "ts-coverage", "ts": {"window": 400, "origins": 20}}
    PARETO = {"family": "pareto", "alpha": 2.0}

    @pytest.mark.parametrize("command,cfg,message", [
        ("fit", {"sampler": 5}, "sampler must be a JSON object"),
        ("fit", {"sampler": {"seed": "abc"}}, "bad value for sampler.seed"),
        ("fit", {"prior": 3}, "prior must be a JSON object"),
        ("fit", {"prior": {"shape": {"kind": "uniform-window"}}}, "prior.shape needs lo, hi"),
        ("fit", {"prior": {"scale": {"kind": "data-dependent", "shape": "q"}}},
         "bad value for prior.scale.shape"),
        ("fit", {"prior": {"shape": {"kind": "flat"}}}, "unknown prior.shape kind 'flat'"),
        ("fit", {"prior": {"scale": {"kind": "data-dependent", "base": "lognormal"}}},
         "bad value for prior.scale.base"),
        ("simulate", {**SIM, "generator": {"family": "pareto"}}, "generator needs alpha"),
        ("simulate", {**SIM, "generator": {"family": "pareto", "alpha": "x"}},
         "bad value for generator.alpha"),
        ("simulate", {**SIM, "k": 7}, "k must be a JSON object"),
        ("simulate", {**SIM, "n_ladder": 5}, "bad value for simulation config.n_ladder"),
        ("simulate", {**SIM, "levels": {"value": "a"}}, "bad value for levels.value"),
        ("simulate", {**TS, "ts": {"window": None}}, "bad value for ts.window"),
        # the return-level table reads the config once, before its loop
        ("risk-table", {"sampler": 5}, "sampler must be a JSON object"),
        ("risk-table", {"sampler": {"seed": "abc"}}, "bad value for sampler.seed"),
        ("risk-table", {"prior": 3}, "prior must be a JSON object"),
        ("risk-table", {"prior": {"scale": {"kind": "data-dependent", "shape": "q"}}},
         "bad value for prior.scale.shape"),
        ("risk-table", {"sampler": {"draws": 0}}, "sampler configuration counts are out of range"),
        # a ts section is checked whatever the experiment
        ("simulate", {**SIM, "ts": 5}, "ts must be a JSON object"),
        ("simulate", {**SIM, "ts": {"window": "x"}}, "bad value for ts.window"),
        ("simulate", {**SIM, "methods": 5}, "bad value for simulation config.methods"),
        ("simulate", {**SIM, "experiment": "x"}, "bad value for simulation config.experiment"),
        ("simulate", {"experiment": "coverage"}, "simulation config needs generator"),
        # every chain there is reseeded, so a sampler seed would do nothing
        ("ts", {"sampler": {"seed": 1}}, "each chain is seeded from --seed"),
        ("simulate", {**SIM, "sampler": {"seed": 1}},
         "each chain is seeded from the top-level seed or --seed"),
        ("simulate", {**TS, "sampler": {"seed": 1}}, "each chain is seeded from the top-level"),
        # an unknown key in each section
        ("fit", {"sampler": {"bogus": 1}}, "unknown keys in sampler: ['bogus']"),
        ("ts", {"sampler": {"bogus": 1}}, "unknown keys in sampler: ['bogus']"),
        ("fit", {"prior": {"bogus": 1}}, "unknown keys in prior: ['bogus']"),
        ("fit", {"prior": {"shape": {"kind": "truncated-normal", "bogus": 1}}},
         "unknown keys in prior.shape: ['bogus']"),
        ("fit", {"prior": {"shape": {"kind": "uniform-window", "lo": 0, "hi": 1, "bogus": 1}}},
         "unknown keys in prior.shape: ['bogus']"),
        ("fit", {"prior": {"scale": {"kind": "data-dependent", "bogus": 1}}},
         "unknown keys in prior.scale: ['bogus']"),
        ("fit", {"prior": {"scale": {"kind": "log-uniform", "bogus": 1}}},
         "unknown keys in prior.scale: ['bogus']"),
        ("simulate", {**SIM, "bogus": 1}, "unknown keys in simulation config: ['bogus']"),
        ("simulate", {**SIM, "generator": {**PARETO, "bogus": 1}},
         "unknown keys in generator: ['bogus']"),
        ("simulate", {**SIM, "k": {"bogus": 1}}, "unknown keys in k: ['bogus']"),
        ("simulate", {**SIM, "levels": {"bogus": 1}}, "unknown keys in levels: ['bogus']"),
        ("simulate", {**TS, "ts": {"bogus": 1}}, "unknown keys in ts: ['bogus']"),
        ("simulate", {**SIM, "sampler": {"bogus": 1}}, "unknown keys in sampler: ['bogus']"),
        # a misspelt section name at the top level, for Bayes and ML runs alike
        ("fit", {"smapler": {"burn_in": 200, "draws": 500}}, "unknown keys in config: ['smapler']"),
        ("fit-ml", {"smapler": {"draws": 500}}, "unknown keys in config: ['smapler']"),
        ("risk-table", {"piror": {}}, "unknown keys in config: ['piror']"),
        ("ts", {"sampler": {}, "bogus": 1}, "unknown keys in config: ['bogus']"),
        # ts never reads a prior, so a prior section would do nothing
        ("ts", {"prior": {"shape": {"kind": "uniform-window", "lo": -0.1, "hi": 0.2}}},
         "ts samples under the default prior"),
        ("ts-ml", {"prior": {}}, "ts samples under the default prior"),
    ])
    def test_malformed_config_exits_3(self, exp_csv, series_csv, tmp_path, capsys,
                                      command, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = {
            "fit": ["fit", "--input", exp_csv, "--k", "200", "--method", "bayes"],
            "risk-table": ["risk", "--input", exp_csv, "--k", "200", "--method", "bayes",
                           "--return-periods", "20:40:10"],
            "ts": ["ts", "--input", series_csv, "--k", "100", "--window", "1000",
                   "--stride", "1000", "--method", "bayes"],
            "simulate": ["simulate"],
            "fit-ml": ["fit", "--input", exp_csv, "--k", "200"],
            "ts-ml": ["ts", "--input", series_csv, "--k", "100", "--window", "1000",
                      "--stride", "1000"],
        }[command]
        assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert message in err
        assert not list(tmp_path.glob("out*"))

    def test_ml_runs_accept_the_bayes_sections(self, exp_csv, tmp_path):
        # one config can serve a command's ML and Bayes runs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sampler": {"draws": 500}, "prior": {}}))
        plain = main(["fit", "--input", exp_csv, "--k", "200", "--out", str(tmp_path / "a")])
        shared = main(["fit", "--input", exp_csv, "--k", "200", "--config", str(path),
                       "--out", str(tmp_path / "b")])
        assert plain == shared == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_empty_sections_read_as_library_defaults(self):
        for value in (None, {}):
            assert cli._sampler_keys(value) == {}
        ref = default_prior(2.0)
        for value in (None, {}, {"shape": {"kind": "truncated-normal"},
                                 "scale": {"kind": "data-dependent"}}):
            prior = cli._prior(value)(2.0)
            assert prior.shape == ref.shape and prior.scale.anchor == ref.scale.anchor
            for sigma in (0.1, 1.0, 7.0):
                assert prior.scale.log_density(sigma) == ref.scale.log_density(sigma)
        exponential = {"family": "exponential"}
        assert cli._variant(exponential, cli._FAMILIES, "generator", "family") == Exponential()

        run = ExperimentConfig(Generator(Pareto(2.0), seed=5), 10_000, KRule(), seed=5)
        ts_run = TsCoverageConfig(phi=0.6, innovations=Pareto(2.0), seed=5)
        for extra in ({}, {"k": {}, "levels": {}, "sampler": {}, "ts": {}}):
            cfg = {"generator": self.PARETO, **extra}
            assert cli._simulation({"experiment": "coverage", **cfg}, 5) == ("coverage", run)
            assert cli._simulation({"experiment": "ts-coverage", **cfg}, 5) == (
                "ts-coverage", ts_run)

    def test_simulation_sampler_reads_over_the_run_defaults(self):
        # the experiments' own short chains, not the commands' long ones
        cfg = {"experiment": "coverage", "generator": self.PARETO, "sampler": {"draws": 100}}
        _, run = cli._simulation(cfg, 0)
        default = ExperimentConfig(Generator(Pareto(2.0)), 10_000, KRule()).sampler
        assert run.sampler == replace(default, draws=100) != SamplerConfig(draws=100)
