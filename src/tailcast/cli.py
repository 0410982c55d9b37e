"""Batch command-line front end.

Subcommands: ``fit``, ``predict``, ``risk``, ``ts``, ``simulate``.  All
randomness flows from ``--seed`` (or the config file's sampler seed), so
identical inputs and configuration produce byte-identical outputs.  Exit
codes: 2 for I/O problems, 3 for validation problems, 4 for numeric
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import io as tio
from .bayes import (
    DataDependentScale,
    LogUniformScale,
    PriorSpec,
    SamplerConfig,
    TruncatedNormalShape,
    UniformWindowShape,
    default_prior,
    gamma_base_log_density,
    posterior_summary,
    sample_posterior,
)
from .errors import (
    DomainError,
    EstimationError,
    NumericError,
    PriorError,
    SamplerError,
    TailcastError,
    DegenerateDataError,
)
from .estimation import (
    endpoint_estimate, fit_ml, fit_pwm, pwm_scale, select_exceedances, SortedSample,
)
from .gpd import LevelPair
from .predict import (
    bayes_predictive,
    extreme_level_from_c,
    extreme_level_from_return_period,
    freq_predictive,
    prediction_grid,
    predictive_interval,
)
from .risk import shortfall_report
from .simlab import (
    BetaTail,
    Burr,
    ExactGP,
    ExperimentConfig,
    Exponential,
    Frechet,
    Generator,
    KRule,
    LevelRule,
    Pareto,
    TsCoverageConfig,
    contraction_experiment,
    coverage_experiment,
    risk_error_experiment,
    tail_equivalence_experiment,
    ts_coverage_experiment,
)
from .timeseries import RollingConfig, rolling_forecast

_EXIT_IO = 2
_EXIT_VALIDATION = 3
_EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own errors to exit code 3
        raise _UsageError(message)


def _threads_from_env() -> int:
    raw = os.environ.get("TAILCAST_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise DomainError(f"TAILCAST_THREADS must be an integer, got {raw!r}") from None


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise DomainError(f"unknown keys in {context}: {sorted(unknown)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    return cfg


def _sampler_from_config(cfg: dict, seed: int) -> SamplerConfig:
    sub = cfg.get("sampler", {})
    _check_keys(sub, {"seed", "burn_in", "draws", "thin", "adapt_interval"}, "sampler")
    return SamplerConfig(
        seed=int(sub.get("seed", seed)),
        burn_in=int(sub.get("burn_in", 5_000)),
        draws=int(sub.get("draws", 20_000)),
        thin=int(sub.get("thin", 1)),
        adapt_interval=int(sub.get("adapt_interval", 100)),
    )


def _prior_from_config(cfg: dict, scale_anchor: float) -> PriorSpec:
    sub = cfg.get("prior")
    if sub is None:
        return default_prior(scale_anchor)
    _check_keys(sub, {"shape", "scale"}, "prior")
    shape_cfg = sub.get("shape", {"kind": "truncated-normal"})
    kind = shape_cfg.get("kind")
    if kind == "truncated-normal":
        _check_keys(shape_cfg, {"kind", "mean", "sd"}, "prior.shape")
        shape = TruncatedNormalShape(
            float(shape_cfg.get("mean", 0.0)), float(shape_cfg.get("sd", 10.0))
        )
    elif kind == "uniform-window":
        _check_keys(shape_cfg, {"kind", "lo", "hi"}, "prior.shape")
        shape = UniformWindowShape(float(shape_cfg["lo"]), float(shape_cfg["hi"]))
    else:
        raise DomainError(f"unknown shape prior kind {kind!r}")
    scale_cfg = sub.get("scale", {"kind": "data-dependent"})
    kind = scale_cfg.get("kind")
    if kind == "data-dependent":
        _check_keys(scale_cfg, {"kind", "base", "shape", "rate"}, "prior.scale")
        base = scale_cfg.get("base", "gamma")
        if base != "gamma":
            raise DomainError(f"unknown scale prior base {base!r}")
        scale = DataDependentScale(
            gamma_base_log_density(
                float(scale_cfg.get("shape", 1.0)), float(scale_cfg.get("rate", 1.0))
            ),
            anchor=scale_anchor,
        )
    elif kind == "log-uniform":
        _check_keys(scale_cfg, {"kind"}, "prior.scale")
        scale = LogUniformScale()
    else:
        raise DomainError(f"unknown scale prior kind {kind!r}")
    return PriorSpec(shape=shape, scale=scale)


def _emit(args, report: dict, csv_columns: list[str] | None = None) -> None:
    if args.format == "json":
        text = json.dumps(tio.jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        flat = _flatten(report)
        cols = csv_columns or list(flat.keys())
        text = tio.rows_to_csv_text([flat], cols)
    if args.out:
        tio.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in d.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, prefix=f"{name}."))
        elif isinstance(val, (list, tuple)):
            for i, v in enumerate(val):
                out[f"{name}.{i}"] = v
        else:
            out[name] = val
    return out


def _fit_once(sample: SortedSample, k: int, method: str, args, cfg: dict):
    """Shared fit stage: returns (exceedances, fit-or-None, posterior-or-None)."""
    e = select_exceedances(sample, k)
    if method in ("ml", "pwm"):
        fit = fit_ml(e) if method == "ml" else fit_pwm(e)
        return e, fit, None
    if method == "bayes":
        anchor = pwm_scale(e)
        prior = _prior_from_config(cfg, anchor)
        sampler = _sampler_from_config(cfg, args.seed)
        ps = sample_posterior(prior, e, sampler)
        return e, None, ps
    raise DomainError(f"unknown method {method!r}")


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    data = tio.read_numeric_csv(args.input)
    sample = SortedSample.from_data(data)
    e, fit, ps = _fit_once(sample, args.k, args.method, args, cfg)
    if fit is not None:
        gamma, sigma = fit.params.gamma, fit.params.sigma
        report = {
            "command": "fit",
            "method": args.method,
            "n": sample.n,
            "k": e.k,
            "tau_i": e.tau_i,
            "threshold": e.threshold,
            "gamma": gamma,
            "sigma": sigma,
            "loglik": fit.loglik,
            "converged": fit.converged,
            "endpoint": endpoint_estimate(fit, e.threshold),
            "posterior": None,
        }
    else:
        summary = posterior_summary(ps, level=0.95)
        gamma, sigma = summary.mean_gamma, summary.mean_sigma
        endpoint = e.threshold - sigma / gamma if gamma < 0 else math.inf
        report = {
            "command": "fit",
            "method": "bayes",
            "n": sample.n,
            "k": e.k,
            "tau_i": e.tau_i,
            "threshold": e.threshold,
            "gamma": gamma,
            "sigma": sigma,
            "loglik": None,
            "converged": True,
            "endpoint": endpoint,
            "posterior": {
                "m": ps.m,
                "acceptance_rate": ps.acceptance_rate,
                "ess": list(ps.ess),
                "mean_gamma": summary.mean_gamma,
                "mean_sigma": summary.mean_sigma,
                "ci_gamma": list(summary.ci_gamma),
                "ci_sigma": list(summary.ci_sigma),
                "endpoint_mean": summary.endpoint_mean,
                "ci_endpoint": list(summary.ci_endpoint)
                if summary.ci_endpoint
                else None,
                "prob_finite_endpoint": summary.prob_finite_endpoint,
            },
        }
    _emit(args, report)
    return 0


def _levels_for_args(args, e, gamma: float, rule):
    """Resolve the extreme level from --tau-e, --c, or the return-period rule."""
    if args.tau_e is not None:
        return LevelPair.from_levels(e.tau_i, args.tau_e)
    if args.c is not None:
        return extreme_level_from_c(gamma, e.tau_i, args.c)
    return rule.levels


def cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    data = tio.read_numeric_csv(args.input)
    sample = SortedSample.from_data(data)
    chosen = [x is not None for x in (args.tau_e, args.c, args.return_period)]
    if sum(chosen) != 1:
        raise DomainError("choose exactly one of --tau-e, --c, --return-period")
    rule = None
    k = args.k
    if args.return_period is not None:
        # the return-period rule dictates its own effective sample size
        rule = extreme_level_from_return_period(args.return_period, sample.n)
        k = rule.k
    e, fit, ps = _fit_once(sample, k, args.method, args, cfg)
    gamma = fit.params.gamma if fit is not None else float(np.mean(ps.gammas))
    levels = _levels_for_args(args, e, gamma, rule)
    if fit is not None:
        model = freq_predictive(fit, levels)
    else:
        model = bayes_predictive(ps, e.threshold, levels)
    interval = predictive_interval(model, args.alpha)
    try:
        mean = model.mean()
    except TailcastError:
        mean = None
    report = {
        "command": "predict",
        "method": args.method,
        "n": sample.n,
        "k": e.k,
        "threshold": e.threshold,
        "levels": {
            "tau_i": levels.tau_i,
            "tau_e": levels.tau_e,
            "tau_star": levels.tau_star,
        },
        "point": {
            "extreme_threshold": model.quantile(0.0),
            "median": model.quantile(0.5),
            "mean": mean,
        },
        "interval": {
            "lower": interval.lower,
            "upper": interval.upper,
            "alpha": interval.alpha,
        },
        "grid_path": None,
    }
    if args.grid_points:
        lo = args.grid_lo if args.grid_lo is not None else model.quantile(0.0)
        hi = args.grid_hi if args.grid_hi is not None else model.quantile(0.995)
        grid = prediction_grid(model, lo, hi, args.grid_points)
        grid_path = args.grid_out or (
            (args.out or "prediction") + ".grid.csv"
        )
        rows = [
            {"y": float(r[0]), "pdf": float(r[1]), "cdf": float(r[2])} for r in grid
        ]
        tio.write_csv_rows(grid_path, rows, ["y", "pdf", "cdf"])
        report["grid_path"] = grid_path
    _emit(args, report)
    return 0


def _risk_return_level_table(args, sample: SortedSample, cfg: dict) -> int:
    """Point forecasts and intervals across a span of return periods (CSV)."""
    from .risk import return_level_curve

    parts = args.return_periods.split(":")
    if len(parts) not in (2, 3):
        raise DomainError("--return-periods expects START:STOP[:STEP]")
    start, stop = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else max(1, (stop - start) // 50)
    if start < 2 or stop <= start or step < 1:
        raise DomainError(f"bad return-period range {args.return_periods!r}")

    def factory(k, levels):
        e = select_exceedances(sample, k)
        if args.method in ("ml", "pwm"):
            fit = fit_ml(e) if args.method == "ml" else fit_pwm(e)
            return freq_predictive(fit, levels)
        anchor = pwm_scale(e)
        ps = sample_posterior(
            _prior_from_config(cfg, anchor), e, _sampler_from_config(cfg, args.seed)
        )
        return bayes_predictive(ps, e.threshold, levels)

    rows = return_level_curve(factory, sample.n, range(start, stop + 1, step), args.alpha)
    cols = ["T", "tau_e", "k", "point", "lower", "upper", "error"]
    text = tio.rows_to_csv_text(rows, cols)
    if args.out:
        tio.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_risk(args) -> int:
    cfg = _load_config(args.config)
    data = tio.read_numeric_csv(args.input)
    sample = SortedSample.from_data(data)
    if args.return_periods:
        return _risk_return_level_table(args, sample, cfg)
    if args.tau_e is None:
        raise DomainError("risk needs --tau-e (or --return-periods for a table)")
    e, fit, ps = _fit_once(sample, args.k, args.method, args, cfg)
    if args.tau_e < e.tau_i:
        raise DomainError(
            f"--tau-e {args.tau_e} lies below the intermediate level {e.tau_i:.6g}"
        )
    int_levels = LevelPair.intermediate(e.tau_i)
    if fit is not None:
        model = freq_predictive(fit, int_levels)
    else:
        model = bayes_predictive(ps, e.threshold, int_levels)
    rep = shortfall_report(model, args.tau_e, args.method, interval_alpha=args.alpha)
    report = {
        "command": "risk",
        "method": args.method,
        "n": sample.n,
        "k": e.k,
        "threshold": e.threshold,
        "tau_e": rep.tau_e,
        "var_point": rep.var_point,
        "es_point": rep.es_point,
        "es_reason": rep.es_reason,
        "interval": {
            "lower": rep.interval.lower,
            "upper": rep.interval.upper,
            "alpha": rep.interval.alpha,
        }
        if rep.interval
        else None,
    }
    _emit(args, report)
    return 0


def cmd_ts(args) -> int:
    cfg = _load_config(args.config)
    columns = 3 if args.filter == "external" else 1
    data = tio.read_numeric_csv(args.input, columns=columns)
    sampler = _sampler_from_config(cfg, args.seed) if args.method == "bayes" else None
    rolling = RollingConfig(
        filter=args.filter,
        ar_order=args.ar_order,
        k=args.k,
        tau_e=args.tau_e,
        alpha=args.alpha,
        method=args.method,
        seed=args.seed,
        sampler=sampler,
    )
    rows = rolling_forecast(data, args.window, args.stride, rolling)
    cols = [
        "origin", "target", "mu_next", "xi_next", "threshold_obs",
        "point", "lower", "upper", "realized", "error",
    ]
    if args.format == "json":
        report = {"command": "ts", "rows": rows}
        text = json.dumps(tio.jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        text = tio.rows_to_csv_text(rows, cols)
    if args.out:
        tio.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


_FAMILY_BUILDERS = {
    "exact-gp": (ExactGP, {"gamma", "sigma"}),
    "pareto": (Pareto, {"alpha"}),
    "frechet": (Frechet, {"alpha"}),
    "burr": (Burr, {"shape1", "shape2"}),
    "exponential": (Exponential, {"rate"}),
    "beta-tail": (BetaTail, {"a", "b"}),
}


def _generator_from_config(cfg: dict, seed: int) -> Generator:
    sub = cfg.get("generator")
    if not isinstance(sub, dict) or "family" not in sub:
        raise DomainError("simulation config needs a generator with a family")
    family_name = sub["family"]
    if family_name not in _FAMILY_BUILDERS:
        raise DomainError(f"unknown generator family {family_name!r}")
    builder, allowed = _FAMILY_BUILDERS[family_name]
    _check_keys(sub, allowed | {"family"}, "generator")
    params = {key: float(val) for key, val in sub.items() if key != "family"}
    return Generator(builder(**params), seed=seed)


def _k_rule_from_config(cfg: dict) -> KRule:
    sub = cfg.get("k", {"kind": "power", "delta": 0.5})
    _check_keys(sub, {"kind", "k", "coef", "delta", "eta"}, "k")
    return KRule(
        kind=sub.get("kind", "power"),
        k=int(sub.get("k", 0)),
        coef=float(sub.get("coef", 1.0)),
        delta=float(sub.get("delta", 0.5)),
        eta=float(sub.get("eta", 0.0)),
    )


def _level_rule_from_config(cfg: dict) -> LevelRule:
    sub = cfg.get("levels", {"kind": "tau-star", "value": 0.25})
    _check_keys(sub, {"kind", "value"}, "levels")
    return LevelRule(kind=sub.get("kind", "tau-star"), value=float(sub.get("value", 0.25)))


_SIM_KEYS = {
    "experiment", "generator", "n", "n_ladder", "k", "levels", "alpha",
    "replications", "methods", "seed", "sampler", "rel_err_tol", "ts",
}


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise DomainError("simulate requires a config file")
    _check_keys(cfg, _SIM_KEYS, "simulation config")
    experiment = cfg.get("experiment")
    seed = int(cfg.get("seed", args.seed))
    workers = _threads_from_env()
    out_prefix = args.out or "experiment"

    if experiment == "ts-coverage":
        sub = cfg.get("ts", {})
        _check_keys(
            sub,
            {"phi", "window", "origins", "k", "tau_star", "alpha", "burn", "stride"},
            "ts",
        )
        ts_cfg = TsCoverageConfig(
            phi=float(sub.get("phi", 0.6)),
            innovations=_generator_from_config(cfg, seed).family,
            window=int(sub.get("window", 1000)),
            origins=int(sub.get("origins", 500)),
            k=int(sub.get("k", 100)),
            tau_star=float(sub.get("tau_star", 0.25)),
            alpha=float(sub.get("alpha", 0.05)),
            methods=tuple(cfg.get("methods", ["ml"])),
            seed=seed,
            sampler=_sampler_light(cfg, seed),
            burn=int(sub.get("burn", 200)),
            stride=int(sub["stride"]) if "stride" in sub else None,
            workers=workers,
        )
        rows = ts_coverage_experiment(ts_cfg)
    else:
        exp_cfg = ExperimentConfig(
            generator=_generator_from_config(cfg, seed),
            n=int(cfg.get("n", 10_000)),
            k_rule=_k_rule_from_config(cfg),
            level_rule=_level_rule_from_config(cfg),
            alpha=float(cfg.get("alpha", 0.05)),
            replications=int(cfg.get("replications", 100)),
            methods=tuple(cfg.get("methods", ["ml"])),
            seed=seed,
            sampler=_sampler_light(cfg, seed),
            n_ladder=tuple(cfg["n_ladder"]) if cfg.get("n_ladder") else None,
            rel_err_tol=float(cfg.get("rel_err_tol", 0.15)),
            workers=workers,
        )
        if experiment == "coverage":
            rows = coverage_experiment(exp_cfg).rows()
        elif experiment == "contraction":
            rows = contraction_experiment(exp_cfg)
        elif experiment == "tail-equivalence":
            rows = tail_equivalence_experiment(exp_cfg)
        elif experiment == "risk-error":
            rows = risk_error_experiment(exp_cfg)
        else:
            raise DomainError(f"unknown experiment {experiment!r}")

    tio.write_csv_rows(out_prefix + ".csv", rows)
    summary = {
        "command": "simulate",
        "experiment": experiment,
        "seed": seed,
        "rows": rows,
    }
    tio.write_json(out_prefix + ".json", summary)
    sys.stdout.write(f"wrote {out_prefix}.csv and {out_prefix}.json\n")
    return 0


def _sampler_light(cfg: dict, seed: int) -> SamplerConfig:
    """Experiment sampler defaults are lighter than single-fit defaults."""
    sub = cfg.get("sampler", {})
    _check_keys(sub, {"seed", "burn_in", "draws", "thin", "adapt_interval"}, "sampler")
    return SamplerConfig(
        seed=int(sub.get("seed", seed)),
        burn_in=int(sub.get("burn_in", 1_000)),
        draws=int(sub.get("draws", 2_500)),
        thin=int(sub.get("thin", 1)),
        adapt_interval=int(sub.get("adapt_interval", 100)),
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="tailcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_k=True):
        p.add_argument("--input", required=True, help="CSV with one numeric column")
        if with_k:
            p.add_argument("--k", type=int, required=True, help="effective sample size")
        p.add_argument(
            "--method", choices=("ml", "pwm", "bayes"), default="ml"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON config (sampler, prior)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_fit = sub.add_parser("fit", help="fit GP parameters to threshold exceedances")
    common(p_fit)

    p_pred = sub.add_parser("predict", help="predictive law of peaks at an extreme level")
    common(p_pred)
    p_pred.add_argument("--tau-e", type=float, default=None)
    p_pred.add_argument("--c", type=float, default=None, help="endpoint-gap factor")
    p_pred.add_argument("--return-period", type=int, default=None)
    p_pred.add_argument("--alpha", type=float, default=0.05)
    p_pred.add_argument("--grid-points", type=int, default=0)
    p_pred.add_argument("--grid-lo", type=float, default=None)
    p_pred.add_argument("--grid-hi", type=float, default=None)
    p_pred.add_argument("--grid-out", default=None)

    p_risk = sub.add_parser("risk", help="extreme quantile and shortfall forecasts")
    common(p_risk)
    p_risk.add_argument("--tau-e", type=float, default=None)
    p_risk.add_argument("--alpha", type=float, default=0.05)
    p_risk.add_argument(
        "--return-periods", default=None,
        help="START:STOP[:STEP] span; emits a return-level table as CSV",
    )

    p_ts = sub.add_parser("ts", help="rolling one-step-ahead tail forecasts")
    common(p_ts)
    p_ts.add_argument("--window", type=int, required=True)
    p_ts.add_argument("--stride", type=int, required=True)
    p_ts.add_argument(
        "--filter", choices=("ar", "garch11", "external"), default="ar"
    )
    p_ts.add_argument("--ar-order", type=int, default=1)
    p_ts.add_argument("--tau-e", type=float, default=0.999)
    p_ts.add_argument("--alpha", type=float, default=0.01)

    p_sim = sub.add_parser("simulate", help="run a simulation experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, help="output prefix")

    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "risk": cmd_risk,
    "ts": cmd_ts,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    try:
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (NumericError, EstimationError, SamplerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (DomainError, DegenerateDataError, PriorError, TailcastError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
