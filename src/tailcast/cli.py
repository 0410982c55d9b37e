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
import sys
from dataclasses import replace
from functools import partial

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
)
from .errors import (
    DomainError,
    EstimationError,
    NumericError,
    SamplerError,
    TailcastError,
)
from .estimation import endpoint_estimate, pwm_scale, select_exceedances, SortedSample
from .gpd import LevelPair
from .predict import (
    TailFit,
    extreme_level_from_c,
    extreme_level_from_return_period,
    fit_tail,
    prediction_grid,
    predictive_interval,
)
from .risk import return_level_curve, shortfall_report
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own errors to exit code 3
        raise DomainError(message)


def _load_config(path: str | None, table: dict | None = None) -> dict:
    """The ``--config`` object; with ``table``, a key outside it exits 3."""
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    return cfg if table is None else _section(cfg, dict, table, "config")


def _object(value, context: str) -> dict:
    """A config section as a dict; a null section reads as an empty one."""
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise DomainError(f"{context} must be a JSON object, got {value!r}")
    return value


def _section(value, build, table: dict, context: str, required=()):
    """The object a config section describes: ``build(**values)``.

    ``table`` maps each key the section may hold to the converter of its
    value.  A key the section leaves out takes ``build``'s default; the keys
    in ``required`` may not be left out.  Every fault is a
    :class:`DomainError`: a section that is not a JSON object, an unknown or
    missing key, or a value its converter refuses.
    """
    value = _object(value, context)
    unknown = set(value) - set(table)
    if unknown:
        raise DomainError(f"unknown keys in {context}: {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise DomainError(f"{context} needs {', '.join(missing)}")
    kwargs = {}
    for key, val in value.items():
        try:
            kwargs[key] = table[key](val)
        except TailcastError:  # a nested section's own fault
            raise
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad value for {context}.{key}: {val!r} ({exc})") from None
    return build(**kwargs)


def _no_prior(value):
    if value is not None:
        raise DomainError("ts samples under the default prior: a prior section does nothing")


# a command's top level: Bayes runs read both, ML runs accept them (shared configs)
_COMMAND = {"sampler": lambda v: v, "prior": lambda v: v}
_TS_COMMAND = {"sampler": lambda v: v, "prior": _no_prior}


def _variant(value, variants: dict, context: str, tag: str = "kind"):
    """A section whose ``tag`` key, a prior's kind or a generator's family,
    picks its ``(build, table, required)`` from ``variants``."""
    rest = dict(_object(value, context))
    name = rest.pop(tag, None)
    if not isinstance(name, str) or name not in variants:
        raise DomainError(f"unknown {context} {tag} {name!r}")
    build, table, required = variants[name]
    return _section(rest, build, table, context, required)


def _one_of(*names):
    def convert(name):
        if name not in names:
            raise ValueError(f"not one of {', '.join(names)}")
        return name

    return convert


_SAMPLER = {key: int for key in ("seed", "burn_in", "draws", "thin")}


def _sampler_keys(value, reseeded_by: str | None = None) -> dict:
    """The ``sampler`` section's values.  Where every chain is reseeded from
    ``reseeded_by``, a ``seed`` would do nothing, so it is refused."""
    keys = _section(value, dict, _SAMPLER, "sampler")
    if reseeded_by and "seed" in keys:
        raise DomainError(
            f"sampler.seed has no effect here: each chain is seeded from {reseeded_by}"
        )
    return keys


_SHAPES = {
    "truncated-normal": (TruncatedNormalShape, {"mean": float, "sd": float}, ()),
    "uniform-window": (UniformWindowShape, {"lo": float, "hi": float}, ("lo", "hi")),
}


def _data_dependent(base=None, **gamma):  # Gamma(shape, rate) is the only base
    return partial(DataDependentScale, gamma_base_log_density(**gamma))


# each scale prior reads as a function of the data's scale anchor
_SCALES = {
    "data-dependent": (
        _data_dependent, {"base": _one_of("gamma"), "shape": float, "rate": float}, ()
    ),
    "log-uniform": (lambda: lambda anchor: LogUniformScale(), {}, ()),
}


def _prior(value):
    """The ``prior`` section, read once, as a function of the scale anchor.
    A part the section leaves out is :func:`default_prior`'s."""
    table = {
        "shape": lambda v: _variant(v, _SHAPES, "prior.shape"),
        "scale": lambda v: _variant(v, _SCALES, "prior.scale"),
    }
    parts = _section(value, dict, table, "prior")

    def prior(anchor: float) -> PriorSpec:
        default = default_prior(anchor)
        scale = parts["scale"](anchor) if "scale" in parts else default.scale
        return PriorSpec(parts.get("shape", default.shape), scale)

    return prior


def _write_out(args, text: str) -> None:
    if args.out:
        tio.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, report: dict) -> None:
    if args.format == "json":
        text = json.dumps(tio.jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        text = tio.rows_to_csv_text([_flatten(report)])
    _write_out(args, text)


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


def _interval(iv) -> dict:
    return {"lower": iv.lower, "upper": iv.upper, "alpha": iv.alpha}


def _bayes_setup(args, cfg: dict):
    """``(prior, sampler)`` of a Bayes fit, read from the config once: the
    prior as a function of the scale anchor.  ``(None, None)`` for a point fit."""
    if args.method != "bayes":
        return None, None
    sampler = SamplerConfig(**{"seed": args.seed, **_sampler_keys(cfg.get("sampler"))})
    return _prior(cfg.get("prior")), sampler


def _fit(args, cfg: dict, sample: SortedSample, k: int) -> TailFit:
    """The tail fit of the top ``k`` order statistics."""
    prior, sampler = _bayes_setup(args, cfg)
    e = select_exceedances(sample, k)
    return fit_tail(e, args.method, prior and prior(pwm_scale(e)), sampler)


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, _COMMAND)
    data = tio.read_numeric_csv(args.input)
    sample = SortedSample.from_data(data)
    tail = _fit(args, cfg, sample, args.k)
    e, fit, ps = tail.e, tail.fit, tail.posterior
    report = {
        "command": "fit",
        "method": args.method,
        "n": sample.n,
        "k": e.k,
        "tau_i": e.tau_i,
        "threshold": e.threshold,
    }
    if fit is not None:
        report.update(
            gamma=fit.params.gamma,
            sigma=fit.params.sigma,
            loglik=fit.loglik,
            converged=fit.converged,
            endpoint=endpoint_estimate(fit, e.threshold),
            posterior=None,
        )
    else:
        summary = posterior_summary(ps, level=0.95)
        gamma, sigma = summary.mean_gamma, summary.mean_sigma
        report.update(
            gamma=gamma,
            sigma=sigma,
            loglik=None,
            converged=True,
            endpoint=e.threshold - sigma / gamma if gamma < 0 else math.inf,
            posterior={
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
        )
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
    cfg = _load_config(args.config, _COMMAND)
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
    tail = _fit(args, cfg, sample, k)
    e = tail.e
    levels = _levels_for_args(args, e, tail.gamma, rule)
    model = tail.at(levels)
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
        "interval": _interval(interval),
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
    parts = args.return_periods.split(":")
    if len(parts) not in (2, 3):
        raise DomainError("--return-periods expects START:STOP[:STEP]")
    try:
        start, stop, *step = map(int, parts)
    except ValueError:
        raise DomainError(f"bad return-period range {args.return_periods!r}") from None
    step = step[0] if step else max(1, (stop - start) // 50)
    if start < 2 or stop <= start or step < 1:
        raise DomainError(f"bad return-period range {args.return_periods!r}")
    periods = range(start, stop + 1, step)
    rows = return_level_curve(sample, periods, args.alpha, args.method, *_bayes_setup(args, cfg))
    cols = ["T", "tau_e", "k", "point", "lower", "upper", "error"]
    _write_out(args, tio.rows_to_csv_text(rows, cols))
    return 0


def cmd_risk(args) -> int:
    cfg = _load_config(args.config, _COMMAND)
    data = tio.read_numeric_csv(args.input)
    sample = SortedSample.from_data(data)
    if args.return_periods:
        return _risk_return_level_table(args, sample, cfg)
    if args.tau_e is None:
        raise DomainError("risk needs --tau-e (or --return-periods for a table)")
    tail = _fit(args, cfg, sample, args.k)
    e = tail.e
    if args.tau_e < e.tau_i:
        raise DomainError(
            f"--tau-e {args.tau_e} lies below the intermediate level {e.tau_i:.6g}"
        )
    model = tail.at(LevelPair.intermediate(e.tau_i))
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
        "interval": _interval(rep.interval) if rep.interval else None,
    }
    _emit(args, report)
    return 0


def cmd_ts(args) -> int:
    cfg = _load_config(args.config, _TS_COMMAND)
    columns = 3 if args.filter == "external" else 1
    data = tio.read_numeric_csv(args.input, columns=columns)
    sampler = None
    if args.method == "bayes":
        sampler = SamplerConfig(seed=args.seed, **_sampler_keys(cfg.get("sampler"), "--seed"))
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
        _emit(args, {"command": "ts", "rows": rows})
    else:
        _write_out(args, tio.rows_to_csv_text(rows, cols))
    return 0


_FAMILIES = {
    "exact-gp": (ExactGP, {"gamma": float, "sigma": float}, ("gamma", "sigma")),
    "pareto": (Pareto, {"alpha": float}, ("alpha",)),
    "frechet": (Frechet, {"alpha": float}, ("alpha",)),
    "burr": (Burr, {"shape1": float, "shape2": float}, ("shape1", "shape2")),
    "exponential": (Exponential, {"rate": float}, ()),
    "beta-tail": (BetaTail, {"a": float, "b": float}, ("a", "b")),
}

_EXPERIMENTS = {
    "coverage": lambda run: coverage_experiment(run).rows(),
    "contraction": contraction_experiment,
    "tail-equivalence": tail_equivalence_experiment,
    "risk-error": risk_error_experiment,
    "ts-coverage": ts_coverage_experiment,
}

_K_RULE = {"kind": str, "k": int, "coef": float, "delta": float, "eta": float}
_TS = {
    "phi": float, "window": int, "origins": int, "k": int, "tau_star": float,
    "alpha": float, "burn": int, "stride": int,
}
_SIMULATION = {
    "experiment": _one_of(*_EXPERIMENTS),
    "generator": lambda v: _variant(v, _FAMILIES, "generator", tag="family"),
    "n": int,
    "n_ladder": lambda v: tuple(int(n) for n in v) if v else None,
    "k": lambda v: _section(v, KRule, _K_RULE, "k"),
    "levels": lambda v: _section(v, LevelRule, {"kind": str, "value": float}, "levels"),
    "alpha": float,
    "replications": int,
    "methods": tuple,
    "seed": int,
    "rel_err_tol": float,
    "sampler": partial(_sampler_keys, reseeded_by="the top-level seed or --seed"),
    "ts": lambda v: _section(v, dict, _TS, "ts"),
}


def _simulation(cfg: dict, seed: int):
    """``(experiment, run config)`` of a simulation config; ``seed`` is --seed."""
    sim = _section(cfg, dict, _SIMULATION, "simulation config", ("experiment", "generator"))
    experiment, family = sim.pop("experiment"), sim.pop("generator")
    sampler = sim.pop("sampler", {})
    seed = sim.setdefault("seed", seed)
    # a key the experiment would drop exits 3 rather than doing nothing
    ts_run = experiment == "ts-coverage"
    unused = sorted(set(sim) - {"methods", "seed", "ts"} if ts_run else set(sim) & {"ts"})
    if unused:
        raise DomainError(f"a {experiment} run does not read {', '.join(unused)}")
    if ts_run:
        run = TsCoverageConfig(innovations=family, **{"phi": 0.6, **sim.pop("ts", {})}, **sim)
    else:
        generator = Generator(family, seed=seed)
        rules = sim.pop("k", KRule()), sim.pop("levels", LevelRule())
        run = ExperimentConfig(generator, sim.pop("n", 10_000), *rules, **sim)
    return experiment, replace(run, sampler=replace(run.sampler, **sampler))


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise DomainError("simulate requires a config file")
    experiment, run = _simulation(cfg, args.seed)
    rows = _EXPERIMENTS[experiment](run)
    out_prefix = args.out or "experiment"
    tio.write_csv_rows(out_prefix + ".csv", rows)
    summary = {"command": "simulate", "experiment": experiment, "seed": run.seed}
    tio.write_json(out_prefix + ".json", {**summary, "rows": rows})
    sys.stdout.write(f"wrote {out_prefix}.csv and {out_prefix}.json\n")
    return 0


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
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (NumericError, EstimationError, SamplerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except TailcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
