"""Benchmark of the tailcast package: an analyst's CLI commands and simlab experiments.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it imports ``src/tailcast``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs one traced round of every workload, at small sizes where
the workload allows, with all checks, and prints every metric name.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one process carries the load: one BLAS thread, no tailcast thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TAILCAST_THREADS", None)

WORKLOADS_ALL = ("desk", "simlab")
SETUP_LAUNCHES = 3
END_TO_END = {"setup_s": "s", "ml.op_ms": "ms", "bayes.op_ms": "ms"}  # name -> unit

PER_LAYER_UNITS = {
    "setup.scipy_import_s": "s",
    "cli.self_ms": "ms",
    "io.read_csv_ms": "ms",
    "io.write_ms": "ms",
    "gpd.calls": "count",
    "gpd.us_per_call": "us",
    "gpd.busy_s": "s",
    "estimation.fit_ml.calls": "count",
    "estimation.fit_ml.ms_per_call": "ms",
    "estimation.fit_ml.per_chain": "count",
    "estimation.fit_ml.nm_runs": "count",
    "bayes.chains": "count",
    "bayes.busy_s": "s",
    "bayes.us_per_step": "us",
    "bayes.ess_per_s": "1/s",
    "predict.quantile.calls": "count",
    "predict.quantile.ms_per_call": "ms",
    "predict.cdf_per_quantile": "count",
    "predict.interval.busy_s": "s",
    "predict.pdf.calls": "count",
    "predict.pdf.us_per_call": "us",
    "density.hellinger.calls": "count",
    "density.hellinger.ms_per_call": "ms",
    "density.evals_per_call": "count",
    "density.abs_err": "1",
    "risk.busy_s": "s",
    "timeseries.fit_garch11.ms_per_call": "ms",
    "timeseries.garch_nfev": "count",
    "simlab.generate.busy_s": "s",
    "simlab.self_s": "s",
    "trace.overhead_s": "s",
    "trace.base_s": "s",
}


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_seconds(launches: int) -> float:
    """Median time of ``import tailcast.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import tailcast.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(launches):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def scipy_import_seconds() -> float:
    """Self time of every scipy module under ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tailcast.cli"],
                         env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    total_us = 0
    for line in out.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        name = parts[-1].strip()
        if len(parts) == 3 and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(parts[0])
    return total_us / 1e6


def run_round(w, r: int) -> list[tuple]:
    """Round r, one timing per step: (kind, path, seconds, operations, failures)."""
    timings = []
    for kind, path, step in w.operations(r):
        t0 = time.perf_counter()
        ops, failed = step()
        timings.append((kind, path, time.perf_counter() - t0, ops, failed))
    w.end_round(r)
    return timings


def run_traced_round(w, r: int, tracer) -> tuple[list[tuple], list[tuple], float]:
    """Round r with the wrappers installed around every step.

    The first step of each kind also runs untraced, back to back with its
    traced run, alternating which goes first; timing the same step next to
    itself keeps the host's slow and fast stretches out of the tracing
    overhead, which two whole rounds would not.  Returns the traced timings,
    the untraced timings of the paired steps and their traced seconds.
    """
    traced, plain, paired_s, seen = [], [], 0.0, set()
    for i, (kind, path, step) in enumerate(w.operations(r)):
        if kind in seen:
            modes = (True,)
        else:
            seen.add(kind)
            modes = (False, True) if (i + r) % 2 == 0 else (True, False)
        for on in modes:
            if on:
                tracer.install()
            try:
                t0 = time.perf_counter()
                ops, failed = step()
                dt = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if not on:
                plain.append((kind, path, dt, ops, failed))
                continue
            traced.append((kind, path, dt, ops, failed))
            if len(modes) == 2:
                paired_s += dt
    w.end_round(r)
    return traced, plain, paired_s


def run_rounds(round_fn, seconds: float) -> list:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    start = time.perf_counter()
    rows, r = [], 0
    while True:
        t0 = time.perf_counter()
        rows.append(round_fn(r))
        r += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rows


def end_to_end(rounds: list[list[tuple]], setup_s: float) -> tuple:
    """(metrics, per-kind detail, attempted, failed) from the untraced rounds.

    A path's latency is the median over rounds of the round's time on that
    path's kinds over their operations.  Every round does the same work, so
    the rounds differ only by the host's speed, and the median keeps a few
    slow stretches of a shared host out of the figure.  Pooling a path's
    kinds within a round keeps a command whose cost swings with the seed
    but takes little time from swinging the path's figure.  Round 0 is a
    warm-up: it pays the first calls' lazy imports and caches, so it counts
    in ``attempted`` and ``failed`` but not in the latencies when later
    rounds exist.
    """
    per_kind: dict[str, list] = {}  # kind -> latency per round, ms
    per_path: dict[str, list] = {"ml": [], "bayes": []}  # path -> latency per round, ms
    attempted = sum(t[3] for timings in rounds for t in timings)
    failed = sum(t[4] for timings in rounds for t in timings)
    for timings in rounds[1:] or rounds:
        acc: dict[str, list] = {}  # path -> [seconds, operations]
        for kind, path, seconds, ops, _ in timings:
            per_kind.setdefault(kind, []).append(1e3 * seconds / ops)
            if path is not None:
                a = acc.setdefault(path, [0.0, 0])
                a[0] += seconds
                a[1] += ops
        for path, (seconds, ops) in acc.items():
            per_path[path].append(1e3 * seconds / ops)
    metrics = {
        "setup_s": setup_s,
        "ml.op_ms": statistics.median(per_path["ml"]),
        "bayes.op_ms": statistics.median(per_path["bayes"]),
    }
    detail = {kind: {"op_ms": statistics.median(v), "samples": len(v)}
              for kind, v in per_kind.items()}
    return metrics, detail, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload run, untraced or traced.

    A traced run traces every step and also runs the first step of each
    kind untraced; the per-layer metrics come from the traced steps and the
    overhead from the pairs.  A smoke run is a traced run at small sizes that
    prints both metric sets, the end-to-end ones from its untraced steps.
    """
    import tailcast.cli  # noqa: F401  (the in-process import stays out of the timing)
    import tracing
    import workloads

    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    try:
        if smoke:
            setup_s = setup_seconds(1)
        elif trace:
            setup_s = 0.0  # not reported by a traced run
        else:
            setup_s = setup_seconds(SETUP_LAUNCHES)
        w = workloads.WORKLOADS[name](seed, str(workdir), smoke)
        if not trace:
            rounds = run_rounds(lambda r: run_round(w, r), seconds)
            metrics, detail, attempted, failed = end_to_end(rounds, setup_s)
            errors = w.check()
        else:
            tracer = tracing.Tracer()
            rounds = run_rounds(lambda r: run_traced_round(w, r, tracer), seconds)
            errors = w.check(tracer)
            traced = [t for row in rounds for t in row[0]]
            plain = [t for row in rounds for t in row[1]]
            metrics, _, attempted, failed = end_to_end([plain], setup_s)
            attempted += sum(t[3] for t in traced)
            failed += sum(t[4] for t in traced)
            # round 0 pays the first calls' warm-up on whichever of a pair runs
            # first, so the overhead comes from the later rounds when there are any
            paired = rounds[1:] or rounds
            plain_s = sum(t[2] for row in paired for t in row[1])
            paired_s = sum(row[2] for row in paired)
            metrics.update(tracing.layer_metrics(tracer, len(rounds)))
            metrics.update({
                "setup.scipy_import_s": scipy_import_seconds(),
                "density.abs_err": tracer.abs_err,
                "trace.overhead_s": (paired_s - plain_s) / len(paired),
                "trace.base_s": plain_s / len(paired),
            })
            detail = {"rounds": len(rounds), "spans": len(tracer.spans)}
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.write(str(out / f"trace-{name}-{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors:
        print(f"CHECK FAILED [{name}]: {err}", file=sys.stderr)
    print(json.dumps({"workload": name, "detail": detail}))
    units = PER_LAYER_UNITS if trace else END_TO_END
    if smoke:
        units = {**END_TO_END, **PER_LAYER_UNITS}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS_ALL, "all"), default="all")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small traced round per workload; every check and metric")
    args = parser.parse_args(argv)

    if not (SRC / "tailcast" / "__init__.py").is_file():
        print(f"perfbench: no tailcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    names = list(WORKLOADS_ALL) if args.workload == "all" else [args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    results = {}
    for name in names:
        res = run_workload(name, args.seed, seconds, args.smoke or bool(args.trace), args.smoke)
        if len(names) > 1:
            print(json.dumps({"workload": name, **res}))
        results[name] = res
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:  # one summary object over every workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
