"""Tracing for the benchmark's traced run, installed from outside ``src/``.

``Tracer.install`` replaces the public (not underscored) functions of each
tailcast module, and every other module's reference to them, with timing
wrappers; ``uninstall`` puts the originals back.  Most wrappers record a span
(name, start, end, parent) kept in memory.  Hot leaf kernels, which run
hundreds of thousands of times, are only counted and timed in aggregate,
and their time is charged to the span that called them.  A span's self
time is its duration minus its child spans and its kernels.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "cli", "io", "gpd", "estimation", "bayes", "predict",
    "density", "risk", "timeseries", "simlab",
)

# public functions too hot for a span each: (module, name) -> aggregate name
_KERNEL_FUNCS = {("estimation", "gp_negloglik"): "estimation.gp_negloglik"}
_KERNEL_METHODS = {
    ("predict", "BayesianPredictive"): {
        "cdf": "predict.cdf", "pdf": "predict.pdf", "mean": "predict.mean",
    },
    ("predict", "FrequentistPredictive"): {
        "cdf": "predict.freq.cdf", "pdf": "predict.freq.pdf",
        "quantile": "predict.freq.quantile", "mean": "predict.freq.mean",
    },
}
_SPAN_METHODS = {("predict", "BayesianPredictive"): {"quantile": "predict.quantile"}}
# scipy optimizers seen from inside the program, counted per calling span
_OPTIMIZERS = {"estimation": "estimation.minimize", "timeseries": "timeseries.minimize"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "kernel", "counts", "extra")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.kernel = 0.0  # aggregate-kernel time spent directly under this span
        self.counts = {}  # aggregate-kernel calls made directly under this span
        self.extra = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.kernels: dict[str, list] = {}  # name -> [calls, seconds]
        self.hellinger_cases: dict = {}  # first call per (law, tau_i): model, value, tol
        self.abs_err = 0.0  # largest gap from the Hellinger reference, set by the check
        self._kernel_depth = 0
        self._layer_depth: dict[str, int] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, after=None, before=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, self.spans[idx], args, kwargs, result)
            return result

        return wrapped

    def kernel(self, name: str, fn, after=None):
        stats = self.kernels.setdefault(name, [0, 0.0])
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._layer_depth.get(layer, 0) and after is None:
                return fn(*args, **kwargs)  # inner call of the same layer
            self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
            outermost = self._kernel_depth == 0
            self._kernel_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._kernel_depth -= 1
                self._layer_depth[layer] -= 1
                stats[0] += 1
                stats[1] += dt
                if self.stack:
                    top = self.spans[self.stack[-1]]
                    top.counts[name] = top.counts.get(name, 0) + 1
                    if outermost:
                        top.kernel += dt
            if after is not None and self.stack:
                after(self, self.spans[self.stack[-1]], result)
            return result

        return wrapped

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        mods = {name: importlib.import_module(f"tailcast.{name}") for name in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                full = f"{layer}.{attr}"
                if layer == "gpd":
                    replaced[fn] = self.kernel(full, fn)
                elif (layer, attr) in _KERNEL_FUNCS:
                    replaced[fn] = self.kernel(_KERNEL_FUNCS[(layer, attr)], fn)
                else:
                    after, before = _HOOKS.get(full, (None, None))
                    replaced[fn] = self.span(full, fn, after=after, before=before)
        # swap every module-level reference, so `from .x import f` copies see it too
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("tailcast"):
                continue
            for attr, val in list(vars(mod).items()):
                try:
                    hit = val in replaced
                except TypeError:
                    continue
                if hit:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, replaced[val])
        for table, make in ((_KERNEL_METHODS, self.kernel), (_SPAN_METHODS, self.span)):
            for (layer, cls_name), methods in table.items():
                cls = getattr(mods[layer], cls_name)
                for meth, name in methods.items():
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
        for layer, name in _OPTIMIZERS.items():
            orig = mods[layer].minimize
            self._undo.append((mods[layer], "minimize", orig))
            setattr(mods[layer], "minimize", self.kernel(name, orig, after=_count_nfev))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- output --------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "kernel_s": s.kernel, "kernels": s.counts,
                    **({"extra": s.extra} if s.extra else {}),
                }) + "\n")
            fh.write(json.dumps({"kernels": self.kernels}) + "\n")


def _count_nfev(tracer, span, result):
    span.extra["nfev"] = span.extra.get("nfev", 0) + int(getattr(result, "nfev", 0))


def _after_chain(tracer, span, args, kwargs, ps):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    span.extra.update(
        steps=cfg.burn_in + cfg.draws * cfg.thin,
        ess_gamma=float(ps.ess[0]),
        acceptance=float(ps.acceptance_rate),
    )


def _before_hellinger(tracer, args, kwargs):
    """Count integrand evaluations through the second density."""
    f, g = args[0], args[1]
    box = tracer.spans  # evaluation counts land on the span about to open
    slot = len(box)

    def counted(x):
        box[slot].extra["evals"] = box[slot].extra.get("evals", 0) + 1
        return g(x)

    counted.model = getattr(g, "__self__", None)
    return (f, counted, *args[2:]), kwargs


def _after_hellinger(tracer, span, args, kwargs, result):
    model = args[1].model
    if model is None:
        return
    key = (type(model).__name__, round(model.levels.tau_i, 12))
    if key not in tracer.hellinger_cases:
        tol = kwargs.get("abs_tol", args[3] if len(args) > 3 else None)
        tracer.hellinger_cases[key] = {"model": model, "value": result, "abs_tol": tol}


_HOOKS = {
    "bayes.sample_posterior": (_after_chain, None),
    "density.hellinger": (_after_hellinger, _before_hellinger),
}


# -- per-layer metrics ----------------------------------------------------------
def _self_time(spans: list[Span]) -> list[float]:
    own = [s.end - s.start - s.kernel for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round, from the spans and kernel counters."""
    spans = tracer.spans
    own = _self_time(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def outermost(prefixes):
        """Spans matching ``prefixes`` with no matching ancestor."""
        out = []
        for i, s in enumerate(spans):
            if not s.name.startswith(prefixes):
                continue
            p = s.parent
            while p >= 0 and not spans[p].name.startswith(prefixes):
                p = spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    k = tracer.kernels
    gpd = [v for name, v in k.items() if name.startswith("gpd.")]
    gpd_calls = sum(v[0] for v in gpd)
    gpd_s = sum(v[1] for v in gpd)

    fits = by_name.get("estimation.fit_ml", [])
    chains = by_name.get("bayes.sample_posterior", [])
    chain_set = set(chains)
    fits_in_chain = [i for i in fits if spans[i].parent in chain_set]
    chain_self = sum(own[i] for i in chains)
    steps = sum(spans[i].extra["steps"] for i in chains)
    ess = sum(spans[i].extra["ess_gamma"] for i in chains)
    chain_s = sum(dur(i) for i in chains)

    quantiles = by_name.get("predict.quantile", [])
    cdf_in_q = sum(spans[i].counts.get("predict.cdf", 0) for i in quantiles)
    pdf_calls, pdf_s = k.get("predict.pdf", [0, 0.0])

    hell = by_name.get("density.hellinger", [])
    garch = by_name.get("timeseries.fit_garch11", [])
    writes = outermost(("io.write_csv_rows", "io.write_json", "io.atomic_write_text"))
    experiments = [i for i, s in enumerate(spans) if s.name.endswith("_experiment")]

    per_round = 1.0 / rounds
    return {
        "cli.self_ms": 1e3 * mean([own[i] for i in by_name.get("cli.main", [])]),
        "io.read_csv_ms": 1e3 * mean([dur(i) for i in by_name.get("io.read_numeric_csv", [])]),
        "io.write_ms": 1e3 * mean([dur(i) for i in writes]),
        "gpd.calls": gpd_calls * per_round,
        "gpd.us_per_call": 1e6 * gpd_s / gpd_calls if gpd_calls else 0.0,
        "gpd.busy_s": gpd_s * per_round,
        "estimation.fit_ml.calls": len(fits) * per_round,
        "estimation.fit_ml.ms_per_call": 1e3 * mean([dur(i) for i in fits]),
        "estimation.fit_ml.per_chain": len(fits_in_chain) / len(chains) if chains else 0.0,
        "estimation.fit_ml.nm_runs": mean(
            [spans[i].counts.get("estimation.minimize", 0) for i in fits]
        ),
        "bayes.chains": len(chains) * per_round,
        "bayes.busy_s": chain_s * per_round,
        "bayes.us_per_step": 1e6 * chain_self / steps if steps else 0.0,
        "bayes.ess_per_s": ess / chain_s if chain_s else 0.0,
        "predict.quantile.calls": len(quantiles) * per_round,
        "predict.quantile.ms_per_call": 1e3 * mean([dur(i) for i in quantiles]),
        "predict.cdf_per_quantile": cdf_in_q / len(quantiles) if quantiles else 0.0,
        "predict.interval.busy_s": per_round * sum(
            dur(i) for i in outermost(("predict.predictive_interval",))
        ),
        "predict.pdf.calls": pdf_calls * per_round,
        "predict.pdf.us_per_call": 1e6 * pdf_s / pdf_calls if pdf_calls else 0.0,
        "density.hellinger.calls": len(hell) * per_round,
        "density.hellinger.ms_per_call": 1e3 * mean([dur(i) for i in hell]),
        "density.evals_per_call": mean([spans[i].extra.get("evals", 0) for i in hell]),
        "risk.busy_s": per_round * sum(dur(i) for i in outermost(("risk.",))),
        "timeseries.fit_garch11.ms_per_call": 1e3 * mean([dur(i) for i in garch]),
        "timeseries.garch_nfev": mean([spans[i].extra.get("nfev", 0) for i in garch]),
        "simlab.generate.busy_s": per_round * sum(
            dur(i) for i in by_name.get("simlab.generate", [])
        ),
        "simlab.self_s": per_round * sum(own[i] for i in experiments),
    }


def chain_acceptance(tracer: Tracer) -> list[float]:
    return [s.extra["acceptance"] for s in tracer.spans if s.name == "bayes.sample_posterior"]
