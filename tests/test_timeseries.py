import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.signal import lfilter

import tailcast.timeseries as ts
from tailcast.bayes import SamplerConfig
from tailcast.errors import DegenerateDataError, DomainError, TailcastError
from tailcast.estimation import SortedSample, select_exceedances
from tailcast.gpd import GpParams, LevelPair
from tailcast.predict import fit_tail, predictive_interval
from tailcast.risk import var_from_predictive
from tailcast.timeseries import (
    ArModel,
    Garch11Model,
    RollingConfig,
    conditional_predictive,
    fit_ar,
    fit_garch11,
    residual_pipeline,
    residuals_from_filter,
    rolling_forecast,
)


def simulate_ar1(phi, n, seed, innovations="t5"):
    rng = np.random.default_rng(seed)
    if innovations == "t5":
        eps = rng.standard_t(df=5, size=n)
    elif innovations == "pareto2":
        eps = (1.0 - rng.random(n)) ** -0.5
    else:
        eps = rng.standard_normal(n)
    y = np.zeros(n)
    y[0] = eps[0]
    for i in range(1, n):
        y[i] = phi * y[i - 1] + eps[i]
    return y, eps


def simulate_garch(omega, alpha, beta, n, seed, df=None):
    rng = np.random.default_rng(seed)
    if df is None:
        z = rng.standard_normal(n)
    else:  # unit-variance Student-t innovations
        z = rng.standard_t(df, size=n) * math.sqrt((df - 2.0) / df)
    s2 = np.empty(n)
    y = np.empty(n)
    s2[0] = omega / (1.0 - alpha - beta)
    y[0] = math.sqrt(s2[0]) * z[0]
    for i in range(1, n):
        s2[i] = omega + alpha * y[i - 1] ** 2 + beta * s2[i - 1]
        y[i] = math.sqrt(s2[i]) * z[i]
    return y


class TestAr:
    def test_ols_consistency(self):
        y, _ = simulate_ar1(0.6, 10_000, seed=0)
        model = fit_ar(y, 1)
        assert model.coefficients[0] == pytest.approx(0.6, abs=0.03)

    def test_white_noise_zero_coefficient(self):
        rng = np.random.default_rng(1)
        model = fit_ar(rng.standard_normal(10_000), 1)
        assert model.coefficients[0] == pytest.approx(0.0, abs=0.03)

    def test_constant_series_rank_error(self):
        with pytest.raises(DegenerateDataError):
            fit_ar(np.full(500, 3.0), 1)

    def test_too_short(self):
        with pytest.raises(DomainError):
            fit_ar(np.arange(15.0), 2)

    def test_exact_filter_recovers_innovations(self):
        y, eps = simulate_ar1(0.6, 2_000, seed=2)
        rs = residual_pipeline(y, ArModel(coefficients=np.array([0.6]), fitted_on=2_000))
        assert np.allclose(rs.residuals, eps[1:], atol=1e-12)
        assert rs.xi_next == 1.0
        assert rs.mu_next == pytest.approx(0.6 * y[-1])


class TestGarch:
    def test_qml_recovers_parameters(self):
        y = simulate_garch(0.1, 0.1, 0.8, 10_000, seed=3)
        model = fit_garch11(y)
        assert model.omega == pytest.approx(0.1, abs=0.05)
        assert model.alpha == pytest.approx(0.1, abs=0.05)
        assert model.beta == pytest.approx(0.8, abs=0.05)

    def test_qml_replication_batch(self):
        hits = 0
        reps = 30
        for r in range(reps):
            y = simulate_garch(0.1, 0.1, 0.8, 10_000, seed=100 + r)
            m = fit_garch11(y)
            ok = (
                abs(m.omega - 0.1) < 0.05
                and abs(m.alpha - 0.1) < 0.05
                and abs(m.beta - 0.8) < 0.05
            )
            hits += int(ok)
        assert hits >= 0.8 * reps

    def test_minimize_attribute_resolves_to_scipy(self):
        # perfbench/tracing.py looks `minimize` up on both modules to wrap it
        import tailcast.estimation as estimation

        assert ts.minimize is minimize
        assert estimation.minimize is minimize
        with pytest.raises(AttributeError):
            ts.no_such_name

    @staticmethod
    def spy_on_searches(monkeypatch):
        """Record each ``_garch_newton`` search's start, value and end point."""
        searches = []
        search = ts._garch_newton

        def spy(z, alpha, beta):
            value, x = search(z, alpha, beta)
            searches.append(((alpha, beta), value, x))
            return value, x

        monkeypatch.setattr(ts, "_garch_newton", spy)
        return searches

    def test_one_search_from_the_best_grid_cell(self, monkeypatch):
        y = simulate_garch(0.1, 0.1, 0.8, 1_000, seed=3)
        expected = fit_garch11(y)
        searches = self.spy_on_searches(monkeypatch)
        assert fit_garch11(y) == expected
        cells = ts._garch_grid_neg_qll((y - y.mean()) / y.std())
        i, j = np.unravel_index(np.argmin(cells), cells.shape)
        assert [start for start, _, _ in searches] == [
            (ts._GARCH_GRID_ALPHA[i], ts._GARCH_GRID_BETA[j])
        ]
        assert searches[0][2][2] >= ts._GARCH_FALLBACK_ALPHA

    def test_low_alpha_fit_also_searches_from_the_fixed_starts(self, monkeypatch):
        y = np.random.default_rng(5).standard_normal(1_000)
        expected = fit_garch11(y)
        searches = self.spy_on_searches(monkeypatch)
        assert fit_garch11(y) == expected
        assert [start for start, _, _ in searches[1:]] == list(
            ts._GARCH_STARTS + ts._GARCH_FACE_STARTS
        )
        assert searches[0][2][2] < ts._GARCH_FALLBACK_ALPHA
        # the face starts run because the best of the first five is near the face
        assert min(searches[:5], key=lambda s: s[1])[2][2] < ts._GARCH_FACE_ALPHA

    def test_face_starts_only_near_the_face(self, monkeypatch):
        # a GARCH window whose fit takes the fallback and ends at alpha >= 0.01
        y = simulate_garch(0.05, 0.05, 0.9, 1_000, seed=0)
        searches = self.spy_on_searches(monkeypatch)
        model = fit_garch11(y)
        assert [start for start, _, _ in searches[1:]] == list(ts._GARCH_STARTS)
        assert ts._GARCH_FACE_ALPHA <= model.alpha < ts._GARCH_FALLBACK_ALPHA

    def test_search_ends_feasible_and_stationary(self):
        # the end point of every search lies in the feasible triangle, and
        # no feasible step from it lowers the objective to first order
        cap = ts._GARCH_MAX_PERSISTENCE
        y = np.random.default_rng(5).standard_normal(1_000)
        z = (y - y.mean()) / y.std()
        for alpha, beta in ts._GARCH_STARTS + ts._GARCH_FACE_STARTS:
            _, x = ts._garch_newton(z, alpha, beta)
            assert x[2] >= 0.0 and x[3] >= 0.0 and x[2] + x[3] <= cap
            _, grad = ts._garch_neg_qll(x, z)
            assert np.max(np.abs(grad[:2])) < 1e-6
            for d_alpha, d_beta in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)):
                a, b = x[2] + 1e-3 * d_alpha, x[3] + 1e-3 * d_beta
                if a >= 0.0 and b >= 0.0 and a + b <= cap:
                    assert grad[2] * d_alpha + grad[3] * d_beta > -1e-6

    def test_hessian_matches_central_differences_of_the_gradient(self):
        z = (GRADIENT_SERIES - GRADIENT_SERIES.mean()) / GRADIENT_SERIES.std()
        for params in ([0.05, -2.0, 0.1, 0.8], [-0.1, -5.0, 0.3, 0.69], [0.0, 0.0, 0.0, 0.0]):
            params = np.array(params)
            value, grad, hess = ts._garch_neg_qll(params, z, hessian=True)
            plain_value, plain_grad = ts._garch_neg_qll(params, z)
            assert value == plain_value and grad.tobytes() == plain_grad.tobytes()
            numeric = np.empty((4, 4))
            for i in range(4):
                step = np.zeros(4)
                step[i] = 1e-6
                up = ts._garch_neg_qll(params + step, z)[1]
                down = ts._garch_neg_qll(params - step, z)[1]
                numeric[:, i] = (up - down) / 2e-6
            np.testing.assert_allclose(hess, numeric, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-15)

    def test_iid_input_small_persistence(self):
        rng = np.random.default_rng(5)
        model = fit_garch11(rng.standard_normal(5_000))
        assert model.alpha < 0.05

    def test_zero_variance_tail_guard(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(1_000)
        y[-200:] = 0.5
        with pytest.raises(DegenerateDataError):
            fit_garch11(y)

    def test_constant_series(self):
        with pytest.raises(DegenerateDataError):
            fit_garch11(np.full(500, 1.0))

    def test_needs_enough_data(self):
        with pytest.raises(DomainError):
            fit_garch11(np.arange(100.0))

    def test_filter_reconstruction_and_positivity(self):
        y = simulate_garch(0.05, 0.08, 0.9, 3_000, seed=7)
        model = fit_garch11(y)
        rs = residual_pipeline(y, model)
        recon = rs.mu + rs.xi * rs.residuals
        assert np.max(np.abs(recon - y[rs.skipped_prefix:])) < 1e-10
        assert np.all(rs.xi > 0.0)
        assert rs.xi_next > 0.0

    def test_squared_residual_autocorrelation_is_small(self):
        # correctly filtered GARCH data leaves approximately iid residuals
        y = simulate_garch(0.1, 0.1, 0.8, 8_000, seed=8)
        rs = residual_pipeline(y, fit_garch11(y))
        sq = rs.residuals**2 - np.mean(rs.residuals**2)
        n = sq.size
        stat = 0.0
        for lag in range(1, 11):
            rho = float(np.dot(sq[:-lag], sq[lag:]) / np.dot(sq, sq))
            stat += n * rho * rho
        assert stat < 23.2  # chi-square(10) upper percentile


def reference_neg_qll(params, y):
    """The Gaussian quasi-likelihood objective, with a penalty outside the
    stationarity region, as the Nelder-Mead search used it."""
    mu, log_omega, alpha, beta = params
    if alpha < 0.0 or beta < 0.0 or alpha + beta > 0.9995:
        return 1e12 * (1.0 + max(0.0, alpha + beta - 0.9995))
    sq = (y - mu) ** 2
    s2_0 = float(np.mean(sq))
    c = math.exp(log_omega) + alpha * sq[:-1]
    tail, _ = lfilter([1.0], [1.0, -beta], c, zi=np.array([beta * s2_0]))
    s2 = np.concatenate([[s2_0], tail])
    return 0.5 * float(np.mean(np.log(s2) + sq / s2))


def nelder_mead_reference(y):
    """Best penalized Nelder-Mead end point from the three classic starts."""
    var_y = float(np.var(y))
    best = math.inf
    for a0, b0 in ((0.05, 0.90), (0.10, 0.80), (0.02, 0.50)):
        start = [float(np.mean(y)), math.log(var_y * (1.0 - a0 - b0)), a0, b0]
        res = minimize(
            reference_neg_qll,
            start,
            args=(y,),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-11, "maxiter": 4000, "maxfev": 6000},
        )
        best = min(best, res.fun)
    return best


def four_start_reference(y):
    """Best SLSQP end point from the four fixed starts, as the fit searched
    before its grid start, mapped back to the scale of ``y``."""
    loc, scale = float(np.mean(y)), float(np.std(y))
    z = (y - loc) / scale
    persistence = {
        "type": "ineq",
        "fun": lambda p: 0.9995 - p[2] - p[3],
        "jac": lambda p: np.array([0.0, 0.0, -1.0, -1.0]),
    }
    best = None
    for a0, b0 in ((0.05, 0.90), (0.10, 0.80), (0.02, 0.50), (0.01, 0.98)):
        res = minimize(
            ts._garch_neg_qll,
            [0.0, math.log(1.0 - a0 - b0), a0, b0],
            args=(z,),
            jac=True,
            method="SLSQP",
            bounds=[(None, None), (None, None), (0.0, 0.9995), (0.0, 0.9995)],
            constraints=[persistence],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if best is None or res.fun < best.fun:
            best = res
    mu_z, log_omega_z, alpha, beta = best.x
    params = [loc + scale * mu_z, log_omega_z + 2.0 * math.log(scale), alpha, beta]
    return reference_neg_qll(params, y)


GRADIENT_SERIES = simulate_garch(0.1, 0.1, 0.8, 1_000, seed=3)

# Prints an md5 of the quasi-likelihood's value, gradient and Hessian bytes
# at 20 points on each of 3 simulated GARCH windows, of the grid values, of
# the fitted models, and of a `tailcast ts --filter garch11` output.
OBJECTIVE_BYTES_CODE = """
import hashlib, math, os, tempfile, warnings
import numpy as np
import tailcast.timeseries as ts
from tailcast.cli import main

def garch_t(rng, n):
    eps = rng.standard_t(5.0, n) * math.sqrt(0.6)
    y, s2 = np.empty(n), 1.0
    for t in range(n):
        y[t] = math.sqrt(s2) * eps[t]
        s2 = 0.02 + 0.08 * y[t] ** 2 + 0.9 * s2
    return y

warnings.simplefilter("ignore")
h = hashlib.md5()
for seed in range(3):
    rng = np.random.default_rng(seed)
    y = garch_t(rng, 1_000)
    z = (y - y.mean()) / y.std()
    h.update(ts._garch_grid_neg_qll(z).tobytes())
    for p in rng.uniform([-0.3, -6.0, 0.0, 0.0], [0.3, 0.0, 0.4, 0.59], (20, 4)):
        value, grad, hess = ts._garch_neg_qll(p, z, hessian=True)
        h.update(np.float64(value).tobytes() + grad.tobytes() + hess.tobytes())
    m = ts.fit_garch11(y)
    h.update(np.array([m.omega, m.alpha, m.beta, m.mean]).tobytes())
with tempfile.TemporaryDirectory() as tmp:
    series, out = os.path.join(tmp, "series.csv"), os.path.join(tmp, "out.csv")
    np.savetxt(series, garch_t(np.random.default_rng(3), 3_000))
    main(["ts", "--input", series, "--filter", "garch11", "--k", "100",
          "--window", "1000", "--stride", "1000", "--out", out])
    with open(out, "rb") as fh:
        h.update(fh.read())
print(h.hexdigest())
"""


class TestGarchSolver:
    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(-0.5, 0.5),
        log_omega=st.floats(-5.0, 1.0),
        alpha=st.floats(0.0, 0.6),
        beta=st.floats(0.0, 0.9995),
    )
    def test_gradient_matches_central_differences(self, mu, log_omega, alpha, beta):
        beta = min(beta, 0.9995 - alpha)
        params = np.array([mu, log_omega, alpha, beta])
        value, grad = ts._garch_neg_qll(params, GRADIENT_SERIES)
        assert value == reference_neg_qll(params, GRADIENT_SERIES)
        numeric = np.empty(4)
        for i in range(4):
            step = np.zeros(4)
            step[i] = 1e-6 * max(1.0, abs(params[i]))
            up, _ = ts._garch_neg_qll(params + step, GRADIENT_SERIES)
            down, _ = ts._garch_neg_qll(params - step, GRADIENT_SERIES)
            numeric[i] = (up - down) / (2.0 * step[i])
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)

    def test_grid_matches_the_objective_on_every_cell(self):
        z = (GRADIENT_SERIES - GRADIENT_SERIES.mean()) / GRADIENT_SERIES.std()
        cells = ts._garch_grid_neg_qll(z)
        assert cells.shape == (ts._GARCH_GRID_ALPHA.size, ts._GARCH_GRID_BETA.size)
        for i, alpha in enumerate(ts._GARCH_GRID_ALPHA):
            for j, beta in enumerate(ts._GARCH_GRID_BETA):
                if alpha + beta > ts._GARCH_MAX_PERSISTENCE:
                    assert cells[i, j] == math.inf
                    continue
                params = np.array([0.0, math.log(1.0 - alpha - beta), alpha, beta])
                value, _ = ts._garch_neg_qll(params, z)
                assert cells[i, j] == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_no_worse_than_four_starts(self, seed):
        y = simulate_garch(0.05, 0.08, 0.9, 1_000, seed=seed, df=5.0)
        model = fit_garch11(y)
        params = [model.mean, math.log(model.omega), model.alpha, model.beta]
        assert reference_neg_qll(params, y) <= four_start_reference(y) + 1e-12

    def test_objective_bytes_do_not_depend_on_blas_threads(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ts.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", OBJECTIVE_BYTES_CODE],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1] != ""

    @pytest.mark.parametrize(
        "series",
        [
            pytest.param(simulate_garch(0.1, 0.1, 0.8, 3_000, seed=3), id="normal-garch"),
            pytest.param(
                simulate_garch(0.05, 0.08, 0.9, 3_000, seed=7, df=5.0), id="t5-garch"
            ),
            pytest.param(np.random.default_rng(5).standard_normal(5_000), id="iid"),
        ],
    )
    def test_no_worse_than_nelder_mead(self, series):
        model = fit_garch11(series)
        params = [model.mean, math.log(model.omega), model.alpha, model.beta]
        assert reference_neg_qll(params, series) <= nelder_mead_reference(series) + 1e-12


class TestExternalFilter:
    def test_adopts_supplied_outputs(self):
        y, eps = simulate_ar1(0.5, 500, seed=9)
        mu = 0.5 * np.concatenate(([0.0], y[:-1]))
        xi = np.ones_like(y)
        rs = residuals_from_filter(y, mu, xi, mu_next=0.5 * y[-1], xi_next=1.0)
        assert np.allclose(rs.mu + rs.xi * rs.residuals, y, atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        y = np.arange(10.0)
        with pytest.raises(DomainError):
            residuals_from_filter(y, np.zeros(10), np.zeros(10), 0.0, 1.0)


def direct_law(rs, k, method="ml", sampler=None):
    """The residual-scale law the iid machinery fits on the residual array."""
    e = select_exceedances(SortedSample.from_data(rs.residuals), k)
    return fit_tail(e, method, sampler=sampler).at(LevelPair.intermediate(e.tau_i))


def assert_mapped(got, residual_value, rs, method):
    """``got`` is ``mu_next + xi_next * residual_value``: within a few ulps for
    the one-draw law, which forms it from its rescaled scale, and within the
    two root searches' tolerances (1e-10 + 4 eps |x| each) for a mixture."""
    expected = rs.mu_next + rs.xi_next * residual_value
    if method == "ml":
        tol = 8 * np.spacing(max(abs(rs.mu_next), abs(expected)))
    else:
        tol = (1.0 + rs.xi_next) * 1e-10 + 16 * np.finfo(float).eps * abs(expected)
    assert abs(got - expected) <= tol


class TestConditionalPredictive:
    def test_unit_filter_matches_residual_model(self):
        # under the unit map the observable-scale law is the direct fit's, bit for bit
        y, _ = simulate_ar1(0.0, 3_000, seed=10, innovations="pareto2")
        rs = residuals_from_filter(
            y, np.zeros_like(y), np.ones_like(y), mu_next=0.0, xi_next=1.0
        )
        sampler = SamplerConfig(seed=3, burn_in=300, draws=600)
        for method in ("ml", "bayes"):
            model = conditional_predictive(rs, 300, None, method, sampler=sampler)
            direct = direct_law(rs, 300, method, sampler)
            assert type(model) is type(direct)
            assert (model.threshold, model.levels) == (direct.threshold, direct.levels)
            ys = np.linspace(direct.support_lower(), direct.quantile(0.99), 20)
            assert np.array_equal(model.cdf(ys), direct.cdf(ys))
            assert np.array_equal(model.pdf(ys), direct.pdf(ys))
            for prob in (0.1, 0.5, 0.9):
                assert model.quantile(prob) == direct.quantile(prob)

    def test_interval_maps_affinely(self):
        y, _ = simulate_ar1(0.6, 3_000, seed=11, innovations="pareto2")
        rs = residual_pipeline(y, fit_ar(y, 1))
        model = conditional_predictive(rs, k=300, levels=None, method="ml")
        inner_band = predictive_interval(direct_law(rs, 300), 0.01)
        outer_band = predictive_interval(model, 0.01)
        assert outer_band.lower == pytest.approx(
            rs.mu_next + rs.xi_next * inner_band.lower, rel=1e-12
        )
        assert outer_band.upper == pytest.approx(
            rs.mu_next + rs.xi_next * inner_band.upper, rel=1e-12
        )

    def test_density_jacobian(self):
        y, _ = simulate_ar1(0.3, 3_000, seed=12, innovations="pareto2")
        rs = residual_pipeline(y, fit_ar(y, 1))
        model = conditional_predictive(rs, k=300, levels=None, method="ml")
        inner = direct_law(rs, 300)
        z = inner.quantile(0.5)
        y_obs = rs.mu_next + rs.xi_next * z
        assert model.pdf(y_obs) == pytest.approx(inner.pdf(z) / rs.xi_next, rel=1e-12)

    def test_residual_model_identical_to_direct_fit(self):
        # the observable-scale law is the direct fit's law on the residual
        # array, with its scale times xi_next and its threshold mapped
        y, _ = simulate_ar1(0.6, 3_000, seed=41, innovations="pareto2")
        rs = residual_pipeline(y, fit_ar(y, 1))
        model = conditional_predictive(rs, k=300, levels=None, method="ml")
        direct = direct_law(rs, 300)
        assert model.params == GpParams(direct.params.gamma, rs.xi_next * direct.params.sigma)
        assert model.threshold == rs.mu_next + rs.xi_next * direct.threshold
        assert model.levels == direct.levels

    @pytest.mark.parametrize("method", ["ml", "bayes"])
    def test_shortfall_report_maps_affinely(self, method):
        from tailcast.risk import shortfall_report

        y, _ = simulate_ar1(0.6, 3_000, seed=14, innovations="pareto2")
        rs = residual_pipeline(y, fit_ar(y, 1))
        sampler = SamplerConfig(seed=3, burn_in=300, draws=600)
        model = conditional_predictive(rs, 300, None, method, sampler=sampler)
        outer = shortfall_report(model, 0.9995, method, interval_alpha=0.05)
        inner = shortfall_report(direct_law(rs, 300, method, sampler), 0.9995, method,
                                 interval_alpha=0.05)
        assert_mapped(outer.var_point, inner.var_point, rs, method)
        assert_mapped(outer.interval.lower, inner.interval.lower, rs, method)
        assert_mapped(outer.interval.upper, inner.interval.upper, rs, method)
        if method == "ml":
            assert_mapped(outer.es_point, inner.es_point, rs, method)
        else:  # the default shape prior reaches 1, so neither report has an ES
            assert outer.es_point is None and inner.es_point is None
            assert outer.es_reason == inner.es_reason

    def test_affine_equivariance_of_pipeline(self):
        y, _ = simulate_ar1(0.6, 4_000, seed=13, innovations="pareto2")

        def forecast(series):
            rs = residual_pipeline(series, fit_ar(series, 1))
            model = conditional_predictive(rs, k=400, levels=None, method="pwm")
            return model.quantile(0.95)

        base = forecast(y)
        shifted = forecast(2.0 * y)
        # pure scaling: AR has no intercept, so a+b*y requires a=0 for equivariance
        assert shifted == pytest.approx(2.0 * base, rel=1e-9)


class TestRollingForecast:
    def test_disjoint_window_scheme(self):
        y, _ = simulate_ar1(0.6, 5_000, seed=14, innovations="pareto2")
        rows = rolling_forecast(
            y, window=1_000, stride=1_000,
            cfg=RollingConfig(filter="ar", k=100, tau_e=0.999, alpha=0.01, method="ml"),
        )
        assert [r["origin"] for r in rows] == [0, 1_000, 2_000, 3_000, 4_000]
        assert all(r["error"] == "" for r in rows)

    def test_determinism(self):
        y, _ = simulate_ar1(0.6, 3_000, seed=15, innovations="pareto2")
        cfg = RollingConfig(filter="ar", k=100, tau_e=0.999, alpha=0.01, method="ml", seed=3)
        a = rolling_forecast(y, 1_000, 500, cfg)
        b = rolling_forecast(y, 1_000, 500, cfg)
        assert a == b

    @pytest.mark.parametrize("levels", [dict(alpha=1.5), dict(alpha=0.0), dict(tau_e=1.0),
                                        dict(tau_e=-0.5)])
    def test_bad_levels_refused_before_any_fit(self, monkeypatch, levels):
        def fit_ar(*args, **kwargs):
            raise AssertionError("a window was filtered")

        monkeypatch.setattr(ts, "fit_ar", fit_ar)
        name = next(iter(levels))
        with pytest.raises(DomainError, match=f"{name} must lie in"):
            rolling_forecast(np.zeros(2_000), 1_000, 1_000, RollingConfig(k=100, **levels))

    @pytest.mark.parametrize("filter,ar_order,k,kept", [
        ("ar", 1, 999, 999), ("ar", 3, 997, 997), ("ar", 1, 0, 999),
        ("garch11", 1, 990, 990), ("external", 1, 1_000, 1_000), ("external", 1, -5, 1_000),
    ])
    def test_k_no_window_can_hold_refused_before_any_fit(self, monkeypatch, filter,
                                                           ar_order, k, kept):
        # a window keeps window - ar_order AR residuals, window - 10 GARCH
        # residuals past the warm-up, and every row of an external filter
        def fit(*args, **kwargs):
            raise AssertionError("a window was filtered")

        monkeypatch.setattr(ts, "fit_ar", fit)
        monkeypatch.setattr(ts, "fit_garch11", fit)
        data = np.zeros((2_000, 3)) if filter == "external" else np.zeros(2_000)
        cfg = RollingConfig(filter=filter, ar_order=ar_order, k=k)
        with pytest.raises(DomainError, match=f"k must satisfy 1 <= k < {kept}, got {k}"):
            rolling_forecast(data, 1_000, 1_000, cfg)

    def test_unknown_filter_refused_before_any_fit(self, monkeypatch):
        # a library call is not held to argparse's choices
        def fit(*args, **kwargs):
            raise AssertionError("a window was filtered")

        monkeypatch.setattr(ts, "fit_ar", fit)
        monkeypatch.setattr(ts, "fit_garch11", fit)
        with pytest.raises(DomainError, match="unknown filter 'garch'"):
            rolling_forecast(np.zeros(3_000), 1_000, 1_000, RollingConfig(filter="garch", k=50))

    def test_per_origin_errors_recorded(self):
        y, _ = simulate_ar1(0.6, 2_500, seed=16, innovations="pareto2")
        y[1_200:1_500] = 7.0  # a constant stretch breaks one window's filter
        rows = rolling_forecast(
            y, window=300, stride=300,
            cfg=RollingConfig(filter="ar", k=50, tau_e=0.999, alpha=0.01, method="ml"),
        )
        assert any(r["error"] != "" for r in rows)
        assert any(r["error"] == "" for r in rows)

    def test_only_expected_failures_become_error_cells(self, monkeypatch):
        y = simulate_garch(0.1, 0.1, 0.8, 1_200, seed=20)
        cfg = RollingConfig(filter="garch11", k=50, tau_e=0.999, alpha=0.01, method="ml")

        def bug(series):
            raise TypeError("bug in the filter")

        def refusal(series):
            raise DomainError("filter refuses this window")

        monkeypatch.setattr(ts, "fit_garch11", bug)
        with pytest.raises(TypeError):
            rolling_forecast(y, window=1_000, stride=100, cfg=cfg)
        monkeypatch.setattr(ts, "fit_garch11", refusal)
        rows = rolling_forecast(y, window=1_000, stride=100, cfg=cfg)
        assert [r["error"] for r in rows] == ["filter refuses this window"] * 3

    def test_external_filter_rows(self):
        y, _ = simulate_ar1(0.0, 1_200, seed=17, innovations="pareto2")
        data = np.column_stack([y, np.zeros_like(y), np.ones_like(y)])
        rows = rolling_forecast(
            data, window=1_000, stride=100,
            cfg=RollingConfig(filter="external", k=100, tau_e=0.999, alpha=0.01, method="ml"),
        )
        ok = [r for r in rows if r["error"] == ""]
        assert len(ok) >= 1
        assert all(r["xi_next"] == 1.0 for r in ok)


def one_origin_at_a_time(data, window: int, stride: int, cfg: RollingConfig) -> list[dict]:
    """``rolling_forecast``'s rows built origin by origin through
    ``conditional_predictive``: filter, check, fit and forecast each origin
    before the next one (AR and external filters)."""
    n = data.shape[0]
    rows = []
    for origin in range(0, n - window + 1, stride):
        j_target = origin + window
        row = {"origin": origin, "target": j_target}
        try:
            seg = data[origin:j_target]
            if cfg.filter == "ar":
                rs = residual_pipeline(seg, fit_ar(seg, cfg.ar_order))
            else:
                if j_target >= n:
                    raise DomainError("external filter has no row for the target step")
                rs = residuals_from_filter(seg[:, 0], seg[:, 1], seg[:, 2],
                                           data[j_target, 1], data[j_target, 2])
            tau_i = 1.0 - cfg.k / rs.residuals.size
            if cfg.tau_e < tau_i:
                raise DomainError(
                    f"tau_e={cfg.tau_e} lies below the intermediate level {tau_i:.4f}")
            tau_star = (1.0 - cfg.tau_e) / (1.0 - tau_i)
            sampler = replace(cfg.sampler or SamplerConfig(),
                              seed=ts._origin_seed(cfg.seed, origin))
            model = conditional_predictive(rs, cfg.k, None, cfg.method, cfg.prior, sampler)
            model_ext = model.at(LevelPair.from_tau_star(tau_i, tau_star))
            point = var_from_predictive(model, tau_star)
            interval = predictive_interval(model_ext, cfg.alpha)
            y = data if data.ndim == 1 else data[:, 0]
            row.update(mu_next=rs.mu_next, xi_next=rs.xi_next, threshold_obs=model.threshold,
                       point=point, lower=interval.lower, upper=interval.upper,
                       realized=float(y[j_target]) if j_target < n else math.nan, error="")
        except TailcastError as exc:
            row.update(dict.fromkeys(("mu_next", "xi_next", "threshold_obs", "point",
                                      "lower", "upper", "realized"), math.nan),
                       error=str(exc))
        rows.append(row)
    return rows


class TestStagedRollingForecast:
    """The staged rolling path gives the rows of one origin at a time, byte
    for byte (NaN included), error strings and their order of checks too."""

    @staticmethod
    def same_rows(data, window, stride, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ties and sampler health
            got = rolling_forecast(data, window, stride, cfg)
            want = one_origin_at_a_time(data, window, stride, cfg)
        assert json.dumps(got) == json.dumps(want)
        return [row["error"] for row in got]

    def test_bayes_rows(self):
        y, _ = simulate_ar1(0.6, 3_000, seed=21, innovations="pareto2")
        y[1_000:1_500] = 7.0  # this window's filter fails
        sampler = SamplerConfig(burn_in=200, draws=500)
        cfg = RollingConfig(filter="ar", k=60, tau_e=0.999, method="bayes", seed=5,
                            sampler=sampler)
        errors = self.same_rows(y, 500, 500, cfg)
        assert errors.count("") == 5 and "rank deficient" in errors[2]
        # fewer than 100 draws: every fit fails as its law is built
        errors = self.same_rows(y, 500, 500, replace(cfg, sampler=replace(sampler, draws=50)))
        assert errors[2] != errors[0] and "at least 100 draws" in errors[0]

    def test_ml_rows_with_failing_origins(self):
        y, _ = simulate_ar1(0.0, 3_000, seed=22, innovations="pareto2")
        data = np.column_stack([y, np.zeros_like(y), np.ones_like(y)])
        data[700, 2] = -1.0  # origins 250 and 500: the filter refuses a negative scale
        # origin 1000: one excess above 39 ties, so the ML fit fails
        data[1_000:1_500, 0] = np.minimum(data[1_000:1_500, 0], 2.0)
        data[1_200, 0] = 9.0
        cfg = RollingConfig(filter="external", k=40, tau_e=0.999, method="ml")
        errors = self.same_rows(data, 500, 250, cfg)
        assert "scales must be positive" in errors[1] and errors[1] == errors[2]
        assert "at least 2 excesses" in errors[4]
        assert "no row for the target step" in errors[-1]
        assert errors.count("") == len(errors) - 4
        # tau_e below every intermediate level: the filter's failure still comes first
        errors = self.same_rows(data, 500, 250, replace(cfg, tau_e=0.9))
        assert "scales must be positive" in errors[1] and "lies below" in errors[0]


class TestAffinePredictive:
    def test_rejects_bad_scale(self):
        y, _ = simulate_ar1(0.0, 2_000, seed=18, innovations="pareto2")
        rs = residuals_from_filter(
            y, np.zeros_like(y), np.ones_like(y), mu_next=0.0, xi_next=1.0
        )
        model = conditional_predictive(rs, k=200, levels=None, method="ml")
        for scale in (0.0, -1.0):
            with pytest.raises(DomainError, match="affine scale must be positive"):
                model.affine(0.0, scale)

    def test_threshold_on_observable_scale(self):
        y, _ = simulate_ar1(0.0, 2_000, seed=19, innovations="pareto2")
        rs = residuals_from_filter(
            y, np.zeros_like(y), 2.0 * np.ones_like(y), mu_next=3.0, xi_next=2.0
        )
        model = conditional_predictive(rs, k=200, levels=None, method="ml")
        assert model.threshold == 3.0 + 2.0 * direct_law(rs, 200).threshold


class TestModelValidation:
    def test_garch_model_constraints(self):
        with pytest.raises(DomainError):
            Garch11Model(omega=0.0, alpha=0.1, beta=0.8, mean=0.0, fitted_on=100)
        with pytest.raises(DomainError):
            Garch11Model(omega=0.1, alpha=0.5, beta=0.5, mean=0.0, fitted_on=100)

    def test_ar_model_requires_finite(self):
        with pytest.raises(DomainError):
            ArModel(coefficients=np.array([np.inf]), fitted_on=10)
