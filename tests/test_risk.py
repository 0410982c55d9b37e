import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_excesses
from tailcast import predict
from tailcast.bayes import (
    PosteriorSample,
    PriorSpec,
    SamplerConfig,
    UniformWindowShape,
    default_prior,
)
from tailcast.errors import DomainError, InfiniteMeanError, TailcastError
from tailcast.estimation import (
    GpFit,
    SortedSample,
    exceedances_from_excesses,
    fit_ml,
    fit_pwm,
    pwm_scale,
    select_exceedances,
)
from tailcast.gpd import GpParams, LevelPair
from tailcast.predict import bayes_predictive, freq_predictive, predictive_interval
from tailcast.risk import (
    es_first_order,
    es_point_forecast,
    extreme_var,
    return_level_curve,
    shortfall_report,
    var_from_predictive,
)

MILAN_ML = GpFit(GpParams(-0.34, 1.65), "ml", 169, 34.0, True)
MILAN_TAU_I = 0.9462


def milan_exceedances():
    return exceedances_from_excesses([0.5, 1.0, 2.0], threshold=34.0, tau_i=MILAN_TAU_I)


class TestExtremeVar:
    def test_published_extrapolated_thresholds(self):
        e = milan_exceedances()
        for tau_e, expect in ((0.99293, 36.4), (0.99784, 37.2), (0.99907, 37.6)):
            assert extreme_var(MILAN_ML, e, tau_e) == pytest.approx(expect, abs=0.1)

    def test_reduces_to_threshold(self):
        e = milan_exceedances()
        assert extreme_var(MILAN_ML, e, MILAN_TAU_I) == pytest.approx(34.0)

    def test_below_intermediate_rejected(self):
        with pytest.raises(DomainError):
            extreme_var(MILAN_ML, milan_exceedances(), 0.5)


class TestVarFromPredictive:
    def test_identity_with_extrapolation_formula(self):
        # the predictive quantile route and the direct formula must agree
        for gamma in (-0.4, -0.1, 0.0, 0.3, 0.9, 1.5):
            for sigma in (0.5, 1.0, 2.0):
                for tau_star in (0.01, 0.05, 0.25, 0.5, 1.0):
                    fit = GpFit(GpParams(gamma, sigma), "ml", 50, 10.0, True)
                    e = exceedances_from_excesses([1.0, 2.0], threshold=10.0, tau_i=0.9)
                    model = freq_predictive(fit, LevelPair.intermediate(0.9))
                    via_quantile = var_from_predictive(model, tau_star)
                    direct = extreme_var(fit, e, 1.0 - tau_star * 0.1)
                    assert abs(via_quantile - direct) < 1e-10

    def test_unit_ratio_gives_threshold(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        assert var_from_predictive(model, 1.0) == pytest.approx(34.0)

    def test_requires_intermediate_model(self):
        model = freq_predictive(MILAN_ML, LevelPair.from_tau_star(MILAN_TAU_I, 0.5))
        with pytest.raises(DomainError):
            var_from_predictive(model, 0.5)


class TestFirstOrderShortfall:
    def test_heavy_tail(self):
        assert es_first_order(10.0, 0.5) == pytest.approx(20.0)

    def test_short_tail_keeps_quantile(self):
        assert es_first_order(10.0, -0.3) == pytest.approx(10.0)

    def test_boundary(self):
        with pytest.raises(InfiniteMeanError):
            es_first_order(10.0, 1.0)


class TestShortfallForecast:
    def test_exponential_unit(self):
        fit = GpFit(GpParams(0.0, 1.0), "ml", 10, 0.0, True)
        model = freq_predictive(fit, LevelPair.intermediate(0.9))
        assert es_point_forecast(model) == pytest.approx(1.0)

    def test_matches_quadrature(self):
        fit = GpFit(GpParams(0.4, 1.5), "ml", 50, 8.0, True)
        levels = LevelPair.from_tau_star(0.9, 0.2)
        model = freq_predictive(fit, levels)
        lo = model.support_lower()
        val, _ = quad(
            lambda u: (lo + u / (1 - u)) * model.pdf(lo + u / (1 - u)) / (1 - u) ** 2,
            0.0,
            1.0,
        )
        assert es_point_forecast(model) == pytest.approx(val, rel=1e-6)

    def test_collapsed_mixture_matches_frequentist(self):
        levels = LevelPair.from_tau_star(0.9, 0.3)
        ps = PosteriorSample(
            gammas=np.full(300, 0.25),
            sigmas=np.full(300, 1.2),
            acceptance_rate=0.3,
            burn_in=0,
            thin=1,
            seed=0,
            ess=(300.0, 300.0),
            threshold=5.0,
            shape_support=(-0.45, 0.99),
        )
        mixture = bayes_predictive(ps, 5.0, levels)
        single = freq_predictive(GpFit(GpParams(0.25, 1.2), "ml", 50, 5.0, True), levels)
        assert es_point_forecast(mixture) == pytest.approx(es_point_forecast(single), rel=1e-12)

    def test_prior_gate_blocks_wide_support(self):
        ps = PosteriorSample(
            gammas=np.full(300, 0.25),
            sigmas=np.full(300, 1.2),
            acceptance_rate=0.3,
            burn_in=0,
            thin=1,
            seed=0,
            ess=(300.0, 300.0),
            threshold=5.0,
            shape_support=(-0.5, math.inf),  # support reaches past 1
        )
        mixture = bayes_predictive(ps, 5.0, LevelPair.intermediate(0.9))
        with pytest.raises(InfiniteMeanError):
            es_point_forecast(mixture)

    def test_frequentist_infinite_mean(self):
        fit = GpFit(GpParams(1.2, 1.0), "ml", 10, 0.0, True)
        model = freq_predictive(fit, LevelPair.intermediate(0.9))
        with pytest.raises(InfiniteMeanError):
            es_point_forecast(model)

    def test_dominates_var_for_heavy_tails(self):
        e = exceedances_from_excesses([1.0, 2.0], threshold=3.0, tau_i=0.9)
        for gamma in (0.0, 0.3, 0.7, 0.95):
            fit = GpFit(GpParams(gamma, 1.0), "ml", 50, 3.0, True)
            model_int = freq_predictive(fit, LevelPair.intermediate(0.9))
            for tau_star in (0.05, 0.25, 1.0):
                var_pt = var_from_predictive(model_int, tau_star)
                ext = freq_predictive(fit, LevelPair.from_tau_star(0.9, tau_star))
                assert es_point_forecast(ext) >= var_pt


class TestEquivariance:
    def test_shift_and_scale_through_the_pipeline(self):
        raw = make_excesses(0.2, 1.0, 4_000, seed=51) + 1.0
        shift, scale = 16.0, 4.0  # dyadic keeps the PWM path exact
        tau_e = 0.999

        def var_es(data):
            s = SortedSample.from_data(data)
            e = select_exceedances(s, 400)
            fit = fit_pwm(e)
            model = freq_predictive(fit, LevelPair.intermediate(e.tau_i))
            tau_star = (1.0 - tau_e) / (1.0 - e.tau_i)
            var_pt = var_from_predictive(model, tau_star)
            ext = freq_predictive(fit, LevelPair.from_tau_star(e.tau_i, tau_star))
            return var_pt, es_point_forecast(ext)

        v0, s0 = var_es(raw)
        v_shift, s_shift = var_es(raw + shift)
        assert v_shift == pytest.approx(v0 + shift, abs=1e-9)
        assert s_shift == pytest.approx(s0 + shift, abs=1e-9)
        v_scale, s_scale = var_es(raw * scale)
        assert v_scale == pytest.approx(v0 * scale, rel=1e-12)
        assert s_scale == pytest.approx(s0 * scale, rel=1e-12)

    def test_ml_path_equivariance_to_tolerance(self):
        raw = make_excesses(0.1, 1.0, 3_000, seed=52) + 0.5

        def var_pt(data):
            s = SortedSample.from_data(data)
            e = select_exceedances(s, 300)
            fit = fit_ml(e)
            model = freq_predictive(fit, LevelPair.intermediate(e.tau_i))
            return var_from_predictive(model, 0.01)

        assert var_pt(raw + 16.0) == pytest.approx(var_pt(raw) + 16.0, abs=1e-5)


class TestReturnLevelCurve:
    @staticmethod
    def exp_sample(seed: int, n: int) -> SortedSample:
        return SortedSample.from_data(-np.log(1.0 - np.random.default_rng(seed).random(n)))

    def test_monotone_and_consistent(self):
        sample = self.exp_sample(31, 20_000)
        rows = return_level_curve(sample, range(40, 400, 40))
        assert all(row["error"] == "" for row in rows)
        points = [row["point"] for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(points, points[1:]))

    def test_first_row_reproduces_single_call(self):
        from tailcast.predict import extreme_level_from_return_period

        sample = self.exp_sample(32, 20_000)
        rows = return_level_curve(sample, [100])
        rule = extreme_level_from_return_period(100, 20_000)
        e = select_exceedances(sample, rule.k)
        fit = fit_ml(e)
        model = freq_predictive(fit, LevelPair.intermediate(e.tau_i))
        assert rows[0]["point"] == pytest.approx(
            var_from_predictive(model, rule.levels.tau_star), rel=1e-12
        )

    def test_per_row_failures_recorded(self):
        rows = return_level_curve(self.exp_sample(33, 1_000), [3, 100])
        assert rows[0]["error"] != ""  # T=3 leaves no intermediate level
        assert rows[1]["error"] == ""

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_bad_alpha_refused_before_any_fit(self, alpha, monkeypatch):
        def fit_tail(*args, **kwargs):
            raise AssertionError("a period was fitted")

        monkeypatch.setattr(predict, "fit_tail", fit_tail)
        with pytest.raises(DomainError, match="alpha must lie in"):
            return_level_curve(self.exp_sample(34, 1_000), [100], alpha)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the tail fit")

        monkeypatch.setattr(predict, "fit_tail", broken)
        with pytest.raises(TypeError):
            return_level_curve(self.exp_sample(34, 1_000), [100])

    @staticmethod
    def period_by_period(sample, periods, alpha, method, prior, sampler) -> list[dict]:
        """The table as rows built one period at a time through ``fit_tail``."""
        from tailcast.predict import extreme_level_from_return_period, fit_tail

        rows = []
        for T in periods:
            row = {"T": T}
            try:
                rule = extreme_level_from_return_period(T, sample.n)
                e = select_exceedances(sample, rule.k)
                tail = fit_tail(e, method, prior and prior(pwm_scale(e)), sampler)
                m = tail.at(LevelPair.intermediate(rule.levels.tau_i))
                point = var_from_predictive(m, rule.levels.tau_star)
                interval = predictive_interval(m.at(rule.levels), alpha)
                row.update(tau_e=rule.levels.tau_e, k=rule.k, point=point,
                           lower=interval.lower, upper=interval.upper, error="")
            except (TailcastError, ArithmeticError, np.linalg.LinAlgError) as exc:
                row.update(tau_e=math.nan, k=0, point=math.nan, lower=math.nan,
                           upper=math.nan, error=str(exc))
            rows.append(row)
        return rows

    @staticmethod
    def window_prior(anchor: float) -> PriorSpec:
        return PriorSpec(UniformWindowShape(-0.45, 0.95), default_prior(anchor).scale)

    @pytest.mark.parametrize("method,prior", [("ml", None), ("bayes", None),
                                              ("bayes", window_prior)])
    def test_staged_table_equals_period_by_period(self, method, prior):
        # T = 3 fails, and the four periods of 50 share k = 160; JSON text
        # compares every bit and every NaN
        sample = self.exp_sample(35, 2_000)
        periods = [3, 50, 50, 120, 50, 50, 400]
        sampler = SamplerConfig(seed=9, burn_in=300, draws=1_000) if method == "bayes" else None
        staged = return_level_curve(sample, periods, 0.1, method, prior, sampler)
        expect = self.period_by_period(sample, periods, 0.1, method, prior, sampler)
        assert json.dumps(staged) == json.dumps(expect)
        assert staged[0]["error"] and not any(row["error"] for row in staged[1:])


class TestExtrapolationConsistency:
    def test_general_tail_formula_reduces_to_extrapolation(self):
        # the generic tail-quantile approximation with F(t) set to the
        # intermediate level must reproduce the extrapolation formula
        for gamma in (-0.3, 0.2, 0.8):
            for sigma in (0.5, 2.0):
                for tau_i in (0.9, 0.99):
                    for tau_e in (0.995, 0.9999):
                        if tau_e < tau_i:
                            continue
                        t = 7.0
                        general = t + sigma * (
                            ((1.0 - tau_e) / (1.0 - tau_i)) ** -gamma - 1.0
                        ) / gamma
                        e = exceedances_from_excesses([1.0], threshold=t, tau_i=tau_i)
                        fit = GpFit(GpParams(gamma, sigma), "ml", 10, t, True)
                        assert extreme_var(fit, e, tau_e) == pytest.approx(
                            general, abs=1e-12 * max(1.0, abs(general))
                        )


class TestShortfallReport:
    def test_report_fields(self):
        e = exceedances_from_excesses(
            make_excesses(0.2, 1.0, 2_000, seed=71), threshold=5.0, tau_i=0.95
        )
        fit = fit_ml(e)
        model = freq_predictive(fit, LevelPair.intermediate(e.tau_i))
        rep = shortfall_report(model, 0.999, "ml", interval_alpha=0.05)
        assert rep.method == "ml"
        assert rep.es_point is not None and rep.es_point >= rep.var_point
        # the interval describes peaks above the VaR threshold, so it sits above it
        assert rep.interval.lower >= rep.var_point
        assert rep.interval.upper > rep.interval.lower

    def test_es_reason_when_infinite(self):
        fit = GpFit(GpParams(1.3, 1.0), "ml", 50, 2.0, True)
        model = freq_predictive(fit, LevelPair.intermediate(0.9))
        rep = shortfall_report(model, 0.999, "ml")
        assert rep.es_point is None
        assert rep.es_reason
