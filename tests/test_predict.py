import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_excesses
from tailcast.bayes import PosteriorSample, SamplerConfig, default_prior, sample_posterior
from tailcast.errors import DomainError, LevelRuleError, NumericError
from tailcast.estimation import (
    GpFit,
    exceedances_from_excesses,
    fit_ml,
    fit_pwm,
    pwm_scale,
)
from tailcast.gpd import GpParams, LevelPair, gp_quantile_vec
from tailcast.predict import (
    BayesianPredictive,
    FrequentistPredictive,
    bayes_predictive,
    extreme_level_from_c,
    extreme_level_from_return_period,
    fit_tail,
    freq_predictive,
    prediction_grid,
    predictive_interval,
    tail_equivalence_ratio,
    unconditional_tail_cdf,
)

MILAN_ML = GpFit(GpParams(-0.34, 1.65), "ml", 169, 34.0, True)
MILAN_PWM = GpFit(GpParams(-0.29, 1.59), "pwm", 169, 34.0, True)
MILAN_TAU_I = 0.9462


def posterior_of(gammas, sigmas, threshold=0.0):
    """A posterior sample holding the given draws."""
    m = float(len(gammas))
    return PosteriorSample(
        gammas=gammas,
        sigmas=sigmas,
        acceptance_rate=0.3,
        burn_in=0,
        thin=1,
        seed=0,
        ess=(m, m),
        threshold=threshold,
        shape_support=(-0.5, math.inf),
    )


def collapsed_posterior(gamma, sigma, m=500, threshold=0.0):
    return posterior_of(np.full(m, gamma), np.full(m, sigma), threshold)


class TestFrequentistIntervals:
    def test_milan_ml_intermediate_interval(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        band = predictive_interval(model, 0.05)
        assert band.lower == pytest.approx(34.1, abs=0.1)
        assert band.upper == pytest.approx(37.5, abs=0.1)

    def test_milan_pwm_intermediate_interval(self):
        model = freq_predictive(MILAN_PWM, LevelPair.intermediate(MILAN_TAU_I))
        band = predictive_interval(model, 0.05)
        assert band.lower == pytest.approx(34.1, abs=0.1)
        assert band.upper == pytest.approx(37.6, abs=0.1)

    def test_exponential_closed_form(self):
        fit = GpFit(GpParams(0.0, 1.0), "ml", 10, 0.0, True)
        model = freq_predictive(fit, LevelPair.intermediate(0.9))
        band = predictive_interval(model, 0.05)
        assert band.lower == pytest.approx(-math.log(0.975), abs=1e-10)
        assert band.upper == pytest.approx(-math.log(0.025), abs=1e-10)
        assert band.lower == pytest.approx(0.02532, abs=1e-5)
        assert band.upper == pytest.approx(3.6889, abs=1e-4)

    def test_width_shrinks_as_alpha_grows(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        widths = [predictive_interval(model, a).width for a in (0.01, 0.05, 0.2, 0.5)]
        assert widths == sorted(widths, reverse=True)

    def test_monte_carlo_quantile_oracle(self):
        from tailcast.gpd import gp_sample, shift_scale

        p = GpParams(0.3, 1.0)
        levels = LevelPair.from_tau_star(0.95, 0.2)
        fit = GpFit(p, "ml", 100, 5.0, True)
        model = freq_predictive(fit, levels)
        m, s = shift_scale(p.gamma, p.sigma, levels.tau_star)
        rng = np.random.default_rng(88)
        draws = 5.0 + m + s * gp_sample(p, 1_000_000, rng)
        for prob in (0.1, 0.5, 0.9):
            assert model.quantile(prob) == pytest.approx(
                float(np.quantile(draws, prob)), abs=3e-3 * max(1.0, model.quantile(prob))
            )


class TestBayesianMixture:
    def test_collapsed_mixture_matches_frequentist(self):
        levels = LevelPair.from_tau_star(0.9, 0.3)
        ps = collapsed_posterior(0.2, 1.5, threshold=4.0)
        mixture = bayes_predictive(ps, 4.0, levels)
        single = freq_predictive(GpFit(GpParams(0.2, 1.5), "ml", 100, 4.0, True), levels)
        for y in np.linspace(4.0, 20.0, 25):
            assert mixture.cdf(y) == pytest.approx(single.cdf(y), abs=1e-12)
            assert mixture.pdf(y) == pytest.approx(single.pdf(y), abs=1e-12)
        for prob in (0.05, 0.5, 0.95):
            assert mixture.quantile(prob) == pytest.approx(single.quantile(prob), abs=1e-8)

    def test_mixture_cdf_monotone(self):
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 800, seed=15), threshold=2.0)
        ps = sample_posterior(
            default_prior(fit_pwm(e).params.sigma),
            e,
            SamplerConfig(seed=5, burn_in=500, draws=1_200),
        )
        model = bayes_predictive(ps, 2.0, LevelPair.from_tau_star(0.9, 0.25))
        grid = np.linspace(model.support_lower(), model.quantile(0.999), 1_000)
        vals = model.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        interior = (grid > model.quantile(0.01)) & (grid < model.quantile(0.99))
        assert np.all(np.diff(vals[interior]) > 0.0)

    def test_quantile_cdf_consistency_both_kinds(self):
        e = exceedances_from_excesses(make_excesses(0.2, 1.0, 600, seed=25), threshold=1.0)
        ps = sample_posterior(
            default_prior(fit_pwm(e).params.sigma),
            e,
            SamplerConfig(seed=2, burn_in=400, draws=1_000),
        )
        mixture = bayes_predictive(ps, 1.0, LevelPair.from_tau_star(0.9, 0.5))
        single = freq_predictive(
            GpFit(GpParams(0.2, 1.0), "ml", 100, 1.0, True),
            LevelPair.from_tau_star(0.9, 0.5),
        )
        for model, tol in ((mixture, 1e-6), (single, 1e-6)):
            for prob in np.arange(0.01, 1.0, 0.07):
                assert model.cdf(model.quantile(prob)) == pytest.approx(prob, abs=tol)

    def test_zero_quantile_is_support_onset(self):
        # reference: the cdf bisection that used to answer prob 0
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 800, seed=15), threshold=2.0)
        ps = sample_posterior(
            default_prior(fit_pwm(e).params.sigma),
            e,
            SamplerConfig(seed=5, burn_in=500, draws=1_200),
        )
        for levels in (LevelPair.intermediate(0.9), LevelPair.from_tau_star(0.9, 0.25)):
            model = bayes_predictive(ps, 2.0, levels)
            lo = model.support_lower()
            hi = float(np.max(2.0 + model._shift))
            while hi - lo > max(1e-10, 4e-16 * abs(hi)):
                mid = 0.5 * (lo + hi)
                if model.cdf(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            assert model.quantile(0.0) == model.support_lower()
            assert model.quantile(0.0) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_density_at_support_onset_counts_the_first_draw(self):
        # the grid export starts at quantile(0) = support_lower(), a jump of
        # the mixture density; the density there is the right limit
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 800, seed=15), threshold=20.8)
        ps = sample_posterior(
            default_prior(fit_pwm(e).params.sigma),
            e,
            SamplerConfig(seed=5, burn_in=500, draws=1_200),
        )
        for tau_star in (0.5, 0.25, 0.1, 0.05, 0.01):
            model = bayes_predictive(ps, 20.8, LevelPair.from_tau_star(0.9, tau_star))
            lo = model.support_lower()
            first = 20.8 + model._shift == lo
            expected = np.sum(1.0 / (ps.sigmas[first] * model._scale[first])) / ps.m
            assert model.pdf(lo) == pytest.approx(expected, rel=1e-12)

    def test_interval_mass_check(self):
        ps = collapsed_posterior(0.1, 1.0, threshold=0.0)
        model = bayes_predictive(ps, 0.0, LevelPair.intermediate(0.9))
        band = predictive_interval(model, 0.1)
        assert model.cdf(band.upper) - model.cdf(band.lower) == pytest.approx(0.9, abs=1e-4)

    def test_needs_enough_draws(self):
        with pytest.raises(DomainError):
            bayes_predictive(collapsed_posterior(0.1, 1.0, m=50), 0.0, LevelPair.intermediate(0.9))


class TestOneLaw:
    """The frequentist kind is the mixture of one draw.  A posterior of m
    copies of its estimate gives the same law: the same quantiles, support
    and interval, and cdf, pdf and mean equal to the m-fold average of the
    one-draw values, bit for bit (within 5 ulps of them at m = 100, from
    numpy's summation of m equal terms alone)."""

    M = 100

    def average(self, values):
        """The mixture's average of m copies of each of ``values``."""
        copies = np.repeat(np.atleast_1d(values)[:, None], self.M, axis=1)
        return np.add.reduce(copies, axis=1) / self.M

    @pytest.mark.parametrize("gamma", [-0.45, -1e-9, 0.0, 1e-9, 0.3])
    @pytest.mark.parametrize("tau_star", [1.0, 0.25, 0.013])
    def test_frequentist_equals_collapsed_posterior(self, gamma, tau_star):
        levels = LevelPair.from_tau_star(0.9, tau_star)
        single = FrequentistPredictive(GpParams(gamma, 1.3), 4.0, levels)
        ps = collapsed_posterior(gamma, 1.3, m=self.M)
        mixture = BayesianPredictive(ps, 4.0, levels)
        lo, hi = single.support_lower(), single.quantile(0.999)
        ys = np.concatenate([[lo - 1.0, lo], np.linspace(lo, hi, 301), [hi * 2.0]])
        assert single.support_lower() == mixture.support_lower()
        assert single.support_upper() == mixture.support_upper()
        probs = [0.0, 1e-6, 0.025, 0.5, 0.975, 0.999]
        assert [single.quantile(q) for q in probs] == [mixture.quantile(q) for q in probs]
        assert np.array_equal(mixture.cdf(ys), self.average(single.cdf(ys)))
        assert np.array_equal(mixture.pdf(ys), self.average(single.pdf(ys)))
        for y in ys[::50]:  # a scalar point takes the path of an array
            assert single.cdf(float(y)) == single.cdf(ys[ys == y])[0]
            assert mixture.cdf(float(y)) == self.average(single.cdf(float(y)))[0]
        assert mixture.mean() == float(np.mean(np.full(self.M, single.mean())))
        band, mixed = predictive_interval(single, 0.05), predictive_interval(mixture, 0.05)
        assert (band.lower, band.upper) == (mixed.lower, mixed.upper)


def per_draw_quantiles(model, prob):
    """The bracket the mixture quantile searches: each draw's own quantile."""
    return model.threshold + model._shift + model._scale * gp_quantile_vec(
        model._g, model._s, prob
    )


def bisection_quantile(model, prob):
    """The cdf bisection that answered mixture quantiles before the Brent search."""
    per_draw = per_draw_quantiles(model, prob)
    lo, hi = float(np.min(per_draw)), float(np.max(per_draw))
    if hi - lo < 1e-12:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) - prob <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(1e-10, 4e-16 * abs(hi)):
            break
    return 0.5 * (lo + hi)


_SHAPE_RANGES = {"positive": (0.05, 0.9), "negative": (-0.45, -0.05), "mixed": (-0.3, 0.5)}


@st.composite
def mixtures(draw):
    """A 100-draw mixture of the given shape sign, with scales in [1, 3]."""
    lo, hi = _SHAPE_RANGES[draw(st.sampled_from(sorted(_SHAPE_RANGES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.floats(0.0, 10.0))
    ps = posterior_of(rng.uniform(lo, hi, 100), rng.uniform(1.0, 3.0, 100), threshold)
    tau_star = draw(st.sampled_from([1.0, 0.3, 0.05]))
    return bayes_predictive(ps, threshold, LevelPair.from_tau_star(0.9, tau_star))


class TestMixtureQuantile:
    @settings(deadline=None, max_examples=60)
    @given(mixtures(), st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=2, max_size=5))
    def test_quantile_properties(self, model, probs):
        probs = sorted(probs)
        qs = [model.quantile(p) for p in probs]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        for p, q in zip(probs, qs):
            per_draw = per_draw_quantiles(model, p)
            assert np.min(per_draw) <= q <= np.max(per_draw)
            assert abs(model.cdf(q) - p) <= 1e-9
            # where the law is flat, the computed cdf stays within its rounding
            # (under 1e-15) of p across about 1e-15 / pdf: there any point
            # of that stretch answers, whichever search finds it
            flat = 1e-15 / model.pdf(q)
            assert q == pytest.approx(bisection_quantile(model, p), abs=1e-9 + flat)

    def test_draws_ulps_apart(self):
        # draws one ulp apart at a large threshold: the computed cdf can round
        # below 0.95 at both ends of the bracket, leaving no sign change
        rng = np.random.default_rng(9)
        gammas = 0.2 + 1e-16 * rng.standard_normal(200)
        ps = posterior_of(gammas, 1e4 * (1.0 + 1e-16 * rng.standard_normal(200)), 1e6)
        model = bayes_predictive(ps, 1e6, LevelPair.from_tau_star(0.9, 0.3))
        per_draw = per_draw_quantiles(model, 0.95)
        q = model.quantile(0.95)
        assert np.min(per_draw) <= q <= np.max(per_draw)
        assert q == pytest.approx(bisection_quantile(model, 0.95), rel=1e-15)

    @pytest.mark.parametrize("offset", [-1e-16, 1e-16])
    def test_cdf_on_one_side_across_the_bracket(self, offset):
        ps = posterior_of(np.linspace(0.1, 0.3, 100), np.ones(100))
        model = bayes_predictive(ps, 0.0, LevelPair.intermediate(0.9))
        per_draw = per_draw_quantiles(model, 0.5)
        model.cdf = lambda y: 0.5 + offset  # below p: the bracket's top; above: its bottom
        expected = np.max(per_draw) if offset < 0.0 else np.min(per_draw)
        assert model.quantile(0.5) == expected

    def test_unconverged_search_raises(self, monkeypatch):
        import tailcast.predict as predict

        def fails(*args, **kwargs):
            raise RuntimeError("Failed to converge after 100 iterations")

        monkeypatch.setattr(predict, "brentq", fails)
        ps = posterior_of(np.linspace(0.1, 0.3, 100), np.ones(100))
        model = bayes_predictive(ps, 0.0, LevelPair.intermediate(0.9))
        with pytest.raises(NumericError):
            model.quantile(0.5)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the mixture quantile's tolerances are absolute: brentq's xtol=1e-10 and the "
        "hi - lo < 1e-12 shortcut act in the data's units"))
    def test_interval_ends_scale_with_the_data(self):
        """A law mapped by ``affine(0, 1e-8)`` should have its interval ends
        1e-8 times the unmapped ends.  Its root search stops within 1e-10 of
        the root, about 1% of this law's spread, and its shortcut takes
        draws 1e-12 apart as equal, so the ends come back about 1e-4 off."""
        z = np.random.default_rng(5).standard_normal(2_000)
        law = bayes_predictive(posterior_of(0.2 + 0.05 * z, np.exp(0.1 * z)), 0.0,
                               LevelPair.from_tau_star(0.9, 0.25))
        band, small = predictive_interval(law, 0.05), predictive_interval(law.affine(0.0, 1e-8), 0.05)
        assert small.lower == pytest.approx(1e-8 * band.lower, rel=1e-9)
        assert small.upper == pytest.approx(1e-8 * band.upper, rel=1e-9)


@st.composite
def one_draw_laws(draw):
    """A frequentist law, the one-draw mixture, with the ranges of ``mixtures``."""
    params = GpParams(draw(st.floats(-0.45, 0.9)), draw(st.floats(1.0, 3.0)))
    tau_star = draw(st.sampled_from([1.0, 0.3, 0.05]))
    return FrequentistPredictive(
        params, draw(st.floats(0.0, 10.0)), LevelPair.from_tau_star(0.9, tau_star)
    )


class TestAffineEquivariance:
    """``affine(loc, scale)`` maps a law by ``y = loc + scale * q``: its cdf
    there is the law's cdf at ``q``, and its quantiles and interval ends are
    the law's mapped.  The mapped law computes them from its own rescaled
    draws, so they agree within a few ulps of the largest term for one draw,
    and within the two root searches' tolerances for a mixture.  The unit
    map gives the law itself, bit for bit."""

    @staticmethod
    def assert_maps(inner, loc, scale, y, q):
        if isinstance(inner, FrequentistPredictive):
            terms = (loc, scale * inner.threshold, scale * (q - inner.threshold), y)
            tol = 8 * np.spacing(max(abs(t) for t in terms))
        else:  # brentq stops within 1e-10 + 4 eps |x| of each law's root
            tol = (1.0 + scale) * 1e-10 + 8 * np.finfo(float).eps * (abs(y) + scale * abs(q))
        assert abs(y - (loc + scale * q)) <= tol

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(mixtures(), one_draw_laws()), st.floats(-50.0, 50.0),
           st.floats(0.01, 100.0), st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4))
    def test_maps_the_inner_law(self, inner, loc, scale, probs):
        model = inner.affine(loc, scale)
        assert type(model) is type(inner) and model.levels == inner.levels
        assert model.threshold == loc + scale * inner.threshold
        for p in probs:
            q = inner.quantile(p)
            self.assert_maps(inner, loc, scale, model.quantile(p), q)
            assert model.cdf(loc + scale * q) == pytest.approx(inner.cdf(q), abs=1e-9)
        band, inner_band = predictive_interval(model, 0.05), predictive_interval(inner, 0.05)
        self.assert_maps(inner, loc, scale, band.lower, inner_band.lower)
        self.assert_maps(inner, loc, scale, band.upper, inner_band.upper)
        assert band.alpha == inner_band.alpha
        unit = inner.affine(0.0, 1.0)
        ys = np.array([inner.support_lower(), *(inner.quantile(p) for p in probs)])
        assert np.array_equal(unit.cdf(ys), inner.cdf(ys))
        assert np.array_equal(unit.pdf(ys), inner.pdf(ys))
        assert [unit.quantile(p) for p in probs] == [inner.quantile(p) for p in probs]


class TestLevelRules:
    def test_endpoint_gap_published_levels_ml(self):
        for c, tau_e in ((2.0, 0.99293), (3.0, 0.99784), (4.0, 0.99907)):
            levels = extreme_level_from_c(-0.34, MILAN_TAU_I, c)
            assert levels.tau_e == pytest.approx(tau_e, abs=1e-3)
            assert levels.tau_star == pytest.approx(c ** (1.0 / -0.34), rel=1e-12)

    def test_endpoint_gap_published_levels_pwm(self):
        for c, tau_e in ((2.0, 0.99503), (3.0, 0.99877), (4.0, 0.99954)):
            levels = extreme_level_from_c(-0.29, MILAN_TAU_I, c)
            assert levels.tau_e == pytest.approx(tau_e, abs=1e-3)

    def test_gap_factor_roundtrip(self):
        levels = extreme_level_from_c(-0.27, 0.93, 3.0)
        assert levels.tau_star ** -0.27 == pytest.approx(3.0, rel=1e-12)

    def test_identity_at_unit_factor(self):
        levels = extreme_level_from_c(-0.2, 0.9, 1.0)
        assert levels.tau_e == levels.tau_i
        assert levels.tau_star == 1.0

    def test_inapplicable_for_heavy_tail(self):
        with pytest.raises(LevelRuleError):
            extreme_level_from_c(0.2, 0.9, 2.0)

    def test_return_period_ratio_exact(self):
        for T, n in ((37, 3140), (365, 3140), (1825, 10_000)):
            rule = extreme_level_from_return_period(T, n)
            assert rule.levels.tau_star == 0.25
            assert rule.levels.tau_e == pytest.approx(1.0 - 1.0 / T, rel=1e-15)

    def test_return_period_rounding(self):
        rule = extreme_level_from_return_period(365, 3140)
        assert rule.k == round(4 * 3140 / 365)  # 34.4 -> 34

    def test_return_period_infeasible(self):
        with pytest.raises(LevelRuleError):
            extreme_level_from_return_period(2 * 3140, 3140)  # 4n/T == 2


class TestTailComposition:
    def test_threshold_limit(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        just_above = unconditional_tail_cdf(model, 34.0 + 1e-9)
        assert just_above == pytest.approx(MILAN_TAU_I, abs=1e-6)

    def test_tends_to_one(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        assert unconditional_tail_cdf(model, 38.8) > 0.999

    def test_below_threshold_rejected(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        with pytest.raises(DomainError):
            unconditional_tail_cdf(model, 33.0)

    def test_requires_unit_ratio(self):
        model = freq_predictive(MILAN_ML, LevelPair.from_tau_star(MILAN_TAU_I, 0.5))
        with pytest.raises(DomainError):
            unconditional_tail_cdf(model, 35.0)

    def test_matches_true_law_on_exact_tail(self):
        # true GP tail: composed cdf equals the unconditional cdf above t
        from tailcast.gpd import gp_cdf, threshold_shift

        p = GpParams(0.3, 1.0)
        tau_i = 0.95
        t = np.quantile(make_excesses(0.3, 1.0, 400_000, seed=61), tau_i)
        fit = GpFit(threshold_shift(p, float(t)), "ml", 100, float(t), True)
        model = freq_predictive(fit, LevelPair.intermediate(tau_i))
        for y in (t * 1.05, t * 1.3, t * 2.0):
            composed = unconditional_tail_cdf(model, float(y))
            assert composed == pytest.approx(gp_cdf(p, float(y)), abs=0.01)


class TestTailEquivalence:
    def test_exact_model_ratio_is_one(self):
        from tailcast.gpd import gp_quantile, threshold_shift

        p = GpParams(0.25, 1.0)
        tau_i, tau_star = 0.95, 0.2
        t = gp_quantile(p, tau_i)
        fit = GpFit(threshold_shift(p, t), "ml", 100, t, True)
        model = freq_predictive(fit, LevelPair.intermediate(tau_i))
        q_true = gp_quantile(p, 1.0 - tau_star * (1.0 - tau_i))
        assert tail_equivalence_ratio(model, q_true, tau_star) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_unit_ratio(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        q0 = model.quantile(0.0)
        assert tail_equivalence_ratio(model, q0, 1.0) == pytest.approx(1.0)


class TestGridExport:
    def test_monotone_cdf_column(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        grid = prediction_grid(model, 34.0, 38.5, 200)
        assert grid.shape == (200, 3)
        assert np.all(np.diff(grid[:, 2]) >= 0.0)

    def test_rejects_bad_range(self):
        model = freq_predictive(MILAN_ML, LevelPair.intermediate(MILAN_TAU_I))
        with pytest.raises(DomainError):
            prediction_grid(model, 35.0, 34.0, 10)


class TestFitTail:
    LEVELS = LevelPair.from_tau_star(0.9, 0.2)
    PROBS = (0.0, 0.025, 0.5, 0.975)

    @pytest.fixture(scope="class")
    def e(self):
        return exceedances_from_excesses(
            make_excesses(0.2, 1.0, 400, seed=61), threshold=3.0, tau_i=0.9
        )

    @pytest.mark.parametrize("method,fitter", [("ml", fit_ml), ("pwm", fit_pwm)])
    def test_point_fit_equals_direct_law(self, e, method, fitter):
        tail = fit_tail(e, method)
        direct = freq_predictive(fitter(e), self.LEVELS)
        model = tail.at(self.LEVELS)
        ys = np.linspace(direct.support_lower(), direct.quantile(0.99), 25)
        assert tail.gamma == direct.params.gamma
        assert np.array_equal(model.cdf(ys), direct.cdf(ys))
        assert [model.quantile(p) for p in self.PROBS] == [
            direct.quantile(p) for p in self.PROBS
        ]
        assert predictive_interval(model, 0.05) == predictive_interval(direct, 0.05)

    def test_bayes_draws_equal_default_prior_chain(self, e):
        sampler = SamplerConfig(seed=9, burn_in=300, draws=600)
        tail = fit_tail(e, "bayes", sampler=sampler)
        direct = sample_posterior(default_prior(pwm_scale(e)), e, sampler)
        assert np.array_equal(tail.posterior.gammas, direct.gammas)
        assert np.array_equal(tail.posterior.sigmas, direct.sigmas)
        assert tail.gamma == float(np.mean(direct.gammas))
        model = tail.at(self.LEVELS)
        assert model.threshold == e.threshold and model.levels == self.LEVELS

    def test_unknown_method(self, e):
        with pytest.raises(DomainError, match="unknown method"):
            fit_tail(e, "hill")


class TestRelevel:
    FROM = LevelPair.intermediate(0.95)
    TO = LevelPair.from_tau_star(0.95, 0.1)

    def assert_same_law(self, got, built):
        assert type(got) is type(built) and got.levels == built.levels
        ys = np.linspace(built.support_lower(), built.quantile(0.99), 20)
        assert np.array_equal(got.cdf(ys), built.cdf(ys))
        assert np.array_equal(got.pdf(ys), built.pdf(ys))
        assert got.quantile(0.5) == built.quantile(0.5)

    def test_frequentist(self):
        model = FrequentistPredictive(GpParams(-0.2, 1.5), 4.0, self.FROM)
        built = FrequentistPredictive(GpParams(-0.2, 1.5), 4.0, self.TO)
        self.assert_same_law(model.at(self.TO), built)

    def test_bayesian(self):
        rng = np.random.default_rng(62)
        ps = posterior_of(rng.uniform(-0.3, 0.4, 300), rng.uniform(0.8, 1.2, 300))
        model = BayesianPredictive(ps, 4.0, self.FROM)
        self.assert_same_law(model.at(self.TO), BayesianPredictive(ps, 4.0, self.TO))

    def test_affine(self):
        rng = np.random.default_rng(63)
        ps = posterior_of(rng.uniform(-0.3, 0.4, 300), rng.uniform(0.8, 1.2, 300), 2.0)
        for inner in (FrequentistPredictive(GpParams(0.3, 1.0), 2.0, self.FROM),
                      BayesianPredictive(ps, 2.0, self.FROM)):
            model = inner.affine(0.5, 2.0).at(self.TO)
            built = inner.at(self.TO).affine(0.5, 2.0)
            self.assert_same_law(model, built)
            assert model.threshold == built.threshold == 4.5
