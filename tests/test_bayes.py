import math

import numpy as np
import pytest

from conftest import make_excesses
from tailcast.bayes import (
    CustomShape,
    DataDependentScale,
    LogUniformScale,
    PosteriorSample,
    PriorSpec,
    SamplerConfig,
    UniformWindowShape,
    default_prior,
    gamma_base_log_density,
    log_posterior_unnorm,
    log_prior,
    posterior_summary,
    sample_posterior,
)
from tailcast.errors import DomainError, PriorError, SamplerHealthWarning
from tailcast.estimation import exceedances_from_excesses, fit_ml, fit_pwm, pwm_scale


def flat_prior(lo=-0.45, hi=2.0):
    return PriorSpec(UniformWindowShape(lo, hi), LogUniformScale())


class TestPriorGate:
    def test_default_prior_passes(self):
        spec = default_prior(scale_anchor=2.0)
        assert spec.shape_support == (-0.5, math.inf)
        assert not spec.es_compatible

    def test_uniform_window_must_be_finite(self):
        with pytest.raises(PriorError):
            UniformWindowShape(-0.6, 1.0)

    def test_nonintegrable_shape_rejected(self):
        # density ~ (gamma + 1/2)^(-2) diverges at the boundary
        with pytest.raises(PriorError):
            PriorSpec(
                CustomShape(lambda g: -2.0 * math.log(g + 0.5), hi=2.0),
                LogUniformScale(),
            )

    def test_unbounded_positive_shape_rejected(self):
        # density exp(gamma) is unbounded on the positive half-line
        with pytest.raises(PriorError):
            PriorSpec(CustomShape(lambda g: g), LogUniformScale())

    def test_es_compatibility_window(self):
        assert flat_prior(-0.45, 0.99).es_compatible
        assert not flat_prior(-0.45, 1.5).es_compatible


class TestLogPrior:
    def test_excluded_shape(self):
        assert log_prior(default_prior(1.0), (-0.6, 1.0)) == -math.inf

    def test_log_uniform_scale_dependence(self):
        spec = flat_prior()
        a = log_prior(spec, (0.2, 1.0))
        b = log_prior(spec, (0.2, 2.0))
        assert a - b == pytest.approx(math.log(2.0))

    def test_data_dependent_change_of_variables(self):
        base = gamma_base_log_density(1.0, 1.0)
        scale = DataDependentScale(base, anchor=2.0)
        assert scale.log_density(2.0) == pytest.approx(base(1.0) - math.log(2.0))


class TestLogPosterior:
    def test_support_violation(self):
        e = exceedances_from_excesses([0.5, 1.0, 8.0])
        val = log_posterior_unnorm(flat_prior(), e, (-0.3, 1.0))  # endpoint 1/0.3 < 8
        assert val == -math.inf

    def test_grid_argmax_matches_ml(self):
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 2_000, seed=4))
        fit = fit_ml(e)
        spec = flat_prior()
        gammas = np.linspace(0.1, 0.5, 200)
        sigmas = np.linspace(0.8, 1.2, 200)
        lp = np.empty((200, 200))
        for i, g in enumerate(gammas):
            for j, s in enumerate(sigmas):
                lp[i, j] = log_posterior_unnorm(spec, e, (g, s))
        gi, sj = np.unravel_index(np.argmax(lp), lp.shape)
        # the log-uniform scale prior tilts the argmax by O(1/k), below grid size
        assert gammas[gi] == pytest.approx(fit.params.gamma, abs=(gammas[1] - gammas[0]) * 2)
        assert sigmas[sj] == pytest.approx(fit.params.sigma, abs=(sigmas[1] - sigmas[0]) * 2)

    def test_constant_prior_shift(self):
        e = exceedances_from_excesses([0.5, 1.0, 2.0])
        base = flat_prior()
        shifted = PriorSpec(
            CustomShape(
                lambda g: base.shape.log_density(g) + 3.0, lo=-0.45, hi=2.0
            ),
            LogUniformScale(),
        )
        for theta in ((0.2, 1.0), (0.0, 2.0)):
            a = log_posterior_unnorm(base, e, theta)
            b = log_posterior_unnorm(shifted, e, theta)
            assert b - a == pytest.approx(3.0)


class TestSampler:
    def test_determinism(self):
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 500, seed=8))
        prior = default_prior(fit_pwm(e).params.sigma)
        cfg = SamplerConfig(seed=5, burn_in=500, draws=1_000)
        a = sample_posterior(prior, e, cfg)
        b = sample_posterior(prior, e, cfg)
        assert np.array_equal(a.gammas, b.gammas)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert a.acceptance_rate == b.acceptance_rate

    def test_one_ml_fit_per_chain(self, monkeypatch):
        import tailcast.bayes as bayes

        calls = []

        def counted(e):
            calls.append(e)
            return fit_ml(e)

        monkeypatch.setattr(bayes, "fit_ml", counted)
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 500, seed=8))
        sample_posterior(
            default_prior(fit_pwm(e).params.sigma), e,
            SamplerConfig(seed=5, burn_in=200, draws=500),
        )
        assert len(calls) == 1

    def test_short_tail_where_pwm_fit_fails(self):
        # the PWM shape estimate here is -0.637, so only its scale anchors the prior
        e = exceedances_from_excesses(make_excesses(-0.45, 1.0, 150, 1))
        ps = sample_posterior(
            default_prior(pwm_scale(e)), e,
            SamplerConfig(seed=4, burn_in=1_000, draws=2_000),
        )
        assert np.all(ps.gammas > -0.5)
        assert float(np.mean(ps.gammas)) < 0.0

    def test_consistency_weak_prior(self):
        e = exceedances_from_excesses(make_excesses(0.3, 1.0, 2_000, seed=12))
        prior = default_prior(fit_pwm(e).params.sigma)
        ps = sample_posterior(prior, e, SamplerConfig(seed=1, burn_in=2_000, draws=8_000))
        assert float(np.mean(ps.gammas)) == pytest.approx(0.3, abs=0.05)
        assert float(np.mean(ps.sigmas)) == pytest.approx(1.0, abs=0.05)
        assert 0.1 <= ps.acceptance_rate <= 0.6

    def test_draws_respect_parameter_space(self):
        e = exceedances_from_excesses(make_excesses(-0.2, 1.0, 800, seed=2))
        prior = default_prior(fit_pwm(e).params.sigma)
        ps = sample_posterior(prior, e, SamplerConfig(seed=3, burn_in=1_000, draws=2_000))
        assert np.all(ps.gammas > -0.5)
        assert np.all(ps.sigmas > 0.0)
        # likelihood support: no retained draw may exclude an observed excess
        neg = ps.gammas < 0
        assert np.all(ps.sigmas[neg] > -ps.gammas[neg] * e.excesses[-1])

    def test_misspecified_window_warns(self):
        e = exceedances_from_excesses(make_excesses(0.0, 1.0, 1_000, seed=6))
        prior = PriorSpec(UniformWindowShape(0.4, 0.6), LogUniformScale())
        with pytest.warns(SamplerHealthWarning):
            ps = sample_posterior(prior, e, SamplerConfig(seed=2, burn_in=1_000, draws=2_000))
        assert float(np.mean(ps.gammas)) < 0.45  # piled near the lower boundary

    def test_posterior_contraction_in_k(self):
        reps = 50
        wins = 0
        for r in range(reps):
            widths = {}
            for k in (500, 2_000):
                e = exceedances_from_excesses(
                    make_excesses(0.25, 1.0, k, seed=9_000 + 17 * r + k)
                )
                prior = default_prior(fit_pwm(e).params.sigma)
                ps = sample_posterior(
                    prior, e, SamplerConfig(seed=r, burn_in=600, draws=1_500)
                )
                lo, hi = np.quantile(ps.gammas, [0.025, 0.975])
                widths[k] = hi - lo
            wins += int(widths[2_000] < widths[500])
        assert wins >= 45


class TestPosteriorSummary:
    def test_synthetic_draws_known_quantiles(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(20_000)
        assert np.max(np.abs(z)) < 4.5  # keeps the fake draws inside the space
        ps = PosteriorSample(
            gammas=1.0 + 0.1 * z,
            sigmas=np.exp(0.1 * z),
            acceptance_rate=0.3,
            burn_in=0,
            thin=1,
            seed=0,
            ess=(20_000.0, 20_000.0),
            threshold=0.0,
            shape_support=(-0.5, math.inf),
        )
        s = posterior_summary(ps, level=0.95)
        assert s.mean_gamma == pytest.approx(1.0, abs=0.02)
        assert s.ci_gamma[0] == pytest.approx(1.0 - 1.96 * 0.1, abs=0.02)
        assert s.ci_gamma[1] == pytest.approx(1.0 + 1.96 * 0.1, abs=0.02)

    def test_constant_draws_zero_width(self):
        ps = PosteriorSample(
            gammas=np.full(200, 0.2),
            sigmas=np.full(200, 1.5),
            acceptance_rate=0.3,
            burn_in=0,
            thin=1,
            seed=0,
            ess=(200.0, 200.0),
            threshold=0.0,
            shape_support=(-0.5, math.inf),
        )
        s = posterior_summary(ps)
        assert s.ci_gamma == (0.2, 0.2)
        assert s.ci_sigma == (1.5, 1.5)

    def test_too_few_draws(self):
        ps = PosteriorSample(
            gammas=np.full(50, 0.2),
            sigmas=np.full(50, 1.0),
            acceptance_rate=0.3,
            burn_in=0,
            thin=1,
            seed=0,
            ess=(50.0, 50.0),
            threshold=0.0,
            shape_support=(-0.5, math.inf),
        )
        with pytest.raises(DomainError):
            posterior_summary(ps)

    def test_endpoint_summary_for_short_tail(self):
        e = exceedances_from_excesses(
            make_excesses(-0.3, 1.0, 2_000, seed=14), threshold=34.0
        )
        prior = default_prior(fit_pwm(e).params.sigma)
        ps = sample_posterior(prior, e, SamplerConfig(seed=4, burn_in=1_000, draws=3_000))
        s = posterior_summary(ps)
        assert s.prob_finite_endpoint > 0.99
        # true endpoint: threshold + sigma/|gamma| = 34 + 1/0.3
        assert s.endpoint_mean == pytest.approx(34.0 + 1.0 / 0.3, abs=0.35)


@pytest.mark.acceptance
class TestCalibration:
    def test_credible_interval_coverage(self):
        reps = 400
        covered = 0
        for r in range(reps):
            e = exceedances_from_excesses(
                make_excesses(0.25, 1.0, 500, seed=30_000 + r)
            )
            prior = default_prior(fit_pwm(e).params.sigma)
            ps = sample_posterior(
                prior, e, SamplerConfig(seed=r, burn_in=600, draws=1_500)
            )
            lo, hi = np.quantile(ps.gammas, [0.025, 0.975])
            covered += int(lo <= 0.25 <= hi)
        assert 0.93 * reps <= covered <= 0.97 * reps
