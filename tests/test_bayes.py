import itertools
import math
import warnings

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
    TruncatedNormalShape,
    UniformWindowShape,
    default_prior,
    gamma_base_log_density,
    log_posterior_unnorm,
    log_prior,
    posterior_summary,
    sample_posterior,
)
from tailcast.errors import DomainError, EstimationError, PriorError, SamplerHealthWarning
from tailcast.estimation import exceedances_from_excesses, fit_ml, fit_pwm, pwm_scale
from tailcast.gpd import GAMMA_ZERO_TOL


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


def numeric_gate(shape):
    """Run the numeric gate that a ``CustomShape`` gets on ``shape``'s density;
    raises :class:`PriorError` where it rejects."""
    PriorSpec(CustomShape(shape.log_density, *shape.support), LogUniformScale())


class TestBuiltinShapesSkipTheNumericGate:
    """The built-in shapes are normalized densities, so the numeric gate
    only runs for a ``CustomShape``; these tests pin that its verdict on
    them was acceptance wherever it gave one."""

    MEANS = (-1e6, -30.0, -1.0, -0.5, -0.49, -0.25, 0.0, 1e-9, 0.3, 1.0, 5.0,
             100.0, 9_999.0, 1e5, 1e300)
    SDS = (1e-300, 1e-12, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e300, 1e308)
    WINDOWS = ((-0.5, -0.5 + 1e-15), (-0.5, -0.4999), (-0.5, 0.0), (-0.2, 0.1),
               (0.0, 1e-300), (1.0, 1.0 + 1e-12), (0.0, 1e4), (5.0, 1e300),
               (-0.5, 1e308))

    def test_truncated_normal_sweep(self):
        accepted = 0
        for mean, sd in itertools.product(self.MEANS, self.SDS):
            tail = 0.5 * math.erfc((-0.5 - mean) / (sd * math.sqrt(2)))
            norm = sd * math.sqrt(2 * math.pi) * tail
            if not 0.0 < norm < math.inf:
                # at 0, log_density used to fail with a math domain error
                # inside the gate; at inf it was -inf everywhere, which the gate
                # let through and the sampler then rejected
                with pytest.raises(PriorError, match="no representable normalization"):
                    TruncatedNormalShape(mean, sd)
                continue
            shape = TruncatedNormalShape(mean, sd)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                numeric_gate(shape)
            assert PriorSpec(shape, LogUniformScale()).shape is shape
            accepted += 1
        assert accepted == 121  # 29 of the 150 pairs have no normalization

    @pytest.mark.parametrize("window", WINDOWS)
    def test_uniform_window_sweep(self, window):
        shape = UniformWindowShape(*window)
        numeric_gate(shape)
        assert PriorSpec(shape, LogUniformScale()).shape is shape

    @pytest.mark.parametrize("mean, sd, reason", [
        (1e4, 1e-3, "keeps growing"),  # the gate's grid ends on the peak
        (1e4, 1e-6, "keeps growing"),
        (1e-9, 1e-310, "unbounded"),  # the density exceeds the float range there
    ])
    def test_where_the_numeric_gate_raised_a_false_alarm(self, mean, sd, reason):
        # a normal density with all its mass above -1/2 is normalized, but the
        # gate's heuristics misread a peak on its first or last grid point
        shape = TruncatedNormalShape(mean, sd)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PriorError, match=reason):
                numeric_gate(shape)
        assert PriorSpec(shape, LogUniformScale()).shape is shape
        assert shape.log_density(mean) == pytest.approx(-math.log(sd * math.sqrt(2 * math.pi)))

    def test_log_density_is_unchanged(self):
        for mean, sd in ((0.0, 10.0), (-0.3, 0.05), (2.0, 0.5)):
            shape = TruncatedNormalShape(mean, sd)
            tail = 0.5 * math.erfc((-0.5 - mean) / (sd * math.sqrt(2)))
            for g in (-0.49, -0.1, 0.0, 0.7, 3.0):
                z = (g - mean) / sd
                old = -0.5 * z * z - math.log(sd * math.sqrt(2 * math.pi) * tail)
                assert shape.log_density(g) == old


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
    @pytest.mark.parametrize("adapt_interval", [0, -5])
    def test_adapt_interval_must_be_positive(self, adapt_interval):
        with pytest.raises(DomainError):
            SamplerConfig(adapt_interval=adapt_interval)

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


def reference_chain(spec, e, cfg):
    """The Metropolis loop as first written, on numpy scalars, with branch counts.

    Returns what ``sample_posterior`` reports of the chain, and how often the
    log posterior met a shape past the data's endpoint, a point outside the
    prior, and a near-zero shape.
    """
    import tailcast.bayes as bayes

    x = e.excesses
    k = x.size
    x_sum = float(np.sum(x))
    x_max = float(x[-1])
    visits = {"past_endpoint": 0, "outside_prior": 0, "near_zero_shape": 0}

    def logpost(gamma, log_sigma):
        if gamma <= -0.5:
            return -math.inf
        sigma = math.exp(log_sigma)
        if gamma < 0.0 and x_max * (-gamma) >= sigma:
            visits["past_endpoint"] += 1
            return -math.inf
        lp = spec.shape.log_density(gamma) + spec.scale.log_density(sigma)
        if lp == -math.inf:
            visits["outside_prior"] += 1
            return -math.inf
        if abs(gamma) < GAMMA_ZERO_TOL:
            visits["near_zero_shape"] += 1
            ll = -k * log_sigma - x_sum / sigma
        else:
            ll = -k * log_sigma - (1.0 + 1.0 / gamma) * float(
                np.sum(np.log1p((gamma / sigma) * x))
            )
        return ll + lp + log_sigma

    rng = np.random.default_rng(cfg.seed)
    try:
        fit = bayes.fit_ml(e)
    except EstimationError:
        fit = None
    state = bayes._initial_state(spec, e, logpost, fit)
    lp_cur = logpost(*state)
    total = cfg.burn_in + cfg.draws * cfg.thin
    z = rng.standard_normal((total, 2))
    log_u = np.log(rng.random(total))
    cov = bayes._initial_proposal_cov(e, fit)
    scale_factor = 2.38**2 / 2.0
    chol = np.linalg.cholesky(scale_factor * cov + 1e-12 * np.eye(2))
    l00, l10, l11 = chol[0, 0], chol[1, 0], chol[1, 1]
    history = np.empty((cfg.burn_in, 2)) if cfg.burn_in else None
    out_g = np.empty(cfg.draws)
    out_s = np.empty(cfg.draws)
    accepted_tail = 0
    n_out = 0
    g_cur, ls_cur = state
    for i in range(total):
        dg = l00 * z[i, 0]
        dls = l10 * z[i, 0] + l11 * z[i, 1]
        g_prop, ls_prop = g_cur + dg, ls_cur + dls
        lp_prop = logpost(g_prop, ls_prop)
        if lp_prop - lp_cur > log_u[i]:
            g_cur, ls_cur, lp_cur = g_prop, ls_prop, lp_prop
            if i >= cfg.burn_in:
                accepted_tail += 1
        if i < cfg.burn_in:
            history[i] = (g_cur, ls_cur)
            if (i + 1) % cfg.adapt_interval == 0:
                emp = np.cov(history[: i + 1].T)
                if np.all(np.isfinite(emp)):
                    try:
                        chol = np.linalg.cholesky(scale_factor * emp + 1e-10 * np.eye(2))
                        l00, l10, l11 = chol[0, 0], chol[1, 0], chol[1, 1]
                    except np.linalg.LinAlgError:
                        pass
        elif (i - cfg.burn_in) % cfg.thin == 0:
            out_g[n_out] = g_cur
            out_s[n_out] = math.exp(ls_cur)
            n_out += 1
    rate = accepted_tail / (cfg.draws * cfg.thin)
    return (out_g, out_s, rate, (bayes._ess(out_g), bayes._ess(out_s))), visits


def _no_fit(e):
    raise EstimationError("ML fit withheld")


_CHAIN_CASES = {
    # name: (shape of the excesses, k, prior, sampler settings, withhold the ML fit)
    "heavy-default-thin3": (
        0.5, 200, "default", SamplerConfig(seed=3, burn_in=700, draws=900, thin=3), False,
    ),
    "heavy-window": (
        0.5, 150, "window", SamplerConfig(seed=4, burn_in=650, draws=1_000, adapt_interval=80),
        False,
    ),
    "near-zero-log-uniform": (
        0.0, 200, "log-uniform", SamplerConfig(seed=5, burn_in=0, draws=1_500), False,
    ),
    "short-custom": (
        -0.4, 120, "custom", SamplerConfig(seed=6, burn_in=500, draws=1_000, thin=2), False,
    ),
    "short-default-burn0": (
        -0.3, 300, "default", SamplerConfig(seed=7, burn_in=0, draws=1_200), False,
    ),
    "fallback-start-at-zero-shape": (
        0.2, 100, "symmetric-window",
        SamplerConfig(seed=8, burn_in=430, draws=800, adapt_interval=60), True,
    ),
}


def _chain_prior(name, e):
    if name == "default":
        return default_prior(pwm_scale(e))
    if name == "window":
        return PriorSpec(UniformWindowShape(-0.1, 0.45), LogUniformScale())
    if name == "symmetric-window":  # the fallback start sits at its middle, 0
        return PriorSpec(UniformWindowShape(-0.5, 0.5), LogUniformScale())
    if name == "log-uniform":
        return PriorSpec(UniformWindowShape(-0.45, 2.0), LogUniformScale())
    return PriorSpec(
        CustomShape(lambda g: -2.0 * g * g, lo=-0.45, hi=1.5),
        DataDependentScale(gamma_base_log_density(2.0, 1.0), pwm_scale(e)),
    )


@pytest.mark.parametrize("case", sorted(_CHAIN_CASES))
def test_sampler_matches_reference_loop_exactly(case, monkeypatch):
    import tailcast.bayes as bayes

    shape, k, prior_name, cfg, withhold_fit = _CHAIN_CASES[case]
    if withhold_fit:
        monkeypatch.setattr(bayes, "fit_ml", _no_fit)
    e = exceedances_from_excesses(make_excesses(shape, 1.0, k, seed=k))
    spec = _chain_prior(prior_name, e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplerHealthWarning)
        ps = sample_posterior(spec, e, cfg)
    (gammas, sigmas, rate, ess), visits = reference_chain(spec, e, cfg)
    assert np.array_equal(ps.gammas, gammas)
    assert np.array_equal(ps.sigmas, sigmas)
    assert ps.acceptance_rate == rate
    assert ps.ess == ess
    # each case reaches the branch it is named for
    if shape < 0.0:
        assert visits["past_endpoint"] > 0
    if prior_name in ("window", "symmetric-window"):
        assert visits["outside_prior"] > 0
    if withhold_fit:
        assert visits["near_zero_shape"] > 0


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
