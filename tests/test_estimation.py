import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize

from conftest import make_excesses
from tailcast.bayes import SamplerConfig, default_prior, sample_posterior
from tailcast.errors import (
    BoundaryWarning,
    DegenerateDataError,
    DomainError,
    EstimationError,
    TieWarning,
)
from tailcast.estimation import (
    ExceedanceSet,
    GpFit,
    SortedSample,
    _negloglik_grad,
    endpoint_estimate,
    exceedances_from_excesses,
    fit_hill,
    fit_ml,
    fit_pwm,
    gp_negloglik,
    pwm_scale,
    select_exceedances,
    stability_trace,
)
from tailcast.gpd import GpParams

# any numpy warning from the ML search (a log of a non-positive ratio, a
# division at theta = 0) fails these tests
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestSelectExceedances:
    def test_basic_split(self):
        e = select_exceedances(SortedSample.from_data([1, 2, 3, 4, 5]), 2)
        assert e.threshold == 3.0
        assert e.excesses.tolist() == [1.0, 2.0]
        assert e.tau_i == pytest.approx(0.6)

    def test_milan_intermediate_level(self):
        values = np.linspace(0.0, 40.0, 3140)
        e = select_exceedances(SortedSample.from_data(values), 169)
        assert e.tau_i == pytest.approx(1.0 - 169 / 3140)
        assert round(e.tau_i, 4) == 0.9462

    def test_ties_dropped_with_warning(self):
        with pytest.warns(TieWarning):
            e = select_exceedances(SortedSample.from_data([1, 2, 2, 2, 5]), 3)
        assert e.threshold == 2.0
        assert e.excesses.tolist() == [3.0]
        assert e.n_dropped == 2

    def test_all_tied_degenerate(self):
        with pytest.raises(DegenerateDataError):
            select_exceedances(SortedSample.from_data([1, 2, 2, 2, 2]), 3)

    def test_k_out_of_range(self):
        s = SortedSample.from_data([1, 2, 3])
        with pytest.raises(DomainError):
            select_exceedances(s, 3)
        with pytest.raises(DomainError):
            select_exceedances(s, 0)


class TestMaximumLikelihood:
    def test_consistency_on_exact_model(self):
        e = exceedances_from_excesses(make_excesses(0.5, 2.0, 100_000, seed=42))
        fit = fit_ml(e)
        assert fit.converged
        assert fit.params.gamma == pytest.approx(0.5, abs=0.02)
        assert fit.params.sigma == pytest.approx(2.0, abs=0.04)

    def test_short_tail_consistency(self):
        e = exceedances_from_excesses(make_excesses(-0.3, 1.0, 100_000, seed=7))
        fit = fit_ml(e)
        assert fit.params.gamma == pytest.approx(-0.3, abs=0.02)
        assert fit.params.sigma == pytest.approx(1.0, abs=0.02)

    def test_loglik_matches_objective(self):
        e = exceedances_from_excesses(make_excesses(0.2, 1.0, 2_000, seed=3))
        fit = fit_ml(e)
        theta = np.array([fit.params.gamma, math.log(fit.params.sigma)])
        assert fit.loglik == pytest.approx(
            -gp_negloglik(theta, e.excesses) * e.excesses.size, rel=1e-12
        )

    def test_degenerate_constant_excesses(self):
        with pytest.raises(DegenerateDataError):
            fit_ml(exceedances_from_excesses([2.0, 2.0, 2.0, 2.0]))

    def test_local_maximum_property(self):
        e = exceedances_from_excesses(make_excesses(0.1, 1.5, 5_000, seed=11))
        fit = fit_ml(e)
        theta = np.array([fit.params.gamma, math.log(fit.params.sigma)])
        base = gp_negloglik(theta, e.excesses)
        rng = np.random.default_rng(0)
        for _ in range(200):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            radius = 0.01 * rng.random() * np.abs(theta)
            cand = theta + direction * radius
            assert gp_negloglik(cand, e.excesses) >= base - 1e-12

    def test_scale_equivariance_to_optimizer_tolerance(self):
        exc = make_excesses(0.3, 1.0, 5_000, seed=21)
        fit1 = fit_ml(exceedances_from_excesses(exc))
        fit4 = fit_ml(exceedances_from_excesses(4.0 * exc))
        assert fit4.params.gamma == pytest.approx(fit1.params.gamma, abs=1e-7)
        assert fit4.params.sigma == pytest.approx(4.0 * fit1.params.sigma, rel=1e-7)

    def test_needs_two_excesses(self):
        with pytest.raises(DomainError):
            fit_ml(exceedances_from_excesses([1.0]))

    @pytest.mark.parametrize("seed", [12, 27, 33])
    def test_short_tail_search_is_silent(self, seed):
        # 20 + 5 GP(-1/3, 1) at n = 3,140, k = 169: a short tail whose search
        # must raise no RuntimeWarning (the module's filter makes one an error)
        u = np.random.default_rng(seed).random(3_140)
        x = 20.0 + 5.0 * np.expm1(np.log1p(-u) / 3.0) * -3.0
        e = select_exceedances(SortedSample.from_data(x), 169)
        fit = fit_ml(e)
        assert fit.params.gamma == pytest.approx(-1.0 / 3.0, abs=0.2)


def _reference_fit(x):
    """The multi-start Nelder-Mead search with damped Newton polish that
    ``fit_ml`` used before the profile search: (gamma, sigma, loglik)."""

    def polish(theta):
        h = 1e-6
        for _ in range(25):
            grad = _negloglik_grad(theta, x)
            if np.linalg.norm(grad) < 1e-11:
                break
            hess = np.empty((2, 2))
            for j in range(2):
                step = np.zeros(2)
                step[j] = h
                hess[:, j] = (
                    _negloglik_grad(theta + step, x) - _negloglik_grad(theta - step, x)
                ) / (2.0 * h)
            try:
                delta = np.linalg.solve(0.5 * (hess + hess.T), grad)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(delta)):
                break
            f0, scale = gp_negloglik(theta, x), 1.0
            for _ in range(30):
                if gp_negloglik(theta - scale * delta, x) <= f0 + 1e-15:
                    theta = theta - scale * delta
                    break
                scale *= 0.5
            else:
                break
        return theta

    def grad_ok(theta):
        return np.linalg.norm(_negloglik_grad(theta, x)) < 1e-6

    log_mean = math.log(float(np.mean(x)))
    starts = [np.array([0.1, log_mean])]
    try:
        pwm = fit_pwm(exceedances_from_excesses(x))
        starts.insert(0, np.array([pwm.params.gamma, math.log(pwm.params.sigma)]))
    except (DegenerateDataError, EstimationError, DomainError):
        pass
    fallback = [np.array([g, log_mean]) for g in (-0.35, -0.1, 0.4, 1.0)]
    best, best_val = None, math.inf
    for attempt, start in enumerate(starts + fallback):
        if attempt >= len(starts) and best is not None and grad_ok(best):
            break
        with np.errstate(invalid="ignore"):
            res = minimize(
                gp_negloglik, start, args=(x,), method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000},
            )
        cand = polish(res.x)
        val = gp_negloglik(cand, x)
        if val < best_val:
            best, best_val = cand, val
    return float(best[0]), math.exp(best[1]), -best_val * x.size


def _reference_inputs():
    """60 seeded excess samples: GP shapes from -0.45 to 0.9 (0 and 1e-9
    among them) at k = 20 to 1,000, and Pareto(2) windows at k = 44 to 2,162.
    Several k = 20 and 30 draws put the constrained maximum on gamma = -1/2:
    16 of the 60 fits lie on that edge."""
    for gamma in (-0.45, -0.3, -0.1, 0.0, 1e-9, 0.1, 0.25, 0.5, 0.9):
        for k, seed in ((20, 1), (30, 2), (30, 0), (50, 0), (200, 0), (1000, 0)):
            yield make_excesses(gamma, 1.0, k, seed=1000 * seed + k)
    for k in (44, 200, 2162):
        for seed in (77, 78):
            u = np.random.default_rng(seed).random(40 * k)
            top = np.sort((1.0 - u) ** -0.5)[-k - 1:]
            yield top[1:] - top[0]


class TestAgainstReferenceSearch:
    def test_profile_search_matches_old_search(self):
        edge = 0
        for x in _reference_inputs():
            e = exceedances_from_excesses(x)
            gamma_ref, sigma_ref, ll_ref = _reference_fit(e.excesses)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryWarning)
                fit = fit_ml(e)
            assert fit.loglik >= ll_ref - 1e-9 * abs(ll_ref)
            assert fit.boundary == (gamma_ref < -0.495)
            if fit.params.gamma == math.nextafter(-0.5, 0.0):
                edge += 1
                assert fit.params.sigma == pytest.approx(sigma_ref, rel=1e-7)
            else:
                assert fit.params.gamma == pytest.approx(gamma_ref, rel=1e-9)
                assert fit.params.sigma == pytest.approx(sigma_ref, rel=1e-9)
        assert edge >= 10


class TestShapeEdge:
    """A short tail whose constrained maximum lies on gamma = -1/2."""

    @pytest.fixture
    def e(self):
        return exceedances_from_excesses(make_excesses(-0.3, 1.0, 30, seed=30))

    def test_fit_lies_on_the_edge(self, e):
        with pytest.warns(BoundaryWarning):
            fit = fit_ml(e)
        assert fit.boundary and fit.converged
        assert -0.5 < fit.params.gamma < -0.495
        assert fit.loglik == pytest.approx(
            -gp_negloglik([fit.params.gamma, math.log(fit.params.sigma)], e.excesses)
            * e.n_excesses,
            rel=1e-12,
        )

    def test_beats_the_interior_stationary_points(self, e):
        with pytest.warns(BoundaryWarning):
            fit = fit_ml(e)
        x = e.excesses
        y = x / x[-1]

        def shape(t):
            return float(np.mean(np.log1p(t * y)))

        def score(t):
            """Grimshaw's profile score, with no shape bound."""
            return float(np.mean(y / (1.0 + t * y))) * (1.0 / shape(t) + 1.0) - 1.0 / t

        def loglik(t):
            g = shape(t)
            return -gp_negloglik([g, math.log(g / t * x[-1])], x) * x.size

        # every stationary point of the profile on a fine grid of t = theta x_max
        t = np.concatenate(
            [-1.0 + np.geomspace(1e-12, 0.999, 2_000), np.geomspace(1e-6, 1e3, 500)]
        )
        scores = np.array([score(v) for v in t])
        roots = [
            brentq(score, t[i], t[i + 1])
            for i in np.flatnonzero(np.sign(scores[:-1]) != np.sign(scores[1:]))
        ]
        assert roots
        for root in roots:
            # either past the shape bound, where the likelihood is zero, or worse
            assert shape(root) <= -0.5 or loglik(root) < fit.loglik
        # and the fit beats every admissible point of the profile
        admissible = [v for v in t if shape(v) > -0.5]
        assert max(loglik(v) for v in admissible) < fit.loglik

    def test_sampler_starts_from_the_edge_fit(self, e, monkeypatch):
        import tailcast.bayes as bayes

        with pytest.warns(BoundaryWarning):
            fit = fit_ml(e)
        starts = []
        original = bayes._initial_state

        def recording(spec, e, logpost, fit):
            start = original(spec, e, logpost, fit)
            starts.append((start, logpost(*start)))
            return start

        monkeypatch.setattr(bayes, "_initial_state", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = SamplerConfig(burn_in=200, draws=200, seed=1)
            sample_posterior(default_prior(pwm_scale(e)), e, cfg)
        [(start, log_post)] = starts
        assert start == (fit.params.gamma, math.log(fit.params.sigma))
        assert math.isfinite(log_post)


def _reference_grad(gamma, sigma, x):
    """The gradient of the mean negative log-likelihood in (gamma, log sigma):
    the shape component from the Taylor series of psi(z) = (z/(1+z) -
    log1p z)/z^2 where |gamma| max(u) < 1e-2, from the general form on
    log1p elsewhere."""
    u = x / sigma
    ratio = float(np.mean(u / (1.0 + gamma * u)))
    if abs(gamma) * u[-1] < 1e-2:
        z = gamma * u
        psi = sum((-1) ** (j + 1) * (j + 1) / (j + 2) * z**j for j in range(12))
        d_gamma = ratio + float(np.mean(u * u * psi))
    else:
        d_gamma = -float(np.mean(np.log1p(gamma * u))) / gamma**2 + (1.0 + 1.0 / gamma) * ratio
    return np.array([d_gamma, 1.0 - (1.0 + gamma) * ratio])


class TestNearZeroShape:
    """The shape score's two terms of size mean(u)/gamma cancel near
    gamma = 0; the series keeps its digits there."""

    @pytest.mark.parametrize("k,seed", [(100, 3), (500, 4)])
    @pytest.mark.parametrize("sigma_factor", [0.7, 1.4])
    def test_gradient_matches_reference(self, k, seed, sigma_factor):
        x = np.sort(np.random.default_rng(seed).exponential(1.0, k))
        sigma = sigma_factor * float(np.mean(x))
        magnitudes = np.geomspace(1e-9, 1e-2, 29)
        for gamma in np.concatenate([magnitudes, -magnitudes]):
            got = _negloglik_grad(np.array([gamma, math.log(sigma)]), x)
            ref = _reference_grad(gamma, sigma, x)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), gamma

    def test_gradient_at_zero_is_the_exponential_limit(self):
        x = np.sort(np.random.default_rng(5).exponential(2.0, 50))
        u = x / 1.5
        got = _negloglik_grad(np.array([0.0, math.log(1.5)]), x)
        assert got.tolist() == [np.mean(u) - np.mean(u * u) / 2.0, 1.0 - np.mean(u)]

    def test_fit_with_shape_just_above_zero_converges(self):
        # an exponential sample whose ML shape is 6.7e-7: the score lost its
        # digits there, and the fit was rejected as not converged (gradient
        # norm 2.6e-5 against the 1e-6 gate)
        x = np.random.default_rng(97755).exponential(1.0, 100)
        fit = fit_ml(exceedances_from_excesses(x))
        assert 1e-8 < fit.params.gamma < 1e-5
        assert fit.details["grad_norm"] < 1e-9


class TestPwm:
    def test_two_point_hand_computation_hits_error_path(self):
        # (a,b)=(1,3): M1=2, M2=1.25, ratio=0.8 -> gamma=6, sigma=-10
        with pytest.raises(EstimationError) as err:
            fit_pwm(exceedances_from_excesses([1.0, 3.0]))
        assert "6.0000" in str(err.value)
        assert "-10.0000" in str(err.value)

    def test_consistency_exponential(self):
        e = exceedances_from_excesses(make_excesses(0.0, 1.0, 100_000, seed=5))
        fit = fit_pwm(e)
        assert fit.params.gamma == pytest.approx(0.0, abs=0.02)
        assert fit.params.sigma == pytest.approx(1.0, abs=0.02)
        assert fit.pwm_valid

    def test_validity_flag_above_half(self):
        e = exceedances_from_excesses(make_excesses(0.7, 1.0, 50_000, seed=9))
        fit = fit_pwm(e)
        assert fit.pwm_valid is False

    def test_scale_equivariance_exact(self):
        # dyadic factor keeps the float arithmetic exact
        exc = make_excesses(0.2, 1.0, 1_000, seed=13)
        fit1 = fit_pwm(exceedances_from_excesses(exc))
        fit4 = fit_pwm(exceedances_from_excesses(4.0 * exc))
        assert fit4.params.gamma == fit1.params.gamma
        assert fit4.params.sigma == 4.0 * fit1.params.sigma

    @pytest.mark.parametrize("gamma", [-0.25, 0.0, 0.25])
    def test_agreement_with_ml(self, gamma):
        e = exceedances_from_excesses(make_excesses(gamma, 1.0, 100_000, seed=33))
        assert abs(fit_ml(e).params.gamma - fit_pwm(e).params.gamma) < 0.05


class TestPwmScale:
    def test_equals_fit_pwm_sigma_where_fit_succeeds(self):
        for gamma, seed in ((0.3, 1), (0.0, 2), (-0.2, 3)):
            e = exceedances_from_excesses(make_excesses(gamma, 1.5, 300, seed))
            assert pwm_scale(e) == fit_pwm(e).params.sigma

    def test_defined_when_pwm_shape_at_or_below_minus_half(self):
        # these short-tailed excesses give a PWM shape estimate of -0.637
        e = exceedances_from_excesses(make_excesses(-0.45, 1.0, 150, 1))
        with pytest.raises(EstimationError, match="out of regime"):
            fit_pwm(e)
        assert pwm_scale(e) == pytest.approx(1.13286, abs=1e-5)


class TestHill:
    def test_pareto_oracle(self):
        rng = np.random.default_rng(17)
        sample = SortedSample.from_data((1 - rng.random(100_000)) ** -0.5)
        assert fit_hill(sample, 1_000) == pytest.approx(0.5, abs=0.05)

    def test_tied_top_values(self):
        s = SortedSample.from_data([1.0, 2.0, 5.0, 5.0, 5.0, 5.0])
        assert fit_hill(s, 3) == 0.0

    def test_nonpositive_rejected(self):
        s = SortedSample.from_data([-3.0, -2.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            fit_hill(s, 3)


class TestEndpoint:
    def test_published_short_tail_fits(self):
        ml = GpFit(GpParams(-0.34, 1.65), "ml", 169, 34.0, True)
        assert endpoint_estimate(ml, 34.0) == pytest.approx(38.84, abs=0.05)
        pwm = GpFit(GpParams(-0.29, 1.59), "pwm", 169, 34.0, True)
        assert endpoint_estimate(pwm, 34.0) == pytest.approx(39.46, abs=0.05)

    def test_infinite_for_nonnegative_shape(self):
        fit = GpFit(GpParams(0.1, 1.0), "ml", 10, 0.0, True)
        assert endpoint_estimate(fit, 0.0) == math.inf


class TestRateAndTrace:
    def test_sqrt_k_rate(self):
        # RMSE should roughly halve when the excess count quadruples
        reps = 120
        errs = {500: [], 2000: []}
        for k, store in errs.items():
            for r in range(reps):
                e = exceedances_from_excesses(
                    make_excesses(0.25, 1.0, k, seed=1000 * k + r)
                )
                store.append(fit_ml(e).params.gamma - 0.25)
        rmse_500 = float(np.sqrt(np.mean(np.square(errs[500]))))
        rmse_2000 = float(np.sqrt(np.mean(np.square(errs[2000]))))
        assert 1.6 < rmse_500 / rmse_2000 < 2.4

    def test_stability_trace_shapes(self):
        rng = np.random.default_rng(3)
        s = SortedSample.from_data((1 - rng.random(20_000)) ** -0.5)
        rows = stability_trace(s, ks=[100, 200, 400], method="hill")
        assert [k for k, _ in rows] == [100, 200, 400]
        assert all(0.3 < g < 0.7 for _, g in rows)
        rows_ml = stability_trace(s, ks=[200, 400], method="ml")
        assert all(np.isfinite(g) for _, g in rows_ml)

    def test_stability_trace_rejects_unknown_method(self):
        s = SortedSample.from_data(np.arange(1.0, 1_001.0))
        with pytest.raises(DomainError, match="unknown method 'mle'"):
            stability_trace(s, ks=[100, 200], method="mle")


class TestContainers:
    def test_sorted_sample_rejects_disorder(self):
        with pytest.raises(DomainError):
            SortedSample(np.array([2.0, 1.0]))

    def test_exceedance_set_requires_positive(self):
        with pytest.raises(DomainError):
            ExceedanceSet(k=2, threshold=0.0, excesses=np.array([0.0, 1.0]), tau_i=0.5)

    def test_from_data_rejects_nan(self):
        with pytest.raises(DomainError):
            SortedSample.from_data([1.0, float("nan")])
