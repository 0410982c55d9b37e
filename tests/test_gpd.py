import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import kstest

from tailcast.errors import BeyondEndpointError, DomainError, InfiniteMeanError, UnboundedQuantileError
from tailcast.gpd import (
    GAMMA_ZERO_TOL,
    GpParams,
    LevelPair,
    Support,
    extrapolation_weight,
    gp_cdf,
    gp_pdf,
    gp_pdf_vec,
    gp_quantile,
    gp_sample,
    predictive_cdf,
    predictive_mean,
    predictive_pdf,
    predictive_quantile,
    predictive_shift_scale,
    threshold_shift,
)

MILAN_ML = GpParams(-0.34, 1.65)


class TestGpParams:
    def test_invalid_scale(self):
        with pytest.raises(DomainError):
            GpParams(0.1, 0.0)

    def test_invalid_shape(self):
        with pytest.raises(DomainError):
            GpParams(-0.5, 1.0)

    def test_upper_endpoint(self):
        assert GpParams(0.2, 1.0).upper == math.inf
        assert GpParams(-0.34, 1.65).upper == pytest.approx(1.65 / 0.34)

    def test_support_rule(self):
        assert not Support.for_params(GpParams(0.0, 1.0)).bounded
        assert Support.for_params(GpParams(-0.25, 2.0)).upper == pytest.approx(8.0)


class TestCdf:
    def test_unit_shape_median(self):
        assert gp_cdf(GpParams(1.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_exponential_median(self):
        assert gp_cdf(GpParams(0.0, 1.0), math.log(2.0)) == pytest.approx(0.5)

    def test_clamped_outside_support(self):
        assert gp_cdf(MILAN_ML, -1.0) == 0.0
        assert gp_cdf(MILAN_ML, 0.0) == 0.0
        # endpoint sigma/|gamma| ~ 4.853
        assert gp_cdf(MILAN_ML, 4.84) > 0.999999
        assert gp_cdf(MILAN_ML, 4.86) == 1.0
        assert gp_cdf(MILAN_ML, 100.0) == 1.0

    @pytest.mark.parametrize("gamma,sigma", [(-0.3, 1.0), (0.0, 1.0), (0.5, 2.0), (1.5, 0.5)])
    def test_roundtrip_with_quantile(self, gamma, sigma):
        p = GpParams(gamma, sigma)
        probs = np.arange(0.01, 1.0, 0.01)
        back = np.array([gp_cdf(p, gp_quantile(p, q)) for q in probs])
        assert np.max(np.abs(back - probs)) < 1e-10

    def test_gamma_zero_continuity(self):
        # the general branch at |gamma|=1e-7 must agree with the limit branch
        for gamma in (1e-7, -1e-7):
            p = GpParams(gamma, 1.3)
            p0 = GpParams(0.0, 1.3)
            xs = np.linspace(0.01, 10.0, 50)
            diff = np.abs([gp_cdf(p, x) - gp_cdf(p0, x) for x in xs])
            assert diff.max() < 1e-6


class TestPdf:
    def test_exponential_at_origin(self):
        assert gp_pdf(GpParams(0.0, 1.0), 0.0) == pytest.approx(1.0)

    def test_unit_shape(self):
        assert gp_pdf(GpParams(1.0, 1.0), 1.0) == pytest.approx(0.25)

    def test_zero_outside(self):
        assert gp_pdf(GpParams(0.5, 1.0), -0.5) == 0.0
        assert gp_pdf(GpParams(-0.4, 1.0), 2.6) == 0.0

    @pytest.mark.parametrize("gamma,sigma", [(-0.3, 1.0), (0.0, 1.0), (0.5, 2.0)])
    def test_normalization_by_quadrature(self, gamma, sigma):
        p = GpParams(gamma, sigma)
        if p.upper < math.inf:
            total, _ = quad(lambda x: gp_pdf(p, x), 0.0, p.upper)
        else:
            total, _ = quad(
                lambda t: gp_pdf(p, t / (1 - t)) / (1 - t) ** 2, 0.0, 1.0
            )
        assert total == pytest.approx(1.0, abs=1e-8)


def _masked_gp_pdf(gamma, sigma, x):
    """The masked form gp_pdf_vec had: each branch on its own elements only."""
    gamma, sigma, x = (np.array(a) for a in np.broadcast_arrays(
        np.asarray(gamma, dtype=float), np.asarray(sigma, dtype=float),
        np.asarray(x, dtype=float)))
    out = np.zeros(gamma.shape)
    inside = x >= 0.0
    zero = (np.abs(gamma) < GAMMA_ZERO_TOL) & inside
    gen = (np.abs(gamma) >= GAMMA_ZERO_TOL) & inside
    out[zero] = np.exp(-x[zero] / sigma[zero]) / sigma[zero]
    g, s, xx = gamma[gen], sigma[gen], x[gen]
    base = 1.0 + g * xx / s
    vals = np.zeros_like(base)
    ok = base > 0.0
    vals[ok] = np.exp(-(1.0 / g[ok] + 1.0) * np.log(base[ok])) / s[ok]
    out[gen] = vals
    return out


_pdf_shapes = st.one_of(
    st.floats(-1.5, 2.0), st.sampled_from([0.0, 1e-9, -1e-9, GAMMA_ZERO_TOL, -0.5])
)
_pdf_points = st.one_of(
    st.floats(-5.0, 50.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan]),
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(_pdf_shapes, st.floats(0.01, 100.0)), min_size=1, max_size=6),
    st.lists(_pdf_points, min_size=1, max_size=6),
)
def test_pdf_vec_equals_masked_form_exactly(params, points):
    """Whole-array evaluation gives the masked form's values bit for bit."""
    gamma, sigma = (np.array(v) for v in zip(*params))
    x = np.array(points)[:, None]  # a (points x parameters) block, as in a mixture
    with np.errstate(all="ignore"):
        expected = _masked_gp_pdf(gamma, sigma, x)
    assert np.array_equal(gp_pdf_vec(gamma, sigma, x), expected)
    for g, s in params:
        for v in points:
            with np.errstate(all="ignore"):
                assert np.array_equal(gp_pdf_vec(g, s, v), _masked_gp_pdf(g, s, v))


class TestQuantile:
    def test_closed_form_against_root_find(self):
        p = GpParams(0.5, 2.0)
        q = gp_quantile(p, 0.75)
        assert q == pytest.approx(4.0)
        root = brentq(lambda x: gp_cdf(p, x) - 0.75, 1e-12, 100.0, xtol=1e-13)
        assert q == pytest.approx(root, abs=1e-9)

    def test_zero_probability(self):
        assert gp_quantile(GpParams(0.0, 1.0), 0.0) == 0.0

    def test_endpoint_at_probability_one(self):
        assert gp_quantile(MILAN_ML, 1.0) == pytest.approx(1.65 / 0.34)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedQuantileError):
            gp_quantile(GpParams(0.1, 1.0), 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            gp_quantile(GpParams(0.1, 1.0), 1.5)


class TestThresholdShift:
    def test_scale_update(self):
        out = threshold_shift(GpParams(0.5, 1.0), 2.0)
        assert (out.gamma, out.sigma) == (0.5, 2.0)

    def test_memoryless(self):
        out = threshold_shift(GpParams(0.0, 3.0), 10.0)
        assert (out.gamma, out.sigma) == (0.0, 3.0)

    def test_beyond_endpoint(self):
        with pytest.raises(BeyondEndpointError):
            threshold_shift(MILAN_ML, 4.9)

    def test_semigroup_exact(self):
        # dyadic inputs make float arithmetic exact
        p = GpParams(0.5, 1.0)
        a = threshold_shift(threshold_shift(p, 2.0), 4.0)
        b = threshold_shift(p, 6.0)
        assert a == b
        p2 = GpParams(-0.25, 4.0)
        a2 = threshold_shift(threshold_shift(p2, 1.0), 0.5)
        b2 = threshold_shift(p2, 1.5)
        assert a2 == b2

    def test_stability_as_law_identity(self):
        # excesses of a truncated GP sample follow the shifted law (KS check)
        p = GpParams(0.3, 1.0)
        u = 2.0
        rng = np.random.default_rng(99)
        draws = gp_sample(p, 400_000, rng)
        excess = draws[draws > u] - u
        assert excess.size > 50_000
        shifted = threshold_shift(p, u)
        res = kstest(excess, lambda x: np.asarray([gp_cdf(shifted, v) for v in x]))
        assert res.pvalue > 0.01


class TestPredictiveTransform:
    def test_reduction_at_unit_ratio_is_exact(self):
        p = GpParams(0.4, 1.2)
        levels = LevelPair.intermediate(0.95)
        t = 10.0
        for y in np.linspace(8.0, 30.0, 40):
            assert predictive_cdf(p, t, levels, y) == gp_cdf(p, y - t)
            assert predictive_pdf(p, t, levels, y) == gp_pdf(p, y - t)

    def test_monte_carlo_oracle(self):
        # affine representation: Y = t + m + s*U reproduces the analytic cdf
        p = GpParams(-0.2, 1.5)
        levels = LevelPair.from_tau_star(0.95, 0.2)
        t = 5.0
        m, s = predictive_shift_scale(p, levels)
        rng = np.random.default_rng(512)
        y = t + m + s * gp_sample(p, 1_000_000, rng)
        grid = np.quantile(y, np.linspace(0.001, 0.999, 200))
        emp = np.searchsorted(np.sort(y), grid, side="right") / y.size
        ana = np.array([predictive_cdf(p, t, levels, g) for g in grid])
        assert np.max(np.abs(emp - ana)) < 3e-3

    def test_milan_extreme_threshold_point(self):
        # published intermediate fit pushed to the deeper threshold
        levels = LevelPair.from_tau_star(0.9462, 0.1302)
        q0 = predictive_quantile(MILAN_ML, 34.0, levels, 0.0)
        assert q0 == pytest.approx(36.43, abs=0.05)
        assert q0 == pytest.approx(36.4, abs=0.1)

    def test_gpwm_extreme_threshold_point(self):
        levels = LevelPair.from_levels(0.946, 0.99503)
        assert levels.tau_star == pytest.approx(0.0920, abs=2e-4)
        q0 = predictive_quantile(GpParams(-0.29, 1.59), 34.0, levels, 0.0)
        assert q0 == pytest.approx(36.7, abs=0.1)

    def test_quantile_at_zero_with_unit_ratio(self):
        levels = LevelPair.intermediate(0.9)
        assert predictive_quantile(GpParams(0.3, 1.0), 7.0, levels, 0.0) == 7.0

    def test_quantile_roundtrip(self):
        p = GpParams(0.25, 2.0)
        levels = LevelPair.from_tau_star(0.9, 0.3)
        for prob in (0.05, 0.5, 0.95):
            y = predictive_quantile(p, 3.0, levels, prob)
            assert predictive_cdf(p, 3.0, levels, y) == pytest.approx(prob, abs=1e-10)

    @pytest.mark.parametrize(
        "gamma,sigma,tau_star", [(0.5, 1.0, 0.25), (-0.3, 2.0, 0.1), (0.0, 1.0, 0.5)]
    )
    def test_pdf_normalization(self, gamma, sigma, tau_star):
        p = GpParams(gamma, sigma)
        levels = LevelPair.from_tau_star(0.9, tau_star)
        t = 4.0
        m, s = predictive_shift_scale(p, levels)
        lo = t + m
        if p.upper < math.inf:
            total, _ = quad(
                lambda y: predictive_pdf(p, t, levels, y), lo, lo + s * p.upper
            )
        else:
            total, _ = quad(
                lambda u: predictive_pdf(p, t, levels, lo + u / (1 - u))
                / (1 - u) ** 2,
                0.0,
                1.0,
            )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_matches_finite_differenced_cdf(self):
        p = GpParams(0.3, 1.4)
        levels = LevelPair.from_tau_star(0.92, 0.3)
        t = 6.0
        h = 1e-5
        lo = t + predictive_shift_scale(p, levels)[0]
        for y in np.linspace(lo + 0.2, lo + 12.0, 20):
            fd = (
                predictive_cdf(p, t, levels, y + h)
                - predictive_cdf(p, t, levels, y - h)
            ) / (2 * h)
            assert fd == pytest.approx(predictive_pdf(p, t, levels, y), abs=1e-6)


class TestPredictiveMean:
    def test_exponential_unit(self):
        levels = LevelPair.intermediate(0.5)
        assert predictive_mean(GpParams(0.0, 1.0), 0.0, levels) == pytest.approx(1.0)

    def test_milan_intermediate(self):
        levels = LevelPair.intermediate(0.9462)
        assert predictive_mean(MILAN_ML, 34.0, levels) == pytest.approx(35.23, abs=0.01)

    def test_quadrature_cross_check(self):
        p = GpParams(0.5, 2.0)
        levels = LevelPair.from_tau_star(0.9, 0.25)
        t = 10.0
        m, s = predictive_shift_scale(p, levels)
        lo = t + m
        val, _ = quad(
            lambda u: (lo + u / (1 - u))
            * predictive_pdf(p, t, levels, lo + u / (1 - u))
            / (1 - u) ** 2,
            0.0,
            1.0,
        )
        closed = predictive_mean(p, t, levels)
        assert closed == pytest.approx(val, rel=1e-8)

    def test_infinite_mean(self):
        with pytest.raises(InfiniteMeanError):
            predictive_mean(GpParams(1.0, 1.0), 0.0, LevelPair.intermediate(0.9))


class TestLevelPair:
    def test_ratio_consistency_enforced(self):
        with pytest.raises(DomainError):
            LevelPair(0.9, 0.99, 0.5)

    def test_from_tau_star(self):
        lv = LevelPair.from_tau_star(0.9, 0.25)
        assert lv.tau_e == pytest.approx(0.975)
        assert lv.tau_star == 0.25

    def test_ordering(self):
        with pytest.raises(DomainError):
            LevelPair.from_levels(0.99, 0.9)


class TestExtrapolationWeight:
    def test_heavy(self):
        assert extrapolation_weight(0.5, math.e) == pytest.approx(1.0)

    def test_light(self):
        assert extrapolation_weight(0.0, math.e**2) == pytest.approx(4.0)

    def test_short(self):
        assert extrapolation_weight(-0.5, 4.0) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            extrapolation_weight(0.5, 0.0)
