import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailcast.bayes import PosteriorSample
from tailcast.density import hellinger, integrate_density
from tailcast.errors import NumericError
from tailcast.gpd import GpParams, LevelPair, Support, gp_pdf
from tailcast.predict import BayesianPredictive
from tailcast.simlab import HELLINGER_ABS_TOL


def test_identical_densities_distance_zero():
    p = GpParams(0.3, 1.0)
    d = hellinger(lambda x: gp_pdf(p, x), lambda x: gp_pdf(p, x), Support(0.0, math.inf))
    assert d == pytest.approx(0.0, abs=1e-7)


def test_exponential_pair_closed_form():
    # squared distance between exponentials: 1 - 2*sqrt(s1*s2)/(s1+s2)
    f = lambda x: np.where(x > 0, np.exp(-x), 0.0)
    g = lambda x: np.where(x > 0, np.exp(-x / 4.0) / 4.0, 0.0)
    d = hellinger(f, g, Support(0.0, math.inf))
    assert d == pytest.approx(math.sqrt(1.0 - 2.0 * 2.0 / 5.0), abs=1e-6)
    assert d == pytest.approx(0.44721, abs=1e-5)


def test_symmetry():
    f = lambda x: gp_pdf(GpParams(0.2, 1.0), x)
    g = lambda x: gp_pdf(GpParams(-0.2, 1.5), x)
    s = Support(0.0, math.inf)
    assert hellinger(f, g, s) == pytest.approx(hellinger(g, f, s), abs=1e-10)


def test_scale_continuity():
    f = lambda x: gp_pdf(GpParams(0.5, 1.0), x)
    g = lambda x: gp_pdf(GpParams(0.5, 1.0001), x)
    assert hellinger(f, g, Support(0.0, math.inf)) < 1e-3


def test_bounded_support_case():
    pa = GpParams(-0.4, 1.0)
    pb = GpParams(-0.3, 1.0)
    s = Support(0.0, max(pa.upper, pb.upper))
    d = hellinger(lambda x: gp_pdf(pa, x), lambda x: gp_pdf(pb, x), s)
    assert 0.0 < d < 1.0


def test_in_unit_interval():
    f = lambda x: gp_pdf(GpParams(0.0, 1.0), x)
    g = lambda x: gp_pdf(GpParams(1.4, 50.0), x)
    d = hellinger(f, g, Support(0.0, math.inf))
    assert 0.0 <= d <= 1.0


def test_integrate_density_normalization():
    p = GpParams(-0.25, 2.0)
    total = integrate_density(lambda x: gp_pdf(p, x), Support(0.0, p.upper))
    assert total == pytest.approx(1.0, abs=1e-8)


# -- an independent reference: Gauss-Legendre on graded panels -----------------
_GL_X, _GL_W = np.polynomial.legendre.leggauss(30)
_GRADE = 0.5 ** np.arange(1, 41)


def _gp_density(gamma, sigma, x):
    """GP density from its definition, 0 outside the support.

    ``gamma`` may be an array of nonzero shapes broadcasting against ``x``.
    """
    x = np.asarray(x, dtype=float)
    w = 1.0 + gamma * x / sigma
    inside = (x >= 0.0) & (w > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.ndim(gamma) == 0 and gamma == 0.0:
            val = np.exp(-x / sigma) / sigma
        else:
            val = np.exp(-(1.0 / gamma + 1.0) * np.log1p(gamma * x / sigma)) / sigma
    return np.where(inside, val, 0.0)


def _panel_sum(fun, edges):
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    x = (a + half)[:, None] + half[:, None] * _GL_X
    return float(np.sum((fun(x.ravel()).reshape(x.shape) @ _GL_W) * half))


def _reference_integral(fun, breaks, scale, grade=True):
    """Integral over [breaks[0], inf) of ``fun``, smooth between ``breaks``.

    With ``grade``, each finite segment is cut geometrically toward both of
    its ends, where a GP endpoint puts an algebraic singularity.  The
    half-line past the last break is cut at ``last + scale * 2^j`` up to
    2^70.  Returns the 30-point Gauss-Legendre sum on every panel's halves
    and its gap from the sum on the whole panels, the reference's own error.
    """
    parts = [breaks, breaks[-1] + scale * 2.0 ** np.arange(-40, 71)]
    if grade:
        for a, b in zip(breaks[:-1], breaks[1:]):
            parts += [a + (b - a) * _GRADE, b - (b - a) * _GRADE]
    edges = np.unique(np.concatenate(parts))
    halves = np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    fine = _panel_sum(fun, halves)
    return fine, abs(fine - _panel_sum(fun, edges))


def _reference_two_h2(pa: GpParams, pb: GpParams) -> tuple[float, float]:
    ends = [p.upper for p in (pa, pb) if math.isfinite(p.upper)]

    def integrand(x):
        d = np.sqrt(_gp_density(pa.gamma, pa.sigma, x)) - np.sqrt(
            _gp_density(pb.gamma, pb.sigma, x)
        )
        return d * d

    return _reference_integral(integrand, np.unique([0.0, *ends]), min(pa.sigma, pb.sigma))


# shapes within 1e-6 of 0 become exactly 0, the exponential law
_shapes = st.floats(-0.45, 0.99).map(lambda g: 0.0 if abs(g) < 1e-6 else g)
_scales = st.floats(0.5, 2.0)


def _pdf(p):
    return lambda x: gp_pdf(p, x)


@settings(deadline=None, max_examples=60)
@given(_shapes, _scales, _shapes, _scales, st.sampled_from([1e-6, 1e-8]))
def test_hellinger_half_line_matches_reference(ga, sa, gb, sb, tol):
    pa, pb = GpParams(ga, sa), GpParams(gb, sb)
    s = Support(0.0, math.inf)
    ends = (pa.upper, pb.upper)  # a finite endpoint is a kink of the integrand
    d = hellinger(_pdf(pa), _pdf(pb), s, abs_tol=tol, breakpoints=ends)
    ref, ref_err = _reference_two_h2(pa, pb)
    assert ref_err < 0.1 * tol
    assert abs(2.0 * d * d - ref) <= tol
    assert 0.0 <= d <= 1.0
    assert hellinger(_pdf(pb), _pdf(pa), s, abs_tol=tol, breakpoints=ends) == d


@settings(deadline=None, max_examples=60)
@given(st.floats(-0.45, -0.01), _scales, st.floats(-0.45, -0.01), _scales)
def test_hellinger_bounded_support_matches_reference(ga, sa, gb, sb):
    pa, pb = GpParams(ga, sa), GpParams(gb, sb)
    lo, hi = sorted((pa.upper, pb.upper))
    s = Support(0.0, hi)
    d = hellinger(_pdf(pa), _pdf(pb), s, breakpoints=(lo,))
    ref, ref_err = _reference_two_h2(pa, pb)
    assert ref_err < 1e-9
    assert abs(2.0 * d * d - ref) <= 1e-8
    assert 0.0 <= d <= 1.0
    assert hellinger(_pdf(pb), _pdf(pa), s, breakpoints=(lo,)) == d


@settings(deadline=None, max_examples=40)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_hellinger_exponential_pairs_closed_form(s1, s2):
    f = lambda x: np.where(x > 0, np.exp(-x / s1) / s1, 0.0)
    g = lambda x: np.where(x > 0, np.exp(-x / s2) / s2, 0.0)
    d = hellinger(f, g, Support(0.0, math.inf))
    assert abs(2.0 * d * d - 2.0 * (1.0 - 2.0 * math.sqrt(s1 * s2) / (s1 + s2))) <= 1e-8


@settings(deadline=None, max_examples=60)
@given(_shapes, _scales)
def test_integrate_density_matches_reference(gamma, sigma):
    p = GpParams(gamma, sigma)
    # a bounded support thousands of scales wide would hide the mass from
    # every first-round node (quad missed it too), so near-zero negative
    # shapes run on the half-line with their endpoint as a breakpoint
    s = Support(0.0, p.upper) if gamma <= -1e-3 else Support(0.0, math.inf)
    total = integrate_density(_pdf(p), s, breakpoints=(p.upper,))
    breaks = np.unique([0.0, *([p.upper] if math.isfinite(p.upper) else [])])
    ref, ref_err = _reference_integral(lambda x: _gp_density(gamma, sigma, x), breaks, sigma)
    assert ref_err < 1e-9
    assert abs(total - ref) <= 1e-8
    assert abs(ref - 1.0) <= 1e-9


def test_integrate_density_on_a_wide_bounded_support():
    # GP(-1e-5, 1) lives on [0, 1e5], its mass within a few units of 0: only
    # the first round's panels graded toward 0 put nodes there (the 16 equal
    # panels alone gave 1.81e-10)
    total = integrate_density(_pdf(GpParams(-1e-5, 1.0)), Support(0.0, 1e5))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_unresolvable_integrand_raises():
    # 160,000 periods on [0, 1]: the panel budget runs out before the
    # error estimate falls below the tolerance
    with pytest.raises(NumericError, match="did not converge"):
        integrate_density(lambda x: 1.0 + np.sin(1e6 * x), Support(0.0, 1.0))


def test_non_finite_integrand_raises():
    with pytest.raises(NumericError, match="not finite"):
        integrate_density(lambda x: np.full_like(x, np.nan), Support(0.0, math.inf))


# -- a posterior mixture against an onset-breakpoint reference ------------------
def test_mixture_within_contraction_tolerance():
    """The Bayes arm's call on a 300-draw mixture, against a reference.

    The mixture density jumps at every draw's onset; the reference breaks
    its panels at each onset, so every panel holds a smooth integrand.
    """
    rng = np.random.default_rng(3)
    m = 300
    gammas = rng.normal(0.25, 0.08, m)
    sigmas = 2.5 * np.exp(rng.normal(0.0, 0.1, m))
    threshold, tau_star = 4.0, 0.25
    ps = PosteriorSample(gammas, sigmas, 0.3, 0, 1, 0, (m, m), threshold, (-0.5, math.inf))
    model = BayesianPredictive(ps, threshold, LevelPair(0.9, 0.975, tau_star))
    true_onset, true_gamma, true_sigma = 6.0, 0.25, 2.5

    def true_pdf(y):
        return _gp_density(true_gamma, true_sigma, y - true_onset)

    tol = HELLINGER_ABS_TOL["bayes"]
    d = hellinger(true_pdf, model.pdf, Support(min(model.support_lower(), true_onset), math.inf),
                  abs_tol=tol, breakpoints=(true_onset, model.support_lower()))

    # the mixture from its definition: draw j is onset_j + scale_j * GP(gamma_j, sigma_j)
    # with scale_j = r^-gamma_j and onset_j = t + sigma_j (scale_j - 1) / gamma_j
    assert np.all(gammas > 0.0)
    scale = tau_star ** -gammas
    onsets = threshold + sigmas * (scale - 1.0) / gammas

    def integrand(y):
        z = (y[:, None] - onsets) / scale
        mix = np.mean(_gp_density(gammas, sigmas, z) / scale, axis=1)
        diff = np.sqrt(true_pdf(y)) - np.sqrt(mix)
        return diff * diff

    breaks = np.unique(np.concatenate([onsets, [true_onset]]))
    ref, ref_err = _reference_integral(integrand, breaks, true_sigma, grade=False)
    assert ref_err < 0.1 * tol
    assert abs(2.0 * d * d - ref) <= tol
