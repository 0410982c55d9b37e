"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured numbers so the run
log doubles as a report.  Everything is seeded; reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_excesses
from tailcast.bayes import LogUniformScale, PriorSpec, SamplerConfig, UniformWindowShape
from tailcast.density import hellinger
from tailcast.estimation import (
    GpFit,
    exceedances_from_excesses,
    fit_ml,
    fit_pwm,
)
from tailcast.gpd import (
    GpParams,
    LevelPair,
    Support,
    gp_cdf,
    gp_pdf,
    gp_quantile,
    shift_scale,
    threshold_shift,
)
from tailcast.predict import FrequentistPredictive, extreme_level_from_c, freq_predictive
from tailcast.risk import extreme_var, var_from_predictive
from tailcast.simlab import (
    ExactGP,
    ExperimentConfig,
    Generator,
    KRule,
    LevelRule,
    Pareto,
    TsCoverageConfig,
    contraction_experiment,
    coverage_experiment,
    risk_error_experiment,
    tail_equivalence_experiment,
    ts_coverage_experiment,
)

pytestmark = pytest.mark.acceptance


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_published_fit_arithmetic():
    """Extreme levels, thresholds, and endpoints from the published fits."""
    t0 = time.time()
    fits = {
        "ml": (GpParams(-0.34, 1.65), [0.99293, 0.99784, 0.99907], [36.4, 37.2, 37.6], 38.84),
        "pwm": (GpParams(-0.29, 1.59), [0.99503, 0.99877, 0.99954], [36.7, 37.6, 38.1], 39.46),
    }
    tau_i = 1.0 - 169 / 3140
    checks = []
    e = exceedances_from_excesses([0.5, 1.0], threshold=34.0, tau_i=tau_i)
    for name, (params, tau_es, thresholds, endpoint) in fits.items():
        fit = GpFit(params, name, 169, 34.0, True)
        for c, tau_e_ref, q_ref in zip((2.0, 3.0, 4.0), tau_es, thresholds):
            levels = extreme_level_from_c(params.gamma, tau_i, c)
            # tolerance 1e-3 on the probability scale (published values are percents)
            checks.append(abs(levels.tau_e - tau_e_ref) < 1e-3)
            q_hat = extreme_var(fit, e, levels.tau_e)
            checks.append(abs(q_hat - q_ref) < 0.1)
        est_endpoint = 34.0 - params.sigma / params.gamma
        checks.append(abs(est_endpoint - endpoint) < 0.05)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 1.0
    assert report(
        1, ok,
        f"{sum(checks)}/{len(checks)} published-value checks passed "
        f"in {elapsed:.2f}s (< 1s required)",
    )


def test_criterion_2_estimator_consistency_and_rate():
    """Recovery at n=1e5 over 20 seeds, and the root-k error rate."""
    t0 = time.time()
    worst = {"ml": [0.0, 0.0], "pwm": [0.0, 0.0]}
    for gamma in (-0.25, 0.0, 0.5):
        for rep in range(20):
            e = exceedances_from_excesses(
                make_excesses(gamma, 1.0, 100_000, seed=50_000 + 997 * rep + round(100 * gamma))
            )
            for name, fitter in (("ml", fit_ml), ("pwm", fit_pwm)):
                fit = fitter(e)
                worst[name][0] = max(worst[name][0], abs(fit.params.gamma - gamma))
                worst[name][1] = max(worst[name][1], abs(fit.params.sigma - 1.0))
    consistency_ok = all(w[0] < 0.02 and w[1] < 0.04 for w in worst.values())

    errs = {500: [], 2000: []}
    for k, store in errs.items():
        for rep in range(200):
            e = exceedances_from_excesses(
                make_excesses(0.25, 1.0, k, seed=60_000 + 31 * rep + k)
            )
            store.append(fit_ml(e).params.gamma - 0.25)
    ratio = float(
        np.sqrt(np.mean(np.square(errs[500]))) / np.sqrt(np.mean(np.square(errs[2000])))
    )
    rate_ok = 1.6 < ratio < 2.4
    elapsed = time.time() - t0
    ok = consistency_ok and rate_ok and elapsed < 60.0
    assert report(
        2, ok,
        f"max |gamma err| ml={worst['ml'][0]:.4f} pwm={worst['pwm'][0]:.4f}, "
        f"max |sigma err| ml={worst['ml'][1]:.4f} pwm={worst['pwm'][1]:.4f} "
        f"(tol 0.02/0.04); RMSE ratio k=500 vs 2000: {ratio:.2f} in [1.6, 2.4]; "
        f"{elapsed:.0f}s (< 60s)",
    )


def first_order_coverage(
    gamma, n, k, tau_star, alpha, parameter_noise=True, threshold_noise=True,
    draws=250_000,
):
    """Coverage of the plug-in interval that first-order noise alone allows.

    Data GP(``gamma``, 1), fitted above the empirical threshold of the top
    ``k`` of ``n``, interval at tail ratio ``tau_star`` and level
    ``1 - alpha``.  Given that threshold the excesses are GP(gamma,
    sigma_t); (gamma_hat, sigma_hat/sigma_t) is normal with the GP inverse
    Fisher information (1+gamma)[[1+gamma, -1], [-1, 2]]/k, and the
    threshold's tail mass is Beta(k+1, n-k) while the fit assumes k/n.  The
    coverage is E[F_c(q_hi) - F_c(q_lo)], F_c the true law above the true
    extreme quantile, over ``draws`` draws of that noise.  A posterior over
    (gamma, sigma) covers the parameter noise, so the Bayes arm's figure is
    the threshold noise alone.  Written without package code, so it checks
    what the gate can expect, not the program.
    """
    rng = np.random.default_rng(0)

    def gp_q(g, s, p):
        return s * np.expm1(-g * np.log1p(-p)) / g

    tail = k / n
    mass = rng.beta(k + 1, n - k, draws) if threshold_noise else np.full(draws, tail)
    t_hat = gp_q(gamma, 1.0, 1.0 - mass)
    sigma_t = 1.0 + gamma * t_hat
    dg = ds = np.zeros(draws)
    if parameter_noise:
        cov = (1 + gamma) * np.array([[1 + gamma, -1.0], [-1.0, 2.0]]) / k
        dg, ds = rng.multivariate_normal([0.0, 0.0], cov, draws).T
    g_hat, s_hat = gamma + dg, sigma_t * (1.0 + ds)
    # the fitted law above its extreme threshold, and the true one
    t_e_hat = t_hat + gp_q(g_hat, s_hat, 1.0 - tau_star)
    s_e_hat = s_hat * tau_star**-g_hat
    t_e = gp_q(gamma, 1.0, 1.0 - tau_star * tail)
    s_e = 1.0 + gamma * t_e

    def true_cdf(y):
        return -np.expm1(-np.log1p(gamma * np.maximum(y - t_e, 0.0) / s_e) / gamma)

    lo = t_e_hat + gp_q(g_hat, s_e_hat, alpha / 2)
    hi = t_e_hat + gp_q(g_hat, s_e_hat, 1 - alpha / 2)
    return float(np.mean(true_cdf(hi) - true_cdf(lo)))


def test_criterion_3_conditional_coverage():
    """Conditional coverage of 95% predictive intervals at desk scale."""
    t0 = time.time()
    cfg = ExperimentConfig(
        generator=Generator(ExactGP(0.25, 1.0), seed=0),
        n=10_000,
        k_rule=KRule(kind="fixed", k=500),
        level_rule=LevelRule("tau-star", 0.25),
        alpha=0.05,
        replications=500,
        methods=("oracle", "ml", "bayes"),
        seed=2_024,
        sampler=SamplerConfig(burn_in=1_000, draws=2_500),
    )
    res = coverage_experiment(cfg)
    oracle = res.stats["oracle"]
    ml = res.stats["ml"]
    bayes = res.stats["bayes"]
    oracle_ok = abs(oracle.coverage - 0.95) <= 2.0 * oracle.se
    ml_ok = 0.93 <= ml.coverage <= 0.97
    bayes_ok = 0.92 <= bayes.coverage <= 0.97
    first_order = {
        arm: first_order_coverage(
            0.25, cfg.n, cfg.k_rule.k, cfg.level_rule.value, cfg.alpha, parameter_noise=pn
        )
        for arm, pn in (("ml", True), ("bayes", False))
    }
    elapsed = time.time() - t0
    ok = oracle_ok and ml_ok and bayes_ok and elapsed < 1_200.0
    assert report(
        3, ok,
        f"coverage oracle={oracle.coverage:.3f} (+-{2 * oracle.se:.3f} of 0.95), "
        f"ml={ml.coverage:.3f} (first-order {first_order['ml']:.3f}) in [0.93, 0.97], "
        f"bayes={bayes.coverage:.3f} (first-order {first_order['bayes']:.3f}) in "
        f"[0.92, 0.97]; failures ml={ml.failures} bayes={bayes.failures}; "
        f"{elapsed:.0f}s (< 1200s)",
    )


def test_criterion_4_hellinger_contraction():
    """Median predictive-density error strictly decreasing along the n-ladder."""
    t0 = time.time()
    ladder = (2_000, 4_000, 8_000, 16_000, 32_000)
    results = {}
    for method, reps in (("ml", 300), ("bayes", 150)):
        cfg = ExperimentConfig(
            generator=Generator(ExactGP(0.25, 1.0), seed=0),
            n=ladder[0],
            k_rule=KRule(kind="power", coef=4.0, delta=0.5),
            level_rule=LevelRule("tau-star", 0.25),
            replications=reps,
            methods=(method,),
            seed=7_071,
            sampler=SamplerConfig(burn_in=900, draws=2_000),
            n_ladder=ladder,
        )
        rows = contraction_experiment(cfg)
        medians = [r["median_hellinger"] for r in rows]
        decreases = sum(b < a for a, b in zip(medians, medians[1:]))
        results[method] = (medians, decreases)
    elapsed = time.time() - t0
    ok = all(dec >= 4 for _, dec in results.values()) and elapsed < 1_800.0
    detail = "; ".join(
        f"{m}: medians={[round(v, 4) for v in meds]} decreases={dec}/4 (need >= 4)"
        for m, (meds, dec) in results.items()
    )
    assert report(4, ok, f"{detail}; {elapsed:.0f}s (< 1800s)")


def test_criterion_5_tail_equivalence():
    """Tail-equivalence ratio centered at 1 with a band that tightens in n."""
    t0 = time.time()
    outcomes = {}
    for method in ("ml", "bayes"):
        cfg = ExperimentConfig(
            generator=Generator(Pareto(2.0), seed=0),
            n=100_000,
            k_rule=KRule(kind="power", delta=0.6),  # k = n^0.6 = 1000 at n = 1e5
            level_rule=LevelRule("tau-star", 0.1),
            replications=200,
            methods=(method,),
            seed=515,
            sampler=SamplerConfig(burn_in=900, draws=2_000),
            n_ladder=(100_000, 200_000),
        )
        rows = tail_equivalence_experiment(cfg)
        med = rows[0]["median_ratio"]
        shrink = rows[1]["band_width"] < rows[0]["band_width"]
        outcomes[method] = (med, rows[0]["band_width"], rows[1]["band_width"], shrink)
    elapsed = time.time() - t0
    ok = (
        all(0.9 <= med <= 1.1 and shrink for med, _, _, shrink in outcomes.values())
        and elapsed < 600.0
    )
    detail = "; ".join(
        f"{m}: median={med:.3f} in [0.9, 1.1], band {b1:.3f} -> {b2:.3f} (shrinks)"
        for m, (med, b1, b2, shrink) in outcomes.items()
    )
    assert report(5, ok, f"{detail}; {elapsed:.0f}s (< 600s)")


def attainable_es_rate(gamma, tau_star, k, tol):
    """Best rate at which an ES forecast from the top ``k`` lands within ``tol``.

    For Pareto data with shape ``gamma`` the predictive-law forecast of
    expected shortfall at tail ratio ``tau_star`` is the threshold ``u``
    times ``1 + s (t - 1)/gamma + s t/(1 - gamma)``, ``t = tau_star^-gamma``,
    ``s = sigma/u = gamma``.  Its relative error is asymptotically
    N(0, v/k) by the delta method, with ``v`` made of the GP inverse Fisher
    information (1+gamma)[[1+gamma, -1], [-1, 2]] for (gamma, sigma/sigma_u)
    and the threshold noise gamma^2 of the order statistic ``u``
    (de Haan & Ferreira 2006, ch. 3-4).  Written without package code, so
    it checks the gate's settings, not the program.
    """
    t = tau_star**-gamma
    log_ratio = -math.log(tau_star)
    d_gamma = (
        (1 - gamma) * (gamma * t * log_ratio - t + 1) / (gamma * t)
        + gamma * log_ratio
        + gamma / (1 - gamma)
    )
    d_scale = 1 - (1 - gamma) / t
    v = gamma**2 + (1 + gamma) * (
        (1 + gamma) * d_gamma**2 - 2 * d_gamma * d_scale + 2 * d_scale**2
    )
    return math.erf(tol / math.sqrt(2 * v / k))


def test_criterion_6_risk_forecast_accuracy():
    """Tail quantile/shortfall point-forecast accuracy plus the exact identity.

    The sample size sets how far the 90% ES gate is from the best any
    forecaster can do: at n = 4e5 (k = 2297) an efficient one lands within
    15% in 96.8% of replications, at n = 1e5 (k = 999) in only 84%.
    """
    t0 = time.time()
    # deterministic identity: the predictive-quantile route equals the
    # extrapolation formula on a parameter grid
    identity_worst = 0.0
    e = exceedances_from_excesses([1.0, 2.0], threshold=10.0, tau_i=0.9)
    for gamma in (-0.4, -0.1, 0.0, 0.3, 0.9, 1.5):
        for sigma in (0.5, 1.0, 2.0):
            for tau_star in (0.01, 0.05, 0.25, 0.5, 1.0):
                fit = GpFit(GpParams(gamma, sigma), "ml", 50, 10.0, True)
                model = freq_predictive(fit, LevelPair.intermediate(0.9))
                gap = abs(
                    var_from_predictive(model, tau_star)
                    - extreme_var(fit, e, 1.0 - tau_star * 0.1)
                )
                identity_worst = max(identity_worst, gap)
    identity_ok = identity_worst < 1e-10

    es_prior = PriorSpec(UniformWindowShape(-0.49, 0.99), LogUniformScale())
    family, tau_star, replications = Pareto(2.0), 0.1, 200
    outcomes = {}
    for method, prior in (("ml", None), ("bayes", es_prior)):
        cfg = ExperimentConfig(
            generator=Generator(family, seed=0),
            n=400_000,
            k_rule=KRule(kind="power", delta=0.6),
            level_rule=LevelRule("tau-star", tau_star),
            replications=replications,
            methods=(method,),
            seed=606,
            sampler=SamplerConfig(burn_in=900, draws=2_000),
            prior=prior,
        )
        row = risk_error_experiment(cfg)[0]
        outcomes[method] = row
    elapsed = time.time() - t0
    # the gate must be attainable: an efficient forecaster clears 90% easily
    attainable = attainable_es_rate(
        family.true_gamma, tau_star, outcomes["ml"]["k"], cfg.rel_err_tol
    )
    complete = all(
        row["failures"] == 0 and row["replications"] == replications
        for row in outcomes.values()
    )
    var_ok = all(row["var_within_tol"] >= 0.9 for row in outcomes.values())
    es_ok = all(row["es_within_tol"] >= 0.9 for row in outcomes.values())
    ok = (
        identity_ok and attainable >= 0.95 and complete and var_ok and es_ok
        and elapsed < 600.0
    )
    detail = "; ".join(
        f"{m}: {row['replications']}/{replications} reps, VaR<15% in "
        f"{row['var_within_tol']:.1%}, ES<15% in {row['es_within_tol']:.1%} "
        f"(attainable {attainable:.1%}, need >= 90%)"
        for m, row in outcomes.items()
    )
    assert report(
        6, ok,
        f"identity gap {identity_worst:.2e} (< 1e-10); {detail}; "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_time_series_coverage():
    """One-step-ahead conditional interval violations near the nominal rate."""
    t0 = time.time()
    cfg = TsCoverageConfig(
        phi=0.6,
        innovations=Pareto(2.0),
        window=3_000,
        origins=500,
        k=500,
        tau_star=0.25,
        alpha=0.05,
        methods=("ml", "bayes"),
        seed=717,
        sampler=SamplerConfig(burn_in=800, draws=1_800),
    )
    rows = ts_coverage_experiment(cfg)
    rates = {r["method"]: r["violation_rate"] for r in rows}
    elapsed = time.time() - t0
    ok = all(0.02 <= rate <= 0.08 for rate in rates.values()) and elapsed < 900.0
    detail = ", ".join(f"{m}: {rate:.1%}" for m, rate in rates.items())
    assert report(
        7, ok, f"violation rates {detail} (need within [2%, 8%]); {elapsed:.0f}s (< 900s)"
    )


def test_criterion_8_numerical_property_suite():
    """Closed-form identities and numeric tolerances of the distribution layer."""
    t0 = time.time()
    checks = []

    # cdf/quantile round-trips at 1e-10
    probs = np.arange(0.01, 1.0, 0.01)
    for gamma, sigma in ((-0.3, 1.0), (0.0, 1.0), (0.5, 2.0), (1.2, 0.7)):
        p = GpParams(gamma, sigma)
        worst = max(abs(gp_cdf(p, gp_quantile(p, q)) - q) for q in probs)
        checks.append(worst < 1e-10)

    # density normalization at 1e-8 over a (gamma, tau_star) grid
    from scipy.integrate import quad

    for gamma in (-0.3, 0.0, 0.4):
        for tau_star in (1.0, 0.25):
            p = GpParams(gamma, 1.3)
            levels = LevelPair.from_tau_star(0.9, tau_star)
            law = FrequentistPredictive(p, 5.0, levels)
            m, s = shift_scale(p.gamma, p.sigma, levels.tau_star)
            lo = 5.0 + m
            if p.upper < math.inf:
                total, _ = quad(law.pdf, lo, lo + s * p.upper)
            else:
                total, _ = quad(
                    lambda u: law.pdf(lo + u / (1 - u)) / (1 - u) ** 2, 0.0, 1.0
                )
            checks.append(abs(total - 1.0) < 1e-8)

    # predictive pdf vs central differences of the cdf at 1e-6
    p = GpParams(0.3, 1.4)
    levels = LevelPair.from_tau_star(0.92, 0.3)
    law = FrequentistPredictive(p, 6.0, levels)
    lo = 6.0 + shift_scale(p.gamma, p.sigma, levels.tau_star)[0]
    h = 1e-5
    fd_ok = all(
        abs((law.cdf(y + h) - law.cdf(y - h)) / (2 * h) - law.pdf(y)) < 1e-6
        for y in np.linspace(lo + 0.2, lo + 12.0, 20)
    )
    checks.append(fd_ok)

    # threshold-stability semigroup, exact on dyadic inputs
    pa = GpParams(0.5, 1.0)
    checks.append(
        threshold_shift(threshold_shift(pa, 2.0), 4.0) == threshold_shift(pa, 6.0)
    )
    pb = GpParams(-0.25, 4.0)
    checks.append(
        threshold_shift(threshold_shift(pb, 1.0), 0.5) == threshold_shift(pb, 1.5)
    )

    # shape-to-zero continuity at 1e-6
    xs = np.linspace(0.01, 10.0, 50)
    for gamma in (1e-7, -1e-7):
        diff = max(
            abs(gp_cdf(GpParams(gamma, 1.3), x) - gp_cdf(GpParams(0.0, 1.3), x))
            for x in xs
        )
        checks.append(diff < 1e-6)

    # Hellinger distance of the unit-vs-quadruple-scale exponential pair
    f = lambda x: gp_pdf(GpParams(0.0, 1.0), x)
    g = lambda x: gp_pdf(GpParams(0.0, 4.0), x)
    d = hellinger(f, g, Support(0.0, math.inf))
    checks.append(abs(d - 0.4472135954999579) < 1e-6)

    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 10.0
    assert report(
        8, ok,
        f"{sum(checks)}/{len(checks)} numeric checks passed in {elapsed:.1f}s (< 10s)",
    )
