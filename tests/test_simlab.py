import numpy as np
import pytest
from scipy.stats import kstest

import tailcast.simlab as simlab
from tailcast.bayes import LogUniformScale, PriorSpec, UniformWindowShape
from tailcast.errors import (
    DomainError,
    EstimationError,
    InfiniteMeanError,
    NumericError,
    SamplerError,
)
from tailcast.estimation import fit_hill
from tailcast.simlab import (
    BetaTail,
    Burr,
    ExactGP,
    ExperimentConfig,
    Exponential,
    Frechet,
    Generator,
    KRule,
    LevelRule,
    Pareto,
    TsCoverageConfig,
    contraction_experiment,
    coverage_experiment,
    generate,
    risk_error_experiment,
    tail_equivalence_experiment,
    ts_coverage_experiment,
)

FAMILIES = [
    (ExactGP(0.3, 1.0), 101),
    (Pareto(2.0), 102),
    (Frechet(1.5), 103),
    (Burr(1.0, 2.0), 104),
    (Exponential(0.7), 105),
    (BetaTail(1.0, 2.0), 106),
]


class TestGenerators:
    @pytest.mark.parametrize("family,seed", FAMILIES)
    def test_marginal_law(self, family, seed):
        sample = generate(Generator(family, seed=seed), 100_000)
        res = kstest(sample.values, lambda x: np.asarray(family.cdf(x), dtype=float))
        assert res.pvalue > 0.01

    def test_domain_of_attraction_indices(self):
        assert Pareto(2.0).true_gamma == 0.5
        assert Frechet(4.0).true_gamma == 0.25
        assert Burr(2.0, 1.0).true_gamma == 0.5
        assert Exponential(3.0).true_gamma == 0.0
        assert BetaTail(1.0, 2.0).true_gamma == -0.5

    def test_exponential_mean(self):
        sample = generate(Generator(ExactGP(0.0, 1.0), seed=9), 40_000)
        assert float(np.mean(sample.values)) == pytest.approx(1.0, abs=3.0 / 200.0)

    def test_pareto_hill_cross_module(self):
        sample = generate(Generator(Pareto(2.0), seed=10), 100_000)
        assert fit_hill(sample, 1_000) == pytest.approx(0.5, abs=0.05)

    def test_beta_tail_endpoint_family(self):
        fam = BetaTail(1.0, 2.0)
        sample = generate(Generator(fam, seed=11), 50_000)
        assert sample.values[-1] <= 1.0
        assert fam.true_gamma == -0.5

    def test_determinism(self):
        g = Generator(Pareto(2.0), seed=12)
        assert np.array_equal(generate(g, 1_000).values, generate(g, 1_000).values)

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            generate(Generator(Pareto(2.0), seed=1), 0)


class TestRules:
    def test_k_rules(self):
        assert KRule(kind="fixed", k=500).k_for(10_000) == 500
        assert KRule(kind="power", delta=0.5).k_for(10_000) == 100
        assert KRule(kind="power", coef=4.0, delta=0.5).k_for(10_000) == 400
        big = KRule(kind="power", delta=0.5, eta=1.0).k_for(10_000)
        assert big == int(100 * np.log(10_000))

    def test_k_clamped(self):
        assert KRule(kind="fixed", k=10**9).k_for(100) == 99
        assert KRule(kind="fixed", k=0).k_for(100) == 2

    def test_level_rules(self):
        lv = LevelRule("tau-star", 0.25).levels_for(0.9)
        assert lv.tau_star == 0.25
        lv_c = LevelRule("c", 2.0).levels_for(0.9, gamma=-0.34)
        assert lv_c.tau_star == pytest.approx(2.0 ** (1.0 / -0.34))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                generator=Generator(Pareto(2.0)),
                n=100,
                k_rule=KRule(kind="fixed", k=10),
                replications=10,  # below the floor
            )


def small_cfg(**kwargs):
    base = dict(
        generator=Generator(ExactGP(0.25, 1.0), seed=0),
        n=2_000,
        k_rule=KRule(kind="fixed", k=200),
        level_rule=LevelRule("tau-star", 0.25),
        alpha=0.05,
        replications=60,
        methods=("oracle", "ml"),
        seed=21,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestCoverage:
    def test_oracle_arm_near_nominal(self):
        res = coverage_experiment(small_cfg())
        oracle = res.stats["oracle"]
        assert abs(oracle.coverage - 0.95) <= 2.5 * max(oracle.se, 1e-6) + 1e-9

    def test_determinism_byte_identical(self):
        from tailcast.io import rows_to_csv_text

        a = rows_to_csv_text(coverage_experiment(small_cfg()).rows())
        b = rows_to_csv_text(coverage_experiment(small_cfg()).rows())
        assert a == b


class TestContraction:
    def test_oracle_distance_is_zero(self):
        rows = contraction_experiment(small_cfg(replications=50))
        oracle = [r for r in rows if r["method"] == "oracle"][0]
        assert oracle["median_hellinger"] == pytest.approx(0.0, abs=1e-6)

    def test_requires_exact_gp(self):
        with pytest.raises(DomainError):
            contraction_experiment(small_cfg(generator=Generator(Pareto(2.0), seed=0)))

    def test_deeper_extrapolation_hurts(self):
        # the error grows as the tail ratio shrinks, matching the weight factor
        meds = []
        for tau_star in (0.5, 0.1, 0.02):
            cfg = small_cfg(
                level_rule=LevelRule("tau-star", tau_star),
                methods=("ml",),
                replications=60,
            )
            rows = contraction_experiment(cfg)
            meds.append(rows[0]["median_hellinger"])
        assert meds[0] < meds[1] < meds[2]


class TestTailEquivalence:
    def test_true_parameter_arm_is_exactly_one(self):
        rows = tail_equivalence_experiment(
            small_cfg(level_rule=LevelRule("tau-star", 0.1), methods=("oracle",))
        )
        assert rows[0]["median_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["band_width"] == pytest.approx(0.0, abs=1e-12)

    def test_estimated_arm_centers_on_one(self):
        cfg = small_cfg(
            generator=Generator(Pareto(2.0), seed=3),
            n=20_000,
            k_rule=KRule(kind="power", delta=0.6),
            level_rule=LevelRule("tau-star", 0.1),
            methods=("ml",),
            replications=80,
        )
        rows = tail_equivalence_experiment(cfg)
        assert rows[0]["median_ratio"] == pytest.approx(1.0, abs=0.1)


class TestRiskError:
    def test_var_accuracy_small_scale(self):
        cfg = small_cfg(
            generator=Generator(Pareto(2.0), seed=5),
            n=20_000,
            k_rule=KRule(kind="fixed", k=500),
            level_rule=LevelRule("tau-star", 0.1),
            methods=("ml",),
            replications=60,
        )
        rows = risk_error_experiment(cfg)
        assert rows[0]["var_within_tol"] >= 0.9
        assert rows[0]["failures"] == 0


class TestTsCoverage:
    def test_small_scale_violation_rate(self):
        cfg = TsCoverageConfig(
            phi=0.6,
            innovations=Pareto(2.0),
            window=800,
            origins=120,
            k=80,
            tau_star=0.25,
            alpha=0.05,
            methods=("ml",),
            seed=31,
        )
        rows = ts_coverage_experiment(cfg)
        assert rows[0]["origins_used"] >= 110
        assert 0.0 <= rows[0]["violation_rate"] <= 0.15


class TestReplicationDriver:
    """Failures are counted by class, ML falls back to PWM, bugs propagate."""

    SMALL = dict(n=1_000, k_rule=KRule(kind="fixed", k=50), replications=50)

    @staticmethod
    def failing_fit_tail(monkeypatch, fails):
        """Make ``fit_tail`` raise ``fails(call, method)`` when it is not None."""
        real = simlab.fit_tail
        calls = {"n": 0}

        def fit_tail(e, method, *args, **kwargs):
            calls["n"] += 1
            exc = fails(calls["n"], method)
            if exc is not None:
                raise exc
            return real(e, method, *args, **kwargs)

        monkeypatch.setattr(simlab, "fit_tail", fit_tail)

    def test_failures_counted_by_class(self, monkeypatch):
        def fails(call, method):
            if call % 5 == 0:
                return SamplerError("no move accepted")
            if call % 7 == 0:
                return NumericError("no bracket")
            return None

        self.failing_fit_tail(monkeypatch, fails)
        res = coverage_experiment(small_cfg(methods=("oracle", "pwm"), **self.SMALL))
        pwm, oracle = res.stats["pwm"], res.stats["oracle"]
        # one pwm fit per replication: calls 1..50 hold 10 multiples of 5, and
        # 6 multiples of 7 that are not multiples of 5
        assert (pwm.failures, pwm.n_used, pwm.fallbacks) == (16, 34, 0)
        assert pwm.failure_reasons == "NumericError:6;SamplerError:10"
        assert (oracle.failures, oracle.failure_reasons) == (0, "")
        row = res.rows()[1]
        assert (row["failures"], row["failure_reasons"]) == (16, pwm.failure_reasons)

    def test_ml_failure_falls_back_to_pwm(self, monkeypatch):
        # each ML call is odd-numbered and fails; its PWM fallback is the next
        def fails(call, method):
            if method == "ml" and call % 2:
                return EstimationError("no convergence")
            return None

        self.failing_fit_tail(monkeypatch, fails)
        rows = tail_equivalence_experiment(small_cfg(methods=("ml",), **self.SMALL))
        assert rows[0]["fallbacks"] == 50
        assert (rows[0]["failures"], rows[0]["failure_reasons"]) == (0, "")
        assert rows[0]["replications"] == 50

    def test_programming_errors_propagate(self, monkeypatch):
        self.failing_fit_tail(monkeypatch, lambda call, method: TypeError("a bug"))
        with pytest.raises(TypeError, match="a bug"):
            risk_error_experiment(small_cfg(methods=("pwm",), **self.SMALL))


class TestConfigurationErrors:
    """A configuration that would fail every replication is refused up front."""

    @pytest.fixture(autouse=True)
    def no_replications(self, monkeypatch):
        def generate(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "generate", generate)

    def test_tail_equivalence_oracle_needs_exact_gp(self):
        with pytest.raises(DomainError, match="exact-GP"):
            tail_equivalence_experiment(
                small_cfg(generator=Generator(Pareto(2.0)), methods=("oracle", "ml"))
            )

    @pytest.mark.parametrize("family", [Frechet(2.0), Burr(1.0, 2.0), BetaTail(1.0, 2.0)])
    def test_risk_error_needs_closed_form_es(self, family):
        with pytest.raises(DomainError, match="closed-form"):
            risk_error_experiment(small_cfg(generator=Generator(family)))

    @pytest.mark.parametrize("family", [Pareto(0.8), ExactGP(1.2, 1.0)])
    def test_risk_error_needs_finite_tail_mean(self, family):
        with pytest.raises(InfiniteMeanError):
            risk_error_experiment(small_cfg(generator=Generator(family)))

    @pytest.mark.parametrize("methods", [("ml", "mle"), ("Bayes",), ("hill",)])
    def test_unknown_method(self, methods):
        with pytest.raises(DomainError, match="is not one of"):
            small_cfg(methods=methods)
        with pytest.raises(DomainError, match="is not one of"):
            TsCoverageConfig(phi=0.6, innovations=Pareto(2.0), methods=methods)

    def test_risk_error_has_no_oracle_arm(self):
        with pytest.raises(DomainError, match="'oracle' is not one of"):
            risk_error_experiment(small_cfg(methods=("ml", "oracle")))

    def test_ts_coverage_has_no_oracle_arm(self):
        with pytest.raises(DomainError, match="'oracle' is not one of"):
            TsCoverageConfig(phi=0.6, innovations=Pareto(2.0), methods=("oracle", "ml"))

    @pytest.mark.parametrize(
        "prior", [None, PriorSpec(UniformWindowShape(-0.4, 1.5), LogUniformScale())]
    )
    def test_risk_error_bayes_needs_prior_below_one(self, prior):
        with pytest.raises(InfiniteMeanError, match="strictly below 1"):
            risk_error_experiment(small_cfg(methods=("ml", "bayes"), prior=prior))

    def test_risk_error_bayes_with_prior_below_one_runs(self):
        prior = PriorSpec(UniformWindowShape(-0.49, 0.99), LogUniformScale())
        with pytest.raises(AssertionError, match="a replication ran"):
            risk_error_experiment(small_cfg(methods=("bayes",), prior=prior))
