import inspect
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

import tailcast.predict as predict
import tailcast.simlab as simlab
from tailcast.bayes import (
    DataDependentScale,
    LogUniformScale,
    PriorSpec,
    SamplerConfig,
    UniformWindowShape,
    sample_posterior,
)
from tailcast.errors import (
    DegenerateDataError,
    DomainError,
    EstimationError,
    InfiniteMeanError,
    NumericError,
    SamplerError,
    TieWarning,
)
from tailcast.estimation import SortedSample, fit_hill, select_exceedances
from tailcast.io import rows_to_csv_text
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

# each generator with its law in scipy.stats, an independent reference
LAWS = {
    ExactGP(0.3, 1.0): stats.genpareto(0.3),
    Pareto(2.0): stats.pareto(2.0),
    Frechet(1.5): stats.invweibull(1.5),
    Burr(1.0, 2.0): stats.burr12(1.0, 2.0),
    Exponential(0.7): stats.expon(scale=1.0 / 0.7),
    BetaTail(1.0, 2.0): stats.beta(1.0, 2.0),
}
FAMILIES = list(zip(LAWS, range(101, 107)))


class TestGenerators:
    @pytest.mark.parametrize("family,seed", FAMILIES)
    def test_marginal_law(self, family, seed):
        sample = generate(Generator(family, seed=seed), 100_000)
        assert kstest(sample.values, LAWS[family].cdf).pvalue > 0.01

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

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 0.5), (3.0, 1.0)])
    def test_beta_tail_matches_scipy_stats(self, a, b):
        u = np.concatenate([[0.0, 1.0], np.random.default_rng(107).random(20_000)])
        np.testing.assert_array_equal(BetaTail(a, b).quantile(u), beta_dist.ppf(u, a, b))

    def test_beta_tail_quantile_near_zero(self):
        # F(x) = 1.5 sqrt(x) (1 + O(x)) for Beta(1/2, 2); scipy.stats' ppf
        # returned 3.0e-23 here in scipy 1.17.1
        u = 1.2e-8
        assert BetaTail(0.5, 2.0).quantile(u) == pytest.approx((u / 1.5) ** 2, rel=1e-12)

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

    def test_negative_seeds_refused_at_construction(self):
        # numpy would refuse them only in the first replication
        for build in (
            lambda: Generator(Pareto(2.0), seed=-1),
            lambda: small_cfg(seed=-3),
            lambda: TsCoverageConfig(phi=0.6, innovations=Pareto(2.0), seed=-2),
        ):
            with pytest.raises(DomainError, match="seed must be non-negative"):
                build()


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
        """Make ``fit_tail`` raise ``fails(call, method)`` when it is not None;
        simlab fits only through ``predict.fit_tails``, which calls it."""
        real = predict.fit_tail
        calls = {"n": 0}

        def fit_tail(e, method, *args, **kwargs):
            calls["n"] += 1
            exc = fails(calls["n"], method)
            if exc is not None:
                raise exc
            return real(e, method, *args, **kwargs)

        monkeypatch.setattr(predict, "fit_tail", fit_tail)

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
        # every ML fit fails; all of them run before the PWM fallbacks
        def fails(call, method):
            if method == "ml":
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
        # every replication of every experiment starts with `_draw`
        def draw(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "_draw", draw)

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


# a family whose top order statistics round to 1.0 and to the floats just
# below it, so that the threshold ties with some of the top k
TIED = BetaTail(1.0, 0.08)


class TestTopOnlyDraw:
    """A replication maps only its top ``k + 1`` uniforms through the
    quantile; everything it reports equals the whole-sample path."""

    @pytest.mark.parametrize("family", [f for f, _ in FAMILIES] + [
        ExactGP(-0.3, 1.0), ExactGP(0.0, 2.0), TIED])
    @pytest.mark.parametrize("n,k", [(2_000, 178), (10_000, 500), (1_000, 999), (5, 1)])
    def test_top_equals_the_top_of_generate(self, family, n, k):
        for seed in (1, 2**62 + 3):
            whole = generate(Generator(family), n, seed=seed).values
            top = simlab._top(family, n, k + 1, seed)
            assert top.tobytes() == whole[n - k - 1 :].tobytes()
        assert simlab._top(family, n, n, 4).tobytes() == generate(
            Generator(family), n, seed=4).values.tobytes()

    def test_draw_carries_n_k_and_the_test_uniform(self):
        cfg = small_cfg()
        draw = simlab._draw(cfg, 2_000, 200, 3, 0)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 3]))
        whole = generate(cfg.generator, 2_000, seed=int(rng.integers(2**63)))
        assert (draw.n, draw.k, draw.u_test) == (2_000, 200, rng.random())
        assert draw.top.tobytes() == whole.values[-201:].tobytes()

    @pytest.mark.parametrize("family,n,k", [
        (ExactGP(0.25, 1.0), 2_000, 200), (Pareto(2.0), 1_000, 999),
        (BetaTail(1.0, 2.0), 500, 50), (TIED, 1_000, 63)])
    def test_exceedance_sets_are_equal(self, family, n, k):
        dropped = 0
        for seed in range(6):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = select_exceedances(generate(Generator(family), n, seed), k)
                got = simlab._Draw(simlab._top(family, n, k + 1, seed), n, k, 0.5).exceedances()
            assert got.excesses.tobytes() == want.excesses.tobytes()
            assert (got.k, got.threshold, got.tau_i, got.n_dropped) == (
                want.k, want.threshold, want.tau_i, want.n_dropped)
            # both name the line in this file that asked for the split
            assert [(w.category, w.filename) for w in caught] == [
                (TieWarning, __file__)] * (2 * bool(want.n_dropped))
            dropped += want.n_dropped
        assert dropped > 0 or family != TIED  # the tied family does tie

    @dataclass(frozen=True)
    class WholeSampleDraw:
        """The path before the top-only draw: ``generate`` + ``select_exceedances``."""

        sample: SortedSample
        k: int
        u_test: float

        @property
        def n(self):
            return self.sample.n

        def exceedances(self):
            return select_exceedances(self.sample, self.k)

    @classmethod
    def whole_sample_rows(cls, monkeypatch, run, cfg):
        def draw(cfg, n, k, rep, n_ctx):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, n_ctx, rep]))
            sample = generate(cfg.generator, n, seed=int(rng.integers(2**63)))
            return cls.WholeSampleDraw(sample, k, rng.random())

        with monkeypatch.context() as m:
            m.setattr(simlab, "_draw", draw)
            return run(cfg)

    FAST = SamplerConfig(burn_in=300, draws=1_000)
    CASES = [
        (lambda c: coverage_experiment(c).rows(),
         dict(methods=("oracle", "ml", "pwm", "bayes"), sampler=FAST)),
        (contraction_experiment, dict(methods=("oracle", "ml", "pwm"), n_ladder=(500, 2_000),
                                      k_rule=KRule("power", coef=2.0, delta=0.5))),
        (contraction_experiment, dict(methods=("bayes",), sampler=FAST)),
        (tail_equivalence_experiment, dict(methods=("oracle", "ml", "pwm", "bayes"),
                                           sampler=FAST, n_ladder=(300, 1_000))),
        (risk_error_experiment, dict(generator=Generator(Pareto(3.0), seed=2),
                                     methods=("ml", "pwm"), k_rule=KRule("fixed", k=10**9))),
        (lambda c: coverage_experiment(c).rows(), dict(
            generator=Generator(TIED), methods=("ml", "pwm"), n=1_000,
            k_rule=KRule("fixed", k=63))),
    ]

    @pytest.mark.parametrize("run,kwargs", CASES)
    def test_rows_are_byte_identical(self, monkeypatch, run, kwargs):
        cfg = small_cfg(**{"replications": 50, **kwargs})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ties, and ML fits at the -1/2 edge
            got = rows_to_csv_text(run(cfg))
            want = rows_to_csv_text(self.whole_sample_rows(monkeypatch, run, cfg))
        assert got == want

    def test_clamped_k_fails_per_method(self):
        # k_for(2) = 2 = n: select_exceedances refuses it, in every method's
        # evaluation and not in the draw
        rows = tail_equivalence_experiment(small_cfg(n=2, methods=("ml", "pwm"), replications=50))
        for row in rows:
            assert (row["k"], row["replications"]) == (2, 0)
            assert row["failure_reasons"] == "DomainError:50"

    def test_all_tied_top_fails_per_method(self):
        rows = tail_equivalence_experiment(small_cfg(
            generator=Generator(BetaTail(1.0, 0.01)), n=1_000,
            k_rule=KRule("fixed", k=100), methods=("ml", "pwm"), replications=50))
        for row in rows:
            assert row["failure_reasons"] == "DegenerateDataError:50"

    def test_ties_warn_once_per_replication_from_the_stage(self, monkeypatch):
        cfg = small_cfg(generator=Generator(TIED), n=1_000, k_rule=KRule("fixed", k=63),
                        methods=("ml", "pwm", "bayes"), replications=50,
                        sampler=SamplerConfig(burn_in=300, draws=1_000))
        counts = []
        for run in (tail_equivalence_experiment,
                    lambda c: self.whole_sample_rows(monkeypatch, tail_equivalence_experiment, c)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run(cfg)
            ties = [w for w in caught if w.category is TieWarning]
            counts.append(len(ties))
            if run is tail_equivalence_experiment:  # named where the stage selects
                lines, first = inspect.getsourcelines(simlab._rows_at)
                assert {w.filename for w in ties} == {simlab.__file__}
                assert {w.lineno for w in ties} <= set(range(first, first + len(lines)))
        # once per tied replication, for all three arms
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tied = 0
            for rep in range(cfg.replications):
                try:
                    tied += simlab._draw(cfg, cfg.n, 63, rep, cfg.n).exceedances().n_dropped > 0
                except DegenerateDataError:  # every excess ties: it raises and does not warn
                    pass
        assert counts[0] == counts[1] == tied > 0


class TestBayesStage:
    """The Bayes arm's chains run in one ``sample_posteriors`` call, with the
    rows and warnings of one chain at a time."""

    FAST = SamplerConfig(burn_in=300, draws=1_000)

    @staticmethod
    def one_chain_at_a_time(specs, es, cfgs):
        """``sample_posteriors`` as a loop over ``sample_posterior``."""
        out = []
        for args in zip(specs, es, cfgs):
            try:
                out.append(sample_posterior(*args))
            except (DomainError, SamplerError) as exc:
                out.append(exc)
        return out

    @pytest.mark.parametrize("run,kwargs", [
        (lambda c: coverage_experiment(c).rows(), dict(methods=("ml", "bayes"), sampler=FAST)),
        # ties drop excesses, so the chains' excess counts differ
        (tail_equivalence_experiment, dict(
            generator=Generator(TIED), n=1_000, k_rule=KRule("fixed", k=63),
            methods=("bayes",), sampler=FAST)),
        (risk_error_experiment, dict(
            generator=Generator(Pareto(3.0), seed=2), methods=("bayes",),
            prior=PriorSpec(UniformWindowShape(-0.49, 0.99), LogUniformScale()),
            sampler=SamplerConfig(burn_in=200, draws=500, thin=3))),
    ])
    def test_lockstep_rows_equal_one_chain_at_a_time(self, monkeypatch, run, kwargs):
        cfg = small_cfg(**{"replications": 50, **kwargs})
        rows, counts = [], []
        for sampler in (None, self.one_chain_at_a_time):
            with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if sampler:  # the one caller of sample_posteriors is predict.fit_tails
                    m.setattr(predict, "sample_posteriors", sampler)
                rows.append(rows_to_csv_text(run(cfg)))
            counts.append(Counter(w.category.__name__ for w in caught))
        assert rows[0] == rows[1]
        assert counts[0] == counts[1]

    def test_chain_that_cannot_start_fails_its_replication(self):
        # no point of a window below -0.45 with every scale under 1 admits
        # GP(0.25) excesses whose largest is over 1/0.45
        prior = PriorSpec(UniformWindowShape(-0.5, -0.45),
                          DataDependentScale(lambda x: 0.0 if x < 1.0 else -math.inf, 1.0))
        cfg = small_cfg(methods=("ml", "bayes"), prior=prior, sampler=self.FAST)
        res = coverage_experiment(cfg)
        assert res.stats["bayes"].failure_reasons == f"SamplerError:{cfg.replications}"
        assert res.stats["ml"].n_used == cfg.replications
