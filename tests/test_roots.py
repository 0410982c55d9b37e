import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

import tailcast.estimation as estimation
import tailcast.predict as predict
import tailcast.roots as roots
from conftest import make_excesses
from tailcast.bayes import SamplerConfig
from tailcast.errors import EstimationError
from tailcast.estimation import exceedances_from_excesses, fit_ml
from tailcast.gpd import LevelPair
from tailcast.predict import fit_tail
from tailcast.roots import brentq


def outcome(solver, *args, **kwargs):
    """The root's bits, or the class of the error the solver raised."""
    try:
        return solver(*args, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.fixture
def both_solvers():
    """A brentq that also runs scipy's on every call and records both outcomes."""
    pairs = []

    def both(f, a, b, **kwargs):
        pairs.append((outcome(brentq, f, a, b, **kwargs),
                      outcome(scipy_brentq, f, a, b, **kwargs)))
        return brentq(f, a, b, **kwargs)

    both.pairs = pairs
    return both


finite = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(r=finite, p=finite, q=finite, lead=st.floats(0.01, 100.0),
       left=st.floats(1e-3, 20.0), right=st.floats(1e-3, 20.0),
       xtol=st.sampled_from([1e-15, 2e-12, 1e-10]))
def test_same_bits_as_scipy_on_cubics(r, p, q, lead, left, right, xtol):
    # lead (x - r)(x^2 + p x + q): a root at r, and up to two more in the bracket
    def f(x):
        return lead * (x - r) * (x * x + p * x + q)

    a, b = r - left, r + right
    assert outcome(brentq, f, a, b, xtol=xtol) == outcome(scipy_brentq, f, a, b, xtol=xtol)


def test_same_bits_as_scipy_on_profile_fit_brackets(both_solvers, monkeypatch):
    monkeypatch.setattr(estimation, "brentq", both_solvers)
    for gamma in (-0.45, -0.3, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        for k in (20, 100, 500, 2_000):
            for seed in (1, 2):
                e = exceedances_from_excesses(make_excesses(gamma, 1.0, k, seed))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        fit_ml(e)
                    except EstimationError:
                        pass
    assert len(both_solvers.pairs) >= 60
    for ours, theirs in both_solvers.pairs:
        assert ours == theirs


def test_same_bits_as_scipy_on_mixture_quantiles(both_solvers, monkeypatch):
    monkeypatch.setattr(predict, "brentq", both_solvers)
    for gamma, seed in ((-0.3, 5), (0.25, 6), (0.8, 7)):
        e = exceedances_from_excesses(make_excesses(gamma, 1.0, 300, seed), tau_i=0.95)
        tail = fit_tail(e, "bayes", sampler=SamplerConfig(seed=seed, burn_in=500, draws=2000))
        for levels in (LevelPair.intermediate(0.95), LevelPair.from_tau_star(0.95, 0.01)):
            model = tail.at(levels)
            model.quantile(np.array([1e-6, 0.025, 0.5, 0.9, 0.975, 0.999]))
    assert len(both_solvers.pairs) == 36
    for ours, theirs in both_solvers.pairs:
        assert ours == theirs


def test_same_sign_bracket_raises_value_error():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=2e-12)


def test_nan_value_raises_value_error():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, xtol=2e-12)


def test_maxiter_raises_runtime_error(monkeypatch):
    def f(x):
        return math.atan(x - 1.0 / 3.0)

    assert brentq(f, -1e6, 1e6, xtol=2e-12).hex() == scipy_brentq(f, -1e6, 1e6).hex()
    monkeypatch.setattr(roots, "_MAXITER", 3)
    with pytest.raises(RuntimeError, match="3 iterations"):
        brentq(f, -1e6, 1e6, xtol=2e-12)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -1e6, 1e6, maxiter=3)


def test_endpoint_roots():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=2e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=2e-12) == 1.0
    assert brentq(lambda x: x - 0.25, 0, 1, xtol=2e-12) == pytest.approx(0.25, abs=2e-12)
