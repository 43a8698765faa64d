import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctent import DomainError
from ctent.distributions import make_exponential, sample
from ctent.duality import duality_coefficient
from ctent.extremal import bound_l2, gamma_gap, make_s_logistic, symmetric_upper
from ctent.relevation import sample_Ns, simulate_total_lifetime_survival, simulate_Tn, simulate_Ys
from ctent.risk import make_distortion, relevation_risk
from ctent.specfun import (
    EULER_GAMMA,
    digamma,
    gamma_negative,
    gamma_ratio,
    lgamma,
    log_gamma,
    pochhammer,
    psi,
    psi1,
    psi2,
    psi3,
    trigamma,
)

mp.mp.dps = 30

LN_SQRT_PI = 0.5723649429247001  # log Gamma(1/2), via the duplication identity
PSI_HALF = -1.9635100260214235   # -gamma - 2 log 2, via the duplication identity
PSI1_TEN = 0.10516633568168575   # tail series sum_{k>=10} 1/k^2 (30-digit oracle)
RATIO_27_13 = 1.7211546317980767  # Gamma(2.7)/Gamma(1.3), 30-digit oracle


def test_log_gamma_examples():
    assert log_gamma(1.0).value == pytest.approx(0.0, abs=1e-15)
    v = log_gamma(0.5)
    assert abs(v.value - LN_SQRT_PI) <= v.abs_error_bound
    assert abs(log_gamma(6.0).value - math.log(120.0)) < 1e-13 * 5


def test_log_gamma_error_contract():
    for x in (0.01, 0.3, 1.0, 2.5, 8.0, 37.7, 1e5):
        v = log_gamma(x)
        exact = float(mp.loggamma(x))
        assert abs(v.value - exact) <= max(v.abs_error_bound,
                                           1e-13 * max(1.0, abs(exact)))


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_digamma_examples():
    assert digamma(1.0).value == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(2.0).value == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)
    assert digamma(0.5).value == pytest.approx(PSI_HALF, abs=1e-13)


def test_digamma_matches_series_definition():
    # psi(z) = -gamma + sum_{n>=0} (1/(n+1) - 1/(n+z)); the partial sum to N
    # misses at most (z-1)/N in absolute value for z > 1 (and the mirrored
    # bound below 1), which pins the implementation against the definition
    for z in (0.3, 1.7, 2.0, 5.5):
        n = np.arange(0, 2_000_000, dtype=float)
        partial = -EULER_GAMMA + float(np.sum(1.0 / (n + 1.0) - 1.0 / (n + z)))
        assert abs(psi(z) - partial) <= abs(z - 1.0) / 2_000_000 * 1.5 + 1e-12


def test_digamma_pole():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            digamma(x)


def test_trigamma_examples():
    assert trigamma(1.0).value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-12)
    assert trigamma(2.0).value == pytest.approx(math.pi ** 2 / 6.0 - 1.0, abs=1e-12)
    assert trigamma(10.0).value == pytest.approx(PSI1_TEN, abs=1e-12)


def test_polygamma_two_against_oracle():
    for x in (0.2, 1.0, 2.0, 9.5, 120.0):
        assert psi2(x) == pytest.approx(float(mp.polygamma(2, x)), abs=1e-12)


@pytest.mark.parametrize("f, oracle, rel", [
    # log Gamma vanishes at 1 and 2, so its error is relative to max(1, |value|)
    (lgamma, lambda x: mp.loggamma(x), "floor"),
    (psi, lambda x: mp.digamma(x), "rel"),
    (psi1, lambda x: mp.polygamma(1, x), "rel"),
    (psi2, lambda x: mp.polygamma(2, x), "rel"),
    (psi3, lambda x: mp.polygamma(3, x), "rel"),
], ids=["lgamma", "psi", "psi1", "psi2", "psi3"])
def test_backends_against_mpmath_log_grid(f, oracle, rel):
    for x in np.geomspace(1e-3, 1e6, 200):
        exact = float(oracle(mp.mpf(float(x))))
        scale = abs(exact) if rel == "rel" else max(1.0, abs(exact))
        assert abs(f(float(x)) - exact) <= 1e-13 * scale, x


def test_polygamma_domains():
    for f in (psi1, psi2, psi3):
        with pytest.raises(DomainError):
            f(0.0)


def test_pochhammer_examples():
    assert pochhammer(2.0, 3) == 24.0
    assert pochhammer(-0.5, 0) == 1.0
    assert pochhammer(-0.5, 3) == pytest.approx(-0.375, rel=1e-14)


def test_pochhammer_zero_factor_and_large_n():
    assert pochhammer(-3.0, 50) == 0.0
    exact = float(mp.rf(1.5, 100))
    assert pochhammer(1.5, 100) == pytest.approx(exact, rel=1e-12)
    exact_neg = float(mp.rf(-2.5, 51))
    assert pochhammer(-2.5, 51) == pytest.approx(exact_neg, rel=1e-12)


def test_gamma_ratio_examples():
    assert gamma_ratio(5.0, 3.0).value == pytest.approx(12.0, rel=1e-12)
    assert gamma_ratio(1.5, 0.5).value == pytest.approx(0.5, rel=1e-12)
    assert gamma_ratio(2.7, 1.3).value == pytest.approx(RATIO_27_13, rel=1e-12)


def test_gamma_negative_reflection():
    assert gamma_negative(0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
    assert gamma_negative(-0.5) == pytest.approx(math.gamma(0.5), rel=1e-13)
    with pytest.raises(DomainError):
        gamma_negative(2.0)


def test_digamma_recurrence_thousand_points():
    rng = np.random.default_rng(101)
    xs = rng.uniform(0.01, 50.0, 1000)
    worst = max(abs(psi(x + 1.0) - psi(x) - 1.0 / x) for x in xs)
    assert worst < 1e-11


def test_trigamma_recurrence_and_monotonicity():
    rng = np.random.default_rng(202)
    xs = rng.uniform(0.01, 50.0, 1000)
    worst = max(abs(psi1(x + 1.0) - psi1(x) + 1.0 / (x * x)) for x in xs)
    assert worst < 1e-11
    grid = np.linspace(0.05, 30.0, 400)
    vals = [psi1(x) for x in grid]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=-20.0, max_value=20.0),
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_pochhammer_additivity(x, m, n):
    lhs = pochhammer(x, m + n)
    rhs = pochhammer(x, m) * pochhammer(x + m, n)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [-0.9, -0.5, -0.1, 0.4, 1.3, 2.9])
def test_binomial_partial_sums_vanish(s):
    # sum_{n=0}^{N} (-s-1)_n/n! telescopes to (-s)_N/N!, which decays like
    # N^{-(1+s)}/Gamma(-s); checked at N = 1e5 against that tail bound
    N = 100_000
    n = np.arange(1, N + 1, dtype=float)
    terms = np.concatenate([[1.0], np.cumprod((-s - 1.0 + n - 1.0) / n)])
    partial = float(np.sum(terms))
    j = np.arange(0, N, dtype=float)
    closed = float(np.prod((j - s) / (j + 1.0)))  # (-s)_N / N!
    assert partial == pytest.approx(closed, rel=1e-6, abs=1e-10)
    bound = 1.5 / (abs(gamma_negative(s)) * N ** (1.0 + s))
    assert abs(partial) <= bound + 5e-12  # floor: rounding of 1e5 summands



_EX = make_exponential()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: pochhammer(1.5, math.nan), id="pochhammer(nan)"),
    pytest.param(lambda: pochhammer(1.5, math.inf), id="pochhammer(inf)"),
    pytest.param(lambda: pochhammer(1.5, 2.5), id="pochhammer(2.5)"),
    pytest.param(lambda: relevation_risk(_EX, math.nan), id="relevation_risk(nan)"),
    pytest.param(lambda: relevation_risk(_EX, math.inf), id="relevation_risk(inf)"),
    pytest.param(lambda: make_distortion("H_tilde_n", math.nan), id="H_tilde_n(nan)"),
    pytest.param(lambda: make_distortion("H_tilde_n", math.inf), id="H_tilde_n(inf)"),
    pytest.param(lambda: simulate_Tn(_EX, 2.5, 100, 1), id="simulate_Tn(units=2.5)"),
    pytest.param(lambda: simulate_Tn(_EX, 2, 100.5, 1), id="simulate_Tn(n=100.5)"),
    pytest.param(lambda: simulate_Ys(_EX, 1.0, 100.5, 1), id="simulate_Ys(n=100.5)"),
    pytest.param(lambda: simulate_total_lifetime_survival(_EX, 1.0, [1.0], 100.5, 1),
                 id="simulate_total_lifetime_survival(n=100.5)"),
    pytest.param(lambda: sample_Ns(-0.5, math.nan, 1), id="sample_Ns(n=nan)"),
    pytest.param(lambda: sample(_EX, 2.5, 1), id="sample(2.5)"),
    pytest.param(lambda: duality_coefficient(-0.5, math.nan), id="duality_coefficient(n=nan)"),
    pytest.param(lambda: duality_coefficient(-0.5, 2.5), id="duality_coefficient(n=2.5)"),
])
def test_every_count_is_an_integer_in_range(call):
    # each was a bare ValueError, an OverflowError, a TypeError or a silent
    # truncation by int(n) before one check served every count
    with pytest.raises(DomainError, match="must be an integer >= "):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: gamma_gap(math.inf), id="gamma_gap(inf)"),
    pytest.param(lambda: gamma_gap(math.nan), id="gamma_gap(nan)"),
    pytest.param(lambda: symmetric_upper(math.inf), id="symmetric_upper(inf)"),
    pytest.param(lambda: bound_l2(math.inf), id="bound_l2(inf)"),
    pytest.param(lambda: make_s_logistic(math.inf, 1.0), id="make_s_logistic(inf)"),
    pytest.param(lambda: make_distortion("h_tilde_s", math.nan), id="h_tilde_s(nan)"),
    pytest.param(lambda: make_distortion("h_tilde_s", math.inf), id="h_tilde_s(inf)"),
    pytest.param(lambda: duality_coefficient(math.inf, 1), id="duality_coefficient(s=inf)"),
    pytest.param(lambda: duality_coefficient(math.nan, 1), id="duality_coefficient(s=nan)"),
    pytest.param(lambda: simulate_Ys(_EX, math.inf, 100, 1), id="simulate_Ys(s=inf)"),
])
def test_every_order_is_finite(call):
    # gamma_gap and symmetric_upper gave nan, make_s_logistic raised
    # NonIntegrableError, h_tilde_s took NaN, duality_coefficient gave -inf,
    # and simulate_Ys ran its trials before its target refused the order
    with pytest.raises(DomainError, match="must be finite and exceed"):
        call()
