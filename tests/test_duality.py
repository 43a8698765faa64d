import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from ctent import (
    DomainError,
    NonIntegrableError,
    SeriesTransform,
    TruncationNotConverged,
    binomial_involution,
    bnb_partial_sum,
    bnb_pmf,
    delta_from_nabla_series,
    delta_value,
    make_exponential,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_reflected_power,
    make_s_logistic,
    nabla_from_delta_series,
    nabla_value,
    normal_spec,
    rho,
)
from ctent import duality, series
from ctent.series import pochhammer_ratio_tail
from ctent.specfun import EULER_GAMMA, psi, psi1


@pytest.mark.parametrize("s", [-1.0, math.inf, math.nan])
def test_series_transform_checks_its_order(s):
    with pytest.raises(DomainError, match="exceed -1"):
        SeriesTransform.build(s, 10)


def test_series_transform_invariants():
    for s in (-0.5, 0.3, 2.2):
        tr = SeriesTransform.build(s, 4000)
        assert tr.coefficients[0] == pytest.approx(1.0 + s, abs=1e-15)
        assert tr.tail_bound < 0.2
    pmf_tr = SeriesTransform.build(-0.5, 200_000)
    assert np.all(pmf_tr.coefficients > 0.0)
    assert float(np.sum(pmf_tr.coefficients)) + pmf_tr.tail_bound == pytest.approx(
        1.0, abs=1e-6)


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.3, 2.2, 7.7])
@pytest.mark.parametrize("n", [9, 100, 4000, 100_000])
def test_series_transform_tail_matches_mpmath(s, n):
    # sum_{m > n} c_m = Gamma(n+1-s)/(Gamma(-s) Gamma(n+2)); 1 - sum c read 1.2e-14
    # for 2.8e-14 at (7.7, 100) and 8.2e-15 for 2.5e-28 at (7.7, 4000)
    with mp.workdps(50):
        sm = mp.mpf(s)
        exact = float(abs(mp.gamma(n + 1 - sm) / (mp.gamma(-sm) * mp.gamma(n + 2))))
    assert SeriesTransform.build(s, n).tail_bound == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert SeriesTransform.build(3.0, n).tail_bound == 0.0


@pytest.mark.parametrize("call", [
    lambda: bnb_partial_sum(-0.5, 0),
    lambda: bnb_partial_sum(-0.5, 10.5),
    lambda: bnb_partial_sum(-0.5, math.inf),
    lambda: SeriesTransform.build(-0.5, -1),
    lambda: SeriesTransform.build(-0.5, 2.5),
    lambda: bnb_pmf(-0.5, math.nan),
])
def test_term_counts_are_checked(call):
    # each was a bare ValueError or TypeError from the coefficient array
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_nabla_from_delta_examples():
    got = nabla_from_delta_series(make_exponential(), 0.5, tol=1e-9)
    assert got.value == pytest.approx(1.5 * psi1(2.5), abs=5e-9)
    assert nabla_from_delta_series(make_power_uniform(1.0), 0.0, tol=1e-12).value \
        == pytest.approx(0.25, abs=1e-12)
    got = nabla_from_delta_series(make_logistic(), 1.0, tol=1e-9)
    assert got.value == pytest.approx(EULER_GAMMA + psi(2.0) + 2.0 * psi1(2.0), abs=5e-9)


def test_delta_from_nabla_examples():
    assert delta_from_nabla_series(make_exponential(), 1.0, tol=1e-10).value \
        == pytest.approx(0.5, abs=1e-9)
    assert delta_from_nabla_series(make_negative_exponential(), 2.0, tol=1e-10).value \
        == pytest.approx(1.0 / 3.0, abs=1e-8)
    d = make_lomax(3.0)
    assert delta_from_nabla_series(d, 0.0, tol=1e-10).value == pytest.approx(
        d.closed_delta(0.0), abs=1e-9)


def test_divergent_series_marker():
    out = delta_from_nabla_series(make_negative_lomax(2.0), -0.6)
    assert out.divergent


@pytest.mark.parametrize("s", [-0.3, 0.5, 1.5])
def test_round_trip(s):
    for d in (make_power_uniform(1.0), make_exponential(), make_lomax(3.0),
              make_reflected_power(2.0)):
        assert delta_from_nabla_series(d, s, tol=1e-8).value == pytest.approx(
            delta_value(d, s).value, abs=1e-6)
        assert nabla_from_delta_series(d, s, tol=1e-8).value == pytest.approx(
            nabla_value(d, s).value, abs=1e-6)


def test_bnb_pmf_examples():
    assert bnb_pmf(-0.5, 0) == pytest.approx(0.5, abs=1e-15)
    assert bnb_pmf(-0.5, 1) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(DomainError):
        bnb_pmf(0.5, 0)
    with pytest.raises(DomainError):
        bnb_pmf(-0.5, -1)


@pytest.mark.parametrize("s", [-0.9, -0.5, -0.1])
def test_bnb_normalisation(s):
    part, tail = bnb_partial_sum(s, 1_000_000)
    assert 0.0 < part < 1.0
    assert part + tail == pytest.approx(1.0, abs=1e-4)
    # the closed-form tail already holds after ten terms
    part, tail = bnb_partial_sum(s, 10)
    assert part + tail == pytest.approx(1.0, abs=1e-14)
    small = duality.duality_coefficient(s, 10)
    assert 0.0 < small < 1.0


def test_pmf_positivity_dense():
    for s in (-0.9, -0.5, -0.1):
        vals = [bnb_pmf(s, n) for n in range(0, 200)]
        assert all(v > 0.0 for v in vals)
        assert all(v < 1.0 for v in vals)


@pytest.mark.parametrize("s", [-0.5, 0.7])
def test_coefficient_decay_rate(s):
    c4 = abs(duality.duality_coefficient(s, 10 ** 4)) * (10 ** 4) ** (2.0 + s)
    c5 = abs(duality.duality_coefficient(s, 10 ** 5)) * (10 ** 5) ** (2.0 + s)
    assert c5 / c4 == pytest.approx(1.0, abs=0.05)


def test_dual_sequence_summability_negative_lomax():
    # partial sums of nabla_n / n^{2+s} are Cauchy for s above the
    # finiteness threshold (here threshold = -2/3, s = -0.5)
    d = make_negative_lomax(3.0)
    s = -0.5
    n = np.arange(1, 32001, dtype=float)
    nab = np.array([d.closed_nabla(float(k)) for k in range(1, 32001)])
    terms = nab / n ** (2.0 + s)
    partial = np.cumsum(terms)
    gaps = [partial[2 * k - 1] - partial[k - 1] for k in (2000, 4000, 8000, 16000)]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_involution_examples():
    ex = make_exponential()
    deltas = [ex.closed_delta(float(n)) for n in range(4)]
    nablas = binomial_involution(deltas)
    for n, v in enumerate(nablas):
        assert v == pytest.approx(ex.closed_nabla(float(n)), abs=1e-12)
    back = binomial_involution(nablas)
    assert max(abs(a - b) for a, b in zip(back, deltas)) < 1e-10

    assert binomial_involution(binomial_involution([1.0, 0.0, 0.0])) == [1.0, 0.0, 0.0]

    lg = make_logistic()
    nv = [lg.closed_nabla(float(n)) for n in range(3)]
    dv = binomial_involution(nv)
    for n, v in enumerate(dv):
        assert v == pytest.approx(lg.closed_delta(float(n)), abs=1e-12)


def test_truncation_cap_raises():
    # the tail integral alone is only known to 1e-15: a tol below that raises
    with pytest.raises(TruncationNotConverged, match="tol=1e-16"):
        nabla_from_delta_series(make_exponential(), -0.3, tol=1e-16)
    # as does a bound past the end of the tail integral above tol: at s = -0.9
    # the exponential's M - nabla_n times the mass beyond n = 1e6 is ~1e-7
    with pytest.raises(TruncationNotConverged):
        delta_from_nabla_series(make_exponential(), -0.9, tol=1e-9)


def test_lomax_series_meets_nabla_value():
    # the Lomax's delta_n decays like n^(-2/3): the tail integral carries the
    # series far past the 1 000-term head
    seen = []
    inner = duality._signed_series

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out[2])
        return out

    duality._signed_series = spy
    try:
        got = nabla_from_delta_series(make_lomax(3.0), -0.3, tol=1e-8)
    finally:
        duality._signed_series = inner
    assert seen == [series._HEAD]
    assert got.value == pytest.approx(nabla_value(make_lomax(3.0), -0.3).value, abs=1e-12)


def test_series_in_blocks_for_laws_without_closed_forms():
    # a law without closed forms takes its head from one vectorised quantile
    # integral and its tail from quantile integrals at real orders: it meets
    # the law with closed forms within their bounds
    bare = replace(make_exponential(), closed_delta=None, closed_nabla=None)
    for s in (-0.6, 0.5, 1.5):
        got = nabla_from_delta_series(bare, s)
        ref = nabla_from_delta_series(make_exponential(), s)
        assert abs(got.value - ref.value) <= got.abs_error_bound + ref.abs_error_bound, s


@pytest.mark.parametrize("d", [normal_spec(), make_s_logistic(-0.2, 0.8)], ids=lambda d: d.label())
def test_series_without_closed_forms_meets_nabla_value(d):
    # neither law has closed forms: the head is one vectorised quantile integral
    # and each tanh-sinh step of the tail one more
    start = time.perf_counter()
    got = nabla_from_delta_series(d, -0.3)
    assert time.perf_counter() - start < 1.0
    ref = nabla_value(d, -0.3)
    assert abs(got.value - ref.value) <= got.abs_error_bound + ref.abs_error_bound


@pytest.mark.parametrize("d, s", [(make_logistic(), -0.3), (make_logistic(), 0.5),
                                  (make_lomax(3.0), -0.6), (make_reflected_power(2.0), -0.6)],
                         ids=lambda x: x.label() if hasattr(x, "label") else str(x))
def test_delta_from_nabla_meets_delta_value(d, s):
    # the logistic's nabla_n grows like log n, summed to the end of its tail
    # integral; the laws bounded below end at n = 1e6 with the M-form's bound
    got = delta_from_nabla_series(d, s)
    ref = delta_value(d, s)
    assert abs(got.value - ref.value) <= got.abs_error_bound + ref.abs_error_bound


@pytest.mark.parametrize("s, n", [(180.5, 200), (170.5, 200), (400.5, 60), (-0.5, 100),
                                  (2.3, 1000)])
def test_duality_coefficient_at_large_orders(s, n):
    # at the first three the log-gammas of n - s and -s overflow, underflow or
    # leave log_gamma's domain, though c_n is a normal float
    with mp.workdps(40):
        sm = mp.mpf(s)
        exact = float((1 + sm) * mp.rf(-sm, n) / mp.factorial(n + 1))
    assert duality.duality_coefficient(s, n) == pytest.approx(exact, rel=1e-12, abs=0.0)
    # a terminating order: exactly zero past n = s, a product of ratios below
    assert duality.duality_coefficient(3.0, 100) == 0.0
    assert duality.duality_coefficient(100.0, 70) == pytest.approx(
        float(101 * mp.rf(-100, 70) / mp.factorial(71)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.3, 2.3, 7.7, 33.5])
def test_duality_coefficient_keeps_its_digits_far_out(s):
    # the log-gamma difference cancels like n eps: 7.2e-10 off at (-0.5, 1e6)
    n = 10 ** 6
    with mp.workdps(50):
        sm = mp.mpf(s)
        exact = float((1 + sm) * mp.gamma(n - sm) / (mp.gamma(-sm) * mp.gamma(n + 2)))
    assert duality.duality_coefficient(s, n) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda tol: nabla_from_delta_series(make_exponential(), 0.5, tol=tol),
    lambda tol: delta_from_nabla_series(make_exponential(), 0.5, tol=tol),
    lambda tol: rho(make_lomax(3.0), tol=tol),
], ids=["nabla_from_delta_series", "delta_from_nabla_series", "rho"])
def test_tolerances_are_checked(call, tol):
    with pytest.raises(DomainError, match="tol must be finite"):
        call(tol)


def test_pochhammer_ratio_tail_over_orders():
    orders = np.array([-0.5, -0.05, 0.5, 2.0, 3.3])
    got = pochhammer_ratio_tail(orders, 100)
    for s, v in zip(orders, got):
        with mp.workdps(30):
            sm = mp.mpf(float(s))
            exact = 0.0 if s == 2.0 else float(mp.quad(
                lambda x: mp.exp(mp.loggamma(x - sm) - mp.loggamma(x + 2)) / mp.gamma(-sm),
                [100.5, 1e4, mp.inf]))
        assert v == pytest.approx(exact, rel=1e-11, abs=1e-300), s
        assert pochhammer_ratio_tail(float(s), 100) == v
    # an integrand that grows like x^(1/2) has no tail: reported, not silenced
    with pytest.raises(NonIntegrableError):
        pochhammer_ratio_tail(orders, 100, lambda x: x * x)
