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
    nabla_from_delta_series,
    nabla_value,
    normal_spec,
)
from ctent import duality
from ctent.series import pochhammer_ratio_tail
from ctent.specfun import EULER_GAMMA, psi, psi1


def test_series_transform_invariants():
    for s in (-0.5, 0.3, 2.2):
        tr = SeriesTransform.build(s, 4000)
        assert tr.coefficients[0] == pytest.approx(1.0 + s, abs=1e-15)
        assert tr.tail_bound < 0.2
    pmf_tr = SeriesTransform.build(-0.5, 200_000)
    assert np.all(pmf_tr.coefficients > 0.0)
    assert float(np.sum(pmf_tr.coefficients)) + pmf_tr.tail_bound == pytest.approx(
        1.0, abs=1e-6)


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


def test_truncation_cap_raises(monkeypatch):
    monkeypatch.setattr(duality, "_MAX_TERMS", 50)
    with pytest.raises(TruncationNotConverged):
        nabla_from_delta_series(make_exponential(), -0.3, tol=1e-12)


def test_series_truncation_index_pinned():
    # the block summation keeps the term-by-term tail test, so the series
    # stops at the same n as a loop over single terms
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
    assert seen == [395313]
    assert got.value == pytest.approx(nabla_value(make_lomax(3.0), -0.3).value, abs=1e-7)


def test_series_in_blocks_for_laws_without_closed_forms():
    # a law without closed forms is evaluated a block of n at a time, by one
    # vectorised quantile-space integral, and stops where the law with
    # closed forms stops
    d = replace(make_exponential(), closed_delta=None, closed_nabla=None)
    calls = []

    def values(n0, n1):
        calls.append((n0, n1))
        return duality._sequence(d, "delta")(n0, n1)

    val, _, last = duality._signed_series(1.5, values, 1e-4, monotone_bound=True)
    assert calls == [(0, 64)]
    ref, _, ref_last = duality._signed_series(1.5, duality._sequence(make_exponential(), "delta"),
                                              1e-4, monotone_bound=True)
    assert last == ref_last
    assert val == pytest.approx(ref, rel=1e-12)


def test_normal_series_stops_where_single_values_stopped():
    # the normal law has no closed forms: its delta_n come a block at a
    # time from one vectorised quantile integral, and the series stops at the
    # n and the value it reached with one integral per n
    seen = []
    inner = duality._signed_series

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out[2])
        return out

    duality._signed_series = spy
    try:
        got = nabla_from_delta_series(normal_spec(), -0.3, tol=1e-6)
    finally:
        duality._signed_series = inner
    assert seen == [3776]
    assert got.value == pytest.approx(0.7385159635560782, rel=1e-12)


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
