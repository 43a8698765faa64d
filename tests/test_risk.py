import contextlib
import io
import math

import mpmath as mp
import numpy as np
import pytest

from ctent import entropy as entropy_module
from ctent import risk as risk_module
from ctent import (
    DivergentEntropy,
    DomainError,
    K_series,
    NonIntegrableError,
    PreconditionNotMet,
    affine,
    coherence_diagnostics,
    delta_value,
    make_distortion,
    make_exponential,
    make_frechet,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_power_uniform,
    make_uniform,
    mrl_representation,
    nabla_value,
    negate,
    relevation_risk,
    risk_axioms_check,
    risk_delta,
    risk_nabla,
)
from ctent.cli import main
from ctent.distributions import dist_mean, from_name, from_quantile
from ctent.extremal import make_s_logistic
from ctent.specfun import EULER_GAMMA, psi

K_HALF_AT_ONE = -0.2803723055467760  # s/(s+1) - psi(s+1) - gamma at s = 1/2


def _k_series_oracle(s, t, n_terms):
    a = 1.0
    acc = 0.0
    tn = 1.0
    for n in range(1, n_terms):
        a *= (n - 1.0 - s) / (n + 1.0)
        tn *= t
        acc += a * tn / n
    return acc


def test_K_series_examples():
    assert K_series(0.7, 0.0) == 0.0
    # integer order terminates: only the n=1 term survives at s=1
    assert K_series(1.0, 1.0) == pytest.approx(-0.5, abs=1e-12)
    assert K_series(1.0, 0.4) == pytest.approx(-0.2, abs=1e-13)
    assert K_series(0.5, 1.0) == pytest.approx(K_HALF_AT_ONE, abs=1e-12)
    assert K_series(0.5, 1.0) == pytest.approx(_k_series_oracle(0.5, 1.0, 2_000_000),
                                               abs=1e-9)
    for s in (-0.5, 0.4, 2.7):
        for t in (0.3, 0.91, 0.999):
            assert K_series(s, t) == pytest.approx(_k_series_oracle(s, t, 400_000),
                                                   abs=1e-10)
    # the raw series, summed in floats, misses 1e-12 here by 2.5x
    with mp.workdps(60):
        exact = mp.nsum(lambda n: mp.rf(-30, n) * mp.mpf(0.89) ** n
                        / (n * mp.factorial(n + 1)), [1, mp.inf])
    assert K_series(30.0, 0.89) == pytest.approx(float(exact), abs=1e-12)
    with pytest.raises(DomainError):
        K_series(0.5, 1.2)
    with pytest.raises(NonIntegrableError):
        K_series(40.0, 0.3)  # the dual kernel refuses the order below t = 1/2


@pytest.mark.parametrize("a,L,s", [(0.0, 1.0, 0.0), (2.0, 3.0, 1.0), (-1.0, 2.0, 0.5)])
def test_uniform_risk_closed_forms(a, L, s):
    u = make_uniform(a, L)
    assert risk_delta(u, s).value == pytest.approx(
        a + L * (s + 3.0) / (2.0 * (s + 2.0)), abs=1e-9)
    assert risk_nabla(u, s).value == pytest.approx(
        a + L * (2.0 * s + 3.0) / (2.0 * (s + 2.0)), abs=1e-9)


def test_risk_examples():
    ex = make_exponential()
    assert risk_delta(ex, 1000.0).value == pytest.approx(1.0, abs=2e-3)
    assert risk_nabla(ex, 0.0).value == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(DivergentEntropy):
        risk_delta(make_lomax(2.0), -0.6)


def test_risk_matches_mean_plus_mirror_entropy():
    for d in (make_exponential(), make_lomax(3.0), make_power_uniform(2.0),
              make_logistic(), make_gumbel()):
        for s in (-0.3, 0.0, 1.0, 2.5):
            rd = risk_delta(d, s)
            ref = dist_mean(d) + delta_value(negate(d), s).value
            assert rd.value == pytest.approx(ref, abs=rd.abs_error_bound + 1e-9)
            rn = risk_nabla(d, s)
            refn = dist_mean(d) + nabla_value(negate(d), s).value
            assert rn.value == pytest.approx(refn, abs=rn.abs_error_bound + 1e-9)


def test_risk_monotone_in_order_and_pinned():
    u = make_uniform(0.0, 1.0)
    grid = (-0.5, 0.0, 0.5, 1.0, 3.0, 10.0)
    deltas = [risk_delta(u, s).value for s in grid]
    nablas = [risk_nabla(u, s).value for s in grid]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert all(b > a for a, b in zip(nablas, nablas[1:]))
    for v in deltas + nablas:
        assert 0.5 - 1e-9 <= v <= 1.0 + 1e-9  # between the mean and max


def test_mrl_representation_examples():
    assert mrl_representation(make_exponential(), 0.0, "delta").value == pytest.approx(
        2.0, abs=1e-6)
    u = make_uniform(0.0, 1.0)
    assert mrl_representation(u, 1.0, "delta").value == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert mrl_representation(u, 0.0, "nabla").value == pytest.approx(
        risk_delta(u, 0.0).value, abs=1e-6)
    with pytest.raises(DomainError):
        mrl_representation(u, 0.0, "bogus")


@pytest.mark.parametrize("d", [make_exponential(), make_power_uniform(1.0),
                               make_lomax(3.0), make_logistic(),
                               make_frechet(2.5), make_lomax(1.5), make_lomax(1.05),
                               make_s_logistic(-0.2, 0.8),
                               risk_module._quantile_mixture(
                                   make_power_uniform(1.0),
                                   affine(make_exponential(), 1.5, 0.0), 0.3)],
                         ids=lambda d: d.label())
@pytest.mark.parametrize("s", [0.0, 0.8, 2.0])
def test_mrl_agrees_with_distortion(d, s):
    got = mrl_representation(d, s, "delta")
    want = risk_delta(d, s)
    assert got.value == pytest.approx(want.value,
                                      abs=got.abs_error_bound + want.abs_error_bound)
    gotn = mrl_representation(d, s, "nabla")
    wantn = risk_nabla(d, s)
    assert gotn.value == pytest.approx(wantn.value,
                                       abs=gotn.abs_error_bound + wantn.abs_error_bound)


@pytest.mark.parametrize("d, s, which", [
    (make_lomax(1.5), -0.3, "delta"), (make_lomax(1.5), -0.3, "nabla"),
    (make_frechet(2.5), -0.3, "nabla"),
    (make_lomax(1.05), 0.5, "delta"), (make_lomax(1.05), 0.5, "nabla"),
    (make_s_logistic(-0.2, 0.8), 0.5, "delta"), (make_s_logistic(-0.2, 0.8), 0.5, "nabla"),
], ids=lambda x: x.label() if hasattr(x, "label") else str(x))
def test_mrl_answers_where_nested_quadpack_refused(d, s, which):
    # each of these raised while the partial mean was an inner QUADPACK
    # integral, as did the heavy laws of test_mrl_agrees_with_distortion
    got = mrl_representation(d, s, which)
    want = (risk_delta if which == "delta" else risk_nabla)(d, s)
    assert got.value == pytest.approx(want.value,
                                      abs=got.abs_error_bound + want.abs_error_bound)


@pytest.mark.parametrize("s", [0.0, 0.8, 2.0])
def test_mrl_of_a_law_given_by_its_quantile_alone(s):
    # a one-argument quantile is NaN where v = 1 - u < 2^-53; the catalog
    # law's risk is the reference
    d = from_quantile("lomax_quantile", make_lomax(3.0).quantile, (0.0, math.inf))
    for which, risk in (("delta", risk_delta), ("nabla", risk_nabla)):
        got, want = mrl_representation(d, s, which), risk(make_lomax(3.0), s)
        assert got.value == pytest.approx(want.value,
                                          abs=got.abs_error_bound + want.abs_error_bound)


@pytest.mark.parametrize("s, which, want", [(0.8, "nabla", 11.6642767652), (0.0, "delta", 8.0)])
def test_mrl_representation_answers_heavy_lomax(s, which, want):
    # q(1) = inf, and failed inner integrals, once stopped the nested QUADPACK form here
    got = mrl_representation(make_lomax(1.5), s, which)
    assert got.value == pytest.approx(want, abs=got.abs_error_bound)


@pytest.mark.parametrize("beta, s", [(1.05, -0.3), (1.5, -0.4)])
def test_mrl_representation_reports_tanh_sinh_failures(beta, s):
    # the mirrored law's entropy diverges here: the integrand grows faster
    # than 1/v towards u = 1, and tanh-sinh's refusal raises
    with pytest.raises(NonIntegrableError, match="does not converge"):
        mrl_representation(make_lomax(beta), s, "delta")


def test_mrl_representation_makes_no_quadpack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mean-residual-life form reached QUADPACK")

    monkeypatch.setattr(entropy_module, "quad", refuse)
    for which, risk in (("delta", risk_delta), ("nabla", risk_nabla)):
        got, want = mrl_representation(make_lomax(3.0), 0.5, which), risk(make_lomax(3.0), 0.5)
        assert got.value == pytest.approx(want.value,
                                          abs=got.abs_error_bound + want.abs_error_bound)


def test_distortion_factories_normalised():
    for label, sn in (("h_s", 0.5), ("h_s", -0.5), ("k_s", 2.0),
                      ("h_tilde_s", 1.5), ("H_tilde_n", 2)):
        f = make_distortion(label, sn)
        assert float(f.eval(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(f.eval(1.0)) == pytest.approx(1.0, abs=1e-12)
    # the order-0 generalized-CRE map is the exception: it doubles
    assert float(make_distortion("h_tilde_s", 0.0).eval(1.0)) == pytest.approx(2.0)


def test_coherence_diagnostics():
    for s in (-0.5, 0.5, 1.0, 3.0):
        for label in ("h_s", "k_s"):
            rep = coherence_diagnostics(make_distortion(label, s))
            assert rep["monotone_increasing"], (label, s)
            assert rep["concave"], (label, s)
    rep = coherence_diagnostics(make_distortion("h_tilde_s", 0.5))
    assert not rep["monotone_increasing"]
    assert rep["first_monotonicity_violation"] is not None
    rep = coherence_diagnostics(make_distortion("h_tilde_s", 2.0))
    assert not rep["concave"]
    rep = coherence_diagnostics(make_distortion("H_tilde_n", 3))
    assert rep["monotone_increasing"]
    assert rep["deriv1_positive_decreasing"]


def test_distortion_derivatives_match_finite_differences():
    t = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    for label, sn in (("h_s", 0.7), ("k_s", 0.7), ("k_s", -0.4),
                      ("h_tilde_s", 2.0), ("H_tilde_n", 2)):
        f = make_distortion(label, sn)
        fd1 = (np.asarray(f.eval(t + h)) - np.asarray(f.eval(t - h))) / (2 * h)
        assert np.allclose(np.asarray(f.deriv1(t)), fd1, rtol=1e-5, atol=1e-6)
        fd2 = (np.asarray(f.deriv1(t + h)) - np.asarray(f.deriv1(t - h))) / (2 * h)
        assert np.allclose(np.asarray(f.deriv2(t)), fd2, rtol=1e-4, atol=1e-5)


def test_risk_axioms():
    ex = make_exponential()
    fast = affine(ex, 0.5, 0.0)  # rate-2 exponential, stochastically below
    rep = risk_axioms_check(fast, ex, 0.5, a=2.0, b=3.0)
    assert all(v for k, v in rep.items() if k.endswith("_ok"))
    rep2 = risk_axioms_check(make_uniform(0.0, 1.0), make_uniform(0.2, 1.0), 1.0,
                             a=1.5, b=-1.0)
    assert all(v for k, v in rep2.items() if k.endswith("_ok"))


def test_risk_axioms_precondition():
    # interleaved supports admit no stochastic order
    with pytest.raises(PreconditionNotMet):
        risk_axioms_check(make_uniform(0.4, 0.2), make_uniform(0.0, 1.0), 1.0,
                          a=1.0, b=0.0)


def test_interleaved_uniform_counterexample():
    # ordered risk values without any stochastic ordering: with b > a and
    # L = M + 2(b-a) the (b, M) uniform sits strictly below the (a, L) one
    a, b, M = 0.0, 1.0, 1.5
    L = M + 2.0 * (b - a)
    wide = make_uniform(a, L)
    narrow = make_uniform(b, M)
    assert a < b < b + M < a + L
    for s in (0.0, 1.0, 2.0):
        assert risk_delta(narrow, s).value < risk_delta(wide, s).value
        assert risk_nabla(narrow, s).value < risk_nabla(wide, s).value
    with pytest.raises(PreconditionNotMet):
        risk_axioms_check(narrow, wide, 1.0, a=1.0, b=0.0)


def test_hazard_rate_order_consequence():
    # exponentials are hazard-rate ordered by rate and DFR, so the mirrored
    # entropy is ordered at every order
    lam1, lam2 = 2.0, 1.0  # lam1 >= lam2
    x = affine(make_exponential(), 1.0 / lam1, 0.0)
    y = affine(make_exponential(), 1.0 / lam2, 0.0)
    for s in (-0.5, 0.0, 0.5, 1.0, 3.0):
        dx = delta_value(negate(x), s).value
        dy = delta_value(negate(y), s).value
        assert dx <= dy + 1e-12


def test_relevation_risk_examples():
    ex = make_exponential()
    assert relevation_risk(ex, 1).value == pytest.approx(1.0, abs=1e-9)
    assert relevation_risk(ex, 2).value == pytest.approx(2.0, abs=1e-9)
    assert relevation_risk(ex, 4).value == pytest.approx(4.0, abs=1e-8)
    u = relevation_risk(make_power_uniform(1.0), 1)
    assert u.value == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(DomainError):
        relevation_risk(make_logistic(), 2)
    with pytest.raises(DomainError):
        relevation_risk(ex, 0)
    # E[T_1] is the mean: Gamma(1 - 1/b) for Frechet(b)
    for b in (1.6, 3.0):
        assert relevation_risk(make_frechet(b), 1).value == pytest.approx(
            math.gamma(1.0 - 1.0 / b), abs=1e-9)
    # a support starting at 2 adds 2 to every failure time
    shifted = affine(ex, 1.0, 2.0)
    assert relevation_risk(shifted, 1).value == pytest.approx(3.0, abs=1e-9)
    assert relevation_risk(shifted, 2).value == pytest.approx(4.0, abs=1e-9)


@pytest.mark.parametrize("c", [0.65, 0.85, 1.275, 1.725])
def test_risk_nabla_rescaled_exponential(c):
    # sf(x) reaches subnormal values inside the distortion integral; the
    # dual kernel must stay finite there
    r = risk_nabla(affine(make_exponential(), c, 0.0), 0.5)
    assert r.value == pytest.approx(c * (1.0 + psi(2.5) + EULER_GAMMA), abs=1e-7)
    assert math.isfinite(r.abs_error_bound)


@pytest.mark.parametrize("c", [1e-6, 1e6])
@pytest.mark.parametrize("base", [make_exponential, make_logistic, lambda: make_lomax(3.0)],
                         ids=["exponential", "logistic", "lomax(3)"])
def test_risk_of_extreme_scales_matches_mean_plus_mirror(base, c):
    # QUADPACK once returned 0.0 at c = 1e-6 and -0.99999 at c = 1e6 here
    d = affine(base(), c, 0.0)
    rd = risk_delta(d, 0.5)
    assert rd.value == pytest.approx(dist_mean(d) + delta_value(negate(d), 0.5).value,
                                     abs=rd.abs_error_bound)
    rn = risk_nabla(d, 0.5)
    assert rn.value == pytest.approx(dist_mean(d) + nabla_value(negate(d), 0.5).value,
                                     abs=rn.abs_error_bound)


@pytest.mark.parametrize("scale,shift", [(1.0, 1e6), (1e-6, 5.0), (1e3, -1e7)])
@pytest.mark.parametrize("base", [make_logistic, make_gumbel], ids=["logistic", "gumbel"])
def test_risk_of_shifted_laws_matches_mean_plus_mirror(base, scale, shift):
    # split at x = 0, the distortion integral of affine(logistic, 1, 1e6)
    # gave -1.0 for 1 000 001.23
    d = affine(base(), scale, shift)
    for risk, mirrored in ((risk_delta, delta_value), (risk_nabla, nabla_value)):
        r = risk(d, 0.5)
        assert abs(r.value - (dist_mean(d) + mirrored(negate(d), 0.5).value)) <= r.abs_error_bound


def test_risk_refuses_a_tail_lost_to_underflow():
    # sf underflows near x = 745 while h_s(sf) ~ sf^(1+s) is still of order one
    with pytest.raises(NonIntegrableError, match="lost its tail"):
        risk_delta(make_exponential(), -0.999999)


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_h_tilde_distortion_against_mpmath(n):
    t = np.array([1e-300, 1e-12, 0.2, 0.5, 0.9, 1.0 - 1e-9])
    got = np.asarray(make_distortion("H_tilde_n", n).eval(t), dtype=float)
    for ti, g in zip(t.tolist(), got.tolist()):
        ln = -mp.log(mp.mpf(ti))
        want = mp.mpf(ti) * mp.fsum(ln ** k / mp.factorial(k) for k in range(n + 1))
        assert g == pytest.approx(float(want), rel=1e-13)


def test_relevation_risk_at_many_units():
    # the partial sum's k! once overflowed a float past k = 170
    assert relevation_risk(make_exponential(), 200).value == pytest.approx(200.0, rel=1e-12)


@pytest.mark.parametrize("label,s", [("k_s", -0.3), ("k_s", 0.5), ("k_s", 2.0),
                                     ("h_s", 0.5), ("h_s", 2.0)])
def test_heavy_tail_risk_converges_on_tanh_sinh(monkeypatch, label, s):
    # lomax(1.05)'s integrand decays like z^-1.05, which tanh-sinh does not
    # finish on (0, inf); the power substitution answers it, never QUADPACK
    def refuse(*args, **kwargs):
        raise AssertionError("the Wang integral reached QUADPACK")

    monkeypatch.setattr(entropy_module, "quad", refuse)
    d = make_lomax(1.05)
    risk, mirrored = (risk_nabla, nabla_value) if label == "k_s" else (risk_delta, delta_value)
    r = risk(d, s)
    assert r.value == pytest.approx(dist_mean(d) + mirrored(negate(d), s).value,
                                    abs=r.abs_error_bound)


@pytest.mark.parametrize("beta", [1.01, 1.02, 1.03, 1.2])
@pytest.mark.parametrize("n", [1, 2])
def test_relevation_risk_of_heavy_lomax(beta, n):
    # E[T_1] = 1/(beta-1), E[T_2] = E[T_1] + beta/(beta-1)^2.  At beta = 1.01
    # about 1e-3 of the mass lies past x = 1e300, added as the power-law tail:
    # exact for sf alone; under the log factor of n = 2 its bound is loose
    want = 1.0 / (beta - 1.0) + (n == 2) * beta / (beta - 1.0) ** 2
    r = relevation_risk(make_lomax(beta), n)
    assert r.value == pytest.approx(want, abs=r.abs_error_bound)
    if n == 1:
        assert r.abs_error_bound < 1e-9 * want


# Every Wang integral of the test suite that tanh-sinh refused on (0, inf),
# with how it ends: the exception, or None for a value within its bound of
# mean + the mirrored entropy; and the exit code of ``ctent risk``, which
# forms risk_delta and then risk_nabla.  lomax(1.00002) raised OracleMismatch
# while a QUADPACK fallback integrated the side: its value was 19 034 for a
# risk of 1.3e9, most of whose mass lies past the largest double
_REFUSED_SIDES = [
    ("exponential", {}, "h_s", -0.999999, NonIntegrableError, 3),
    ("logistic", {}, "h_s", -0.999999, NonIntegrableError, 3),
    ("normal", {}, "h_s", -0.999999, NonIntegrableError, 3),
    ("gumbel", {}, "h_s", -0.999999, NonIntegrableError, 3),
    ("lomax", {"beta": 1.05}, "k_s", -0.3, None, 2),
    ("lomax", {"beta": 1.05}, "k_s", 0.5, None, 0),
    ("lomax", {"beta": 1.05}, "k_s", 2.0, None, 0),
    ("reverse_weibull", {"beta": 0.005}, "h_s", 0.5, NonIntegrableError, 3),
    ("lomax", {"beta": 1.0000230261160268}, "h_s", 1e-05, NonIntegrableError, 3),
    ("reverse_weibull", {"beta": 3.0130304289373933e-115}, "h_s", 4587.502386396469,
     NonIntegrableError, 3),
]


@pytest.mark.parametrize("name,params,label,s,raises,code", _REFUSED_SIDES)
def test_sides_tanh_sinh_refused_on_the_half_line(name, params, label, s, raises, code):
    d = from_name(name, params)
    risk, mirrored = (risk_nabla, nabla_value) if label == "k_s" else (risk_delta, delta_value)
    if raises is None:
        r = risk(d, s)
        assert r.value == pytest.approx(dist_mean(d) + mirrored(negate(d), s).value,
                                        abs=r.abs_error_bound)
    else:
        with pytest.raises(raises):
            risk(d, s)
    argv = ["risk", "--dist", name, "--s", repr(s)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code


def test_risk_nabla_makes_no_scalar_kernel_calls(monkeypatch):
    def refuse(u, s):
        raise AssertionError("scalar dual_kernel called")

    monkeypatch.setattr(entropy_module, "dual_kernel", refuse)
    monkeypatch.setattr(risk_module, "dual_kernel", refuse)
    assert risk_nabla(make_exponential(), 0.5).value == pytest.approx(
        1.0 + psi(2.5) + EULER_GAMMA, abs=1e-9)
    assert risk_nabla(make_uniform(2.0, 3.0), 1.0).value == pytest.approx(4.5, abs=1e-9)
    assert math.isfinite(risk_nabla(make_logistic(), -0.3).value)


def test_risk_non_finite_integral_raises():
    # the dual kernel's series overflows at this order, so the integrand is NaN
    with pytest.raises(NonIntegrableError):
        risk_nabla(make_exponential(), 1e6)
