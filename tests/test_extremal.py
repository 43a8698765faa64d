import math

import mpmath as mp
import numpy as np
import pytest

from ctent import (
    DomainError,
    NonIntegrableError,
    affine,
    beta_trinomial_bound_check,
    bound_l2,
    bound_positive,
    bound_symmetric,
    delta_from_nabla_series,
    delta_quantile,
    delta_value,
    gamma_gap,
    gamma_gap_argmax,
    gamma_gap_root,
    gaussian_cumulative_entropy,
    make_logistic,
    make_power_uniform,
    make_s_logistic,
    nabla_value,
    negate,
    normal_spec,
)
from ctent.distributions import dist_mean, dist_std
from ctent.entropy import delta_quadrature
from ctent.extremal import SYM_BOUND_0, symmetric_upper

SYM_BOUND_HALF = 0.6948770627641564  # the symmetric bound at s = 1/2 (30-digit)


def test_bound_positive():
    b = bound_positive(0.7)
    assert b.upper == 1.0 and not b.attained and b.maximizer is None
    # the power family approaches the supremum: ratio = 1/(beta(1+s)+1)
    for s in (0.0, 1.0):
        d = make_power_uniform(1e-3)
        ratio = delta_value(d, s).value / dist_mean(d)
        assert ratio == pytest.approx(1.0 / (1e-3 * (1.0 + s) + 1.0), rel=1e-9)
    assert delta_value(make_power_uniform(1.0), 1.0).value / dist_mean(
        make_power_uniform(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-10)
    big = make_power_uniform(1e4)
    assert delta_value(big, 1.0).value / dist_mean(big) < 1e-3
    with pytest.raises(DomainError):
        bound_positive(-1.0)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0, -0.3])
def test_bound_l2_attained(s):
    b = bound_l2(s)
    assert b.upper == pytest.approx(1.0 / math.sqrt(2.0 * s + 1.0), rel=1e-14)
    assert b.attained
    val = delta_quadrature(b.maximizer, s).value
    assert val / dist_std(b.maximizer) == pytest.approx(b.upper, abs=1e-6)


def test_bound_l2_specifics():
    # s=2 with the power maximizer at beta = 1/2: ratio is 1/sqrt(5)
    d = make_power_uniform(0.5)
    ratio = delta_value(d, 2.0).value / dist_std(d)
    assert ratio == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)
    # the s=1 bound says E|X - X'| <= (2/sqrt(3)) sigma
    assert 2.0 * bound_l2(1.0).upper == pytest.approx(2.0 / math.sqrt(3.0))
    with pytest.raises(DomainError):
        bound_l2(-0.5)


def test_symmetric_bound_values():
    assert bound_symmetric(0.0).upper == pytest.approx(SYM_BOUND_0, rel=1e-14)
    assert bound_symmetric(1.0).upper == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert bound_symmetric(0.5).upper == pytest.approx(SYM_BOUND_HALF, rel=1e-12)
    # continuity through the near-zero branch switch at |s| = 1e-4
    eps = 1e-12
    assert symmetric_upper(1e-4 - eps) == pytest.approx(symmetric_upper(1e-4 + eps),
                                                        abs=1e-6)


def test_s_logistic_special_cases():
    for s in (1.0, 2.0):
        d = make_s_logistic(s, 1.0)
        us = np.linspace(0.05, 0.95, 19)
        assert np.allclose(np.asarray(d.quantile(us)), 2.0 * us - 1.0, atol=1e-12)
        assert d.variance == pytest.approx(1.0 / 3.0, rel=1e-10)
    d = make_s_logistic(0.5, 1.0)
    for x in (0.0, 0.3, 0.7):
        h = 1e-5
        dens = (float(d.cdf(x + h)) - float(d.cdf(x - h))) / (2.0 * h)
        assert dens == pytest.approx((1.0 - x * x) / math.sqrt(2.0 - x * x), abs=1e-7)
    with pytest.raises(DomainError):
        make_s_logistic(-0.6, 1.0)
    with pytest.raises(DomainError):
        make_s_logistic(1.0, 1.5)


def _s_logistic_variance_mp(s: float, beta: float):
    # 2 x the lower half at 40 digits, with u = w^k, k = ceil(1/(1 + 2s/beta)),
    # which leaves the integrand bounded at w = 0; a plain mp.quad over
    # (0, 1/2) misses the singularity u^(2s/beta) in the third digit
    with mp.workdps(40):
        s, beta = mp.mpf(s), mp.mpf(beta)
        k = mp.ceil(1 / (1 + 2 * s / beta))

        def f(w):
            return k * w ** (k - 1) * abs(w ** (k * s) - (1 - w ** k) ** s) ** (2 / beta)

        return float(2 * mp.quad(f, [0, mp.mpf(0.5) ** (1 / k)]))


@pytest.mark.parametrize("s,beta", [(-0.2, 0.5), (-0.4, 0.85), (-0.45, 0.95)])
def test_s_logistic_variance_near_its_threshold(s, beta):
    # QUADPACK over (0, 1) missed these by 8.5e-8, 7.7e-9 and 2.4e-8 relative
    want = _s_logistic_variance_mp(s, beta)
    assert make_s_logistic(s, beta).variance == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [-0.45, -0.3, 0.3, 1.0, 2.5])
def test_s_logistic_variance_at_beta_one(s):
    want = 2.0 / (2.0 * s + 1.0) - 2.0 * float(mp.beta(s + 1.0, s + 1.0))
    assert make_s_logistic(s, 1.0).variance == pytest.approx(want, abs=1e-13)


def test_s_logistic_variance_refusal_raises():
    # just above beta = 2|s| most of the mass of q(u)^2 lies below the least
    # normal double
    with pytest.raises(NonIntegrableError, match="variance"):
        make_s_logistic(-0.45, 0.9001)


@pytest.mark.parametrize("shape, s", [((-0.4, 0.3), 0.5), ((-0.4, 0.3), 1.0),
                                      ((-0.4, 0.3), 5.0), ((-0.3, 0.2), 5.0)])
def test_s_logistic_without_a_mean_is_divergent_at_every_order(shape, s):
    # beta <= |s|: tails like |x|^(-beta/|s|) have no mean, so both entropies
    # are infinite at every order, without an integral
    d = make_s_logistic(*shape)
    assert d.finiteness_threshold >= 0.0
    assert delta_value(d, s).divergent and nabla_value(d, s).divergent
    assert delta_from_nabla_series(d, s).divergent


def test_s_logistic_cdf_quantile_roundtrip():
    for s, beta in ((0.7, 1.0), (2.0, 0.5), (-0.3, 1.0), (-0.4, 0.8)):
        d = make_s_logistic(s, beta)
        for u in (0.02, 0.3, 0.5, 0.77, 0.99):
            x = float(d.quantile(u))
            assert float(d.cdf(x)) == pytest.approx(u, abs=1e-11)


@pytest.mark.parametrize("s", [-0.3, 0.5, 1.0, 2.0])
def test_symmetric_bound_attained(s):
    d = make_s_logistic(s, 1.0)
    ratio = delta_quantile(d, s).value / math.sqrt(d.variance)
    assert ratio == pytest.approx(bound_symmetric(s).upper, abs=1e-6)


def test_symmetric_bound_attained_at_zero():
    b = bound_symmetric(0.0)
    val = delta_value(b.maximizer, 0.0).value
    assert val / math.sqrt(b.maximizer.variance) == pytest.approx(b.upper, abs=1e-9)


def test_degeneration_along_beta():
    # the ratio squared collapses like beta (s+1)^2/(4s) at the family's
    # small-beta end
    s = 1.0
    ratios = []
    for beta in (0.2, 0.1, 0.05):
        d = make_s_logistic(s, beta)
        val = delta_quantile(d, s).value
        ratios.append(val ** 2 / d.variance)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 2.0 * 0.05 * (s + 1.0) ** 2 / (4.0 * s)


def test_symmetric_bound_monotone_decreasing():
    grid = np.linspace(-0.45, 6.0, 80)
    vals = [symmetric_upper(float(s)) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gamma_gap_values():
    assert gamma_gap(0.0) == pytest.approx(0.0, abs=1e-10)
    assert gamma_gap(1.0) == pytest.approx(0.0, abs=1e-10)
    assert gamma_gap(-1.5) == pytest.approx(4.25, rel=1e-12)  # 1/Gamma(-2) = 0
    argmax, peak = gamma_gap_argmax()
    assert argmax == pytest.approx(0.4671, abs=5e-4)
    assert peak == pytest.approx(0.0172, abs=5e-4)
    with pytest.raises(DomainError):
        gamma_gap(-2.0)


def test_gamma_gap_positive_on_grids():
    root = gamma_gap_root()
    for s in np.linspace(root + 1e-3, 4.0, 200):
        if min(abs(s), abs(s - 1.0)) < 0.02:
            continue
        assert gamma_gap(float(s)) > 0.0


def test_gamma_gap_root():
    root = gamma_gap_root()
    assert root == pytest.approx(-1.6609, abs=1e-3)
    assert gamma_gap(root) == pytest.approx(0.0, abs=1e-9)
    assert gamma_gap(root - 0.05) < 0.0


def test_gaussian_cumulative_entropy():
    v = gaussian_cumulative_entropy()
    assert v == pytest.approx(0.9033, abs=5e-4)
    assert 0.9030 < v < 0.9036
    assert v < SYM_BOUND_0
    nd = normal_spec()
    direct = delta_quadrature(nd, 0.0).value
    mirrored = delta_quadrature(negate(nd), 0.0).value
    assert direct == pytest.approx(v, abs=1e-8)
    assert mirrored == pytest.approx(v, abs=1e-8)  # symmetry


def test_corollary_equivalence_gap_vs_bounds():
    # positivity of the gap on (-1/2,0) u (0,1) is the same statement as the
    # strict symmetric < L2 bound comparison; both sides checked numerically
    for s in np.linspace(-0.45, 0.95, 29):
        s = float(s)
        if min(abs(s), abs(s - 1.0)) < 0.02:
            continue
        assert gamma_gap(s) > 0.0
        assert symmetric_upper(s) < bound_l2(s).upper


def test_dominance_sample():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        s = float(rng.uniform(-0.45, 3.0))
        beta = float(rng.uniform(0.2, 5.0))
        d = affine(make_power_uniform(beta), float(rng.uniform(0.1, 4.0)),
                   float(rng.uniform(0.0, 2.0)))
        assert delta_value(d, s).value / dist_mean(d) <= 1.0 + 1e-9
        assert delta_value(d, s).value / dist_std(d) <= bound_l2(s).upper + 1e-9
    for _ in range(10):
        s = float(rng.uniform(-0.45, 3.0))
        d = affine(make_logistic(), float(rng.uniform(0.1, 3.0)), 0.0)
        ratio = delta_value(d, s).value / dist_std(d)
        assert ratio <= symmetric_upper(s) + 1e-9


def test_beta_trinomial_comparison():
    for x in (0.25, 0.5, 0.9):
        rep = beta_trinomial_bound_check(x)
        assert rep["gap_bound_holds"]
        assert rep["cited_bound_holds"]
        assert rep["gap_bound_sharper"]
    near_one = beta_trinomial_bound_check(1.0 - 1e-9)
    assert near_one["gap_bound_rhs"] == pytest.approx(near_one["cited_bound_rhs"],
                                                      abs=1e-8)
    with pytest.raises(DomainError):
        beta_trinomial_bound_check(1.5)


def test_normal_quantile_accuracy():
    nd = normal_spec()
    for u in (1e-12, 1e-4, 0.3, 0.5, 0.9, 1.0 - 1e-10):
        x = float(nd.quantile(u))
        assert float(nd.cdf(x)) == pytest.approx(u, rel=1e-12, abs=1e-300)


def test_s_logistic_cdf_near_support_end():
    assert float(make_s_logistic(0.5, 1.0).cdf(1.0 - 1e-12)) == pytest.approx(1.0, abs=1e-12)
    d = make_s_logistic(0.125, 0.7)
    assert delta_quadrature(d, 0.5).value == pytest.approx(delta_quantile(d, 0.5).value, abs=1e-7)


def test_s_logistic_goes_to_quantile_space_with_its_threshold():
    assert delta_value(make_s_logistic(1.25, 0.5), 0.5).method == "quadrature_quantile"
    assert make_s_logistic(1.25, 0.5).finiteness_threshold is None
    d = make_s_logistic(-0.3, 1.0)
    assert d.finiteness_threshold == pytest.approx(-0.7, abs=1e-15)
    assert d.neg_finiteness_threshold == d.finiteness_threshold
    q = delta_value(d, -0.6)
    x = delta_quadrature(d, -0.6)
    assert not x.divergent
    assert q.value == pytest.approx(4.648978473, abs=1e-8)
    assert x.value == pytest.approx(q.value, abs=1e-7)
    assert delta_value(d, -0.75).divergent
    assert delta_quadrature(d, -0.75).divergent


def test_symmetric_upper_near_zero_against_mpmath():
    def exact(s):
        with mp.workdps(30):
            s = mp.mpf(s)
            u = 2 * mp.loggamma(s + 1) - mp.loggamma(2 * s + 1)
            return float((s + 1) / mp.sqrt(2 * s * s * (2 * s + 1)) * mp.sqrt(-mp.expm1(u)))

    for s in (9.9e-5, -9.9e-5, 5e-5, -5e-5, 1e-6):
        assert symmetric_upper(s) == pytest.approx(exact(s), abs=1e-10)


def test_symmetric_upper_against_mpmath_off_zero():
    # the log-gammas of the general formula cancel from |s| ~ 1e-2 down to
    # the near-zero branch; the Taylor series of u keeps the digits
    def exact(s):
        with mp.workdps(40):
            s = mp.mpf(s)
            u = 2 * mp.loggamma(s + 1) - mp.loggamma(2 * s + 1)
            return float((s + 1) / mp.sqrt(2 * s * s * (2 * s + 1)) * mp.sqrt(-mp.expm1(u)))

    for m in np.logspace(-4, -2, 25):
        for s in (float(m), -float(m), -1.01e-4, 3e-4):
            assert symmetric_upper(s) == pytest.approx(exact(s), abs=1e-10), s
    for s in (0.0999, 0.1, 0.1001, -0.1, 0.3, -0.45):
        assert symmetric_upper(s) == pytest.approx(exact(s), rel=1e-13), s


@pytest.mark.parametrize("s, beta", [(-0.3, 0.5), (-0.45, 0.5), (-0.25, 0.5)])
def test_s_logistic_infinite_variance(s, beta):
    # tails like |x|^(-beta/|s|) with beta/|s| <= 2 leave no second moment
    d = make_s_logistic(s, beta)
    assert d.variance == math.inf
    assert dist_std(d) == math.inf


def test_s_logistic_finite_variance_against_quantile_integral():
    s, beta = -0.2, 0.8  # tails like |x|^-4
    d = make_s_logistic(s, beta)
    with mp.workdps(30):
        q2 = lambda u: abs(u ** s - (1 - u) ** s) ** (2 / mp.mpf(beta))  # noqa: E731
        exact = 2 * mp.quad(q2, [0, mp.mpf(1) / 1000, mp.mpf(1) / 2])
    assert d.variance == pytest.approx(float(exact), rel=1e-8)
    assert dist_std(d) == pytest.approx(math.sqrt(float(exact)), rel=1e-8)
