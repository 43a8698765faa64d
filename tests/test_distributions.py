import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import catalog_members, finite_order
from ctent import (
    DivergentEntropy,
    DomainError,
    EmpiricalSample,
    NonIntegrableError,
    affine,
    available_distributions,
    delta_quadrature,
    from_name,
    make_exponential,
    make_frechet,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_reflected_power,
    make_reverse_weibull,
    make_s_logistic,
    negate,
    normal_spec,
    sample,
)
from ctent.distributions import _REGISTRY, dist_mean, dist_std
from ctent.risk import _quantile_mixture

PI2_6 = math.pi ** 2 / 6.0


def interior_grid(d, n=41):
    return np.asarray(d.quantile(np.linspace(0.01, 0.99, n)), dtype=float)


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_cdf_quantile_roundtrip(d):
    us = np.linspace(0.01, 0.99, 33)
    xs = np.asarray(d.quantile(us), dtype=float)
    back = np.asarray(d.cdf(xs), dtype=float)
    assert np.allclose(back, us, atol=1e-10)
    assert np.all(np.diff(xs) >= 0.0)


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_cdf_monotone_and_sf_complement(d):
    xs = interior_grid(d)
    cd = np.asarray(d.cdf(xs), dtype=float)
    assert np.all(np.diff(cd) >= -1e-12)
    assert np.allclose(cd + np.asarray(d.sf(xs), dtype=float), 1.0, atol=1e-12)


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_mean_matches_quantile_integral(d):
    val, _ = quad(lambda u: float(d.quantile(u)), 0.0, 1.0, limit=300)
    assert val == pytest.approx(d.mean, abs=1e-8)


@pytest.mark.parametrize("d", [m for m in catalog_members() if m.variance is not None],
                         ids=lambda d: d.label())
def test_variance_matches_quantile_integral(d):
    m = d.mean
    val, _ = quad(lambda u: (float(d.quantile(u)) - m) ** 2, 0.0, 1.0, limit=400)
    assert val == pytest.approx(d.variance, rel=1e-6)


def test_power_uniform_examples():
    d = make_power_uniform(1.0)
    assert d.closed_delta(0.0) == pytest.approx(0.25, abs=1e-14)
    assert d.closed_delta(1.0) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert d.closed_delta(1e6) < 1e-5  # vanishes at large order


def test_reflected_power_examples():
    assert make_reflected_power(1.0).closed_delta(0.0) == pytest.approx(0.25, abs=1e-12)
    # harmonic form at beta = 1/n: (1/(n+1)) (1/2 + ... + 1/(n+1))
    assert make_reflected_power(0.5).closed_delta(0.0) == pytest.approx(5.0 / 18.0, abs=1e-12)
    d = make_reflected_power(2.0)
    assert d.closed_delta(0.0) == pytest.approx(d.closed_nabla(0.0), abs=1e-12)


def test_exponential_examples():
    d = make_exponential()
    assert d.closed_delta(0.0) == pytest.approx(PI2_6 - 1.0, abs=1e-12)
    assert d.closed_delta(1.0) == pytest.approx(0.5, abs=1e-13)
    assert d.closed_nabla(0.0) == pytest.approx(d.closed_delta(0.0), abs=1e-12)


def test_lomax_examples():
    d = make_lomax(2.0)
    assert d.closed_delta(0.0) == pytest.approx(0.7725887222397812, abs=1e-12)
    # decays like s^{-(1-1/beta)} at large order
    assert make_lomax(5.0).closed_delta(1e5) < 2e-4
    with pytest.raises(DomainError):
        make_lomax(1.0)


def test_negative_lomax_examples():
    d = make_negative_lomax(2.0)
    assert d.closed_delta(0.0) == pytest.approx(2.0, abs=1e-13)
    assert make_negative_lomax(4.0).closed_delta(0.0) == pytest.approx(4.0 / 9.0, abs=1e-13)
    assert d.finiteness_threshold == pytest.approx(-0.5)
    with pytest.raises(DivergentEntropy):
        d.closed_delta(-0.5)  # boundary order is already divergent


def test_negative_exponential_examples():
    d = make_negative_exponential()
    assert d.closed_delta(0.0) == 1.0
    assert d.closed_delta(1.0) == 0.5
    assert d.closed_nabla(0.0) == pytest.approx(1.0, abs=1e-13)


def _slots_at(d, orders):
    # each closed slot's value at each order, or the error it raises there
    out = []
    for slot in ("closed_delta", "closed_nabla", "neg_closed_delta", "neg_closed_nabla"):
        f = getattr(d, slot)
        for s in orders:
            try:
                out.append(f(s))
            except (DivergentEntropy, NonIntegrableError) as exc:
                out.append(type(exc))
    return out


@pytest.mark.parametrize("mirror,partner", [
    (make_negative_exponential(), make_exponential()),
    (make_negative_lomax(1.05), make_lomax(1.05)),
    (make_negative_lomax(2.0), make_lomax(2.0)),
    (make_negative_lomax(4.5), make_lomax(4.5)),
], ids=lambda d: d.label())
def test_mirror_laws_are_renamed_negations(mirror, partner):
    neg = negate(partner)
    assert mirror.support == neg.support
    assert (mirror.mean, mirror.variance) == (neg.mean, neg.variance)
    assert mirror.finiteness_threshold == neg.finiteness_threshold
    assert mirror.neg_finiteness_threshold == neg.neg_finiteness_threshold
    orders = (-0.9, -0.5, -0.2, 0.0, 1e-5, 0.5, 1.0, 2.5, 10.0)
    assert _slots_at(mirror, orders) == _slots_at(neg, orders)
    x = np.concatenate([-np.logspace(-300, 300, 601), np.linspace(-5.0, 5.0, 101),
                        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324]])
    for f, g in ((mirror.cdf, neg.cdf), (mirror.sf, neg.sf)):
        assert np.asarray(f(x)).tobytes() == np.asarray(g(x)).tobytes()
    # the own quantile keeps u below 1e-16, where -q(1 - u) cannot
    with np.errstate(divide="ignore"):  # q(1) = inf
        assert neg.quantile(1e-20) == -math.inf
    assert math.isfinite(mirror.quantile(1e-20))
    if mirror.name == "negative_exponential":
        assert mirror.quantile(1e-20) == math.log(1e-20)


def _registered():
    shapes = {"beta": 2.5, "a": -1.0, "length": 3.0}
    for name in available_distributions():
        yield from_name(name, {k: shapes[k] for k in _REGISTRY[name][1]})


@pytest.mark.parametrize("d", list(_registered()), ids=lambda d: d.name)
def test_cdf_and_sf_are_nan_at_nan(d):
    for x in (math.nan, np.array([math.nan, 0.5])):
        assert np.isnan(np.asarray(d.cdf(x))).flat[0]
        assert np.isnan(np.asarray(d.sf(x))).flat[0]


@pytest.mark.parametrize("d", list(_registered()), ids=lambda d: d.name)
def test_cdf_and_sf_exact_at_and_beyond_finite_ends(d):
    lo, hi = d.support
    if math.isfinite(lo):
        x = np.array([lo, lo - 1e-300, lo - 1.0, lo - 1e300, -math.inf])
        assert np.all(np.asarray(d.cdf(x)) == 0.0) and np.all(np.asarray(d.sf(x)) == 1.0)
        assert d.cdf(lo) == 0.0 and d.sf(lo) == 1.0
    if math.isfinite(hi):
        x = np.array([hi, hi + 1e-300, hi + 1.0, hi + 1e300, math.inf])
        assert np.all(np.asarray(d.cdf(x)) == 1.0) and np.all(np.asarray(d.sf(x)) == 0.0)
        assert d.cdf(hi) == 1.0 and d.sf(hi) == 0.0


def test_frechet_examples():
    d = make_frechet(2.0)
    assert d.closed_delta(0.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    assert d.closed_delta(1.0) == pytest.approx(math.sqrt(math.pi) * (math.sqrt(2.0) - 1.0),
                                                rel=1e-12)
    # order -> -1 recovers the mean (rate eps^{1/beta})
    assert d.closed_delta(-1.0 + 1e-9) == pytest.approx(d.mean, rel=1e-4)
    with pytest.raises(DomainError):
        make_frechet(0.9)


def test_reverse_weibull_examples():
    assert make_reverse_weibull(1.0).closed_delta(0.0) == pytest.approx(1.0, rel=1e-12)
    assert make_reverse_weibull(2.0).closed_delta(0.0) == pytest.approx(
        math.sqrt(math.pi) / 4.0, rel=1e-12)
    assert make_reverse_weibull(1.0).closed_delta(1.0) == pytest.approx(0.5, rel=1e-12)


def test_gumbel_examples():
    d = make_gumbel()
    assert d.closed_delta(0.0) == 1.0
    assert d.closed_delta(1.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert d.closed_delta(3.0) == pytest.approx(math.log(4.0) / 3.0, rel=1e-14)


def test_logistic_examples():
    d = make_logistic()
    assert d.closed_delta(0.0) == pytest.approx(PI2_6, abs=1e-12)
    assert d.closed_delta(1.0) == pytest.approx(1.0, abs=1e-13)
    assert d.variance == pytest.approx(math.pi ** 2 / 3.0)
    # the lower tail keeps its relative accuracy, and so does x-space delta
    # near s = -1, which sums F^(1+s) out to x ~ -700
    for x in (-5.0, -40.0, -700.0):
        assert d.cdf(x) == pytest.approx(math.exp(x) / (1.0 + math.exp(x)), rel=1e-15)
        assert d.sf(-x) == d.cdf(x)
    ev = delta_quadrature(d, -0.9)
    assert abs(ev.value - d.closed_delta(-0.9)) <= ev.abs_error_bound


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_dual_coincidence_at_zero(d):
    assert d.closed_nabla(0.0) == pytest.approx(d.closed_delta(0.0), abs=1e-10)


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_closed_forms_monotone_in_order(d):
    grid = [s for s in (-0.6, -0.3, 0.0, 0.4, 1.0, 2.5, 6.0) if finite_order(d, s)]
    deltas = [d.closed_delta(s) for s in grid]
    nablas = [d.closed_nabla(s) for s in grid]
    assert all(b < a + 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(b > a - 1e-12 for a, b in zip(nablas, nablas[1:]))


@pytest.mark.parametrize("d", [m for m in catalog_members()
                               if math.isfinite(m.support[0])],
                         ids=lambda d: d.label())
def test_delta_limit_at_minus_one(d):
    # convergence rate is eps^{1/beta} for the heavy-tailed members, so the
    # second point uses a much smaller eps
    target = d.mean - d.support[0]
    err1 = abs(d.closed_delta(-1.0 + 1e-3) - target)
    err2 = abs(d.closed_delta(-1.0 + 1e-9) - target)
    assert err2 < err1
    assert err2 < 1e-2 * max(1.0, target)


def test_rescaled_lomax_converges_to_exponential():
    beta = 1e5
    d = affine(make_lomax(beta), beta, 0.0)
    ex = make_exponential()
    for s in (0.0, 0.5, 1.0, 2.0):
        assert d.closed_delta(s) == pytest.approx(ex.closed_delta(s), abs=5e-5)
        assert d.closed_nabla(s) == pytest.approx(ex.closed_nabla(s), abs=5e-5)


def test_rescaled_reflected_power_converges_to_exponential():
    beta = 1e5
    d = affine(make_reflected_power(beta), beta, 0.0)
    ex = make_exponential()
    for s in (0.0, 1.0, 2.0):
        assert d.closed_delta(s) == pytest.approx(ex.closed_delta(s), abs=5e-5)


def test_rescaled_frechet_converges_to_gumbel():
    # beta (X - 1) with X Frechet(beta) tends to the Gumbel law
    beta = 1e5
    d = affine(make_frechet(beta), beta, -beta)
    gu = make_gumbel()
    for s in (0.0, 1.0, 3.0):
        assert d.closed_delta(s) == pytest.approx(gu.closed_delta(s), abs=5e-5)


def test_affine_examples():
    ex = make_exponential()
    assert affine(ex, 2.0, 0.0).closed_delta(0.0) == pytest.approx(
        2.0 * (PI2_6 - 1.0), abs=1e-12)
    lg = make_logistic()
    a = math.sqrt(3.0) / math.pi
    assert affine(lg, a, 0.0).closed_delta(0.0) == pytest.approx(
        math.sqrt(3.0) * math.pi / 6.0, abs=1e-12)
    shifted = affine(ex, 1.0, 5.0)
    assert shifted.closed_delta(0.7) == pytest.approx(ex.closed_delta(0.7), abs=1e-14)
    with pytest.raises(DomainError):
        affine(ex, -1.0, 0.0)


def test_negate_examples():
    ex = make_exponential()
    assert negate(ex).closed_delta(0.0) == 1.0
    lm = make_lomax(2.5)
    xs = np.linspace(-40.0, 40.0, 101)
    assert np.allclose(np.asarray(negate(negate(lm)).cdf(xs), dtype=float),
                       np.asarray(lm.cdf(xs), dtype=float), atol=1e-14)
    lg = make_logistic()
    for s in (0.0, 0.7, 2.0):
        assert negate(lg).closed_delta(s) == pytest.approx(lg.closed_delta(s), abs=1e-13)


def test_negate_carries_thresholds():
    lm = make_lomax(2.0)
    n = negate(lm)
    assert n.finiteness_threshold == pytest.approx(-0.5)
    with pytest.raises(DivergentEntropy):
        n.closed_delta(-0.6)
    fr = make_frechet(2.0)
    assert negate(fr).finiteness_threshold == pytest.approx(-0.5)


def test_sample_determinism_and_moments():
    d = make_power_uniform(1.0)
    s1 = sample(d, 5, 42)
    s2 = sample(d, 5, 42)
    assert np.array_equal(s1.values, s2.values)

    ex = sample(make_exponential(), 10 ** 5, 7)
    assert abs(float(np.mean(ex.values)) - 1.0) < 4.0 / math.sqrt(10 ** 5)

    lg = sample(make_logistic(), 10 ** 5, 11)
    var = float(np.var(lg.values, ddof=1))
    # 4-sigma band for the variance estimate: mu4 - sigma^4 = 16 pi^4/45
    band = 4.0 * math.sqrt(16.0 * math.pi ** 4 / 45.0 / 10 ** 5)
    assert abs(var - math.pi ** 2 / 3.0) < band


def test_empirical_sample_validation():
    with pytest.raises(DomainError):
        EmpiricalSample(np.array([1.0]))
    with pytest.raises(DomainError):
        EmpiricalSample(np.array([1.0, math.inf]))
    s = EmpiricalSample(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(s.values, np.array([1.0, 2.0, 3.0]))


def test_registry_round_trip():
    d = from_name("lomax", {"beta": 2.5})
    assert d.params["beta"] == 2.5
    assert "logistic" in available_distributions()
    with pytest.raises(DomainError):
        from_name("lomax", {"gamma": 1.0})
    with pytest.raises(DomainError):
        from_name("made_up")


def test_dist_mean_std_fallbacks():
    d = make_power_uniform(2.0)
    assert dist_mean(d) == pytest.approx(2.0 / 3.0)
    assert dist_std(d) == pytest.approx(math.sqrt(d.variance))


def _qdensity_laws():
    return catalog_members() + [
        affine(make_lomax(3.0), 2.5, -1.0), negate(make_frechet(1.6)),
        negate(make_power_uniform(0.7)), normal_spec(),
        make_s_logistic(0.5, 1.0), make_s_logistic(-0.3, 0.8), make_s_logistic(2.0, 0.5),
        _quantile_mixture(make_power_uniform(1.0), make_exponential(), 0.3),
    ]


@pytest.mark.parametrize("d", _qdensity_laws(), ids=lambda d: d.label())
def test_qdensity_matches_quantile_slope(d):
    for u in (0.03, 0.2, 0.45, 0.7, 0.97):
        h = 1e-5 * min(u, 1.0 - u)
        slope = (float(d.quantile(u + h)) - float(d.quantile(u - h))) / (2.0 * h)
        assert float(d.qdensity(u, 1.0 - u)) == pytest.approx(slope, rel=1e-6)


def test_lomax_variance_at_huge_shape():
    assert make_lomax(1e300).variance == 0.0
    assert make_negative_lomax(1e300).variance == 0.0
    assert make_lomax(3.0).variance == pytest.approx(0.75, rel=1e-15)


def _mp_psi_step(c, s):
    return (mp.digamma(c + s) - mp.digamma(c)) / s


def _mp_gamma_step(c, s):
    return mp.expm1(mp.loggamma(c) + mp.loggamma(s + 2) - mp.loggamma(c + s)) / s


NEAR_ZERO_CASES = [
    (make_exponential(), lambda s: _mp_psi_step(2, s)),
    (make_logistic(), lambda s: _mp_psi_step(1, s)),
    (make_lomax(1.5), lambda s: 3 * _mp_gamma_step(2 - 1 / mp.mpf(1.5), s)),
    (make_reflected_power(0.5), lambda s: -_mp_gamma_step(4, s) / 3),
]


@pytest.mark.parametrize("d, oracle", NEAR_ZERO_CASES, ids=[d.label() for d, _ in NEAR_ZERO_CASES])
def test_closed_delta_near_zero_branch_meets_bound(d, oracle):
    for s in (9.9e-5, -9.9e-5, 5e-5, -5e-5, 1e-6):
        with mp.workdps(30):
            exact = float(oracle(mp.mpf(s)))
        assert abs(d.closed_delta(s) - exact) <= 1e-10 * max(1.0, abs(exact)), s


def test_dual_series_refuses_cancelled_orders():
    # the Gumbel value is the duality series summed in mpmath
    assert make_gumbel().closed_nabla(10.5) == pytest.approx(1.9047191070356115, rel=1e-10)
    for d in (make_gumbel(), make_frechet(1.6), make_reverse_weibull(2.5)):
        with pytest.raises(NonIntegrableError):
            d.closed_nabla(30.5)
        with pytest.raises(NonIntegrableError):
            d.closed_nabla(180.5)


# near-zero orders (|s| < 1e-4), integer orders and a spread of others
ARRAY_ORDERS = np.array([-0.3, -5e-5, 0.0, 3e-5, 9.9e-5, 0.5, 1.0, 2.0, 2.5, 3.0, 7.25])


def _closed_members():
    members = []
    for d in catalog_members():
        members += [d, affine(d, 1.7, -0.4), negate(d), affine(negate(d), 0.6, 1.1)]
    return [m for m in members if m.closed_delta is not None or m.closed_nabla is not None]


@pytest.mark.parametrize("d", _closed_members(), ids=lambda d: d.label())
def test_closed_forms_over_arrays_match_scalar_calls(d):
    for f in (d.closed_delta, d.closed_nabla):
        if f is None:
            continue
        thr = d.finiteness_threshold if f is d.closed_delta else None
        grid = ARRAY_ORDERS if thr is None else ARRAY_ORDERS[ARRAY_ORDERS > thr]
        got = f(grid)
        assert isinstance(got, np.ndarray) and got.shape == grid.shape
        for s, v in zip(grid, got):
            one = f(float(s))
            assert type(one) is float
            assert v == pytest.approx(one, rel=1e-15, abs=0.0), s


def test_closed_forms_over_arrays_flag_divergence_and_refusal():
    with pytest.raises(DivergentEntropy):
        make_negative_lomax(2.0).closed_delta(np.array([-0.7, 0.5]))
    # the duality series refuses 30.5 on its own and leaves NaN in an array
    got = make_gumbel().closed_nabla(np.array([0.5, 30.5, 2.0]))
    assert math.isnan(got[1])
    assert got[0] == make_gumbel().closed_nabla(0.5)
    assert got[2] == make_gumbel().closed_nabla(2.0)


def test_dual_series_refuses_overflowing_heads():
    # at huge orders the head of the duality series overflows: refused, as
    # NaN in an array and NonIntegrableError at one order, never summed
    got = make_gumbel().closed_nabla(np.array([0.5, 1e4, 1e6]))
    assert math.isfinite(got[0]) and np.isnan(got[1:]).all()
    for d in (make_gumbel(), make_frechet(2.0), make_reverse_weibull(2.0)):
        for s in (1e4, 1e6):
            with pytest.raises(NonIntegrableError):
                d.closed_nabla(s)


@pytest.mark.parametrize("beta", [1e-6, 1e-5, 1e-3, 0.5, 2.0, 3.5])
def test_reflected_power_delta_against_mpmath(beta):
    # delta = -(beta/(beta+1)) expm1(rho)/s, rho = lgamma(x+2) + lgamma(s+2)
    # - lgamma(x+s+2), x = 1/beta; at small shapes betaln lost digits
    grid = np.linspace(-0.49, 5.0, 150)
    got = make_reflected_power(beta).closed_delta(grid)
    with mp.workdps(30):
        b = mp.mpf(beta)
        x = 1 / b
        for s, v in zip(grid.tolist(), got):
            sm = mp.mpf(s)
            rho = mp.loggamma(x + 2) + mp.loggamma(sm + 2) - mp.loggamma(x + sm + 2)
            exact = float(-(b / (b + 1)) * mp.expm1(rho) / sm)
            assert v == pytest.approx(exact, rel=1e-10, abs=0.0), s


def test_power_closed_forms_at_tiny_shape():
    # x = 1/beta = 1e307: the log-gamma ratio is taken through betaln, where
    # lgamma(x) - lgamma(x + s + 1) was inf - inf
    b = 1e-307
    assert make_power_uniform(b).closed_nabla(0.5) == pytest.approx(b, rel=1e-12)
    assert make_reflected_power(b).closed_delta(0.5) == pytest.approx(b / 0.5, rel=1e-12)
    with mp.workdps(40):
        x, s = mp.mpf(1000), mp.mpf(0.5)
        exact = -mp.expm1(mp.loggamma(x + 1) + mp.loggamma(s + 2) - mp.loggamma(x + s + 2)) / (x + 1)
    assert make_power_uniform(1e-3).closed_nabla(0.5) == pytest.approx(float(exact), rel=1e-12)


def test_dist_std_of_infinite_and_negative_variances():
    d = make_s_logistic(-0.3, 0.5)
    assert dist_std(d) == math.inf
    with pytest.raises(DomainError):
        dist_std(replace(make_exponential(), variance=-1.0))


@pytest.mark.parametrize("d", [
    make_s_logistic(0.5, 1.0), make_s_logistic(-0.3, 0.8),
    _quantile_mixture(make_power_uniform(1.0), affine(make_exponential(), 1.5, 0.0), 0.3),
], ids=lambda d: d.label())
def test_bisection_cdf_over_arrays_equals_scalar_calls(d):
    # an array is bisected at once, midpoint for midpoint, so every point
    # carries the bits of its own scalar call, outside the support too
    lo, hi = d.support
    xs = np.concatenate([np.linspace(-3.0, 3.0, 401),
                         [-math.inf, math.inf, lo, hi, -1e300, 1e300, math.nan]])
    each = np.array([float(d.cdf(x)) for x in xs])
    assert np.array_equal(np.asarray(d.cdf(xs)), each, equal_nan=True)
    assert np.array_equal(np.asarray(d.cdf(xs[:400].reshape(20, 20))),
                          each[:400].reshape(20, 20))
