import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, tanhsinh

from conftest import TABLE_ORDERS, catalog_members, finite_order
from ctent import (
    DomainError,
    EmpiricalSample,
    EntropyOrder,
    NonIntegrableError,
    affine,
    available_distributions,
    delta_plugin,
    delta_quadrature,
    delta_quantile,
    delta_value,
    entropy_profile,
    from_name,
    from_quantile,
    make_exponential,
    make_frechet,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_s_logistic,
    make_uniform,
    nabla_plugin,
    nabla_quadrature,
    nabla_value,
    negate,
    normal_spec,
    sample,
)
from ctent import distributions, entropy
from ctent.distributions import LOST_END
from ctent.entropy import _quad, dual_kernel, dual_kernel_np, dual_tail_integral, g_kernel_np
from ctent.risk import _h_tilde_core, _quantile_mixture, make_distortion

PI2_6 = math.pi ** 2 / 6.0
LN2_MINUS_QUARTER = 0.4431471805599453  # u(2 log(1/u) - (1-u)) at u = 1/2


def test_dual_tail_integral_near_one_against_its_series():
    # J(u) = sum_k v^(s+1+k)/(s+1+k), v = 1 - u; at s = 7.3, where s + 1
    # rounds, v^(s+1) formed as such was 2.5e-14 off at u = 1 - 1e-12
    us = np.array([0.5000001, 0.75, 0.9999, 1.0 - 1e-12])
    for s in (-0.3, 0.5, 7.3, 7.52):
        for u, got in zip(us, dual_tail_integral(us, s)):
            with mp.workdps(60):
                v, a = mp.mpf(1.0 - u), mp.mpf(s) + 1
                exact = mp.nsum(lambda k: v ** (a + k) / (a + k), [0, mp.inf])
            assert got == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_entropy_order_validation():
    with pytest.raises(DomainError):
        EntropyOrder(-1.0)
    assert EntropyOrder(5e-5).near_zero
    assert not EntropyOrder(0.1).near_zero
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            EntropyOrder(s)


def test_delta_quadrature_examples():
    assert delta_quadrature(make_power_uniform(1.0), 0.0).value == pytest.approx(
        0.25, abs=1e-10)
    assert delta_quadrature(make_exponential(), 0.0).value == pytest.approx(
        PI2_6 - 1.0, abs=1e-10)
    assert delta_quadrature(make_negative_lomax(2.0), -0.6).divergent


def test_delta_quantile_examples():
    assert delta_quantile(make_power_uniform(1.0), 1.0).value == pytest.approx(
        1.0 / 6.0, abs=1e-9)
    assert delta_quantile(make_logistic(), 0.0).value == pytest.approx(
        PI2_6, abs=1e-8)
    assert delta_quantile(make_gumbel(), 1.0).value == pytest.approx(
        math.log(2.0), abs=1e-8)


def test_nabla_quadrature_examples():
    ex = make_exponential()
    assert nabla_quadrature(ex, 0.0).value == pytest.approx(PI2_6 - 1.0, abs=1e-8)
    assert nabla_quadrature(ex, 1.0).value == pytest.approx(
        math.pi ** 2 / 3.0 - 2.5, abs=1e-8)
    assert nabla_quadrature(make_negative_exponential(), 1.0).value == pytest.approx(
        1.5, abs=1e-8)


def test_dual_kernel_properties():
    # G_1(u) = u(2 log(1/u) - (1-u)); G_0(u) = -u log u
    assert dual_kernel(0.5, 1.0) == pytest.approx(math.log(2.0) - 0.25, abs=1e-14)
    us = np.linspace(1e-9, 1.0 - 1e-9, 101)
    assert np.allclose(dual_kernel_np(us, 0.0), -us * np.log(us), atol=1e-13)
    for u in (1e-12, 0.2, 0.5, 0.9, 1.0 - 1e-12):
        exact, _ = quad(lambda t: (1.0 - t) ** 0.7 / t, u, 1.0, limit=200)
        assert dual_tail_integral(u, 0.7) == pytest.approx(exact, rel=1e-9)
    # u >= 1/2: J = v^(s+1) Phi(v, 1, s+1), v = 1 - u, with Phi Lerch's
    us = np.array([0.5, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
    for s in (-0.999, -0.5, 0.7, 3.0, 10.0):
        got = dual_tail_integral(us, s)
        for u, g in zip(us, got):
            v = mp.mpf(1.0 - u)
            with mp.workdps(30):
                exact = mp.power(v, s + 1.0) * mp.lerchphi(v, 1, s + 1.0)
            assert g == pytest.approx(float(exact), rel=1e-14)
    assert dual_kernel(0.0, 1.0) == 0.0 and dual_kernel(1.0, 1.0) == 0.0


@pytest.mark.parametrize("d", catalog_members(), ids=lambda d: d.label())
def test_oracle_agreement(d):
    """x-space quadrature, quantile-space quadrature and the closed form
    agree pairwise within summed error bounds on the seven-order grid."""
    for s in TABLE_ORDERS:
        if not finite_order(d, s):
            continue
        closed = d.closed_delta(s)
        a = delta_quadrature(d, s)
        b = delta_quantile(d, s)
        assert abs(a.value - closed) <= a.abs_error_bound + 1e-10 * max(1.0, closed)
        assert abs(b.value - closed) <= b.abs_error_bound + 1e-10 * max(1.0, closed)
        assert abs(a.value - b.value) <= a.abs_error_bound + b.abs_error_bound
        n = nabla_quadrature(d, s)
        closed_n = d.closed_nabla(s)
        assert abs(n.value - closed_n) <= n.abs_error_bound + 1e-9 * max(1.0, closed_n)


@pytest.mark.parametrize("s", [-0.3, 0.0, 0.5, 2.0, 10.0])
def test_x_space_bound_holds_where_quadpack_reports_failure(s):
    # over the whole support, QUADPACK reported roundoff on lomax(1.1) at
    # these orders, and the value was ~1.3e-9 relative off
    d = make_lomax(1.1)
    ev = delta_quadrature(d, s)
    assert abs(ev.value - d.closed_delta(s)) <= ev.abs_error_bound


@pytest.mark.parametrize("scale,shift", [(1e-6, 0.0), (1e6, 0.0), (1.0, 1e6), (1e-6, 5.0),
                                         (1e3, -1e7)])
@pytest.mark.parametrize("base", [make_exponential, make_logistic, lambda: make_lomax(3.0),
                                  make_gumbel, make_negative_exponential,
                                  lambda: make_frechet(3.0)],
                         ids=["exponential", "logistic", "lomax(3)", "gumbel",
                              "negative_exponential", "frechet(3)"])
def test_x_space_oracle_is_invariant_to_scale_and_shift(base, scale, shift):
    # integrated over the whole support, 57 of these 90 values missed their
    # bound: affine(exponential, 1e-6, 0) gave 0.0 +- 1e-9 for 5.6e-7
    d = affine(base(), scale, shift)
    for s in (-0.3, 0.5, 2.0):
        ev = delta_quadrature(d, s)
        assert abs(ev.value - d.closed_delta(s)) <= ev.abs_error_bound


def test_tail_probes_are_invariant_to_scale():
    # probed at x = 1e4 ... 1e10, the first read "mean appears infinite" and
    # the second a divergent entropy
    d = affine(make_lomax(1.05), 1e6, 0.0)
    ev = delta_quadrature(d, 0.5)
    assert abs(ev.value - d.closed_delta(0.5)) <= ev.abs_error_bound
    ev = delta_value(affine(normal_spec(), 1e12, 0.0), -0.3)
    assert not ev.divergent
    assert ev.value == pytest.approx(1e12 * delta_value(normal_spec(), -0.3).value, rel=1e-10)


def test_x_space_heavy_tail_next_to_its_threshold():
    # converged, yet 1.3e-9 relative off when integrated over the whole support
    d = make_lomax(1.1)
    assert delta_quadrature(d, -0.9).value == pytest.approx(d.closed_delta(-0.9), rel=1e-12)


@pytest.mark.parametrize("s,exact", [(-0.97, 6.9571606437314548), (-0.98, 8.6058505623586390),
                                     (-0.99, 12.315322276296189), (-0.999, 39.522700511968377)])
def test_x_space_refuses_a_tail_lost_to_underflow(s, exact):
    # mpmath at 40 digits.  The normal cdf underflows to 0 below x ~ -38.5,
    # where cdf^(1+s) still carries mass as s -> -1
    try:
        ev = delta_quadrature(normal_spec(), s)
    except NonIntegrableError as exc:
        assert "lost its tail" in str(exc)
    else:
        assert abs(ev.value - exact) <= ev.abs_error_bound


def test_quadpack_never_sees_a_non_finite_integrand():
    with pytest.raises(NonIntegrableError):
        _quad(lambda x: math.nan if x > 0.5 else 1.0, 0.0, 1.0)


@pytest.mark.parametrize("d", [make_exponential(), make_power_uniform(2.5),
                               make_lomax(3.0)], ids=lambda d: d.label())
def test_order_one_identities(d):
    """At s = 1 the entropy equals the integral of F(1-F), equals half the
    expected absolute difference of two independent copies, and is
    mirror-invariant."""
    direct = delta_value(d, 1.0).value
    ff, _ = quad(lambda x: float(d.cdf(x)) * float(d.sf(x)),
                 d.support[0], d.support[1], limit=300)
    assert direct == pytest.approx(ff, abs=1e-9)
    mirrored = delta_quadrature(negate(d), 1.0).value
    assert mirrored == pytest.approx(direct, abs=1e-8)
    rng = np.random.default_rng(99)
    n = 200_000
    x = np.asarray(d.quantile(rng.random(n)), dtype=float)
    y = np.asarray(d.quantile(rng.random(n)), dtype=float)
    half_mad = 0.5 * float(np.mean(np.abs(x - y)))
    se = 0.5 * float(np.std(np.abs(x - y), ddof=1)) / math.sqrt(n)
    assert abs(half_mad - direct) <= 3.0 * se


def test_endpoint_limits():
    d = make_power_uniform(1.0)
    assert delta_quadrature(d, -0.999).value == pytest.approx(0.5, abs=2e-3)
    # decay toward zero carries a log factor for the exponential, so the
    # thousandth order is only ~1e-2 of the first; five orders of magnitude
    # in s push it below 1e-3
    ex = make_exponential()
    d1 = delta_value(ex, 1.0).value
    assert delta_value(ex, 1e3).value <= 1.5e-2 * d1
    assert delta_value(ex, 1e5).value <= 1e-3 * d1


def test_tail_speed_power_uniform():
    # n * delta_n converges to max X - E[X] from below, error ~ 1/n
    d = make_power_uniform(2.0)
    limit = 1.0 - d.mean
    errs = []
    for k in range(4, 13):
        n = 2 ** k
        errs.append(abs(n * d.closed_delta(float(n)) - limit))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_plugin_examples():
    two = EmpiricalSample(np.array([0.0, 1.0]))
    assert delta_plugin(two, 1.0).value == 0.25
    assert delta_plugin(two, 2.0).value == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert nabla_plugin(two, 1.0).value == pytest.approx(LN2_MINUS_QUARTER, abs=1e-14)
    s = EmpiricalSample(np.array([0.3, 1.1, 2.0, 5.0]))
    assert nabla_plugin(s, 0.0).value == pytest.approx(delta_plugin(s, 0.0).value,
                                                       abs=1e-13)


def test_plugin_values_pinned():
    # pinned sums on a seeded sample; nabla at s = 20.5 is the sum over
    # mpmath's G_s at 40 digits, which the float kernel meets to 5e-16
    x = EmpiricalSample(np.random.default_rng(16).standard_exponential(2 ** 16))
    pins = {-0.3: (0.7173017169281164, 0.5573365099928655),
            0.5: (0.5626673090779739, 0.7387730413984464),
            2.0: (0.41763536615904784, 0.8557554712018247),
            20.5: (0.13049040365432854, 0.98273272336120741)}
    for s, (d, n) in pins.items():
        assert delta_plugin(x, s).value == pytest.approx(d, rel=1e-14, abs=0.0)
        assert nabla_plugin(x, s).value == pytest.approx(n, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 1000, 1001])
@pytest.mark.parametrize("s", [-0.3, 0.0, 0.5, 2.0])
def test_plugin_weights_are_the_public_kernels_bit_for_bit(n, s):
    # the plug-ins fill the two halves of the sorted grid i/n directly; the
    # public kernels mask, gather and scatter it
    x = EmpiricalSample(np.random.default_rng(n).standard_exponential(n))
    grid, diff = np.arange(1, n) / n, np.diff(x.values)
    assert delta_plugin(x, s).value == max(float(g_kernel_np(grid, s) @ diff), 0.0)
    assert nabla_plugin(x, s).value == max(float(dual_kernel_np(grid, s) @ diff), 0.0)


def test_plugin_consistency_experiment():
    d = make_exponential()
    est = delta_plugin(sample(d, 10 ** 5, 123), 0.0).value
    reps = np.array([delta_plugin(sample(d, 10 ** 5, 500 + k), 0.0).value
                     for k in range(30)])
    band = 4.0 * float(np.std(reps, ddof=1))
    assert abs(est - (PI2_6 - 1.0)) < band


@pytest.mark.parametrize("d,s", [(make_exponential(), 0.0),
                                 (make_power_uniform(1.0), 1.0),
                                 (make_logistic(), 0.0)],
                         ids=["exp", "uniform", "logistic"])
def test_plugin_bias_decreases(d, s):
    target = delta_value(d, s).value
    med = []
    for i, n in enumerate((10 ** 3, 10 ** 4, 10 ** 5)):
        errs = [abs(delta_plugin(sample(d, n, 7000 + 17 * i + k), s).value - target)
                for k in range(15)]
        med.append(float(np.median(errs)))
    assert med[2] < med[1] < med[0]


def test_nonnegativity_everywhere():
    for d in catalog_members():
        for s in (-0.3, 0.0, 1.0, 4.0):
            if not finite_order(d, s):
                continue
            for ev in (delta_quadrature(d, s), delta_quantile(d, s),
                       nabla_quadrature(d, s)):
                assert ev.value >= 0.0


def test_entropy_profile():
    prof = entropy_profile(make_exponential(), [0.0, 0.5, 1.0, 2.0])
    deltas = [p.delta.value for p in prof.grid]
    nablas = [p.nabla.value for p in prof.grid]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert all(b > a for a, b in zip(nablas, nablas[1:]))
    assert prof.delta_nonincreasing and prof.nabla_nondecreasing

    prof2 = entropy_profile(make_negative_lomax(2.0), [-0.7, -0.2, 0.0, 1.0])
    assert prof2.grid[0].delta.divergent
    assert prof2.delta_nonincreasing and prof2.nabla_nondecreasing

    near = entropy_profile(make_power_uniform(1.0), [-0.999, 0.0])
    assert near.grid[0].delta.value == pytest.approx(0.5, abs=2e-3)

    with pytest.raises(DomainError):
        entropy_profile(make_exponential(), [0.5, 0.5])
    with pytest.raises(DomainError):
        entropy_profile(make_exponential(), [-2.0, 0.0])


def test_profile_integrates_the_order_a_closed_dual_refuses():
    # Frechet(1.01)'s series tail does not converge at -0.99: that order alone
    # goes to quadrature, and every point equals nabla_value at its order
    d = make_frechet(1.01)
    prof = entropy_profile(d, [-0.99, -0.5, 0.5])
    for pt in prof.grid:
        assert pt.nabla == nabla_value(d, pt.s), pt.s
    assert prof.grid[0].nabla.method == "quadrature_quantile"
    assert [pt.nabla.method for pt in prof.grid[1:]] == ["closed_form"] * 2


def test_delta_value_dispatch():
    d = make_negative_lomax(2.0)
    assert delta_value(d, -0.75).divergent
    ev = delta_value(d, 1.0)
    assert ev.method == "closed_form"
    ev_q = delta_quadrature(d, 1.0)
    assert ev_q.method == "quadrature_x"
    assert ev_q.value == pytest.approx(ev.value, abs=1e-8)
    assert nabla_value(d, 1.0).method == "closed_form"


@pytest.mark.parametrize("d", [make_lomax(1.5), make_frechet(1.6)], ids=lambda d: d.label())
def test_quantile_route_heavy_tail_negative_order(d):
    # the upper half is integrated in v = 1 - u, so no tail mass below
    # 1 - u ~ 1e-16 is lost, and G_s(1 - v) is summed without cancellation
    assert nabla_quadrature(d, -0.4).value == pytest.approx(d.closed_nabla(-0.4), rel=1e-10)
    assert delta_quantile(d, -0.4).value == pytest.approx(d.closed_delta(-0.4), rel=1e-10)


@pytest.mark.parametrize("s, want", [(10.5, 1.9047191070356115), (20.5, 2.0616779509805450),
                                     (30.5, 2.1469182486041209)])
def test_gumbel_nabla_at_large_orders(s, want):
    # the closed form's alternating series loses its digits beyond s ~ 20;
    # nabla_value then integrates in quantile space
    assert nabla_value(make_gumbel(), s).value == pytest.approx(want, rel=1e-10)


def test_quantile_route_reports_non_convergence():
    # q(u) = 1/(1-u) - 1 has an infinite mean: G_s q' ~ 1/v is not integrable
    d = from_quantile("pareto", lambda u: 1.0 / (1.0 - np.asarray(u)) - 1.0, (0.0, math.inf),
                      qdensity=lambda u, v: np.power(v, -2.0))
    with pytest.raises(NonIntegrableError):
        nabla_quadrature(d, 0.5)
    with pytest.raises(DomainError):
        nabla_quadrature(from_quantile("bare", lambda u: u, (0.0, 1.0)), 0.5)


def test_fused_quantile_integral_treats_each_order_on_its_own():
    # both halves of every order share one tanh-sinh call; an order that
    # does not converge leaves the others as their single-order calls.  Here
    # q' wobbles by sin(1/u)/2 on 1e-29 < u < 1e-21, between two points of the
    # probe's ladder, so no substitution fires there: at -0.3058, where the
    # kernel keeps that band's mass, tanh-sinh runs to its last level, while
    # 0 and 0.5 converge at once.  At -0.3749 the end is ~ u^-0.9999, beyond
    # the reach of the substitution
    base = negate(make_frechet(1.6))

    def qdensity(u, v):
        with np.errstate(all="ignore"):
            band = (u > 1e-29) & (u < 1e-21)
            return base.qdensity(u, v) * (1.0 + np.where(band, 0.5 * np.sin(1.0 / u), 0.0))

    d = replace(base, qdensity=qdensity)
    orders = np.array([-0.3749, -0.3058, 0.0, 0.5])
    col = entropy._evaluate(d, "delta", orders, "quantile")
    assert math.isnan(col.value[0]) and col.status[0] == LOST_END
    assert math.isnan(col.value[1]) and col.status[1] == -2
    for k in (2, 3):
        one = entropy._evaluate(d, "delta", orders[k:k + 1], "quantile")
        got = [float(a[k]) for a in (col.value, col.bound, col.status, col.nfev)]
        assert got == [float(a[0]) for a in (one.value, one.bound, one.status, one.nfev)]
    with pytest.raises(NonIntegrableError, match="tanh-sinh status -2, 16387 evaluations"):
        delta_quantile(d, -0.3058)
    with pytest.raises(NonIntegrableError, match="did not converge .*lost its tail"):
        delta_quantile(d, -0.3749)


def test_dual_kernel_cancellation_free_near_one():
    # G_s(1 - v) = v - (1-v) sum_k (k+1) v^{k+s+2}/(k+s+2); at v = 1e-12,
    # s = -0.4 the first two terms give the value to ~1e-30
    v, s = 1e-12, -0.4
    lead = v - (1.0 - v) * (v ** (s + 2.0) / (s + 2.0) + 2.0 * v ** (s + 3.0) / (s + 3.0))
    assert float(dual_kernel_np(1.0 - v, s)) == pytest.approx(lead, rel=1e-12)
    assert math.isfinite(dual_kernel(4e-322, 0.5)) and dual_kernel(4e-322, 0.5) > 0.0


@pytest.mark.parametrize("d, grid", [
    # the dual series refuses 20.5 and 30.5, which nabla_value integrates
    (make_gumbel(), [0.5, 20.5, 30.5]),
    # -0.7 is at or below the finiteness threshold -0.5
    (make_negative_lomax(2.0), [-0.7, -0.2, 0.0, 1.0]),
], ids=["gumbel", "negative_lomax"])
def test_entropy_profile_equals_per_point_values(d, grid):
    prof = entropy_profile(d, grid)
    for pt, s in zip(prof.grid, grid):
        assert pt.s == s
        assert pt.delta == delta_value(d, s)
        assert pt.nabla == nabla_value(d, s)
    methods = [pt.nabla.method for pt in prof.grid]
    if d.name == "gumbel":
        assert methods == ["closed_form", "quadrature_quantile", "quadrature_quantile"]
    else:
        assert prof.grid[0].delta.divergent


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_closed_form_raises(bad):
    # a closed form that gives a non-finite value without flagging
    # divergence is refused, never returned with a finite bound
    d = replace(make_exponential(), closed_delta=lambda s: s * 0.0 + bad,
                closed_nabla=lambda s: s * 0.0 + bad)
    with pytest.raises(NonIntegrableError):
        delta_value(d, 0.5)
    with pytest.raises(NonIntegrableError):
        nabla_value(d, 0.5)
    with pytest.raises(NonIntegrableError):
        entropy_profile(d, [0.0, 0.5])


def test_entropy_kernel_past_expm1_range():
    # s log u leaves expm1's range for s near -1 and u subnormal; the kernel
    # is then (u - u^(1+s))/s, and unchanged wherever expm1 is in range
    s = -0.999999
    u = np.array([5e-324, 1e-310, 1e-300, 1e-200, 0.3, 0.7])
    g = g_kernel_np(u, s)
    assert np.all(np.isfinite(g))
    assert g[0] == pytest.approx((5e-324 - math.exp((1.0 + s) * math.log(5e-324))) / s,
                                 rel=1e-15)
    w = u[2:]
    with np.errstate(divide="ignore"):
        logw = np.where(w < 0.5, np.log(w), np.log1p(-(1.0 - w)))
    assert np.array_equal(g[2:], -w * np.expm1(s * logw) / s)


# the order grid of the benchmark's profiles
BENCH_GRID = np.linspace(-0.49, 5.0, 150)


def _same_values(got, want):
    assert got.method == want.method and got.divergent == want.divergent
    if not got.divergent:
        assert got.value == pytest.approx(want.value, rel=1e-15, abs=0.0)
        assert got.abs_error_bound == pytest.approx(want.abs_error_bound, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d, low", [
    (normal_spec(), ()),
    (make_s_logistic(1.25, 0.5), ()),
    # its finiteness threshold is -0.7
    (make_s_logistic(-0.3, 1.0), (-0.9, -0.8, -0.7)),
    (_quantile_mixture(make_uniform(0.0, 1.0), make_exponential(), 0.4), ()),
    (replace(make_gumbel(), closed_nabla=None), ()),
], ids=["normal", "s_logistic", "s_logistic_threshold", "mixture", "gumbel_no_closed_nabla"])
def test_evaluator_equals_per_order_values(d, low):
    # one evaluation over all the orders, one vectorised integral per half,
    # gives what each order gives on its own
    orders = np.concatenate([low, BENCH_GRID])
    for which, one in (("delta", delta_value), ("nabla", nabla_value)):
        got = entropy._entropy_values(d, entropy._evaluate(d, which, orders))
        for s, ev in zip(orders.tolist(), got):
            _same_values(ev, one(d, s))
        divergent = [ev.divergent for ev in got[:len(low)]]
        assert divergent == [which == "delta"] * len(low)


def test_evaluator_x_space_for_laws_without_quantile_density():
    # QUADPACK one order at a time; every tenth order of the grid, for time
    d = from_quantile("exp_q", lambda u: -np.log1p(-np.asarray(u, dtype=float)), (0.0, math.inf))
    orders = BENCH_GRID[::10]
    got = entropy._entropy_values(d, entropy._evaluate(d, "delta", orders))
    for s, ev in zip(orders.tolist(), got):
        assert ev.method == "quadrature_x"
        _same_values(ev, delta_value(d, s))


# a parameter for each registered law that needs one
_CATALOG_PARAMS = {"power_uniform": {"beta": 1.7}, "reflected_power": {"beta": 2.0},
                   "lomax": {"beta": 1.5}, "negative_lomax": {"beta": 2.5},
                   "frechet": {"beta": 1.6}, "reverse_weibull": {"beta": 0.8}}


@pytest.mark.parametrize("name", available_distributions())
def test_entropy_profile_equals_per_point_values_over_catalog(name):
    # a profile and a single order go through the one evaluator, so every
    # point of the bench grid is the single-order value, on the law and its
    # mirror; an order whose integral fails raises alone and in a profile
    law = from_name(name, _CATALOG_PARAMS.get(name))
    for d in (law, negate(law)):
        values, refused = {}, []
        for s in BENCH_GRID.tolist():
            try:
                values[s] = (delta_value(d, s), nabla_value(d, s))
            except NonIntegrableError:
                refused.append(s)
        for pt in entropy_profile(d, list(values)).grid:
            assert (pt.delta, pt.nabla) == values[pt.s]
        if refused:
            with pytest.raises(NonIntegrableError):
                entropy_profile(d, refused)


def _exact_dual_kernel(u: float, s: float) -> float:
    # G_s(u) = v - v^(s+1) + u (s+1) J(u), J(u) = integral_0^v y^s/(1-y) dy
    # in y = 1 - t: in t, the nodes next to t = 1 round onto it for s < 0
    with mp.workdps(30):
        u, s = mp.mpf(u), mp.mpf(s)
        v = 1 - u
        j = mp.quad(lambda y: y ** s / (1 - y), [0, v / 2, v])
        return float(v - v ** (s + 1) + u * (s + 1) * j)


@pytest.mark.parametrize("s", [-0.49, -0.3, 0.5, 2.0, 10.0])
def test_dual_kernel_matches_mpmath_on_both_halves(s):
    u = np.concatenate([np.geomspace(1e-12, 0.45, 12), np.linspace(0.47, 0.53, 4),
                        1.0 - np.geomspace(0.45, 1e-6, 12)])
    for x, g in zip(u, dual_kernel_np(u, s)):
        assert g == pytest.approx(_exact_dual_kernel(x, s), rel=1e-13, abs=0.0)


def test_dual_kernel_refuses_cancelling_orders():
    # J's series about u = 1/2 alternates with coefficients growing like
    # C(s, k); where its rounding could pass 1e-10 of G_s the kernel is NaN,
    # and the integral reports the order
    _, j_half, _ = entropy._dual_coefficients(np.array([0.5, 30.5, 32.5, 33.0, 40.0, 1e3, 1e6]))
    assert np.isfinite(j_half[:3]).all() and np.isnan(j_half[3:]).all()
    u = np.linspace(0.05, 0.49, 9)
    for s in (20.5, 30.5, 32.5):
        for x, g in zip(u, dual_kernel_np(u, s)):
            assert g == pytest.approx(_exact_dual_kernel(x, s), rel=1e-10, abs=0.0)
    assert math.isnan(dual_kernel(0.3, 40.0))
    with pytest.raises(NonIntegrableError, match="did not converge"):
        nabla_quadrature(make_exponential(), 40.0)
    with pytest.raises(NonIntegrableError):
        nabla_plugin(EmpiricalSample(np.array([0.3, 1.1, 2.0, 5.0])), 40.0)
    assert nabla_value(make_exponential(), 40.0).method == "closed_form"


# the halves of the kernels: u on both sides of 1/2, the tie, and the ends
_HALF_POINTS = (5e-324, 1e-300, 0.25, 0.5 - 2.0 ** -54, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53)


def _kernels_mp(u: float, s: float) -> tuple:
    """g_s(u), G_s(u), h_s(u) and k_s(u) at 40 digits.  J(u) = integral_u^1
    (1-t)^s/t dt is -(psi(s+1) + gamma) - log u - sum_k (-s)_k u^k/(k k!)
    below 1/2, and v^(s+1) Phi(v, 1, s+1) (Lerch) from 1/2 on, v = 1 - u."""
    with mp.workdps(40):
        u, s = mp.mpf(u), mp.mpf(s)
        logu = mp.log(u)
        g = -u * logu if s == 0 else -u * mp.expm1(s * logu) / s
        if u < 0.5:
            terms = (mp.rf(-s, k) * u ** k / (k * mp.factorial(k)) for k in range(1, 400))
            j = -(mp.digamma(s + 1) + mp.euler) - logu - mp.fsum(terms)
        else:
            j = (1 - u) ** (s + 1) * mp.lerchphi(1 - u, 1, s + 1)
        big_g = -(1 - u) * mp.expm1(s * mp.log1p(-u)) + u * (s + 1) * j
        return g, big_g, u + g, u + big_g


def _h_tilde_mp(u: float, n: int):
    with mp.workdps(40):
        u = mp.mpf(u)
        return u + u * mp.fsum((-mp.log(u)) ** k / mp.factorial(k) for k in range(1, n + 1))


def _near(got: float, want) -> bool:
    # 1e-13 relative; a subnormal value holds only whole steps of 2^-1074
    return abs(got - float(want)) <= 1e-13 * abs(want) + 2.0 ** -1072


@pytest.mark.parametrize("s", [-0.99, -0.3, 0.0, 0.5, 2.0])
def test_kernels_and_distortions_on_both_halves_match_mpmath(s):
    u = np.array(_HALF_POINTS)
    got = (g_kernel_np(u, s), dual_kernel_np(u, s),
           make_distortion("h_s", s).eval(u), make_distortion("k_s", s).eval(u))
    for i, x in enumerate(_HALF_POINTS):
        for name, values, want in zip("gGhk", got, _kernels_mp(x, s)):
            assert _near(values[i], want), (name, x)


@pytest.mark.parametrize("n", [1, 3])
def test_relevation_distortion_on_both_halves_matches_mpmath(n):
    got = make_distortion("H_tilde_n", n).eval(np.array(_HALF_POINTS))
    for x, g in zip(_HALF_POINTS, got):
        assert _near(g, _h_tilde_mp(x, n)), x


def _distortions():
    return [make_distortion(label, x) for label, xs in (
        ("h_s", (-0.99, 0.0, 2.0)), ("k_s", (-0.99, 0.0, 2.0)),
        ("h_tilde_s", (0.0, 0.5, 2.0)), ("H_tilde_n", (0, 1, 3))) for x in xs]


def test_kernels_and_distortions_outside_the_open_interval():
    t = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    for s in (-0.99, 0.0, 0.5, 2.0):
        assert np.array_equal(g_kernel_np(t, s), np.zeros(5))
        assert np.array_equal(dual_kernel_np(t, s), np.zeros(5))
    for f in _distortions():
        if f.label != "h_tilde_s" or f.s_or_n > 0.0:  # h_tilde_0 is 2t
            assert np.array_equal(f.eval(t), np.clip(t, 0.0, 1.0)), f.label


def test_every_distortion_keeps_nan():
    for f in _distortions():
        assert math.isnan(float(f.eval(math.nan))), (f.label, f.s_or_n)
        assert np.isnan(f.eval(np.array([0.3, math.nan])))[1]


def test_the_reversed_pair_is_the_mirrored_kernel():
    # bit for bit on (1/2, 1]; at 1/2 itself the two sides take different halves
    u = np.concatenate([np.random.default_rng(3).uniform(0.5, 1.0, 2000),
                        [np.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0 ** -53, 1.0]])
    u = u[u > 0.5]
    pairs = [entropy._log_pair(entropy._g_core, s) for s in (-0.99, 0.0, 0.5, 2.0)]
    pairs += [entropy._dual_pair(s) for s in (-0.99, 0.0, 0.5, 2.0)]
    pairs += [entropy._log_pair(_h_tilde_core, n) for n in (0, 1, 3)]
    for pair in pairs:
        assert np.array_equal(entropy._halves(pair[::-1], u), entropy._halves(pair, 1.0 - u))
        # the tie goes to the upper half
        assert entropy._halves(pair, 0.5) == pair[1](np.array([0.5]))[0]


@pytest.mark.parametrize("d, s, want", [
    (make_lomax(1.05), 0.5, 19.233136164072373),
    (make_s_logistic(-0.3, 1.0), -0.69, 43.2323187654315),
    (negate(make_frechet(1.6)), -0.3426, 51.575702595476454),
    (negate(make_frechet(1.6)), -0.37, 333.4714490051743),
], ids=lambda x: x.label() if hasattr(x, "label") else str(x))
def test_quantile_route_answers_heavy_ends(d, s, want):
    # the integrand ends like t^a with a + 1 between 0.005 and 0.05: tanh-sinh
    # stopped at status -2 on (0, 1/2), and the power substitution answers;
    # the references are the closed form and mpmath.  Only the Lomax has a
    # closed form, which delta_value would take
    got = (delta_quantile if d.closed_delta else delta_value)(d, s)
    assert got.value == pytest.approx(want, abs=got.abs_error_bound)


@pytest.mark.parametrize("s,exact", [(-0.97, 6.9571606437314548), (-0.98, 8.6058505623586390),
                                     (-0.99, 12.315322276296189), (-0.999, 39.522700511968377)])
def test_quantile_route_bounds_the_normal_end(s, exact):
    # mpmath at 40 digits.  The lower end goes like t^s (-log t)^(-1/2) with
    # log-log corrections, which the closed end mass fits only in part: at
    # -0.99 that fit is 1.7e-8 off, and the bound must cover it
    try:
        ev = delta_quantile(normal_spec(), s)
    except NonIntegrableError as exc:
        assert "lost its tail" in str(exc)
    else:
        assert abs(ev.value - exact) <= ev.abs_error_bound


@pytest.mark.parametrize("d", [make_lomax(1.05), negate(make_frechet(1.6))],
                         ids=lambda d: d.label())
def test_entropy_profile_over_a_dense_grid_of_a_heavy_law(d):
    grid = tuple(float(s) for s in np.linspace(-0.49, 5.0, 150))
    profile = entropy_profile(d, grid)
    assert profile.delta_nonincreasing and profile.nabla_nondecreasing


def test_no_substitution_fires_on_the_table_laws(monkeypatch):
    # every half of the table laws at the table orders runs on (0, 1/2) as
    # it did before the probe, so its values keep their bits
    starts = []

    def spy(f, a, b, **kwargs):
        starts.append(np.asarray(a))
        return tanhsinh(f, a, b, **kwargs)

    monkeypatch.setattr(distributions, "tanhsinh", spy)
    orders = np.array(TABLE_ORDERS)
    for d in catalog_members() + [normal_spec()]:
        for which in ("delta", "nabla"):
            entropy._quantile_integral(d.qdensity, which, orders)
    assert len(starts) == 36 and not any(np.any(a != 0.0) for a in starts)


def test_a_kernel_refused_everywhere_is_no_lost_end():
    # the dual kernel is NaN at these orders, at every probe point: tanh-sinh
    # reports the non-finite integrand (status -3) after its first call, as
    # it did before the probe, and no end is fitted
    col = entropy._evaluate(make_exponential(), "nabla", np.array([33.0, 40.0]), "quantile")
    assert col.status.tolist() == [-3, -3] and col.nfev.tolist() == [1, 1]
    with pytest.raises(NonIntegrableError, match="tanh-sinh status -3, 1 evaluations"):
        nabla_quadrature(make_exponential(), 40.0)
