import math

import pytest

from ctent import (
    DomainError,
    affine,
    delta_quadrature,
    diamond,
    diamond_curve,
    make_frechet,
    make_exponential,
    make_gumbel,
    make_logistic,
    make_lomax,
    make_negative_exponential,
    make_negative_lomax,
    make_power_uniform,
    make_reflected_power,
    make_s_logistic,
    nabla_quadrature,
    negate,
    normal_spec,
    rho,
    rho_curve_negative_lomax,
    rho_curve_power_uniform,
    rho_range_proposition_check,
)
from ctent.specfun import lgamma, psi

M_LIMIT = -0.365952       # root of s(psi(s+2)+gamma) = psi(s+2)-psi(2)
M_BAR_LIMIT = 0.389592    # root of (s+1)^2 psi'(s+2) = 1
DIAMOND_POW2_AT_0 = 1.1888953607000300  # 1/(3(psi(5/2)-psi(2))), 30-digit oracle


def test_diamond_examples():
    assert diamond(make_logistic(), 0.0) == pytest.approx(1.0, abs=1e-9)
    assert diamond(make_power_uniform(1.0), 0.0) == pytest.approx(1.0, abs=1e-9)
    assert diamond(make_power_uniform(2.0), 0.0) == pytest.approx(
        DIAMOND_POW2_AT_0, abs=1e-10)
    with pytest.raises(DomainError):
        diamond(make_logistic(), 0.5, "sideways")


def test_diamond_divergent_denominator_is_zero():
    # below the mirrored finiteness threshold the bar-ratio's denominator is
    # infinite, so the monotone extension takes the value 0
    d = make_negative_lomax(2.0)
    assert diamond(d, -0.7, "diamond_bar") == 0.0


def test_rho_examples():
    assert rho(make_logistic()) == 0.0
    assert rho(make_negative_exponential()) == pytest.approx(M_LIMIT, abs=1e-5)
    assert rho(make_exponential()) == pytest.approx(M_BAR_LIMIT, abs=1e-5)
    # the bar parameter of X equals the plain parameter of -X
    assert rho(make_exponential(), "rho_bar") == pytest.approx(M_LIMIT, abs=1e-5)
    assert rho(make_negative_exponential(), "rho_bar") == pytest.approx(
        M_BAR_LIMIT, abs=1e-5)


def test_rho_defining_equations():
    # the two limiting roots satisfy their closed defining equations
    r = rho(make_exponential(), tol=1e-10)
    from ctent.specfun import psi1
    assert (r + 1.0) ** 2 * psi1(r + 2.0) == pytest.approx(1.0, abs=1e-8)
    m = rho(make_negative_exponential(), tol=1e-10)
    lhs = m * (psi(m + 2.0) + 0.5772156649015329)
    rhs = psi(m + 2.0) - psi(2.0)
    assert lhs == pytest.approx(rhs, abs=1e-8)


@pytest.mark.parametrize("d", [make_exponential(), make_power_uniform(0.3),
                               make_reflected_power(2.0), make_lomax(3.0),
                               make_negative_lomax(2.5), make_frechet(3.0),
                               make_gumbel(), make_frechet(5.0)],
                         ids=lambda d: d.label())
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_rho_within_tol_of_the_unit_crossing(d, tol):
    # the ratio is increasing, so a result within tol of its unit crossing
    # has the crossing between r - tol and r + tol
    step = tol * (1.0 + 1e-6)  # Brent's relative term, a few eps of |r|
    for kind, ratio in (("rho", "diamond"), ("rho_bar", "diamond_bar")):
        r = rho(d, kind, tol=tol)
        assert diamond(d, r - step, ratio) <= 1.0 < diamond(d, r + step, ratio)
    # the bar parameter of X is the plain parameter of -X, bit for bit
    assert rho(d, "rho_bar", tol=tol) == rho(negate(d), tol=tol)


@pytest.mark.parametrize("d", [make_power_uniform(0.5), make_power_uniform(3.0),
                               make_exponential(), make_negative_exponential(),
                               make_lomax(3.0), make_logistic()],
                         ids=lambda d: d.label())
def test_diamond_maps_nondecreasing(d):
    grid = [-0.8, -0.4, 0.0, 0.5, 1.0, 2.0, 4.0]
    for kind in ("diamond", "diamond_bar"):
        vals = [diamond(d, s, kind) for s in grid]
        finite = [v for v in vals if math.isfinite(v)]
        assert all(b >= a - 1e-9 for a, b in zip(finite, finite[1:]))


def test_affine_invariance():
    d = make_lomax(2.5)
    r0 = rho(d)
    assert rho(affine(d, 2.7, -1.3)) == pytest.approx(r0, abs=1e-6)
    rb0 = rho(d, "rho_bar")
    assert rho(affine(d, 0.4, 5.0), "rho_bar") == pytest.approx(rb0, abs=1e-6)


def test_closed_form_ratio_agreement():
    # the power-uniform skewness maps against their explicit gamma/digamma
    # expressions, two of them through the quadrature route
    pairs = [(0.5, 0.7), (1.5, -0.4), (2.0, 1.0), (3.0, 0.3), (0.8, 2.0)]
    for i, (b, s) in enumerate(pairs):
        d = make_power_uniform(b)
        num = s * (math.exp(lgamma(1.0 / b + s + 2.0))
                   - math.exp(lgamma(1.0 / b + 1.0) + lgamma(s + 2.0)))
        den = (math.exp(lgamma(1.0 / b + s + 2.0))
               - math.exp(lgamma(1.0 / b + 2.0) + lgamma(s + 2.0)))
        expect = num / den
        quadrature = i >= 3
        got = (nabla_quadrature(d, s).value / delta_quadrature(negate(d), s).value
               if quadrature else diamond(d, s, "diamond"))
        assert got == pytest.approx(expect, rel=1e-8)
        expect_bar = (s + 1.0) * (b * (s + 1.0) + 1.0) * (psi(1.0 / b + s + 2.0)
                                                          - psi(s + 2.0))
        got_bar = (nabla_quadrature(negate(d), s).value / delta_quadrature(d, s).value
                   if quadrature else diamond(d, s, "diamond_bar"))
        assert got_bar == pytest.approx(expect_bar, rel=1e-8)


def test_rho_curve_power_uniform():
    betas = [1e-3, 0.05, 0.3, 1.0, 3.0, 30.0, 1e3]
    c = rho_curve_power_uniform("rho", betas)
    vals = [v for _, v in c.values]
    assert all(b < a + 1e-7 for a, b in zip(vals, vals[1:]))  # decreasing
    assert vals[0] > 0.9                      # near 1 as beta -> 0
    assert vals[3] == pytest.approx(0.0, abs=1e-8)  # symmetric at beta = 1
    assert vals[-1] == pytest.approx(M_LIMIT, abs=2e-3)

    cb = rho_curve_power_uniform("rho_bar", betas)
    vb = [v for _, v in cb.values]
    assert all(b > a - 1e-7 for a, b in zip(vb, vb[1:]))  # increasing
    assert vb[-1] == pytest.approx(M_BAR_LIMIT, abs=2e-3)


def test_rho_curve_negative_lomax():
    betas = [1.05, 1.5, 3.0, 30.0, 1e3]
    c = rho_curve_negative_lomax("rho", betas)
    vals = [v for _, v in c.values]
    assert all(b > a - 1e-7 for a, b in zip(vals, vals[1:]))  # increasing
    assert vals[-1] == pytest.approx(M_LIMIT, abs=2e-3)

    cb = rho_curve_negative_lomax("rho_bar", betas)
    vb = [v for _, v in cb.values]
    assert all(b < a + 1e-7 for a, b in zip(vb, vb[1:]))  # decreasing
    assert 0.9 < vb[0] < 1.0                 # close to 1 from below near beta=1
    assert vb[-1] == pytest.approx(M_BAR_LIMIT, abs=2e-3)


def test_diamond_curve_carries_root():
    c = diamond_curve(make_exponential(), [0.0, 0.5, 1.0])
    assert c.root == pytest.approx(M_BAR_LIMIT, abs=1e-5)
    ratios = [v for _, v in c.values]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("d,case", [
    (make_power_uniform(3.0), "delta0_greater"),
    (make_power_uniform(1.0 / 3.0), "delta0_smaller"),
    (make_negative_lomax(3.0), "delta0_greater"),
    (make_reflected_power(2.0), "delta0_smaller"),
    (make_logistic(), "symmetric"),
], ids=["pow3", "pow1/3", "neglomax3", "reflected2", "logistic"])
def test_range_proposition_bracket(d, case):
    rep = rho_range_proposition_check(d)
    assert rep["case"] == case
    assert rep["bracket_ok"]


@pytest.mark.parametrize("d", [make_exponential(), make_lomax(3.0), make_s_logistic(1.25, 0.5),
                               normal_spec()], ids=lambda d: d.label())
@pytest.mark.parametrize("s", [-0.3, 0.5, 2.0])
def test_bar_map_is_the_map_of_the_mirror(d, s):
    # diamond_bar(X) = diamond(-X), bit for bit
    assert diamond(d, s, "diamond_bar") == diamond(negate(d), s)
