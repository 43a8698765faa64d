"""Range bounds for the normalised entropy and their maximizers.

Three regimes are covered:

* positive laws, entropy over the mean: the closed range is [0, 1], never
  attained, approached by powers of a uniform;
* finite variance, entropy over the standard deviation for s > -1/2: the
  sharp bound 1/sqrt(2s+1), attained by U^(1/s) for s > 0, by the negative
  Lomax with beta = -1/s for s < 0 and by the mirrored exponential at s=0;
* symmetric finite-variance laws: the bound
  (s+1)/sqrt(2 s^2 (2s+1)) * sqrt(1 - Gamma(s+1)^2/Gamma(2s+1)), attained
  by the symmetric power family built on (1-U)^s - U^s (the "s-Logistic");
  at s = 0 it degenerates to pi/(2 sqrt(3)) with the rescaled logistic as
  the unique maximizer.

The module also evaluates the gamma-function gap
phi(s) = Gamma(s+2)^2/Gamma(2s+1) - 1 - 2s + s^2 (nonnegative from its
unique negative root onward, with equality exactly at s = 0 and 1), and
the cumulative entropy of the standard normal (the normal law itself is
``distributions.normal_spec``).  The s-Logistic runs no integral of its own:
its variance is a moment of ``distributions``, and its record reads (u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import rgamma, zeta

from .distributions import (
    DistributionSpec,
    _quantile_moment,
    affine,
    from_quantile,
    make_exponential,
    make_logistic,
    make_negative_lomax,
    make_power_uniform,
    negate,
    normal_spec,
)
from .entropy import as_order, delta_quantile
from .errors import DomainError, NotBracketedError
from .specfun import _real, lgamma

SYM_BOUND_0 = math.pi / (2.0 * math.sqrt(3.0))

# Below |s| = _SYM_SERIES_EDGE the symmetric bound sums
# u/s^2 = sum_{k>=2} (-1)^k zeta(k) (2 - 2^k) s^(k-2) / k, the Taylor series
# of u = 2 lgamma(1+s) - lgamma(1+2s), whose log-gammas cancel there; with
# |2s| <= 0.2 the first omitted term is below 1e-21.
_SYM_SERIES_EDGE = 0.1
_SYM_SERIES = tuple((-1.0) ** k * float(zeta(k)) * (2.0 - 2.0 ** k) / k for k in range(2, 32))


@dataclass(frozen=True)
class RangeBound:
    regime: str
    s: float
    upper: float
    maximizer: DistributionSpec | None
    attained: bool


# ---------------------------------------------------------------------------
# range bounds

def bound_positive(s) -> RangeBound:
    """Entropy over the mean on positive laws: range [0, 1], supremum not
    attained (approached by U^(1/beta) as beta -> 0)."""
    sv = as_order(s).s
    return RangeBound("positive", sv, 1.0, None, False)


def bound_l2(s) -> RangeBound:
    """Entropy over the standard deviation: sharp bound 1/sqrt(2s+1) for
    s > -1/2, attained by the stated power/negative-Lomax/exponential
    maximizers."""
    sv = _real(s, -0.5, "the L2 range's s")
    upper = 1.0 / math.sqrt(2.0 * sv + 1.0)
    if sv > 0.0:
        maximizer = make_power_uniform(1.0 / sv)
    elif sv < 0.0:
        maximizer = make_negative_lomax(-1.0 / sv)
    else:
        maximizer = negate(make_exponential())
    return RangeBound("l2", sv, upper, maximizer, True)


def symmetric_upper(s: float) -> float:
    """The symmetric-regime bound; continuous through s = 0 where it equals
    pi/(2 sqrt(3))."""
    s = _real(s, -0.5, "the symmetric range's s")
    if abs(s) < _SYM_SERIES_EDGE:
        w = 0.0
        for a in reversed(_SYM_SERIES):
            w = w * s + a
        u = w * s * s
        # -expm1(u)/s^2 = -w expm1(u)/u, with expm1(u)/u -> 1 as s -> 0
        shrink = math.expm1(u) / u if u != 0.0 else 1.0
        return (s + 1.0) / math.sqrt(2.0 * (2.0 * s + 1.0)) * math.sqrt(-w * shrink)
    u = 2.0 * lgamma(s + 1.0) - lgamma(2.0 * s + 1.0)
    return (s + 1.0) / math.sqrt(2.0 * s * s * (2.0 * s + 1.0)) * \
        math.sqrt(-math.expm1(u))


def make_s_logistic(s: float, beta: float) -> DistributionSpec:
    """The symmetric maximizer family: the law of eps |X_1|^{1/beta} with
    X_1 = (1-U)^s - U^s and an independent sign eps.

    Bounded on [-1,1] for s > 0; unbounded for s in (-1/2, 0), where both
    tails fall like |x|^(-beta/|s|): for beta > |s| the entropy is finite
    exactly above the order |s|/beta - 1, for beta <= |s| the tails have no
    mean and both entropies are infinite at every order, and the variance
    is infinite for beta <= 2|s|.  Built by :func:`from_quantile` with the
    analytic quantile density (the CDF is its Brent-solved inverse); the
    record's ``quantile(u, v)`` reads v, and a finite variance is the
    integral of q(u, v)^2 over both halves (``_quantile_moment``)."""
    s = _real(s, -0.5, "s")
    if s == 0.0:
        raise DomainError("s must lie in (-1/2, 0) or (0, inf)")
    if not 0.0 < beta <= 1.0:
        raise DomainError("beta must lie in (0, 1]")
    sgn = 1.0 if s > 0.0 else -1.0

    def q_one(u, v):
        # quantile of X_1: sgn(s) (u^s - v^s) with v = 1 - u, odd about 1/2
        with np.errstate(divide="ignore", over="ignore"):
            return sgn * (np.power(u, s) - np.power(v, s))

    def quantile(u, v=None):
        u = np.asarray(u, dtype=float)
        base = q_one(u, 1.0 - u if v is None else v)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.sign(base) * np.power(np.abs(base), 1.0 / beta)
        return np.where(base == 0.0, 0.0, out)[()]

    def qdensity(u, v):
        # |X_1|^(1/beta - 1)/beta times X_1' = |s| (u^(s-1) + v^(s-1))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slope = abs(s) * (np.power(u, s - 1.0) + np.power(v, s - 1.0))
            return slope * np.power(np.abs(q_one(u, v)), 1.0 / beta - 1.0) / beta

    hi = 1.0 if s > 0.0 else math.inf
    threshold = -s / beta - 1.0 if s < 0.0 else None
    d = replace(from_quantile("s_logistic", quantile, (-hi, hi), mean=0.0,
                              params={"s": float(s), "beta": float(beta)}, qdensity=qdensity),
                quantile=quantile, finiteness_threshold=threshold,
                neg_finiteness_threshold=threshold)
    if s < 0.0 and beta <= -2.0 * s:  # tails like |x|^(-beta/|s|): no second moment
        return replace(d, variance=math.inf)
    return replace(d, variance=_quantile_moment(d, lambda x: x ** 2, "variance"))


def bound_symmetric(s) -> RangeBound:
    """Symmetric finite-variance regime; the bound is attained by the
    s-Logistic with beta = 1 (rescaled logistic when s = 0)."""
    sv = float(s)
    upper = symmetric_upper(sv)
    if sv == 0.0:
        maximizer = affine(make_logistic(), math.sqrt(3.0) / math.pi, 0.0)
    else:
        maximizer = make_s_logistic(sv, 1.0)
    return RangeBound("symmetric", sv, upper, maximizer, True)


# ---------------------------------------------------------------------------
# the gamma-function gap

_GAP_BRACKET = (1e-6, 1.0 - 1e-6)  # where gamma_gap_argmax searches (0, 1)


def gamma_gap(s: float) -> float:
    """phi(s) = Gamma(s+2)^2/Gamma(2s+1) - 1 - 2s + s^2 for s > -2.

    The reciprocal gamma function (``rgamma``), entire, keeps the evaluation
    smooth across the poles of Gamma(2s+1) at nonpositive half-integers.
    """
    s = _real(s, -2.0, "gamma_gap's s")
    poly = 1.0 + 2.0 * s - s * s
    z = 2.0 * s + 1.0
    if z > 1e-8:
        return math.exp(2.0 * lgamma(s + 2.0) - lgamma(z)) - poly
    return math.exp(2.0 * lgamma(s + 2.0)) * float(rgamma(z)) - poly


def gamma_gap_argmax() -> tuple:
    """(argmax, max) of the gap on (0,1) by bounded Brent minimisation."""
    r = minimize_scalar(lambda s: -gamma_gap(s), bounds=_GAP_BRACKET, method="bounded",
                        options={"xatol": 1e-12})
    x = float(r.x)
    return x, gamma_gap(x)


def gamma_gap_root() -> float:
    """The unique root of the gap on (-2, -3/2), by Brent's method."""
    a, b = -2.0 + 1e-9, -1.5
    if not gamma_gap(a) < 0.0 < gamma_gap(b):
        raise NotBracketedError("gamma gap does not change sign on (-2, -3/2)")
    return brentq(gamma_gap, a, b, xtol=1e-13)


def gaussian_cumulative_entropy() -> float:
    """Cumulative entropy of the standard normal, integrated in quantile
    space (absolute error well below 1e-8); just under pi/(2 sqrt(3))."""
    return delta_quantile(normal_spec(), 0.0).value


def beta_trinomial_bound_check(x: float) -> dict:
    """Compare the gap bound with the two-parameter Beta-function bound
    specialised at (x, x): the latter subtracts a nonnegative defect, so it
    is never sharper on (0,1)."""
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0,1)")
    lhs = math.exp(2.0 * lgamma(x + 2.0) - lgamma(2.0 * x + 1.0))
    gap_rhs = 1.0 + 2.0 * x - x * x
    defect = min(2.0 * x ** 4 / (2.0 * x + 1.0), x * (x - 1.0) ** 2 / 2.0)
    cited_rhs = gap_rhs - defect
    return {
        "x": x,
        "gamma_ratio": lhs,
        "gap_bound_rhs": gap_rhs,
        "cited_bound_rhs": cited_rhs,
        "gap_bound_holds": lhs >= gap_rhs - 1e-12,
        "cited_bound_holds": lhs > cited_rhs - 1e-12,
        "gap_bound_sharper": gap_rhs >= cited_rhs - 1e-15,
    }
