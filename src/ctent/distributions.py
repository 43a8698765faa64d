"""Distribution catalog and generic distribution plumbing.

A :class:`DistributionSpec` bundles the CDF, survival function, quantile
function and its derivative (the quantile density), support, first two
moments and, where they exist, closed forms for the cumulative Tsallis
entropy ``delta(s)`` and its dual ``nabla(s)``.  The catalog covers the
analytic families with known closed forms: powers of a uniform, the
exponential pair, the Lomax pair, Frechet, reverse Weibull, Gumbel and
logistic, plus the standard normal (no closed forms).  Frechet and reverse
Weibull are one maker, ``_extreme``: as the powers sign W^(-sign/beta) of a
unit exponential W, sign +1 and -1, they share their cdf, quantile density,
moments and closed forms; their duals and the Gumbel's are duality series,
summed by ``series._dual_series``.  ``affine`` and ``negate`` produce derived
specs; ``negate`` carries closed forms across whenever the mirrored law is
itself (a translate of) a catalog member.

A catalog law states one log-probability t(x), its log-cdf or log-survival,
and :func:`_cdf_sf` forms exp(t) on that side and -expm1(t) on the other, so
that each keeps its digits where it is small; the logistic and the normal
(``ndtr``) keep their own pair.  The negative Lomax and negative exponential
are ``negate`` of their partners, renamed, with their own quantile (the
partners' q(u, v) reads v alone: ``negate``'s -q(v, u) loses v below ~1e-16).
All CDF/survival/quantile callables take scalars or arrays and are overflow-safe.

Every quantile-space integral of ctent, the entropies, the risk measures
and the moments a law does not store (:func:`dist_mean`, :func:`dist_std`),
is one tanh-sinh call over both halves, u and v = 1 - u each on (0, 1/2)
(``_both_halves``, heavy ends included), against the record's q(u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, wraps
from typing import Callable, Optional

import numpy as np
from scipy.integrate import tanhsinh
from scipy.optimize import brentq
from scipy.special import betaln, gammaincc, gammaln, ndtr, ndtri, poch, zeta
from scipy.special import psi as digamma

from .errors import DivergentEntropy, DomainError, NonIntegrableError
from .series import _dual_series
from .specfun import EULER_GAMMA, _count, _real, lgamma

NEAR_ZERO = 1e-4  # |s| below this switches closed forms to their limit branch
_EPS = 2.220446049250313e-16
_U_CLIP = 2.0 ** -53  # the smallest v at which 1 - v is exact
# from_quantile's brackets, and a cap on its gap above |asinh a - asinh b| for finite a,
# b, which keeps inf and NaN out of Brent's interpolation
_TINY, _P_TOP, _LOG_TINY, _GAP_CAP = 2.0 ** -1074, 1.0 - _U_CLIP, math.log(2.0 ** -1074), 2e3

# a closed form takes one order (returning a float) or a numpy array of
# orders (returning an array)
ClosedForm = Optional[Callable]


@dataclass(frozen=True)
class DistributionSpec:
    """A distribution exposed through CDF, quantile, support and moments.

    ``cdf`` and ``sf`` take a numpy array or a float.  A float gives a float,
    not a 0-d array, equal bit for bit to the value at a one-element array:
    NaN at NaN, and exactly 0 or 1 at and beyond a finite end of the support.
    The scalar x-space integrals call them one float at a time; a law given
    by its quantile (:func:`from_quantile`) solves for each point on its own.
    ``quantile(u)`` is q(u).  ``quantile(u, v)``, with ``v = 1 - u`` passed
    separately and exactly, is the same q(u) read on the small side: a
    catalog law's closed form takes log v or ndtri(v) where 1 - u would
    round, so that q(1 - v, v) keeps its digits down to the smallest v,
    and a float gives a float.  ``qdensity(u, v)`` is the quantile density
    q'(u) = dq/du, given the same pair, so that it stays accurate as either
    u or v approaches zero; it accepts arrays.  ``None`` means
    the law has no quantile density and cannot be integrated in quantile
    space.  An infinite ``variance`` is inf; a ``mean`` or ``variance`` of
    ``None`` is not stored, and :func:`dist_mean` or :func:`dist_std` integrates.
    ``closed_delta``/``closed_nabla`` evaluate the entropies in closed form,
    at one order or over a numpy array of orders, and raise
    :class:`DivergentEntropy` when an order is one where the entropy is
    infinite (at or below ``finiteness_threshold``).  Over an array, an
    order the closed form cannot evaluate within its bound is NaN; at a
    single order it raises :class:`NonIntegrableError`.  The ``neg_*`` slots
    hold the corresponding data for the mirrored variable and are consumed
    by :func:`negate`.
    """

    name: str
    params: dict
    cdf: Callable
    quantile: Callable
    support: tuple
    mean: float | None
    variance: float | None
    sf: Callable
    qdensity: Callable = None
    closed_delta: ClosedForm = None
    closed_nabla: ClosedForm = None
    finiteness_threshold: float | None = None
    neg_closed_delta: ClosedForm = field(default=None, repr=False)
    neg_closed_nabla: ClosedForm = field(default=None, repr=False)
    neg_finiteness_threshold: float | None = field(default=None, repr=False)

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise DomainError(f"empty support {self.support}")

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted finite observations, n >= 2, for plug-in estimation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 2:
            raise DomainError("empirical sample needs at least 2 observations")
        if not np.all(np.isfinite(v)):
            raise DomainError("empirical sample must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


# ---------------------------------------------------------------------------
# closed forms (shared between a member and its mirrored partner)

def _over_orders(f):
    """Let a closed form written over a numpy array of orders (its last
    argument) take a single order too, which returns a Python float."""

    @wraps(f)
    def closed(*args):
        s = np.asarray(args[-1], dtype=float)
        with np.errstate(all="ignore"):
            out = f(*args[:-1], s)
        return float(out) if s.ndim == 0 else out

    return closed


def _psi_step(c: float, s: np.ndarray) -> np.ndarray:
    """(psi(c+s) - psi(c))/s, continued through s = 0 by its Taylor series
    to second order in s (psi^(m)(c) = (-1)^(m+1) m! zeta(m+1, c))."""
    step = (digamma(c + s) - digamma(c)) / s
    near = np.abs(s) < NEAR_ZERO
    if not np.any(near):
        return step
    taylor = zeta(2.0, c) + s * (-zeta(3.0, c) + s * zeta(4.0, c))
    return np.where(near, taylor, step)


def _gamma_step(c: float, s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """expm1(rho)/s with rho = lgamma(c) + lgamma(s+2) - lgamma(c+s), given
    by the caller, continued through s = 0 by the Taylor series to second
    order in s."""
    step = np.expm1(rho) / s
    near = np.abs(s) < NEAR_ZERO
    if not np.any(near):
        return step
    # rho = a1 s + a2 s^2 + a3 s^3 + ..., a_k = (psi^(k-1)(2) - psi^(k-1)(c))/k!
    a1 = digamma(2.0) - digamma(c)
    a2 = (zeta(2.0, 2.0) - zeta(2.0, c)) / 2.0
    a3 = (zeta(3.0, c) - zeta(3.0, 2.0)) / 3.0
    taylor = a1 + s * (a2 + 0.5 * a1 * a1 + s * (a3 + a1 * a2 + a1 ** 3 / 6.0))
    return np.where(near, taylor, step)


def _power_rho(beta: float, s: np.ndarray) -> np.ndarray:
    # lgamma(x+1) + lgamma(s+2) - lgamma(x+s+2) with x = 1/beta, as
    # log(x B(x, s+2)): betaln keeps its digits where the log-gammas of
    # a huge x would cancel or overflow
    x = 1.0 / beta
    return math.log(x) + betaln(x, s + 2.0)


@_over_orders
def _delta_power(beta: float, s):
    return beta / ((beta + 1.0) * (beta * (1.0 + s) + 1.0))


@_over_orders
def _nabla_power(beta: float, s):
    return -(beta / (beta + 1.0)) * np.expm1(_power_rho(beta, s))


@_over_orders
def _delta_reflected(beta: float, s):
    # rho = lgamma(x+2) + lgamma(s+2) - lgamma(x+s+2), x = 1/beta: betaln
    # is off by 7e-9 at x = 1e6, log poch(x+2, s) by 5e-11 at x ~ 3e3
    if beta > 1e-4:
        rho = _power_rho(beta, s) + math.log1p(1.0 / beta)
    else:
        rho = gammaln(s + 2.0) - np.log(poch(1.0 / beta + 2.0, s))
    return -(beta / (beta + 1.0)) * _gamma_step(1.0 / beta + 2.0, s, rho)


@_over_orders
def _nabla_reflected(beta: float, s):
    return beta * (s + 1.0) * (digamma(1.0 / beta + 2.0 + s) - digamma(s + 2.0)) / (beta + 1.0)


@_over_orders
def _delta_exponential(s):
    return _psi_step(2.0, s)


@_over_orders
def _nabla_exponential(s):
    return (s + 1.0) * zeta(2.0, s + 2.0)


@_over_orders
def _delta_lomax(beta: float, s):
    c = 2.0 - 1.0 / beta
    rho = gammaln(c) + gammaln(s + 2.0) - gammaln(c + s)
    return (beta / (beta - 1.0)) * _gamma_step(c, s, rho)


@_over_orders
def _nabla_lomax(beta: float, s):
    return beta * (s + 1.0) * (digamma(s + 2.0) - digamma(s + 2.0 - 1.0 / beta)) / (beta - 1.0)


@_over_orders
def _delta_negative_lomax(beta: float, s):
    threshold = 1.0 / beta - 1.0
    if np.any(s <= threshold):
        raise DivergentEntropy(
            f"cumulative Tsallis entropy of order s={np.min(s):g} is infinite for "
            f"negative_lomax(beta={beta:g}): the lower-tail integral of "
            f"F^(1+s) diverges at or below the finiteness threshold "
            f"{threshold:g}"
        )
    return beta / ((beta - 1.0) * (beta * (1.0 + s) - 1.0))


@_over_orders
def _nabla_negative_lomax(beta: float, s):
    rho = gammaln(1.0 - 1.0 / beta) + gammaln(s + 2.0) - gammaln(s + 2.0 - 1.0 / beta)
    return (beta / (beta - 1.0)) * np.expm1(rho)


@_over_orders
def _delta_negative_exponential(s):
    return 1.0 / (s + 1.0)


@_over_orders
def _nabla_negative_exponential(s):
    return digamma(s + 2.0) + EULER_GAMMA


@_over_orders
def _delta_extreme(beta: float, sign: float, s):
    # X = sign W^(-sign/beta), W a unit exponential: Frechet (+1), reverse Weibull (-1)
    g = np.exp(lgamma(1.0 - sign / beta))  # inf where Gamma overflows
    return np.where(s == 0.0, g / beta, sign * g * np.expm1(sign * np.log1p(s) / beta) / s)


@_over_orders
def _nabla_extreme(beta: float, sign: float, s):
    g = np.exp(lgamma(1.0 - sign / beta))  # inf where Gamma overflows
    series = _dual_series(s, lambda n: sign * beta * np.expm1(sign * np.log1p(n) / beta) / n)[0]
    return (s + 1.0) * g / beta * series


@_over_orders
def _delta_gumbel(s):
    return np.where(s == 0.0, 1.0, np.log1p(s) / s)


@_over_orders
def _nabla_gumbel(s):
    return (s + 1.0) * _dual_series(s, lambda n: np.log1p(n) / n)[0]


@_over_orders
def _delta_logistic(s):
    return _psi_step(1.0, s)


@_over_orders
def _nabla_logistic(s):
    # gamma + psi(s+1) + (s+1) psi'(s+1), rewritten with both polygammas
    # shifted by one so the 1/(s+1) singularities cancel exactly as s -> -1
    return EULER_GAMMA + digamma(s + 2.0) + (s + 1.0) * zeta(2.0, s + 2.0)


# ---------------------------------------------------------------------------
# catalog constructors

def _cdf_sf(support: tuple, log_cdf: Callable = None, log_sf: Callable = None) -> tuple:
    """(cdf, sf) of a law from one log-probability t(x), its log-cdf or its
    log-survival: that side is exp(t), the other -expm1(t), each exactly 0 or
    1 at and beyond a finite end of the support and NaN at NaN.  t clamps
    nothing: a float x, as the scalar x-space integrals pass it, meets plain
    comparisons at the finite ends first, so t sees it only inside the support,
    at an infinite end or NaN, and gives a Python float, the array's bits; an
    array runs t with numpy's errors silenced, then ``where`` sets the 0s and 1s."""
    t = log_sf if log_cdf is None else log_cdf
    lo, hi = support
    low, high = lo > -math.inf, hi < math.inf
    # bound once: a scalar x-space integral calls these ~10^4 times
    asarray, where, exp, expm1 = np.asarray, np.where, np.exp, np.expm1

    def side(exp_form: bool, below: float, above: float) -> Callable:
        def f(x):
            if isinstance(x, float):
                if low and x <= lo:
                    return below
                if high and x >= hi:
                    return above
                return float(exp(t(x))) if exp_form else float(-expm1(t(x)))
            x = asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                p = exp(t(x)) if exp_form else -expm1(t(x))
            if low:
                p = where(x <= lo, below, p)
            if high:
                p = where(x >= hi, above, p)
            return p

        return f

    return side(log_cdf is not None, 0.0, 1.0), side(log_cdf is None, 1.0, 0.0)


def _negated(x):
    # -x, a float kept a float for the scalar x-space integrals
    return -x if isinstance(x, float) else -np.asarray(x, dtype=float)


def _neg_log(u, v):
    # -log u, taken as -log1p(-v) where u is near 1 so that it keeps v's digits
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(u < 0.5, -np.log(u), -np.log1p(-np.asarray(v, dtype=float)))


def _power_variance(b: float) -> float:
    # b / ((b+2) (b+1)^2), divided out term by term so that no factor overflows
    return b / (b + 2.0) / (b + 1.0) / (b + 1.0)


def _lomax_variance(b: float) -> float:
    # b / ((b-1)^2 (b-2)), divided out term by term so that no factor overflows
    return b / (b - 1.0) / (b - 1.0) / (b - 2.0) if b > 2.0 else math.inf


def make_power_uniform(beta: float) -> DistributionSpec:
    """Law of U^(1/beta) on (0,1): cdf x^beta."""
    b = _real(beta, 0.0, "beta")
    cdf, sf = _cdf_sf((0.0, 1.0), log_cdf=lambda x: b * np.log(x))
    return DistributionSpec(
        name="power_uniform", params={"beta": b},
        # u^(1/b) keeps its digits where 1 - u rounds, so the pair reads u
        cdf=cdf, sf=sf, quantile=lambda u, v=None: np.exp(np.log(u) / b), support=(0.0, 1.0),
        qdensity=lambda u, v: np.power(u, 1.0 / b - 1.0) / b,
        mean=b / (b + 1.0), variance=_power_variance(b),
        closed_delta=lambda s: _delta_power(b, s),
        closed_nabla=lambda s: _nabla_power(b, s),
        neg_closed_delta=lambda s: _delta_reflected(b, s),
        neg_closed_nabla=lambda s: _nabla_reflected(b, s),
    )


def make_reflected_power(beta: float) -> DistributionSpec:
    """Law of 1 - U^(1/beta) on (0,1): cdf 1-(1-x)^beta."""
    b = _real(beta, 0.0, "beta")
    cdf, sf = _cdf_sf((0.0, 1.0), log_sf=lambda x: b * np.log1p(-x))
    return DistributionSpec(
        name="reflected_power", params={"beta": b},
        cdf=cdf, sf=sf, support=(0.0, 1.0),
        quantile=lambda u, v=None: -np.expm1((np.log1p(-u) if v is None else np.log(v)) / b),
        qdensity=lambda u, v: np.power(v, 1.0 / b - 1.0) / b,
        mean=1.0 / (b + 1.0), variance=_power_variance(b),
        closed_delta=lambda s: _delta_reflected(b, s),
        closed_nabla=lambda s: _nabla_reflected(b, s),
        neg_closed_delta=lambda s: _delta_power(b, s),
        neg_closed_nabla=lambda s: _nabla_power(b, s),
    )


def make_exponential() -> DistributionSpec:
    """Unit-rate exponential; rescale through affine()."""
    cdf, sf = _cdf_sf((0.0, math.inf), log_sf=lambda x: -x)
    return DistributionSpec(
        name="exponential", params={},
        cdf=cdf, sf=sf, quantile=lambda u, v=None: -np.log1p(-u) if v is None else -np.log(v),
        support=(0.0, math.inf),
        qdensity=lambda u, v: np.power(v, -1.0),
        mean=1.0, variance=1.0,
        closed_delta=_delta_exponential,
        closed_nabla=_nabla_exponential,
        neg_closed_delta=_delta_negative_exponential,
        neg_closed_nabla=_nabla_negative_exponential,
    )


def make_lomax(beta: float) -> DistributionSpec:
    """Lomax (Pareto II) on (0, inf): cdf 1-(1+x)^(-beta), beta > 1."""
    b = _real(beta, 1.0, "beta")
    cdf, sf = _cdf_sf((0.0, math.inf), log_sf=lambda x: -b * np.log1p(x))
    return DistributionSpec(
        name="lomax", params={"beta": b},
        cdf=cdf, sf=sf, support=(0.0, math.inf),
        quantile=lambda u, v=None: np.expm1(-(np.log1p(-u) if v is None else np.log(v)) / b),
        qdensity=lambda u, v: np.power(v, -1.0 / b - 1.0) / b,
        mean=1.0 / (b - 1.0), variance=_lomax_variance(b),
        closed_delta=lambda s: _delta_lomax(b, s),
        closed_nabla=lambda s: _nabla_lomax(b, s),
        neg_closed_delta=lambda s: _delta_negative_lomax(b, s),
        neg_closed_nabla=lambda s: _nabla_negative_lomax(b, s),
        neg_finiteness_threshold=1.0 / b - 1.0,
    )


def make_negative_lomax(beta: float) -> DistributionSpec:
    """Law of 1 - U^(-1/beta) on (-inf, 0): cdf (1-x)^(-beta), beta > 1.

    The entropy delta(s) is infinite at or below s = 1/beta - 1.
    """
    b = _real(beta, 1.0, "beta")
    # negate's support would end at -0.0
    return replace(negate(make_lomax(b)), name="negative_lomax", support=(-math.inf, 0.0),
                   quantile=lambda u, v=None: -np.expm1(
                       -np.log(u) / b if v is None else _neg_log(u, v) / b))


def make_negative_exponential() -> DistributionSpec:
    """Mirrored unit exponential on (-inf, 0): cdf e^x."""
    return replace(negate(make_exponential()), name="negative_exponential",
                   support=(-math.inf, 0.0),
                   quantile=lambda u, v=None: np.log(u) if v is None else -_neg_log(u, v))


def _extreme(name: str, b: float, sign: float) -> DistributionSpec:
    """The law of X = sign W^(-sign/b), W = -log U a unit exponential: cdf
    exp(-(sign x)^(-sign b)) where sign x > 0.  Frechet is sign +1, on (0, inf),
    reverse Weibull sign -1, on (-inf, 0).  Gumbel, -log W, is their limit as
    1/b -> 0 after centring and scaling, and has a maker of its own."""

    def log_cdf(x):
        with np.errstate(over="ignore"):
            return -np.power(sign * x, -sign * b)

    support = (0.0, math.inf) if sign > 0.0 else (-math.inf, 0.0)
    cdf, sf = _cdf_sf(support, log_cdf=log_cdf)
    # the quantile's last step stays per law: a NaN keeps its sign bit
    last = (lambda y: np.exp(-y / b)) if sign > 0.0 else (lambda y: -np.exp(y / b))
    lg, var_arg = lgamma(1.0 - sign / b), 1.0 - 2.0 * sign / b
    with np.errstate(over="ignore"):  # an overflowing moment is infinite
        g = float(np.exp(lg))
        var = (float(g * g * np.expm1(lgamma(var_arg) - 2.0 * lg))
               if var_arg > 0.0 and g < math.inf else math.inf)
    return DistributionSpec(
        name=name, params={"beta": b},
        cdf=cdf, sf=sf, support=support,
        quantile=lambda u, v=None: last(np.log(-np.log(u) if v is None else _neg_log(u, v))),
        qdensity=lambda u, v: np.power(_neg_log(u, v), -sign / b - 1.0) / (b * u),
        mean=sign * g, variance=var,
        closed_delta=lambda s: _delta_extreme(b, sign, s),
        closed_nabla=lambda s: _nabla_extreme(b, sign, s),
        neg_finiteness_threshold=1.0 / b - 1.0 if sign > 0.0 else None,
    )


def make_frechet(beta: float) -> DistributionSpec:
    """Frechet on (0, inf): cdf exp(-x^(-beta)), beta > 1 for a finite mean."""
    return _extreme("frechet", _real(beta, 1.0, "beta"), 1.0)


def make_reverse_weibull(beta: float) -> DistributionSpec:
    """Reverse Weibull on (-inf, 0): cdf exp(-(-x)^beta), beta > 0."""
    return _extreme("reverse_weibull", _real(beta, 0.0, "beta"), -1.0)


def make_gumbel() -> DistributionSpec:
    """Standard Gumbel: cdf exp(-e^(-x)) on the whole line."""

    def log_cdf(x):
        with np.errstate(over="ignore"):
            return -np.exp(-x)

    cdf, sf = _cdf_sf((-math.inf, math.inf), log_cdf=log_cdf)
    return DistributionSpec(
        name="gumbel", params={},
        cdf=cdf, sf=sf, support=(-math.inf, math.inf),
        quantile=lambda u, v=None: -np.log(-np.log(u) if v is None else _neg_log(u, v)),
        qdensity=lambda u, v: np.power(u * _neg_log(u, v), -1.0),
        mean=EULER_GAMMA, variance=math.pi ** 2 / 6.0,
        closed_delta=_delta_gumbel,
        closed_nabla=_nabla_gumbel,
    )


def make_logistic() -> DistributionSpec:
    """Standard logistic: cdf e^x/(1+e^x); variance pi^2/3."""

    def cdf(x):
        # e^-|x| cannot overflow; a float stays a float, as in _cdf_sf
        scalar = isinstance(x, float)
        x = x if scalar else np.asarray(x, dtype=float)
        e = np.exp(-np.abs(x))
        pos = 1.0 / (1.0 + e)
        if scalar:
            return float(pos if x >= 0.0 else e * pos)
        return np.where(x >= 0.0, pos, e * pos)

    def sf(x):
        return cdf(_negated(x))

    return DistributionSpec(
        name="logistic", params={},
        cdf=cdf, sf=sf,
        quantile=lambda u, v=None: np.log(u) - (np.log1p(-u) if v is None else np.log(v)),
        support=(-math.inf, math.inf),
        qdensity=lambda u, v: np.power(u * v, -1.0),
        mean=0.0, variance=math.pi ** 2 / 3.0,
        closed_delta=_delta_logistic,
        closed_nabla=_nabla_logistic,
        neg_closed_delta=_delta_logistic,
        neg_closed_nabla=_nabla_logistic,
    )


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_spec() -> DistributionSpec:
    """Standard normal (symmetric, unit variance); no closed forms."""
    return DistributionSpec(
        name="normal", params={},
        cdf=ndtr, sf=lambda x: ndtr(_negated(x)),
        # ndtri(u) below 1/2 and -ndtri(v) above: one ndtri at the smaller
        quantile=lambda u, v=None: ndtri(u) if v is None else np.copysign(
            ndtri(np.minimum(u, v)), np.subtract(u, 0.5)),
        # q'(u) = sqrt(2 pi) exp(x^2/2) at x = q(u), symmetric about u = 1/2
        qdensity=lambda u, v: _SQRT_2PI * np.exp(0.5 * ndtri(np.minimum(u, v)) ** 2),
        support=(-math.inf, math.inf), mean=0.0, variance=1.0,
    )


def make_uniform(a: float = 0.0, length: float = 1.0) -> DistributionSpec:
    """Uniform on (a, a+length)."""
    a, length = _real(a, -math.inf, "uniform a"), _real(length, 0.0, "uniform length")
    d = affine(make_power_uniform(1.0), length, a)
    return replace(d, name="uniform", params={"a": a, "length": length})


# ---------------------------------------------------------------------------
# transformations

def _wrap_closed(f: ClosedForm, scale: float) -> ClosedForm:
    # scales an order's value and an array of them alike
    if f is None:
        return None
    return lambda s: scale * f(s)


def affine(d: DistributionSpec, a: float, b: float) -> DistributionSpec:
    """Spec of a*X + b for a > 0; closed entropies scale by a."""
    a = float(a)
    b = float(b)
    if not a > 0.0:
        raise DomainError(f"affine scale must be positive, got {a}")
    cdf, sf, q, qd = d.cdf, d.sf, d.quantile, d.qdensity
    lo, hi = d.support

    def standard(x):  # (x - b)/a; it overflows where the base law is 0 or 1
        if isinstance(x, float):
            return (x - b) / a
        with np.errstate(over="ignore"):
            return (np.asarray(x, dtype=float) - b) / a

    return DistributionSpec(
        name=f"affine[{d.name}]",
        params={**d.params, "scale": a, "shift": b},
        cdf=lambda x: cdf(standard(x)),
        sf=lambda x: sf(standard(x)),
        quantile=lambda u, v=None: a * (q(u) if v is None else q(u, v)) + b,
        qdensity=None if qd is None else (lambda u, v: a * qd(u, v)),
        support=(a * lo + b, a * hi + b),
        mean=None if d.mean is None else a * d.mean + b,
        variance=None if d.variance is None else a * a * d.variance,
        closed_delta=_wrap_closed(d.closed_delta, a),
        closed_nabla=_wrap_closed(d.closed_nabla, a),
        finiteness_threshold=d.finiteness_threshold,
        neg_closed_delta=_wrap_closed(d.neg_closed_delta, a),
        neg_closed_nabla=_wrap_closed(d.neg_closed_nabla, a),
        neg_finiteness_threshold=d.neg_finiteness_threshold,
    )


def negate(d: DistributionSpec) -> DistributionSpec:
    """Spec of -X, with quantile -q(v, u), v = 1 - u by default: the base's
    small side is u itself (NaN below 2^-53 for a ``from_quantile`` base).
    Closed forms are not inherited; they come from the mirrored-partner
    slots when the mirrored law is known analytically."""
    cdf, sf, q, qd = d.cdf, d.sf, d.quantile, d.qdensity
    lo, hi = d.support
    return DistributionSpec(
        name=f"negated[{d.name}]",
        params=dict(d.params),
        cdf=lambda x: sf(_negated(x)),
        sf=lambda x: cdf(_negated(x)),
        quantile=lambda u, v=None: -q(1.0 - np.asarray(u, dtype=float) if v is None else v, u),
        qdensity=None if qd is None else (lambda u, v: qd(v, u)),
        support=(-hi, -lo),
        mean=None if d.mean is None else -d.mean,
        variance=d.variance,
        closed_delta=d.neg_closed_delta,
        closed_nabla=d.neg_closed_nabla,
        finiteness_threshold=d.neg_finiteness_threshold,
        neg_closed_delta=d.closed_delta,
        neg_closed_nabla=d.closed_nabla,
        neg_finiteness_threshold=d.finiteness_threshold,
    )


def from_quantile(name: str, quantile: Callable, support: tuple,
                  mean: float | None = None, variance: float | None = None,
                  params: dict | None = None,
                  qdensity: Callable | None = None) -> DistributionSpec:
    """Build a spec from a strictly increasing quantile function.

    The CDF at x is one ``scipy.optimize.brentq`` solve of asinh q(p) = asinh x
    per point, so a float and a one-element array give the same bits: below
    the median in l = log p down to 2^-1074, above it in p up to 1 - 2^-53.
    A NaN quantile counts as above x, a solve that does not converge raises
    :class:`NonIntegrableError`, and sf is 1 - cdf.  ``quantile`` takes u
    alone, as a float or a numpy array; the record's ``quantile(u, v)`` calls
    it at u, which has rounded to 1 where v is below 2^-53: there it gives NaN.
    ``qdensity(u, v)`` is the quantile's derivative at u, given v = 1 - u
    exactly (see :class:`DistributionSpec`); without it the quantile-space
    evaluators refuse the law.
    """
    lo, hi = support
    end = cache(lambda p: math.asinh(float(quantile(p))))  # at the brackets' ends, once per law

    def pair(u, v=None):
        if v is None:
            return quantile(u)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(np.less(v, _U_CLIP), math.nan, quantile(u))[()]

    def cdf_scalar(x: float) -> float:
        if not lo < x < hi:
            return math.nan if x != x else (0.0 if x <= lo else 1.0)
        ax = math.asinh(x)

        def gap(p: float) -> float:  # asinh(q(p)) - asinh(x), clamped, NaN above
            g = (end(p) if p in (0.5, _TINY, _P_TOP) else math.asinh(float(quantile(p)))) - ax
            return -_GAP_CAP if g < -_GAP_CAP else (g if g <= _GAP_CAP else _GAP_CAP)

        if gap(0.5) > 0.0:  # below the median, in l = log p
            if gap(_TINY) > 0.0:
                return 0.0
            f, a, b, to_p = (lambda l: gap(math.exp(l))), _LOG_TINY, math.log(0.5), math.exp
        elif gap(_P_TOP) < 0.0:
            return 1.0
        else:
            f, a, b, to_p = gap, 0.5, _P_TOP, float
        root, r = brentq(f, a, b, xtol=_TINY, rtol=4.0 * _EPS, full_output=True, disp=False)
        if not r.converged:
            raise NonIntegrableError(f"the cdf of {name} at x = {x!r} did not converge (brentq)")
        return to_p(root)

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.array([cdf_scalar(v) for v in arr.ravel().tolist()]).reshape(arr.shape)[()]

    return DistributionSpec(
        name=name, params=params or {},
        cdf=cdf, sf=lambda x: 1.0 - cdf(x), quantile=pair, qdensity=qdensity, support=support,
        mean=mean, variance=variance,
    )


# the probe's ladder of t: two decades apart down to 1e-18, ten decades apart
# from 1e-20 down to 1e-300, and the least subnormal
_LADDER = np.concatenate([10.0 ** -np.arange(2.0, 19.0, 2.0), 10.0 ** -np.arange(20.0, 301.0, 10.0),
                          [2.0 ** -1074]])
_X = -np.log(_LADDER)
_STEPS = _LADDER[:-1] * np.diff(_X)  # t dx: the probe's sum of t |f| in log t
_REACH = 1.0 / 400.0  # the least a + 1 of an end f ~ t^a that runs in x = -log t: t^-0.9975
LOST_END = -10  # the status of a half whose end lies beyond that reach


def _end_mass(x, y, end):
    # the mass below t = e^-end of the fit C t^a (-log t)^b through three points (x, y) =
    # (-log t, log|f|): C Gamma(b+1, (a+1) end)/(a+1)^(b+1), which needs b > -1
    lx = np.log(x)
    p, r, dy = np.diff(x), np.diff(lx), np.diff(y)
    det = p[..., 1] * r[..., 0] - p[..., 0] * r[..., 1]
    a = (dy[..., 0] * r[..., 1] - r[..., 0] * dy[..., 1]) / det
    b = (p[..., 1] * dy[..., 0] - p[..., 0] * dy[..., 1]) / det
    log_c = y[..., 2] + a * x[..., 2] - b * lx[..., 2]
    mass = np.exp(log_c + gammaln(b + 1.0) + np.log(gammaincc(b + 1.0, (a + 1.0) * end))
                  - (b + 1.0) * np.log(a + 1.0))
    return np.where(b > -1.0, mass, np.nan)


def _refusal(what: str, status: int, nfev: int, end: tuple = ()) -> NonIntegrableError:
    # a quantile-space integral's refusal; ``end``: a lost end's fitted mass and t_L
    if status != LOST_END:
        return NonIntegrableError(f"{what} (tanh-sinh status {status}, {nfev} evaluations)")
    mass = f"~{end[0]:.3g}" if end and math.isfinite(end[0]) else "not finite"
    below = f", {mass} below t = {end[1]:.3g}" if end else ""
    return NonIntegrableError(f"{what} (it lost its tail{below}; no fit or steeper than t^-0.9975)")


def _probe(p: np.ndarray, tolerances: dict) -> dict:
    # each half's end from its values p on the ladder, one row per element
    # (see _both_halves): each row's x_L, 0 where it does not fire and inf where
    # it is lost (None where no row fires), and its end mass and error
    run = np.logical_and.accumulate(np.isfinite(p), axis=-1)
    n = run.sum(axis=-1)
    at = n[:, None] - np.arange(4, 0, -1)  # the last four finite points
    xs, fs = _X[at], p[np.arange(len(p))[:, None], at]
    ys = np.log(np.abs(fs))
    a = np.where(n < 2, np.nan, (ys[:, 2] - ys[:, 3]) / (xs[:, 3] - xs[:, 2]))
    tf = np.exp(ys[:, 3] - xs[:, 3])
    mass = np.where(tf == 0.0, 0.0, tf / np.maximum(a + 1.0, 0.0))
    # scipy's default tolerances where unset; a half finite nowhere is tanh-sinh's to report
    tol = np.maximum(tolerances.get("atol", 0.0), tolerances.get("rtol", _EPS ** 0.75)
                     * (np.where(run, np.abs(p), 0.0)[:, :-1] @ _STEPS))
    fire = (n > 0) & ~(mass <= tol)
    if not fire.any():
        return {"x": None}
    closed = np.where(n >= 4, _end_mass(xs[:, 1:], ys[:, 1:], xs[:, 3]), np.nan)
    other = _end_mass(xs[:, :3], ys[:, :3], xs[:, 3])
    ok = (a + 1.0 >= _REACH) & np.isfinite(closed - other) & (abs(np.sign(fs).sum(-1)) == 4)
    return {"x": np.where(fire, np.where(ok, xs[:, 3], np.inf), 0.0), "sub": fire & ok,
            "mass": np.sign(fs[:, 3]) * closed,
            "error": np.abs(closed - other) * xs[:, 3] / (xs[:, 3] - xs[:, 2]),
            "end": (closed, _LADDER[n - 1])}


def _both_halves(f: Callable, args: tuple = (), **tolerances):
    """integral_0^1 f(k, u, v, *args) du, v = 1 - u, as one tanh-sinh call over
    both halves, side k = 0 in u and side 1 in v, each on y in (0, 1/2) (in u
    alone the nodes with 1 - u below ~1e-16, and the tail mass, are lost).
    A row of nodes is one element of a (2, 1) column broadcast against
    ``args``: the row's index, which scipy slices with the active rows.

    scipy's first call, one midpoint per element, also evaluates each half on
    ``_LADDER``: its finite run ends at t_L, where the last two points give
    f ~ t^a.  Where the mass below t_L, t_L |f(t_L)|/(a+1), exceeds max(atol,
    rtol E), E the probe's sum of t |f| in log t, the half fires and runs in
    x = -log t from x_L = -log t_L to log 2, t = exp(2 (x_L - log 2) y - x_L),
    plus the mass below t_L: the fit C t^a (-log t)^b through the last three
    finite points, in closed form, its error the difference from the fit
    through the three before times x_L/dx (dx the step between the fits' last
    points).  Other halves, those finite at no probe point too, run in t = y,
    where scipy replaces a non-finite node by its nearest finite neighbour.
    One that fires with no fit (under four finite points, b <= -1, mixed
    signs) or a + 1 < 1/400 is lost: x_L = inf ends it at its first node, with
    the status ``LOST_END``, a NaN integral and its figures in ``end``.
    Returns scipy's result, side 0 first."""
    rows = np.arange(np.broadcast(np.empty((2, 1)), *args).size).reshape(2, -1)
    fit = {}  # the probe's findings, once the midpoint call has run

    def g(y, row, *rest):
        t, x = y, fit.get("x")
        if x is not None:  # a half that fires runs in x = -log t, dt = w t dy
            x = x[row]
            w = 2.0 * (x - math.log(2.0))
            t = np.where(x > 0.0, np.exp(w * y - x), y)
        out, upper = np.empty_like(t), row[..., 0] >= rows.shape[1]
        for k, at in enumerate((~upper, upper)):
            if at.any():
                p = t[at]
                u, v = (p, 1.0 - p) if k == 0 else (1.0 - p, p)
                out[at] = f(k, u, v, *(a[at] for a in rest))
        return out if x is None else out * np.where(x > 0.0, w * t, 1.0)

    def first(y, *rest):
        if fit:
            return g(y, *rest)
        # the midpoint call: one row per element, its midpoint and the ladder
        cols = [np.reshape(a, (-1, 1)) for a in rest]
        out = g(np.column_stack([y.ravel(), np.tile(_LADDER, (y.size, 1))]), *cols)
        fit.update(_probe(out[:, 1:], tolerances))
        if fit["x"] is not None:  # the midpoints of the halves that fire, NaN where lost
            at = fit["x"] > 0.0
            out[at, :1] = g(y.reshape(-1, 1)[at], *(c[at] for c in cols))
        return out[:, 0].reshape(y.shape)

    with np.errstate(all="ignore"):
        r = tanhsinh(first, 0.0, 0.5, args=(rows,) + args, **tolerances)
    r.end = fit.get("end")
    if fit["x"] is not None:  # the mass below t_L joins each half that fired
        at, lost = np.flatnonzero(fit["sub"]), np.flatnonzero(np.isinf(fit["x"]))
        r.integral.flat[at] += fit["mass"][at]
        r.error.flat[at] += fit["error"][at]
        r.integral.flat[lost], r.status.flat[lost] = np.nan, LOST_END
    return r


def _halves_integral(f: Callable, what: str, **tolerances) -> tuple:
    # (value, error) of _both_halves; a nonzero status raises, headed by ``what``
    r = _both_halves(f, **tolerances)
    for k in np.flatnonzero(r.status != 0):
        end = tuple(float(x.flat[k]) for x in r.end) if r.status.flat[k] == LOST_END else ()
        raise _refusal(f"{what} does not converge where u {('< 1/2', '> 1/2')[k]}",
                       int(r.status.flat[k]), int(r.nfev.flat[k]), end)
    return float(np.sum(r.integral)), float(np.sum(r.error))


def _quantile_moment(d: DistributionSpec, f: Callable, what: str) -> float:
    # integral_0^1 f(q(u, v)) du over both halves, for a law that stores no such
    # moment; a half that does not converge raises.  The atol lets 0 converge
    return _halves_integral(lambda k, u, v: f(d.quantile(u, v)), f"the {what} of {d.label()}",
                            atol=np.finfo(float).tiny, rtol=1e-13)[0]


def dist_mean(d: DistributionSpec) -> float:
    """The distribution's mean; falls back to quantile-space quadrature."""
    return float(d.mean) if d.mean is not None else _quantile_moment(d, lambda x: x, "mean")


def dist_std(d: DistributionSpec) -> float:
    """Standard deviation, inf for an infinite variance; quadrature
    fallback when not stored."""
    if d.variance is None:
        m = dist_mean(d)
        return math.sqrt(max(_quantile_moment(d, lambda x: (x - m) ** 2, "variance"), 0.0))
    var = float(d.variance)
    if not var >= 0.0:
        raise DomainError(f"{d.label()} carries the variance {var}, not a nonnegative one")
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# sampling

def sample(d: DistributionSpec, n: int, seed: int) -> EmpiricalSample:
    """n i.i.d. draws via quantile(U) with a PCG64 generator; sorted output.

    U is clipped away from {0,1} by one ulp so that unbounded quantiles
    never produce infinities.
    """
    n = _count(n, 2, "sample size")
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(n), _U_CLIP, 1.0 - _U_CLIP)
    return EmpiricalSample(np.asarray(d.quantile(u), dtype=float))


# ---------------------------------------------------------------------------
# name registry (CLI surface: {"name": ..., <params>})

_REGISTRY: dict = {}


def register(name: str, factory: Callable, param_names: tuple = ()) -> None:
    _REGISTRY[name] = (factory, tuple(param_names))


register("power_uniform", make_power_uniform, ("beta",))
register("reflected_power", make_reflected_power, ("beta",))
register("exponential", make_exponential, ())
register("lomax", make_lomax, ("beta",))
register("negative_lomax", make_negative_lomax, ("beta",))
register("negative_exponential", make_negative_exponential, ())
register("frechet", make_frechet, ("beta",))
register("reverse_weibull", make_reverse_weibull, ("beta",))
register("gumbel", make_gumbel, ())
register("logistic", make_logistic, ())
register("uniform", make_uniform, ("a", "length"))
register("normal", normal_spec, ())


def available_distributions() -> list:
    return sorted(_REGISTRY)


def from_name(name: str, params: dict | None = None) -> DistributionSpec:
    """Construct a catalog member from its name and a parameter mapping."""
    if name not in _REGISTRY:
        raise DomainError(
            f"unknown distribution {name!r}; known: {', '.join(available_distributions())}")
    factory, param_names = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - set(param_names)
    if unknown:
        raise DomainError(f"{name} does not take parameters {sorted(unknown)}")
    return factory(**{k: float(v) for k, v in params.items()})
