"""Distribution catalog and generic distribution plumbing.

A :class:`DistributionSpec` bundles the CDF, survival function, quantile
function and its derivative (the quantile density), support, first two
moments and, where they exist, closed forms for the cumulative Tsallis
entropy ``delta(s)`` and its dual ``nabla(s)``.  The catalog covers the
analytic families with known closed forms: powers of a uniform, the
exponential pair, the Lomax pair, Frechet, reverse Weibull, Gumbel and
logistic, plus the standard normal (no closed forms).  ``affine`` and
``negate`` produce derived specs; ``negate`` carries closed forms across
whenever the mirrored law is itself (a translate of) a catalog member.

A catalog law states one log-probability t(x), its log-cdf or log-survival,
and :func:`_cdf_sf` forms exp(t) on that side and -expm1(t) on the other, so
that each keeps its digits where it is small; the logistic and the normal
(``ndtr``) keep their own pair.  The negative Lomax and negative exponential
are ``negate`` of their partners, renamed, with their own quantile (the
partners' q(u, v) reads v alone: ``negate``'s -q(v, u) loses v below ~1e-16).
All CDF/survival/quantile callables take scalars or arrays and are overflow-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import wraps
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, gammaln, ndtr, ndtri, poch, zeta
from scipy.special import psi as digamma

from .errors import DivergentEntropy, DomainError, NonIntegrableError
from .series import pochhammer_ratio_tail, sign_fix_index
from .specfun import EULER_GAMMA, lgamma

NEAR_ZERO = 1e-4  # |s| below this switches closed forms to their limit branch
# relative accuracy the closed forms promise: 1e-10 * max(1, |value|)
CLOSED_BOUND = 1e-10
_EPS = 2.220446049250313e-16
_U_CLIP = 2.0 ** -53  # the smallest v at which 1 - v is exact

# a closed form takes one order (returning a float) or a numpy array of
# orders (returning an array)
ClosedForm = Optional[Callable]


@dataclass(frozen=True)
class DistributionSpec:
    """A distribution exposed through CDF, quantile, support and moments.

    ``cdf`` and ``sf`` take a numpy array or a float.  A float gives a float,
    not a 0-d array, equal bit for bit to the value at a one-element array:
    NaN at NaN, and exactly 0 or 1 at and beyond a finite end of the support.
    The scalar x-space integrals call them one float at a time.
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

def _check_beta(beta: float, low: float) -> float:
    beta = float(beta)
    if not (beta > low and math.isfinite(beta)):
        raise DomainError(f"beta must be finite and exceed {low}, got {beta}")
    return beta


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


_SERIES_HEAD = 20000
# orders summed together, so that one (orders x head) temporary is 2 MiB
_SERIES_ROWS = max(1, (1 << 18) // _SERIES_HEAD)


def _dual_series(s: np.ndarray, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """1 + sum_{n>=1} (-s)_n/(n+1)! g(n) for each order of s, summed exactly
    to a large head and completed with a tail integral of the continuous
    coefficient function.

    The head is formed in blocks of orders.  Its alternating terms, those
    below ``sign_fix_index(s)``, are summed by ``math.fsum``; the rest keep
    one sign.  For large s the head alternates with terms as large as
    ~C(s, s/2), each carrying a rounding error of a few eps of its
    magnitude; an order where that exceeds the closed-form bound, or whose
    head overflows, is refused before its tail is formed: it is NaN in an
    array, and a single order raises :class:`NonIntegrableError`.
    """
    orders = np.atleast_1d(s)
    # integer orders s >= 0 terminate: their head is the whole series
    terminating = (orders >= 0.0) & (orders == np.floor(orders))
    total = np.empty(orders.shape)
    size = np.empty(orders.shape)
    n = np.arange(1, _SERIES_HEAD + 1, dtype=float)
    gn = g(n)
    for lo in range(0, orders.size, _SERIES_ROWS):
        blk = orders[lo:lo + _SERIES_ROWS]
        width = _SERIES_HEAD
        if terminating[lo:lo + _SERIES_ROWS].all():
            width = min(int(blk.max()), _SERIES_HEAD)
        terms = np.cumprod((n[:width] - 1.0 - blk[:, None]) / (n[:width] + 1.0), axis=1)
        terms *= gn[:width]
        size[lo:lo + blk.size] = 1.0 + np.sum(np.abs(terms), axis=1)
        for i, (row, order) in enumerate(zip(terms, blk.tolist()), start=lo):
            k = sign_fix_index(order) - 1  # an overflowing head is refused below
            total[i] = (math.fsum([1.0, *row[:k].tolist(), float(np.sum(row[k:]))])
                        if math.isfinite(size[i]) else math.nan)
    refused = ~(8.0 * _EPS * size <= CLOSED_BOUND * np.abs(total))
    if np.ndim(s) == 0 and refused[0]:
        raise NonIntegrableError(
            f"the duality series at order s={float(s):g} sums to {total[0]:.3g} from terms "
            f"of total size {size[0]:.3g}: its rounding exceeds the closed-form bound")
    tailed = ~refused & ~terminating
    if tailed.any():
        total[tailed] += pochhammer_ratio_tail(orders[tailed], _SERIES_HEAD, g)
    total[refused] = np.nan
    return total.reshape(np.shape(s))


@_over_orders
def _delta_frechet(beta: float, s):
    g = math.exp(lgamma(1.0 - 1.0 / beta))
    return np.where(s == 0.0, g / beta, g * np.expm1(np.log1p(s) / beta) / s)


@_over_orders
def _nabla_frechet(beta: float, s):
    g = math.exp(lgamma(1.0 - 1.0 / beta))
    series = _dual_series(s, lambda n: beta * np.expm1(np.log1p(n) / beta) / n)
    return (s + 1.0) * g / beta * series


@_over_orders
def _delta_reverse_weibull(beta: float, s):
    g = np.exp(lgamma(1.0 + 1.0 / beta))  # inf where Gamma overflows
    return np.where(s == 0.0, g / beta, -g * np.expm1(-np.log1p(s) / beta) / s)


@_over_orders
def _nabla_reverse_weibull(beta: float, s):
    g = np.exp(lgamma(1.0 + 1.0 / beta))  # inf where Gamma overflows
    series = _dual_series(s, lambda n: -beta * np.expm1(-np.log1p(n) / beta) / n)
    return (s + 1.0) * g / beta * series


@_over_orders
def _delta_gumbel(s):
    return np.where(s == 0.0, 1.0, np.log1p(s) / s)


@_over_orders
def _nabla_gumbel(s):
    return (s + 1.0) * _dual_series(s, lambda n: np.log1p(n) / n)


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
    1 at and beyond a finite end of the support and NaN at NaN.  t runs at
    every point of an array, so it clamps its argument or silences its own
    overflow.  A float x, as the scalar x-space integrals pass it, takes plain
    comparisons at the ends and gives a Python float, bit for bit the array's
    value, without forming a 0-d array."""
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


_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest float below 1: log1p(-x) stays finite


def make_power_uniform(beta: float) -> DistributionSpec:
    """Law of U^(1/beta) on (0,1): cdf x^beta."""
    b = _check_beta(beta, 0.0)
    cdf, sf = _cdf_sf((0.0, 1.0), log_cdf=lambda x: b * np.log(np.clip(x, 1e-300, 1.0)))
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
    b = _check_beta(beta, 0.0)
    cdf, sf = _cdf_sf((0.0, 1.0), log_sf=lambda x: b * np.log1p(-np.clip(x, 0.0, _BELOW_ONE)))
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
    cdf, sf = _cdf_sf((0.0, math.inf), log_sf=lambda x: -np.maximum(x, 0.0))
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
    b = _check_beta(beta, 1.0)
    cdf, sf = _cdf_sf((0.0, math.inf), log_sf=lambda x: -b * np.log1p(np.maximum(x, 0.0)))
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
    b = _check_beta(beta, 1.0)
    # negate's support would end at -0.0
    return replace(negate(make_lomax(b)), name="negative_lomax", support=(-math.inf, 0.0),
                   quantile=lambda u, v=None: -np.expm1(
                       -np.log(u) / b if v is None else _neg_log(u, v) / b))


def make_negative_exponential() -> DistributionSpec:
    """Mirrored unit exponential on (-inf, 0): cdf e^x."""
    return replace(negate(make_exponential()), name="negative_exponential",
                   support=(-math.inf, 0.0),
                   quantile=lambda u, v=None: np.log(u) if v is None else -_neg_log(u, v))


def make_frechet(beta: float) -> DistributionSpec:
    """Frechet on (0, inf): cdf exp(-x^(-beta)), beta > 1 for a finite mean."""
    b = _check_beta(beta, 1.0)

    def log_cdf(x):
        with np.errstate(over="ignore", divide="ignore"):
            return -np.power(np.maximum(x, 0.0), -b)

    cdf, sf = _cdf_sf((0.0, math.inf), log_cdf=log_cdf)
    mean = math.exp(lgamma(1.0 - 1.0 / b))
    var = math.exp(lgamma(1.0 - 2.0 / b)) - mean ** 2 if b > 2.0 else math.inf
    return DistributionSpec(
        name="frechet", params={"beta": b},
        cdf=cdf, sf=sf,
        quantile=lambda u, v=None: np.exp(-np.log(-np.log(u) if v is None else _neg_log(u, v)) / b),
        support=(0.0, math.inf),
        qdensity=lambda u, v: np.power(_neg_log(u, v), -1.0 / b - 1.0) / (b * u),
        mean=mean, variance=var,
        closed_delta=lambda s: _delta_frechet(b, s),
        closed_nabla=lambda s: _nabla_frechet(b, s),
        neg_finiteness_threshold=1.0 / b - 1.0,
    )


def make_reverse_weibull(beta: float) -> DistributionSpec:
    """Reverse Weibull on (-inf, 0): cdf exp(-(-x)^beta), beta > 0."""
    b = _check_beta(beta, 0.0)

    def log_cdf(x):
        with np.errstate(over="ignore"):
            return -np.power(np.maximum(-x, 0.0), b)

    cdf, sf = _cdf_sf((-math.inf, 0.0), log_cdf=log_cdf)
    lg = lgamma(1.0 + 1.0 / b)
    with np.errstate(over="ignore"):  # an overflowing moment is infinite
        g = float(np.exp(lg))
        var = float(g * g * np.expm1(lgamma(1.0 + 2.0 / b) - 2.0 * lg)) if g < math.inf else g
    mean = -g
    return DistributionSpec(
        name="reverse_weibull", params={"beta": b},
        cdf=cdf, sf=sf,
        quantile=lambda u, v=None: -np.exp(np.log(-np.log(u) if v is None else _neg_log(u, v)) / b),
        support=(-math.inf, 0.0),
        qdensity=lambda u, v: np.power(_neg_log(u, v), 1.0 / b - 1.0) / (b * u),
        mean=mean, variance=var,
        closed_delta=lambda s: _delta_reverse_weibull(b, s),
        closed_nabla=lambda s: _nabla_reverse_weibull(b, s),
    )


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
    if not math.isfinite(a):
        raise DomainError(f"uniform a must be finite, got {a}")
    if not (length > 0.0 and math.isfinite(length)):
        raise DomainError(f"uniform length must be finite and positive, got {length}")
    d = affine(make_power_uniform(1.0), float(length), float(a))
    return replace(d, name="uniform", params={"a": float(a), "length": float(length)})


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

    The CDF is 80 steps of monotone bisection on (0,1).  An array of points
    is bisected at once, one quantile call over the array per step, with the
    midpoints of each point's scalar call and so with its bits; ``quantile``
    takes u alone and must accept numpy arrays.  The record's
    ``quantile(u, v)`` calls it at u, which has rounded to 1 where the given
    v is below 2^-53: there it gives NaN.  ``qdensity(u, v)``
    is the quantile's derivative at u, given v = 1 - u exactly (see
    :class:`DistributionSpec`); without it the quantile-space evaluators
    refuse the law.
    """
    lo, hi = support

    def pair(u, v=None):
        if v is None:
            return quantile(u)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(np.less(v, _U_CLIP), math.nan, quantile(u))[()]

    def cdf_scalar(x: float) -> float:
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        a, b = 0.0, 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(80):
                m = 0.5 * (a + b)
                # the midpoint can round onto an endpoint where the quantile
                # is infinite; the comparison still sorts it correctly
                if float(quantile(m)) <= x:
                    a = m
                else:
                    b = m
        return 0.5 * (a + b)

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return np.float64(cdf_scalar(float(arr)))
        a, b = np.zeros(arr.shape), np.ones(arr.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(80):
                m = 0.5 * (a + b)
                below = np.asarray(quantile(m), dtype=float) <= arr
                a = np.where(below, m, a)
                b = np.where(below, b, m)
        return np.where(arr <= lo, 0.0, np.where(arr >= hi, 1.0, 0.5 * (a + b)))

    return DistributionSpec(
        name=name, params=params or {},
        cdf=cdf, sf=lambda x: 1.0 - cdf(x), quantile=pair, qdensity=qdensity, support=support,
        mean=mean, variance=variance,
    )


def _quantile_moment(d: DistributionSpec, f: Callable, what: str) -> float:
    # integral_0^1 f(q(u)) du by QUADPACK, for a law built from a quantile
    # that stores no such moment; a reported failure raises
    r = quad(lambda u: f(float(d.quantile(u))), 0.0, 1.0, limit=200, full_output=1)
    if len(r) > 3:  # a fourth item is the failure message
        raise NonIntegrableError(f"the {what} of {d.label()} does not converge: {r[3]}")
    return r[0]


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
    if n < 2:
        raise DomainError(f"sample size must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(int(n)), _U_CLIP, 1.0 - _U_CLIP)
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
