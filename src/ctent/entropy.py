"""Evaluators for the cumulative Tsallis entropy and its dual.

The entropy delta(s) has two independent quadrature routes: x-space
(``delta_quadrature``, F(x)(1-F(x)^s)/s over the support) and quantile
space (``delta_quantile``, g_s(u) = u(1-u^s)/s against the analytic quantile
density q'(u)).  The dual nabla(s) integrates the quantile-space kernel
G_s(u) = u * integral_u^1 (1 - (1-t)^{s+1}) t^{-2} dt, reduced by parts to
J(u) = integral_u^1 (1-t)^s/t dt.  For u < 1/2, J(u) = -(psi(s+1) + gamma) -
log u - sum_k (-s)_k u^k/(k k!), a series alternating with coefficients like
C(s, k): an order where its rounding could exceed 1e-10 of G_s (s above
~32.6) has a NaN kernel.  For u >= 1/2, G_s = v - u v^{s+2} sum_k (k+1)
v^k/(k+s+2) in v = 1 - u has no cancellation.  Both series' coefficients are
tabulated once per order and summed by Horner's rule.

Each kernel K(u, 1 - u) is a pair of halves of a probability t <= 1/2 held
exactly, lower(t) = K(t, 1 - t) and upper(t) = K(1 - t, t), so that neither
end loses its digits.  One splitter, ``_halves``, sends u < 1/2 to the lower
half and u >= 1/2 to the upper one at 1 - u; the reversed pair is the
mirrored kernel u -> K(1 - u, u).

Every evaluator, single order or profile, calls one private evaluator over
an array of orders: orders at or below the finiteness threshold are
divergent, the rest take one call of the closed form, and the orders left
(no closed form, or a dual whose duality series refuses them) take one
vectorised tanh-sinh call (Takahasi & Mori 1974) over both halves, u and
v = 1 - u each on (0, 1/2), so that each endpoint singularity sits at an
exact zero of its own variable.  A single order reaches the closed form as a
float, under the single-order contract of :class:`DistributionSpec`: a dual
that refuses the order raises :class:`NonIntegrableError` and is then
integrated, while a returned NaN or inf raises.  Over an array a refused
order is NaN, and a non-finite delta or an infinite dual raises.  A law
without a quantile density is integrated in x-space, one order at a time.
An order whose integral does not converge is NaN in the array; a single
order and a profile raise :class:`NonIntegrableError`.  Plug-in estimators
apply the kernels to order-statistic spacings; near-zero orders use
expm1/log1p forms, (1-x^0)/0 = -log x.

Every x-space integral, this module's oracle and the risk module's Wang
integrals alike, sits in one frame (``_frame``): about the median in units
of the interquartile width, one integral over z >= 0 on each side, reading
the survival function above the median and the cdf below it.  The oracle
runs one QUADPACK call over both sides.  A non-finite integrand value
raises, and so does a side whose probability underflowed to 0 inside the
support while the integrand at p = 2^-1074 still exceeds the bound floor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad, tanhsinh
from scipy.special import psi

from .distributions import CLOSED_BOUND, NEAR_ZERO, DistributionSpec, EmpiricalSample
from .errors import DomainError, NonIntegrableError


@dataclass(frozen=True)
class EntropyOrder:
    """The real order s > -1; |s| < 1e-4 flags the logarithmic-limit kernel."""

    s: float

    def __post_init__(self):
        if not (self.s > -1.0 and math.isfinite(self.s)):
            raise DomainError(f"entropy order must be finite and exceed -1, got {self.s}")

    @property
    def near_zero(self) -> bool:
        return abs(self.s) < NEAR_ZERO


def as_order(s) -> EntropyOrder:
    if isinstance(s, EntropyOrder):
        return s
    return EntropyOrder(float(s))


@dataclass(frozen=True)
class EntropyValue:
    """A nonnegative entropy value (or a divergence marker) with its
    absolute error bound and the method that produced it."""

    value: float
    abs_error_bound: float
    method: str
    divergent: bool = False

    @classmethod
    def make_divergent(cls, method: str) -> "EntropyValue":
        return cls(math.inf, math.inf, method, divergent=True)

    @property
    def is_finite(self) -> bool:
        return not self.divergent and math.isfinite(self.value)


@dataclass(frozen=True)
class ProfilePoint:
    s: float
    delta: EntropyValue
    nabla: EntropyValue


@dataclass(frozen=True)
class EntropyProfile:
    grid: tuple
    delta_nonincreasing: bool
    nabla_nondecreasing: bool


# ---------------------------------------------------------------------------
# kernels

_LOG_MAX = math.log(np.finfo(float).max)  # expm1 overflows above this
_EPS = np.finfo(float).eps
_TERMS = 240  # cap on the terms of the dual kernel's series
_SCALE = 2.0 ** 64  # lifts a subnormal product into the normal range


def _halves(pair, u) -> np.ndarray:
    """The kernel K(u, 1 - u) of ``pair`` = (lower, upper), elementwise:
    lower(u) for u < 1/2, upper(1 - u) (1 - u exact) for u >= 1/2, and 0
    outside (0, 1) and at NaN."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    lo, hi = (u > 0.0) & (u < 0.5), (u >= 0.5) & (u < 1.0)
    if lo.any():
        out[lo] = pair[0](u[lo])
    if hi.any():
        out[hi] = pair[1](1.0 - u[hi])
    return out


def _log_pair(core: Callable, *args) -> tuple:
    # the halves of a kernel core(u, log u, *args): log u is log t on the
    # lower half and log1p(-t) on the upper, so that each end keeps its digits
    return (lambda t: core(t, np.log(t), *args),
            lambda t: core(1.0 - t, np.log1p(-t), *args))


def _g_core(u, logu, s):
    # g_s(u); s may be a column of orders
    e = s * logu
    with np.errstate(over="ignore", invalid="ignore"):
        g = -u * np.expm1(e) / s
        big = e > _LOG_MAX
        if np.any(big):
            # u^s overflows (s < 0, u tiny): g = (u - u^(1+s))/s, formed directly
            g = np.where(big, (u - np.exp((1.0 + s) * logu)) / s, g)
    return np.where(s == 0.0, -u * logu, g) if np.any(s == 0.0) else g


def g_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """Quantile-space entropy kernel u(1-u^s)/s; vanishes at both endpoints."""
    return _halves(_log_pair(_g_core, s), u)


def _through_first(small: np.ndarray) -> np.ndarray:
    # per column, True up to and including the first True of small
    return np.cumsum(small, axis=0) - small == 0


def _horner(coeffs, x):
    # sum_k coeffs[k] x^k, one product and one sum in place per row of coeffs
    p = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(coeffs[0])))
    for c in coeffs[::-1]:
        p *= x
        p += c
    return p


def _dual_coefficients(s: np.ndarray) -> tuple:
    """Per order of the 1-d array s, one column each: c[k-1] = (-s)_k/(k k!)
    of J(u) = j0 - log u - u sum c[k-1] u^(k-1), zero past the first term below
    1e-19 on (0, 1/2]; j0 = -(psi(s+1) + gamma); w[k] = (k+1)/(k+s+2) of G_s =
    v - u v^(s+2) sum w[k] v^k, 64 terms for v <= 1/2 (past 63 they are below
    1e-17 of the sum).  J's terms, of total size S, round by a few eps S (G_s was
    within 6.5 eps S of mpmath's over u in (0, 1/2) for s up to 60), so j0 and
    the kernel are NaN where 8 eps S > 1e-10."""
    k = np.arange(1.0, _TERMS)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.cumprod((k - 1.0 - s) / k, axis=0) / k
        size = np.abs(c) * np.exp2(-k)
    keep = _through_first(size < 1e-19)
    total = np.sum(np.where(keep, size, 0.0), axis=0)
    j0 = np.where(8.0 * _EPS * total <= CLOSED_BOUND, -psi(s + 1.0) - np.euler_gamma, np.nan)
    return np.where(keep, c, 0.0)[:keep.sum(axis=0).max()], j0, k[:64] / (k[:64] + s + 1.0)


def _j_lower(u: np.ndarray, c: np.ndarray, j0) -> np.ndarray:
    # J(u) about u = 0: log u is taken alone, so a subnormal u does not overflow
    return j0 - np.log(u) - u * _horner(c, u)


def dual_tail_integral(u, s: float):
    """J(u) = integral_u^1 (1-t)^s / t dt, elementwise, to ~1e-15: about u = 0
    below 1/2, and from G_s's v-series above it, where u (s+1) J(u) =
    v^(s+1) (1 - u v sum w[k] v^k)."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    c, j0, w = _dual_coefficients(np.array([float(s)]))
    out = np.empty_like(arr)
    hi = arr >= 0.5
    uh = arr[hi]
    vh = 1.0 - uh
    # v v^s, not v^(s+1): a rounded s + 1 costs |log v| times its rounding
    vs = vh * np.power(vh, s, out=np.zeros_like(vh), where=vh != 0.0)
    out[hi] = vs * (1.0 - uh * vh * _horner(w[:, 0], vh)) / (uh * (s + 1.0))
    out[~hi] = _j_lower(arr[~hi], c[:, 0], j0[0])
    return out if np.ndim(u) else float(out[0])


def _dual_lower(t, s, c, j0):
    # G_s(t) = v (1 - v^s) + t (s+1) J(t), v = 1 - t, for t < 1/2; the product
    # runs 2^64 higher, which keeps a subnormal t's digits and no other bit
    head = -(1.0 - t) * np.expm1(s * np.log1p(-t))
    return head + t * _SCALE * (s + 1.0) * _j_lower(t, c, j0) / _SCALE


def _dual_upper(t, s, w):
    # G_s(1 - t) for t <= 1/2: head + u(s+1)J(u), u = 1 - t, t^(s+1) cancelled
    return t - (1.0 - t) * np.power(t, s + 2.0) * _horner(w, t)


def _dual_pair(s: float) -> tuple:
    # the halves of G_s, on one order's coefficient tables
    c, j0, w = _dual_coefficients(np.array([float(s)]))
    return (lambda t: _dual_lower(t, s, c[:, 0], j0[0]),
            lambda t: _dual_upper(t, s, w[:, 0]))


def dual_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """G_s(u): quantile-space kernel of the dual entropy; G_0(u) = -u log u."""
    return _halves(_dual_pair(s), u)


def dual_kernel(u: float, s: float) -> float:
    """G_s(u) at a single point."""
    return float(dual_kernel_np(u, s))


# ---------------------------------------------------------------------------
# quadrature plumbing

_ORDER_BLOCK = 256  # orders integrated together, two sides each: temporaries of a few MiB


def _quad(f: Callable[[float], float], a: float, b: float) -> tuple:
    """QUADPACK's value, error estimate, and whether it reported success.  A
    non-finite integrand value raises :class:`NonIntegrableError`: QUADPACK
    would carry it along, and with ``limit=500`` has crashed the process on
    a NaN."""

    def finite(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise NonIntegrableError(f"the integrand over ({a:g}, {b:g}) is {y} at {x:g}")
        return y

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        r = quad(finite, a, b, epsabs=1e-12, epsrel=1e-11, limit=500, full_output=1)
    return r[0], r[1], len(r) == 3  # a fourth item is the failure message


_TINY = 2.0 ** -1074  # the least subnormal: the last probability before 0


def _frame(d: DistributionSpec) -> tuple:
    """Where every x-space integral of ``d`` sits: about the median m, in
    units of the interquartile width w (unit steps where the quartiles
    coincide in floating point).  Each side is an integral over z in
    (0, end), x = m + sign w z, with sign +1 above the median and -1 below
    it, and end where the support ends.  A side reads the law's small-side
    probability, sf above the median and cdf below it, whose digits hold out
    to the tail.  Returns m, w and, per side (above, below), the signs, the
    ends (numpy arrays) and the probability functions."""
    with np.errstate(all="ignore"):  # a quantile at an extreme shape
        m, q1, q3 = (float(q) for q in d.quantile(np.array([0.5, 0.25, 0.75])))
    if not math.isfinite(m):
        raise NonIntegrableError(f"the median of {d.label()} is {m}")
    w = q3 - q1 if 0.0 < q3 - q1 < math.inf else 1.0
    lo, hi = d.support
    return m, w, np.array([1.0, -1.0]), np.array([hi - m, m - lo]) / w, (d.sf, d.cdf)


def _refuse_lost_tail(what: str, lost: float, value: float) -> None:
    # a side whose probability underflowed to 0 inside the support lost its
    # tail; w times the integrand at p = 2^-1074, ``lost``, tracks that mass
    if lost > 1e-9 * max(1.0, abs(value)):
        raise NonIntegrableError(
            f"{what} lost its tail: the probability underflowed to 0 inside the "
            f"support, where the integrand still carries {lost:.3g}")


_PROBES = np.array([1e4, 1e6, 1e8, 1e10])  # z of a tail probe in the frame


def _grows(t) -> bool:
    # a tail probe that does not vanish
    return (t[-1] > 1.05 * t[0]) & (t[-1] > 0.5)


def _tail(d: DistributionSpec, side: int) -> np.ndarray:
    # the small-side probability at the tail probes of a side of the frame,
    # 0 above the median and 1 below it
    m, w, signs, _, probs = _frame(d)
    return np.asarray(probs[side](m + signs[side] * w * _PROBES), dtype=float)


def _probe_infinite_mean(d: DistributionSpec) -> None:
    lo, hi = d.support
    if math.isinf(hi) and _grows(_PROBES * _tail(d, 0)):
        raise NonIntegrableError(
            "upper-tail probe z*(1-F(m + w z)) does not vanish: mean appears infinite")
    if math.isinf(lo) and _grows(_PROBES * _tail(d, 1)):
        raise NonIntegrableError(
            "lower-tail probe z*F(m - w z) does not vanish: mean appears infinite")


def _divergent(d: DistributionSpec, which: str, s: np.ndarray, probe: bool) -> np.ndarray:
    # delta: the finiteness threshold when attached, else (with ``probe``) a
    # heuristic stand-in for the F^{1+s} criterion; nabla: a threshold >= 0
    thr = d.finiteness_threshold
    if which == "nabla":
        return np.full(s.shape, thr is not None and thr >= 0.0)
    if thr is not None:
        return s <= thr
    if not (probe and math.isinf(d.support[0]) and np.any(s < 0.0)):
        return np.zeros(s.shape, dtype=bool)
    t = _PROBES[:, None] * _tail(d, 1)[:, None] ** (1.0 + s)
    return (s < 0.0) & _grows(t)


def _g_small(p: float, above: bool, s: float) -> float:
    # g_s(F) at one point from the small-side probability p: F = 1 - p above
    # the median and p below it; (u - u^(1+s))/s where u^s overflows
    u, logu = (1.0 - p, math.log1p(-p)) if above else (p, math.log(p))
    if s == 0.0:
        return -u * logu
    e = s * logu
    if e > _LOG_MAX:
        return (u - math.exp((1.0 + s) * logu)) / s
    return -u * math.expm1(e) / s


def _x_space(d: DistributionSpec, s: float) -> tuple:
    """delta(s) by adaptive x-space quadrature over the frame: (value, bound).
    One QUADPACK call runs over z in (-end below, end above), which shares
    one tolerance between the sides; on a doubly infinite range QUADPACK
    folds them at z = 0 itself.  (A call a side took ~1.7x the evaluations
    on a half-line law: lomax(3) at s = -0.4 took 390 for 225.)"""
    m, w, _, ends, probs = _frame(d)
    lo, hi = d.support
    underflowed = [False, False]

    def integrand(z: float) -> float:
        k = 0 if z >= 0.0 else 1
        x = m + w * z
        p = float(probs[k](x))
        if p <= 0.0 or p >= 1.0:  # NaN goes on to the kernel, and raises
            underflowed[k] = underflowed[k] or (p == 0.0 and lo < x < hi)
            return 0.0
        return _g_small(p, k == 0, s)

    v, e, ok = _quad(integrand, -ends[1], ends[0])
    val, err = w * v, w * e
    lost = sum(w * _g_small(_TINY, k == 0, s) for k in (0, 1) if underflowed[k])
    _refuse_lost_tail(f"the x-space integral of {d.label()} at s={s:g}", lost, val)
    # QUADPACK's estimate can run optimistic: a floor of 1e-9 * max(1, value),
    # 1e-7 where it reports failure
    bound = max(err, (1e-9 if ok else 1e-7) * max(1.0, abs(val)))
    return 0.0 if -bound <= val < 0.0 else val, bound


def _both_halves(f: Callable, args: tuple = (), **tolerances):
    """integral_0^1 f(k, u, v, *args) du, v = 1 - u, as one tanh-sinh call over
    both halves, side k = 0 in u and side 1 in v, each on (0, 1/2) (in u alone
    the nodes with 1 - u below ~1e-16, and the tail mass, are lost).  A row of
    nodes is one element of the side column broadcast against ``args``.
    Returns scipy's result, side 0 first."""

    def g(t, side, *rest):
        out = np.empty_like(t)
        upper = side[..., 0] == 1
        for k, rows in enumerate((~upper, upper)):
            if rows.any():
                x = t[rows]
                u, v = (x, 1.0 - x) if k == 0 else (1.0 - x, x)
                out[rows] = f(k, u, v, *(a[rows] for a in rest))
        return out

    with np.errstate(all="ignore"):
        return tanhsinh(g, 0.0, 0.5, args=(np.arange(2)[:, None],) + args, **tolerances)


def _quantile_integral(qd: Callable, which: str, s: np.ndarray) -> np.ndarray:
    """integral_0^1 kernel(u, v) q'(u) du, v = 1 - u, at every order of s, over
    both halves (:func:`_both_halves`).  Rows: value, bound, status, nfev."""
    if which == "delta":
        halves = (lambda t, i: _g_core(t, np.log(t), s[i]),
                  lambda t, i: _g_core(1.0 - t, np.log1p(-t), s[i]))
    else:
        c, j0, w = _dual_coefficients(s)
        halves = (lambda t, i: _dual_lower(t, s[i], c[:, i], j0[i]),
                  lambda t, i: _dual_upper(t, s[i], w[:, i]))

    r = _both_halves(lambda k, u, v, i: halves[k]((u, v)[k], i) * qd(u, v),
                     (np.arange(s.size),))
    val = r.integral[0] + r.integral[1]
    bound = r.error[0] + r.error[1] + 1e-10 * np.maximum(1.0, np.abs(val))
    first = r.status[0] != 0  # the first half's status and nfev win
    status = np.where(first, r.status[0], r.status[1])
    val = np.where((val < 0.0) & (-val <= bound), 0.0, val)
    val[status != 0] = np.nan
    return np.array([val, bound, status, np.where(first, r.nfev[0], r.nfev[1])])


class _Column(NamedTuple):
    """``value`` is inf where divergent, NaN where the integral failed."""

    value: np.ndarray
    integrated: np.ndarray  # the orders the closed form did not answer
    closed: bool
    space: str
    bound: np.ndarray
    status: np.ndarray
    nfev: np.ndarray


def _evaluate(d: DistributionSpec, which: str, s: np.ndarray, route: str = "best") -> _Column:
    """delta or nabla (``which``) of ``d`` over the 1-d array of orders s.
    Route "best" takes the closed form, else the quantile-space integral, else
    x-space (delta without qdensity); "quantile" and "x" force that route."""
    closed, space = None, route
    if route == "best":
        closed = d.closed_delta if which == "delta" else d.closed_nabla
        space = "x" if which == "delta" and d.qdensity is None else "quantile"
    divergent = _divergent(d, which, s, probe=closed is None)
    value = np.where(divergent, np.inf, np.nan)
    todo = ~divergent
    if closed is not None and todo.any():
        # one call above the threshold.  Over an array a dual refuses an order
        # with NaN; a single order goes in as a float, and there it raises
        single = s.size == 1
        try:
            v = np.atleast_1d(np.asarray(closed(float(s[0]) if single else s[todo]), dtype=float))
            strict = single or which == "delta"
        except NonIntegrableError:
            if which == "delta" or not single:
                raise
            v, strict = np.array([np.nan]), False
        value[todo] = v
        bad = np.flatnonzero(np.isinf(v) | (np.isnan(v) & strict))
        if bad.size:
            raise NonIntegrableError(f"the closed form of {which} for {d.label()} "
                                     f"at s={s[todo][bad[0]]:g} gives {v[bad[0]]}")
        todo &= np.isnan(value)
    live = np.flatnonzero(todo)
    bound, status, nfev = np.full((3,) + s.shape, np.nan) if live.size else (None,) * 3
    if live.size and space == "x":
        _probe_infinite_mean(d)
        for i in live.tolist():
            value[i], bound[i] = _x_space(d, float(s[i]))
    elif live.size:
        if d.qdensity is None:
            raise DomainError(f"{d.label()} has no quantile density to integrate against")
        for lo in range(0, live.size, _ORDER_BLOCK):
            at = live[lo:lo + _ORDER_BLOCK]
            value[at], bound[at], status[at], nfev[at] = _quantile_integral(
                d.qdensity, which, s[at])
    return _Column(value, todo, closed is not None, space, bound, status, nfev)


def _entropy_values(d: DistributionSpec, col: _Column) -> list:
    """The column's EntropyValues, raising at the first failed integral."""
    out = []
    for i, (v, q) in enumerate(zip(col.value.tolist(), col.integrated.tolist())):
        method = "quadrature_" + col.space if q or not col.closed else "closed_form"
        if v == math.inf:
            out.append(EntropyValue.make_divergent(method))
        elif v == v:
            b = float(col.bound[i]) if q else CLOSED_BOUND * max(1.0, abs(v))
            out.append(EntropyValue(v, b, method))
        else:
            raise NonIntegrableError(
                f"quantile-space integral of {d.label()} did not converge "
                f"(tanh-sinh status {int(col.status[i])}, {int(col.nfev[i])} evaluations)")
    return out


def _one(d: DistributionSpec, which: str, s, route: str) -> EntropyValue:
    return _entropy_values(d, _evaluate(d, which, np.array([as_order(s).s]), route))[0]


def delta_quadrature(d: DistributionSpec, s) -> EntropyValue:
    """Cumulative Tsallis entropy by adaptive x-space quadrature."""
    return _one(d, "delta", s, "x")


def delta_quantile(d: DistributionSpec, s) -> EntropyValue:
    """Cumulative Tsallis entropy in quantile space, against q'(u)."""
    return _one(d, "delta", s, "quantile")


def nabla_quadrature(d: DistributionSpec, s) -> EntropyValue:
    """Dual cumulative Tsallis entropy via the quantile-space kernel G_s."""
    return _one(d, "nabla", s, "quantile")


# ---------------------------------------------------------------------------
# plug-in estimators (empirical measure through the integral form;
# the order-statistic weights sit at i/n so the s=1 case reproduces the
# exact step integral of F(1-F))

def _plugin(x: EmpiricalSample, s, kernel: Callable) -> EntropyValue:
    val = float(kernel(np.arange(1, x.n) / x.n, as_order(s).s) @ np.diff(x.values))
    if not math.isfinite(val):  # the dual kernel refuses the order
        raise NonIntegrableError(f"the plug-in estimate at s={as_order(s).s:g} gives {val}")
    return EntropyValue(max(val, 0.0), 1e-13 * math.sqrt(x.n) * max(1.0, abs(val)), "plugin")


def delta_plugin(x: EmpiricalSample, s) -> EntropyValue:
    return _plugin(x, s, g_kernel_np)


def nabla_plugin(x: EmpiricalSample, s) -> EntropyValue:
    return _plugin(x, s, dual_kernel_np)


# ---------------------------------------------------------------------------
# dispatch and profiles

def delta_value(d: DistributionSpec, s) -> EntropyValue:
    """Best-method entropy: the closed form when the law has one, else the
    quantile-space integral when it has a quantile density, else x-space
    quadrature.  :func:`delta_quadrature` always takes the x-space route,
    the independent oracle.  A closed form that gives a non-finite value
    without flagging divergence raises :class:`NonIntegrableError`."""
    return _one(d, "delta", s, "best")


def nabla_value(d: DistributionSpec, s) -> EntropyValue:
    """Best-method dual entropy: the closed form when the law has one, else
    the quantile-space integral.  A closed form whose alternating series
    cannot meet its bound at this order raises :class:`NonIntegrableError`,
    and the integral takes over; one that gives a non-finite value raises
    :class:`NonIntegrableError` to the caller."""
    return _one(d, "nabla", s, "best")


def entropy_profile(d: DistributionSpec, s_grid: Sequence[float]) -> EntropyProfile:
    """Best-method evaluation over a strictly increasing grid, with
    monotonicity flags (delta nonincreasing, nabla nondecreasing).  Each
    entropy is one evaluation over the whole grid, and every point equals
    ``delta_value``/``nabla_value`` at its order."""
    grid = [float(s) for s in s_grid]
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise DomainError("s grid must be strictly increasing")
    if any(not (s > -1.0 and math.isfinite(s)) for s in grid):
        raise DomainError("s grid entries must be finite and exceed -1")
    orders = np.asarray(grid, dtype=float)
    rows = tuple(ProfilePoint(*point) for point in zip(
        grid, _entropy_values(d, _evaluate(d, "delta", orders)),
        _entropy_values(d, _evaluate(d, "nabla", orders))))

    def _monotone(vals, direction: int) -> bool:
        # consecutive finite values, within their bounds
        fin = [ev for ev in vals if ev.is_finite]
        return all(direction * (b.value - a.value) <= a.abs_error_bound + b.abs_error_bound + 1e-12
                   for a, b in zip(fin, fin[1:]))

    return EntropyProfile(
        grid=rows,
        delta_nonincreasing=_monotone([r.delta for r in rows], +1),
        nabla_nondecreasing=_monotone([r.nabla for r in rows], -1),
    )
