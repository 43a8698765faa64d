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

Every evaluator, single order or profile, calls one private evaluator over
an array of orders: orders at or below the finiteness threshold are
divergent, the rest take one call of the closed form, and the orders left
(no closed form, or a dual whose duality series refuses them) take one
vectorised tanh-sinh integral (Takahasi & Mori 1974) over u and over
v = 1 - u on (0, 1/2), so that each endpoint singularity sits at an exact
zero of its own variable.  A single order reaches the closed form as a
float, under the single-order contract of :class:`DistributionSpec`: a dual
that refuses the order raises :class:`NonIntegrableError` and is then
integrated, while a returned NaN or inf raises.  Over an array a refused
order is NaN, and a non-finite delta or an infinite dual raises.  A law
without a quantile density is integrated in x-space, one order at a time.
An order whose integral does not converge is NaN in the array; a single
order and a profile raise :class:`NonIntegrableError`.  Plug-in estimators
apply the kernels to order-statistic spacings; near-zero orders use
expm1/log1p forms, (1-x^0)/0 = -log x.
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


def _g_uv(u, v, s):
    # g_s(u), log u from v near u = 1 (the slower log1p there only); s may be
    # a column of orders.  ``out`` keeps a 0-d u an array for the assignment
    logu = np.log(u, out=np.empty_like(u))
    hi = u >= 0.5
    logu[hi] = np.log1p(-v[hi])
    e = s * logu
    with np.errstate(over="ignore", invalid="ignore"):
        g = -u * np.expm1(e) / s
        big = e > _LOG_MAX
        if np.any(big):
            # u^s overflows (s < 0, u tiny): g = (u - u^(1+s))/s, formed directly
            g = np.where(big, (u - np.exp((1.0 + s) * logu)) / s, g)
    return np.where(s == 0.0, -u * logu, g) if np.any(s == 0.0) else g


def _inside(kernel: Callable, u, s: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.where(inside, u, 0.5)
    return np.where(inside, kernel(uu, 1.0 - uu, s), 0.0)


def g_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """Quantile-space entropy kernel u(1-u^s)/s; vanishes at both endpoints."""
    return _inside(_g_uv, u, s)


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
    out[hi] = np.power(vh, s + 1.0) * (1.0 - uh * vh * _horner(w[:, 0], vh)) / (uh * (s + 1.0))
    out[~hi] = _j_lower(arr[~hi], c[:, 0], j0[0])
    return out if np.ndim(u) else float(out[0])


def _dual_lower(u, v, s, c, j0):
    # G_s(u) = v (1 - v^s) + u (s+1) J(u) for u < 1/2
    head = -v * np.expm1(s * np.log1p(-u))
    return head + u * (s + 1.0) * _j_lower(u, c, j0)


def _dual_upper(u, v, s, w):
    # G_s(u) for v = 1-u <= 1/2: head + u(s+1)J(u), the v^(s+1) terms cancelled
    return v - u * np.power(v, s + 2.0) * _horner(w, v)


def _dual_uv(u, v, s: float):
    # G_s(u) at u in (0,1), v = 1 - u, for one order
    shape = np.shape(u)
    u, v = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (u, v))
    c, j0, w = _dual_coefficients(np.array([float(s)]))
    out = np.empty_like(u)
    hi = u >= 0.5
    if hi.any():
        out[hi] = _dual_upper(u[hi], v[hi], s, w[:, 0])
    if (~hi).any():
        out[~hi] = _dual_lower(u[~hi], v[~hi], s, c[:, 0], j0[0])
    return out.reshape(shape)


def dual_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """G_s(u): quantile-space kernel of the dual entropy; G_0(u) = -u log u."""
    return _inside(_dual_uv, u, s)


def dual_kernel(u: float, s: float) -> float:
    """G_s(u) at a single point."""
    return float(dual_kernel_np(u, s))


# ---------------------------------------------------------------------------
# quadrature plumbing

_ORDER_BLOCK = 512  # orders integrated together: temporaries of a few MiB


def _quad(f: Callable[[float], float], a: float, b: float,
          epsabs: float = 1e-12, epsrel: float = 1e-11,
          limit: int = 500) -> tuple:
    """QUADPACK's value, error estimate, and whether it reported success."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        r = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return r[0], r[1], len(r) == 3  # a fourth item is the failure message


def _grows(t: list) -> bool:
    # a tail probe at x = 1e4, 1e6, 1e8, 1e10 that does not vanish
    return (t[-1] > 1.05 * t[0]) & (t[-1] > 0.5)


def _probe_infinite_mean(d: DistributionSpec) -> None:
    lo, hi = d.support
    probes = (1e4, 1e6, 1e8, 1e10)
    if math.isinf(hi) and _grows([x * float(d.sf(x)) for x in probes]):
        raise NonIntegrableError(
            "upper-tail probe x*(1-F(x)) does not vanish: mean appears infinite")
    if math.isinf(lo) and _grows([x * float(d.cdf(-x)) for x in probes]):
        raise NonIntegrableError(
            "lower-tail probe |x|*F(x) does not vanish: mean appears infinite")


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
    x = np.array([-1e4, -1e6, -1e8, -1e10])
    t = np.abs(x)[:, None] * np.asarray(d.cdf(x), dtype=float)[:, None] ** (1.0 + s)
    return (s < 0.0) & _grows(t)


def _x_space(d: DistributionSpec, s: float) -> tuple:
    """delta(s) by adaptive x-space quadrature: (value, bound)."""

    def integrand(x: float) -> float:
        u = float(d.cdf(x))
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return u * (-math.log(u) if s == 0.0 else -math.expm1(s * math.log(u)) / s)

    val, err, ok = _quad(integrand, *d.support)
    # QUADPACK's estimate can run optimistic: a floor of 1e-9 * max(1, value),
    # 1e-7 where it reports failure (the catalog's such integrals were off by
    # up to 1.8e-8, on heavy tails)
    bound = max(err, (1e-9 if ok else 1e-7) * max(1.0, abs(val)))
    return 0.0 if -bound <= val < 0.0 else val, bound


def _quantile_integral(qd: Callable, which: str, s: np.ndarray) -> np.ndarray:
    """integral_0^1 kernel(u, v) q'(u) du, v = 1 - u, at every order of s, by
    tanh-sinh on u and on v in (0, 1/2) (in u alone the nodes with 1 - u below
    ~1e-16, and the tail mass, are lost).  Rows: value, bound, status, nfev."""
    if which == "delta":
        lower = upper = (lambda u, v, i: _g_uv(u, v, s[i]))
    else:
        c, j0, w = _dual_coefficients(s)
        lower, upper = (lambda u, v, i: _dual_lower(u, v, s[i], c[:, i], j0[i]),
                        lambda u, v, i: _dual_upper(u, v, s[i], w[:, i]))
    # orders go by index through tanh-sinh's args, a cost one order skips
    halves = (lambda u, i=0: lower(u, 1.0 - u, i) * qd(u, 1.0 - u),
              lambda v, i=0: upper(1.0 - v, v, i) * qd(1.0 - v, v))
    args = (np.arange(s.size),) if s.size > 1 else ()
    with np.errstate(all="ignore"):
        r = [tanhsinh(f, 0.0, 0.5, args=args) for f in halves]
    val = r[0].integral + r[1].integral
    bound = r[0].error + r[1].error + 1e-10 * np.maximum(1.0, np.abs(val))
    first = r[0].status != 0
    status = np.where(first, r[0].status, r[1].status)
    val = np.where((val < 0.0) & (-val <= bound), 0.0, val)
    val[status != 0] = np.nan
    return np.array([val, bound, status, np.where(first, r[0].nfev, r[1].nfev)])


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

def delta_value(d: DistributionSpec, s, prefer_closed: bool = True) -> EntropyValue:
    """Best-method entropy: the closed form when the law has one, else the
    quantile-space integral when it has a quantile density, else x-space
    quadrature.  ``prefer_closed=False`` always takes the x-space route,
    the independent oracle.  A closed form that gives a non-finite value
    without flagging divergence raises :class:`NonIntegrableError`."""
    return _one(d, "delta", s, "best" if prefer_closed else "x")


def nabla_value(d: DistributionSpec, s, prefer_closed: bool = True) -> EntropyValue:
    """Best-method dual entropy: the closed form when the law has one, else
    the quantile-space integral.  A closed form whose alternating series
    cannot meet its bound at this order raises :class:`NonIntegrableError`,
    and the integral takes over; one that gives a non-finite value raises
    :class:`NonIntegrableError` to the caller."""
    return _one(d, "nabla", s, "best" if prefer_closed else "quantile")


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
