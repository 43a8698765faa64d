"""Evaluators for the cumulative Tsallis entropy and its dual.

Two independent quadrature routes are provided for the entropy delta(s):

* ``delta_quadrature`` integrates F(x)(1-F(x)^s)/s over the support in
  x-space (improper intervals handled by the adaptive routine directly);
* ``delta_quantile`` integrates the quantile-space kernel
  g_s(u) = u(1-u^s)/s against the law's analytic quantile density q'(u).

The dual nabla(s) uses the quantile-space kernel

    G_s(u) = u * integral_u^1 (1 - (1-t)^{s+1}) t^{-2} dt,

whose inner integral is reduced by parts to J(u) = integral_u^1 (1-t)^s/t dt
and evaluated by two rapidly convergent series (accurate to ~1e-15; a
nested adaptive rule degrades near the (1-t)^s endpoint for s < 0).  For
u >= 1/2 the kernel is summed as G_s = v - u sum_k (k+1) v^{k+s+2}/(k+s+2)
in v = 1 - u, which has no cancellation as v -> 0.

Both quantile-space integrals, of g_s q' and of G_s q', run through one
vectorised tanh-sinh rule (Takahasi & Mori 1974): over u on (0, 1/2) and
over v = 1 - u on (0, 1/2), so that each endpoint singularity sits at an
exact zero of its own variable.  Plug-in estimators apply the same kernels
to order-statistic spacings.

The near-zero order branch uses expm1/log1p forms throughout, realising
the convention (1-x^0)/0 = -log x continuously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad, tanhsinh

from .distributions import CLOSED_BOUND, NEAR_ZERO, DistributionSpec, EmpiricalSample
from .errors import DivergentEntropy, DomainError, NonIntegrableError


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

def tsallis_ratio(u: float, s: float) -> float:
    """(1 - u^s)/s for u in (0,1), equal to -log u at s = 0."""
    if u >= 1.0:
        return 0.0
    if u <= 0.0:
        return 1.0 / s if s > 0.0 else math.inf
    if s == 0.0:
        return -math.log(u)
    return -math.expm1(s * math.log(u)) / s


def _g_uv(u, v, s: float):
    # g_s(u) with log u taken from v near u = 1
    logu = np.where(u < 0.5, np.log(u), np.log1p(-v))
    if s == 0.0:
        return -u * logu
    e = s * logu
    with np.errstate(over="ignore"):
        g = -u * np.expm1(e) / s
    big = e > _LOG_MAX
    if np.any(big):
        # u^s overflows (s < 0, u tiny): g = (u - u^(1+s))/s, formed directly
        g = np.where(big, (u - np.exp((1.0 + s) * logu)) / s, g)
    return g


def g_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """Quantile-space entropy kernel u(1-u^s)/s; vanishes at both endpoints."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.where(inside, u, 0.5)
    return np.where(inside, _g_uv(uu, 1.0 - uu, s), 0.0)


@lru_cache(maxsize=256)
def _j_at_half(s: float) -> float:
    return float(_j_upper(np.asarray([0.5]), s)[0])


def _j_upper(u: np.ndarray, s: float) -> np.ndarray:
    # J(u) = sum_{k>=0} (1-u)^{s+1+k}/(s+1+k), geometric for 1-u <= 1/2
    w = 1.0 - u
    term = np.power(w, s + 1.0) / (s + 1.0)
    tot = term.copy()
    for k in range(1, 240):
        term = term * w * (s + k) / (s + 1.0 + k)
        tot += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(tot) + 1e-300):
            break
    return tot


def _j_lower(u: np.ndarray, s: float) -> np.ndarray:
    # J(u) = J(1/2) + log(1/(2u)) + sum_{k>=1} ((-s)_k/k!) ((1/2)^k - u^k)/k;
    # log(1/(2u)) is split so that a subnormal u does not overflow 0.5/u
    tot = math.log(0.5) - np.log(u)
    a = 1.0
    pk = np.array(u, copy=True)
    half = 0.5
    for k in range(1, 240):
        a *= (k - 1.0 - s) / k
        tot += a * (half - pk) / k
        if abs(a) * half / k < 1e-19:
            break
        half *= 0.5
        pk *= u
    return tot + _j_at_half(s)


def dual_tail_integral(u, s: float):
    """J(u) = integral_u^1 (1-t)^s / t dt, elementwise, to ~1e-15."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(arr)
    hi = arr >= 0.5
    if hi.any():
        out[hi] = _j_upper(arr[hi], s)
    if (~hi).any():
        out[~hi] = _j_lower(arr[~hi], s)
    return out if np.ndim(u) else float(out[0])


def _dual_upper(u: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    # G_s(u) = v - u sum_{k>=0} (k+1) v^{k+s+2}/(k+s+2) for v = 1-u <= 1/2:
    # head + u(s+1)J(u) with the v^{s+1} terms cancelled analytically
    p = np.power(v, s + 2.0)
    tot = p / (s + 2.0)
    for k in range(1, 240):
        p = p * v
        term = (k + 1.0) * p / (k + s + 2.0)
        tot += term
        if np.all(term <= 1e-17 * tot + 1e-300):
            break
    return v - u * tot


def _dual_uv(u, v, s: float):
    # G_s(u) at u in (0,1), v = 1 - u
    shape = np.shape(u)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty_like(u)
    hi = u >= 0.5
    if hi.any():
        out[hi] = _dual_upper(u[hi], v[hi], s)
    lo = ~hi
    if lo.any():
        ul, vl = u[lo], v[lo]
        head = -vl * np.expm1(s * np.log1p(-ul))
        out[lo] = head + ul * (s + 1.0) * _j_lower(ul, s)
    return out.reshape(shape)


def dual_kernel_np(u: np.ndarray, s: float) -> np.ndarray:
    """G_s(u): quantile-space kernel of the dual entropy; G_0(u) = -u log u."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.where(inside, u, 0.5)
    return np.where(inside, _dual_uv(uu, 1.0 - uu, s), 0.0)


def dual_kernel(u: float, s: float) -> float:
    """G_s(u) at a single point."""
    return float(dual_kernel_np(u, s))


# ---------------------------------------------------------------------------
# quadrature plumbing

def _quad(f: Callable[[float], float], a: float, b: float,
          epsabs: float = 1e-12, epsrel: float = 1e-11,
          limit: int = 500) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return val, err


def _clamp_nonnegative(v: float, bound: float) -> float:
    if v < 0.0 and -v <= bound:
        return 0.0
    return v


def _probe_infinite_mean(d: DistributionSpec) -> None:
    lo, hi = d.support
    probes = (1e4, 1e6, 1e8, 1e10)
    if math.isinf(hi):
        t = [x * float(d.sf(x)) for x in probes]
        if t[-1] > 1.05 * t[0] and t[-1] > 0.5:
            raise NonIntegrableError(
                "upper-tail probe x*(1-F(x)) does not vanish: mean appears infinite")
    if math.isinf(lo):
        t = [x * float(d.cdf(-x)) for x in probes]
        if t[-1] > 1.05 * t[0] and t[-1] > 0.5:
            raise NonIntegrableError(
                "lower-tail probe |x|*F(x) does not vanish: mean appears infinite")


def _lower_tail_divergent(d: DistributionSpec, s: float) -> bool:
    # The divergence screen of both entropy routes: the analytic finiteness
    # threshold when one is attached, else a heuristic stand-in for the
    # F^{1+s} criterion.
    if d.finiteness_threshold is not None:
        return s <= d.finiteness_threshold
    if s >= 0.0 or not math.isinf(d.support[0]):
        return False
    t = [abs(x) * float(d.cdf(x)) ** (1.0 + s) for x in (-1e4, -1e6, -1e8, -1e10)]
    return t[-1] > 1.05 * t[0] and t[-1] > 0.5


def delta_quadrature(d: DistributionSpec, s) -> EntropyValue:
    """Cumulative Tsallis entropy by adaptive x-space quadrature."""
    sv = as_order(s).s
    if _lower_tail_divergent(d, sv):
        return EntropyValue.make_divergent("quadrature_x")
    _probe_infinite_mean(d)

    def integrand(x: float) -> float:
        u = float(d.cdf(x))
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return u * tsallis_ratio(u, sv)

    lo, hi = d.support
    val, err = _quad(integrand, lo, hi)
    # QUADPACK's estimate can run slightly optimistic on doubly-improper
    # extrapolation; keep the documented 1e-9 * max(1, value) floor
    bound = max(err, 1e-9 * max(1.0, abs(val)))
    return EntropyValue(_clamp_nonnegative(val, bound), bound, "quadrature_x")


def _quantile_integral(d: DistributionSpec, kernel: Callable) -> EntropyValue:
    """integral_0^1 kernel(u, v) q'(u) du, with v = 1 - u, by tanh-sinh on
    u in (0, 1/2) and on v in (0, 1/2): integrating the upper half in u would
    lose every node with 1 - u below ~1e-16, and with it the tail mass."""
    qd = d.qdensity
    if qd is None:
        raise DomainError(f"{d.label()} has no quantile density to integrate against")

    def lower(u):
        return kernel(u, 1.0 - u) * qd(u, 1.0 - u)

    def upper(v):
        return kernel(1.0 - v, v) * qd(1.0 - v, v)

    val = err = 0.0
    for f in (lower, upper):
        with np.errstate(all="ignore"):
            r = tanhsinh(f, 0.0, 0.5)
        if r.status != 0:
            raise NonIntegrableError(
                f"quantile-space integral of {d.label()} did not converge "
                f"(tanh-sinh status {int(r.status)}, {int(r.nfev)} evaluations)")
        val += float(r.integral)
        err += float(r.error)
    bound = err + 1e-10 * max(1.0, abs(val))
    return EntropyValue(_clamp_nonnegative(val, bound), bound, "quadrature_quantile")


def delta_quantile(d: DistributionSpec, s) -> EntropyValue:
    """Cumulative Tsallis entropy integrated in quantile space against the
    analytic quantile density."""
    sv = as_order(s).s
    if _lower_tail_divergent(d, sv):
        return EntropyValue.make_divergent("quadrature_quantile")
    return _quantile_integral(d, lambda u, v: _g_uv(u, v, sv))


def nabla_quadrature(d: DistributionSpec, s) -> EntropyValue:
    """Dual cumulative Tsallis entropy via the quantile-space kernel G_s."""
    sv = as_order(s).s
    if d.finiteness_threshold is not None and d.finiteness_threshold >= 0.0:
        return EntropyValue.make_divergent("quadrature_quantile")
    return _quantile_integral(d, lambda u, v: _dual_uv(u, v, sv))


# ---------------------------------------------------------------------------
# plug-in estimators (empirical measure through the integral form;
# the order-statistic weights sit at i/n so the s=1 case reproduces the
# exact step integral of F(1-F))

def delta_plugin(x: EmpiricalSample, s) -> EntropyValue:
    sv = as_order(s).s
    v = x.values
    w = g_kernel_np(np.arange(1, x.n) / x.n, sv)
    val = float(w @ np.diff(v))
    bound = 1e-13 * math.sqrt(x.n) * max(1.0, abs(val))
    return EntropyValue(max(val, 0.0), bound, "plugin")


def nabla_plugin(x: EmpiricalSample, s) -> EntropyValue:
    sv = as_order(s).s
    v = x.values
    w = dual_kernel_np(np.arange(1, x.n) / x.n, sv)
    val = float(w @ np.diff(v))
    bound = 1e-13 * math.sqrt(x.n) * max(1.0, abs(val))
    return EntropyValue(max(val, 0.0), bound, "plugin")


# ---------------------------------------------------------------------------
# dispatch and profiles

def _closed_value(d: DistributionSpec, which: str, s: float, v: float) -> EntropyValue:
    # a closed form that does not flag divergence must give a finite value
    if not math.isfinite(v):
        raise NonIntegrableError(
            f"the closed form of {which} for {d.label()} at s={s:g} gives {v}")
    return EntropyValue(v, CLOSED_BOUND * max(1.0, abs(v)), "closed_form")


def delta_value(d: DistributionSpec, s, prefer_closed: bool = True) -> EntropyValue:
    """Best-method entropy: the closed form when the law has one, else the
    quantile-space integral when it has a quantile density, else x-space
    quadrature.  ``prefer_closed=False`` always takes the x-space route,
    the independent oracle.  A closed form that gives a non-finite value
    without flagging divergence raises :class:`NonIntegrableError`."""
    sv = as_order(s).s
    if prefer_closed and d.closed_delta is not None:
        try:
            v = d.closed_delta(sv)
        except DivergentEntropy:
            return EntropyValue.make_divergent("closed_form")
        return _closed_value(d, "delta", sv, v)
    if prefer_closed and d.qdensity is not None:
        return delta_quantile(d, sv)
    return delta_quadrature(d, sv)


def nabla_value(d: DistributionSpec, s, prefer_closed: bool = True) -> EntropyValue:
    """Best-method dual entropy: the closed form when the law has one, else
    the quantile-space integral.  A closed form whose alternating series
    cannot meet its bound at this order raises :class:`NonIntegrableError`,
    and the integral takes over; one that gives a non-finite value raises
    :class:`NonIntegrableError` to the caller."""
    sv = as_order(s).s
    if prefer_closed and d.closed_nabla is not None:
        try:
            v = d.closed_nabla(sv)
        except DivergentEntropy:
            return EntropyValue.make_divergent("closed_form")
        except NonIntegrableError:
            pass
        else:
            return _closed_value(d, "nabla", sv, v)
    return nabla_quadrature(d, sv)


def _closed_over_orders(closed, orders: np.ndarray) -> np.ndarray:
    """A closed form over an array of orders in one call, NaN wherever it
    gives no finite value; all NaN when there is no closed form or it
    flags an order of the array as divergent."""
    if closed is None or orders.size == 0:
        return np.full(orders.shape, np.nan)
    try:
        out = np.asarray(closed(orders), dtype=float)
    except DivergentEntropy:
        return np.full(orders.shape, np.nan)
    return np.where(np.isfinite(out), out, np.nan)


def _profile_column(d: DistributionSpec, which: str, grid: np.ndarray) -> list:
    # one array call of the closed form over the orders it can take; every
    # other order (divergent, refused or without a closed form) is
    # evaluated on its own by delta_value/nabla_value
    if which == "delta":
        closed, each, thr = d.closed_delta, delta_value, d.finiteness_threshold
    else:
        closed, each, thr = d.closed_nabla, nabla_value, None
    live = np.ones(grid.shape, dtype=bool) if thr is None else grid > thr
    vals = np.full(grid.shape, np.nan)
    vals[live] = _closed_over_orders(closed, grid[live])
    return [_closed_value(d, which, s, v) if math.isfinite(v) else each(d, s)
            for s, v in zip(grid.tolist(), vals.tolist())]


def entropy_profile(d: DistributionSpec, s_grid: Sequence[float]) -> EntropyProfile:
    """Best-method evaluation over a strictly increasing grid, with
    monotonicity flags (delta nonincreasing, nabla nondecreasing).

    Each entropy takes one array call of the law's closed form.  Orders at
    or below the finiteness threshold are marked divergent, and orders the
    closed form refuses (the duality series where it cancels) or laws
    without one are evaluated one order at a time, so every point equals
    ``delta_value``/``nabla_value`` at its order."""
    grid = [float(s) for s in s_grid]
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise DomainError("s grid must be strictly increasing")
    if any(not (s > -1.0 and math.isfinite(s)) for s in grid):
        raise DomainError("s grid entries must be finite and exceed -1")
    orders = np.asarray(grid, dtype=float)
    rows = tuple(ProfilePoint(*point) for point in zip(
        grid, _profile_column(d, "delta", orders), _profile_column(d, "nabla", orders)))

    def _monotone(vals, direction: int) -> bool:
        prev = None
        for ev in vals:
            if not ev.is_finite:
                continue
            if prev is not None:
                slack = prev.abs_error_bound + ev.abs_error_bound + 1e-12
                if direction * (ev.value - prev.value) > slack:
                    return False
            prev = ev
        return True

    return EntropyProfile(
        grid=rows,
        delta_nonincreasing=_monotone([r.delta for r in rows], +1),
        nabla_nondecreasing=_monotone([r.nabla for r in rows], -1),
    )
