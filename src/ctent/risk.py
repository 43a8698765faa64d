"""Risk measures built on the entropy and its dual, plus their distortions.

Both families are Wang distortion measures: the entropy family distorts
the survival function through h_s(t) = t + t(1-t^s)/s, the dual family
through k_s(t) = t + G_s(t), where G_s is the quantile-space dual kernel
(equivalently k_s(t) = t(1 + (1+s)(K_s(1) - K_s(t) - log t)) with K_s the
auxiliary power series).  h_s and k_s are increasing and concave for every
s > -1, which is what makes the two functionals coherent.  The generalized
CRE distortion t + t(-log t)^s/Gamma(s+1) fails monotonicity on (0,1) for
s in (0,1) and concavity for s > 1; the diagnostics here exhibit both.

Evaluation is by the x-space distortion integral, built on the (u, v)
kernels of the entropy module: one tanh-sinh integral over arrays of x per
half-line, and QUADPACK on the same integrand where tanh-sinh refuses
(heavy tails such as lomax(1.05)).  A non-finite value or error raises
:class:`NonIntegrableError`.  The result is cross-checked, unchanged,
against mean + entropy-of-the-mirrored-law from the entropy module.
``relevation_risk``, the expected n-th failure time, is the same integral
of the relevation partial-sum distortion H_tilde_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import tanhsinh

from .distributions import DistributionSpec, dist_mean, from_quantile, negate
from .entropy import (
    _dual_uv,
    _g_uv,
    _quad,
    as_order,
    delta_value,
    dual_kernel,
    dual_tail_integral,
    nabla_value,
)
from .errors import (
    DivergentEntropy,
    DomainError,
    NonIntegrableError,
    OracleMismatch,
    PreconditionNotMet,
)
from .specfun import EULER_GAMMA, lgamma, psi

__all__ = [
    "DistortionFunction", "RiskValue", "K_series", "make_distortion",
    "coherence_diagnostics", "risk_delta", "risk_nabla",
    "mrl_representation", "risk_axioms_check", "relevation_risk",
]


@dataclass(frozen=True)
class DistortionFunction:
    """An increasing concave candidate map on [0,1] with eval(0)=0.

    eval/deriv1/deriv2 accept scalars or numpy arrays.  All families here
    satisfy eval(1)=1 except the order-0 generalized-CRE map, which equals
    2t (it represents the functional 2 E[X] - min X).
    """

    label: str
    s_or_n: float
    eval: Callable
    deriv1: Callable
    deriv2: Callable


@dataclass(frozen=True)
class RiskValue:
    value: float
    abs_error_bound: float
    family: str


# ---------------------------------------------------------------------------
# the auxiliary series K_s and the distortion factories

def _K1(s: float) -> float:
    # closed form of K_s(1); derived by splitting 1/(n(n+1)) and summing
    # the two binomial series: K_s(1) = s/(s+1) - psi(s+1) - gamma
    return s / (s + 1.0) - psi(s + 1.0) - EULER_GAMMA


def K_series(s: float, t: float) -> float:
    """K_s(t) = sum_{n>=1} (-s)_n t^n / (n (n+1)!), to 1e-12 absolute.

    Through the dual kernel identity G_s(t) = (1+s) t (K_s(1) - K_s(t) -
    log t), whose series converge fast where the raw one does not.  Where
    the kernel refuses the order (s above ~32.6 for t < 1/2), this raises
    :class:`NonIntegrableError`.
    """
    if not -1.0 < s:
        raise DomainError(f"series order must exceed -1, got {s}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0,1], got {t}")
    if t == 0.0 or s == 0.0:
        return 0.0
    if t == 1.0:
        return _K1(s)
    g = dual_kernel(t, s)
    if math.isnan(g):
        raise NonIntegrableError(
            f"the dual kernel refuses order s={s:g} at t={t:g}: its series would "
            f"round past its bound")
    return _K1(s) - (g / ((1.0 + s) * t) + math.log(t))


def _ratio_np(t: np.ndarray, s: float) -> np.ndarray:
    # (1 - t^s)/s elementwise on (0,1)
    if s == 0.0:
        return -np.log(t)
    return -np.expm1(s * np.log(t)) / s


def _distorted(kernel: Callable, s: float, p, upper: bool):
    # upper: the distortion p + kernel(p, 1 - p) of a survival value p;
    # else one minus the distortion of 1 - p, as p - kernel(1 - p, p) with
    # v = p exact, so that it does not cancel as p -> 0
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    pp = np.where(inside, p, 0.5)
    with np.errstate(divide="ignore"):  # the log of the unused branch at p ~ 0
        f = pp + kernel(pp, 1.0 - pp, s) if upper else pp - kernel(1.0 - pp, pp, s)
    return np.where(inside, f, np.where(p <= 0.0, 0.0, 1.0))


def make_distortion(label: str, s_or_n: float) -> DistortionFunction:
    """Factory for the four distortion families.

    label: "h_s" (entropy family), "k_s" (dual family), "h_tilde_s"
    (generalized CRE, s >= 0), "H_tilde_n" (relevation partial sum,
    integer n >= 0).
    """
    s = float(s_or_n)
    if label == "h_s":
        if not s > -1.0:
            raise DomainError("h_s needs s > -1")

        def ev(t):
            return _distorted(_g_uv, s, t, True)

        def d1(t):
            t = np.asarray(t, dtype=float)
            return (s + 1.0) * _ratio_np(t, s)

        def d2(t):
            t = np.asarray(t, dtype=float)
            return -(s + 1.0) * np.exp((s - 1.0) * np.log(t))

        return DistortionFunction("h_s", s, ev, d1, d2)

    if label == "k_s":
        if not s > -1.0:
            raise DomainError("k_s needs s > -1")

        def ev(t):
            return _distorted(_dual_uv, s, t, True)

        def d1(t):
            # k' = k/t - w_s reduces exactly to (s+1) * J(t) with
            # J(t) = integral_t^1 (1-v)^s / v dv: manifestly positive and
            # free of the 1 - 1 cancellation near t = 1
            t = np.asarray(t, dtype=float)
            return (s + 1.0) * np.asarray(dual_tail_integral(t, s), dtype=float)

        def d2(t):
            t = np.asarray(t, dtype=float)
            return -(s + 1.0) * np.exp(s * np.log1p(-t)) / t

        return DistortionFunction("k_s", s, ev, d1, d2)

    if label == "h_tilde_s":
        if s < 0.0:
            raise DomainError("h_tilde_s needs s >= 0")
        lg = lgamma(s + 1.0)

        def ev(t):
            t = np.asarray(t, dtype=float)
            if s == 0.0:
                return 2.0 * t
            inside = (t > 0.0) & (t < 1.0)
            tt = np.where(inside, t, 0.5)
            with np.errstate(divide="ignore"):
                out = tt + tt * np.exp(s * np.log(-np.log(tt)) - lg)
            return np.where(inside, out, np.where(t <= 0.0, 0.0, 1.0))

        def d1(t):
            t = np.asarray(t, dtype=float)
            if s == 0.0:
                return np.full_like(t, 2.0)
            ln = -np.log(t)
            return 1.0 + (np.power(ln, s) - s * np.power(ln, s - 1.0)) * math.exp(-lg)

        def d2(t):
            t = np.asarray(t, dtype=float)
            if s == 0.0:
                return np.zeros_like(t)
            ln = -np.log(t)
            return s * np.power(ln, s - 2.0) * (s - 1.0 - ln) * math.exp(-lg) / t

        return DistortionFunction("h_tilde_s", s, ev, d1, d2)

    if label == "H_tilde_n":
        n = int(s_or_n)
        if n < 0 or n != s_or_n:
            raise DomainError("H_tilde_n needs an integer n >= 0")
        fact = math.factorial(n)

        def ev(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                ln = -np.log(np.where(t > 0.0, t, 0.5))
                acc = np.zeros_like(t)
                for k in range(n + 1):
                    acc = acc + np.power(ln, k) / math.factorial(k)
                return np.where(t > 0.0, t * acc, 0.0)

        def d1(t):
            t = np.asarray(t, dtype=float)
            ln = -np.log(t)
            return np.power(ln, n) / fact

        def d2(t):
            t = np.asarray(t, dtype=float)
            if n == 0:
                return np.zeros_like(t)
            ln = -np.log(t)
            return -n * np.power(ln, n - 1.0) / (t * fact)

        return DistortionFunction("H_tilde_n", float(n), ev, d1, d2)

    raise DomainError(f"unknown distortion label {label!r}")


def coherence_diagnostics(f: DistortionFunction, grid_n: int = 10000) -> dict:
    """Sign report for f' and f'' on a grid in (1e-6, 1-1e-6).

    Analytic derivatives are used (the families above carry them); the grid
    guards the implementation rather than the calculus.
    """
    if grid_n < 100:
        raise DomainError("grid_n must be at least 100")
    t = np.linspace(1e-6, 1.0 - 1e-6, int(grid_n))
    d1 = np.asarray(f.deriv1(t), dtype=float)
    d2 = np.asarray(f.deriv2(t), dtype=float)
    mono_viol = np.flatnonzero(d1 <= 0.0)
    conc_viol = np.flatnonzero(d2 > 0.0)
    report = {
        "label": f.label,
        "s_or_n": f.s_or_n,
        "grid_n": int(grid_n),
        "monotone_increasing": mono_viol.size == 0,
        "concave": conc_viol.size == 0,
        "deriv1_min": float(np.min(d1)),
        "deriv2_max": float(np.max(d2)),
        "first_monotonicity_violation": float(t[mono_viol[0]]) if mono_viol.size else None,
        "first_concavity_violation": float(t[conc_viol[0]]) if conc_viol.size else None,
        "deriv1_positive_decreasing": bool(np.all(d1 > 0.0) and np.all(np.diff(d1) <= 1e-12)),
    }
    return report


# ---------------------------------------------------------------------------
# the risk measures

def _integrate(f: Callable, a: float, b: float, what: str) -> tuple:
    """integral_a^b f by tanh-sinh over arrays (scipy maps an infinite limit
    itself), and by QUADPACK on the same integrand where tanh-sinh refuses.

    The error estimate is first trusted at level 3, as Bailey advises: at
    level 2 it read 7e-14 for the dual family of negated Gumbel at s = 5,
    where the value was 1.2e-8 off."""
    with np.errstate(all="ignore"):
        r = tanhsinh(f, a, b, atol=1e-12, rtol=1e-11, minlevel=3)
        if r.status == 0:
            val, err = float(r.integral), float(r.error)
        else:
            val, err, _ = _quad(lambda x: float(f(x)), a, b)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise NonIntegrableError(
            f"the {what} distortion integral over ({a:g}, {b:g}) gives {val} "
            f"with error {err}")
    return val, err


def _distortion_integral(d: DistributionSpec, s: float, kernel: Callable,
                         label: str) -> tuple:
    # the distorted survival over x > 0 minus one minus it over x < 0; F-bar
    # is 1 below the support and 0 above it, which contributes max(lo, 0)
    # and min(hi, 0)
    lo, hi = d.support
    a, b = max(lo, 0.0), min(hi, 0.0)
    val, err = a + b, 0.0
    if hi > 0.0:
        v, e = _integrate(lambda x: _distorted(kernel, s, d.sf(x), True), a, hi, label)
        val, err = val + v, err + e
    if lo < 0.0:
        v, e = _integrate(lambda x: _distorted(kernel, s, d.cdf(x), False), lo, b, label)
        val, err = val - v, err + e
    return val, err


def _checked_risk(d: DistributionSpec, sv: float, kernel: Callable, label: str,
                  mirrored: Callable, name: str, family: str) -> RiskValue:
    # the distortion integral, checked against mean + the mirrored entropy
    val, err = _distortion_integral(d, sv, kernel, label)
    ref = mirrored(negate(d), sv)
    if not ref.is_finite:
        raise DivergentEntropy(f"mirrored {name} is infinite at this order")
    ref_total = dist_mean(d) + ref.value
    bound = err + ref.abs_error_bound + 1e-9 * max(1.0, abs(val))
    if abs(val - ref_total) > bound + 1e-7 * max(1.0, abs(val)):
        raise OracleMismatch(
            f"distortion integral {val!r} and mean + {name} {ref_total!r} "
            f"disagree beyond {bound:g}")
    return RiskValue(val, bound, family)


def risk_delta(d: DistributionSpec, s) -> RiskValue:
    """The entropy-family risk measure: distortion integral of h_s over the
    survival function, cross-checked against mean + delta of the mirror."""
    sv = as_order(s).s
    if d.neg_finiteness_threshold is not None and sv <= d.neg_finiteness_threshold:
        raise DivergentEntropy(
            f"risk measure diverges: order s={sv:g} at or below the mirrored "
            f"finiteness threshold {d.neg_finiteness_threshold:g}")
    return _checked_risk(d, sv, _g_uv, "h_s", delta_value, "entropy", "delta")


def risk_nabla(d: DistributionSpec, s) -> RiskValue:
    """The dual-family risk measure via the k_s distortion."""
    return _checked_risk(d, as_order(s).s, _dual_uv, "k_s", nabla_value, "dual entropy", "nabla")


def mrl_representation(d: DistributionSpec, s, which: str = "delta") -> RiskValue:
    """The perturbed mean-residual-life form of the risk measures:
    (s+1) E[Fbar(X)^s (X + mrl(X))] resp. (s+1) E[F(X)^s (X + mrl(X))],
    integrated in quantile space with a nested partial-mean integral."""
    sv = as_order(s).s
    if which not in ("delta", "nabla"):
        raise DomainError("which must be 'delta' or 'nabla'")
    q = d.quantile

    def partial_mean(u: float) -> float:
        v, _, _ = _quad(lambda t: float(q(t)), u, 1.0, epsabs=1e-11, epsrel=1e-10,
                        limit=200)
        return v

    if which == "delta":
        def integrand(u: float) -> float:
            return math.exp((sv - 1.0) * math.log1p(-u)) * partial_mean(u)
    else:
        def integrand(u: float) -> float:
            return math.exp(sv * math.log(u) - math.log1p(-u)) * partial_mean(u)

    val, err, _ = _quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-9, limit=300)
    total = (sv + 1.0) * val
    return RiskValue(total, (sv + 1.0) * err + 1e-7 * max(1.0, abs(total)), which)


def _quantile_mixture(d1: DistributionSpec, d2: DistributionSpec,
                      lam: float) -> DistributionSpec:
    """The law with quantile lam q1 + (1-lam) q2 (the comonotone mixture)."""
    q1, q2, p1, p2 = d1.quantile, d2.quantile, d1.qdensity, d2.qdensity
    lo = lam * d1.support[0] + (1 - lam) * d2.support[0]
    hi = lam * d1.support[1] + (1 - lam) * d2.support[1]
    qd = None if p1 is None or p2 is None else (
        lambda u, v: lam * p1(u, v) + (1 - lam) * p2(u, v))
    return from_quantile(
        "quantile_mixture",
        lambda u: lam * np.asarray(q1(u), dtype=float) + (1 - lam) * np.asarray(q2(u), dtype=float),
        (lo, hi), qdensity=qd)


def risk_axioms_check(d1: DistributionSpec, d2: DistributionSpec, s,
                      a: float, b: float, tol: float = 1e-8) -> dict:
    """Verify the coherence axioms numerically on a pair of distributions.

    Affine equivariance is checked exactly; monotonicity requires the
    survival functions to be pointwise ordered on a quantile grid (else
    PreconditionNotMet); subadditivity is checked in the comonotone form,
    where distortion measures are additive, and as convexity along quantile
    mixtures.
    """
    sv = as_order(s).s
    if not a > 0.0:
        raise DomainError("scale must be positive")
    report = {"s": sv, "a": a, "b": b}

    from .distributions import affine as _affine

    families = (("delta", risk_delta), ("nabla", risk_nabla))
    at_d1, at_d2 = {}, {}  # each family's value at d1 and d2, formed once
    for fam, fn in families:
        base = at_d1[fam] = fn(d1, sv).value
        moved = fn(_affine(d1, a, b), sv).value
        report[f"affine_{fam}_lhs"] = moved
        report[f"affine_{fam}_rhs"] = a * base + b
        report[f"affine_{fam}_ok"] = abs(moved - (a * base + b)) <= tol * max(1.0, abs(moved))

    # stochastic-order precondition on a shared quantile grid
    us = np.linspace(0.005, 0.995, 199)
    xs = np.unique(np.concatenate([np.asarray(d1.quantile(us), dtype=float),
                                   np.asarray(d2.quantile(us), dtype=float)]))
    sf1 = np.asarray(d1.sf(xs), dtype=float)
    sf2 = np.asarray(d2.sf(xs), dtype=float)
    if not np.all(sf1 <= sf2 + 1e-12):
        raise PreconditionNotMet(
            "survival functions are not pointwise ordered on the test grid; "
            "monotonicity is not applicable")
    for fam, fn in families:
        v1 = at_d1[fam]
        v2 = at_d2[fam] = fn(d2, sv).value
        report[f"monotone_{fam}_ok"] = v1 <= v2 + tol * max(1.0, abs(v2))
        report[f"monotone_{fam}_pair"] = (v1, v2)

    # comonotone additivity: Y = 2X, so X + Y = 3X
    for fam, fn in families:
        lhs = fn(_affine(d1, 3.0, 0.0), sv).value
        rhs = at_d1[fam] + fn(_affine(d1, 2.0, 0.0), sv).value
        report[f"comonotone_{fam}_ok"] = abs(lhs - rhs) <= tol * max(1.0, abs(lhs))

    # convexity along a quantile mixture (comonotone coupling: equality)
    lam = 0.3
    mix = _quantile_mixture(d1, d2, lam)
    for fam, fn in families:
        vm = fn(mix, sv).value
        vb = lam * at_d1[fam] + (1 - lam) * at_d2[fam]
        report[f"mixture_convexity_{fam}_ok"] = vm <= vb + 1e-6 * max(1.0, abs(vb))
        report[f"mixture_convexity_{fam}_pair"] = (vm, vb)
    return report


def relevation_risk(d: DistributionSpec, n: int) -> RiskValue:
    """Expected n-th failure time of the relevation process, E[T_n] =
    integral_0^inf H_tilde_{n-1}(Fbar(x)) dx, where H_tilde_{n-1}(t) =
    t sum_{k<n} (-log t)^k / k!; the support's lower end adds min X."""
    if n < 1 or n != int(n):
        raise DomainError(f"unit count must be a positive integer, got {n}")
    lo, hi = d.support
    if lo < -1e-12:
        raise DomainError("relevation lifetimes need nonnegative support")
    a = max(lo, 0.0)
    partial_sum = make_distortion("H_tilde_n", int(n) - 1).eval
    val, err = _integrate(lambda x: partial_sum(d.sf(x)), a, hi, "H_tilde_n")
    total = a + val
    return RiskValue(total, err + 1e-10 * max(1.0, total), "relevation_n")
