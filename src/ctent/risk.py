"""Risk measures built on the entropy and its dual, plus their distortions.

Both families are Wang distortion measures: the entropy family distorts
the survival function through h_s(t) = t + t(1-t^s)/s, the dual family
through k_s(t) = t + G_s(t), where G_s is the quantile-space dual kernel
(equivalently k_s(t) = t(1 + (1+s)(K_s(1) - K_s(t) - log t)) with K_s the
auxiliary power series).  h_s and k_s are increasing and concave for every
s > -1, which is what makes the two functionals coherent.  The generalized
CRE distortion t + t(-log t)^s/Gamma(s+1) fails monotonicity on (0,1) for
s in (0,1) and concavity for s > 1; the diagnostics here exhibit both.

Each distortion is t plus a kernel held as a pair of halves (see
``entropy._halves``): g_s for h_s, G_s for k_s, u(-log u)^s/Gamma(s+1) and
u sum_{k=1..n} (-log u)^k/k! for the other two.  As the paper presents both
families as perturbations of the mean residual life, every risk here is one
quantile-space integral, integral_0^1 q(u) D'(1-u) du against the record's
q(u, v) and the distortion's derivative, on ``distributions._both_halves``
(heavy ends included): ``risk_delta`` and ``risk_nabla`` under h_s and k_s,
``mrl_representation`` under either, ``relevation_risk`` (the expected n-th
failure time) under H_tilde_{n-1}.  No risk reads a cdf or sf.  A half that
does not converge raises :class:`NonIntegrableError`; an order where the
mirrored entropy is infinite raises :class:`DivergentEntropy` first, and
both risks are cross-checked against mean + the mirrored law's entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .distributions import DistributionSpec, affine, dist_mean, from_quantile, negate
from .distributions import _halves_integral
from .entropy import (
    _divergent,
    _dual_coefficients,
    _dual_pair,
    _g_core,
    _halves,
    _log_pair,
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
from .specfun import EULER_GAMMA, _count, lgamma, psi

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
    s = as_order(s).s
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


def _h_tilde_core(u, logu, n: int):
    # H_tilde_n(u) - u = u sum_{k=1..n} L^k / k!, L = -log u, by Horner's rule
    ln = -logu
    acc = np.zeros_like(ln)
    for k in range(n, 0, -1):
        acc = ln * (1.0 + acc) / k
    return u * acc


def _distortion(pair) -> Callable:
    # t + K(t, 1 - t) on [0, 1], the clipped t outside it; NaN stays NaN
    return lambda t: np.clip(t, 0.0, 1.0) + _halves(pair, t)


def make_distortion(label: str, s_or_n: float) -> DistortionFunction:
    """Factory for the four distortion families.

    label: "h_s" (entropy family), "k_s" (dual family), "h_tilde_s"
    (generalized CRE, s >= 0), "H_tilde_n" (relevation partial sum,
    integer n >= 0).
    """
    s = float(s_or_n)
    if label == "h_s":
        as_order(s)  # refuses s <= -1, inf and NaN
        ev = _distortion(_log_pair(_g_core, s))

        def d1(t):
            return (s + 1.0) * (-np.log(t) if s == 0.0 else -np.expm1(s * np.log(t)) / s)

        def d2(t):
            return -(s + 1.0) * np.exp((s - 1.0) * np.log(t))

        return DistortionFunction("h_s", s, ev, d1, d2)

    if label == "k_s":
        as_order(s)
        ev = _distortion(_dual_pair(s))
        tables = _dual_coefficients(np.array([s]))  # built once, not at every call of k'

        def d1(t):
            # k' = k/t - w_s reduces exactly to (s+1) * J(t) with
            # J(t) = integral_t^1 (1-v)^s / v dv: manifestly positive and
            # free of the 1 - 1 cancellation near t = 1
            return (s + 1.0) * np.asarray(dual_tail_integral(t, s, tables), dtype=float)

        def d2(t):
            t = np.asarray(t, dtype=float)
            return -(s + 1.0) * np.exp(s * np.log1p(-t)) / t

        return DistortionFunction("k_s", s, ev, d1, d2)

    if label == "h_tilde_s":
        if as_order(s).s < 0.0:
            raise DomainError("h_tilde_s needs s >= 0")
        lg = lgamma(s + 1.0)
        # the kernel u (-log u)^s / Gamma(s+1); the order-0 map is 2t
        ev = (lambda t: 2.0 * np.asarray(t, dtype=float)) if s == 0.0 else _distortion(
            _log_pair(lambda u, logu: u * np.exp(s * np.log(-logu) - lg)))

        def d1(t):
            if s == 0.0:
                return np.full_like(t, 2.0)
            ln = -np.log(t)
            return 1.0 + (np.power(ln, s) - s * np.power(ln, s - 1.0)) * math.exp(-lg)

        def d2(t):
            if s == 0.0:
                return np.zeros_like(t)
            ln = -np.log(t)
            return s * np.power(ln, s - 2.0) * (s - 1.0 - ln) * math.exp(-lg) / t

        return DistortionFunction("h_tilde_s", s, ev, d1, d2)

    if label == "H_tilde_n":
        n = _count(s_or_n, 0, "H_tilde_n's n")
        lg = lgamma(n + 1.0)  # log n!, which overflows a float past n = 170
        ev = _distortion(_log_pair(_h_tilde_core, n))

        def d1(t):
            return np.exp(xlogy(n, -np.log(t)) - lg)

        def d2(t):
            t = np.asarray(t, dtype=float)
            if n == 0:
                return np.zeros_like(t)
            return -n * np.exp(xlogy(n - 1.0, -np.log(t)) - lg) / t

        return DistortionFunction("H_tilde_n", float(n), ev, d1, d2)

    raise DomainError(f"unknown distortion label {label!r}")


_DIAGNOSTIC_GRID = 10000  # points of the coherence_diagnostics grid
_AXIOM_TOL = 1e-8  # relative tolerance of risk_axioms_check's exact axioms


def coherence_diagnostics(f: DistortionFunction) -> dict:
    """Sign report for f' and f'' on a 10 000-point grid in (1e-6, 1-1e-6).

    Analytic derivatives are used (the families above carry them); the grid
    guards the implementation rather than the calculus.
    """
    t = np.linspace(1e-6, 1.0 - 1e-6, _DIAGNOSTIC_GRID)
    d1 = np.asarray(f.deriv1(t), dtype=float)
    d2 = np.asarray(f.deriv2(t), dtype=float)
    mono_viol = np.flatnonzero(d1 <= 0.0)
    conc_viol = np.flatnonzero(d2 > 0.0)
    return {
        "label": f.label,
        "s_or_n": f.s_or_n,
        "grid_n": _DIAGNOSTIC_GRID,
        "monotone_increasing": mono_viol.size == 0,
        "concave": conc_viol.size == 0,
        "deriv1_min": float(np.min(d1)),
        "deriv2_max": float(np.max(d2)),
        "first_monotonicity_violation": float(t[mono_viol[0]]) if mono_viol.size else None,
        "first_concavity_violation": float(t[conc_viol[0]]) if conc_viol.size else None,
        "deriv1_positive_decreasing": bool(np.all(d1 > 0.0) and np.all(np.diff(d1) <= 1e-12)),
    }


# ---------------------------------------------------------------------------
# the risk measures

def _distortion_integral(d: DistributionSpec, d1: Callable, name: str) -> tuple:
    """(value, error) of integral_0^1 q(u) D'(1 - u) du against q(u, v) and
    D'(v), over both halves; ``name`` heads a refusal.  The error estimate is
    first trusted at level 3, as Bailey advises: at level 2 it read 7e-14 for
    the dual family of negated Gumbel at s = 5, where the value was 1.2e-8 off."""
    q = d.quantile
    return _halves_integral(lambda k, u, v: q(u, v) * d1(v), name, atol=1e-12, rtol=1e-11,
                            minlevel=3)


# each family's distortion, mirrored entropy and its name
_FAMILIES = {"delta": ("h_s", delta_value, "entropy"),
             "nabla": ("k_s", nabla_value, "dual entropy")}


def _finite_mirror(d: DistributionSpec, sv: float, family: str) -> DistributionSpec:
    # negate(d), whose entropy of ``family`` the risk measure adds to the mean;
    # an order where ``entropy._divergent`` finds it infinite is refused
    nd = negate(d)
    if _divergent(nd, family, np.array([sv]))[0]:
        raise DivergentEntropy(
            f"risk measure diverges: the mirrored {_FAMILIES[family][2]} of {d.label()} is "
            f"infinite at s={sv:g} (finiteness threshold {nd.finiteness_threshold}, "
            f"mirrored {nd.neg_finiteness_threshold})")
    return nd


def _checked_risk(d: DistributionSpec, s, family: str) -> RiskValue:
    # the distortion integral of ``family``, checked against mean + the mirrored
    # entropy; an order where that is infinite is refused first
    sv, (label, mirrored, name) = as_order(s).s, _FAMILIES[family]
    nd = _finite_mirror(d, sv, family)
    val, err = _distortion_integral(d, make_distortion(label, sv).deriv1,
                                    f"the {label} distortion integral of {d.label()} at s={sv:g}")
    ref = mirrored(nd, sv)
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
    return _checked_risk(d, s, "delta")


def risk_nabla(d: DistributionSpec, s) -> RiskValue:
    """The dual-family risk measure via the k_s distortion."""
    return _checked_risk(d, s, "nabla")


def mrl_representation(d: DistributionSpec, s, which: str = "delta") -> RiskValue:
    """The perturbed mean-residual-life form of the risk measures,
    (s+1) E[Fbar(X)^s (X + mrl(X))] resp. (s+1) E[F(X)^s (X + mrl(X))].  With
    the partial mean PM(u) = integral_u^1 q and the weight w(u) = (1-u)^(s-1)
    resp. u^s/(1-u), it is (s+1) integral_0^1 w PM du; (s+1) integral_0^t w is
    the distortion's derivative D'(1-t), h_s'(1-t) = (s+1)(1 - (1-t)^s)/s resp.
    k_s'(1-t) = (s+1) J(1-t), so the exchanged integrals are integral_0^1 q(u)
    D'(1-u) du, the risk measure's own integral (:func:`_distortion_integral`)
    with no oracle: its bound adds 1e-7 * max(1, |value|) to the error
    estimate, which can run optimistic.  A divergent order raises
    :class:`DivergentEntropy` as in the risk measures; a half that does not
    converge raises :class:`NonIntegrableError`."""
    sv = as_order(s).s
    if which not in _FAMILIES:
        raise DomainError("which must be 'delta' or 'nabla'")
    _finite_mirror(d, sv, which)
    total, error = _distortion_integral(
        d, make_distortion(_FAMILIES[which][0], sv).deriv1,
        f"the mean-residual-life integral of {d.label()} at s={sv:g} ({which})")
    return RiskValue(total, error + 1e-7 * max(1.0, abs(total)), which)


def _quantile_mixture(d1: DistributionSpec, d2: DistributionSpec,
                      lam: float) -> DistributionSpec:
    """The law with quantile lam q1 + (1-lam) q2 (the comonotone mixture)."""
    q1, q2, p1, p2 = d1.quantile, d2.quantile, d1.qdensity, d2.qdensity
    lo = lam * d1.support[0] + (1 - lam) * d2.support[0]
    hi = lam * d1.support[1] + (1 - lam) * d2.support[1]
    qd = None if p1 is None or p2 is None else (
        lambda u, v: lam * p1(u, v) + (1 - lam) * p2(u, v))

    def quantile(u, v=None):
        # the parts' q(u) or, given v, their q(u, v)
        at = (u,) if v is None else (u, v)
        return lam * np.asarray(q1(*at), dtype=float) + (1 - lam) * np.asarray(q2(*at), dtype=float)

    return replace(from_quantile("quantile_mixture", quantile, (lo, hi), qdensity=qd),
                   quantile=quantile)


def risk_axioms_check(d1: DistributionSpec, d2: DistributionSpec, s,
                      a: float, b: float) -> dict:
    """Verify the coherence axioms numerically on a pair of distributions.

    Affine equivariance is checked exactly; monotonicity requires the
    quantiles to be ordered, q1(u) <= q2(u) to 1e-12 relative, on a grid of
    u (else PreconditionNotMet); subadditivity is checked in the comonotone form,
    where distortion measures are additive, and as convexity along quantile
    mixtures.  The exact axioms hold to 1e-8 relative.
    """
    sv = as_order(s).s
    if not a > 0.0:
        raise DomainError("scale must be positive")
    # stochastic-order precondition, read on the quantiles
    us = np.linspace(0.005, 0.995, 199)
    q1 = np.asarray(d1.quantile(us), dtype=float)
    q2 = np.asarray(d2.quantile(us), dtype=float)
    if not np.all(q1 <= q2 + 1e-12 * np.abs(q2)):
        raise PreconditionNotMet(
            "quantiles are not pointwise ordered on the test grid; "
            "monotonicity is not applicable")

    # comonotone additivity: Y = 2X, so X + Y = 3X; convexity along a quantile
    # mixture (comonotone coupling: equality)
    lam, report = 0.3, {"s": sv, "a": a, "b": b}
    laws = (d1, affine(d1, a, b), d2, affine(d1, 3.0, 0.0), affine(d1, 2.0, 0.0),
            _quantile_mixture(d1, d2, lam))
    tol = lambda x: _AXIOM_TOL * max(1.0, abs(x))
    for fam, fn in (("delta", risk_delta), ("nabla", risk_nabla)):
        v1, moved, v2, lhs, doubled, vm = (fn(x, sv).value for x in laws)
        report[f"affine_{fam}_lhs"], report[f"affine_{fam}_rhs"] = moved, a * v1 + b
        report[f"affine_{fam}_ok"] = abs(moved - (a * v1 + b)) <= tol(moved)
        report[f"monotone_{fam}_ok"], report[f"monotone_{fam}_pair"] = v1 <= v2 + tol(v2), (v1, v2)
        report[f"comonotone_{fam}_ok"] = abs(lhs - (v1 + doubled)) <= tol(lhs)
        vb = lam * v1 + (1 - lam) * v2
        report[f"mixture_convexity_{fam}_ok"] = vm <= vb + 1e-6 * max(1.0, abs(vb))
        report[f"mixture_convexity_{fam}_pair"] = (vm, vb)
    return report


def _check_nonneg_support(d: DistributionSpec) -> None:
    if d.support[0] < -1e-12:
        raise DomainError("relevation lifetimes need nonnegative support")


def relevation_risk(d: DistributionSpec, n: int) -> RiskValue:
    """Expected n-th failure time of the relevation process: E[T_n] is the
    Wang risk of X under H_tilde_{n-1}(t) = t sum_{k<n} (-log t)^k / k!."""
    n = _count(n, 1, "the unit count n")
    _check_nonneg_support(d)
    val, err = _distortion_integral(d, make_distortion("H_tilde_n", n - 1).deriv1,
                                    f"the H_tilde_{n - 1} distortion integral of {d.label()}")
    return RiskValue(val, err + 1e-10 * max(1.0, val), "relevation_n")
