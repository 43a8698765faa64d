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
u sum_{k=1..n} (-log u)^k/k! for the other two.  The risk is the Wang
distortion integral in the entropy module's x-space frame: the median plus
the interquartile width times one tanh-sinh call over arrays that
integrates both sides of the median, at each side's small-side probability
p, p + K(p, 1 - p) above the median and, through the reversed pair,
K(1 - p, p) - p below it.  A side whose integrand decays like z^-a with
1 < a < 2 (heavy tails such as lomax(1.05)) runs in that call under the
power substitution z = y^-m - 1, m = 1/(a - 1), with a measured from two
far probes.  A side that tanh-sinh refuses, a non-finite integrand, value
or error, or a tail lost to an underflowed probability, raises
:class:`NonIntegrableError`.  The result is cross-checked, unchanged,
against mean + entropy-of-the-mirrored-law from the entropy module.
``relevation_risk``, the expected n-th failure time, is the same integral
of the relevation partial-sum distortion H_tilde_{n-1}.  The
mean-residual-life form, ``mrl_representation``, is integral_0^1 q(u) D'(1-u)
du against the distortion's derivative, on the entropy's quantile splitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import tanhsinh

from .distributions import DistributionSpec, affine, dist_mean, from_quantile, negate
from .entropy import (
    _TINY,
    _both_halves,
    _dual_pair,
    _frame,
    _g_core,
    _halves,
    _log_pair,
    _refuse_lost_tail,
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
        if not s > -1.0:
            raise DomainError("h_s needs s > -1")

        ev = _distortion(_log_pair(_g_core, s))

        def d1(t):
            return (s + 1.0) * (-np.log(t) if s == 0.0 else -np.expm1(s * np.log(t)) / s)

        def d2(t):
            return -(s + 1.0) * np.exp((s - 1.0) * np.log(t))

        return DistortionFunction("h_s", s, ev, d1, d2)

    if label == "k_s":
        if not s > -1.0:
            raise DomainError("k_s needs s > -1")

        ev = _distortion(_dual_pair(s))

        def d1(t):
            # k' = k/t - w_s reduces exactly to (s+1) * J(t) with
            # J(t) = integral_t^1 (1-v)^s / v dv: manifestly positive and
            # free of the 1 - 1 cancellation near t = 1
            return (s + 1.0) * np.asarray(dual_tail_integral(t, s), dtype=float)

        def d2(t):
            t = np.asarray(t, dtype=float)
            return -(s + 1.0) * np.exp(s * np.log1p(-t)) / t

        return DistortionFunction("k_s", s, ev, d1, d2)

    if label == "h_tilde_s":
        if s < 0.0:
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
        n = int(s_or_n)
        if n < 0 or n != s_or_n:
            raise DomainError("H_tilde_n needs an integer n >= 0")
        fact = math.factorial(n)

        ev = _distortion(_log_pair(_h_tilde_core, n))

        def d1(t):
            return np.power(-np.log(t), n) / fact

        def d2(t):
            t = np.asarray(t, dtype=float)
            if n == 0:
                return np.zeros_like(t)
            ln = -np.log(t)
            return -n * np.power(ln, n - 1.0) / (t * fact)

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

_FAR = np.array([1e30, 1e60])  # z of the two probes that set the power m
_TOP = 1e300  # the farthest w z at which a substituted side is evaluated


def _decay(f1, f2, z1: float, z2: float):
    # the exponent a of a decay like z^-a through f1 at z1 and f2 at z2
    return np.log(np.abs(f1 / f2)) / math.log(z2 / z1)


def _wang(d: DistributionSpec, pair: tuple, what: str) -> tuple:
    """The Wang risk of ``d`` under the distortion t + K(t, 1 - t) of the
    kernel ``pair`` (see :func:`entropy._halves`), in the frame of
    :func:`entropy._frame`: m + w times the integral of the distorted
    survival above the median less that of one minus it below.
    Both sides are one tanh-sinh call over arrays, and a side that it
    refuses raises :class:`NonIntegrableError`.  scipy maps an infinite end
    itself, except where the integrand decays like z^-a with 1 < a < 2
    (lomax(1.05) under k_s), a measured from the integrand at z = 1e30 and
    1e60: tanh-sinh does not finish such a side on (0, inf), so it runs over
    y with z = y^-m - 1, m = 1/(a - 1) up to 200, which leaves the integrand
    bounded at y = 0.  y stops at z = Z = 1e300/max(w, 1), where x is still
    finite; the tail past Z is Z f(Z)/(a - 1), with a measured just below Z,
    and its error is the difference from the same tail with a from the far
    probes.

    The error estimate is first trusted at level 3, as Bailey advises: at
    level 2 it read 7e-14 for the dual family of negated Gumbel at s = 5,
    where the value was 1.2e-8 off.  tanh-sinh zeroes a non-finite integrand
    value past its first node, so the integrand raises on one itself."""
    m, w, signs, ends, probs = _frame(d)
    lo, hi = d.support
    name = f"the {what} distortion integral of {d.label()}"
    underflowed = np.zeros(2, dtype=bool)  # per side, p = 0 inside the support

    def signed(p, side: int):
        # at a side's small-side probability p: the distortion p + K(p, 1 - p)
        # above the median; below it, the distortion of 1 - p less one, K(1 - p, p) - p
        return p + _halves(pair, p) if side == 0 else _halves(pair[::-1], p) - p

    def distorted(z, side):
        # side: 0 above the median, 1 below it; both broadcast against z
        z, side = np.broadcast_arrays(z, side)
        x, p, out = m + signs[side] * w * z, np.empty(z.shape), np.empty(z.shape)
        for k, rows in enumerate((side == 0, side == 1)):
            p[rows] = probs[k](x[rows])
            out[rows] = signed(p[rows], k)
        return x, p, out

    def f(t, side, power):
        # t is z on a side with power 1, else y
        t, side, power = np.broadcast_arrays(t, side, power)
        sub = power > 1.0
        yp = np.where(sub, t, 1.0) ** -power
        x, p, out = distorted(np.where(sub, yp - 1.0, t), side)
        out = np.where(sub, out * yp / t * power, out)
        if not np.isfinite(out).all():
            raise NonIntegrableError(f"{name} meets a non-finite integrand")
        if not p.all():
            underflowed[side[(p == 0.0) & (lo < x) & (x < hi)]] = True
        return out

    with np.errstate(all="ignore"):
        start, power, past, slack = np.zeros(2), np.ones(2), 0.0, 0.0
        far = np.flatnonzero(np.isinf(ends))
        if far.size:
            top = _TOP / max(w, 1.0)
            # through distorted, not f: a probe sets no lost-tail flag
            probe = distorted(np.append(_FAR, [top * 1e-30, top]), far[:, None])[2]
            a = _decay(probe[:, 0], probe[:, 1], _FAR[0], _FAR[1])
            heavy = (a > 1.0) & (a < 2.0)
            a, probe, sides = a[heavy], probe[heavy], far[heavy]
            power[sides] = np.minimum(1.0 / (a - 1.0), 200.0)
            start[sides] = (1.0 + top) ** (-1.0 / power[sides])
            zf = top * probe[:, 3]  # the tail past Z is Z f(Z)/(a - 1)
            near = np.where(zf == 0.0, np.inf,
                            _decay(probe[:, 2], probe[:, 3], top * 1e-30, top))
            tails = zf / np.maximum(near - 1.0, 0.0)
            past = float(np.sum(tails))
            slack = float(np.sum(np.abs(tails - zf / (a - 1.0))))
        r = tanhsinh(f, start, np.where(power > 1.0, 1.0, ends), args=(np.arange(2), power),
                     atol=1e-12, rtol=1e-11, minlevel=3)
        lost = w * sum(abs(float(signed(_TINY, k))) for k in np.flatnonzero(underflowed))
    total = m + w * (float(np.sum(r.integral)) + past)
    error = w * (float(np.sum(r.error)) + slack)
    if not (math.isfinite(total) and math.isfinite(error)):
        raise NonIntegrableError(f"{name} gives {total} with error {error}")
    _refuse_lost_tail(name, lost, total)
    for k in np.flatnonzero(r.status != 0):
        raise NonIntegrableError(
            f"{name} does not converge {('above', 'below')[k]} the median (tanh-sinh "
            f"status {r.status[k]} after {r.nfev[k]} evaluations)")
    return total, error


def _checked_risk(d: DistributionSpec, sv: float, pair: tuple, label: str,
                  mirrored: Callable, name: str, family: str) -> RiskValue:
    # the distortion integral of ``pair``, checked against mean + the mirrored entropy
    val, err = _wang(d, pair, label)
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
    return _checked_risk(d, sv, _log_pair(_g_core, sv), "h_s", delta_value, "entropy", "delta")


def risk_nabla(d: DistributionSpec, s) -> RiskValue:
    """The dual-family risk measure via the k_s distortion."""
    sv = as_order(s).s
    return _checked_risk(d, sv, _dual_pair(sv), "k_s", nabla_value, "dual entropy", "nabla")


def mrl_representation(d: DistributionSpec, s, which: str = "delta") -> RiskValue:
    """The perturbed mean-residual-life form of the risk measures,
    (s+1) E[Fbar(X)^s (X + mrl(X))] resp. (s+1) E[F(X)^s (X + mrl(X))].  With
    the partial mean PM(u) = integral_u^1 q and the weight w(u) = (1-u)^(s-1)
    resp. u^s/(1-u), it is (s+1) integral_0^1 w PM du; (s+1) integral_0^t w is
    the distortion's derivative D'(1-t), h_s'(1-t) = (s+1)(1 - (1-t)^s)/s resp.
    k_s'(1-t) = (s+1) J(1-t), so the exchanged integrals are integral_0^1 q(u)
    D'(1-u) du: one tanh-sinh call over both halves (:func:`entropy._both_halves`)
    against q(u, v) and D'(v).  The bound adds 1e-7 * max(1, |value|) to both
    halves' error estimate, which can run optimistic; a half that does not
    converge raises :class:`NonIntegrableError`."""
    sv = as_order(s).s
    if which not in ("delta", "nabla"):
        raise DomainError("which must be 'delta' or 'nabla'")
    q, d1 = d.quantile, make_distortion("h_s" if which == "delta" else "k_s", sv).deriv1
    r = _both_halves(lambda k, u, v: q(u, v) * d1(v), atol=1e-12, rtol=1e-11, minlevel=3)
    for k in np.flatnonzero(r.status != 0):
        raise NonIntegrableError(
            f"the mean-residual-life integral of {d.label()} at s={sv:g} ({which}) does not "
            f"converge where u {('< 1/2', '> 1/2')[k]} (tanh-sinh status "
            f"{int(r.status.flat[k])} after {int(r.nfev.flat[k])} evaluations)")
    total = float(np.sum(r.integral))
    return RiskValue(total, float(np.sum(r.error)) + 1e-7 * max(1.0, abs(total)), which)


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
                      a: float, b: float) -> dict:
    """Verify the coherence axioms numerically on a pair of distributions.

    Affine equivariance is checked exactly; monotonicity requires the
    survival functions to be pointwise ordered on a quantile grid (else
    PreconditionNotMet); subadditivity is checked in the comonotone form,
    where distortion measures are additive, and as convexity along quantile
    mixtures.  The exact axioms hold to 1e-8 relative.
    """
    sv = as_order(s).s
    if not a > 0.0:
        raise DomainError("scale must be positive")
    report = {"s": sv, "a": a, "b": b}

    families = (("delta", risk_delta), ("nabla", risk_nabla))
    at_d1, at_d2 = {}, {}  # each family's value at d1 and d2, formed once
    for fam, fn in families:
        base = at_d1[fam] = fn(d1, sv).value
        moved = fn(affine(d1, a, b), sv).value
        report[f"affine_{fam}_lhs"] = moved
        report[f"affine_{fam}_rhs"] = a * base + b
        report[f"affine_{fam}_ok"] = (abs(moved - (a * base + b))
                                      <= _AXIOM_TOL * max(1.0, abs(moved)))

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
        report[f"monotone_{fam}_ok"] = v1 <= v2 + _AXIOM_TOL * max(1.0, abs(v2))
        report[f"monotone_{fam}_pair"] = (v1, v2)

    # comonotone additivity: Y = 2X, so X + Y = 3X
    for fam, fn in families:
        lhs = fn(affine(d1, 3.0, 0.0), sv).value
        rhs = at_d1[fam] + fn(affine(d1, 2.0, 0.0), sv).value
        report[f"comonotone_{fam}_ok"] = abs(lhs - rhs) <= _AXIOM_TOL * max(1.0, abs(lhs))

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
    """Expected n-th failure time of the relevation process: E[T_n] is the
    Wang risk of X under H_tilde_{n-1}(t) = t sum_{k<n} (-log t)^k / k!."""
    if n < 1 or n != int(n):
        raise DomainError(f"unit count must be a positive integer, got {n}")
    if d.support[0] < -1e-12:
        raise DomainError("relevation lifetimes need nonnegative support")
    val, err = _wang(d, _log_pair(_h_tilde_core, int(n) - 1), "H_tilde_n")
    return RiskValue(val, err + 1e-10 * max(1.0, val), "relevation_n")
