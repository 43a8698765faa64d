"""Series transforms between the entropy and its dual.

The two directions share the coefficient family

    c_n = (1+s) (-s)_n / (n+1)!,   n >= 0,   sum_n c_n = 1,

which for s in (-1,0) is the probability mass function of a beta negative
binomial variable (a geometric randomised by a Beta(-s, 1+s) parameter).

Each direction is one call of ``series._dual_series``, the closed duals'
summer, with v_n = delta_n or nabla_n from the entropy evaluator at real
orders: one call for the 1 000-term head, one per tanh-sinh step of the tail
integral.  Its error (head rounding, the integral's tolerance, the last
Euler-Maclaurin term) must meet ``tol``, else :class:`TruncationNotConverged`;
the bound adds 1e-10 of the value for v's own accuracy.  An order whose head
rounds beyond 1e-10 of its value (s above ~12-17 on the catalog laws) raises
:class:`NonIntegrableError`.  Far out v loses its digits, so the tail of a
nonnegative nonincreasing v ends at a finite n, with v there times the
coefficients' mass beyond in the bound: delta_n at ``_DELTA_END`` and, for a
law bounded below, M - nabla_n (M = E[X] - min X, summed as
M - sum_n c_n (M - nabla_n)) at ``_M_FORM_END``.  A law unbounded below sums
nabla_n (~log n) to the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, gammasgn, poch, rgamma

from .distributions import DistributionSpec, dist_mean
from .entropy import EntropyValue, _divergent, _entropy_values, _evaluate, as_order, delta_value
from .errors import DivergentEntropy, DomainError, TruncationNotConverged
from .series import CLOSED_BOUND, _HEAD, _dual_series, pochhammer_ratio_coeffs
from .specfun import _count, _real

# where the tail integrals of v = delta_n and of v = M - nabla_n end: delta's
# closed forms keep ~4 digits at n = 1e10 (eps * lgamma(n) ~ 5e-5), and a
# Lomax's n (psi(n + 2) - psi(n + 2 - 1/beta)) keeps ~6 at n = 1e6
_DELTA_END, _M_FORM_END = 10 ** 10, 10 ** 6


@dataclass(frozen=True)
class SeriesTransform:
    """The coefficient family of the duality series at order s."""

    s: float
    coefficients: np.ndarray
    truncation_n: int
    tail_bound: float

    @classmethod
    def build(cls, s: float, truncation_n: int) -> "SeriesTransform":
        s = as_order(s).s
        c = (1.0 + s) * pochhammer_ratio_coeffs(s, _count(truncation_n, 0, "truncation_n"))
        # sum_{n > N} c_n = c_N (N - s)/(1 + s), from a_n = b_n - b_{n+1} and b_n =
        # a_n (n + 1)/(1 + s) (see ``series``); the product's c_N drifts from N ~ 1e4
        last = c[-1] if truncation_n < 10_000 else duality_coefficient(s, truncation_n)
        return cls(s, c, truncation_n, abs(float(last) * (truncation_n - s) / (1.0 + s)))


def duality_coefficient(s: float, n: int) -> float:
    """c_n = (1+s)(-s)_n/(n+1)! for a single n: a product of ratios below
    n = 60, then one signed log-gamma, or from n = 1e4 (1+s) ``poch``(n+2,
    -s-2) ``rgamma``(-s) where that is finite and nonzero (not from s ~ 170)."""
    s, n = as_order(s).s, _count(n, 0, "n")
    terminating = s >= 0.0 and s == math.floor(s)
    if n < 60 or (terminating and s >= n):  # gammaln has a pole at -s
        return float((1.0 + s) * pochhammer_ratio_coeffs(s, n)[n])
    if terminating:
        return 0.0  # (-s)_n vanishes for n > s
    # (1+s) Gamma(n-s) / (Gamma(-s) Gamma(n+2))
    sign = gammasgn(n - s) * gammasgn(-s)
    with np.errstate(all="ignore"):  # beyond the float range: a signed inf
        c = float((1.0 + s) * poch(n + 2.0, -s - 2.0) * rgamma(-s)) if n >= 10_000 else 0.0
        return c if math.isfinite(c) and c != 0.0 else float(
            (1.0 + s) * sign * np.exp(gammaln(n - s) - gammaln(-s) - gammaln(n + 2.0)))


# ---------------------------------------------------------------------------
# the two series directions

def _entropy_at(d: DistributionSpec, which: str):
    """v(x) = delta or nabla (``which``) of ``d`` at the real orders x of any
    shape, in one call of the entropy evaluator; an order it cannot give raises."""

    def v(x):
        x = np.asarray(x, dtype=float)
        col = _evaluate(d, which, x.ravel())
        if not np.isfinite(col.value).all():
            _entropy_values(d, col)  # raises at a failed integral
            raise DivergentEntropy(f"{which} of {d.label()} is infinite at an order of the series")
        return col.value.reshape(x.shape)

    return v


def _signed_series(s: float, v, v0: float, tol: float, n_to: float = math.inf) -> tuple:
    """(sum_n c_n v_n, its bound, the last index of the head) by
    ``series._dual_series`` with v_0 = ``v0`` and v_n = ``v(n)`` at real n; a
    bound above ``tol`` raises :class:`TruncationNotConverged`.  A finite
    ``n_to`` ends the tail integral there, for a nonnegative nonincreasing v."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing head is refused
        total, err = _dual_series(s, v, v0, n_to)
    val, bound = (1.0 + s) * float(total), (1.0 + s) * float(err)
    if not bound <= tol:
        raise TruncationNotConverged(
            f"the duality series at s={s:g} is within {bound:.3g}, not within tol={tol:g}")
    return val, bound, _HEAD


def nabla_from_delta_series(d: DistributionSpec, s, tol: float = 1e-9) -> EntropyValue:
    """nabla(s) = sum_n c_n delta_n, within ``tol``."""
    sv, tol = as_order(s).s, _real(tol, 0.0, "tol")
    d0 = delta_value(d, 0.0)
    if not d0.is_finite:
        return EntropyValue.make_divergent("series")
    val, bound, _ = _signed_series(sv, _entropy_at(d, "delta"), d0.value, tol, _DELTA_END)
    return EntropyValue(max(val, 0.0), bound + CLOSED_BOUND * max(1.0, abs(val)), "series")


def delta_from_nabla_series(d: DistributionSpec, s, tol: float = 1e-9) -> EntropyValue:
    """delta(s) = sum_n c_n nabla_n, within ``tol``; laws bounded below are
    reformulated as M - sum_n c_n (M - nabla_n), M = E[X] - min X."""
    sv, tol = as_order(s).s, _real(tol, 0.0, "tol")
    if _divergent(d, "delta", np.array([sv]))[0]:
        return EntropyValue.make_divergent("series")
    nabla = _entropy_at(d, "nabla")
    v0 = float(nabla(0.0))
    if math.isfinite(d.support[0]):
        m = dist_mean(d) - d.support[0]
        val, bound, _ = _signed_series(sv, lambda n: m - nabla(n), m - v0, tol, _M_FORM_END)
        out = m - val
    else:
        out, bound, _ = _signed_series(sv, nabla, v0, tol)
    return EntropyValue(max(out, 0.0), bound + CLOSED_BOUND * max(1.0, abs(out)), "series")


# ---------------------------------------------------------------------------
# the randomisation pmf and the finite transform

def bnb_pmf(s: float, n: int) -> float:
    """P[N = n] = (1+s)(-s)_n/(n+1)! for s in (-1,0): the beta negative
    binomial law mixing a geometric through Beta(-s, 1+s)."""
    if not (-1.0 < s < 0.0):
        raise DomainError(f"the randomisation pmf requires s in (-1, 0), got {s}")
    return duality_coefficient(s, n)


def bnb_partial_sum(s: float, n_terms: int) -> tuple:
    """(partial sum over n < n_terms, the sum beyond): the sum beyond is
    :class:`SeriesTransform`'s tail in closed form."""
    if not (-1.0 < s < 0.0):
        raise DomainError(f"requires s in (-1, 0), got {s}")
    tr = SeriesTransform.build(s, _count(n_terms, 1, "n_terms") - 1)
    return float(np.sum(tr.coefficients)), tr.tail_bound


def binomial_involution(v) -> list:
    """Apply the alternating-binomial transform w_j = sum_{n<=j}
    C(j+1, n+1)(-1)^n v_n to a vector; the transform is its own inverse."""
    v = [float(x) for x in v]
    out = []
    for j in range(len(v)):
        acc = math.fsum(
            (-1.0) ** n * math.comb(j + 1, n + 1) * v[n] for n in range(j + 1))
        out.append(acc)
    return out
