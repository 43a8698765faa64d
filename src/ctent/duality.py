"""Series transforms between the entropy and its dual.

The two directions share the coefficient family

    c_n = (1+s) (-s)_n / (n+1)!,   n >= 0,   sum_n c_n = 1,

which for s in (-1,0) is the probability mass function of a beta negative
binomial variable (a geometric randomised by a Beta(-s, 1+s) parameter).
For s > 0 the head alternates in sign up to roughly ceil(s) and then keeps
a constant sign, so after summing the head exactly the remaining tail can
be bounded through |1 - partial sum of c_n| times a monotone envelope of
the entropy sequence.

For a law bounded below, the dual-to-entropy direction is summed as
M - sum_n c_n (M - nabla_n) with M = E[X] - min X, which converges orders
of magnitude faster than the raw series (nabla_n -> M like a power of n).

Both directions are summed in blocks of n: one call of the entropy
evaluator gives a block's delta_n or nabla_n (its closed form, or one
vectorised quantile-space integral), and the coefficients, their running
sum and the per-n tail test are array operations in the order of a
term-by-term loop, so the series stops at the same n.  The blocks start
short, double, and end before a value that is not finite.  A series that
does not reach its tolerance within ``_MAX_TERMS`` terms raises
:class:`TruncationNotConverged`; a closed dual whose vectorised tail
integral (``series.pochhammer_ratio_tail``) does not converge raises
:class:`NonIntegrableError` instead of returning a silenced estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .distributions import DistributionSpec, dist_mean
from .entropy import EntropyValue, _entropy_values, _evaluate, as_order, delta_value
from .errors import DivergentEntropy, DomainError, TruncationNotConverged
from .series import pochhammer_ratio_coeffs, sign_fix_index
from .specfun import gamma_negative, lgamma

_MAX_TERMS = 1_000_000
# the first block is short, so that a series that stops after a few terms
# evaluates few closed-form values; blocks then double up to _MAX_BLOCK
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 15


@dataclass(frozen=True)
class SeriesTransform:
    """The coefficient family of the duality series at order s."""

    s: float
    coefficients: np.ndarray
    truncation_n: int
    tail_bound: float

    @classmethod
    def build(cls, s: float, truncation_n: int) -> "SeriesTransform":
        if not s > -1.0:
            raise DomainError(f"series order must exceed -1, got {s}")
        c = (1.0 + s) * pochhammer_ratio_coeffs(s, truncation_n)
        # sum_n c_n = 1: the unaccounted mass bounds the coefficient tail
        tail = abs(1.0 - float(np.sum(c)))
        return cls(s, c, truncation_n, tail)


def duality_coefficient(s: float, n: int) -> float:
    """c_n = (1+s)(-s)_n/(n+1)! for a single n (log-space for large n)."""
    if n < 60:
        return float((1.0 + s) * pochhammer_ratio_coeffs(s, n)[n])
    if s >= 0.0 and s == math.floor(s):
        return 0.0
    mag = math.exp(lgamma(n - s) - lgamma(n + 2.0)) / gamma_negative(s)
    return (1.0 + s) * mag


# ---------------------------------------------------------------------------
# the two series directions

def _sequence(d: DistributionSpec, which: str):
    """The block source of delta_n or nabla_n: ``block(n0, n1)`` evaluates
    n0 <= n < n1 at once, up to the first non-finite value (raising at n0)."""

    def block(n0: int, n1: int) -> np.ndarray:
        col = _evaluate(d, which, np.arange(n0, n1, dtype=float))
        bad = np.flatnonzero(~np.isfinite(col.value))
        if bad.size == 0:
            return col.value
        if bad[0]:
            return col.value[:bad[0]]
        if col.value[0] == math.inf:
            raise DivergentEntropy(f"{which}_{n0} is infinite")
        _entropy_values(d, col)  # raises: the integral at n0 did not converge

    return block


def _signed_series(s: float, values, tol: float, monotone_bound: bool):
    """Sum c_n * v_n with the pmf-mass tail bound; returns (sum, tail, n)
    with n the last index summed.

    ``values(n0, n1)`` gives v_n for n = n0, n0 + 1, ... below n1 (at least
    one value).  The coefficients, their running sum and the per-n tail
    test are formed block by block, in the same order of operations as a
    term-by-term loop, so the series stops at the same n.  ``values`` must
    be nonnegative; when ``monotone_bound`` the sequence is assumed
    monotone so |tail| <= v_{n+1} * |1 - sum c| applies; otherwise a
    slowly-varying heuristic tail estimate is used.
    """
    fix = sign_fix_index(s)
    blocks = []
    c = 1.0 + s  # c_0
    csum = 0.0
    n0 = 0
    width = _FIRST_BLOCK
    while n0 <= _MAX_TERMS:
        v = values(n0, min(n0 + width, _MAX_TERMS + 1))
        n = np.arange(n0, n0 + v.size, dtype=float)
        ratio = (n - s) / (n + 2.0)  # c_{n+1} / c_n
        coef = np.cumprod(np.concatenate(([c], ratio[:-1])))
        sums = np.cumsum(np.concatenate(([csum], coef)))[1:]
        mass = np.abs(1.0 - sums)
        terms = coef * v
        if monotone_bound:
            tail = mass * np.abs(v)
        else:
            tail = np.abs(terms) * (n + 1.0) / (1.0 + s) * 2.0
        stop = np.flatnonzero((n >= fix) & (tail < tol))
        if stop.size:
            k = int(stop[0])
            blocks.append(terms[:k + 1])
            total = math.fsum(chain.from_iterable(b.tolist() for b in blocks))
            return total, float(tail[k]), n0 + k
        blocks.append(terms)
        c = float(coef[-1] * ratio[-1])
        csum = float(sums[-1])
        n0 += v.size
        width = min(2 * width, _MAX_BLOCK)
    raise TruncationNotConverged(
        f"duality series did not reach tol={tol:g} within {_MAX_TERMS} terms")


def nabla_from_delta_series(d: DistributionSpec, s, tol: float = 1e-9) -> EntropyValue:
    """nabla(s) = sum_n c_n delta_n, truncated with the coefficient-mass
    tail bound (delta_n is nonincreasing)."""
    sv = as_order(s).s
    d0 = delta_value(d, 0.0)
    if not d0.is_finite:
        return EntropyValue.make_divergent("series")
    val, tail, _ = _signed_series(sv, _sequence(d, "delta"), tol, monotone_bound=True)
    return EntropyValue(max(val, 0.0), tail + 1e-12 * max(1.0, abs(val)), "series")


def delta_from_nabla_series(d: DistributionSpec, s, tol: float = 1e-9) -> EntropyValue:
    """delta(s) = sum_n c_n nabla_n; laws bounded below are reformulated as
    M - sum_n c_n (M - nabla_n), M = E[X] - min X, for fast convergence."""
    sv = as_order(s).s
    if d.finiteness_threshold is not None and sv <= d.finiteness_threshold:
        return EntropyValue.make_divergent("series")
    lo = d.support[0]
    seq = _sequence(d, "nabla")
    if math.isfinite(lo):
        m = dist_mean(d) - lo
        val, tail, _ = _signed_series(sv, lambda n0, n1: m - seq(n0, n1), tol,
                                      monotone_bound=True)
        out = m - val
    else:
        out, tail, _ = _signed_series(sv, seq, tol, monotone_bound=False)
    return EntropyValue(max(out, 0.0), tail + 1e-12 * max(1.0, abs(out)), "series")


# ---------------------------------------------------------------------------
# the randomisation pmf and the finite transform

def bnb_pmf(s: float, n: int) -> float:
    """P[N = n] = (1+s)(-s)_n/(n+1)! for s in (-1,0): the beta negative
    binomial law mixing a geometric through Beta(-s, 1+s)."""
    if not (-1.0 < s < 0.0):
        raise DomainError(f"the randomisation pmf requires s in (-1, 0), got {s}")
    if n < 0 or n != int(n):
        raise DomainError(f"pmf index must be a nonnegative integer, got {n}")
    return duality_coefficient(s, int(n))


def bnb_partial_sum(s: float, n_terms: int) -> tuple:
    """(partial sum over n < n_terms, analytic tail estimate).

    The tail estimate integrates the asymptotic coefficient envelope
    (1+s)/(Gamma(-s) n^{2+s}) with its first Stirling correction by a
    midpoint rule, accurate to O(n_terms^{-(3+s)})."""
    if not (-1.0 < s < 0.0):
        raise DomainError(f"requires s in (-1, 0), got {s}")
    c = (1.0 + s) * pochhammer_ratio_coeffs(s, n_terms - 1)
    partial = float(np.sum(c))
    p = 2.0 + s
    n0 = n_terms - 0.5  # midpoint rule for sum_{n >= n_terms}
    lead = n0 ** (1.0 - p) / (p - 1.0)
    corr = -0.5 * p * (1.0 - s) * n0 ** (-p) / p  # from Gamma-ratio expansion
    tail = (1.0 + s) / gamma_negative(s) * (lead + corr)
    return partial, tail


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
