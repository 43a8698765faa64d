"""The Pochhammer-ratio series of the duality theorem, summed in one place.

The coefficients a_n = (-s)_n / (n+1)!, n >= 0, decay like n^{-(2+s)} /
Gamma(-s); their mass from m on is b_m = Gamma(m-s) / ((1+s) Gamma(-s)
Gamma(m+1)), since a_n = b_n - b_{n+1}.  :func:`_dual_series` sums
v(0) + sum_{n>=1} a_n v(n) over an array of orders, for the closed duals and
for ``duality``'s two series alike: a head of N = ``_HEAD`` terms, then the
integral of the coefficient density f (:func:`coefficient_density`) times v
at real orders from x0 = N + 1/2, the midpoint rule, plus the Euler-Maclaurin
terms f'(x0)/24 - 7 f'''(x0)/5760 (:func:`_em_tail`).  One tanh-sinh rule in
y = x0/x integrates every order at once, and an order whose integral does
not converge raises :class:`NonIntegrableError`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import tanhsinh
from scipy.special import poch, rgamma

from .errors import NonIntegrableError

__all__ = [
    "pochhammer_ratio_coeffs",
    "pochhammer_ratio_tail",
    "sign_fix_index",
]

# relative accuracy the closed forms promise: 1e-10 * max(1, |value|)
CLOSED_BOUND = 1e-10
_EPS = 2.220446049250313e-16
# smallest y fed to the tail integrand, so that x = (N + 1/2)/y stays finite
_Y_FLOOR = 1e-300
# the tail integral's tolerances: a converged integral is within either
_ATOL, _RTOL = 1e-15, 1e-12
_HEAD = 1000
# orders summed together, so that one (orders x head) temporary is at most 2 MiB
_ROWS = max(1, (1 << 18) // _HEAD)


def pochhammer_ratio_coeffs(s: float, n_max: int) -> np.ndarray:
    """Array of (-s)_n/(n+1)! for n = 0 .. n_max (inclusive)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max:
        n = np.arange(1, n_max + 1, dtype=float)
        # ratio a_n / a_{n-1} = (n - 1 - s)/(n + 1)
        out[1:] = np.cumprod((n - 1.0 - s) / (n + 1.0))
    return out


def sign_fix_index(s: float) -> int:
    """Index from which the coefficients (-s)_n/(n+1)! keep a constant sign."""
    return max(1, int(math.ceil(max(s, 0.0))) + 1)


def coefficient_density(x, s, g: Callable[[np.ndarray], np.ndarray] | None = None):
    """f(x) = Gamma(x-s)/(Gamma(-s) Gamma(x+2)) g(x) elementwise; g defaults to 1."""
    f = poch(x + 2.0, -s - 2.0) * rgamma(-s)
    return f if g is None else f * g(x)


def pochhammer_ratio_tail(s, n_from: int,
                          g: Callable[[np.ndarray], np.ndarray] | None = None,
                          n_to: float = math.inf):
    """Approximate sum_{n_from < n <= n_to} (-s)_n/(n+1)! * g(n) by the
    integral of the coefficient density from n_from + 1/2 to n_to + 1/2, for
    one order or for each order of an array.

    ``g`` must be smooth, slowly varying and elementwise (defaults to 1).
    For integer s >= 0 the series terminates, and 1/Gamma(-s) makes the
    tail exactly zero.  A converged integral is within 1e-15 or 1e-12 of
    its value.
    """
    orders = np.asarray(s, dtype=float)
    x0 = n_from + 0.5

    def integrand(y, s):
        # integral of f(x) dx from x0 on, with x = x0/y, dx = x^2/x0 dy; the factors
        # are applied in an order that does not overflow as y -> 0
        x = x0 / np.maximum(y, _Y_FLOOR)
        return coefficient_density(x, s, g) * x * (x / x0)

    with np.errstate(all="ignore"):
        r = tanhsinh(integrand, x0 / (n_to + 0.5), 1.0, args=(orders,), atol=_ATOL, rtol=_RTOL)
    status = np.atleast_1d(r.status)
    if np.any(status != 0):
        i = int(np.flatnonzero(status)[0])
        raise NonIntegrableError(
            f"the Pochhammer-ratio tail integral at order s={np.atleast_1d(orders)[i]:g} "
            f"did not converge (tanh-sinh status {int(status[i])})")
    return float(r.integral) if orders.ndim == 0 else r.integral


def _tails(orders: np.ndarray, n_from: int, g: Callable, n_to: float) -> np.ndarray:
    # pochhammer_ratio_tail over the orders, NaN at an order whose integral
    # does not converge: a refused call is split in halves
    try:
        return np.atleast_1d(pochhammer_ratio_tail(orders, n_from, g, n_to))
    except NonIntegrableError:
        if orders.size == 1:
            return np.array([math.nan])
        h = orders.size // 2
        return np.concatenate([_tails(orders[:h], n_from, g, n_to),
                               _tails(orders[h:], n_from, g, n_to)])


def _em_tail(orders: np.ndarray, n_from: int, g: Callable, n_to: float) -> tuple:
    """(tail, error) of sum_{n_from < n <= n_to} a_n g(n) for each order: the
    tail integral with its Euler-Maclaurin corrections at x0 = n_from + 1/2,
    f'(x0)/24 - 7 f'''(x0)/5760, whose derivatives are central differences at
    x0 +- h, x0 +- 2h, h = x0/20.  The error is the integral's tolerance plus
    the size of the last correction; an order whose integral does not
    converge has a NaN tail."""
    x0 = n_from + 0.5
    h = 0.05 * x0
    f = coefficient_density(x0 + h * np.array([[-2.0], [-1.0], [1.0], [2.0]]), orders, g)
    d1 = (8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h)
    d3 = (f[3] - 2.0 * f[2] + 2.0 * f[1] - f[0]) / (2.0 * h ** 3)
    tail = _tails(orders, n_from, g, n_to)
    err = _ATOL + _RTOL * np.abs(tail) + np.abs(7.0 * d3 / 5760.0)
    return tail + d1 / 24.0 - 7.0 * d3 / 5760.0, err


def _dual_series(s, g: Callable[[np.ndarray], np.ndarray], v0: float = 1.0,
                 n_to: float = math.inf) -> tuple:
    """(total, error) of v0 + sum_{n>=1} (-s)_n/(n+1)! v(n) for each order of
    s, with v(n) = g(n) elementwise at real n >= 1: a head of N = ``_HEAD``
    terms, then the Euler-Maclaurin-corrected tail (:func:`_em_tail`).

    The head's alternating terms, those below ``sign_fix_index(s)``, are
    summed by ``math.fsum``; the rest keep one sign.  For large s they reach
    ~C(s, s/2), each carrying a rounding error of a few eps of its magnitude;
    an order where that exceeds ``CLOSED_BOUND`` of its total, or whose head
    overflows, is refused before its tail is formed, and so is an order whose
    tail integral does not converge: it is NaN in an array, and a single order
    raises :class:`NonIntegrableError`.  That rule refuses every order whose
    terms still alternate past N: the head is never extended.

    A finite ``n_to`` ends the tail integral there, for a v that is
    nonnegative and nonincreasing: the rest is bounded by v(n_to + 1) times
    the coefficients' mass beyond n_to, which joins the error.  The error
    also counts the head's rounding, 8 eps times the sum of its terms' sizes.
    """
    orders = np.atleast_1d(s)
    # integer orders s >= 0 terminate: their head is the whole series
    terminating = (orders >= 0.0) & (orders == np.floor(orders))
    total = np.empty(orders.shape)
    size = np.empty(orders.shape)
    n = np.arange(1, _HEAD + 1, dtype=float)
    gn = g(n)
    for lo in range(0, orders.size, _ROWS):
        blk = orders[lo:lo + _ROWS]
        terms = np.cumprod((n - 1.0 - blk[:, None]) / (n + 1.0), axis=1) * gn
        size[lo:lo + blk.size] = abs(v0) + np.sum(np.abs(terms), axis=1)
        rough = np.abs(v0 + np.sum(terms, axis=1)).tolist()  # off by at most _HEAD eps size
        for i, (row, order, r) in enumerate(zip(terms, blk.tolist(), rough), start=lo):
            k = sign_fix_index(order) - 1
            # a head that overflows, or that the bound refuses on its rough sum, is not fsummed
            total[i] = (math.fsum([v0, *row[:k].tolist(), float(np.sum(row[k:]))])
                        if 4.0 * _EPS * size[i] < CLOSED_BOUND * r else math.nan)
    refused = ~(8.0 * _EPS * size <= CLOSED_BOUND * np.abs(total))
    err = 8.0 * _EPS * size
    tailed = ~refused & ~terminating
    if tailed.any():
        o = orders[tailed]
        tail, tail_err = _em_tail(o, _HEAD, g, n_to)
        total[tailed] += tail
        err[tailed] += tail_err
        if math.isfinite(n_to):
            # sum_{n > n_to} a_n = b_{n_to + 1}, one-signed past sign_fix_index
            mass = poch(n_to + 2.0, -o - 1.0) * rgamma(-o) / (1.0 + o)
            err[tailed] += np.abs(g(np.array([n_to + 1.0])) * mass)
    total[refused] = np.nan
    if np.ndim(s) == 0 and math.isnan(total[0]):
        why = ("its head's rounding exceeds the closed-form bound" if refused[0]
               else "its tail integral did not converge")
        raise NonIntegrableError(f"the duality series at order s={float(s):g}, from terms of "
                                 f"total size {size[0]:.3g}: {why}")
    return total.reshape(np.shape(s)), err.reshape(np.shape(s))
