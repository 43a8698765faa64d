"""Internal helpers for the Pochhammer-ratio series used throughout.

The coefficient family is a_n = (-s)_n / (n+1)!, n >= 0, which decays like
n^{-(2+s)} / Gamma(-s).  A head-sum over n <= N is completed by the integral
from x0 = N + 1/2 of the coefficient density f (:func:`coefficient_density`):
the tail sum is that midpoint-rule integral plus the Euler-Maclaurin terms
f'(x0)/24 - 7 f'''(x0)/5760 + ..., which a caller adds for more digits.  The
integral is vectorised over orders: one tanh-sinh rule in y = x0/x integrates
every order at once, and an order whose integral does not converge raises
:class:`NonIntegrableError`.
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

# smallest y fed to the tail integrand, so that x = (N + 1/2)/y stays finite
_Y_FLOOR = 1e-300


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
                          g: Callable[[np.ndarray], np.ndarray] | None = None):
    """Approximate sum_{n > n_from} (-s)_n/(n+1)! * g(n) by a tail integral,
    for one order or for each order of an array.

    ``g`` must be smooth, slowly varying and elementwise (defaults to 1).
    For integer s >= 0 the series terminates, and 1/Gamma(-s) makes the
    tail exactly zero.
    """
    orders = np.asarray(s, dtype=float)
    x0 = n_from + 0.5

    def integrand(y, s):
        # integral_{x0}^inf f(x) dx with x = x0/y, dx = x^2/x0 dy; the factors
        # are applied in an order that does not overflow as y -> 0
        x = x0 / np.maximum(y, _Y_FLOOR)
        return coefficient_density(x, s, g) * x * (x / x0)

    with np.errstate(all="ignore"):
        r = tanhsinh(integrand, 0.0, 1.0, args=(orders,), atol=1e-15, rtol=1e-12)
    status = np.atleast_1d(r.status)
    if np.any(status != 0):
        i = int(np.flatnonzero(status)[0])
        raise NonIntegrableError(
            f"the Pochhammer-ratio tail integral at order s={np.atleast_1d(orders)[i]:g} "
            f"did not converge (tanh-sinh status {int(status[i])})")
    return float(r.integral) if orders.ndim == 0 else r.integral
