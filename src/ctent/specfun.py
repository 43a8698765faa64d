"""Special functions with the package's domain checks.

Log-gamma, digamma and the polygammas of orders 1-3, Pochhammer symbols
and gamma ratios, all in double precision.  The values come from
``math.lgamma`` and from scipy's digamma and Hurwitz zeta,
psi^(m)(x) = (-1)^(m+1) m! zeta(m+1, x); this module adds the domain
checks.

Public entry points return a :class:`SpecialValue` carrying a conservative
absolute error bound.  The bare-float helpers ``lgamma`` and ``psi`` are
what the rest of the package calls; ``psi1``, ``psi2`` and ``psi3`` are
public, domain-checked wrappers of scipy's zeta that no other module
calls (the near-zero order branches call ``zeta`` directly).

The package checks its arguments here, one helper per kind: ``_count`` for
a count (terms, units, trials, draws), ``_real`` for a finite real above a
floor (an order, a shape).  Each raises :class:`DomainError` naming the
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from scipy.special import poch
from scipy.special import psi as _digamma
from scipy.special import zeta

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606

_EPS = 2.220446049250313e-16


def _count(n, least: int, what: str) -> int:
    """n as an int; :class:`DomainError` unless n is an integer >= least."""
    if not (isinstance(n, Real) and math.isfinite(n) and n >= least and n == int(n)):
        raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def _real(x, low: float, what: str) -> float:
    """x as a float; :class:`DomainError` unless it is finite and exceeds low."""
    x = float(x)
    if not (x > low and math.isfinite(x)):
        raise DomainError(f"{what} must be finite and exceed {low:g}, got {x}")
    return x


@dataclass(frozen=True)
class SpecialValue:
    """A computed value together with a conservative absolute error bound."""

    value: float
    abs_error_bound: float


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0 (bare float)."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # x above ~2.6e305: the value itself exceeds DBL_MAX
        return math.inf


def psi(x: float) -> float:
    """Digamma, defined for every x that is not a nonpositive integer."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"digamma has a pole at {x}")
    return float(_digamma(x))


def psi1(x: float) -> float:
    """Trigamma for x > 0."""
    if x <= 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    return float(zeta(2.0, x))


def psi2(x: float) -> float:
    """Second derivative of digamma for x > 0."""
    if x <= 0.0:
        raise DomainError(f"polygamma(2) requires x > 0, got {x}")
    return float(-2.0 * zeta(3.0, x))


def psi3(x: float) -> float:
    """Third derivative of digamma for x > 0."""
    if x <= 0.0:
        raise DomainError(f"polygamma(3) requires x > 0, got {x}")
    return float(6.0 * zeta(4.0, x))


def gamma_negative(s: float) -> float:
    """Gamma(-s) for non-integer s > -1, via the reflection formula.

    For s in (-1, 0) the argument is positive and the value is direct; for
    s > 0 it alternates sign with each unit interval.
    """
    if s < 0.0:
        return math.exp(lgamma(-s))
    if s == math.floor(s):
        raise DomainError(f"Gamma(-s) has a pole at integer s = {s}")
    # Gamma(-s) Gamma(1+s) = -pi / sin(pi s)
    return -math.pi / (math.sin(math.pi * s) * math.exp(lgamma(1.0 + s)))


def log_gamma(x: float) -> SpecialValue:
    """log Gamma(x), x > 0, with |error| <= 1e-13 * max(1, |value|)."""
    v = lgamma(x)
    return SpecialValue(v, 8.0 * _EPS * max(1.0, abs(v)) + 1e-15)


def digamma(x: float) -> SpecialValue:
    """Digamma psi(x); matches the defining series to <= 1e-12 absolute."""
    v = psi(x)
    return SpecialValue(v, 8.0 * _EPS * max(1.0, abs(v)) + 1e-15)


def trigamma(x: float) -> SpecialValue:
    """Trigamma psi'(x), x > 0, absolute error <= 1e-12."""
    v = psi1(x)
    return SpecialValue(v, 8.0 * _EPS * max(1.0, abs(v)) + 1e-15)


def gamma_ratio(a: float, b: float) -> SpecialValue:
    """Gamma(a)/Gamma(b) for a, b > 0, relative error <= 1e-12."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"gamma_ratio requires positive arguments, got ({a}, {b})")
    la, lb = lgamma(a), lgamma(b)
    v = math.exp(la - lb)
    bound = abs(v) * (16.0 * _EPS * (1.0 + abs(la) + abs(lb))) + 5e-300
    return SpecialValue(v, bound)


def pochhammer(x: float, n: int) -> float:
    """Ascending factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1.

    A zero factor gives exactly 0.
    """
    return float(poch(x, _count(n, 0, "pochhammer's n")))
