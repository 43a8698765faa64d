"""Skewness maps and parameters built from the entropy/dual-entropy ratios.

diamond(s)     = nabla_s(X) / delta_s(-X)
diamond_bar(s) = nabla_s(-X) / delta_s(X)

Both maps increase from 0 to infinity on (-1, inf) whenever delta_0 of
both X and -X are finite, so the parameters

    rho      = inf{ s > -1 : diamond(s) > 1 }
    rho_bar  = inf{ s > -1 : diamond_bar(s) > 1 }

are well defined; they vanish together exactly when delta_0(X) equals
delta_0(-X) (e.g. for laws symmetric about the mean), and rho_bar(X)
coincides with rho(-X).  Where a ratio's denominator is infinite the map
takes the value 0 (the monotone extension used for the infimum), which
produces the possible single jump on (-1, 0].

``rho`` brackets the crossing by quadrupling s from 1 and then finds it by
Brent's method (``scipy.optimize.brentq``) on min(ratio, 2) - 1, whose
clamp keeps an infinite ratio out of the interpolation; the result is
within ``tol`` of the crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .distributions import (
    DistributionSpec,
    make_negative_lomax,
    make_power_uniform,
    negate,
)
from .entropy import _divergent, as_order, delta_value, nabla_value
from .errors import DomainError, NonIntegrableError, NotBracketedError
from .specfun import _real

_S_HI_CAP = 1e4


@dataclass(frozen=True)
class SkewnessCurve:
    """A sampled curve: (x, value) pairs plus an optional unit-crossing."""

    kind: str
    values: tuple
    root: float | None = None


def diamond(d: DistributionSpec, s, kind: str = "diamond") -> float:
    """Entropy-ratio skewness map at order s; inf when the numerator
    diverges, 0 when the denominator does.  A denominator that underflows to
    0 raises :class:`NonIntegrableError`."""
    sv = as_order(s).s
    if kind not in ("diamond", "diamond_bar"):
        raise DomainError(f"kind must be 'diamond' or 'diamond_bar', got {kind!r}")
    if kind == "diamond_bar":  # diamond_bar(X) = diamond(-X)
        d = negate(d)
    num = nabla_value(d, sv)
    den = delta_value(negate(d), sv)
    if not num.is_finite:
        return math.inf
    if not den.is_finite:
        return 0.0
    if den.value == 0.0:
        raise NonIntegrableError(f"the diamond denominator of {d.label()} at s={sv:g} is 0")
    return num.value / den.value


def rho(d: DistributionSpec, kind: str = "rho", tol: float = 1e-8) -> float:
    """inf{s > -1 : ratio(s) > 1}, by Brent's method to within ``tol``.

    Returns 0 exactly when delta_0(X) and delta_0(-X) agree within their
    combined error bounds (the symmetric shortcut).  Raises
    NotBracketedError when the ratio never exceeds 1 up to the search cap.
    """
    if kind not in ("rho", "rho_bar"):
        raise DomainError(f"kind must be 'rho' or 'rho_bar', got {kind!r}")
    tol = _real(tol, 0.0, "tol")
    if kind == "rho_bar":  # rho_bar(X) = rho(-X)
        d = negate(d)
    d0 = delta_value(d, 0.0)
    d0m = delta_value(negate(d), 0.0)
    if d0.is_finite and d0m.is_finite:
        slack = d0.abs_error_bound + d0m.abs_error_bound + 1e-12
        if abs(d0.value - d0m.value) <= slack:
            return 0.0

    lo = -1.0 + 1e-9
    if _divergent(d, "nabla", np.array(lo)):  # no mean: an infinite ratio from lo on
        return lo

    def excess(s: float) -> float:
        # clamped, so that an infinite ratio stays out of the interpolation; at lo the
        # dual vanishes and the mirrored entropy does not, so it is -1 unevaluated
        return -1.0 if s == lo else min(diamond(d, s), 2.0) - 1.0

    hi = 1.0
    while not excess(hi) > 0.0:
        hi *= 4.0
        if hi > _S_HI_CAP:
            raise NotBracketedError(
                f"skewness ratio stayed at or below 1 up to s = {_S_HI_CAP:g}")
    return brentq(excess, lo, hi, xtol=tol)


def diamond_curve(d: DistributionSpec, s_grid: Sequence[float]) -> SkewnessCurve:
    """Sample the diamond map on a grid, attaching the unit-crossing root rho.
    The mirrored map is ``diamond_curve(negate(d), s_grid)``, since
    diamond_bar(X) = diamond(-X)."""
    vals = tuple((float(s), diamond(d, s)) for s in s_grid)
    try:
        root = rho(d)
    except NotBracketedError:
        root = None
    return SkewnessCurve("diamond", vals, root)


def rho_curve_power_uniform(kind: str, betas: Sequence[float]) -> SkewnessCurve:
    """The skewness parameter of U^(1/beta) along a beta grid (decreasing in
    beta for rho, increasing for rho_bar)."""
    pts = []
    for b in betas:
        pts.append((float(b), rho(make_power_uniform(float(b)), kind)))
    return SkewnessCurve(kind, tuple(pts))


def rho_curve_negative_lomax(kind: str, betas: Sequence[float]) -> SkewnessCurve:
    """The skewness parameter of the negative-Lomax family along beta > 1
    (increasing for rho, decreasing for rho_bar).  Points too close to
    beta = 1 where the ratio stays below 1 up to the cap are reported as
    the limiting value -1."""
    pts = []
    for b in betas:
        try:
            val = rho(make_negative_lomax(float(b)), kind)
        except NotBracketedError:
            val = -1.0
        pts.append((float(b), val))
    return SkewnessCurve(kind, tuple(pts))


def rho_range_proposition_check(d: DistributionSpec) -> dict:
    """Compute delta_0, its mirror, both skewness parameters, and check the
    bracket pattern implied by the sign of delta_0(X) - delta_0(-X)."""
    d0 = delta_value(d, 0.0).value
    d0m = delta_value(negate(d), 0.0).value
    r = rho(d)
    rb = rho(d, "rho_bar")
    slack = 1e-9 * max(1.0, abs(d0), abs(d0m))
    if abs(d0 - d0m) <= slack:
        case = "symmetric"
        ok = abs(r) < 1e-6 and abs(rb) < 1e-6
    elif d0 > d0m:
        case = "delta0_greater"
        ok = (-1.0 < r <= 1e-9) and (0.0 < rb < 1.0)
    else:
        case = "delta0_smaller"
        ok = (-1.0 < rb <= 1e-9) and (0.0 < r < 1.0)
    return {"delta0": d0, "delta0_mirror": d0m, "rho": r, "rho_bar": rb,
            "case": case, "bracket_ok": ok}
