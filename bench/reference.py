"""Reference values computed apart from ctent.

Everything here uses ``scipy.special`` and ``scipy.integrate`` directly and
never calls into ctent, so a fault in ctent's special functions, closed
forms or quadrature routes cannot hide behind a matching reference.

Two identities carry the x-space and quantile-space references:

* delta_s(X) = int F (1 - F^s)/s dx;
* nabla_s(X) = int_0^1 w_s(t) Psi(q(t)) dt with
  w_s(t) = (1 - (1-t)^{s+1}) / t^2 and Psi(y) = int_{-inf}^y F(x) dx,
  which follows from the quantile-space kernel of the dual by exchanging
  the order of integration.  For the Gumbel law Psi(q(t)) = E1(-log t); for
  the normal law Psi(y) = y Phi(y) + phi(y).
"""

from __future__ import annotations

import math

from scipy import integrate
from scipy import special as sp

EULER = 0.5772156649015329
SYM_BOUND_0 = math.pi / (2.0 * math.sqrt(3.0))
# constants stated in the paper
RHO_NEGATIVE_EXPONENTIAL = -0.365952
RHO_EXPONENTIAL = 0.389592
GAP_ARGMAX, GAP_MAX, GAP_ROOT = 0.4671, 0.0172, -1.6609
GAUSSIAN_CUMULATIVE_ENTROPY = 0.9033


def quad(f, a, b):
    return integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]


def _nabla_from_psi(s: float, psi_of_q) -> float:
    def f(t):
        return -math.expm1((s + 1.0) * math.log1p(-t)) / (t * t) * psi_of_q(t)

    return quad(f, 0.0, 0.5) + quad(f, 0.5, 1.0)


# ---------------------------------------------------------------------------
# closed forms of the catalog laws the paper tabulates

def exponential(s: float) -> tuple:
    if s == 0.0:
        delta = float(sp.polygamma(1, 2.0))
    else:
        delta = float((sp.digamma(s + 2.0) - sp.digamma(2.0)) / s)
    return delta, float((s + 1.0) * sp.polygamma(1, s + 2.0))


def negative_exponential(s: float) -> tuple:
    return 1.0 / (s + 1.0), float(sp.digamma(s + 2.0) + EULER)


def logistic(s: float) -> tuple:
    if s == 0.0:
        delta = math.pi ** 2 / 6.0
    else:
        delta = float((sp.digamma(s + 1.0) + EULER) / s)
    nabla = EULER + sp.digamma(s + 2.0) + (s + 1.0) * sp.polygamma(1, s + 2.0)
    return delta, float(nabla)


def gumbel(s: float) -> tuple:
    delta = 1.0 if s == 0.0 else math.log1p(s) / s
    return delta, _nabla_from_psi(s, lambda t: float(sp.exp1(-math.log(t))))


def power_uniform(beta: float, s: float) -> tuple:
    """Law of U^(1/beta); beta = 1 is the unit uniform."""
    delta = beta / ((beta + 1.0) * (beta * (1.0 + s) + 1.0))
    lg = sp.gammaln(1.0 / beta + 1.0) + sp.gammaln(s + 2.0) - sp.gammaln(1.0 / beta + s + 2.0)
    return delta, float(-(beta / (beta + 1.0)) * math.expm1(lg))


def reflected_power(beta: float, s: float) -> tuple:
    """Law of 1 - U^(1/beta), the mirror of power_uniform up to a shift."""
    c = 1.0 / beta + 2.0
    if s == 0.0:
        delta = beta / (beta + 1.0) * float(sp.digamma(c) - sp.digamma(2.0))
    else:
        lg = sp.gammaln(c) + sp.gammaln(s + 2.0) - sp.gammaln(c + s)
        delta = -(beta / (s * (beta + 1.0))) * math.expm1(lg)
    nabla = beta * (s + 1.0) * (sp.digamma(c + s) - sp.digamma(s + 2.0)) / (beta + 1.0)
    return float(delta), float(nabla)


def uniform(length: float, s: float) -> tuple:
    return length / (2.0 * (s + 2.0)), length * (s + 1.0) / (2.0 * (s + 2.0))


def lomax(beta: float, s: float) -> tuple:
    c = 2.0 - 1.0 / beta
    if s == 0.0:
        delta = beta / (beta - 1.0) * float(sp.digamma(2.0) - sp.digamma(c))
    else:
        lg = sp.gammaln(c) + sp.gammaln(s + 2.0) - sp.gammaln(c + s)
        delta = beta / (s * (beta - 1.0)) * math.expm1(lg)
    nabla = beta * (s + 1.0) * (sp.digamma(s + 2.0) - sp.digamma(s + 2.0 - 1.0 / beta)) / (beta - 1.0)
    return float(delta), float(nabla)


def uniform_risk(a: float, length: float, s: float) -> tuple:
    """The paper's closed risk values of the uniform law on (a, a+length)."""
    return (a + length * (s + 3.0) / (2.0 * (s + 2.0)),
            a + length * (2.0 * s + 3.0) / (2.0 * (s + 2.0)))


# ---------------------------------------------------------------------------
# the normal law and the symmetric range bound

def normal(s: float) -> tuple:
    def fd(x):
        lf = float(sp.log_ndtr(x))
        if s == 0.0:
            return -math.exp(lf) * lf
        return -math.exp(lf) * math.expm1(s * lf) / s

    def psi_of_q(t):
        y = float(sp.ndtri(t))
        return t * y + math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)

    delta = quad(fd, -40.0, 0.0) + quad(fd, 0.0, 40.0)
    return delta, _nabla_from_psi(s, psi_of_q)


def symmetric_bound(s: float) -> float:
    """Upper bound of delta_s / sigma over symmetric laws (s > -1/2)."""
    if s == 0.0:
        return SYM_BOUND_0
    u = 2.0 * sp.gammaln(s + 1.0) - sp.gammaln(2.0 * s + 1.0)
    return (s + 1.0) / math.sqrt(2.0 * s * s * (2.0 * s + 1.0)) * math.sqrt(-math.expm1(u))


def s_logistic_std(shape: float, beta: float) -> float:
    """Standard deviation of eps |(1-U)^a - U^a|^(1/beta), a = shape."""
    def f(u):
        return abs(u ** shape - (1.0 - u) ** shape) ** (2.0 / beta)

    return math.sqrt(quad(f, 0.0, 0.5) + quad(f, 0.5, 1.0))


def duality_pmf(s: float, k: int) -> float:
    """(1+s) (-s)_k / (k+1)!, the law of the randomisation count N_s."""
    return float((1.0 + s) * sp.poch(-s, k) / math.factorial(k + 1))


def gamma_gap(s: float) -> float:
    """Gamma(s+2)^2 / Gamma(2s+1) - 1 - 2s + s^2 for s > -1/2."""
    return math.exp(2.0 * sp.gammaln(s + 2.0) - sp.gammaln(2.0 * s + 1.0)) - 1.0 - 2.0 * s + s * s
