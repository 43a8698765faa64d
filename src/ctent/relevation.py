"""Monte Carlo simulators for the relevation-type reliability models.

A first unit with lifetime X (nonnegative support) is followed by a second
unit whose conditional survival given X = x is Fbar(x)^s * Fbar(x+t)/Fbar(x):
with probability 1 - Fbar(x)^s the second unit is dead on arrival, and a
surviving unit ages from x.  The total lifetime X + Y_s has survival
Fbar(t)(1 + (1 - Fbar(t)^s)/s), and E[Y_s] equals the entropy of the
mirrored law, which is what the z-score targets check.

Every lifetime is drawn through its survival probability: v = 1 - U, with
U the generator's uniform, is exact in (0, 1], and x = q(1 - v, v) has
Fbar(x) = v with no sf call.  A unit that ages from x survives to its
residual survival w = v V, V another such uniform, so the second unit is
q(1 - w, w) and the n-th failure time T_n of the relevation process is
q at the product of n uniform survivals: one quantile call per chunk.  A
law built by :func:`from_quantile` reads only u, which rounds to 1 below a
survival of 2^-53, unless its record carries its own q(u, v), as the
s-Logistic's and ``risk._quantile_mixture``'s do; a trial that uses such a
draw raises :class:`NonIntegrableError`.

Trials are partitioned into fixed-size chunks, each driven by a generator
stream spawned deterministically from (seed, chunk index); merging is by
sums, so results are bit-identical for a given seed regardless of how many
workers process the chunks (CTENT_THREADS caps the pool).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, negate
from .entropy import delta_value
from .errors import DomainError, NonIntegrableError
from .risk import _check_nonneg_support, make_distortion, relevation_risk
from .series import pochhammer_ratio_coeffs
from .specfun import _count, _real

_CHUNK = 1 << 17
# how a refusal names the trial count n: a mean with a standard error needs two
_TRIALS = "need at least one trial: n"
_SE_TRIALS = "need at least 2 trials for a standard error: n"


@dataclass(frozen=True)
class SimulationResult:
    n_trials: int
    mean: float
    std_error: float
    target: float | None
    z_score: float | None


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("CTENT_THREADS", "1")))
    except ValueError:
        return 1


def _chunk_streams(seed: int, n: int):
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(n_chunks)
    sizes = [_CHUNK] * (n_chunks - 1) + [n - _CHUNK * (n_chunks - 1)]
    return list(zip(children, sizes))


def _run_chunks(fn, seed: int, n: int):
    """Map fn(rng, size) over deterministic chunk streams; reduce in chunk
    order so the worker count never changes the result."""
    chunks = _chunk_streams(seed, n)
    workers = min(_worker_count(), len(chunks))
    if workers == 1:
        return [fn(np.random.default_rng(c), m) for c, m in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, np.random.default_rng(c), m) for c, m in chunks]
        return [f.result() for f in futures]


def _survivals(rng, m: int) -> np.ndarray:
    # 1 - U in (0, 1], exact, formed in place over the draw U
    v = rng.random(m)
    return np.subtract(1.0, v, out=v)


def _used(d: DistributionSpec, t: np.ndarray, what: str) -> np.ndarray:
    """t, the lifetimes the trials use, refused where one is NaN: a law
    built by :func:`from_quantile` cannot read a survival below 2^-53."""
    if np.isnan(t).any():
        raise NonIntegrableError(
            f"{what} of {d.label()} has a survival below 2^-53, which its quantile, "
            f"read at u = 1 - v, cannot resolve")
    return t


def _mean_se(draw, seed: int, n: int) -> tuple:
    """Mean and standard error of the values draw(rng, size) returns over n
    trials, from per-chunk sums merged in chunk order."""

    def sums(rng, m):
        y = draw(rng, m)
        return float(np.sum(y)), float(np.sum(y * y))

    parts = _run_chunks(sums, seed, n)
    tot = math.fsum(p[0] for p in parts)
    tot2 = math.fsum(p[1] for p in parts)
    var = max(tot2 - tot * tot / n, 0.0) / (n - 1)
    return tot / n, math.sqrt(var / n)


def _draw_ys(d: DistributionSpec, s: float, rng, m: int):
    """One chunk of (x, y) pairs for the prior-failure relevation model:
    the first unit at survival v, the second alive with probability v^s
    and then at survival v v2."""
    v = _survivals(rng, m)
    x = np.asarray(d.quantile(1.0 - v, v), dtype=float)
    alive = rng.random(m) < v ** s
    w = _survivals(rng, m)
    w *= v
    y = np.asarray(d.quantile(1.0 - w, w), dtype=float) - x
    y *= alive  # 0 where the second unit is dead on arrival, but NaN stays NaN
    if np.isnan(y).any():
        y = _used(d, np.where(alive, y, 0.0), "the second unit")
    return x, y


def simulate_Ys(d: DistributionSpec, s: float, n: int, seed: int) -> SimulationResult:
    """Estimate E[Y_s] and compare with the entropy of the mirrored law."""
    s = _real(s, 0.0, "the prior-failure model's s")
    _check_nonneg_support(d)
    n = _count(n, 2, _SE_TRIALS)
    mean, se = _mean_se(lambda rng, m: _draw_ys(d, s, rng, m)[1], seed, n)
    ev = delta_value(negate(d), s)
    target = ev.value if ev.is_finite else None
    z = (mean - target) / se if (target is not None and se > 0.0) else None
    return SimulationResult(n, mean, se, target, z)


def simulate_total_lifetime_survival(d: DistributionSpec, s: float,
                                     t_grid, n: int, seed: int) -> dict:
    """Empirical survival of X + Y_s on a grid against the analytic curve
    h_s(Fbar(t)) = Fbar(t)(1 + (1-Fbar(t)^s)/s), with binomial errors."""
    s = _real(s, 0.0, "the prior-failure model's s")
    _check_nonneg_support(d)
    n = _count(n, 1, _TRIALS)
    t = np.asarray(list(t_grid), dtype=float)

    def one(rng, m):
        x, y = _draw_ys(d, s, rng, m)
        tot = x + y
        return np.array([np.count_nonzero(tot > tv) for tv in t], dtype=float)

    counts = sum(_run_chunks(one, seed, n))
    emp = counts / n
    fbar = np.asarray(d.sf(t), dtype=float)
    analytic = np.minimum(make_distortion("h_s", s).eval(fbar), 1.0)
    se = np.sqrt(np.maximum(analytic * (1.0 - analytic), 1e-300) / n)
    return {
        "t": t.tolist(),
        "empirical": emp.tolist(),
        "analytic": analytic.tolist(),
        "std_error": se.tolist(),
        "z_scores": ((emp - analytic) / se).tolist(),
        "n_trials": n,
    }


def simulate_Tn(d: DistributionSpec, n_units: int, n: int, seed: int) -> SimulationResult:
    """Expected n-th failure time of the classical relevation process, drawn
    at the product of the units' survivals; target from the
    generalized-CRE sum."""
    n_units = _count(n_units, 1, "n_units")
    _check_nonneg_support(d)
    n = _count(n, 2, _SE_TRIALS)

    def one(rng, m):
        # Fbar(T_n) is the product of the n units' uniform survivals
        v = _survivals(rng, m)
        for _ in range(1, n_units):
            v *= _survivals(rng, m)
        if not v.all():
            raise NonIntegrableError(
                f"the survival of unit {n_units} of {d.label()} underflows to 0")
        return _used(d, np.asarray(d.quantile(1.0 - v, v), dtype=float), f"unit {n_units}")

    mean, se = _mean_se(one, seed, n)
    target = relevation_risk(d, n_units).value
    z = (mean - target) / se if se > 0.0 else None
    return SimulationResult(n, mean, se, target, z)


_NS_TABLE = 512  # counts at or above this go into one tail bucket


def sample_Ns(s: float, n: int, seed: int) -> dict:
    """Sample the duality randomisation count N_s = G_A (a geometric with
    Beta(-s, 1+s) mixing parameter) and tabulate frequencies against the
    pmf (1+s)(-s)_k/(k+1)!.

    The law is heavy-tailed (k^{-(2+s)}); counts at or above 512 are
    aggregated into a single tail bucket."""
    if not (-1.0 < s < 0.0):
        raise DomainError("the randomisation law needs s in (-1, 0)")
    n = _count(n, 1, _TRIALS)
    u = -s

    def one(rng, m):
        a = rng.beta(u, 1.0 - u, size=m)
        a = np.clip(a, 1e-12, 1.0 - 1e-12)
        # geometric on {1,2,...} with success prob 1-a; failures = k-1
        k = rng.geometric(1.0 - a) - 1
        return np.bincount(np.minimum(k, _NS_TABLE), minlength=_NS_TABLE + 1)

    counts = sum(_run_chunks(one, seed, n))
    ks = list(range(_NS_TABLE))
    return {
        "k": ks,
        "count": [int(counts[k]) for k in ks],
        "frequency": [counts[k] / n for k in ks],
        "pmf": ((1.0 + s) * pochhammer_ratio_coeffs(s, _NS_TABLE - 1)).tolist(),
        "tail_count": int(counts[_NS_TABLE]),
        "tail_frequency": counts[_NS_TABLE] / n,
        "n_trials": n,
    }
