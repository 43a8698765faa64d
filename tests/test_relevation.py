import math

import numpy as np
import pytest
from scipy import stats

from ctent import (
    DomainError,
    NonIntegrableError,
    bnb_pmf,
    delta_value,
    make_exponential,
    make_frechet,
    make_logistic,
    make_lomax,
    make_power_uniform,
    negate,
    sample_Ns,
    simulate_Tn,
    simulate_total_lifetime_survival,
    simulate_Ys,
)
from ctent.distributions import dist_mean, from_quantile
from ctent.relevation import _draw_ys

N_UNIT = 2 * 10 ** 5  # unit-test trial counts; the acceptance suite uses 1e6


@pytest.mark.parametrize("d,s,seed", [
    (make_exponential(), 1.0, 11), (make_exponential(), 2.0, 12),
    (make_power_uniform(1.0), 1.0, 13), (make_power_uniform(1.0), 2.0, 14),
    (make_lomax(3.0), 1.0, 15), (make_lomax(3.0), 2.0, 16),
], ids=["exp-1", "exp-2", "unif-1", "unif-2", "lomax-1", "lomax-2"])
def test_second_unit_lifetime_targets(d, s, seed):
    r = simulate_Ys(d, s, N_UNIT, seed)
    assert r.target == pytest.approx(delta_value(negate(d), s).value, abs=1e-10)
    assert abs(r.z_score) < 4.0
    assert r.std_error > 0.0


def test_total_lifetime_mean_identity():
    # E[X + Y_s] = E[X] + entropy of the mirrored law
    for d, s, seed in ((make_exponential(), 1.0, 21),
                       (make_power_uniform(1.0), 2.0, 22),
                       (make_lomax(3.0), 1.0, 23)):
        r = simulate_Ys(d, s, N_UNIT, seed)
        rng = np.random.default_rng(seed)
        # the X-part is independent of the Y estimate only through the same
        # trial stream; re-simulate the sum directly
        curve = simulate_total_lifetime_survival(d, s, [0.0], N_UNIT, seed)
        assert curve["empirical"][0] == 1.0
        target = dist_mean(d) + delta_value(negate(d), s).value
        assert r.mean + dist_mean(d) == pytest.approx(target, abs=6.0 * r.std_error)


def test_survival_curve_exponential():
    ex = make_exponential()
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    curve = simulate_total_lifetime_survival(ex, 1.0, grid, N_UNIT, 31)
    # closed curve value at t = 1: e^-1 (2 - e^-1)
    assert curve["analytic"][2] == pytest.approx(0.6004235991062720, rel=1e-12)
    assert curve["analytic"][0] == 1.0
    assert max(abs(z) for z in curve["z_scores"][1:]) < 4.0
    s = 1.0
    for t, a in zip(grid[1:], curve["analytic"][1:]):
        fb = math.exp(-t)
        assert a == pytest.approx(fb * (1.0 + (1.0 - fb ** s) / s), rel=1e-12)


def test_survival_curve_other_orders():
    curve = simulate_total_lifetime_survival(make_power_uniform(1.0), 2.0,
                                             [0.2, 0.5, 0.9, 1.3], N_UNIT, 41)
    assert max(abs(z) for z in curve["z_scores"]) < 4.0
    # beyond the double support the survival is zero
    assert curve["analytic"][3] < 1e-12 or curve["empirical"][3] <= 1e-5


def test_failure_time_examples():
    ex = make_exponential()
    r3 = simulate_Tn(ex, 3, N_UNIT, 51)
    assert r3.target == pytest.approx(3.0, abs=1e-8)
    assert abs(r3.z_score) < 4.0
    r1 = simulate_Tn(make_power_uniform(1.0), 1, N_UNIT, 52)
    assert r1.target == pytest.approx(0.5, abs=1e-9)
    assert abs(r1.z_score) < 4.0
    r2 = simulate_Tn(make_frechet(3.0), 2, N_UNIT, 53)
    assert abs(r2.z_score) < 4.0


def test_second_failure_survival_formula():
    # survival of T_2 is Fbar(t)(1 - log Fbar(t)); checked through binomial
    # bands on the empirical curve
    ex = make_exponential()
    n = N_UNIT
    rng = np.random.default_rng(61)
    x = -np.log1p(-rng.random(n))
    v = rng.random(n)
    t2 = -np.log(v * np.exp(-x))  # exact residual draw for the exponential
    for t in (0.5, 1.5, 3.0):
        emp = float(np.count_nonzero(t2 > t)) / n
        fb = math.exp(-t)
        target = fb * (1.0 - math.log(fb))
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(emp - target) < 4.0 * se


def test_reproducibility():
    ex = make_exponential()
    a = simulate_Ys(ex, 1.0, 50_000, 5)
    b = simulate_Ys(ex, 1.0, 50_000, 5)
    assert a == b
    c = simulate_Tn(ex, 2, 50_000, 5)
    d = simulate_Tn(ex, 2, 50_000, 5)
    assert c == d


def test_worker_count_does_not_change_results(monkeypatch):
    # 300 000 trials span three chunks of 2^17
    ex = make_exponential()
    runs = (lambda: simulate_Ys(ex, 1.0, 300_000, 9),
            lambda: simulate_Tn(ex, 3, 300_000, 9),
            lambda: simulate_total_lifetime_survival(ex, 1.0, [0.5, 2.0], 300_000, 9))
    base = [run() for run in runs]
    monkeypatch.setenv("CTENT_THREADS", "4")
    assert [run() for run in runs] == base


def test_domain_guards():
    with pytest.raises(DomainError):
        simulate_Ys(make_exponential(), -0.5, 1000, 1)
    with pytest.raises(DomainError):
        simulate_Ys(make_logistic(), 1.0, 1000, 1)
    with pytest.raises(DomainError):
        simulate_Tn(make_exponential(), 0, 1000, 1)
    with pytest.raises(DomainError):
        sample_Ns(0.5, 1000, 1)
    # one trial has no standard error; simulate_Tn once divided by zero here
    for simulate in (lambda n: simulate_Ys(make_exponential(), 1.0, n, 1),
                     lambda n: simulate_Tn(make_exponential(), 2, n, 1)):
        with pytest.raises(DomainError, match="at least 2 trials"):
            simulate(1)


def test_no_trial_is_refused():
    # the chunked runners once reached ThreadPoolExecutor(0) here
    for simulate in (lambda n: sample_Ns(-0.5, n, 1),
                     lambda n: simulate_total_lifetime_survival(make_exponential(), 1.0, [1.0], n, 1)):
        for n in (0, -3):
            with pytest.raises(DomainError, match="at least one trial"):
                simulate(n)


class _Draws:
    """A generator stand-in whose random(m) returns the given rows in turn."""

    def __init__(self, *rows):
        self.rows = [np.array(r, dtype=float) for r in rows]

    def random(self, m):
        return self.rows.pop(0)[:m].copy()


def test_residual_draw_below_2_53_reads_the_survival():
    # sf(40) = 4.2e-18: 1 - v Fbar(x) rounds to 1, yet the residual
    # survival w = v2 Fbar(x) draws 40 - log(v2)
    d = make_exponential()
    v2 = np.array([0.5, 1e-3, 1e-200])
    w = v2 * float(d.sf(40.0))
    assert np.all(1.0 - w == 1.0)
    assert np.asarray(d.quantile(1.0 - w, w)) == pytest.approx(40.0 - np.log(v2), rel=1e-15)
    # in the draw, the first unit at the smallest survival 2^-53 (x = 36.7),
    # and the second at 2^-53 v2 with v2 = 1 - U exact
    v2 = np.array([0.5, 2.0 ** -10, 2.0 ** -53])
    x, y = _draw_ys(d, 1.0, _Draws([1.0 - 2.0 ** -53] * 3, [0.0] * 3, 1.0 - v2), 3)
    assert x == pytest.approx(53.0 * math.log(2.0), rel=1e-15)
    assert y == pytest.approx(-np.log(v2), abs=1e-13)


def test_quantile_law_refuses_a_used_draw_below_2_53():
    # a law built from its quantile reads u = 1 - w, which has rounded to
    # 1 at w = 2^-54: NaN, refused where the second unit is alive
    d = from_quantile("exp_q", lambda u: -np.log1p(-np.asarray(u, dtype=float)), (0.0, math.inf))
    first = [1.0 - 2.0 ** -53] * 2
    with pytest.raises(NonIntegrableError, match="below 2\\^-53"):
        _draw_ys(d, 1.0, _Draws(first, [0.0, 0.5], [0.5, 0.5]), 2)
    # a second unit dead on arrival does not use its draw
    x, y = _draw_ys(d, 1.0, _Draws(first, [0.5, 0.5], [0.5, 0.5]), 2)
    assert np.all(y == 0.0) and np.all(np.isfinite(x))


def test_failure_time_survival_underflow_refused():
    # 1000 exponential units: the product of the survivals falls below 5e-324
    with pytest.raises(NonIntegrableError, match="underflows"):
        simulate_Tn(make_exponential(), 1000, 100, 1)


def test_sample_Ns_frequencies():
    tab = sample_Ns(-0.5, N_UNIT, 71)
    assert tab["frequency"][0] == pytest.approx(0.5, abs=0.01)
    assert tab["frequency"][1] == pytest.approx(0.125, abs=0.01)
    # chi-square on the first cells plus the aggregated tail
    k_cells = 24
    obs = np.array(tab["count"][:k_cells]
                   + [tab["n_trials"] - sum(tab["count"][:k_cells])])
    pk = np.array([bnb_pmf(-0.5, k) for k in range(k_cells)])
    expected = np.concatenate([pk, [1.0 - pk.sum()]]) * tab["n_trials"]
    stat, p = stats.chisquare(obs, expected)
    assert p > 1e-4


def test_sample_Ns_tail_ordering():
    heavy = sample_Ns(-0.9, 10 ** 5, 81)
    light = sample_Ns(-0.1, 10 ** 5, 81)
    surv_heavy = 1.0 - sum(heavy["frequency"][:10])
    surv_light = 1.0 - sum(light["frequency"][:10])
    assert surv_heavy > surv_light
