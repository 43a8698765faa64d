"""The two workloads: inputs made from a seed, the queries, and their checks.

A query is one user-level library call, or a small fixed group of calls that
answers one question.  Each query's ``check`` compares the answer with
values from ``reference`` (computed without ctent) or with a property the
method must have; it never compares with a stored copy of earlier output.

Every library function is looked up on its module at call time, so the
tracer in ``tracing.py`` sees the calls once it has patched the modules.
``spec`` is applied to each law before the library receives it; the tracer
uses it to wrap the law's callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from ctent import distributions as dist
from ctent import duality, entropy, extremal, relevation, risk, selftest, skewness

import reference as ref


class CheckFailed(Exception):
    """An answer disagrees with its reference or breaks a property."""


@dataclass(frozen=True)
class Query:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _near(what: str, got: float, want: float, rel: float) -> None:
    _expect(abs(got - want) <= rel * abs(want), f"{what}: {got!r} vs {want!r} (rel {rel:g})")


def _within(what: str, got: float, want: float, tol: float) -> None:
    _expect(abs(got - want) <= tol, f"{what}: {got!r} vs {want!r} (abs {tol:g})")


def _jitter(rng, centre: float, share: float = 0.04) -> float:
    return float(centre * (1.0 + rng.uniform(-share, share)))


def build(name: str, seed: int, spec: Callable = lambda d: d) -> list:
    """The fixed batch of queries of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(name)])
    return [q for part in PARTS[name] for q in part(rng, spec)]


# ---------------------------------------------------------------------------
# references of the table laws, by the spec's name and parameters

def _table_reference(d) -> Callable | None:
    p = d.params
    table = {
        "power_uniform": lambda s: ref.power_uniform(p.get("beta", 1.0), s),
        "reflected_power": lambda s: ref.reflected_power(p.get("beta", 1.0), s),
        "exponential": ref.exponential,
        "negative_exponential": ref.negative_exponential,
        "lomax": lambda s: ref.lomax(p.get("beta", 1.0), s),
        "gumbel": ref.gumbel,
        "logistic": ref.logistic,
    }
    f = table.get(d.name)
    return None if f is None else lru_cache(maxsize=None)(f)


# ---------------------------------------------------------------------------
# crosscheck: both quadrature routes against the closed forms, and the risk
# distortion integrals, on laws with an analytic CDF

def _table_row(d, s: float) -> Query:
    thr = d.finiteness_threshold
    if thr is not None and s <= thr:
        return Query("table", f"{d.label()} s={s:g} divergent",
                     lambda: entropy.delta_quadrature(d, s),
                     lambda v: _expect(v.divergent, "divergence not flagged"))
    own = _table_reference(d)

    def run():
        return (d.closed_delta(s), d.closed_nabla(s),
                entropy.delta_quadrature(d, s).value, entropy.nabla_quadrature(d, s).value)

    def check(r):
        cd, cn, qd, qn = r
        _near("delta quadrature", qd, cd, 1e-7)
        _near("nabla quadrature", qn, cn, 1e-7)
        if own is not None:
            rd, rn = own(s)
            _near("closed delta", cd, rd, 1e-9)
            _near("closed nabla", cn, rn, 1e-9)

    return Query("table", f"{d.label()} s={s:g}", run, check)


def _risk_laws(rng, spec) -> list:
    """(spec, mean, mirrored-law reference, uniform (a, length) or None)."""
    laws = []
    for _ in range(2):
        a, length = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.5, 3.0))
        laws.append((spec(dist.make_uniform(a, length)), a + 0.5 * length,
                     lambda s, L=length: ref.uniform(L, s), (a, length)))
    # unit laws: risk_nabla of a rescaled exponential returns inf on some
    # scales (CHANGES.md, FOUND), which would make the failed count depend
    # on the seed
    laws.append((spec(dist.make_exponential()), 1.0, ref.negative_exponential, None))
    laws.append((spec(dist.make_logistic()), 0.0, ref.logistic, None))
    beta = float(rng.uniform(0.5, 3.0))
    laws.append((spec(dist.make_power_uniform(beta)), beta / (beta + 1.0),
                 lambda s, beta=beta: ref.reflected_power(beta, s), None))
    beta = float(rng.uniform(0.5, 3.0))
    laws.append((spec(dist.make_reflected_power(beta)), 1.0 / (beta + 1.0),
                 lambda s, beta=beta: ref.power_uniform(beta, s), None))
    return laws


def _risk_query(d, mean: float, mirrored: Callable, uni, s: float) -> Query:
    def run():
        return risk.risk_delta(d, s).value, risk.risk_nabla(d, s).value

    def check(r):
        md, mn = mirrored(s)
        _near("risk_delta", r[0], mean + md, 1e-7)
        _near("risk_nabla", r[1], mean + mn, 1e-7)
        if uni is not None:
            ud, un = ref.uniform_risk(uni[0], uni[1], s)
            _near("uniform risk_delta formula", r[0], ud, 1e-9)
            _near("uniform risk_nabla formula", r[1], un, 1e-9)

    return Query("risk", f"{d.label()} s={s:g}", run, check)


def _crosscheck(rng, spec) -> list:
    queries = [_table_row(spec(d), s)
               for d in selftest._table_members() for s in selftest._TABLE_ORDERS]
    for d, mean, mirrored, uni in _risk_laws(rng, spec):
        queries += [_risk_query(d, mean, mirrored, uni, s) for s in (-0.3, 0.5, 2.0)]
    return queries


# ---------------------------------------------------------------------------
# profiles: closed forms over dense order grids, the duality series and the
# skewness parameters; no x-space quadrature

PROFILE_GRID = tuple(float(s) for s in np.linspace(-0.49, 5.0, 150))


# Parameters of the shaped families are fixed: the cost of a closed form
# moves with its arguments (special-function recurrences, series tails), so
# seeded values would make the seed set the figures.  Scale, shift and the
# uniform's interval leave the cost unchanged and come from the seed.
PROFILE_PARAMETERS = (
    (dist.make_power_uniform, (0.5, 1.7, 4.0)),
    (dist.make_reflected_power, (0.5, 2.0, 3.5)),
    (dist.make_lomax, (1.5, 3.0, 5.0)),
    (dist.make_negative_lomax, (1.5, 2.5, 4.0)),
    (dist.make_frechet, (1.6, 3.0, 5.0)),
    (dist.make_reverse_weibull, (0.8, 2.5, 4.0)),
)


def _profile_members(rng, spec) -> list:
    """Per catalog law: three (spec, reference or None, scale) members."""
    families = []
    for make, betas in PROFILE_PARAMETERS:
        families.append([(spec(make(b)), _table_reference(make(b)), 1.0) for b in betas])
    for make in (dist.make_exponential, dist.make_negative_exponential,
                 dist.make_gumbel, dist.make_logistic):
        members = []
        for _ in range(3):
            c, shift = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
            members.append((spec(dist.affine(make(), c, shift)), _table_reference(make()), c))
        families.append(members)
    members = []
    for _ in range(3):
        a, length = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 3.0))
        members.append((spec(dist.make_uniform(a, length)),
                        lru_cache(maxsize=None)(lambda s, L=length: ref.uniform(L, s)), 1.0))
    families.append(members)
    return families


def _check_profile(prof, own, c: float) -> None:
    _expect(prof.delta_nonincreasing and prof.nabla_nondecreasing,
            "profile flags report a monotonicity break")
    prev = None
    for pt in prof.grid:
        if own is not None and pt.delta.is_finite:
            rd, rn = own(pt.s)
            _near(f"delta s={pt.s:g}", pt.delta.value, c * rd, 1e-9)
            _near(f"nabla s={pt.s:g}", pt.nabla.value, c * rn, 1e-9)
        if pt.delta.is_finite and pt.nabla.is_finite:
            if prev is not None:
                slack = 1e-9 * max(1.0, abs(prev.delta.value), abs(prev.nabla.value))
                _expect(pt.delta.value <= prev.delta.value + slack, f"delta rises at s={pt.s:g}")
                _expect(pt.nabla.value >= prev.nabla.value - slack, f"nabla falls at s={pt.s:g}")
            prev = pt


def _profile_query(members) -> Query:
    def run():
        return [entropy.entropy_profile(d, PROFILE_GRID) for d, _, _ in members]

    def check(profiles):
        for prof, (_, own, c) in zip(profiles, members):
            _check_profile(prof, own, c)

    return Query("profile", members[0][0].name, run, check)


def _series_query(d, own) -> Query:
    orders = (-0.3, 0.5, 1.5)

    def run():
        return [(duality.nabla_from_delta_series(d, s, tol=1e-8).value,
                 duality.delta_from_nabla_series(d, s, tol=1e-8).value) for s in orders]

    def check(r):
        for s, (vn, vd) in zip(orders, r):
            rd, rn = own(s)
            _within(f"nabla from delta series s={s:g}", vn, rn, 1e-6)
            _within(f"delta from nabla series s={s:g}", vd, rd, 1e-6)

    return Query("series", d.label(), run, check)


def _rho_family_queries(family: str, betas: tuple) -> list:
    """The rho curve, and the rho_bar curve with its mirror identity."""
    if family == "power_uniform":
        curve, make, signs = skewness.rho_curve_power_uniform, dist.make_power_uniform, (-1, 1)
    else:
        curve, make, signs = skewness.rho_curve_negative_lomax, dist.make_negative_lomax, (1, -1)

    def check_curve(c, sign):
        vals = [v for _, v in c.values]
        _expect(all(-1.0 < v < 1.0 for v in vals), f"{c.kind} outside (-1, 1)")
        _expect(all(sign * (b - a) >= -1e-7 for a, b in zip(vals, vals[1:])),
                f"{c.kind} not monotone in beta")

    def run_bar():
        return curve("rho_bar", betas), [skewness.rho(dist.negate(make(b)), "rho") for b in betas]

    def check_bar(r):
        check_curve(r[0], signs[1])
        for (b, v), m in zip(r[0].values, r[1]):
            _within(f"rho_bar(X) = rho(-X) at beta={b:g}", v, m, 1e-7)

    return [Query("rho", f"{family} rho", lambda: curve("rho", betas),
                  lambda c: check_curve(c, signs[0])),
            Query("rho", f"{family} rho_bar", run_bar, check_bar)]


def _constants_query() -> Query:
    """The paper's skewness roots and gamma-gap constants."""

    def run():
        roots = (skewness.rho(dist.make_negative_exponential(), "rho", tol=1e-9),
                 skewness.rho(dist.make_exponential(), "rho", tol=1e-9),
                 skewness.rho(dist.make_exponential(), "rho_bar", tol=1e-9))
        root = extremal.gamma_gap_root()
        grid = np.linspace(root, 4.0, 201)
        gaps = [extremal.gamma_gap(float(s)) for s in grid]
        return roots, extremal.gamma_gap_argmax(), root, grid, gaps

    def check(r):
        (rho_neg, rho_exp, bar_exp), (argmax, peak), root, grid, gaps = r
        _within("rho(-Exp)", rho_neg, ref.RHO_NEGATIVE_EXPONENTIAL, 1e-5)
        _within("rho(Exp)", rho_exp, ref.RHO_EXPONENTIAL, 1e-5)
        _within("rho_bar(Exp) = rho(-Exp)", bar_exp, rho_neg, 1e-8)
        _within("gap argmax", argmax, ref.GAP_ARGMAX, 5e-4)
        _within("gap maximum", peak, ref.GAP_MAX, 5e-4)
        _within("gap root", root, ref.GAP_ROOT, 1e-3)
        for s, g in zip(grid[1:], gaps[1:]):
            _expect(g >= -1e-12, f"gap negative at s={s:g}")
            if s > -0.5:
                want = ref.gamma_gap(s)
                _within(f"gap at s={s:g}", g, want, 1e-9 * max(1.0, abs(want)))

    return Query("constants", "paper constants", run, check)


def _profiles(rng, spec) -> list:
    queries = [_profile_query(m) for m in _profile_members(rng, spec)]
    for d in (dist.make_power_uniform(1.0), dist.make_exponential(),
              dist.make_lomax(3.0), dist.make_reflected_power(2.0)):
        queries.append(_series_query(spec(d), _table_reference(d)))
    pu = tuple(sorted(float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
                      for _ in range(8)))
    nl = tuple(sorted(float(np.exp(rng.uniform(math.log(1.3), math.log(50.0))))
                      for _ in range(8)))
    queries += _rho_family_queries("power_uniform", pu) + _rho_family_queries("negative_lomax", nl)
    queries.append(_constants_query())
    return queries


# ---------------------------------------------------------------------------
# bounds: laws without an analytic CDF (bisection CDFs) and the normal law

# Shapes in 0.10-0.15 raise ZeroDivisionError in the s-Logistic CDF's Newton
# polish on every run; these inputs are fixed so the failed count is too.
FAULTY_S_LOGISTIC = ((0.10, 0.7, 0.5), (0.125, 0.7, 0.5), (0.15, 0.4, 1.0), (0.125, 1.0, 2.0))


def _s_logistic_delta_reference(shape: float, beta: float, s: float) -> float:
    """delta_s in quantile space against the analytic quantile slope."""
    def f(u):
        base = u ** shape - (1.0 - u) ** shape
        slope = abs(base) ** (1.0 / beta - 1.0) * shape * (u ** (shape - 1.0)
                                                           + (1.0 - u) ** (shape - 1.0)) / beta
        g = -u * math.log(u) if s == 0.0 else -u * math.expm1(s * math.log(u)) / s
        return g * slope

    return ref.quad(f, 0.0, 0.5) + ref.quad(f, 0.5, 1.0)


def _dominance_query(shape: float, beta: float, s: float, spec) -> Query:
    def run():
        d = spec(extremal.make_s_logistic(shape, beta))
        return entropy.delta_value(d, s).value

    def check(v):
        sd = ref.s_logistic_std(shape, beta)
        _expect(v / sd <= ref.symmetric_bound(s) + 1e-9, "delta/sigma above the symmetric bound")
        _near("s-Logistic delta", v, _s_logistic_delta_reference(shape, beta, s), 1e-7)

    return Query("dominance", f"s_logistic({shape:.4g}, {beta:.4g}) s={s:g}", run, check)


def _attainment_query(orders: tuple, spec) -> Query:
    """Attainment of the symmetric bound at beta = 1, at several orders: one
    question, so one query."""
    def run():
        out = []
        for s in orders:
            b = extremal.bound_symmetric(s)
            out.append((b.upper, entropy.delta_quantile(spec(b.maximizer), s).value))
        return out

    def check(r):
        for s, (upper, v) in zip(orders, r):
            _near(f"symmetric bound s={s:g}", upper, ref.symmetric_bound(s), 1e-12)
            _within(f"attainment s={s:g}", v / ref.s_logistic_std(s, 1.0), upper, 1e-6)

    return Query("attainment", " ".join(f"s={s:g}" for s in orders), run, check)


def _normal_query(d, sigma: float, s: float) -> Query:
    def run():
        out = [entropy.delta_value(d, s).value, entropy.nabla_value(d, s).value]
        if s == 0.0:
            out.append(extremal.gaussian_cumulative_entropy())
        return out

    def check(r):
        rd, rn = ref.normal(s)
        _near("normal delta", r[0], sigma * rd, 1e-7)
        _near("normal nabla", r[1], sigma * rn, 1e-7)
        _expect(r[0] / sigma <= ref.symmetric_bound(s) + 1e-9, "normal above the symmetric bound")
        if s == 0.0:
            _within("normal cumulative entropy", r[2], ref.GAUSSIAN_CUMULATIVE_ENTROPY, 5e-4)
            _expect(r[2] < ref.SYM_BOUND_0, "normal cumulative entropy not below pi/(2 sqrt 3)")
            _near("normal cumulative entropy vs reference", r[2], rd, 1e-8)

    return Query("normal", f"normal s={s:g}", run, check)


def _mixture_queries(rng, spec) -> list:
    """risk_delta of a comonotone quantile mixture, which is additive."""
    a, length = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    c, lam = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 0.8))
    u, e = dist.make_uniform(a, length), dist.affine(dist.make_exponential(), c, 0.0)
    mix = spec(dist.from_quantile(
        "quantile_mixture",
        lambda p: lam * np.asarray(u.quantile(p)) + (1.0 - lam) * np.asarray(e.quantile(p)),
        (lam * a, math.inf)))
    queries = []
    for s in (0.5, 1.0):
        def check(v, s=s):
            want = lam * ref.uniform_risk(a, length, s)[0] + (1.0 - lam) * c * (1.0 + 1.0 / (s + 1.0))
            _near("mixture risk_delta", v, want, 1e-7)

        queries.append(Query("mixture", f"lam={lam:.3f} s={s:g}",
                             lambda s=s: risk.risk_delta(mix, s).value, check))
    return queries


# The s-Logistic queries are fixed: their cost moves by a third under a
# few per cent change of shape, which would make the seed set the figures.
S_LOGISTIC_GRID = ((1.25, 0.5, 0.5), (1.25, 0.8, 2.0), (2.0, 0.6, 1.0), (2.0, 0.8, -0.3))
NORMAL_ORDERS = (-0.3, -0.1, 0.0, 0.25, 0.5, 0.75, 1.5, 2.5)


def _bounds(rng, spec) -> list:
    queries = [_dominance_query(shape, beta, s, spec)
               for shape, beta, s in S_LOGISTIC_GRID + FAULTY_S_LOGISTIC]
    queries.append(_attainment_query(tuple(_jitter(rng, s) for s in (0.5, 0.8, 1.3, 2.5)), spec))
    sigma, mu = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
    normal = spec(dist.affine(extremal.normal_spec(), sigma, mu))
    queries += [_normal_query(normal, sigma, s) for s in NORMAL_ORDERS]
    return queries + _mixture_queries(rng, spec)


# ---------------------------------------------------------------------------
# montecarlo: the relevation simulators and the plug-in estimators

MC_TRIALS = 1 << 20
PLUGIN_DRAWS = 1 << 18
# Simulation seeds are fixed: a |z| <= 4 check on freshly drawn streams
# would fail on about one seed in a few hundred.
_MC_SEED = 7100


def _z_check(what: str, z: float) -> None:
    _expect(abs(z) <= 4.0, f"{what}: |z| = {abs(z):.2f} > 4")


def _ys_query(d, mirrored: Callable, s: float, seed: int) -> Query:
    def check(r):
        _near("simulate_Ys target", r.target, mirrored(s), 1e-9)
        _z_check("E[Y_s]", (r.mean - mirrored(s)) / r.std_error)

    return Query("ys", f"{d.label()} s={s:g}",
                 lambda: relevation.simulate_Ys(d, s, MC_TRIALS, seed=seed), check)


def _survival_query(d, sf: Callable, s: float, seed: int) -> Query:
    t_grid = np.linspace(0.2, 4.0, 10)

    def check(r):
        for t, emp in zip(t_grid, r["empirical"]):
            fb = sf(t)
            want = min(1.0, fb * (1.0 - math.expm1(s * math.log(fb)) / s))
            _z_check(f"survival at t={t:.2f}", (emp - want) / math.sqrt(want * (1.0 - want) / MC_TRIALS))

    return Query("survival", f"{d.label()} s={s:g}",
                 lambda: relevation.simulate_total_lifetime_survival(d, s, t_grid, MC_TRIALS, seed=seed),
                 check)


def _tn_query(d, n_units: int, mean: float, seed: int) -> Query:
    return Query("tn", f"{d.label()} n={n_units}",
                 lambda: relevation.simulate_Tn(d, n_units, MC_TRIALS, seed=seed),
                 lambda r: _z_check("E[T_n]", (r.mean - mean) / r.std_error))


def _ns_query(s: float, seed: int) -> Query:
    def check(r):
        for k in range(6):
            p = ref.duality_pmf(s, k)
            _near(f"pmf k={k}", r["pmf"][k], p, 1e-12)
            _z_check(f"frequency k={k}", (r["frequency"][k] - p) / math.sqrt(p * (1.0 - p) / MC_TRIALS))

    return Query("ns", f"s={s:g}", lambda: relevation.sample_Ns(s, MC_TRIALS, seed=seed), check)


# Plug-in tolerances: eight times the standard deviation of the estimate
# over 2^18 draws, measured over 40 seeds (README, "Checks").
PLUGIN_TOL = 0.02


def _plugin_query(name: str, x, own: Callable) -> Query:
    orders = (-0.3, 0.5, 2.0)

    def run():
        return [(entropy.delta_plugin(x, s).value, entropy.nabla_plugin(x, s).value) for s in orders]

    def check(r):
        for s, (vd, vn) in zip(orders, r):
            rd, rn = own(s)
            _within(f"delta plug-in s={s:g}", vd, rd, PLUGIN_TOL)
            _within(f"nabla plug-in s={s:g}", vn, rn, PLUGIN_TOL)

    return Query("plugin", name, run, check)


def _montecarlo(rng, spec) -> list:
    beta = 3.0
    exponential, lomax = spec(dist.make_exponential()), spec(dist.make_lomax(beta))
    ys_laws = (
        (exponential, lambda s: 1.0 / (s + 1.0)),
        (spec(dist.make_power_uniform(1.0)), lambda s: ref.uniform(1.0, s)[0]),
        (lomax, lambda s: beta / ((beta - 1.0) * (beta * (1.0 + s) - 1.0))),
    )
    queries = []
    for i, (d, mirrored) in enumerate(ys_laws):
        queries += [_ys_query(d, mirrored, s, _MC_SEED + 10 * i + j)
                    for j, s in enumerate((0.5, 1.0, 2.0))]
    queries += [
        _survival_query(exponential, lambda t: math.exp(-t), 1.0, _MC_SEED + 100),
        _survival_query(exponential, lambda t: math.exp(-t), 2.0, _MC_SEED + 101),
        _survival_query(lomax, lambda t: (1.0 + t) ** -beta, 0.5, _MC_SEED + 102),
        _tn_query(exponential, 3, 3.0, _MC_SEED + 200),
        _tn_query(lomax, 2, 1.0 / (beta - 1.0) + beta / (beta - 1.0) ** 2, _MC_SEED + 201),
    ]
    queries += [_ns_query(s, _MC_SEED + 300 + k) for k, s in enumerate((-0.3, -0.6))]
    u = rng.random((3, PLUGIN_DRAWS))
    samples = (
        ("exponential", -np.log1p(-u[0]), ref.exponential),
        ("uniform", u[1], lambda s: ref.uniform(1.0, s)),
        ("lomax(beta=3)", np.expm1(-np.log1p(-u[2]) / beta), lambda s: ref.lomax(beta, s)),
    )
    for name, values, own in samples:
        queries.append(_plugin_query(name, dist.EmpiricalSample(values), own))
    return queries


# Each workload is made of two parts.  The machine's speed drifts over
# minutes, and four workloads of 30-second runs spread past their bounds; two
# workloads leave room for 55-second runs.  Each mechanism that ROADMAP items
# 2-4 change does its work in one workload and none in the other: bisection
# CDFs and scalar quadrature in ``quadrature``; closed forms over order grids,
# the duality series and the array paths in ``noquadrature``.
PARTS = {
    "quadrature": (_crosscheck, _bounds),
    "noquadrature": (_profiles, _montecarlo),
}
WORKLOADS = tuple(PARTS)
