"""Headless verification suite.

Each check returns a dict {name, ok, runtime_s, detail}; ``run_selftest``
aggregates them.  The "quick" level covers the closed-form identities and
constants, "full" adds the Monte Carlo work, the randomized dominance
sweep, the curve families, and writes the plot-ready CSV tables.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

from . import distributions as dist
from . import duality, entropy, extremal, relevation, risk, skewness
from .errors import CtentError

PI2_6 = math.pi ** 2 / 6.0


def _table_members():
    return [
        dist.make_power_uniform(0.7), dist.make_power_uniform(1.0),
        dist.make_power_uniform(2.5), dist.make_reflected_power(0.5),
        dist.make_reflected_power(2.0), dist.make_exponential(),
        dist.make_lomax(1.5), dist.make_lomax(3.0),
        dist.make_negative_lomax(2.0), dist.make_negative_lomax(4.0),
        dist.make_negative_exponential(), dist.make_frechet(1.6),
        dist.make_frechet(3.0), dist.make_reverse_weibull(0.8),
        dist.make_reverse_weibull(2.5), dist.make_gumbel(),
        dist.make_logistic(),
    ]


_TABLE_ORDERS = (-0.4, -0.1, 0.0, 0.5, 1.0, 2.0, 5.0)


def check_closed_form_table() -> dict:
    """Quadrature against every closed form at seven orders, 1e-7 relative,
    under 30 seconds."""
    t0 = time.time()
    worst = 0.0
    worst_case = ""
    for d in _table_members():
        for s in _TABLE_ORDERS:
            thr = d.finiteness_threshold
            if thr is not None and s <= thr:
                if not entropy.delta_quadrature(d, s).divergent:
                    return {"name": "closed_form_table", "ok": False,
                            "runtime_s": time.time() - t0,
                            "detail": f"{d.label()} s={s}: divergence not flagged"}
                continue
            cd = d.closed_delta(s)
            cn = d.closed_nabla(s)
            rd = abs(entropy.delta_quadrature(d, s).value - cd) / max(1e-12, abs(cd))
            rn = abs(entropy.nabla_quadrature(d, s).value - cn) / max(1e-12, abs(cn))
            for r, tag in ((rd, "delta"), (rn, "nabla")):
                if r > worst:
                    worst, worst_case = r, f"{tag} {d.label()} s={s}"
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    return {"name": "closed_form_table", "ok": ok, "runtime_s": elapsed,
            "detail": f"worst rel err {worst:.2e} ({worst_case}), {elapsed:.1f}s"}


def check_benchmark_constants() -> dict:
    """The five benchmark entropies at s = 0, each to 1e-9 by quadrature."""
    t0 = time.time()
    cases = [
        ("uniform", dist.make_power_uniform(1.0), 0.25),
        ("exponential", dist.make_exponential(), PI2_6 - 1.0),
        ("negative_exponential", dist.make_negative_exponential(), 1.0),
        ("logistic", dist.make_logistic(), PI2_6),
        ("gumbel", dist.make_gumbel(), 1.0),
    ]
    errs = {}
    for name, d, target in cases:
        errs[name] = abs(entropy.delta_quadrature(d, 0.0).value - target)
    ok = all(e <= 1e-9 for e in errs.values())
    detail = ", ".join(f"{k}:{v:.1e}" for k, v in errs.items())
    return {"name": "benchmark_constants", "ok": ok,
            "runtime_s": time.time() - t0, "detail": detail}


def check_duality() -> dict:
    """Series transforms vs direct values (1e-6, 3 orders x 4 laws), pmf
    normalisation (1e-4 with tail), involution (1e-10)."""
    t0 = time.time()
    members = [dist.make_power_uniform(1.0), dist.make_exponential(),
               dist.make_lomax(3.0), dist.make_reflected_power(2.0)]
    worst = 0.0
    for d in members:
        for s in (-0.3, 0.5, 1.5):
            worst = max(worst, abs(duality.nabla_from_delta_series(d, s, tol=1e-8).value
                                   - entropy.nabla_value(d, s).value))
            worst = max(worst, abs(duality.delta_from_nabla_series(d, s, tol=1e-8).value
                                   - entropy.delta_value(d, s).value))
    pmf_err = 0.0
    for s in (-0.9, -0.5, -0.1):
        part, tail = duality.bnb_partial_sum(s, 1_000_000)
        pmf_err = max(pmf_err, abs(part + tail - 1.0))
    ex = dist.make_exponential()
    vec = [ex.closed_delta(float(n)) for n in range(6)]
    forward = duality.binomial_involution(vec)
    inv_err = max(abs(a - ex.closed_nabla(float(n))) for n, a in enumerate(forward))
    round_err = max(abs(a - b) for a, b in
                    zip(duality.binomial_involution(forward), vec))
    ok = worst <= 1e-6 and pmf_err <= 1e-4 and inv_err <= 1e-9 and round_err <= 1e-10
    return {"name": "duality", "ok": ok, "runtime_s": time.time() - t0,
            "detail": (f"series err {worst:.1e}, pmf mass err {pmf_err:.1e}, "
                       f"involution {inv_err:.1e}/{round_err:.1e}")}


def check_risk() -> dict:
    """Uniform closed risk values (1e-9, three parameter triples) and the
    distortion diagnostics, including the generalized-CRE failures."""
    t0 = time.time()
    worst = 0.0
    for a, L, s in ((0.0, 1.0, 0.0), (2.0, 3.0, 1.0), (-1.0, 2.0, 0.5)):
        u = dist.make_uniform(a, L)
        vd = risk.risk_delta(u, s).value
        vn = risk.risk_nabla(u, s).value
        worst = max(worst, abs(vd - (a + L * (s + 3.0) / (2.0 * (s + 2.0)))))
        worst = max(worst, abs(vn - (a + L * (2.0 * s + 3.0) / (2.0 * (s + 2.0)))))
    diag_ok = True
    for s in (-0.5, 0.5, 1.0, 3.0):
        for lab in ("h_s", "k_s"):
            rep = risk.coherence_diagnostics(risk.make_distortion(lab, s), 10000)
            diag_ok &= rep["monotone_increasing"] and rep["concave"]
    mono_fail = risk.coherence_diagnostics(risk.make_distortion("h_tilde_s", 0.5), 10000)
    conc_fail = risk.coherence_diagnostics(risk.make_distortion("h_tilde_s", 2.0), 10000)
    diag_ok &= (not mono_fail["monotone_increasing"]) and (not conc_fail["concave"])
    ok = worst <= 1e-9 and diag_ok
    return {"name": "risk", "ok": ok, "runtime_s": time.time() - t0,
            "detail": f"uniform formula err {worst:.1e}, diagnostics {'ok' if diag_ok else 'FAIL'}"}


def check_range_bounds(trials: int = 200) -> dict:
    """Attainment of the L2 and symmetric bounds (1e-6) and a randomized
    dominance sweep: nothing exceeds its regime bound by more than 1e-9."""
    t0 = time.time()
    worst_attain = 0.0
    for s in (0.0, 1.0, 2.0, -0.3):
        b = extremal.bound_l2(s)
        m = b.maximizer
        val = entropy.delta_value(m, s, prefer_closed=False).value
        worst_attain = max(worst_attain, abs(val / dist.dist_std(m) - b.upper))
    for s in (0.5, 1.0, 2.0):
        b = extremal.bound_symmetric(s)
        m = b.maximizer
        val = entropy.delta_quantile(m, s).value
        worst_attain = max(worst_attain, abs(val / math.sqrt(m.variance) - b.upper))
    b0 = extremal.bound_symmetric(0.0)
    v0 = entropy.delta_value(b0.maximizer, 0.0).value
    worst_attain = max(worst_attain, abs(v0 / math.sqrt(b0.maximizer.variance) - b0.upper))

    rng = np.random.default_rng(20240817)
    overshoot = -math.inf
    for _ in range(trials):
        regime = rng.choice(["positive", "l2", "symmetric"])
        a = float(rng.uniform(0.2, 5.0))
        if regime == "positive":
            base = [dist.make_power_uniform(float(rng.uniform(0.1, 6.0))),
                    dist.make_exponential(),
                    dist.make_lomax(float(rng.uniform(1.2, 6.0))),
                    dist.make_frechet(float(rng.uniform(1.2, 6.0)))][rng.integers(0, 4)]
            d = dist.affine(base, a, float(rng.uniform(0.0, 3.0)))
            s = float(rng.uniform(-0.9, 4.0))
            val = entropy.delta_value(d, s)
            if not val.is_finite:
                continue
            overshoot = max(overshoot, val.value / dist.dist_mean(d)
                            - extremal.bound_positive(s).upper)
        elif regime == "l2":
            base = [dist.make_power_uniform(float(rng.uniform(0.1, 6.0))),
                    dist.make_exponential(),
                    dist.make_lomax(float(rng.uniform(2.2, 6.0))),
                    dist.make_logistic(),
                    dist.make_gumbel(),
                    dist.make_negative_lomax(float(rng.uniform(2.2, 6.0)))][rng.integers(0, 6)]
            d = dist.affine(base, a, float(rng.uniform(-2.0, 2.0)))
            s = float(rng.uniform(-0.45, 4.0))
            val = entropy.delta_value(d, s)
            if not val.is_finite:
                continue
            overshoot = max(overshoot, val.value / dist.dist_std(d)
                            - extremal.bound_l2(s).upper)
        else:
            pick = rng.integers(0, 3)
            if pick == 0:
                d = dist.affine(dist.make_logistic(), a, 0.0)
            elif pick == 1:
                d = dist.affine(dist.make_uniform(-0.5, 1.0), a, 0.0)
            else:
                ss = float(rng.uniform(0.1, 3.0))
                d = extremal.make_s_logistic(ss, float(rng.uniform(0.3, 1.0)))
            s = float(rng.uniform(-0.45, 4.0))
            val = entropy.delta_value(d, s)
            if not val.is_finite:
                continue
            overshoot = max(overshoot, val.value / dist.dist_std(d)
                            - extremal.symmetric_upper(s))
    ok = worst_attain <= 1e-6 and overshoot <= 1e-9
    return {"name": "range_bounds", "ok": ok, "runtime_s": time.time() - t0,
            "detail": f"attainment err {worst_attain:.1e}, max overshoot {overshoot:.1e}"}


def check_gamma_gap_constants() -> dict:
    """The gap's maximum, its location, the negative root, and the normal
    law's cumulative entropy."""
    t0 = time.time()
    argmax, peak = extremal.gamma_gap_argmax()
    root = extremal.gamma_gap_root()
    gauss = extremal.gaussian_cumulative_entropy()
    ok = (abs(argmax - 0.4671) <= 5e-4 and abs(peak - 0.0172) <= 5e-4
          and abs(root - (-1.6609)) <= 1e-3
          and abs(gauss - 0.9033) <= 5e-4 and gauss < extremal.SYM_BOUND_0)
    return {"name": "gamma_gap_constants", "ok": ok, "runtime_s": time.time() - t0,
            "detail": (f"argmax {argmax:.6f}, max {peak:.6f}, root {root:.6f}, "
                       f"gaussian {gauss:.6f}")}


def check_skewness_constants(curves_out: dict | None = None) -> dict:
    """The two limiting skewness roots (1e-5) and 20-point curve
    monotonicity for both parameter families."""
    t0 = time.time()
    m = skewness.rho(dist.make_negative_exponential(), "rho", tol=1e-9)
    m_bar = skewness.rho(dist.make_exponential(), "rho", tol=1e-9)
    mirror = skewness.rho(dist.make_exponential(), "rho_bar", tol=1e-9)
    betas1 = np.geomspace(0.05, 1000.0, 20)
    betas2 = np.geomspace(1.05, 1000.0, 20)
    c1 = skewness.rho_curve_power_uniform("rho", betas1)
    c1b = skewness.rho_curve_power_uniform("rho_bar", betas1)
    c2 = skewness.rho_curve_negative_lomax("rho", betas2)
    c2b = skewness.rho_curve_negative_lomax("rho_bar", betas2)
    if curves_out is not None:
        curves_out.update({"power_uniform": (c1, c1b), "negative_lomax": (c2, c2b)})

    def mono(curve, sign):
        vals = [v for _, v in curve.values]
        return all(sign * (b - a) >= -1e-7 for a, b in zip(vals, vals[1:]))

    curves_ok = (mono(c1, -1) and mono(c1b, +1) and mono(c2, +1) and mono(c2b, -1))
    ok = (abs(m - (-0.365952)) <= 1e-5 and abs(m_bar - 0.389592) <= 1e-5
          and abs(mirror - m) <= 1e-8 and curves_ok)
    return {"name": "skewness_constants", "ok": ok, "runtime_s": time.time() - t0,
            "detail": (f"root(-L) {m:.6f}, root(L) {m_bar:.6f}, "
                       f"curves monotone: {curves_ok}")}


def check_simulation() -> dict:
    """Monte Carlo agreement: E[Y_s] within 4 SE at 1e6 trials for three
    laws x s in {1,2}; the total-lifetime survival curve within binomial
    4-sigma bands at 10 points; E[T_3] for the exponential within 4 SE."""
    t0 = time.time()
    zmax = 0.0
    members = [dist.make_exponential(), dist.make_power_uniform(1.0),
               dist.make_lomax(3.0)]
    for i, d in enumerate(members):
        for j, s in enumerate((1.0, 2.0)):
            r = relevation.simulate_Ys(d, s, 10 ** 6, seed=1000 + 10 * i + j)
            zmax = max(zmax, abs(r.z_score))
    curve = relevation.simulate_total_lifetime_survival(
        dist.make_exponential(), 1.0, np.linspace(0.2, 4.0, 10), 10 ** 6, seed=77)
    zmax_curve = max(abs(z) for z in curve["z_scores"])
    t3 = relevation.simulate_Tn(dist.make_exponential(), 3, 10 ** 6, seed=55)
    elapsed = time.time() - t0
    ok = zmax <= 4.0 and zmax_curve <= 4.0 and abs(t3.z_score) <= 4.0 and elapsed < 180.0
    return {"name": "simulation", "ok": ok, "runtime_s": elapsed,
            "detail": (f"max |z| Ys {zmax:.2f}, survival {zmax_curve:.2f}, "
                       f"T3 {t3.z_score:.2f}, {elapsed:.0f}s")}


def check_estimator_consistency() -> dict:
    """Plug-in estimate on 1e5 exponential draws within the 100-replicate
    empirical 4-sigma band of pi^2/6 - 1; the atomic two-point sample at
    s = 1 returns exactly 1/4."""
    t0 = time.time()
    d = dist.make_exponential()
    target = PI2_6 - 1.0
    reps = np.array([
        entropy.delta_plugin(dist.sample(d, 10 ** 5, seed=9000 + k), 0.0).value
        for k in range(100)])
    sigma = float(np.std(reps, ddof=1))
    first_err = abs(float(reps[0]) - target)
    two_point = entropy.delta_plugin(dist.EmpiricalSample(np.array([0.0, 1.0])), 1.0)
    ok = first_err <= 4.0 * sigma and two_point.value == 0.25
    return {"name": "estimator_consistency", "ok": ok, "runtime_s": time.time() - t0,
            "detail": (f"|bias of first replicate| {first_err:.2e} vs 4*sigma "
                       f"{4 * sigma:.2e}; two-point exact: {two_point.value == 0.25}")}


# ---------------------------------------------------------------------------
# figure-analogue CSV emission

def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def write_figure_tables(out_dir: str, curves: dict | None = None) -> list:
    """Plot-ready CSVs: the two skewness-parameter curve pairs and the
    gamma gap on its narrow and wide windows."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if curves is None:
        curves = {}
        check_skewness_constants(curves_out=curves)
    for key, fname in (("power_uniform", "fig_skewness_power_uniform.csv"),
                       ("negative_lomax", "fig_skewness_negative_lomax.csv")):
        c, cb = curves[key]
        path = os.path.join(out_dir, fname)
        rows = [(b, v, vb) for (b, v), (_, vb) in zip(c.values, cb.values)]
        _write_csv(path, ("beta", "rho", "rho_bar"), rows)
        written.append(path)
    s1 = np.linspace(-0.5, 1.5, 201)
    path = os.path.join(out_dir, "fig_gamma_gap_narrow.csv")
    _write_csv(path, ("s", "phi"), [(float(s), extremal.gamma_gap(float(s))) for s in s1])
    written.append(path)
    root = extremal.gamma_gap_root()
    s2 = np.linspace(root, 4.0, 201)
    path = os.path.join(out_dir, "fig_gamma_gap_wide.csv")
    _write_csv(path, ("s", "phi"), [(float(s), extremal.gamma_gap(float(s))) for s in s2])
    written.append(path)
    return written


# ---------------------------------------------------------------------------

def _quick_checks():
    return [check_benchmark_constants, check_risk, check_gamma_gap_constants,
            check_duality]


def _full_checks():
    return [check_closed_form_table, check_benchmark_constants, check_duality,
            check_risk, check_range_bounds, check_gamma_gap_constants,
            check_skewness_constants, check_simulation,
            check_estimator_consistency]


def run_selftest(level: str = "quick", out_dir: str | None = None) -> tuple:
    """Run the suite; returns (reports, all_ok).  The full level also
    writes the figure CSVs (to out_dir or ./ctent_selftest_out)."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = _quick_checks() if level == "quick" else _full_checks()
    reports = []
    curves: dict = {}  # the skewness check's curves, reused by the figure tables
    for fn in checks:
        try:
            reports.append(fn(curves) if fn is check_skewness_constants else fn())
        except CtentError as exc:
            reports.append({"name": fn.__name__, "ok": False, "runtime_s": 0.0,
                            "detail": f"{type(exc).__name__}: {exc}"})
    if level == "full":
        target = out_dir or "ctent_selftest_out"
        try:
            files = write_figure_tables(target, curves or None)
            reports.append({"name": "figure_tables", "ok": True, "runtime_s": 0.0,
                            "detail": f"wrote {len(files)} files to {target}"})
        except OSError as exc:
            reports.append({"name": "figure_tables", "ok": False, "runtime_s": 0.0,
                            "detail": str(exc)})
    return reports, all(r["ok"] for r in reports)
