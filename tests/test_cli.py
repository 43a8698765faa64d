import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctent import distributions as dist
from ctent import selftest
from ctent.cli import main
from ctent.errors import NonIntegrableError, NotBracketedError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_verb(capsys):
    code, out, _ = run(capsys, "entropy", "--dist", "logistic", "--s", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)
    assert set(payload) == {"dist", "s", "delta", "delta_abs_err", "delta_method",
                            "nabla", "nabla_abs_err", "nabla_method"}


def test_entropy_with_params(capsys):
    code, out, _ = run(capsys, "entropy", "--dist", "lomax",
                       "--param", "beta=2.5", "--s", "1")
    assert code == 0
    assert json.loads(out)["dist"] == "lomax(beta=2.5)"


def test_entropy_divergent_exits_domain(capsys):
    code, out, err = run(capsys, "entropy", "--dist", "negative_lomax",
                         "--param", "beta=2", "--s", "-0.6")
    assert code == 2
    assert json.loads(out)["delta"] == "divergent"
    assert "diverges" in err


def test_entropy_divergent_without_threshold_exits_domain(capsys, monkeypatch):
    # q(u) = -2/sqrt(u): F(x) = 4/x^2 below -2 and no finiteness threshold;
    # the tail probe flags delta at s = -0.6, while nabla stays finite
    def heavy_left():
        return dist.from_quantile("heavy_left", lambda u: -2.0 / np.sqrt(u),
                                  (-math.inf, -2.0), qdensity=lambda u, v: u ** -1.5)

    monkeypatch.setitem(dist._REGISTRY, "heavy_left", (heavy_left, ()))
    code, out, err = run(capsys, "entropy", "--dist", "heavy_left", "--s", "-0.6")
    assert code == 2
    assert json.loads(out)["delta"] == "divergent"
    assert "diverges" in err and "Traceback" not in err and "None" not in err


@pytest.mark.parametrize("s", ["60.5", "180.5"])
def test_entropy_cancelled_dual_series_exits_numeric(capsys, s):
    # the closed dual refuses these orders and tanh-sinh does not converge
    code, _, err = run(capsys, "entropy", "--dist", "gumbel", "--s", s)
    assert code == 3
    assert "Traceback" not in err and "did not converge" in err


@pytest.mark.parametrize("argv", [
    ("--dist", "gumbel", "--s", "1000"),
    ("--dist", "gumbel", "--s", "1e4"),
    ("--dist", "frechet", "--param", "beta=2", "--s", "1e6"),
    ("--dist", "reverse_weibull", "--param", "beta=2", "--s", "1e4"),
    ("--dist", "reverse_weibull", "--param", "beta=2", "--s", "1e6"),
], ids=["gumbel-1000", "gumbel-1e4", "frechet-1e6", "reverse_weibull-1e4", "reverse_weibull-1e6"])
def test_entropy_at_huge_orders_exits_numeric(capsys, argv):
    # the duality series overflows or cancels and the dual kernel refuses
    # the order: reported, never printed as a number or a traceback
    code, out, err = run(capsys, "entropy", *argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err and "did not converge" in err


def test_entropy_file_at_refused_order_exits_numeric(capsys, tmp_path):
    # the dual kernel refuses s = 40, so the plug-in has no value there
    f = tmp_path / "x.csv"
    f.write_text("0.3\n1.1\n2.0\n5.0\n")
    code, out, err = run(capsys, "entropy", "--file", str(f), "--s", "40")
    assert code == 3
    assert out == "" and "Traceback" not in err


def test_entropy_power_uniform_tiny_shape_is_finite(capsys):
    # nabla of U^(1/beta) tends to beta/(beta+1) as beta -> 0; the log-gamma
    # ratio of x = 1/beta = 1e307 once gave inf - inf and printed "nan"
    code, out, _ = run(capsys, "entropy", "--dist", "power_uniform",
                       "--param", "beta=1e-307", "--s", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["nabla"] == pytest.approx(1e-307, rel=1e-10)
    assert payload["delta"] == pytest.approx(1e-307, rel=1e-10)


def test_entropy_input_source_exclusive(capsys, tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("0\n1\n")
    code, _, err = run(capsys, "entropy", "--dist", "logistic",
                       "--file", str(f), "--s", "1")
    assert code == 2
    assert "exactly one" in err


def test_estimate_verb(capsys, tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("# two-point sample\n0\n1\n")
    code, out, _ = run(capsys, "estimate", "--file", str(f), "--s", "1")
    assert code == 0
    assert json.loads(out)["delta_plugin"] == 0.25


def test_estimate_on_a_sample_spanning_the_float_range_exits_numeric(tmp_path):
    # the gap 1e308 - (-1e308) overflows to inf: refused with exit 3 and no
    # numpy warning; a child process shows what stderr would print
    f = tmp_path / "x.csv"
    f.write_text("1e308\n-1e308\n")
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONWARNINGS="default")
    script = "import sys; from ctent.cli import main; sys.exit(main(sys.argv[1:]))"
    child = subprocess.run([sys.executable, "-c", script, "estimate", "--file", str(f), "--s", "1"],
                           capture_output=True, text=True, env=env, timeout=600)
    assert child.returncode == 3, child.stderr
    assert "RuntimeWarning" not in child.stderr and "Traceback" not in child.stderr


def test_bounds_verb(capsys):
    code, out, _ = run(capsys, "bounds", "--regime", "symmetric", "--s", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == pytest.approx(0.9068996821, abs=1e-9)
    assert "logistic" in payload["maximizer"]


def test_risk_verb(capsys):
    code, out, _ = run(capsys, "risk", "--dist", "uniform",
                       "--param", "a=2", "--param", "length=3", "--s", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["risk_delta"] == pytest.approx(4.0, abs=1e-8)
    assert payload["risk_nabla"] == pytest.approx(4.5, abs=1e-8)


def test_profile_verb_csv(capsys):
    code, out, _ = run(capsys, "profile", "--dist", "exponential",
                       "--s-grid", "0:2:5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "delta"
    assert len(lines) == 6


def test_skew_verb(capsys):
    code, out, _ = run(capsys, "skew", "--dist", "exponential")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == pytest.approx(0.389592, abs=1e-5)
    assert payload["rho_bar"] == pytest.approx(-0.365952, abs=1e-5)


def test_gammagap_verb(capsys):
    code, out, _ = run(capsys, "gammagap")
    assert code == 0
    payload = json.loads(out)
    assert payload["root"] == pytest.approx(-1.6609, abs=1e-3)
    assert payload["gaussian_delta0"] == pytest.approx(0.9033, abs=5e-4)


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--dist", "exponential", "--s", "1",
            "--trials", "20000", "--seed", "42")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["target"] == 0.5


def test_simulate_survival_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--dist", "exponential", "--s", "1",
                       "--mode", "survival", "--trials", "20000", "--seed", "1",
                       "--t-grid", "0.5:2:4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "analytic,empirical,std_error,t"
    assert len(lines) == 5


def test_simulate_ns_needs_no_dist(capsys):
    # the randomisation count draws no law; --dist was once required here
    code, out, err = run(capsys, "simulate", "--mode", "ns", "--s", "-0.5",
                         "--trials", "2000", "--seed", "3")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["mode"] == "ns" and payload["n_trials"] == 2000
    assert sum(payload["count"]) + payload["tail_count"] == 2000


@pytest.mark.parametrize("argv", [
    ("gammagap", "--s", "inf"),
    ("gammagap", "--s", "nan"),
    ("bounds", "--regime", "symmetric", "--s", "inf"),
    ("bounds", "--regime", "l2", "--s", "inf"),
])
def test_an_order_that_is_not_finite_exits_domain(capsys, argv):
    # gammagap once printed "phi": "nan" with exit 0, and the symmetric bound
    # exited 3 from the s-Logistic's variance
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be finite" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "entropy", "--dist", "gumbel", "--s", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["delta"] == pytest.approx(
        math.log(2.0), abs=1e-10)


def test_parse_error_exit_code(capsys):
    assert main(["no_such_verb"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "entropy", "--dist", "nope")
    assert code == 2
    assert "unknown distribution" in err
    code, _, err = run(capsys, "risk", "--dist", "lomax", "--param", "beta=2",
                       "--s", "-0.6")
    assert code == 2
    assert "threshold" in err


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--level", "quick")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["all_ok"] is True
    assert all(rec["ok"] for rec in lines[:-1])


def _named(name, check):
    check.__name__ = name
    return check


def _raises(exc):
    def check(*args):
        raise exc("patched to fail")
    return check


def test_selftest_reports_a_raising_check_under_its_name(monkeypatch):
    monkeypatch.setattr(selftest, "check_gamma_gap_constants",
                        _named("check_gamma_gap_constants", _raises(NonIntegrableError)))
    reports, ok = selftest.run_selftest("quick")
    assert [r["name"] for r in reports] == [
        "benchmark_constants", "risk", "gamma_gap_constants", "duality"]
    gap = reports[2]
    assert gap["ok"] is False and gap["detail"] == "NonIntegrableError: patched to fail"
    assert ok is False


def test_selftest_figure_tables_fail_without_skewness_curves(monkeypatch, tmp_path):
    # every other check is stubbed, so that only the runner's plumbing runs
    for name in ("closed_form_table", "benchmark_constants", "duality", "risk",
                 "range_bounds", "gamma_gap_constants", "simulation",
                 "estimator_consistency"):
        monkeypatch.setattr(selftest, f"check_{name}",
                            _named(f"check_{name}", lambda: (True, "stub")))
    monkeypatch.setattr(selftest, "check_skewness_constants",
                        _named("check_skewness_constants", _raises(NotBracketedError)))
    reports, ok = selftest.run_selftest("full", out_dir=str(tmp_path))
    by_name = {r["name"]: r for r in reports}
    assert list(by_name)[-3:] == ["simulation", "estimator_consistency", "figure_tables"]
    assert by_name["skewness_constants"]["ok"] is False
    figure = by_name["figure_tables"]
    assert (figure["ok"], figure["detail"]) == (False, "no skewness curves")
    assert ok is False and not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("profile", "--dist", "exponential", "--s-grid", "0:1:0"),
    ("simulate", "--dist", "exponential", "--mode", "survival", "--t-grid", "0:1:0",
     "--trials", "100"),
])
def test_zero_length_grid_exits_domain(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err and out == ""


def test_entropy_infinite_order_exits_domain(capsys):
    code, out, err = run(capsys, "entropy", "--dist", "exponential", "--s", "inf")
    assert code == 2
    assert "nan" not in out.lower()
    assert "finite" in err


def test_entropy_huge_lomax_shape(capsys):
    code, out, _ = run(capsys, "entropy", "--dist", "lomax", "--param", "beta=1e300")
    assert code == 0
    assert "nan" not in out.lower()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("dist,param", [
    ("power_uniform", "beta"), ("reflected_power", "beta"), ("lomax", "beta"),
    ("negative_lomax", "beta"), ("frechet", "beta"), ("reverse_weibull", "beta"),
    ("uniform", "a"), ("uniform", "length"),
])
def test_non_finite_shape_exits_domain(capsys, dist, param, value):
    for verb in ("entropy", "risk"):
        code, out, err = run(capsys, verb, "--dist", dist, "--param", f"{param}={value}")
        assert code == 2
        assert f"{param} must be finite" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("dist", ["exponential", "gumbel", "normal", "logistic"])
def test_risk_near_minus_one_never_prints_inf(capsys, dist):
    # the entropy-family integrand once overflowed here into a traceback
    code, out, err = run(capsys, "risk", "--dist", dist, "--s", "-0.999999")
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 0:
        payload = json.loads(out)
        assert math.isfinite(payload["risk_delta"]) and math.isfinite(payload["risk_nabla"])


def test_risk_non_finite_integral_exits_numeric(capsys):
    code, out, err = run(capsys, "risk", "--dist", "exponential", "--s", "1e6")
    assert code == 3
    assert "nan" not in out.lower() and "distortion integral" in err


@pytest.mark.parametrize("units", [19, 50, 200])
def test_many_unit_relevation_draws_reach_their_target(capsys, units):
    # past ~19 exponential units the survival of T_n falls below 2^-53,
    # where 1 - Fbar rounds to 1; the draw reads Fbar itself
    code, out, err = run(capsys, "simulate", "--dist", "exponential", "--mode", "tn",
                         "--units", str(units), "--trials", "2000", "--seed", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["target"] == pytest.approx(units, rel=1e-12)
    assert abs(payload["z_score"]) < 4.0


def test_nan_dual_kernel_never_reaches_quadpack():
    # the k_s integrand is NaN where the dual kernel refuses the order, and
    # QUADPACK (limit=500) died of signal 11 on it; a crash here ends the
    # child process, not the test run
    argvs = [f"risk --dist reverse_weibull --param beta={b} --s {s}" for b, s in (
        ("1.05", "1e3"), ("1.05", "1e6"), ("2", "33"), ("2", "1e3"), ("2", "1e6"))]
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = ("import sys; from ctent.cli import main; "
              "print([main(a.split()) for a in sys.argv[1:]])")
    child = subprocess.run([sys.executable, "-c", script, *argvs], capture_output=True,
                           text=True, env=env, timeout=600)
    assert child.returncode == 0 and "Traceback" not in child.stderr
    assert child.stdout.split("\n")[-2] == "[3, 3, 3, 3, 3]"
    assert child.stderr.count("distortion integral") == 5


@pytest.mark.parametrize("verb", ["entropy", "risk", "skew"])
@pytest.mark.parametrize("dist_name,param", [
    ("power_uniform", "beta=1e160"), ("reflected_power", "beta=1e160"),
    ("reverse_weibull", "beta=0.005"),
])
def test_overflowing_moments_exit_cleanly(capsys, verb, dist_name, param):
    # (b + 1)^2 and exp(lgamma(1 + 1/b)) raised OverflowError in the constructors
    code, out, err = run(capsys, verb, "--dist", dist_name, "--param", param, "--s", "0.5")
    assert code in (0, 2, 3) and "Traceback" not in err
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out)


_SHAPES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e) | st.sampled_from([math.inf, math.nan])
_ORDERS = st.floats(-0.999999, 1.0) | st.floats(0.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(dist.available_distributions()))
    argv = [draw(st.sampled_from(["entropy", "risk", "skew"])), "--dist", name]
    for param in dist._REGISTRY[name][1]:
        argv += ["--param", f"{param}={draw(_SHAPES)!r}"]
    return argv + ["--s", repr(draw(_ORDERS))]


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_argv())
def test_every_argv_maps_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), (argv, out.getvalue())


def test_grid_errors_name_their_option(capsys):
    code, _, err = run(capsys, "simulate", "--dist", "exponential", "--mode", "survival",
                       "--t-grid", "1:2", "--trials", "100")
    assert code == 2 and "--t-grid" in err and "--s-grid" not in err
    code, _, err = run(capsys, "profile", "--dist", "exponential", "--s-grid", "0:1")
    assert code == 2 and "--s-grid" in err


@pytest.mark.parametrize("argv", [["bounds", "--regime", "cubic"],
                                  ["simulate", "--dist", "exponential", "--mode", "xs"]])
def test_choices_are_refused_by_the_parser(capsys, argv):
    assert run(capsys, *argv)[0] == 1


_GRIDS = st.tuples(_ORDERS, _ORDERS, st.integers(-1, 4)).map(
    lambda g: f"{min(g[:2])!r}:{max(g[:2])!r}:{g[2]}")


@st.composite
def _other_argv(draw):
    verb = draw(st.sampled_from(["profile", "simulate", "bounds", "gammagap"]))
    argv = [verb]
    if verb in ("profile", "simulate"):
        name = draw(st.sampled_from(dist.available_distributions()))
        argv += ["--dist", name]
        for param in dist._REGISTRY[name][1]:
            argv += ["--param", f"{param}={draw(_SHAPES)!r}"]
    if verb == "profile":
        return argv + [f"--s-grid={draw(_GRIDS)}"]
    if verb == "simulate":
        mode = draw(st.sampled_from(["ys", "survival", "tn", "ns"]))
        argv += ["--mode", mode, "--trials", str(draw(st.integers(0, 300))),
                 "--seed", str(draw(st.integers(0, 9))), "--units", str(draw(st.integers(0, 4)))]
        if mode == "survival" and draw(st.booleans()):
            argv += [f"--t-grid={draw(_GRIDS)}"]
    if verb == "bounds":
        argv += ["--regime", draw(st.sampled_from(["positive", "l2", "symmetric"]))]
    if verb != "profile" and draw(st.booleans()):
        argv.append(f"--s={draw(st.floats(-2.0, 1.0) | _ORDERS)!r}")
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_other_argv())
def test_every_other_verb_argv_maps_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), (argv, out.getvalue())


@pytest.mark.parametrize("s", ["1e-200", "-0.49"])
def test_symmetric_bound_forms_its_maximizer(capsys, s):
    # at 1e-200 the maximizer's quantile is 0 everywhere, and at -0.49 its
    # variance integrand grows like u^-0.98: both once exited 3
    code, out, err = run(capsys, "bounds", "--regime", "symmetric", f"--s={s}")
    assert code == 0 and err == ""
    assert json.loads(out)["maximizer"] == f"s_logistic(beta=1, s={float(s):g})"


_DIST_VERBS = {"entropy": ["--s", "0.5"], "risk": ["--s", "0.5"], "skew": [],
               "profile": ["--s-grid=-0.4:3:8"]}


@pytest.mark.parametrize("verb", sorted(_DIST_VERBS))
@pytest.mark.parametrize("name", sorted(dist._REGISTRY))
def test_every_dist_verb_answers_on_every_registered_law(capsys, verb, name):
    # beta = 2 where a law takes one; skew on gumbel once exited 3
    params = ["--param", "beta=2"] if "beta" in dist._REGISTRY[name][1] else []
    code, out, err = run(capsys, verb, "--dist", name, *params, *_DIST_VERBS[verb])
    assert code == 0, err
    assert json.loads(out)


def test_negative_grid_start_answers_in_the_equals_form(capsys):
    # argparse reads a separate "-0.49:5:150" as an option, so the start
    # goes after '='
    code, out, err = run(capsys, "profile", "--dist", "exponential", "--s-grid=-0.49:5:150")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 150 and rows[0]["s"] == -0.49
