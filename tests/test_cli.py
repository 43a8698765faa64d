import json
import math

import numpy as np
import pytest

from ctent import distributions as dist
from ctent.cli import main


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
