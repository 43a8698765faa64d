"""Command-line front end.

Verbs: entropy, profile, risk, skew, bounds, gammagap, simulate, estimate,
selftest.  Distributions are addressed by name plus repeated --param k=v
flags; sample files hold one number per line (UTF-8, '#' comments).  All
floating output is printed with 12 significant digits and, for a fixed
argv and seed, is byte-identical across runs.

Exit codes: 0 success, 1 argument errors, 2 domain errors (including the
divergent-entropy regime, which the message names), 3 numerical
non-convergence, 4 selftest failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import distributions as dist
from . import entropy, extremal, relevation, risk, skewness
from .errors import (
    DivergentEntropy,
    DomainError,
    NonIntegrableError,
    NotBracketedError,
    OracleMismatch,
    PreconditionNotMet,
    TruncationNotConverged,
)
from .selftest import run_selftest

_EXIT_PARSE = 1
_EXIT_DOMAIN = 2
_EXIT_NUMERIC = 3
_EXIT_SELFTEST = 4


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    return x


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(_fmt(payload), sort_keys=True) + "\n"
    else:
        rows = payload if isinstance(payload, list) else [payload]
        keys = sorted(rows[0].keys())
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(
                f"{row[k]:.12g}" if isinstance(row[k], float) else str(row[k])
                for k in keys))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(items) -> dict:
    params = {}
    for item in items or ():
        if "=" not in item:
            raise DomainError(f"--param expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        try:
            params[k.strip()] = float(v)
        except ValueError as exc:
            raise DomainError(f"parameter {k!r} is not a number: {v!r}") from exc
    return params


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        grid = np.linspace(float(a), float(b), int(n))
    except ValueError as exc:
        raise DomainError(f"--s-grid expects a:b:n, got {spec!r}") from exc
    if not grid.size:
        raise DomainError(f"a grid needs at least one point, got {spec!r}")
    return [float(x) for x in grid]


def _load_sample(path: str) -> dist.EmpiricalSample:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise DomainError(f"bad sample value {line!r} in {path}") from exc
    return dist.EmpiricalSample(np.asarray(values, dtype=float))


def _resolve_dist(args) -> dist.DistributionSpec:
    if not args.dist:
        raise DomainError("this command needs --dist")
    return dist.from_name(args.dist, _parse_params(args.param))


def _entropy_pair(ev: entropy.EntropyValue, prefix: str) -> dict:
    if ev.divergent:
        return {prefix: "divergent", f"{prefix}_abs_err": "inf",
                f"{prefix}_method": ev.method}
    return {prefix: ev.value, f"{prefix}_abs_err": ev.abs_error_bound,
            f"{prefix}_method": ev.method}


def _cmd_entropy(args) -> int:
    if bool(args.dist) == bool(args.file):
        raise DomainError("exactly one of --dist / --file is required")
    s = args.s if args.s is not None else 0.0
    if args.file:
        sample = _load_sample(args.file)
        payload = {"source": args.file, "n": sample.n, "s": s}
        payload.update(_entropy_pair(entropy.delta_plugin(sample, s), "delta"))
        payload.update(_entropy_pair(entropy.nabla_plugin(sample, s), "nabla"))
    else:
        d = _resolve_dist(args)
        payload = {"dist": d.label(), "s": s}
        dv = entropy.delta_value(d, s)
        nv = entropy.nabla_value(d, s)
        payload.update(_entropy_pair(dv, "delta"))
        payload.update(_entropy_pair(nv, "nabla"))
        if dv.divergent or nv.divergent:
            _emit(payload, args.format, args.out)
            thr = d.finiteness_threshold  # None where the tail probe decided
            below = "" if thr is None else f" for s <= {thr:g}"
            sys.stderr.write(
                "error: the entropy is infinite at this order (the lower-tail "
                f"integral of F^(1+s) diverges{below})\n")
            return _EXIT_DOMAIN
    _emit(payload, args.format, args.out)
    return 0


def _cmd_profile(args) -> int:
    d = _resolve_dist(args)
    if not args.s_grid:
        raise DomainError("profile needs --s-grid a:b:n")
    grid = _parse_grid(args.s_grid)
    prof = entropy.entropy_profile(d, grid)
    rows = []
    for pt in prof.grid:
        row = {"s": pt.s}
        row.update({k: v for k, v in _entropy_pair(pt.delta, "delta").items()
                    if not k.endswith("method")})
        row.update({k: v for k, v in _entropy_pair(pt.nabla, "nabla").items()
                    if not k.endswith("method")})
        rows.append(row)
    payload = {"dist": d.label(), "rows": rows,
               "delta_nonincreasing": prof.delta_nonincreasing,
               "nabla_nondecreasing": prof.nabla_nondecreasing}
    if args.format == "csv":
        _emit(rows, "csv", args.out)
    else:
        _emit(payload, "json", args.out)
    return 0


def _cmd_risk(args) -> int:
    d = _resolve_dist(args)
    s = args.s if args.s is not None else 0.0
    rd = risk.risk_delta(d, s)
    rn = risk.risk_nabla(d, s)
    payload = {"dist": d.label(), "s": s, "mean": dist.dist_mean(d),
               "risk_delta": rd.value, "risk_delta_abs_err": rd.abs_error_bound,
               "risk_nabla": rn.value, "risk_nabla_abs_err": rn.abs_error_bound}
    _emit(payload, args.format, args.out)
    return 0


def _cmd_skew(args) -> int:
    d = _resolve_dist(args)
    payload = {"dist": d.label()}
    if args.s is not None:
        payload["s"] = args.s
        payload["diamond"] = skewness.diamond(d, args.s, "diamond")
        payload["diamond_bar"] = skewness.diamond(d, args.s, "diamond_bar")
    payload["rho"] = skewness.rho(d, "rho")
    payload["rho_bar"] = skewness.rho(d, "rho_bar")
    _emit(payload, args.format, args.out)
    return 0


def _cmd_bounds(args) -> int:
    s = args.s if args.s is not None else 0.0
    if args.regime == "positive":
        b = extremal.bound_positive(s)
    elif args.regime == "l2":
        b = extremal.bound_l2(s)
    elif args.regime == "symmetric":
        b = extremal.bound_symmetric(s)
    else:
        raise DomainError("--regime must be positive, l2 or symmetric")
    payload = {"regime": b.regime, "s": b.s, "upper": b.upper,
               "attained": b.attained,
               "maximizer": b.maximizer.label() if b.maximizer else None}
    _emit(payload, args.format, args.out)
    return 0


def _cmd_gammagap(args) -> int:
    argmax, peak = extremal.gamma_gap_argmax()
    payload = {
        "argmax": argmax,
        "max": peak,
        "root": extremal.gamma_gap_root(),
        "gaussian_delta0": extremal.gaussian_cumulative_entropy(),
        "symmetric_bound_s0": extremal.SYM_BOUND_0,
    }
    if args.s is not None:
        payload["s"] = args.s
        payload["phi"] = extremal.gamma_gap(args.s)
    _emit(payload, args.format, args.out)
    return 0


def _cmd_simulate(args) -> int:
    d = _resolve_dist(args)
    n = args.trials
    if args.mode == "ys":
        r = relevation.simulate_Ys(d, args.s if args.s is not None else 1.0,
                                   n, args.seed)
        payload = {"mode": "ys", "dist": d.label(), "n_trials": r.n_trials,
                   "mean": r.mean, "std_error": r.std_error,
                   "target": r.target, "z_score": r.z_score}
    elif args.mode == "tn":
        r = relevation.simulate_Tn(d, args.units, n, args.seed)
        payload = {"mode": "tn", "dist": d.label(), "units": args.units,
                   "n_trials": r.n_trials, "mean": r.mean,
                   "std_error": r.std_error, "target": r.target,
                   "z_score": r.z_score}
    elif args.mode == "survival":
        grid = _parse_grid(args.t_grid) if args.t_grid else [0.5, 1.0, 2.0, 4.0]
        payload = relevation.simulate_total_lifetime_survival(
            d, args.s if args.s is not None else 1.0, grid, n, args.seed)
        payload["mode"] = "survival"
        payload["dist"] = d.label()
        if args.format == "csv":
            rows = [{"t": t, "empirical": e, "analytic": a, "std_error": se}
                    for t, e, a, se in zip(payload["t"], payload["empirical"],
                                           payload["analytic"], payload["std_error"])]
            _emit(rows, "csv", args.out)
            return 0
    elif args.mode == "ns":
        payload = relevation.sample_Ns(args.s if args.s is not None else -0.5,
                                       n, args.seed)
        payload["mode"] = "ns"
    else:
        raise DomainError("--mode must be ys, survival, tn or ns")
    _emit(payload, args.format, args.out)
    return 0


def _cmd_estimate(args) -> int:
    if not args.file:
        raise DomainError("estimate needs --file")
    sample = _load_sample(args.file)
    s = args.s if args.s is not None else 0.0
    payload = {"source": args.file, "n": sample.n, "s": s,
               "delta_plugin": entropy.delta_plugin(sample, s).value,
               "nabla_plugin": entropy.nabla_plugin(sample, s).value}
    _emit(payload, args.format, args.out)
    return 0


def _cmd_selftest(args) -> int:
    reports, ok = run_selftest(args.level, out_dir=args.out)
    for rep in reports:
        sys.stdout.write(json.dumps(_fmt(rep), sort_keys=True) + "\n")
    sys.stdout.write(json.dumps({"level": args.level, "all_ok": ok},
                                sort_keys=True) + "\n")
    return 0 if ok else _EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ctent",
        description="Cumulative Tsallis entropies, dual entropies, risk "
                    "measures, skewness parameters, range bounds and "
                    "relevation simulators.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, dist_opt=True, file_opt=False):
        if dist_opt:
            sp.add_argument("--dist", help="catalog distribution name")
            sp.add_argument("--param", action="append", metavar="K=V",
                            help="distribution parameter (repeatable)")
        if file_opt:
            sp.add_argument("--file", help="sample file, one number per line")
        sp.add_argument("--s", type=float, default=None, help="entropy order")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("entropy", help="entropy and dual entropy at one order")
    common(sp, file_opt=True)
    sp.set_defaults(fn=_cmd_entropy)

    sp = sub.add_parser("profile", help="entropy profile over an order grid")
    common(sp)
    sp.add_argument("--s-grid", metavar="A:B:N", help="linspace grid")
    sp.set_defaults(fn=_cmd_profile)

    sp = sub.add_parser("risk", help="both risk measures at one order")
    common(sp)
    sp.set_defaults(fn=_cmd_risk)

    sp = sub.add_parser("skew", help="skewness parameters (and maps at --s)")
    common(sp)
    sp.set_defaults(fn=_cmd_skew)

    sp = sub.add_parser("bounds", help="normalised-entropy range bounds")
    common(sp, dist_opt=False)
    sp.add_argument("--regime", choices=("positive", "l2", "symmetric"),
                    required=True)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("gammagap", help="gamma-ratio gap constants")
    common(sp, dist_opt=False)
    sp.set_defaults(fn=_cmd_gammagap)

    sp = sub.add_parser("simulate", help="relevation-model Monte Carlo")
    common(sp)
    sp.add_argument("--mode", choices=("ys", "survival", "tn", "ns"),
                    default="ys")
    sp.add_argument("--trials", type=int, default=10 ** 5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--units", type=int, default=2, help="units for --mode tn")
    sp.add_argument("--t-grid", metavar="A:B:N", default=None,
                    help="time grid for --mode survival")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("estimate", help="plug-in estimates from a sample file")
    common(sp, dist_opt=False, file_opt=True)
    sp.set_defaults(fn=_cmd_estimate)

    sp = sub.add_parser("selftest", help="verification suite")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--out", default=None, help="directory for figure CSVs")
    sp.set_defaults(fn=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to 1
        return 0 if exc.code in (0, None) else _EXIT_PARSE
    try:
        return args.fn(args)
    except (DomainError, DivergentEntropy, PreconditionNotMet) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_DOMAIN
    except (TruncationNotConverged, NonIntegrableError, OracleMismatch,
            NotBracketedError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return _EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
