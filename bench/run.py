"""Benchmark of ctent: one workload per run, end to end or traced by layer.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --compare bench/results/A.json bench/results/B.json

A run times a fixed pure-Python reference loop, sets the workload up in
``SETUPS - 1`` fresh interpreters that stop once ready, then sets it up
once more in a fresh interpreter that answers its queries for about
``--seconds`` seconds (worker.py), and times the reference loop again.
Every process gets one numeric thread.  The run prints the machine facts
and reference figures as ``#`` lines, writes the full result to
``bench/results/``, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUPS = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("CTENT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    t = perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i % 7
    return perf_counter() - t


def _start_worker(args, extra: list) -> subprocess.Popen:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _run_worker(args, extra: list, deadline: float) -> tuple:
    """Start a worker; return (seconds until READY, its stdout after READY)."""
    t0 = perf_counter()
    proc = _start_worker(args, extra)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with code {code} before answering")
    return ready, rest


def tail_percentile(latencies: list):
    """(p, value): the highest whole percentile with at least ten queries
    beyond it; None below forty queries, where it would be no tail."""
    n = len(latencies)
    if n < 40:
        return None
    ordered = sorted(latencies)
    p = math.floor(100.0 * (n - 10) / n)
    return p, ordered[math.ceil(p / 100.0 * n) - 1]


def measure(args) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    loop_before = reference_loop()
    setups = [_run_worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUPS - 1)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(RESULTS / f"spans-{stem}.jsonl")] if args.trace else []
    ready, out = _run_worker(args, extra, deadline)
    setups.append(ready)
    worker = json.loads(out.strip().splitlines()[-1])
    loop_after = reference_loop()

    walls = worker["round_walls_s"]
    if args.trace:
        metrics = {name: {"value": worker["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "query_p50_ms": {"value": statistics.median(worker["latencies_ms"]), "unit": "ms"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": worker["correct"], "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "reference_loop_s": [loop_before, loop_after], "setups_s": setups,
        "rounds": len(walls), "queries_per_round": worker["queries_per_round"],
        "tail": tail_percentile(worker["latencies_ms"]), "worker": worker,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    _print_info(detail)
    return result


def _version(module: str) -> str:
    from importlib.metadata import version
    return version(module)


def _print_info(d: dict) -> None:
    w = d["worker"]
    print(f"# workload {d['workload']} seed {d['seed']} seconds {d['seconds']} trace {d['trace']}")
    print(f"# nproc {d['nproc']}  python {d['python']}  numpy {d['numpy']}  scipy {d['scipy']}")
    print("# reference loop before/after: {:.4f} s / {:.4f} s".format(*d["reference_loop_s"]))
    print("# setups (s): " + " ".join(f"{s:.3f}" for s in d["setups_s"]))
    print(f"# rounds {d['rounds']}, {d['queries_per_round']} queries each; round walls (s): "
          + " ".join(f"{s:.3f}" for s in w["round_walls_s"]))
    if "traced_walls_s" in w:
        print("# traced round walls (s): " + " ".join(f"{s:.3f}" for s in w["traced_walls_s"]))
    lat = w["latencies_ms"]
    tail = d["tail"]
    tail_text = f", p{tail[0]} {tail[1]:.2f} ms" if tail else ""
    print(f"# {len(lat)} answered query latencies{tail_text}")
    for p in w["problems"]:
        print(f"# failed: {p['query']}: {p['error']}" + ("" if p["expected"] else "  [WRONG]"))


def _load(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def compare(base_path: str, new_path: str) -> int:
    base, new = _load(base_path)["metrics"], _load(new_path)["metrics"]
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'new/base':>9s}  unit")
    for name in base:
        if name not in new:
            continue
        b, n = base[name]["value"], new[name]["value"]
        ratio = f"{n / b:9.3f}" if b else f"{'-':>9s}"
        print(f"{name:34s} {b:14.6g} {n:14.6g} {ratio}  {base[name]['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="quadrature or noquadrature")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "ctent").is_dir():
        print(f"no ctent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
