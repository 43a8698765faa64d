"""One workload in a fresh interpreter; started by run.py.

Imports ctent from the checkout's ``src``, builds the workload's inputs,
prints ``READY`` and then answers the batch of queries in whole rounds for
about ``--seconds`` seconds.  The last line it prints is one JSON object
with the round times, the query latencies, the counts and the peak
resident memory.  With ``--setup-only`` it stops after ``READY``.

With ``--trace 1`` untraced and traced rounds alternate; the per-layer
figures are per traced round, the tracing overhead compares the two kinds
of round, and the spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _answer(queries, tracer=None) -> tuple:
    """Run one round; returns (wall seconds, [(query, output, error, seconds)])."""
    results = []
    start = perf_counter()
    for q in queries:
        t = perf_counter()
        try:
            if tracer is None:
                out = q.run()
            else:
                with tracer.span(f"query:{q.kind}"):
                    out = q.run()
            err = None
        except Exception as exc:  # a query that raises is a failed query
            out, err = None, exc
        results.append((q, out, err, perf_counter() - t))
    return perf_counter() - start, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ctent
    import ctent.cli  # noqa: F401  (the CLI's imports are part of set-up)
    import_ms = (perf_counter() - t0) * 1e3
    if not Path(ctent.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ctent was imported from {ctent.__file__}, not from this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Tracer

    queries = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    traced = workloads.build(args.workload, args.seed, spec=tracer.spec) if tracer else None
    attempted = failed = 0
    problems = []
    latencies = []
    walls = []
    traced_walls = []
    start = perf_counter()
    while True:
        wall, results = _answer(queries)
        walls.append(wall)
        if tracer is not None:
            # untraced and traced rounds alternate, so that the overhead is
            # not confounded with drift of the machine's speed
            tracer.install()
            try:
                traced_wall, traced_results = _answer(traced, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(traced_wall)
            wall += traced_wall
            results += traced_results
        for q, out, err, dt in results:
            attempted += 1
            if err is None:
                try:
                    q.check(out)
                    latencies.append(dt * 1e3)
                    continue
                except Exception as exc:
                    err = exc
            failed += 1
            # the s-Logistic CDF fault (README) raises ZeroDivisionError, an
            # ArithmeticError; a failed check or any other exception is a
            # wrong answer or a fault of the harness
            expected = isinstance(err, (ArithmeticError, ctent.CtentError))
            if not expected or len(problems) < 8:
                problems.append({"query": f"{q.kind} {q.label}", "expected": expected,
                                 "error": f"{type(err).__name__}: {err}"})
        if perf_counter() - start + wall > args.seconds:
            break

    report = {
        "import_ms": import_ms,
        "queries_per_round": len(queries),
        "round_walls_s": walls,
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": failed,
        "correct": all(p["expected"] for p in problems),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        per_layer = tracer.metrics(len(traced_walls))
        per_layer["cli.import_ms"] = import_ms
        per_layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        report["traced_walls_s"] = traced_walls
        report["per_layer"] = per_layer
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
