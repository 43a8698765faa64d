"""Smoke test of the benchmark harness.

    python3 -m pytest bench/test_smoke.py -q

It answers the first queries of each workload with their checks and makes
one traced call.  The repository's own test run does not collect it: the
project's pytest ``testpaths`` name ``tests`` only.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ctent  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("part", [p for parts in workloads.PARTS.values() for p in parts],
                         ids=lambda p: p.__name__.strip("_"))
def test_first_queries_pass_their_checks(part):
    for q in part(np.random.default_rng(1), lambda d: d)[:3]:
        q.check(q.run())


def test_same_seed_same_inputs():
    a = [q.label for q in workloads.build("quadrature", seed=7)]
    b = [q.label for q in workloads.build("quadrature", seed=7)]
    c = [q.label for q in workloads.build("quadrature", seed=8)]
    assert a == b and a != c


def test_tracer_counts_layers_and_restores_functions():
    original = ctent.entropy.delta_quadrature
    tracer = Tracer()
    query = workloads.build("quadrature", seed=1, spec=tracer.spec)[3]
    tracer.install()
    try:
        query.check(query.run())
    finally:
        tracer.uninstall()
    assert ctent.entropy.delta_quadrature is original
    m = tracer.metrics(rounds=1)
    assert m["entropy.delta_quadrature_ms"] > 0 and m["scipy.quad_calls"] >= 1
    assert m["distributions.cdf_points"] > 0 and m["distributions.closed_calls"] == 2
    assert {s["name"] for s in tracer.spans} >= {"entropy.nabla_quadrature", "scipy.quad"}
