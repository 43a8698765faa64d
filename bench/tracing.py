"""Per-layer counters and spans, recorded from outside the library.

``Tracer.install`` replaces each traced ctent function (and
``scipy.integrate.quad``) by a wrapper in every ctent module namespace that
binds it, so calls made between ctent's own modules are seen too.
``Tracer.spec`` wraps the callables of a law before the library gets it.

Each layer is a group.  Only the outermost call of a group is counted and
timed, so a group's ms is the wall time spent inside it, never counted
twice.  Calls of the coarse groups also leave a span (id, parent, name,
start, duration); the hot groups (special functions, law callables,
scalar kernels) are only counted.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function names, group, leaves a span)
_TARGETS = (
    ("ctent.specfun", ("lgamma", "psi", "psi1", "psi2", "gamma_negative", "log_gamma",
                       "digamma", "trigamma", "gamma_ratio", "pochhammer"), "specfun", False),
    ("ctent.series", ("pochhammer_ratio_tail",), "series.tail", True),
    ("ctent.entropy", ("delta_quadrature",), "entropy.delta_quadrature", True),
    ("ctent.entropy", ("nabla_quadrature",), "entropy.nabla_quadrature", True),
    ("ctent.entropy", ("delta_quantile",), "entropy.delta_quantile", True),
    ("ctent.entropy", ("dual_kernel",), "entropy.dual_kernel", False),
    ("ctent.entropy", ("dual_kernel_np", "g_kernel_np"), "entropy.kernel_np", False),
    ("ctent.entropy", ("delta_plugin", "nabla_plugin"), "entropy.plugin", True),
    ("ctent.duality", ("nabla_from_delta_series", "delta_from_nabla_series"), "duality.series", True),
    ("ctent.duality", ("_signed_series",), "duality.signed_series", False),
    ("ctent.risk", ("risk_delta",), "risk.risk_delta", True),
    ("ctent.risk", ("risk_nabla",), "risk.risk_nabla", True),
    ("ctent.skewness", ("rho",), "skewness.rho", True),
    ("ctent.skewness", ("diamond",), "skewness.diamond", False),
    ("ctent.extremal", ("make_s_logistic",), "extremal.s_logistic", True),
    ("ctent.relevation", ("simulate_Ys", "simulate_total_lifetime_survival", "simulate_Tn",
                          "sample_Ns"), "relevation.simulate", True),
    ("scipy.integrate", ("quad",), "scipy.quad", True),
)

# the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("specfun.calls", "count"), ("specfun.ms", "ms"),
    ("series.tail_calls", "count"), ("series.tail_ms", "ms"),
    ("distributions.closed_calls", "count"), ("distributions.closed_ms", "ms"),
    ("distributions.cdf_calls", "count"), ("distributions.cdf_points", "count"),
    ("distributions.cdf_ms", "ms"),
    ("distributions.quantile_calls", "count"), ("distributions.quantile_points", "count"),
    ("distributions.quantile_ms", "ms"),
    ("entropy.delta_quadrature_ms", "ms"), ("entropy.nabla_quadrature_ms", "ms"),
    ("entropy.delta_quantile_ms", "ms"), ("entropy.dual_kernel_calls", "count"),
    ("entropy.kernel_np_points", "count"), ("entropy.plugin_ms", "ms"),
    ("scipy.quad_calls", "count"), ("scipy.quad_ms", "ms"),
    ("duality.series_terms", "count"), ("duality.series_ms", "ms"),
    ("risk.risk_delta_ms", "ms"), ("risk.risk_nabla_ms", "ms"),
    ("skewness.rho_ms", "ms"), ("skewness.diamond_calls", "count"),
    ("extremal.s_logistic_ms", "ms"),
    ("relevation.trials_per_s", "1/s"), ("relevation.simulate_ms", "ms"),
    ("cli.import_ms", "ms"), ("trace.overhead_pct", "%"),
)


def _size(args) -> int:
    return int(np.size(args[0]))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.ms = Counter()
        self.points = Counter()
        self.series_terms = 0
        self.trials = 0
        self.spans = []
        self._stack = []
        self._depth = Counter()
        self._next_id = 0
        self._t0 = perf_counter()
        self._patched = []

    @contextmanager
    def span(self, name: str):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start_ms": round((start - self._t0) * 1e3, 4),
                               "dur_ms": round((end - start) * 1e3, 4)})

    def wrap(self, fn, group: str, span: bool = False, points=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._depth[group]:
                return fn(*args, **kwargs)
            tracer._depth[group] += 1
            t = perf_counter()
            try:
                if span:
                    with tracer.span(group):
                        out = fn(*args, **kwargs)
                else:
                    out = fn(*args, **kwargs)
            finally:
                tracer.ms[group] += (perf_counter() - t) * 1e3
                tracer.calls[group] += 1
                tracer._depth[group] -= 1
            if points is not None:
                tracer.points[group] += points(args)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _count_terms(self, args, kwargs, out):
        self.series_terms += int(out[2]) + 1

    def _count_trials(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, out):
            self.trials += int(sig.bind(*args, **kwargs).arguments["n"])

        return after

    def install(self) -> None:
        """Patch every ctent module namespace that binds a traced function."""
        wrappers = {}
        for modname, names, group, span in _TARGETS:
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                after = None
                if group == "duality.signed_series":
                    after = self._count_terms
                elif group == "relevation.simulate":
                    after = self._count_trials(fn)
                points = _size if group == "entropy.kernel_np" else None
                wrappers[id(fn)] = (fn, self.wrap(fn, group, span, points, after))
        namespaces = [m for n, m in sys.modules.items() if n == "ctent" or n.startswith("ctent.")]
        namespaces.append(sys.modules["scipy.integrate"])
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        """Put back every function ``install`` replaced."""
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched = []

    def spec(self, d):
        """The law ``d`` with its callables counted under distributions.*."""
        closed = {k: None if getattr(d, k) is None else self.wrap(getattr(d, k), "distributions.closed")
                  for k in ("closed_delta", "closed_nabla", "neg_closed_delta", "neg_closed_nabla")}
        return dataclasses.replace(
            d,
            cdf=self.wrap(d.cdf, "distributions.cdf", points=_size),
            sf=self.wrap(d.sf, "distributions.cdf", points=_size),
            quantile=self.wrap(d.quantile, "distributions.quantile", points=_size),
            **closed)

    def metrics(self, rounds: int) -> dict:
        """Per-round per-layer figures, averaged over ``rounds`` traced rounds."""
        c, ms = self.calls, self.ms
        sim_s = ms["relevation.simulate"] / 1e3
        raw = {
            "specfun.calls": c["specfun"], "specfun.ms": ms["specfun"],
            "series.tail_calls": c["series.tail"], "series.tail_ms": ms["series.tail"],
            "distributions.closed_calls": c["distributions.closed"],
            "distributions.closed_ms": ms["distributions.closed"],
            "distributions.cdf_calls": c["distributions.cdf"],
            "distributions.cdf_points": self.points["distributions.cdf"],
            "distributions.cdf_ms": ms["distributions.cdf"],
            "distributions.quantile_calls": c["distributions.quantile"],
            "distributions.quantile_points": self.points["distributions.quantile"],
            "distributions.quantile_ms": ms["distributions.quantile"],
            "entropy.delta_quadrature_ms": ms["entropy.delta_quadrature"],
            "entropy.nabla_quadrature_ms": ms["entropy.nabla_quadrature"],
            "entropy.delta_quantile_ms": ms["entropy.delta_quantile"],
            "entropy.dual_kernel_calls": c["entropy.dual_kernel"],
            "entropy.kernel_np_points": self.points["entropy.kernel_np"],
            "entropy.plugin_ms": ms["entropy.plugin"],
            "scipy.quad_calls": c["scipy.quad"], "scipy.quad_ms": ms["scipy.quad"],
            "duality.series_terms": self.series_terms, "duality.series_ms": ms["duality.series"],
            "risk.risk_delta_ms": ms["risk.risk_delta"], "risk.risk_nabla_ms": ms["risk.risk_nabla"],
            "skewness.rho_ms": ms["skewness.rho"], "skewness.diamond_calls": c["skewness.diamond"],
            "extremal.s_logistic_ms": ms["extremal.s_logistic"],
            "relevation.simulate_ms": ms["relevation.simulate"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        out["relevation.trials_per_s"] = self.trials / sim_s if sim_s > 0.0 else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
