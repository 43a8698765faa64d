"""The benchmark's tracer wraps ctent functions by name: each must exist.

``bench/tracing.py`` patches every (module, name) of its ``_TARGETS`` at
install; a renamed or deleted target would only fail there, in the bench.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names, _, _ in module._TARGETS for name in names]


@pytest.mark.parametrize("mod, name", _targets(), ids=lambda x: x)
def test_every_traced_function_resolves(mod, name):
    assert callable(getattr(importlib.import_module(mod), name, None)), f"{mod}.{name}"
