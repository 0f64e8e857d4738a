"""Every callable that the benchmark's span tracer rebinds still exists.

``bench/tracer.py`` looks each (module, path) of its ``TRACED`` table up in the
module's or class's own namespace; a renamed or deleted callable would only
fail there, as a KeyError in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in _traced()])
def test_traced_name_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    assert callable(vars(owner)[attr])
