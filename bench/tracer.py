"""Span tracer that wraps pjac's public callables from outside the package.

Every traced callable is replaced at each place it is bound: module-level
functions in every loaded ``pjac`` module that holds them (so names copied by
``from x import y`` are covered too), and methods on their class.  A span
records name, start, end, parent span and run id, plus counts read from the
arguments or the result.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _points(args, result) -> dict:
    """Points in the (..., 2) array passed after ``self``."""
    shape = getattr(args[1], "shape", (0, 2))
    return {"points": math.prod(shape[:-1])}


def _corrector_iterations(args, result) -> dict:
    residuals = [row.max_residual for row in result[1][1:]]
    best = min(range(len(residuals)), key=residuals.__getitem__)
    return {"iterations": len(residuals), "best_iteration": best + 1}


# (module, attribute path, counts read from (args, result)); span names drop
# the leading "pjac." so that they read "<layer>.<callable>"
TRACED = (
    ("pjac.cli", "main", None),
    ("pjac.radial", "sobolev_energy_1d", None),
    ("pjac.radial", "profile_from_datum", None),
    ("pjac.energy", "build_grid", lambda a, r: {"nodes": len(r.nodes)}),
    ("pjac.energy", "region_energy", None),
    ("pjac.energy", "circle_energy", None),
    ("pjac.energy", "jacobian_residual", None),
    ("pjac.maps", "PlanarMap.jacobian", _points),
    ("pjac.constructions", "assemble_counterexample", None),
    ("pjac.regions", "quasi_random_points", lambda a, r: {"points": len(r)}),
    ("pjac.isoperimetry", "image_curve", None),
    ("pjac.isoperimetry", "isoperimetric_check", None),
    ("pjac.moser", "VectorField.direct_eval", _points),
    ("pjac.moser", "VectorField.eval", _points),
    ("pjac.moser", "MoserCorrector.sigma", _points),
    ("pjac.moser", "MoserCorrector.jacobian", _points),
    ("pjac.moser", "moser_flow", None),
    ("pjac.moser", "constant_jacobian_corrector", _corrector_iterations),
)


def rebind(module: str, path: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace a callable at each binding site; returns what to restore."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    original = owner.__dict__[attr]
    wrapper = make_wrapper(original)
    if outer:  # a method: the class is the only binding site
        sites = [owner]
    else:
        sites = [mod for name, mod in list(sys.modules.items())
                 if mod is not None and (name == "pjac" or name.startswith("pjac."))
                 and any(value is original for value in vars(mod).values())]
    restore = []
    for site in sites:
        for name, value in list(vars(site).items()):
            if value is original:
                setattr(site, name, wrapper)
                restore.append((site, name, original))
    return restore


def unbind(restore: list[tuple[object, str, object]]) -> None:
    for site, name, original in reversed(restore):
        setattr(site, name, original)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: int  # the job this span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    """Install with ``with tracer:``; spans accumulate in ``tracer.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrapper(self, name: str, count):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                span = Span(name, 0.0, 0.0, parent, self.run_id)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if count is not None:
                    span.counts = count(args, result)
                return result
            return traced
        return make

    def __enter__(self):
        for module, path, count in TRACED:
            name = f"{module.removeprefix('pjac.')}.{path}"
            self._restore += rebind(module, path, self._wrapper(name, count))
        return self

    def __exit__(self, *exc):
        unbind(self._restore)
        self._restore = []

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (span minus its children) and counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, children in zip(self.spans, child_time):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                entry[key] += value
        return totals

    def flow_points_under_jacobian(self) -> int:
        """Points flowed by sigma on behalf of MoserCorrector.jacobian."""
        return sum(
            span.counts.get("points", 0)
            for span in self.spans
            if span.name == "moser.MoserCorrector.sigma" and span.parent >= 0
            and self.spans[span.parent].name == "moser.MoserCorrector.jacobian"
        )

    def to_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.run_id, s.counts] for s in self.spans]
