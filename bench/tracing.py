"""Outside-in tracing of the fbsde layers.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
wraps the public functions of each layer module (and the point-query
methods of ``SolutionField``) by rebinding module and class attributes,
so every ``from .x import f`` copy inside the package is replaced too;
:meth:`Tracer.remove` puts the originals back.

Every wrapped call updates an in-memory aggregate per name: calls,
total seconds and self seconds (span time minus the time covered by
child spans).  Calls of the stage functions in :data:`STAGES` are also
kept as span records (id, parent id, name, start, end), so one run's
stage tree can be written out when it ends.  High-frequency calls
(per-line tridiagonal solves, point queries) stay aggregate-only, which
keeps the tracing overhead near a microsecond per call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

LAYERS = ("catalog", "problem", "operators", "solver", "grid", "paths", "pipeline", "cli")

# (layer, class, methods) wrapped on the class itself
METHODS = (("solver", "SolutionField", ("value", "gradient", "nonlocal_table")),)

# calls kept as span records, besides the aggregates
STAGES = frozenset(
    {
        "cli.main",
        "cli.run",
        "catalog.build_problem",
        "problem.check_ellipticity",
        "problem.check_growth",
        "solver.solve_final_value",
        "solver.check_max_principle",
        "paths.simulate_ensemble",
        "pipeline.link_ensemble",
        "pipeline.bsde_residual",
        "pipeline.estimate_class_s_norm",
        "pipeline.ito_residuals",
    }
)


def _interpolated_points(result) -> dict:
    return {"grid.multilinear_interpolate.points": result.shape[0]}


def _increment_rows(result) -> dict:
    return {"paths.euler_increment.rows": result.shape[0]}


def _ensemble_counts(result) -> dict:
    jumps = sum(len(p.events) for p in result)
    return {
        "paths.jump_events": jumps,
        # each jump splits one Euler substep in two
        "paths.substeps": sum(p.n_steps for p in result) + jumps,
        "paths.exited": sum(bool(p.exited) for p in result),
    }


def _field_counts(result) -> dict:
    field = result[0]
    return {
        "solver.time_levels": len(field.times),
        "solver.field_bytes": field.values.nbytes + field.gradients.nbytes,
    }


# counters read off a wrapped call's result
RESULT_COUNTERS: dict[str, Callable] = {
    "grid.multilinear_interpolate": _interpolated_points,
    "paths.euler_increment": _increment_rows,
    "paths.simulate_ensemble": _ensemble_counts,
    "solver.solve_final_value": _field_counts,
}


def rebind(original, replacement) -> list:
    """Point every ``fbsde`` module attribute bound to ``original`` at ``replacement``.

    Returns the ``(namespace, attribute, original)`` triples that undo it.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fbsde" or name.startswith("fbsde.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


def layer_functions(module) -> list:
    """Public functions a layer module defines itself (not re-exports)."""
    out = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((attr, obj))
    return out


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list = []  # (id, parent_id, name, start, end)
        self._stack: list[list] = []  # open calls: [start, child_s, span_id]
        self._undo: list = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls aggregated under ``name``.

        A call's self time is its duration minus the durations of the
        wrapped calls made inside it; calls never overlap because the
        program is single-threaded.
        """
        counter = RESULT_COUNTERS.get(name)
        record = name in STAGES
        clock, stack, spans = self.clock, self._stack, self.spans
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if record:
                span_id = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    spans[span_id] = (span_id, parent, name, frame[0], end)
            if counter is not None:
                for key, amount in counter(result).items():
                    self.count(key, amount)
            return result

        return traced

    # installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions and the SolutionField queries."""
        import importlib

        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"fbsde.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, fn in layer_functions(module):
                self._undo += rebind(fn, self.wrap(f"{layer}.{attr}", fn))
        for layer, cls_name, methods in METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))
                self._undo.append((cls, meth, fn))

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []

    # results ---------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat ``<name>.calls`` / ``.s`` / ``.self_s`` plus the counters."""
        out: dict[str, float] = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        out.update(self.counts)
        return out
