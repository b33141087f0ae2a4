"""Spans around the program's public layer functions, installed from outside.

`install` rebinds module and class attributes of the imported program to
timing wrappers; nothing under src/ changes.  A span's parent is the
innermost wrapped call that was running when it started.  Spans are
aggregated in memory per (name, parent) into calls, total seconds and self
seconds (total minus the time covered by child spans); the worker reads
them once after set-up and once when its passes end.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name).  A name imported with `from .x import f`
# is a separate binding in the importing module, so each caller's binding is
# listed where the program calls through it.
FUNCTION_SPANS = [
    ("splitcheck.cli", "run_case", "cli.run_case"),
    ("splitcheck.cli", "parse_presentation", "ring.parse_presentation"),
    ("splitcheck.cli", "matches_targets", "charclass.matches_targets"),
    ("splitcheck.cli", "enumerate_splittings", "search.enumerate_splittings"),
    ("splitcheck.cli", "chi_y", "genus.chi_y"),
    ("splitcheck.cli", "obstruct_tangent_rep", "repcat.obstruct_tangent_rep"),
    ("splitcheck.cli", "catalog_irreps", "repcat.catalog_irreps"),
    ("splitcheck.search", "derive_bounds", "search.derive_bounds"),
    ("splitcheck.search", "first_pontryagin", "charclass.first_pontryagin"),
    ("splitcheck.search", "euler_class", "charclass.euler_class"),
    ("splitcheck.search", "total_chern", "charclass.total_chern"),
    ("splitcheck.search", "normal_form", "ring.normal_form"),
    ("splitcheck.charclass", "first_pontryagin", "charclass.first_pontryagin"),
    ("splitcheck.charclass", "euler_class", "charclass.euler_class"),
    ("splitcheck.charclass", "total_chern", "charclass.total_chern"),
    ("splitcheck.charclass", "ring_mul", "ring.ring_mul"),
    ("splitcheck.charclass", "normal_form", "ring.normal_form"),
    ("splitcheck.ring", "parse_presentation", "ring.parse_presentation"),
    ("splitcheck.ring", "check_confluence", "ring.check_confluence"),
    ("splitcheck.ring", "ring_mul", "ring.ring_mul"),
    ("splitcheck.ring", "normal_form", "ring.normal_form"),
    ("splitcheck.genus", "chi_y", "genus.chi_y"),
    ("splitcheck.genus", "chi_y_scaled", "genus.chi_y_scaled"),
    ("splitcheck.genus", "signature_direct", "genus.signature_direct"),
    ("splitcheck.genus", "top_chern_integral", "genus.top_chern_integral"),
    ("splitcheck.genus", "ring_mul", "ring.ring_mul"),
    ("splitcheck.genus", "series_exp_neg", "series.series_exp_neg"),
    ("splitcheck.genus", "series_todd_factor", "series.series_todd_factor"),
    ("splitcheck.genus", "series_tanh_factor", "series.series_tanh_factor"),
    ("splitcheck.genus", "series_scaled_argument", "series.series_scaled_argument"),
    ("splitcheck.repcat", "catalog_irreps", "repcat.catalog_irreps"),
    ("splitcheck.report", "canonical_bytes", "report.canonical_bytes"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("splitcheck.ring", "RingPresentation", "reduce_monomial", "ring.reduce_monomial"),
    ("splitcheck.series", "TruncatedSeries", "__mul__", "series.TruncatedSeries.__mul__"),
    ("splitcheck.series", "TruncatedSeries", "divide", "series.TruncatedSeries.divide"),
]


class Tracer:
    """In-memory span aggregate plus counters read off returned values."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = spans.get((name, parent))
                if row is None:
                    row = spans[(name, parent)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def take(self) -> dict:
        """Return the spans and counters so far and start a fresh aggregate."""
        out = {
            "spans": [[name, parent, *row] for (name, parent), row in self.spans.items()],
            "counters": dict(self.counters),
        }
        self.spans.clear()
        self.counters.clear()
        return out


def install(tracer: Tracer) -> None:
    """Rebind the program's layer functions to traced wrappers."""
    on_result = {
        "search.enumerate_splittings": lambda cert: (
            tracer.count("search.visited", cert.visited),
            tracer.count("search.solutions", cert.solution_count),
        ),
        "repcat.obstruct_tangent_rep": lambda res: tracer.count("repcat.multisets", len(res.traces)),
        "report.canonical_bytes": lambda blob: tracer.count("report.bytes", len(blob)),
    }
    for module_name, attr, name in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result.get(name)))
    for module_name, cls_name, attr, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
