"""Span tracing installed from outside the program.

``install`` replaces the public names that ``tracedet.verify`` and
``tracedet.cli`` bind with wrappers that record one span per call.  Only the
module attributes change; nothing under ``src/`` is edited, and ``uninstall``
puts the original functions back.  Calls a module makes to its own helpers
(for example ``det_dp`` inside ``symmat``) are not seen, so each span marks a
layer boundary as the callers above it see it.

Each span is ``(span_id, parent_id, name, start, end)`` with times from
``time.perf_counter``.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Wrapped name -> the layer metric its self time is charged to.
LAYER_OF = {
    "cli.run": "cli.self",
    "cli.render_report": "cli.render_report",
    "verify_thm1": "verify.self",
    "verify_thm3_family": "verify.self",
    "verify_magnus_numeric": "verify.self",
    "verify_magnus_original": "verify.self",
    "verify_thm2": "verify.self",
    "verify_trace_relation": "verify.self",
    "build_thm1": "identbuild.build",
    "build_thm3": "identbuild.build",
    "build_inner_minor": "identbuild.build",
    "apply_specialization": "identbuild.build",
    "det_dp": "symmat.det_dp",
    "det_perm_oracle": "symmat.det_perm_oracle",
    "pfaffian_split": "symmat.pfaffian_split",
    "random_sl2z": "sl2exact.random_sl2z",
    "random_sl2_gaussian": "sl2exact.random_sl2_gaussian",
    "build_magnus_matrices": "sl2exact.build",
    "build_thm2_D": "sl2exact.build",
    "trace_matrix": "sl2exact.build",
    "exact_det": "sl2exact.exact_det",
    "left_kernel": "sl2exact.left_kernel",
    "mat_mul_vec_left": "sl2exact.mat_mul_vec_left",
    "trace_relation_check": "sl2exact.trace_relation_check",
    "bench.pass": "bench.self",
}

# Module -> the names in it that get wrapped.  Span names are the bare
# function names, except the two cli functions, which are prefixed.
WRAPPED = {
    "tracedet.verify": (
        "build_thm1", "build_thm3", "build_inner_minor", "apply_specialization",
        "det_dp", "det_perm_oracle", "pfaffian_split",
        "random_sl2z", "random_sl2_gaussian",
        "build_magnus_matrices", "build_thm2_D", "trace_matrix",
        "exact_det", "left_kernel", "mat_mul_vec_left", "trace_relation_check",
    ),
    "tracedet.cli": (
        "verify_thm1", "verify_thm3_family", "verify_magnus_numeric",
        "verify_magnus_original", "verify_thm2", "verify_trace_relation",
        "render_report", "run",
    ),
}


class Tracer:
    """In-memory span recorder plus the work counts taken at the same
    boundaries (determinant term counts, zero determinants)."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every name in ``WRAPPED``; ``modules`` maps module names to
        the imported module objects."""
        hooks = {
            "det_dp": self._count_terms,
            "exact_det": self._count_zero,
        }
        for mod_name, names in WRAPPED.items():
            module = modules[mod_name]
            for name in names:
                original = getattr(module, name)
                span_name = f"cli.{name}" if name in ("run", "render_report") else name
                self._saved.append((module, name, original))
                setattr(module, name, self.span(span_name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _count_terms(self, poly) -> None:
        self.counts["symmat.det_dp.terms_out"] += poly.num_terms()

    def _count_zero(self, value) -> None:
        self.counts["sl2exact.exact_det.zeros"] += 0 if value else 1

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self milliseconds and call counts per layer, and the wall time of
        the root spans in milliseconds.  Self time is a span's duration minus
        that of its direct children; calls never overlap in this single
        threaded program, so the self times sum to the root wall time."""
        child_ms: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1000.0
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        wall_ms = 0.0
        for span_id, parent, name, start, end in self.spans:
            dur = (end - start) * 1000.0
            layer = LAYER_OF[name]
            self_ms[layer] += dur - child_ms[span_id]
            calls[layer] += 1
            if parent is None:
                wall_ms += dur
        return dict(self_ms), dict(calls), wall_ms

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
