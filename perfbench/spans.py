"""In-memory spans around calls into lahoc's modules, and the per-layer
metrics derived from them.

Each lahoc module imports the functions it calls by name, so a function is
wrapped in the namespace of the module that calls it (for example
`sham_engine.build_rule`, not `laguerre_basis.build_rule`). A wrapped name
that a module no longer has is reported as absent; the metrics that depend on
it then read zero.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result):
    spec, rule = args[0], args[1]
    return spec.dim * rule.n_points


def _pinv(args, kwargs, result):
    return int(getattr(result, "pinv", None) is not None)


def _orders(args, kwargs, result):
    return len(result.tail_norms) - 1


def _newton(args, kwargs, result):
    return result.newton_iters


# (module, attribute, counters) -- the span is named "<module>.<attribute>";
# each counter maps (args, kwargs, result) of one call to a number.
WRAPPED: tuple[tuple[str, str, tuple[tuple[str, Callable], ...]], ...] = (
    ("sham_engine", "build_rule", ()),
    ("sham_engine", "interpolate", ()),
    ("sham_engine", "assemble_operator",
     (("sham_engine.operator_rows", _rows), ("sham_engine.pinv_operators", _pinv))),
    ("sham_engine", "cauchy_order_term", ()),
    ("sham_engine", "deformation_step", ()),
    ("ocp_model", "interpolate", ()),
    ("ocp_model", "run_sham", (("sham_engine.orders", _orders),)),
    ("ocp_model", "solve_ocp", ()),
    ("ocp_model", "evaluate_cost", ()),
    ("ocp_model", "optimal_control", ()),
    ("ocp_model", "derive_tpbvp", ()),
    ("oracle_bvp", "solve_truncated", (("oracle_bvp.newton_iters", _newton),)),
    ("oracle_bvp", "compare", ()),
    ("cli", "main", ()),
    ("cli", "solve_ocp", ()),
)

# per-layer metric -> spans whose self time it sums, per operation
SELF_TIME = {
    "laguerre_basis.build_rule_s": ("sham_engine.build_rule",),
    "laguerre_basis.interpolate_s": ("sham_engine.interpolate", "ocp_model.interpolate"),
    "sham_engine.assemble_s": ("sham_engine.assemble_operator",),
    "sham_engine.nonlinear_s": ("sham_engine.cauchy_order_term",),
    "sham_engine.order_solve_s": ("sham_engine.deformation_step",),
    "sham_engine.run_sham_self_s": ("ocp_model.run_sham",),
    "ocp_model.solve_ocp_self_s": ("ocp_model.solve_ocp", "cli.solve_ocp"),
    "ocp_model.cost_eval_s": ("ocp_model.evaluate_cost", "ocp_model.optimal_control"),
    "ocp_model.derive_s": ("ocp_model.derive_tpbvp",),
    "oracle_bvp.solve_s": ("oracle_bvp.solve_truncated",),
    "oracle_bvp.compare_s": ("oracle_bvp.compare",),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> spans it counts, per operation
CALLS = {
    "laguerre_basis.build_rule_calls": ("sham_engine.build_rule",),
    "sham_engine.assemble_calls": ("sham_engine.assemble_operator",),
    "sham_engine.nonlinear_calls": ("sham_engine.cauchy_order_term",),
    "cli.rows": ("cli.solve_ocp",),
}

# per-layer metrics summed from the counters in WRAPPED, per operation
COUNTERS = tuple(sorted({key for _, _, counters in WRAPPED for key, _ in counters}))

METRICS = (*SELF_TIME, *CALLS, *COUNTERS)


class Tracer:
    """Records a span for every call of a wrapped function made inside
    `operation()`; calls made outside it pass straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, Callable]] = []

    def install(self, modules: dict[str, object], wrapped=WRAPPED) -> None:
        for mod_name, attr, counters in wrapped:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn, counters))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def operation(self, op: int):
        self._op = op
        try:
            yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if self._op is None:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counters) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            for key, count in counters:
                try:
                    span.counts[key] = count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the call's signature or result changed: count absent
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def per_op_layers(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each operation that recorded spans."""
    selfs = self_times(spans)
    metric_of = {name: m for m, names in SELF_TIME.items() for name in names}
    count_of = {name: m for m, names in CALLS.items() for name in names}
    zero = dict.fromkeys(METRICS, 0.0)
    ops: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        row = ops.setdefault(span.op, dict(zero))
        if span.name in metric_of:
            row[metric_of[span.name]] += own
        if span.name in count_of:
            row[count_of[span.name]] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0.0) + value
    return ops


def layer_means(spans: list[Span]) -> dict[str, float]:
    """Mean over operations of every per-layer metric; the self times of one
    operation add up to its traced time, and so do their means."""
    rows = list(per_op_layers(spans).values())
    if not rows:
        return {}
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
