"""Spans around calls into splicekit's public functions, from outside.

The library binds names directly (``from .graph import ...``), so a wrapper
replaces every module-level binding of the function in every loaded
splicekit module, and class attributes for methods. Spans stay in memory;
the per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

from splicekit.conditions import SearchBudget


def _semigroup(report) -> dict:
    return {"checks": len(report.edges), "undecided": sum(e.truncated for e in report.edges)}


def _congruence(report) -> dict:
    return {
        "checks": len(report.edges),
        "undecided": sum(e.truncated for e in report.edges),
        "tested": sum(e.tested for e in report.edges),
        "witnesses": sum(e.witness is not None for e in report.edges),
    }


def _condition_3_3(report) -> dict:
    search = [d for d in report.decisions if d.method == "search"]
    return {
        "checks": len(search),
        "undecided": sum(d.truncated for d in search),
        "fallbacks": len(search),
    }


# span name -> (module, attribute path, observer of the return value)
TARGETS: dict[str, tuple[str, str, Callable[[Any], dict] | None]] = {
    "cli.main": ("splicekit.cli", "main", None),
    "document.load_document": ("splicekit.document", "load_document", None),
    "reporting.analysis_report": ("splicekit.reporting", "analysis_report", None),
    "reporting.render_json": ("splicekit.reporting", "render_json", None),
    "graph.is_negative_definite": ("splicekit.graph", "is_negative_definite", None),
    "graph.graph_determinant": ("splicekit.graph", "graph_determinant", None),
    "linalg.determinant": ("splicekit.linalg", "determinant", None),
    "linalg.smith_normal_form": ("splicekit.linalg", "smith_normal_form", None),
    "linalg.invert_rational": ("splicekit.linalg", "invert_rational", None),
    "splice.subtree_determinants": ("splicekit.splice", "subtree_determinants", None),
    "splice.splice_from_resolution": ("splicekit.splice", "splice_from_resolution", None),
    "splice.maximal_splice": ("splicekit.splice", "maximal_splice", None),
    "splice.linking_matrix": ("splicekit.splice", "linking_matrix", None),
    "splice.linking_numbers": ("splicekit.splice", "linking_numbers", None),
    "discriminant.pairing_matrix": ("splicekit.discriminant", "pairing_matrix", None),
    "discriminant.leaf_generators": ("splicekit.discriminant", "leaf_generators", None),
    "discriminant.group_order_check": ("splicekit.discriminant", "group_order_check", None),
    "discriminant.enumerate_elements": (
        "splicekit.discriminant", "DiscriminantGroup.enumerate_elements",
        lambda r: {"elements": len(r)},
    ),
    "conditions.check_semigroup": ("splicekit.conditions", "check_semigroup", _semigroup),
    "conditions.check_congruence": ("splicekit.conditions", "check_congruence", _congruence),
    "cycles.dual_cycles": ("splicekit.cycles", "dual_cycles", None),
    "cycles.fundamental_cycle": ("splicekit.cycles", "fundamental_cycle", None),
    "cycles.construct_monomial_cycle": (
        "splicekit.cycles", "construct_monomial_cycle", lambda r: {"iterations": r.iterations},
    ),
    "cycles.check_condition_3_3": ("splicekit.cycles", "check_condition_3_3", _condition_3_3),
    "cycles.check_condition_3_4": ("splicekit.cycles", "check_condition_3_4", None),
    "equations.build_equations": ("splicekit.equations", "build_equations", None),
}


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "attrs", "budgets")

    def __init__(self, id: int, name: str, op: int | None, parent: int | None):
        self.id, self.name, self.op, self.parent = id, name, op, parent
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: dict = {}
        self.budgets: list[tuple[SearchBudget, int]] = []

    def close(self) -> None:
        self.end = time.perf_counter()
        if self.budgets:
            self.attrs["search_nodes"] = sum(n - b.remaining for b, n in self.budgets)
            self.attrs["budgets_exhausted"] = sum(b.exhausted for b, _ in self.budgets)
            self.budgets = []

    def as_list(self) -> list:
        return [self.id, self.name, self.op, self.parent, self.start, self.end, self.attrs]


class Tracer:
    """Context manager that wraps TARGETS while active; `op` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, self.op, parent)
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._open.pop()
                span.close()
            if observe is not None:
                span.attrs.update(observe(result))
            return result

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "splicekit"]
        for name, (module, path, observe) in TARGETS.items():
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._set(cls, attr, self._wrap(name, getattr(cls, attr), observe))
                continue
            original = getattr(sys.modules[module], path)
            wrapper = self._wrap(name, original, observe)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        init = SearchBudget.__init__

        def budget_init(budget, nodes):
            init(budget, nodes)
            if self._open:
                self._open[-1].budgets.append((budget, nodes))

        self._set(SearchBudget, "__init__", budget_init)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_list()) + "\n")


# per_layer metric -> unit; the order BENCHMARK.json lists them in.
LAYER_UNITS = {
    "graph.is_negative_definite.calls": "count",
    "graph.is_negative_definite.self_s": "s",
    "graph.graph_determinant.calls": "count",
    "graph.graph_determinant.self_s": "s",
    "linalg.determinant.calls": "count",
    "linalg.determinant.self_s": "s",
    "linalg.smith_normal_form.self_s": "s",
    "discriminant.pairing_matrix.calls": "count",
    "discriminant.pairing_matrix.self_s": "s",
    "linalg.invert_rational.self_s": "s",
    "cycles.dual_cycles.calls": "count",
    "splice.subtree_determinants.calls": "count",
    "splice.subtree_determinants.self_s": "s",
    "splice.linking_matrix.self_s": "s",
    "splice.linking_numbers.calls": "count",
    "discriminant.enumerate_elements.calls": "count",
    "discriminant.enumerate_elements.self_s": "s",
    "discriminant.elements_enumerated": "count",
    "discriminant.group_order_check.self_s": "s",
    "discriminant.cap_exceeded": "count",
    "conditions.check_semigroup.self_s": "s",
    "conditions.check_congruence.self_s": "s",
    "conditions.search_nodes": "count",
    "conditions.budgets_exhausted": "count",
    "conditions.candidates_tested": "count",
    "conditions.witnesses_per_candidate": "ratio",
    "conditions.undecided_frac": "ratio",
    "cycles.check_condition_3_3.self_s": "s",
    "cycles.construct_monomial_cycle.calls": "count",
    "cycles.construct_monomial_cycle.self_s": "s",
    "cycles.monomial_iterations": "count",
    "cycles.search_fallbacks": "count",
    "cycles.fundamental_cycle.calls": "count",
    "cycles.fundamental_cycle.self_s": "s",
    "cycles.check_condition_3_4.self_s": "s",
    "equations.build_equations.calls": "count",
    "equations.build_equations.self_s": "s",
    "reporting.analysis_report.self_s": "s",
    "reporting.render_json.self_s": "s",
    "document.load_document.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], ops: int, overhead_s: float) -> dict[str, float]:
    """Per-operation means over `ops` traced operations, except the two
    ratios, which are taken over all their attempts. `overhead_s` is the
    traced minus the untraced time of the same operations."""
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    attrs: defaultdict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += duration
        if span.parent is not None:
            self_s[spans[span.parent].name] -= duration
        for key, value in span.attrs.items():
            if key == "raised":
                attrs[span.name, value] += 1
            else:
                attrs[span.name, key] += value

    def total(key: str) -> int:
        return sum(v for (_, k), v in attrs.items() if k == key)

    derived = {
        "discriminant.elements_enumerated": attrs["discriminant.enumerate_elements", "elements"],
        "discriminant.cap_exceeded": attrs["discriminant.enumerate_elements", "CapExceeded"],
        "conditions.search_nodes": total("search_nodes"),
        "conditions.budgets_exhausted": total("budgets_exhausted"),
        "conditions.candidates_tested": total("tested"),
        "cycles.monomial_iterations": attrs["cycles.construct_monomial_cycle", "iterations"],
        "cycles.search_fallbacks": attrs["cycles.check_condition_3_3", "fallbacks"],
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in LAYER_UNITS:
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[name] / ops
        elif field == "self_s":
            out[metric] = self_s[name] / ops
        elif metric in derived:
            out[metric] = derived[metric] / ops
    tested, checks = total("tested"), total("checks")
    out["conditions.witnesses_per_candidate"] = total("witnesses") / tested if tested else 0.0
    out["conditions.undecided_frac"] = total("undecided") / checks if checks else 0.0
    return {metric: out[metric] for metric in LAYER_UNITS}
