"""Per-module spans for eqlef, recorded from outside by wrapping its functions.

:meth:`Tracer.install` replaces each target with a wrapper: module-level
functions are rebound in every ``eqlef`` module that holds them (a name
imported with ``from .x import y`` is a separate binding), methods and
constructors are replaced on their class.  :meth:`Tracer.remove` puts every
original object back.  Wrappers record nothing unless ``enabled`` is set, so
the benchmark turns recording on only around the ops it times.

A span is ``[name, start, end, parent span index, op id]``; spans stay in
memory and :meth:`Tracer.write` saves them once the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import json
import pathlib
import sys
import time
from typing import Any, Callable

# (module, attribute path, span name).  The attribute path names a function
# of the module, or "Class.method".
SPAN_TARGETS = (
    ("complex_model", "load_complex", "complex_model.load_complex"),
    ("complex_model", "serialize_complex", "complex_model.serialize_complex"),
    ("complex_model", "IsoClassData.expand_matrix", "complex_model.expand_matrix"),
    ("equivariant_groups", "GroupRingMatrix.__matmul__", "equivariant_groups.matmul"),
    ("equivariant_groups", "FiniteGroup.__init__", "equivariant_groups.FiniteGroup"),
    ("equivariant_groups", "AutGroup.__init__", "equivariant_groups.AutGroup"),
    ("equivariant_groups", "conjugacy_classes_of_subgroups", "equivariant_groups.conjugacy_classes_of_subgroups"),
    ("equivariant_groups", "weyl_group", "equivariant_groups.weyl_group"),
    ("equivariant_groups", "twisted_classes", "equivariant_groups.twisted_classes"),
    ("equivariant_groups", "pi1_projection", "equivariant_groups.pi1_projection"),
    ("invariants", "KClass.from_terms", "invariants.KClass.from_terms"),
    ("invariants", "universal_invariant", "invariants.universal_invariant"),
    ("invariants", "lambda_invariant", "invariants.lambda_invariant"),
    ("invariants", "klein_williams", "invariants.klein_williams"),
    ("invariants", "reidemeister_trace", "invariants.reidemeister_trace"),
    ("invariants", "lefschetz_number", "invariants.lefschetz_number"),
    ("invariants", "vanishing_report", "invariants.vanishing_report"),
    ("invariants", "build_report", "invariants.build_report"),
    ("invariants", "render_report", "invariants.render_report"),
    ("exact_algebra", "char_poly", "exact_algebra.char_poly"),
    ("exact_algebra", "factor_over_Q", "exact_algebra.factor_over_Q"),
    ("uz", "class_of_matrix", "uz.class_of_matrix"),
    ("realize", "realize", "realize.realize"),
    ("cli", "main", "cli.main"),
)

# Constructors that are only counted: they run too often for a span each.
COUNT_TARGETS = (
    ("equivariant_groups", "GroupRingElement.__init__", "equivariant_groups.GroupRingElement.constructed"),
)

OP_SPAN = "bench.op"


def _expanded_cells(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["complex_model.expanded_cells"] += result.rows


def _entry_products(tracer: "Tracer", args: tuple, result: Any) -> None:
    left, right = args
    inner = left.cols
    left_nonzero = [0] * inner
    for index, entry in enumerate(left.entries):
        if entry.terms:
            left_nonzero[index % inner] += 1
    total = 0
    for i in range(inner):
        if left_nonzero[i]:
            total += left_nonzero[i] * sum(1 for e in right.row(i) if e.terms)
    tracer.counts["equivariant_groups.matmul.entry_products"] += total


def _kclass_result(tracer: "Tracer", args: tuple, result: Any) -> None:
    largest = max((matrix.rows for matrix, _ in result.terms), default=0)
    tracer.maxima["invariants.kclass.max_block"] = max(tracer.maxima["invariants.kclass.max_block"], largest)
    tracer.counts["invariants.kclass.inexact"] += not result.exact


def _char_poly_size(tracer: "Tracer", args: tuple, result: Any) -> None:
    size = args[0].rows
    tracer.maxima["exact_algebra.char_poly.max_n"] = max(tracer.maxima["exact_algebra.char_poly.max_n"], size)


# Counters read off a span's arguments and result after the span has ended.
AFTER = {
    "complex_model.expand_matrix": _expanded_cells,
    "equivariant_groups.matmul": _entry_products,
    "invariants.KClass.from_terms": _kclass_result,
    "exact_algebra.char_poly": _char_poly_size,
}


class Tracer:
    """Installs the wrappers, records spans and counts, and summarizes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.maxima: collections.Counter = collections.Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name: str, func: Callable) -> Callable:
        after = AFTER.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items() if key == "eqlef" or key.startswith("eqlef.")]
        targets = [(t, self._span_wrapper) for t in SPAN_TARGETS]
        targets += [(t, self._count_wrapper) for t in COUNT_TARGETS]
        for (module_name, path, name), make in targets:
            module = sys.modules[f"eqlef.{module_name}"]
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                if isinstance(original, classmethod):
                    self._patch(owner, method, classmethod(make(name, original.__func__)))
                else:
                    self._patch(owner, method, make(name, original))
                continue
            original = getattr(module, path)
            wrapper = make(name, original)
            for holder in modules:
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attribute, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- recording ------------------------------------------------------

    def run_op(self, op_id: int, func: Callable[[], Any]) -> Any:
        """Call ``func`` under a root span, recording spans only inside it."""
        self._op = op_id
        self.enabled = True
        try:
            return self._span_wrapper(OP_SPAN, func)()
        finally:
            self.enabled = False
            self._op = None

    # -- summaries ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms (outermost spans only) and self ms."""
        children = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] is not None:
                children[record[3]] += record[2] - record[1]
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration = end - start
            row["calls"] += 1
            row["self_ms"] += (duration - children[index]) * 1e3
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                row["ms"] += duration * 1e3
        return table

    def write(self, path: pathlib.Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {
                "name": name,
                "start_ms": round((start - origin) * 1e3, 4),
                "end_ms": round((end - origin) * 1e3, 4),
                "parent": parent,
                "op": op,
            }
            for name, start, end, parent, op in self.spans
        ]
        path.write_text(json.dumps(records) + "\n", encoding="utf-8")
