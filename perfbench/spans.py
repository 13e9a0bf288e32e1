"""Span recording for the traced run, installed from outside the program.

``Tracer.install`` replaces each layer's public function, in every
``taydel`` module that binds it, by a wrapper that records one span per
call (name, start, end, parent span, problem id) and counts the work the
call returned.  ``expr.eval_series``, ``expr.eval_numeric`` and
``Series.__post_init__`` get plain call counters.  Spans stay in memory
until ``dump`` writes them; ``uninstall`` restores every original, so an
untraced run never executes a wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps

from taydel import expr as ex
from taydel.series import Series

# (module, function) for every layer boundary the traced run records
LAYER_FUNCTIONS = (
    ("problemfile", "load_problem"),
    ("problem", "check_h2"),
    ("problem", "check_compatibility"),
    ("problem", "compute_validity"),
    ("reduce", "substitute_history"),
    ("engine", "solve_reduced"),
    ("engine", "estimate_error"),
    ("oracle", "integrate_reference"),
    ("oracle", "compare"),
    ("cli", "main"),
)
CALL_COUNTERS = (
    ("expr", "eval_series", "expr.eval_series_calls"),
    ("expr", "eval_numeric", "expr.eval_numeric_calls"),
)


def _known_leaves(node) -> int:
    if isinstance(node, ex.KnownSeries):
        return 1
    if isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        return _known_leaves(node.left) + _known_leaves(node.right)
    if isinstance(node, ex.Neg):
        return _known_leaves(node.operand)
    if isinstance(node, ex.Pow):
        return _known_leaves(node.base)
    if isinstance(node, ex.Func):
        return _known_leaves(node.arg)
    return 0


def _count_result(name: str, result, counts: Counter) -> None:
    """Work counts read off a layer's return value at its boundary."""
    if name == "engine.solve_reduced":
        counts["engine.coeffs"] += sum(len(s.coeffs) for s in result.series)
        counts["engine.coeffs"] += len(result.tail)
        counts["engine.pivots"] += len(result.pivot_log)
    elif name == "reduce.substitute_history":
        counts["reduce.leaves"] += sum(_known_leaves(eq) for eq in result.equations)
    elif name == "oracle.integrate_reference":
        counts["oracle.steps"] += len(result.times) - 1
        counts["oracle.extrapolated_lookups"] += result.extrapolated_lookups


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, problem id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, problem: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if problem is None and parent >= 0:
            problem = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, problem]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _layer_wrapper(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _count_result(name, result, self.counts)
            return result

        return traced

    def _counter_wrapper(self, key: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "taydel" and not module_name.startswith("taydel."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        taydel_modules = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name.startswith("taydel.")
        }
        for module_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(taydel_modules[module_name], fn_name)
            self._replace_everywhere(
                original, self._layer_wrapper(f"{module_name}.{fn_name}", original)
            )
        for module_name, fn_name, key in CALL_COUNTERS:
            original = getattr(taydel_modules[module_name], fn_name)
            self._replace_everywhere(original, self._counter_wrapper(key, original))
        post_init = Series.__post_init__
        self._restore.append((Series, "__post_init__", post_init))
        counts = self.counts

        def counted_post_init(series):
            counts["series.constructed"] += 1
            post_init(series)

        Series.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path, meta: dict) -> None:
        payload = dict(meta, counts=dict(self.counts), spans=self.spans)
        path.write_text(json.dumps(payload))
