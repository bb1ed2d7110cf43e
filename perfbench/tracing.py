"""Spans and counters recorded from outside the momaplan package.

A ``Tracer`` replaces functions and methods with timing or counting
wrappers. Callers inside the package import many names directly
(``from .feasibility import compute_feasibility_map``), so a function is
replaced at every binding that holds it: the defining module and every
``momaplan`` module that imported it. Methods are replaced on their class.
``remove`` puts every original back.

Spans are kept in memory as ``(name, phase, start, end, parent)`` tuples;
``parent`` is the index of the enclosing span or -1. The benchmark is
single-threaded, so one stack gives every span its parent.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# Called after a span ends with (result, args, kwargs, seconds).
OnResult = Callable[[Any, tuple, dict, float], None]


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "momaplan" or n.startswith("momaplan."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int] | None] = []
        self.counts: Counter[tuple[str, str]] = Counter()  # (phase, name)
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span_wrapper(self, name: str, fn: Callable, on_result: OnResult | None) -> Callable:
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.phase, start, end, parent)
            if on_result is not None:
                on_result(result, args, kwargs, end - start)
            return result

        return wrapper

    def _timer_wrapper(self, fn: Callable, on_result: OnResult) -> Callable:
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            on_result(result, args, kwargs, perf_counter() - start)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[(self.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    # -- installation

    def _rebind(self, module, attr: str, wrapped: Callable) -> None:
        original = getattr(module, attr)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def _set_method(self, cls: type, attr: str, wrapped: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def span_function(self, name: str, module, attr: str,
                      on_result: OnResult | None = None) -> None:
        """Time ``module.attr`` at every binding in the package."""
        self._rebind(module, attr, self._span_wrapper(name, getattr(module, attr), on_result))

    def time_function(self, module, attr: str, on_result: OnResult) -> None:
        """Pass each call's duration to ``on_result`` without keeping a span."""
        self._rebind(module, attr, self._timer_wrapper(getattr(module, attr), on_result))

    def span_method(self, name: str, cls: type, attr: str,
                    on_result: OnResult | None = None) -> None:
        self._set_method(cls, attr, self._span_wrapper(name, cls.__dict__[attr], on_result))

    def count_method(self, name: str, cls: type, attr: str) -> None:
        self._set_method(cls, attr, self._count_wrapper(name, cls.__dict__[attr]))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- summaries

    def stats(self, phase: str) -> dict[str, SpanStats]:
        """Calls, total and self seconds per span name within one phase.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a phase sum to its root spans'
        durations.
        """
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child_seconds[span[4]] += span[3] - span[2]
        out: dict[str, SpanStats] = {}
        for index, span in enumerate(self.spans):
            if span is None or span[1] != phase:
                continue
            name, _, start, end, _ = span
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.seconds += end - start
            st.self_seconds += end - start - child_seconds[index]
        return out

    def root_seconds(self, phase: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[1] == phase and s[4] < 0)
