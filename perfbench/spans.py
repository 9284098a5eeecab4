"""In-memory span tracing of gridloop's public calls, installed from outside.

A traced pass replaces each function at the module attribute where its
caller looks it up (``gridloop.experiment:simulate`` is the name the
experiment module imported; ``gridloop.classifiers:RandomForest.fit`` is a
method on its class) with a wrapper that records one span per call:
its name, start, end, parent span and unit id. Spans stay in a list until
the run writes them out. ``uninstall`` puts the original attributes back.

A target that no longer exists is recorded in ``missing`` and skipped, so
a renamed function shows up in the report instead of crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Counters", "NullTracer", "Point", "Tracer", "layer_totals"]


@dataclass(frozen=True)
class Point:
    """One wrapped attribute: ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.

    ``unit`` maps the call's bound arguments to a unit id (the span inherits
    its parent's unit when it returns None). ``count`` reads model counters
    from the bound arguments and the result after the call returns.
    """

    target: str
    layer: str
    unit: Callable | None = None
    count: Callable | None = None


class Counters:
    """Named integer counters, each combined by sum, max or min."""

    def __init__(self):
        self.values: dict[str, int] = {}

    def add(self, name: str, value, how: str = "sum") -> None:
        value = int(value)
        if name not in self.values:
            self.values[name] = value
        elif how == "sum":
            self.values[name] += value
        elif how == "max":
            self.values[name] = max(self.values[name], value)
        elif how == "min":
            self.values[name] = min(self.values[name], value)
        else:
            raise ValueError(f"unknown combine rule {how!r}")


class NullTracer:
    """Stands in for a tracer in untraced passes: spans cost nothing."""

    def span(self, name: str, unit=None):
        return contextlib.nullcontext()


class Tracer:
    """Collects spans as ``[name, start, end, parent, unit]`` lists."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters = Counters()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, unit) -> int:
        parent = self._stack[-1] if self._stack else -1
        if unit is None and parent >= 0:
            unit = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, unit])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, unit=None):
        idx = self._open(name, unit)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, point: Point) -> Callable:
        sig = inspect.signature(fn) if (point.unit or point.count) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            unit = point.unit(bound.arguments) if point.unit else None
            idx = self._open(point.layer, unit)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if point.count:
                with self.span("bench.counters"):
                    try:
                        point.count(self.counters, bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, IndexError) as exc:
                        note = f"counters of {point.target}: {exc!r}"
                        if note not in self.missing:
                            self.missing.append(note)
            return result

        return wrapper

    def install(self, points) -> None:
        for point in points:
            module_name, _, path = point.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(point.target)
                continue
            had_own = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, point))
            self._restore.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_totals(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one tree sum to its root's duration.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + (end - start) - child[i], calls + 1)
    return totals
