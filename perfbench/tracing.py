"""In-memory span tracing of glycast's layers, patched in from outside the package.

A span is recorded around every call of a wrapped function: its name, the
layer (the glycast module that defines the function), start, end, the span
that was open when it began, and the operation it belongs to. Spans stay in
memory; `write_jsonl` writes them out once the run has ended.

Functions are wrapped at the name where their caller looks them up (a module
global or an imported name), and restored when `Tracer.patched` exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

CountFn = Callable[[inspect.BoundArguments, object], dict]


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    op: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WrapPoint:
    """A function looked up as `module.attr`, with optional work counters.

    `count` receives the bound call arguments and the result and returns
    counters to attach to the span; `keep` stores results for later analysis.
    """

    module: str
    attr: str
    count: Optional[CountFn] = None
    keep: bool = False


def layer_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", "") or ""
    return module[len("glycast."):] if module.startswith("glycast.") else module


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.kept: dict[str, list] = {}
        self.op = "-"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, layer, self.op, parent, self.clock())
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, fn: Callable, point: WrapPoint) -> Callable:
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn) if point.count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record.counts = point.count(bound, result)
                if point.keep:
                    self.kept.setdefault(name, []).append(result)
                return result

        return traced

    @contextlib.contextmanager
    def patched(self, points: Iterable[WrapPoint]):
        """Replace each wrap point by its traced version; restore on exit."""
        originals = []
        try:
            for point in points:
                module = importlib.import_module(point.module)
                fn = getattr(module, point.attr)
                originals.append((module, point.attr, fn))
                setattr(module, point.attr, self.wrap(fn, point))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write_jsonl(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "layer": s.layer, "op": s.op,
                    "parent": s.parent, "start": s.start, "end": s.end, "counts": s.counts,
                }, sort_keys=True) + "\n")


def covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(s.start, s.end, children.get(s.span_id, ()))
        for s in spans
    }


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.span_id]
    return totals
