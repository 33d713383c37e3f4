"""Span recorder for the traced benchmark run.

One span per public library call the benchmark makes: name, start, end,
parent span and operation id, plus counts read from the call's return value.
Spans stay in memory and are written out when the run ends.  With tracing
off, :meth:`Tracer.call` is a plain call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args,
             counts: Optional[Callable[[Any], dict[str, int]]] = None):
        """``fn(*args)``, recorded as span ``name`` when tracing is on."""
        if not self.enabled:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if counts is not None:
            span.counts = counts(out)
        return out

    @contextmanager
    def patched(self, module, names: dict[str, tuple[str, Optional[Callable]]]):
        """Route calls that ``module`` makes through its own imported names
        into spans: ``names`` maps attribute -> (span name, counts)."""
        if not self.enabled:
            yield
            return
        saved = {attr: getattr(module, attr) for attr in names}

        def wrap(attr):
            fn = saved[attr]
            span_name, counts = names[attr]
            return lambda *args: self.call(span_name, fn, *args, counts=counts)

        try:
            for attr in names:
                setattr(module, attr, wrap(attr))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": own,
                    "counts": s.counts}) + "\n")
