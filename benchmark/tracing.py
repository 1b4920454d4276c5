"""In-memory spans around the calls one module makes into another.

A ``Tracer`` replaces a module attribute (``nmrassign.lp.formulate``, say)
with a wrapper that records one span per call: name, start, end, parent
span and instance id. The replacement is made on the module that *calls*
the function, so only calls through that lookup are traced; nothing in the
program itself changes. ``installed()`` restores every original attribute
on exit. Spans stay in memory until ``dump`` writes them out.

A wrapper may also carry a ``counts`` function that reads work counts from
the call's arguments and return value; they are stored on the span.
"""
from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: (args, kwargs, result) -> {counter name: value}
Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    instance: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._hooks: list[tuple[Any, str, str, Counter | None]] = []

    def hook(self, module: Any, attr: str, name: str, counts: Counter | None = None) -> None:
        """Trace calls to ``module.attr`` as spans named ``name``."""
        self._hooks.append((module, attr, name, counts))

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, counts in self._hooks:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, counts: Counter | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, self.instance, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for idx, span in enumerate(self.spans):
            covered, edge = 0.0, span.start
            for child in sorted(children.get(idx, ()), key=lambda s: s.start):
                lo, hi = max(child.start, edge), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span.duration - covered)
        return out

    def dump(self, path: Path) -> None:
        selfs = self.self_times()
        doc = [
            {
                "name": s.name,
                "instance": s.instance,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": own,
                "counts": s.counts,
            }
            for s, own in zip(self.spans, selfs)
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
