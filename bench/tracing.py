"""In-memory spans recorded around calls into the package's layers.

A span is ``(span_id, parent_id, trace_id, name, layer, start, end)``. Spans
are kept in a list while the benchmark runs and written out once at the end.
Wrappers are installed from outside: ``patched`` swaps a module attribute for
a timing wrapper and restores it afterwards, so the package itself carries no
tracing code.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._trace_id: str | None = None
        self._next_id = 0

    @contextmanager
    def trace(self, trace_id: str):
        """Give every span opened inside the block the same trace id."""
        outer = self._trace_id
        self._trace_id = trace_id
        try:
            yield
        finally:
            self._trace_id = outer

    @contextmanager
    def span(self, name: str, layer: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self._trace_id, name, layer, start, end))

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return wrapper

    def wrap_iter(self, fn, name: str, layer: str):
        """Wrap a generator function: one span per item produced, so the
        consumer's work between items is not charged to the producer."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name, layer):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, layer, is_generator)``
        targets; the span name is ``<layer>.<attribute>``."""
        saved = []
        try:
            for module, attr, layer, is_gen in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                make = self.wrap_iter if is_gen else self.wrap
                setattr(module, attr, make(original, f"{layer}.{attr}", layer))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in spans of that layer, minus the time
        covered by their child spans (children never overlap: one thread)."""
        child_time: dict[int, float] = {}
        for span_id, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for span_id, _, _, _, layer, start, end in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "trace", "name", "layer", "start", "end")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
