"""In-memory spans recorded around the calls the benchmark makes into each layer.

A span is ``(name, start, end, parent)`` plus the run id every span of one
run shares.  Spans live in memory while the run measures and are written
out as JSON lines once it ends.  With tracing off, :meth:`Tracer.span`
records nothing and reads no clock.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool, label: str) -> None:
        self.enabled = enabled
        self.run_id = f"{label}-{uuid.uuid4().hex[:12]}"
        self.spans: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self, name: str, start: float, end: float, parent: Optional[int],
        **attrs,
    ) -> int:
        """Record a finished span (times on the ``perf_counter`` clock)."""
        span_id = self._reserve()
        self._fill(span_id, name, start, end, parent, attrs)
        return span_id

    def _reserve(self) -> int:
        """A new span id; its entry is filled in when the span ends."""
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def _fill(self, span_id, name, start, end, parent, attrs) -> None:
        with self._lock:
            self.spans[span_id] = {
                "run_id": self.run_id, "id": span_id, "name": name,
                "start": start, "end": end, "parent": parent, **attrs,
            }

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs) -> Iterator[Optional[int]]:
        """Time the enclosed block as a child of ``parent`` (default: this
        thread's innermost open span)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = self._reserve()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._fill(span_id, name, start, end, parent, attrs)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its children's union covers."""
        children: Dict[int, List[Dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
                lo = max(child["start"], cursor)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span["id"]] = (span["end"] - span["start"]) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
