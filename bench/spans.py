"""In-memory spans around the benchmark's own calls into each layer.

A span is (name, start_ns, end_ns, parent index, count): ``count`` is the
number of identical calls or items the span covers, so a batch of calls
gives a per-call time.  Spans are kept in memory and written once, when
the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from typing import Dict, List


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, count]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> List[int]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def medians_us(self) -> Dict[str, float]:
        """Span name -> median of duration / count, in microseconds."""
        per_count: Dict[str, List[float]] = {}
        for name, start, end, _, count in self.spans:
            per_count.setdefault(name, []).append((end - start) / 1e3 / count)
        return {k: statistics.median(v) for k, v in per_count.items()}

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, count), own in zip(self.spans, selfs):
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "count": count,
                                     "self_ns": own}) + "\n")


class NullRecorder:
    """The untraced path: spans cost one shared no-op context manager."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, count: int = 1):
        return self._NULL
