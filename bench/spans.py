"""In-memory spans around the benchmark's calls into the program.

A traced run records, for each call, its name, start, end, parent span and
job id; nothing is written until the run ends.  A disabled tracer hands
out one shared no-op context manager, so untraced runs pay almost nothing.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    job: int | None
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False


_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job: int | None = None
        # (start, seconds) of interruptions that belong to no span, such as
        # host-speed sampling; left out of the self time of the span they hit
        self.pauses: list[tuple[float, float]] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.job, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self, job_scale: list[float] | None = None) -> list[float]:
        """Each span's duration less the time covered by its direct children
        and by the pauses that fell inside it and in none of its children;
        with `job_scale`, times the scale of the span's job."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        starts = [s.start for s in self.spans]   # spans are recorded in start order
        for at, seconds in self.pauses:
            i = bisect.bisect_right(starts, at) - 1
            while i is not None and i >= 0 and self.spans[i].end <= at:
                i = self.spans[i].parent
            if i is not None and i >= 0:
                covered[i] += seconds
        return [((s.end - s.start) - c) * (1.0 if job_scale is None else job_scale[s.job])
                for s, c in zip(self.spans, covered)]

    def self_times(self, job_scale: list[float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: summed self time, call count and failed count."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "calls": 0, "failed": 0})
        for s, busy in zip(self.spans, self.self_seconds(job_scale)):
            row = out[s.name]
            row["busy_s"] += busy
            row["calls"] += 1
            row["failed"] += int(s.failed)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "job": s.job, "parent": s.parent,
                                     "start": s.start, "end": s.end, "failed": s.failed}) + "\n")
