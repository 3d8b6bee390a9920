"""Outside-in tracing: timing wrappers put over pcsimp's public functions.

pcsimp looks its functions up by name at call time (module globals, module
attributes, class attributes), so a wrapper set into the namespace that a
caller reads is seen by calls made inside the package too, and no source
file changes. Each call records a span (name, start, end, parent span).
Spans stay in memory until the run writes them out once, at its end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr with a wrapper that records a span named `name`."""
        original = owner.__dict__[attr]
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0, open_[-1] if open_ else None))
            open_.append(sid)
            try:
                return original(*args, **kwargs)
            finally:
                open_.pop()
                spans[sid].end = time.perf_counter()

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original function back, last wrapped first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> dict[str, float]:
        """Per name: the sum of span durations minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child_time):
            out[s.name] += (s.end - s.start) - covered
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def inclusive_under(self, name: str, ancestor: str) -> float:
        """Total duration of `name` spans that run inside an `ancestor` span."""
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                total += s.end - s.start
        return total

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}) + "\n")
