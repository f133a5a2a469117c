"""Spans and counters recorded around the benchmark's calls into the package.

A ``Tracer`` keeps every span in memory (name, start, end, parent span and
operation id) and writes them out once, when the run ends.  ``NULL`` has the
same interface and records nothing; untraced passes use it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self.op = tr.op
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self.tracer.stack.pop()


class _NullSpan:
    __slots__ = ("name",)

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullTracer:
    op = None

    def span(self, name: str) -> _NullSpan:
        return _NullSpan()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = _NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: str | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def totals(self, first: int = 0) -> dict[str, float]:
        """Seconds spent in each span name, over spans ``first`` onwards."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans[first:]:
            out[s.name] += s.end - s.start
        return out

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))
