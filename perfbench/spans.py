"""In-memory spans recorded around calls into the engine's modules.

A span has an id, a name, start and end (perf_counter seconds), the id
of the span that was open when it started, the id of the request it
belongs to, and facts read from the call's result (such as rows out).
Spans are kept in memory and written out once, when the run ends.

Layers are timed from outside: `patched` swaps a module attribute (a
public function or class of a layer) for a wrapper that records a span
around each call, and restores it afterwards. Because the engine looks
these names up in its module globals at call time, calls made inside
the engine are caught as well, and nest under their caller's span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    facts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._request = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, self._request, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def request(self, name: str):
        """A top-level span that opens a new request id."""
        if self._open:
            raise RuntimeError("a request cannot nest inside another span")
        self._request += 1
        with self.span(name) as s:
            yield s

    def wrap(self, fn, name: str, facts=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if facts is not None:
                s.facts.update(facts(out))
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Record spans around (module, attribute, span name, facts) targets.

        A target whose attribute the module no longer has is skipped; its
        layer then reads as never called.
        """
        saved = []
        try:
            for module, attr, name, facts in targets:
                if hasattr(module, attr):
                    orig = getattr(module, attr)
                    saved.append((module, attr, orig))
                    setattr(module, attr, self.wrap(orig, name, facts))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def requests(self) -> list[int]:
        """Ids of the requests opened so far (1, 2, ...)."""
        return list(range(1, self._request + 1))

    def self_times(self, request: int) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover.

        Children of one span run one after another in this single thread,
        so the time they cover is the sum of their durations.
        """
        own = [s for s in self.spans if s.request == request]
        child_time: dict[int, float] = {}
        for s in own:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, float] = {}
        for s in own:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time.get(s.id, 0.0)
        return out

    def fact_sum(self, request: int, name: str, key: str) -> int:
        return sum(s.facts.get(key, 0) for s in self.spans if s.request == request and s.name == name)

    def durations(self, request: int, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.request == request and s.name == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
