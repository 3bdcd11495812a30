"""Wall-clock spans recorded around calls into the program's layers.

The benchmark never edits the program to trace it. It records a span
around each call it makes into a layer, or around a layer entry point it
wraps on one object (a delegating scheduler, an engine method). Spans are
kept in memory as plain records: name, start, end, parent and, for the
serving workload, a request id.

A span's *self time* is its duration minus the durations of its direct
children. Synchronous children never overlap, so self times partition
the root span: whatever the root keeps for itself is time no layer span
covered, reported as unattributed. Request spans of the serving workload
overlap each other (32 callers are in flight at once), so they are
recorded *detached*: they carry latency, not attribution.
"""

from __future__ import annotations

import asyncio
import collections.abc
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "detached")

    def __init__(self, name, start, parent, request_id=None, detached=False):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.detached = detached

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request_id": self.request_id,
        }


class _Open:
    """Context manager closing one span (cheaper than @contextmanager)."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> int:
        return self.index

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


class Tracer:
    """In-memory span store with a stack of open synchronous spans."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )

    def span(self, name: str) -> _Open:
        return _Open(self, self.open(name))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one synchronous span per call."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def detached(
        self, name: str, start: float, end: float, request_id: int
    ) -> None:
        """One overlapping span under the current root (latency only)."""
        span = Span(
            name,
            start,
            self._stack[0] if self._stack else None,
            request_id=request_id,
            detached=True,
        )
        span.end = end
        self.spans.append(span)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and not span.detached:
                covered[span.parent] += span.seconds
        totals: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span.detached:
                continue
            entry = totals.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span.seconds
            entry["self_s"] += span.seconds - covered[index]
        return totals


class NullTracer(Tracer):
    """Tracing off: no span is kept and nothing gets wrapped."""

    enabled = False

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def detached(self, name, start, end, request_id) -> None:
        pass


# ----------------------------------------------------------------------
# asyncio task steps
# ----------------------------------------------------------------------
class _StepTimedCoroutine(collections.abc.Coroutine):
    """Delegates to a coroutine, recording one span per task step.

    An event loop runs one task step at a time, so step spans never
    overlap: every stretch of a pass that some task was executing lands
    in a step span, and what is left is the loop's own scheduling.
    """

    __slots__ = ("_coro", "_tracer", "_name")

    def __init__(self, coro, tracer: Tracer, name: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name

    def send(self, value):
        index = self._tracer.open(self._name)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.close(index)

    def throw(self, *args):
        index = self._tracer.open(self._name)
        try:
            return self._coro.throw(*args)
        finally:
            self._tracer.close(index)

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self._coro.__await__()


def step_timing_factory(tracer: Tracer, name_of: Callable[[object], str]):
    """An asyncio task factory wrapping each task's coroutine in step spans.

    ``name_of(coro)`` names the step spans of the task running ``coro``.
    """

    def factory(loop, coro, context: Optional[object] = None):
        timed = _StepTimedCoroutine(coro, tracer, name_of(coro))
        if context is None:
            return asyncio.Task(timed, loop=loop)
        return asyncio.Task(timed, loop=loop, context=context)

    return factory
