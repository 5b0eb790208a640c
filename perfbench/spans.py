"""Outside-in span recording for the benchmark's traced run.

The program under test carries no tracing of its own yet, so the traced run
records spans from here: :class:`SpanRecorder` wraps the public functions and
methods of one layer at a time and records one :class:`Span` per call (name,
start, end, parent span, thread).  Spans stay in memory and are written out
when the run ends.

Parents are tracked per thread: a span opened on the swarm's prebuild thread
never becomes a child of the main thread's round span, so a round's self time
(span time minus the time its own children cover) is the time it spent
waiting, not the time another thread spent working.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span of its thread
    thread: int
    cpu: float  # thread CPU seconds inside the span
    count: int  # work items the call carried (scalars, bytes, ...)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans of wrapped calls; undoes every patch on :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, count: int = 0):
        """One span around the ``with`` body; the body may set ``cell[0]``
        to the work count once it is known (e.g. reply bytes)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        cell = [count]
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield cell
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), cpu, cell[0])
            )

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        count: Callable[..., int] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``name`` may be a function of the call's arguments (one wrapper that
        files calls under several names); ``count`` maps the arguments to
        the number of work items the call carries.
        """

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            items = count(*args, **kwargs) if count is not None else 0
            with self.span(label, items):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name, count=None, *, static: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`.

        ``owner`` may be an instance (the wrapper shadows the bound method)
        or a class (every instance is affected); ``static`` stores the wrapper
        as a staticmethod, for wrapping an already-bound classmethod.
        """
        wrapper = self.wrap(getattr(owner, attr), name, count)
        self._replace(owner, attr, staticmethod(wrapper) if static else wrapper)

    def timed_iter(self, owner, attr: str, name: str) -> None:
        """Wrap a generator method so that each item pull is one span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        self._replace(owner, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        saved = vars(owner)[attr] if had_own else None
        setattr(owner, attr, value)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def on_undo(self, undo: Callable[[], None]) -> None:
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


# ---------------------------------------------------------------- arithmetic


def union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_seconds(
    spans: list[Span],
    name: str,
    child: Callable[[Span], bool] = lambda span: True,
) -> float:
    """Summed self time of every span called ``name``.

    Self time is the span's duration minus the part of it covered by its
    child spans (those selected by ``child``), clipped to the span, so
    overlapping or nested children are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        covered = union_seconds(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if child(c) and c.end > span.start and c.start < span.end
        )
        total += span.seconds - covered
    return total


def total_seconds(spans: list[Span], name: str, *, cpu: bool = False) -> float:
    return sum(s.cpu if cpu else s.seconds for s in spans if s.name == name)


def total_count(spans: list[Span], name: str) -> int:
    return sum(s.count for s in spans if s.name == name)


def overlap_seconds(intervals: list[tuple[float, float]], depth: int = 2) -> float:
    """Time during which at least ``depth`` of the intervals are open."""
    events = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
    )
    open_now = 0
    since = 0.0
    total = 0.0
    for moment, delta in events:
        if open_now >= depth:
            total += moment - since
        open_now += delta
        since = moment
    return total
