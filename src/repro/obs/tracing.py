"""Span tracing: nested, attributed timing of whole operations.

Where the registry answers "how many and how long *in aggregate*",
spans answer "what happened *inside this one operation*": a query span
contains its decode spans, a recovery span contains its replay span, and
the JSONL export reconstructs the tree from ``parent_id``.  This is the
Figure 5.9 decomposition applied to a single live request instead of an
averaged benchmark.

Spans are context managers and nest through a per-tracer stack::

    with tracer.span("query", table="emp") as outer:
        with tracer.span("decode"):        # parent_id == outer.span_id
            ...

The nesting stack is **context-local** (:class:`contextvars.ContextVar`),
so concurrent asyncio tasks and worker threads each nest independently —
the serving layer opens a span per request across thousands of
interleaved connections without tripping the strict-nesting check, which
only ever compares spans from the *same* logical execution context.
The finished-span ring buffer and id counter are latched, making
:meth:`Tracer.span` safe to call from any thread.

Finished spans land in a **ring buffer** (``capacity`` spans, oldest
evicted first) so a long-lived process can stay instrumented without
unbounded memory.  The clock is injectable for deterministic tests; the
default is ``time.perf_counter`` — this module and :mod:`repro.perf` are
the only places allowed to touch it (lint rule R008).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError

__all__ = ["DEFAULT_SPAN_CAPACITY", "Span", "Tracer"]

#: Finished spans retained by default.
DEFAULT_SPAN_CAPACITY = 1024

AttrValue = Union[str, int, float, bool, None]


class Span:
    """One timed operation: a name, a parent, attributes, and a window.

    Times are milliseconds on the tracer's clock (``perf_counter``-based
    by default, so only *differences* are meaningful).  Attributes are
    small scalars — block counts, paths, access-path names — attached at
    creation or via :meth:`set_attribute` while the span is open.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "start_ms",
        "end_ms",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        start_ms: float,
        attributes: Dict[str, AttrValue],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attributes = attributes

    @property
    def finished(self) -> bool:
        """Whether the span has ended."""
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds (0.0 while still open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def set_attribute(self, key: str, value: AttrValue) -> None:
        """Attach one attribute (allowed until the span is finished)."""
        if self.finished:
            raise ObservabilityError(
                f"span {self.name!r} is finished; attributes are frozen"
            )
        self.attributes[key] = value

    def as_dict(self) -> Dict[str, object]:
        """The span as one plain dict (JSONL exporter row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_ms:.3f} ms" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._tracer._finish(self._span, failed=exc_type is not None)


class Tracer:
    """Creates, nests, and retains spans.

    ``capacity`` bounds the ring buffer of *finished* spans; open spans
    live on the nesting stack until closed.  ``clock`` returns seconds
    (``perf_counter`` semantics) and exists so tests can drive time
    deterministically.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"tracer capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._clock = clock if clock is not None else time.perf_counter
        self._finished: Deque[Span] = deque(maxlen=capacity)
        # The nesting stack is context-local: each asyncio task and each
        # thread sees (and mutates) its own stack, so interleaved spans
        # from concurrent requests never trip the strict-nesting check.
        # Stored as an immutable tuple so a context inherited at task
        # creation shares no mutable state with its parent.
        self._stack_var: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro-span-stack", default=()
        )
        # Latch for the cross-context shared state: the id counter and
        # the finished-span ring buffer (reader threads finish spans).
        self._latch = threading.Lock()
        self._next_id = 1
        self._dropped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum finished spans retained."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring buffer so far."""
        return self._dropped

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span *in this context*, or ``None``."""
        stack = self._stack_var.get()
        return stack[-1] if stack else None

    def finished_spans(self) -> List[Span]:
        """Retained finished spans, oldest first."""
        with self._latch:
            return list(self._finished)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    def now_ms(self) -> float:
        """The tracer clock, in milliseconds."""
        return self._clock() * 1000.0

    def span(self, name: str, **attributes: AttrValue) -> _SpanContext:
        """Open a child of the current span (or a root span).

        Use as a context manager; the span ends when the block exits,
        and an exception escaping the block marks ``failed=True`` on the
        span's attributes before it is retained.
        """
        if not name:
            raise ObservabilityError("span name must be non-empty")
        with self._latch:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack_var.get()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=None if parent is None else parent.span_id,
            depth=len(stack),
            start_ms=self.now_ms(),
            attributes=dict(attributes),
        )
        self._stack_var.set(stack + (span,))
        return _SpanContext(self, span)

    def annotate(self, key: str, value: AttrValue) -> None:
        """Attach an attribute to the innermost open span (no-op outside)."""
        span = self.current_span
        if span is not None:
            span.set_attribute(key, value)

    def _finish(self, span: Span, *, failed: bool) -> None:
        stack = self._stack_var.get()
        if not stack or stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order (spans must "
                f"nest strictly within one task or thread)"
            )
        self._stack_var.set(stack[:-1])
        if failed:
            span.attributes["failed"] = True
        span.end_ms = self.now_ms()
        with self._latch:
            if len(self._finished) == self._capacity:
                self._dropped += 1
            self._finished.append(span)

    def reset(self) -> None:
        """Drop all retained spans (open spans are unaffected)."""
        with self._latch:
            self._finished.clear()
            self._dropped = 0

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------

    def stage_totals(self) -> Dict[str, float]:
        """``{span name: summed duration_ms}`` over retained spans.

        Per-stage wall time of a multi-phase run: bracket each stage in
        a span and read the totals here, instead of threading a timer
        object through every call.
        """
        totals: Dict[str, float] = {}
        with self._latch:
            for span in self._finished:
                totals[span.name] = (
                    totals.get(span.name, 0.0) + span.duration_ms
                )
        return totals
