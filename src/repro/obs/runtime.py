"""The process-wide observability switch and hot-path helpers.

Observability is **off by default**: ``REGISTRY`` and ``TRACER`` are
``None``, and every instrumented call site guards with one module
attribute load plus an ``is None`` test before doing anything else.
That guard is the entire disabled-mode cost — the acceptance bar is a
< 5 % throughput delta on the codec benchmarks, and a pointer compare
per *block* operation is far below it.

Enable explicitly::

    from repro.obs import runtime
    registry, tracer = runtime.enable()
    ... run queries, scrubs, loads ...
    print(export.stats_table(registry))
    runtime.disable()

or scoped (tests, experiment drivers, the CLI)::

    with runtime.scoped() as (registry, tracer):
        ...

Every codec path runs in-process, so every block operation reports to
the one registry (docs/OBSERVABILITY.md).

``now_ms`` wraps ``time.perf_counter`` so instrumented modules never
touch the wall clock themselves — lint rule R008 confines raw clock
calls to :mod:`repro.perf` and :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import ContextManager, Iterator, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import DEFAULT_SPAN_CAPACITY, AttrValue, Span, Tracer

__all__ = [
    "REGISTRY",
    "TRACER",
    "disable",
    "enable",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "now_ms",
    "scoped",
    "span",
]

#: The active registry, or ``None`` when observability is off.  Hot
#: paths read this attribute directly (``runtime.REGISTRY``) — do not
#: rebind it except through :func:`enable`/:func:`disable`.
REGISTRY: Optional[MetricsRegistry] = None  # repro: shared-state[process-wide observability switch; rebound only by enable/disable/scoped, single-threaded today and latched before the serving layer forks]

#: The active tracer, or ``None`` when observability is off.
TRACER: Optional[Tracer] = None  # repro: shared-state[process-wide tracing switch; rebound only by enable/disable/scoped, same latching plan as REGISTRY]


def now_ms() -> float:
    """Milliseconds on the monotonic clock (differences only)."""
    return time.perf_counter() * 1000.0


def enable(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    *,
    span_capacity: int = DEFAULT_SPAN_CAPACITY,
) -> Tuple[MetricsRegistry, Tracer]:
    """Turn observability on, installing (or creating) the instruments.

    Idempotent in the useful sense: passing no arguments while already
    enabled keeps the existing instruments, so libraries may call
    ``enable()`` defensively without clobbering a caller's registry.
    """
    global REGISTRY, TRACER
    if registry is not None:
        REGISTRY = registry
    elif REGISTRY is None:
        REGISTRY = MetricsRegistry()
    if tracer is not None:
        TRACER = tracer
    elif TRACER is None:
        TRACER = Tracer(span_capacity)
    return REGISTRY, TRACER


def disable() -> None:
    """Turn observability off (instruments are dropped, not reset)."""
    global REGISTRY, TRACER
    REGISTRY = None
    TRACER = None


def is_enabled() -> bool:
    """Whether a registry is currently installed."""
    return REGISTRY is not None


def get_registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None``."""
    return REGISTRY


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None``."""
    return TRACER


@contextmanager
def scoped(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    *,
    span_capacity: int = DEFAULT_SPAN_CAPACITY,
) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Enable fresh instruments for a block, restoring the prior state.

    Always installs *new* instruments (unless given explicitly), so a
    scoped measurement never mixes with whatever was active outside —
    the experiment drivers use this to isolate one run's metrics.
    """
    global REGISTRY, TRACER
    prior = (REGISTRY, TRACER)
    REGISTRY = registry if registry is not None else MetricsRegistry()
    TRACER = tracer if tracer is not None else Tracer(span_capacity)
    try:
        yield REGISTRY, TRACER
    finally:
        REGISTRY, TRACER = prior


class _NullSpanContext:
    """A reusable no-op stand-in for a span when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


def span(
    name: str, **attributes: AttrValue
) -> ContextManager[Union[Span, None]]:
    """A span on the active tracer, or a shared no-op when disabled.

    The convenience form for coarse call sites (a whole query, a scrub
    pass, a CLI command)::

        with runtime.span("scrub.pass", blocks=n):
            ...

    Per-block hot paths should instead guard on ``runtime.REGISTRY``
    and record histogram observations — constructing a span per block
    would dominate the work being measured.
    """
    tracer = TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)
