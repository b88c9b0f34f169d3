"""Wall-clock timing helpers matching the paper's Section 5.2 method.

"For each of them, we perform the coding 100 times, and then the
decoding 100 times.  The average times for each operation are then
computed."  :func:`mean_time_ms` is exactly that.  Per-stage totals of
a multi-phase run come from spans instead
(:meth:`repro.obs.tracing.Tracer.stage_totals`).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ReproError

__all__ = ["mean_time_ms"]


def mean_time_ms(fn: Callable[[], object], repeats: int = 100) -> float:
    """Mean wall-clock milliseconds of ``fn()`` over ``repeats`` runs."""
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    elapsed = time.perf_counter() - start
    return elapsed * 1000.0 / repeats
