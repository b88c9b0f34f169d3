"""The speed probe: how fast the program's CPU runs right now.

The host's virtual CPUs change speed by up to 2x for seconds to minutes
at a time, each on its own (other machines' load: a fixed loop on one
CPU ran between 1.8 and 2.8 ms, and the two CPUs' speeds correlated at
0.2).  No run is long enough to average that out, so every time the
benchmark reports is taken at a fixed speed of the probe: each measured
interval is multiplied by :data:`NOMINAL_CHUNK_S` over the probe's chunk
time on the program's CPU next to that interval.  The probe is a fixed
piece of interpreter work, like most of the program's.  The measured
times are kept too.

The probe runs as the busy loop that keeps the program's CPU awake (see
``process.py``): at ``SCHED_IDLE`` priority it only runs when the
program does not, so it costs the program nothing, and it times every
chunk it completes.  The chunk time next to an interval is the median
of the :data:`ADJACENT` chunks that ended last before it and the
:data:`ADJACENT` that started first after it; a chunk that overlaps the
interval is left out, since the program's work interrupted it.  The
benchmark leaves the program's CPU idle for a moment before and after
each interval it times, so those chunks exist.  Of the estimators tried
on the same recorded runs (a low quantile or the median of all chunks
within 0.1 or 0.5 s, 10 to 100 adjacent chunks), this one left the
least run-to-run spread in request latencies and cycle times.

The probe's chunk time does not depend on the program's working set: a
neighbour on its CPU that alternated between a small array and 64 MiB of
random reads every 2.5 s moved the probe's chunk time by 1%, with the
neighbour busy a fifth or 40% of the time.

Usage (started by the benchmark): ``python probe.py OUT.npy`` times
chunks until SIGTERM, then saves their end times and durations.
"""

from __future__ import annotations

import signal
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

#: The scale in which times are reported: a chunk's duration on an idle
#: CPU of the host the baseline was recorded on, in a calm spell, so a
#: reported time there reads about as measured.
NOMINAL_CHUNK_S = 0.0005
#: Chunks taken on each side of an interval.
ADJACENT = 20


def chunk(array: np.ndarray, index: np.ndarray) -> int:
    """A fixed piece of work: objects, a sort with a key function, and
    a numpy gather from ``array`` (4 MiB) at ``index``."""
    table: Dict[str, Tuple[int, int]] = {}
    for i in range(1500):
        table[str(i)] = (i, 2 * i)
    ranked = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    return len(ranked) + int(array[index].sum())


class Speed:
    """The probe's record: chunk end times and durations, in seconds."""

    def __init__(self, ends: np.ndarray, durations: np.ndarray):
        order = np.argsort(ends)
        self._ends = ends[order]
        self._durations = durations[order]
        self._starts = self._ends - self._durations

    @classmethod
    def load(cls, path: str) -> "Speed":
        ends, durations = np.load(path)
        return cls(ends, durations)

    def chunk_s(self, t0: float, t1: float) -> float:
        """The probe's chunk time next to ``[t0, t1]``."""
        before = np.searchsorted(self._ends, t0, side="right")
        after = np.searchsorted(self._starts, t1)
        near = np.concatenate((
            self._durations[max(0, before - ADJACENT):before],
            self._durations[after:after + ADJACENT]))
        if not len(near):
            raise RuntimeError("the speed probe recorded no chunk")
        return float(np.median(near))

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over ``[t0, t1]``, at the nominal speed."""
        return seconds * NOMINAL_CHUNK_S / self.chunk_s(t0, t1)


def main(path: str) -> int:
    stop: List[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    array = np.arange(1 << 19, dtype=np.int64)
    index = np.random.default_rng(0).integers(0, len(array), 8000)
    clock = time.perf_counter
    ends: List[float] = []
    durations: List[float] = []
    while not stop:
        t0 = clock()
        chunk(array, index)
        t1 = clock()
        ends.append(t1)
        durations.append(t1 - t0)
    np.save(path, np.array([ends, durations]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
