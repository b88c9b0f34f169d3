"""The bulk-load workload's program side: container write and read back.

Usage: ``python bulk.py --seed N --seconds S --work DIR [--trace SPANS.json]``
with the measured ``src`` on ``PYTHONPATH``.  It writes one JSON result
object to ``DIR/bulk.json``.

Two relations, both made with numpy from the seed:

* the Fig 5.7 test-3 relation (15 attributes, every domain 4, uniform),
  whose ordinal space fits 64 bits, so the vectorized codec runs;
* the Section 5.2 timing relation (ten 2^12 and six 2^18 domains, an
  ordinal space of 2^228), which the scalar codec must take.

One operation is a cycle: ``write_avq_file`` then ``read_avq_file`` of
each relation, with the read-back compared to the sorted input.  Each
cycle first builds both relations with ``Relation.from_array``, the
set-up, timed separately.  Cycles repeat for the given seconds after
one untimed warm-up cycle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

VECTOR_SIZES = (4,) * 15
SCALAR_SIZES = (1 << 12,) * 10 + (1 << 18,) * 6
VECTOR_TUPLES = 20_000
SCALAR_TUPLES = 2_000
#: Idle time before each timed step (see ``pause`` in :func:`main`).
PAUSE_S = 0.02


def fixed_width_bytes(sizes) -> int:
    """Fig 5.7 width: each field in the fewest whole bytes for its domain."""
    return sum(max(1, ((s - 1).bit_length() + 7) // 8) for s in sizes)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", default=None, metavar="SPANS.json")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--wrong", action="store_true",
                        help="corrupt one expected tuple (checker test)")
    opts = parser.parse_args()

    recorder = None
    if opts.trace is not None:
        import tracing

        recorder = tracing.install(tracing.CODEC_TARGETS, serving=False)
    import repro
    from repro.io import format as avq
    from repro.relational.domain import IntegerRangeDomain
    from repro.relational.relation import Relation
    from repro.relational.schema import Attribute, Schema

    specs = [("vector", VECTOR_SIZES, int(VECTOR_TUPLES * opts.scale)),
             ("scalar", SCALAR_SIZES, int(SCALAR_TUPLES * opts.scale))]
    arrays, schemas, expected = [], [], []
    for i, (_, sizes, n) in enumerate(specs):
        rng = np.random.default_rng([opts.seed, 10 + i])
        array = np.stack([rng.integers(0, s, n) for s in sizes], axis=1)
        arrays.append(array)
        schemas.append(Schema([Attribute(f"A{j + 1}", IntegerRangeDomain(0, s - 1))
                               for j, s in enumerate(sizes)]))
        expected.append(array[np.lexsort(array.T[::-1])])
    if opts.wrong:
        expected[0][0, 0] ^= 1

    clock = time.perf_counter
    calls = {f"{name}_{op}_s": [] for name, _, _ in specs
             for op in ("write", "read")}
    result = {"repro": repro.__file__, "setups": [], "cycles": [],
              "untraced_cycles": [], "attempted": 0, "failed": 0,
              "tuples_per_cycle": sum(n for _, _, n in specs), **calls}
    for name, _, n in specs:
        result[f"{name}_tuples"] = n

    def pause() -> None:
        """Start a timed step from a collected heap, so it does not pay
        for an earlier step's garbage, and on a CPU that idled for a
        moment, so the speed probe timed it just before."""
        gc.collect()
        time.sleep(PAUSE_S)

    def cycle(timed: bool) -> list:
        """Build both relations, then write and read back each one.

        Returns ``[start, end, seconds spent in the container calls]``.
        Building is the set-up, timed in every cycle so its median spans
        the whole run.  A traced run records spans around the container
        calls of timed cycles only.
        """
        pause()
        t0 = clock()
        relations = [Relation.from_array(s, a) for s, a in zip(schemas, arrays)]
        if timed:
            result["setups"].append([t0, clock()])
        start, spent = None, 0.0
        for (name, _, _), relation, want in zip(specs, relations, expected):
            path = os.path.join(opts.work, f"{name}.avq")
            pause()
            if recorder is not None:
                recorder.active = timed
            t0 = clock()
            avq.write_avq_file(path, relation)
            t1 = clock()
            back = avq.read_avq_file(path)
            t2 = clock()
            if recorder is not None:
                recorder.active = False
            start = t0 if start is None else start
            spent += t2 - t0
            result["attempted"] += 2
            if len(back) != len(want) or not np.array_equal(back.to_array(),
                                                            want):
                result["failed"] += 1
            if timed:
                calls[f"{name}_write_s"].append(t1 - t0)
                calls[f"{name}_read_s"].append(t2 - t1)
            if name == "vector":
                result["vector_file_bytes"] = os.path.getsize(path)
                result["vector_fixed_width_bytes"] = (
                    len(want) * fixed_width_bytes(VECTOR_SIZES))
        return [start, t2, spent]

    cycle(False)
    phases = [("cycles", opts.seconds)]
    if recorder is not None:
        phases = [("untraced_cycles", opts.seconds / 2),
                  ("cycles", opts.seconds / 2)]
    for key, seconds in phases:
        end = clock() + seconds
        while clock() < end or len(result[key]) < 3:
            result[key].append(cycle(key == "cycles"))
    if recorder is not None:
        recorder.dump(opts.trace)
    with open(os.path.join(opts.work, "bulk.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
