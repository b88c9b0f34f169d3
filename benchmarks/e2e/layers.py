"""Per-layer metrics from a traced run's spans.

The layers are the ``repro`` packages, and a span's layer is the first
part of its name.  An "op" is one request on a served workload and one
container write-and-read in bulk-load; its time is what the benchmark
observed (send to answer, or the two calls).  A span's self time is its
duration minus its direct children's, so the self times of a request's
spans add up to the time its traced functions ran.  Each layer's time is
reported as its share of op time: the shares and the residual (time in
no traced function: sockets, the event loop, the generator) add up to
the op time, and a layer a workload never enters reads 0 without a time
that is always 0.  Nothing here imports ``repro``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

LAYERS = ("server", "db", "storage", "index", "core", "relational", "io")

_DECODES = {"core.decode_block", "core.decode_ordinals",
            "core.vec_decode_block", "core.vec_decode_ordinals"}
_VECTOR_DECODES = {"core.vec_decode_block", "core.vec_decode_ordinals"}
_ENCODES = {"core.encode_block", "core.encode_ordinals",
            "core.vec_encode_run"}


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: List[list], *, ops: int,
                  op_s: float) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json but the trace overhead.

    ``spans`` are ``(id, parent, name, start, end, thread, request,
    extra)`` as :mod:`tracing` records them; ``op_s`` is the ops' total
    observed time in seconds.  On a served workload only the spans of
    requests that ``decode_frame`` started count, so the pings that
    switch tracing on and off do not.
    """
    requests = {s[6] for s in spans if s[2] == "server.decode_frame"}
    spans = [s for s in spans if s[6] is None or s[6] in requests]
    name = {s[0]: s[2] for s in spans}
    child_s: Dict[int, float] = defaultdict(float)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for s in spans:
        child_s[s[1]] += s[4] - s[3]
        by_name[s[2]].append(s)
    # The executor shim records how long each call queued for a reader
    # thread: server time a request spends waiting, not in any span.
    waited = sum(s[7] for s in by_name["server.execute"])
    busy = dict.fromkeys(LAYERS, 0.0)
    busy["server"] = waited
    for s in spans:
        busy[s[2].split(".")[0]] += s[4] - s[3] - child_s[s[0]]

    def outermost(names: set) -> List[list]:
        return [s for n in names for s in by_name[n]
                if name.get(s[1]) not in names]

    selects = [s[7] for s in by_name["db.select"] if s[7] is not None]
    from_stash = [s[7] for s in by_name["storage.mvcc_read"]
                  if s[7] is not None]
    decodes = outermost(_DECODES)
    disk_writes = by_name["storage.disk_write"]
    metrics = {f"{layer}.time_share": busy[layer] / op_s
               for layer in LAYERS}
    metrics.update({
        "server.executor_wait_share": waited / op_s,
        "db.blocks_per_select": _mean(c[0] for c in selects),
        "db.tuples_examined_per_match": _per(sum(c[1] for c in selects),
                                             sum(c[2] for c in selects)),
        "storage.disk_reads_per_op": len(by_name["storage.disk_read"]) / ops,
        "storage.stash_read_frac": _mean(from_stash),
        "storage.disk_writes_per_op": len(disk_writes) / ops,
        "storage.bytes_written_per_op": sum(s[7] for s in disk_writes) / ops,
        "index.maint_per_op": len(by_name["index.maint"]) / ops,
        "core.decode_block_us": 1e6 * _mean(s[4] - s[3] for s in decodes),
        "core.decodes_per_op": len(decodes) / ops,
        "core.encodes_per_op": len(outermost(_ENCODES)) / ops,
        "core.vector_decode_frac": _per(
            sum(len(by_name[n]) for n in _VECTOR_DECODES), len(decodes)),
        "relational.rows_rendered": (
            len(by_name["relational.decode_tuple"]) / ops),
        "harness.op_ms": 1e3 * op_s / ops,
        "harness.residual_ms": 1e3 * (op_s - sum(busy.values())) / ops,
    })
    return metrics
