"""The three served workloads and the run that drives each one.

A run starts the unmodified ``python -m repro serve <csv>:bench --port 0``
(default flags) in a child process, drives it over two connections from
this process, checks every answer against numpy-computed expectations,
and stops the server with SIGINT.  A traced run starts
``traced_serve.py`` instead, which wraps the program's public functions
with timing spans.
"""

from __future__ import annotations

import asyncio
import os
import sys
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from client import Connection, LoadGenerator, Op, now
from data import (
    BLOCK_BYTES,
    FIXED_WIDTH_BYTES,
    KEY_MAX,
    VALUE_MAX,
    Answers,
    make_rows,
    same_rows,
    write_csv,
    zipf_keys,
)
from process import Child, wait_ready

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = "bench"
CONNECTIONS = 2
#: Requests each connection keeps outstanding while saturating.
WINDOW = 4
#: Seconds at the nominal rate in each round; a saturated batch follows.
#: The host runs for seconds at a time up to 70% slower; short
#: alternating rounds spread both measurements over the whole run, so
#: such a spell moves a few rounds of each, not all of one.
ROUND_S = 2.0
#: Share of the measured seconds at the nominal rate.
NOMINAL_SHARE = 0.8
#: The program's CPU is left idle this long before and after each set-up
#: and each part of a saturated batch, so the speed probe times chunks
#: right next to it (see ``probe.py``).
QUIET_S = 0.05
#: A saturated batch is sent in this many parts: the probe cannot time
#: the CPU while the program keeps it busy, so shorter busy spells are
#: scaled by a speed closer to the one they ran at.
BATCH_PARTS = 5
#: Every tenth read-only select has its rows checked in full.
FULL_CHECK_EVERY = 10


def _select(attribute: str, value: int) -> Dict[str, Any]:
    return {"op": "select", "table": TABLE,
            "predicates": [{"attribute": attribute, "lo": value,
                            "hi": value}]}


class ServedWorkload:
    """Table, request stream and answer checks of one served workload."""

    name = ""
    rows = 0
    #: Nominal open-loop rate, requests per second.
    rate = 0.0
    #: Requests in each saturated batch (about half a second's worth).
    batch = 0
    read_only = True

    def __init__(self, seed: int, *, rows: Optional[int] = None):
        self.seed = seed
        self.table = make_rows(np.random.default_rng([seed, 1]),
                               rows or self.rows)
        self.answers = Answers(self.table)
        self.rng = np.random.default_rng([seed, 2])
        self.keys = zipf_keys(self.rng, 1 << 16)
        self.n = 0
        self.failures: Dict[str, int] = {}
        self.inserted = 0
        self.deleted = 0
        self._wrong = 0

    def fail(self, reason: str) -> bool:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        return False

    def next_key(self) -> int:
        key = int(self.keys[self.n % len(self.keys)])
        self.n += 1
        return key

    def corrupt_one_answer(self) -> None:
        """Expect one wrong count: the checker's own negative test."""
        self._wrong = 1

    def expected(self, count: int) -> int:
        wrong, self._wrong = self._wrong, 0
        return count + wrong

    def ok(self, response: Dict[str, Any]) -> bool:
        if response.get("status") == "ok":
            return True
        return self.fail(f"status {response.get('status')}:"
                         f"{response.get('code')}")

    def next_op(self, conn: int) -> Op:
        raise NotImplementedError

    def answer(self, op: Op, response: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def key_count(self, key: int) -> int:
        return int(self.answers.key_counts[key])

    def check_count(self, response: Dict[str, Any], want: int) -> bool:
        if not self.ok(response):
            return False
        want = self.expected(want)
        rows = response.get("rows")
        if (response.get("count") != want or not isinstance(rows, list)
                or len(rows) != want):
            return self.fail("wrong count")
        return True

    def check_rows(self, response: Dict[str, Any],
                   want: List[List[int]]) -> bool:
        if not same_rows(response["rows"], want):
            return self.fail("wrong rows")
        return True

    async def final_checks(self, conn: Connection, keys: int) -> Tuple[int, int]:
        """Table size and per-key counts after the load; (attempted, failed)."""
        failed = 0
        schema = await conn.call({"op": "schema", "table": TABLE})
        want_tuples = len(self.table) + self.inserted - self.deleted
        if not self.ok(schema) or schema.get("tuples") != want_tuples:
            self.fail("table size")
            failed += 1
        sample = np.concatenate([
            self.rng.choice(KEY_MAX + 1, keys // 2, replace=False),
            self.rng.choice(self.keys, keys - keys // 2),
        ])
        for key in sample.tolist():
            response = await conn.call(_select("A1", key))
            good = self.check_count(response, self.key_count(key))
            if good and self.read_only:
                good = self.check_rows(response, self.answers.key_rows(key))
            failed += not good
        return 1 + len(sample), failed


class PointHot(ServedWorkload):
    name = "point-hot"
    rows = 200_000
    rate = 100.0
    batch = 250

    def next_op(self, conn: int) -> Op:
        key = self.next_key()
        return Op("select", _select("A1", key),
                  (key, self.n % FULL_CHECK_EVERY == 0))

    def answer(self, op: Op, response: Dict[str, Any]) -> bool:
        key, full = op.info
        if not self.check_count(response, self.key_count(key)):
            return False
        return not full or self.check_rows(response,
                                           self.answers.key_rows(key))


class ScanCold(ServedWorkload):
    name = "scan-cold"
    rows = 10_000
    rate = 12.0
    batch = 48

    def next_op(self, conn: int) -> Op:
        value = int(self.rng.integers(0, VALUE_MAX + 1))
        self.n += 1
        return Op("select", _select("A3", value),
                  (value, self.n % FULL_CHECK_EVERY == 0))

    def answer(self, op: Op, response: Dict[str, Any]) -> bool:
        value, full = op.info
        if not self.check_count(response, int(self.answers.a3_counts[value])):
            return False
        return not full or self.check_rows(response,
                                           self.answers.a3_rows(value))


class MixedWrite(ServedWorkload):
    name = "mixed-write"
    rows = 200_000
    rate = 120.0
    batch = 400
    read_only = False
    write_fraction = 0.3
    #: Rows each connection keeps inserted before it starts deleting its
    #: oldest, so deletes land on other blocks than the inserts beside them.
    depth = 25

    def __init__(self, seed: int, *, rows: Optional[int] = None):
        super().__init__(seed, rows=rows)
        self.fifo: List[Deque[Tuple[int, ...]]] = [
            deque() for _ in range(CONNECTIONS)]
        self.delete_next = [False] * CONNECTIONS
        self.written = set()
        size = KEY_MAX + 1
        self.ins_sent = np.zeros(size, np.int64)
        self.ins_acked = np.zeros(size, np.int64)
        self.del_sent = np.zeros(size, np.int64)
        self.del_acked = np.zeros(size, np.int64)

    def key_count(self, key: int) -> int:
        return (int(self.answers.key_counts[key]) + int(self.ins_acked[key])
                - int(self.del_acked[key]))

    def _new_row(self, key: int) -> Tuple[int, ...]:
        while True:
            row = (key,) + tuple(
                self.rng.integers(0, VALUE_MAX + 1, 5).tolist())
            if row not in self.written:
                self.written.add(row)
                return row

    def next_op(self, conn: int) -> Op:
        key = self.next_key()
        if self.rng.random() >= self.write_fraction:
            # Bounds on the count any linearizable answer may give.
            return Op("select", _select("A1", key),
                      (key, int(self.ins_acked[key]),
                       int(self.del_acked[key])))
        fifo = self.fifo[conn]
        if self.delete_next[conn] and len(fifo) >= self.depth:
            row = fifo.popleft()
            self.del_sent[row[0]] += 1
            self.delete_next[conn] = False
            return Op("delete", {"op": "delete", "table": TABLE,
                                 "row": list(row)}, row)
        row = self._new_row(key)
        fifo.append(row)
        self.ins_sent[key] += 1
        self.delete_next[conn] = True
        return Op("insert", {"op": "insert", "table": TABLE,
                             "row": list(row)}, row)

    def answer(self, op: Op, response: Dict[str, Any]) -> bool:
        if not self.ok(response):
            return False
        if op.kind == "insert":
            self.ins_acked[op.info[0]] += 1
            self.inserted += 1
            return True
        if op.kind == "delete":
            if response.get("removed") is not True:
                return self.fail("delete removed nothing")
            self.del_acked[op.info[0]] += 1
            self.deleted += 1
            return True
        key, ins_acked, del_acked = op.info
        base = self.expected(int(self.answers.key_counts[key]))
        lo = base + ins_acked - int(self.del_sent[key])
        hi = base + int(self.ins_sent[key]) - del_acked
        count = response.get("count")
        if not isinstance(count, int) or not lo <= count <= hi:
            return self.fail("count outside the linearizable range")
        return True


WORKLOADS = {cls.name: cls for cls in (PointHot, ScanCold, MixedWrite)}


async def run_served(
    workload: ServedWorkload,
    *,
    src: str,
    work: str,
    seconds: float,
    warmup: float,
    setups: int,
    trace: bool,
    check_keys: int,
    cpus: Optional[Set[int]],
) -> Dict[str, Any]:
    """One run; returns the raw measurements (see ``run.py`` for metrics).

    ``setups`` servers are started in all; the extra ones only time
    their set-up, half before the serving one and half after it, so a
    slow spell of the host rarely reaches most of them.  After a warm-up
    (``warmup`` seconds at the nominal rate and one saturated batch),
    the measured ``seconds`` are rounds of :data:`ROUND_S` at the
    nominal rate, each followed by one saturated batch (in
    :data:`BATCH_PARTS` parts).  A traced run
    has no batches: half its seconds untraced, half traced.
    """
    csv = os.path.join(work, "table.csv")
    write_csv(csv, workload.table)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    serve = ["serve", f"{csv}:{TABLE}", "--port", "0"]
    spans_path = os.path.join(work, "spans.json")
    #: (spawn, ready) of each server started.
    setups_at: List[Tuple[float, float]] = []

    async def time_setup(i: int) -> None:
        await asyncio.sleep(QUIET_S)
        child = Child([sys.executable, "-m", "repro", *serve], env=env,
                      cwd=work, stem=os.path.join(work, f"setup{i}"),
                      cpus=cpus)
        try:
            await wait_ready(child)
            setups_at.append((child.started, now()))
            await asyncio.sleep(QUIET_S)
        finally:
            await child.stop()

    extra = range(setups - 1)
    for i in extra[:len(extra) // 2]:
        await time_setup(i)
    argv = ([sys.executable, os.path.join(HERE, "traced_serve.py"),
             spans_path, *serve] if trace
            else [sys.executable, "-m", "repro", *serve])
    await asyncio.sleep(QUIET_S)
    child = Child(argv, env=env, cwd=work, stem=os.path.join(work, "server"),
                  cpus=cpus)
    out: Dict[str, Any] = {"setups": setups_at, "server": child}
    conns: List[Connection] = []
    load: Optional[LoadGenerator] = None
    try:
        port = await wait_ready(child)
        setups_at.append((child.started, now()))
        await asyncio.sleep(QUIET_S)
        conns = [await Connection.open("127.0.0.1", port)
                 for _ in range(CONNECTIONS)]
        schema = await conns[0].call({"op": "schema", "table": TABLE})
        out["initial_blocks"] = schema.get("blocks")
        load = LoadGenerator(conns, workload)
        load.start()
        load_rng = np.random.default_rng([workload.seed, 3])
        await load.open_loop(workload.rate, warmup, load_rng)
        if trace:
            # Half the window untraced, half recorded: the overhead check.
            # The markers are pings, which every server version answers;
            # the traced decode_frame sees their bench_trace field.
            half = seconds / 2
            out["untraced"] = await load.open_loop(workload.rate, half,
                                                     load_rng)
            await load.control({"op": "ping", "bench_trace": "on"})
            out["nominal"] = await load.open_loop(workload.rate, half,
                                                    load_rng)
            await load.control({"op": "ping", "bench_trace": "off"})
        else:
            await load.saturate(workload.batch, WINDOW)
            rounds = max(1, round(seconds * NOMINAL_SHARE / ROUND_S))
            out["rounds"] = []
            for _ in range(rounds):
                nominal = await load.open_loop(
                    workload.rate, seconds * NOMINAL_SHARE / rounds, load_rng)
                parts = []
                for _ in range(BATCH_PARTS):
                    await asyncio.sleep(QUIET_S)
                    parts.append(await load.saturate(
                        workload.batch // BATCH_PARTS, WINDOW))
                out["rounds"].append((nominal, parts))
        # Every request count is fixed by the seed, so this is the space
        # after the same writes whatever the program's speed.
        stored = await load.control({"op": "schema", "table": TABLE})
        if stored.get("status") == "ok":
            out["stored_bytes_ratio"] = (
                stored["blocks"] * BLOCK_BYTES
                / (stored["tuples"] * FIXED_WIDTH_BYTES))
        await load.stop()
        unanswered = sum(len(c.pending) for c in conns)
        out["attempted"] = len(load.sent)
        out["failed"] = sum(not op.ok for op in load.sent)
        if load.broken is None and unanswered == 0:
            attempted, failed = await workload.final_checks(conns[0],
                                                            check_keys)
            out["attempted"] += attempted
            out["failed"] += failed
        else:
            workload.fail("connection lost" if load.broken is not None
                          else "unanswered after 10 s")
    finally:
        if load is not None:
            await load.stop()
        for conn in conns:
            await conn.close()
        out["server_exit"] = await child.stop()
    for i in extra[len(extra) // 2:]:
        await time_setup(i)
    if trace:
        out["spans_path"] = spans_path
    return out
