"""The load generator: one asyncio thread, two pipelined connections.

It speaks the server's wire format with its own framing (a 4-byte
big-endian length, then UTF-8 JSON) and never imports ``repro``, so the
client-side cost is the same on both commits of a comparison.

Two load shapes:

* :meth:`LoadGenerator.open_loop` — Poisson arrivals at a fixed rate,
  assigned round-robin to the connections and sent when due whatever is
  still outstanding.  Latency is timed from the due time, so a stall
  counts against every request queued behind it; how late each send
  went out is recorded too.
* :meth:`LoadGenerator.saturate` — a fixed number of requests with a
  fixed number outstanding on every connection, so the server is never idle;
  the time they take gives the highest rate it sustains.  The count is
  fixed, not the time, so a run writes the same rows whatever the
  program's speed.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Protocol

import numpy as np

_LEN = struct.Struct(">I")
#: A request still unanswered this long after its due time has failed.
ANSWER_TIMEOUT_S = 10.0
#: How long before a due time the sender stops sleeping and yields instead.
SPIN_S = 0.0015

now = time.perf_counter


def encode(message: Dict[str, Any]) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


class Op:
    """One request: its frame, what the checker needs, and its timings."""

    __slots__ = ("kind", "frame", "info", "due", "sent", "done", "ok")

    def __init__(self, kind: str, message: Dict[str, Any], info: Any = None):
        self.kind = kind
        self.frame = encode(message)
        self.info = info
        self.due = self.sent = self.done = float("nan")
        self.ok = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Workload(Protocol):
    def next_op(self, conn: int) -> Op: ...

    def answer(self, op: Op, response: Dict[str, Any]) -> bool: ...


class Connection:
    """One TCP connection; the server answers its requests in order."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self.pending: Deque[Op] = deque()

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def read(self) -> Dict[str, Any]:
        (length,) = _LEN.unpack(await self._reader.readexactly(_LEN.size))
        return json.loads(await self._reader.readexactly(length))

    def send(self, op: Op) -> None:
        op.sent = now()
        self._writer.write(op.frame)
        self.pending.append(op)

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip; only while no pipelined request is pending."""
        self._writer.write(encode(message))
        return await self.read()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


class LoadGenerator:
    """Sends a workload's requests over the connections and checks answers."""

    def __init__(self, conns: List[Connection], workload: Workload):
        self.conns = conns
        self.workload = workload
        self.sent: List[Op] = []
        self.broken: Optional[BaseException] = None
        self._refill = 0
        self._readers: List[asyncio.Task] = []

    def start(self) -> None:
        self._readers = [
            asyncio.ensure_future(self._read_loop(i))
            for i in range(len(self.conns))
        ]

    async def stop(self) -> None:
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        self._readers = []

    def send(self, conn: int, op: Op, due: float) -> None:
        op.due = due
        self.conns[conn].send(op)
        self.sent.append(op)

    def _send(self, conn: int, due: float) -> None:
        self.send(conn, self.workload.next_op(conn), due)

    async def _read_loop(self, conn: int) -> None:
        c = self.conns[conn]
        try:
            while True:
                response = await c.read()
                op = c.pending.popleft()
                op.done = now()
                if op.kind == "control":
                    op.info = response
                    op.ok = response.get("status") == "ok"
                else:
                    op.ok = self.workload.answer(op, response)
                if self._refill > 0:
                    self._refill -= 1
                    self._send(conn, op.done)
        except (ConnectionError, asyncio.IncompleteReadError,
                ValueError, IndexError) as exc:
            # The server hung up, died, or sent garbage: every request
            # still pending on this connection is unanswered.
            self.broken = exc

    async def open_loop(
        self, rate: float, seconds: float, rng: np.random.Generator
    ) -> List[Op]:
        """Poisson arrivals at ``rate`` for ``seconds``; returns the ops."""
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < seconds]
        first = len(self.sent)
        start = now() + 0.005
        for k, offset in enumerate(offsets.tolist()):
            due = start + offset
            # The loop's timers overshoot by up to a couple of ms, so
            # sleep to just short of the due time and yield until it.
            delay = due - now() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while now() < due:
                await asyncio.sleep(0)
            self._send(k % len(self.conns), due)
        await self.settle()
        return self.sent[first:]

    async def control(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One out-of-band request, sent once nothing else is pending."""
        await self.settle()
        op = Op("control", message)
        self.send(0, op, now())
        await self.settle()
        return op.info or {}

    async def saturate(self, count: int, window: int) -> List[Op]:
        """``count`` requests, ``window`` outstanding per connection.

        Each request after the first ``window`` is sent, and due, when
        one on its connection is answered.  Returns the ops sent.
        """
        start = now()
        first = len(self.sent)
        initial = min(count, window * len(self.conns))
        self._refill = count - initial
        for k in range(initial):
            self._send(k % len(self.conns), start)
        await self.settle()
        self._refill = 0
        return self.sent[first:]

    async def settle(self) -> None:
        """Wait until nothing is pending, a reader broke, or a pending
        request is :data:`ANSWER_TIMEOUT_S` past its due time."""
        while self.broken is None:
            oldest = [c.pending[0].due for c in self.conns if c.pending]
            if not oldest or now() - min(oldest) > ANSWER_TIMEOUT_S:
                return
            await asyncio.sleep(0.002)
