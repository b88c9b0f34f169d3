"""The asyncio query server.

One :class:`ReproServer` fronts one :class:`~repro.db.database.Database`
for many concurrent clients:

* **Reads are snapshots.**  Every ``select`` takes an MVCC snapshot
  (:meth:`Table.read_snapshot`) and executes it on a thread pool, so a
  reader sees one consistent committed version no matter what the
  writer is doing, and slow simulated I/O never blocks the event loop.
* **Writes are serialized.**  The storage engine is single-writer by
  design (docs/RECOVERY.md); ``insert``/``delete`` run one at a time
  under an asyncio lock, each publishing a new version epoch on return.
* **Overload answers, it does not stall.**  Every gated request first
  passes the :class:`~repro.server.admission.AdmissionController`;
  rejection is a typed BUSY response in bounded time.  ``ping`` bypasses
  admission — a liveness probe that goes unanswered under load would
  defeat its purpose — and so do ``health`` and ``ready``.
* **Every request has a deadline.**  Each op class carries a budget
  (:class:`ServerConfig`; a client may send ``deadline_ms``, clamped to
  the server's ceiling).  A select that blows its budget is answered
  with a typed ``deadline`` error and cooperatively cancelled at the
  next block boundary; a write that blows its budget while queued is
  abandoned before it executes, and one that already started runs to
  completion off-path (single-writer storage must never be interrupted
  mid-mutation) while the client gets ``outcome: "unknown"``.
* **Shutdown drains.**  :meth:`stop` is three-phase: stop accepting,
  let in-flight requests finish (up to ``drain_timeout``) while late
  arrivals get a typed ``shutting_down`` answer, then cancel the
  stragglers.  ``ready`` flips false the moment draining starts.
* **Slow clients are evicted, not accumulated.**  Response writes are
  bounded by ``send_timeout_s`` over a bounded transport buffer, and an
  idle-connection reaper (``idle_timeout_s``) closes connections that
  send nothing — one wedged reader cannot pin a connection task or
  buffer unbounded responses.

Thread-safety inventory (what the reader threads may touch):
the :class:`~repro.storage.mvcc.BlockVersionStore` (latched), the
:class:`~repro.storage.buffer.BufferPool` (latched), each table's
:class:`~repro.db.snapshot.OrdinalCache` (lock-free hits over read-only
arrays, latched stores), each table's
:class:`~repro.storage.integrity.QuarantineSet` (a reader that finds a
corrupt block quarantines it; single dict ops), the simulated disk's
block dict (single dict ops, atomic under CPython), and immutable
schema/codec objects.  The live indices and the WAL belong to the
writer alone, and only the writer repairs.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.db.database import Database
from repro.db.query import RangeQuery
from repro.errors import ProtocolError, ReproError, ServerError
from repro.obs import runtime as _obs
from repro.relational.algebra import RangePredicate
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    busy_response,
    deadline_response,
    error_response,
    ok_response,
    read_frame,
    shutdown_response,
    write_frame,
)

__all__ = ["ReproServer", "ServerConfig"]

#: Ops that pass the admission gate (everything except the probes).
_GATED_OPS = ("select", "insert", "delete", "stats", "schema")


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one server instance (defaults suit tests and demos)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off .address
    max_inflight: int = 64
    max_queued: int = 256
    max_per_client: int = 8
    reader_threads: int = 8
    #: Per-op deadline budgets (milliseconds).  A request may carry its
    #: own ``deadline_ms``, which is honoured but clamped to
    #: ``max_deadline_ms`` — a client cannot buy unbounded patience.
    select_deadline_ms: float = 30_000.0
    write_deadline_ms: float = 30_000.0
    stats_deadline_ms: float = 10_000.0
    max_deadline_ms: float = 60_000.0
    #: How long :meth:`ReproServer.stop` lets in-flight requests finish
    #: before cancelling them (seconds).
    drain_timeout_s: float = 5.0
    #: Bound on one response write (framing + transport drain).  A
    #: client that stops reading past this is evicted.
    send_timeout_s: float = 30.0
    #: Connections that send nothing for this long are reaped.
    #: ``None`` disables the reaper.
    idle_timeout_s: Optional[float] = 600.0
    #: High-water mark for the per-connection transport write buffer —
    #: the cap on how much of a response a wedged reader can make the
    #: server hold in user space before ``drain()`` (and with it the
    #: send timeout) engages.
    write_buffer_bytes: int = 256 * 1024


class ReproServer:
    """Serve one database over the length-prefixed JSON protocol."""

    def __init__(
        self,
        database: Database,
        config: Optional[ServerConfig] = None,
        *,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self._db = database
        self._config = config or ServerConfig()
        self._admission = admission or AdmissionController(
            max_inflight=self._config.max_inflight,
            max_queued=self._config.max_queued,
            max_per_client=self._config.max_per_client,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._write_lock = asyncio.Lock()
        self._connections: Set[asyncio.Task] = set()
        #: Watchers for writes that outlived their deadline: each holds
        #: its admission slot until the storage engine actually finishes.
        self._background: Set[asyncio.Task] = set()
        self._next_client = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def admission(self) -> AdmissionController:
        """The admission gate (stats live on it)."""
        return self._admission

    @property
    def config(self) -> ServerConfig:
        """The configuration this server was built with."""
        return self._config

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress (or completed)."""
        return self._draining

    @property
    def ready(self) -> bool:
        """Whether the server is accepting and executing new requests.

        Flips false the moment :meth:`stop` begins draining — the
        readiness probe is what tells a load balancer to route away
        *before* requests start bouncing off ``shutting_down``.
        """
        return self._server is not None and not self._draining

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._server is None:
            raise ServerError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound address.

        Enables MVCC on every compressed table in the catalog — tables
        must be registered before the server starts serving them.
        """
        if self._server is not None:
            raise ServerError("server is already started")
        for table in self._db.catalog:
            if table.compressed:
                table.enable_mvcc()
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.reader_threads,
            thread_name_prefix="repro-serve",
        )
        self._draining = False
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        return self.address

    async def stop(self, *, drain_timeout: Optional[float] = None) -> None:
        """Three-phase graceful shutdown (docs/SERVING.md).

        1. Stop accepting: the listener closes and ``ready`` flips
           false; new requests on existing connections are answered
           with a typed ``shutting_down`` error, never a reset.
        2. Drain: in-flight requests (including deadline-orphaned
           writes) get up to ``drain_timeout`` seconds to finish
           (default :attr:`ServerConfig.drain_timeout_s`; ``0`` restores
           the old cancel-immediately behaviour).
        3. Cancel stragglers: remaining connection tasks and watchers
           are cancelled, the reader pool is shut down.
        """
        if self._server is None and self._executor is None:
            return
        timeout = (
            self._config.drain_timeout_s
            if drain_timeout is None
            else drain_timeout
        )
        # Phase 1 — stop accepting, flip readiness.
        self._draining = True
        reg = _obs.REGISTRY
        if reg is not None:
            reg.set_gauge("server.draining", 1.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Phase 2 — let in-flight work finish.
        drained = await self._quiesce(timeout)
        if not drained:
            reg = _obs.REGISTRY
            if reg is not None:
                reg.inc("server.drain_timeouts")
        # Phase 3 — cancel stragglers.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        for task in list(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        self._background.clear()
        if self._executor is not None:
            # Never block the event loop on wedged reader threads (a
            # stalled fault-injected read, say); pending work is
            # cancelled and running threads finish on their own.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._server = None
        reg = _obs.REGISTRY
        if reg is not None:
            reg.set_gauge("server.draining", 0.0)

    async def _quiesce(self, timeout: float) -> bool:
        """Wait until no request holds an admission slot; True if drained."""
        deadline = _obs.now_ms() + timeout * 1000.0
        while not (self._admission.idle and not self._background):
            if _obs.now_ms() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` entry point)."""
        if self._server is None:
            await self.start()
        if self._server is None:  # pragma: no cover - start() guarantees it
            raise ServerError("server failed to start")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        client_id = f"c{self._next_client}"
        self._next_client += 1
        transport = writer.transport
        if transport is not None:
            # Bound user-space buffering toward this client; past the
            # high-water mark write_frame's drain() blocks and the send
            # timeout takes over (slow-client defense).
            transport.set_write_buffer_limits(
                high=self._config.write_buffer_bytes
            )
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.TimeoutError:
                    # Idle reaper: nothing arrived for idle_timeout_s.
                    self._count("server.idle_evictions")
                    break
                except ProtocolError as exc:
                    # Torn or oversized frame: the stream is garbage
                    # from here, answer once and hang up.
                    await self._try_send(
                        writer, error_response("protocol", str(exc))
                    )
                    break
                if request is None:
                    break  # clean EOF
                response = await self._dispatch(request, client_id)
                if not await self._send_response(writer, response):
                    break  # slow client evicted
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / server stopping
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, Any]]:
        """One frame, bounded by the idle timeout when one is set."""
        idle = self._config.idle_timeout_s
        if idle is None:
            return await read_frame(reader)
        return await asyncio.wait_for(read_frame(reader), timeout=idle)

    async def _send_response(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> bool:
        """Write one response in bounded time; False evicts the client.

        A send that exceeds ``send_timeout_s`` (the peer stopped reading
        and both buffers filled) aborts the transport — a partial frame
        may be on the wire, so the stream cannot be reused.
        """
        try:
            await asyncio.wait_for(
                write_frame(writer, message),
                timeout=self._config.send_timeout_s,
            )
            return True
        except asyncio.TimeoutError:
            self._count("server.slow_client_evictions")
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        except ProtocolError as exc:
            # The *response* could not be framed (result page above the
            # frame cap).  The request frame itself was fine, so the
            # connection survives with a typed error instead.
            self._count("server.internal_errors")
            await self._try_send(
                writer,
                error_response(
                    "internal", f"response could not be framed: {exc}"
                ),
            )
            return True

    async def _try_send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        with contextlib.suppress(
            ConnectionError, ProtocolError, asyncio.TimeoutError
        ):
            await asyncio.wait_for(
                write_frame(writer, message),
                timeout=self._config.send_timeout_s,
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self, request: Dict[str, Any], client_id: str
    ) -> Dict[str, Any]:
        op = request.get("op")
        # Probes bypass admission *and* drain: liveness and readiness
        # must stay answerable while the server is overloaded or dying.
        if op == "ping":
            return ok_response(pong=True)
        if op == "health":
            return self._exec_health()
        if op == "ready":
            return ok_response(ready=self.ready)
        if op not in _GATED_OPS:
            return error_response("bad_op", f"unknown op {op!r}")
        if self._draining:
            self._count("server.shutdown_rejected")
            return shutdown_response()
        try:
            budget_ms = self._deadline_budget(op, request)
        except ProtocolError as exc:
            return error_response("bad_deadline", str(exc))
        # Latency starts before admission so it includes queueing.
        t0 = _obs.now_ms()
        if not await self._admission.admit(client_id):
            return busy_response()
        reg = _obs.REGISTRY
        if reg is not None:
            reg.observe("server.admission_wait_ms", _obs.now_ms() - t0)
        release_now = True
        try:
            with _obs.span("server.request", op=op, client=client_id):
                if op == "select":
                    response = await self._timed_select(request, budget_ms)
                elif op in ("insert", "delete"):
                    response, release_now = await self._timed_write(
                        request, budget_ms, client_id
                    )
                elif op == "schema":
                    response = self._exec_schema(request)
                else:
                    response = await self._timed_stats(budget_ms)
        except ReproError as exc:
            self._count("server.errors")
            response = error_response(type(exc).__name__, str(exc))
        except Exception as exc:  # repro: noqa[R002] — answered typed
            # An unexpected failure (a bug, not a bad request) must not
            # kill the connection task and leave the client a bare EOF:
            # count it, answer typed, keep serving.
            self._count("server.internal_errors")
            response = error_response(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        finally:
            if release_now:
                self._admission.release(client_id)
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("server.requests")
            reg.observe("server.latency_ms", _obs.now_ms() - t0)
        return response

    def _deadline_budget(self, op: str, request: Dict[str, Any]) -> float:
        """The request's budget in ms: client ask clamped, else per-op."""
        raw = request.get("deadline_ms")
        if raw is not None:
            if (
                isinstance(raw, bool)
                or not isinstance(raw, (int, float))
                or raw <= 0
            ):
                raise ProtocolError(
                    f"deadline_ms must be a positive number, got {raw!r}"
                )
            return min(float(raw), self._config.max_deadline_ms)
        if op == "select":
            return self._config.select_deadline_ms
        if op in ("insert", "delete"):
            return self._config.write_deadline_ms
        return self._config.stats_deadline_ms

    async def _timed_select(
        self, request: Dict[str, Any], budget_ms: float
    ) -> Dict[str, Any]:
        """A snapshot select bounded by its deadline.

        On timeout the typed ``deadline`` answer goes out immediately
        and the reader thread is cancelled *cooperatively*: the flag is
        polled at every block boundary, so a thread pinned inside one
        stalled disk read lets go as soon as that read returns, instead
        of finishing the whole scan for nobody.
        """
        loop = asyncio.get_running_loop()
        if self._executor is None:
            raise ServerError("server is not started")
        cancel = threading.Event()
        future = loop.run_in_executor(
            self._executor, self._exec_select, request, cancel
        )
        try:
            return await asyncio.wait_for(future, timeout=budget_ms / 1000.0)
        except asyncio.TimeoutError:
            cancel.set()
            self._count("server.deadline_exceeded")
            return deadline_response(budget_ms)

    async def _timed_write(
        self, request: Dict[str, Any], budget_ms: float, client_id: str
    ) -> Tuple[Dict[str, Any], bool]:
        """A serialized write bounded by its deadline.

        Returns ``(response, release_now)``.  A write whose deadline
        fires while it is still queued behind the write lock is
        abandoned before touching storage (``outcome: not_executed``).
        One that already started must run to completion — interrupting
        the single-writer engine mid-mutation is how torn state happens
        — so the client gets ``outcome: unknown`` now and a watcher
        task holds the admission slot until the engine finishes.
        """
        loop = asyncio.get_running_loop()
        if self._executor is None:
            raise ServerError("server is not started")
        flags = {"started": False, "abandoned": False}

        async def locked_write() -> Dict[str, Any]:
            async with self._write_lock:
                if flags["abandoned"]:
                    raise ServerError("write abandoned at its deadline")
                flags["started"] = True
                return await loop.run_in_executor(
                    self._executor, self._exec_write, request
                )

        task = asyncio.ensure_future(locked_write())
        try:
            response = await asyncio.wait_for(
                asyncio.shield(task), timeout=budget_ms / 1000.0
            )
            return response, True
        except asyncio.TimeoutError:
            self._count("server.deadline_exceeded")
            if not flags["started"]:
                # Still queued: nothing touched storage; abandon it.
                # (The flag flip and this check both run on the event
                # loop, so the decision is race-free.)
                flags["abandoned"] = True
                task.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ReproError
                ):
                    await task
                return (
                    deadline_response(budget_ms, outcome="not_executed"),
                    True,
                )
            self._watch_late_write(task, client_id)
            return deadline_response(budget_ms, outcome="unknown"), False

    def _watch_late_write(
        self, task: "asyncio.Task[Dict[str, Any]]", client_id: str
    ) -> None:
        """Hold the admission slot until a deadline-orphaned write ends."""

        async def waiter() -> None:
            try:
                await task
            except ReproError:
                self._count("server.errors")
            except Exception:  # repro: noqa[R002] — orphaned write; counted
                self._count("server.internal_errors")
            finally:
                self._admission.release(client_id)
                self._count("server.late_writes")

        watcher = asyncio.ensure_future(waiter())
        self._background.add(watcher)
        watcher.add_done_callback(self._background.discard)

    async def _timed_stats(self, budget_ms: float) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        if self._executor is None:
            raise ServerError("server is not started")
        future = loop.run_in_executor(self._executor, self._exec_stats)
        try:
            return await asyncio.wait_for(future, timeout=budget_ms / 1000.0)
        except asyncio.TimeoutError:
            self._count("server.deadline_exceeded")
            return deadline_response(budget_ms)

    def _count(self, metric: str) -> None:
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc(metric)

    # ------------------------------------------------------------------
    # Operations (reads run on the thread pool)
    # ------------------------------------------------------------------

    def _exec_select(
        self, request: Dict[str, Any], cancel: threading.Event
    ) -> Dict[str, Any]:
        table = self._db.table(_field(request, "table", str))
        schema = table.schema
        predicates: List[RangePredicate] = []
        for spec in request.get("predicates", ()):
            if not isinstance(spec, dict):
                raise ProtocolError("predicate must be an object")
            attribute = _field(spec, "attribute", str)
            domain = schema.attribute(attribute).domain
            lo = domain.encode_bound(spec.get("lo"))
            hi = domain.encode_bound(spec.get("hi"))
            predicates.append(RangePredicate(attribute, lo, hi))
        with table.read_snapshot() as snapshot:
            result = snapshot.select(
                RangeQuery(predicates), should_cancel=cancel.is_set
            )
            rows = [schema.decode_tuple(t) for t in result.tuples]
            # A degraded answer ("skip" policy) names what it left out,
            # so it is never silent on the wire.
            degraded = (
                {"skipped_blocks": result.skipped_blocks}
                if result.skipped_blocks
                else {}
            )
            return ok_response(
                rows=rows,
                count=len(rows),
                csn=snapshot.csn,
                blocks_read=result.blocks_read,
                **degraded,
            )

    def _exec_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        table = self._db.table(_field(request, "table", str))
        row = _field(request, "row", list)
        encoded = table.schema.encode_tuple(row)
        if request["op"] == "insert":
            table.insert(encoded)
            removed = None
        else:
            removed = table.delete(encoded)
        store = table.mvcc
        return ok_response(
            removed=removed, csn=store.csn if store is not None else None
        )

    def _exec_schema(self, request: Dict[str, Any]) -> Dict[str, Any]:
        table = self._db.table(_field(request, "table", str))
        attributes: List[Dict[str, Any]] = []
        for a in table.schema.attributes:
            entry: Dict[str, Any] = {"name": a.name, "size": a.domain.size}
            # Integer-range domains advertise their bounds so a client
            # (the load generator) can synthesise in-domain values.
            lo = getattr(a.domain, "lo", None)
            if isinstance(lo, int):
                entry["lo"] = lo
            attributes.append(entry)
        return ok_response(
            attributes=attributes,
            tuples=table.num_tuples,
            blocks=table.num_blocks,
            compressed=table.compressed,
        )

    def _exec_health(self) -> Dict[str, Any]:
        """The liveness/readiness probe (admission- and drain-exempt)."""
        return ok_response(
            healthy=True,
            ready=self.ready,
            draining=self._draining,
            inflight=self._admission.inflight,
            queued=self._admission.queued,
        )

    def _exec_stats(self) -> Dict[str, Any]:
        tables: Dict[str, Dict[str, Any]] = {}
        for table in self._db.catalog:
            entry: Dict[str, Any] = {
                "tuples": table.num_tuples,
                "blocks": table.num_blocks,
            }
            store = table.mvcc
            if store is not None:
                entry["csn"] = store.csn
                entry["versions"] = store.version_count
                entry["pinned_snapshots"] = store.pinned_snapshots
            cache = table.ordinal_cache
            if cache is not None:
                entry["ordinal_cache"] = {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "entries": len(cache),
                }
            pool = table.buffer_pool
            if pool is not None:
                entry["buffer"] = pool.stats.as_dict()
            tables[table.name] = entry
        return ok_response(
            admission=self._admission.stats.as_dict(),
            inflight=self._admission.inflight,
            queued=self._admission.queued,
            draining=self._draining,
            tables=tables,
        )


def _field(request: Dict[str, Any], name: str, kind: type) -> Any:
    """A required, type-checked request field."""
    value = request.get(name)
    if not isinstance(value, kind):
        raise ProtocolError(
            f"request field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value
