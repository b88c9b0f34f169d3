"""Timing spans around the program's public functions, kept in memory.

Only the program-side entry points import this (``traced_serve.py`` and
``bulk.py``, both run as children with the measured ``src`` on their
path).  :func:`install` replaces each target function — found by module
and attribute path, so a target a later commit deletes is reported as
missing instead of breaking the run — with a wrapper that records

    (span id, parent id, name, start, end, thread, request, extra)

while recording is on.  The parent is the span open in the same task or
thread, carried in a context variable; ``loop.run_in_executor`` is
shimmed to run the submitted function in a copy of the caller's context,
so reader-thread spans keep their request and parent, and the shim
records each submission's queue wait.  Each served connection gets its
own request counter, and ``decode_frame`` starts a new request.

A traced server is switched on and off by the load generator with
``{"op": "ping", "bench_trace": "on" | "off"}`` — ``ping`` is answered
by every server version, and the marker is seen in ``decode_frame``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

_clock = time.perf_counter
_current = contextvars.ContextVar("bench_span", default=0)
#: ``[connection id, request number]`` of the served connection, shared
#: (as one list) by every task and reader thread working for it.
_conn: contextvars.ContextVar = contextvars.ContextVar("bench_conn",
                                                       default=None)


class Target(NamedTuple):
    name: str
    module: str
    attr: str  # "function" or "Class.method"
    #: ``(args, result) -> JSON value`` recorded with the span.
    extra: Optional[Callable[[tuple, Any], Any]] = None
    #: Rewrites the call's positional arguments before the call.
    adapt: Optional[Callable[[tuple], tuple]] = None


class _Loader:
    """Stands in for an MVCC read's fallback loader to see if it ran."""

    __slots__ = ("fn", "payload")

    def __init__(self, fn: Callable[[], bytes]):
        self.fn = fn
        self.payload: Optional[bytes] = None

    def __call__(self) -> bytes:
        self.payload = self.fn()
        return self.payload


def _mvcc_adapt(args: tuple) -> tuple:
    if len(args) < 4:
        return args
    return args[:3] + (_Loader(args[3]),) + args[4:]


def _mvcc_from_stash(args: tuple, result: Any) -> Optional[int]:
    loader = args[3] if len(args) > 3 else None
    if not isinstance(loader, _Loader):
        return None
    return int(loader.payload is None or result is not loader.payload)


def _select_counts(args: tuple, result: Any) -> List[int]:
    return [result.blocks_read, result.tuples_examined, len(result.tuples)]


def _payload_bytes(args: tuple, result: Any) -> int:
    return len(args[2])


T = Target
#: The codec, container and relation functions both programs call.
CODEC_TARGETS = (
    T("core.decode_block", "repro.core.codec", "BlockCodec.decode_block"),
    T("core.decode_ordinals", "repro.core.codec", "BlockCodec.decode_ordinals"),
    T("core.encode_block", "repro.core.codec", "BlockCodec.encode_block"),
    T("core.encode_ordinals", "repro.core.codec", "BlockCodec.encode_ordinals"),
    T("core.vec_decode_block", "repro.core.vectorized",
      "VectorizedBlockCodec.decode_block"),
    T("core.vec_decode_ordinals", "repro.core.vectorized",
      "VectorizedBlockCodec.decode_ordinals"),
    T("core.vec_encode_run", "repro.core.vectorized",
      "VectorizedBlockCodec.encode_run"),
    T("core.pack", "repro.core.fastpack", "fast_pack_boundaries"),
    T("core.pack", "repro.storage.packer", "pack_ordinals"),
    T("relational.decode_tuple", "repro.relational.schema",
      "Schema.decode_tuple"),
    T("relational.encode_tuple", "repro.relational.schema",
      "Schema.encode_tuple"),
    T("relational.phi_ordinals", "repro.relational.relation",
      "Relation.phi_ordinals"),
    T("io.write", "repro.io.format", "write_avq_file"),
    T("io.read", "repro.io.format", "read_avq_file"),
    T("io.read_block", "repro.io.format", "AVQFileReader.read_block"),
)
#: Everything a served request passes through.
SERVE_TARGETS = CODEC_TARGETS + (
    T("server.decode_frame", "repro.server.protocol", "decode_frame"),
    T("server.encode_frame", "repro.server.protocol", "encode_frame"),
    T("server.ok_response", "repro.server.protocol", "ok_response"),
    T("server.admit", "repro.server.admission", "AdmissionController.admit"),
    T("db.read_snapshot", "repro.db.table", "Table.read_snapshot"),
    T("db.snapshot_close", "repro.db.snapshot", "TableSnapshot.close"),
    T("db.select", "repro.db.snapshot", "TableSnapshot.select",
      extra=_select_counts),
    T("db.select", "repro.db.table", "Table.select", extra=_select_counts),
    T("db.insert", "repro.db.table", "Table.insert"),
    T("db.delete", "repro.db.table", "Table.delete"),
    T("storage.mvcc_read", "repro.storage.mvcc", "BlockVersionStore.read",
      extra=_mvcc_from_stash, adapt=_mvcc_adapt),
    T("storage.stash", "repro.storage.mvcc", "BlockVersionStore.stash"),
    T("storage.publish", "repro.storage.mvcc", "BlockVersionStore.publish"),
    T("storage.decode_payload", "repro.storage.avqfile",
      "AVQFile.decode_payload"),
    T("storage.disk_read", "repro.storage.disk", "SimulatedDisk.read_block"),
    T("storage.disk_write", "repro.storage.disk", "SimulatedDisk.write_block",
      extra=_payload_bytes),
    T("index.maint", "repro.index.primary", "PrimaryIndex.add_block"),
    T("index.maint", "repro.index.primary", "PrimaryIndex.move_block"),
    T("index.maint", "repro.index.primary", "PrimaryIndex.remove_block"),
)
del T


class Recorder:
    """Spans of one traced process, recorded while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.ids = itertools.count(1)
        self.conn_ids = itertools.count(1)

    def record(self, sid: int, parent: int, name: str, t0: float,
               t1: float, extra: Any) -> None:
        conn = _conn.get()
        request = None if conn is None else f"{conn[0]}:{conn[1]}"
        self.spans.append((sid, parent, name, t0, t1,
                           threading.get_ident(), request, extra))

    def dump(self, path: str) -> None:
        self.active = False
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    name, extra, adapt = target.name, target.extra, target.adapt

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not rec.active:
                return await fn(*args, **kwargs)
            sid = next(rec.ids)
            parent = _current.get()
            token = _current.set(sid)
            t0 = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = _clock()
                _current.reset(token)
                rec.record(sid, parent, name, t0, t1, None)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if adapt is not None:
            args = adapt(args)
        sid = next(rec.ids)
        parent = _current.get()
        token = _current.set(sid)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            _current.reset(token)
        rec.record(sid, parent, name, t0, t1,
                   None if extra is None else extra(args, result))
        return result
    return wrapper


def _decode_frame_wrapper(fn: Callable, rec: Recorder) -> Callable:
    """``decode_frame``: starts a request, and sees the on/off markers."""

    @functools.wraps(fn)
    def decode_frame(body):
        t0 = _clock()
        message = fn(body)
        t1 = _clock()
        marker = None
        if message.get("op") == "ping":
            marker = message.get("bench_trace")
        conn = _conn.get()
        if conn is not None:
            conn[1] += 1
        if marker is not None:
            rec.active = marker == "on"
        elif rec.active:
            rec.record(next(rec.ids), _current.get(), "server.decode_frame",
                       t0, t1, None)
        return message
    return decode_frame


def _executor_shim(orig: Callable, rec: Recorder) -> Callable:
    """``run_in_executor`` that keeps the caller's context and times the queue."""

    @functools.wraps(orig)
    def run_in_executor(self, executor, func, *args):
        if not rec.active:
            return orig(self, executor, func, *args)
        ctx = contextvars.copy_context()
        submitted = _clock()

        def execute():
            started = _clock()
            sid = next(rec.ids)
            parent = _current.get()
            token = _current.set(sid)
            try:
                return func(*args)
            finally:
                _current.reset(token)
                rec.record(sid, parent, "server.execute", started, _clock(),
                           started - submitted)

        return orig(self, executor, ctx.run, execute)
    return run_in_executor


def _start_server_shim(orig: Callable, rec: Recorder) -> Callable:
    """Give every accepted connection its own request counter."""

    @functools.wraps(orig)
    async def start_server(client_connected_cb, *args, **kwargs):
        async def handle(reader, writer):
            _conn.set([next(rec.conn_ids), 0])
            return await client_connected_cb(reader, writer)
        return await orig(handle, *args, **kwargs)
    return start_server


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) or ``None`` when absent."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


def install(targets, *, serving: bool) -> Recorder:
    """Wrap every resolvable target; the returned recorder starts off."""
    rec = Recorder()
    replaced: Dict[int, Any] = {}
    for target in targets:
        found = _resolve(target)
        if found is None:
            rec.missing.append(f"{target.module}.{target.attr}")
            continue
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, target, rec))
        elif target.name == "server.decode_frame":
            wrapped = _decode_frame_wrapper(raw, rec)
        else:
            wrapped = _wrap(raw, target, rec)
        setattr(owner, attr, wrapped)
        if inspect.ismodule(owner):
            replaced[id(raw)] = (raw, wrapped)
    # Modules that imported a wrapped function by name hold the original.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    if serving:
        loop_cls = asyncio.base_events.BaseEventLoop
        loop_cls.run_in_executor = _executor_shim(
            loop_cls.run_in_executor, rec)
        asyncio.start_server = _start_server_shim(asyncio.start_server, rec)
    return rec
