"""Child processes of the benchmark: the server and the bulk-load program.

Each child's stdout and stderr go to files in the run's work directory,
so a child can never block on a full pipe and its last stderr lines can
be shown when it dies.  Children are reaped with ``os.wait4``, whose
resource usage gives the child's own peak RSS (VmHWM).

The load generator and the program run on different CPUs
(:func:`split_cpus`).  Left to the scheduler, the server's event-loop
and reader threads and the generator migrate between the two CPUs of
the host, and every hand-off between CPUs costs a cross-CPU wake-up of
a virtual CPU: unpinned, capacity moved by a third from run to run
with identical inputs.  Pinned, the server's threads hand off on one
CPU and the generator never takes the server's CPU.

Both CPUs are also kept awake (:class:`KeepAwake`).  A virtual CPU
that idles is slow to wake: at 6 requests/s a scan-cold request took
21 ms or 35 ms depending on whether the server's CPU had idled, and
with the CPUs left to idle, point-hot's median latency rose from 2.9 to
4.5 ms and its spread over runs from 0.10 to 0.25.  A busy loop at
``SCHED_IDLE`` priority on each CPU never delays the benchmark or the
program (it runs only when nothing else can) but keeps the CPU from
idling; the one on the program's CPU is the speed probe (``probe.py``).
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
from typing import List, Optional, Set, Tuple

from client import Connection, now

HERE = os.path.dirname(os.path.abspath(__file__))
_SERVING = re.compile(r"serving on ([^\s:]+):(\d+)")


def split_cpus() -> Tuple[int, int]:
    """Pin this process to its first allowed CPU.

    Returns (this process's CPU, the program's CPU): the second allowed
    CPU, or the same one when only one is allowed.  The program gets one
    CPU even when more are free: the server computes under one
    interpreter lock, and its threads hand off fastest on one CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[min(1, len(cpus) - 1)]


class KeepAwake:
    """``SCHED_IDLE`` busy loops for a ``with`` block: a plain one on the
    generator's CPU and the speed probe, saving to ``probe_path``, on
    the program's."""

    def __init__(self, generator_cpu: int, program_cpu: int,
                 probe_path: str):
        self._loops = [([sys.executable, os.path.join(HERE, "probe.py"),
                         probe_path], program_cpu)]
        if generator_cpu != program_cpu:
            self._loops.append(
                ([sys.executable, "-c", "while True: pass"], generator_cpu))
        self._spinners: List[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        for argv, cpu in self._loops:
            spinner = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                       stdout=subprocess.DEVNULL)
            self._spinners.append(spinner)
            try:
                os.sched_setaffinity(spinner.pid, {cpu})
                # At normal priority a busy loop would take CPU time
                # from the program: without the idle class, no run.
                os.sched_setscheduler(spinner.pid, os.SCHED_IDLE,
                                      os.sched_param(0))
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc: object) -> None:
        for spinner in self._spinners:
            spinner.terminate()  # the probe saves its record and exits
            try:
                spinner.wait(20.0)
            except subprocess.TimeoutExpired:
                spinner.kill()
                spinner.wait()
        self._spinners = []


class Child:
    """One child process with its output in ``<stem>.out`` / ``.err``."""

    def __init__(self, argv: List[str], *, env: dict, cwd: str, stem: str,
                 cpus: Optional[Set[int]] = None):
        self.out_path = stem + ".out"
        self.err_path = stem + ".err"
        self.started = now()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self._proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=env, cwd=cwd,
            )
        if cpus is not None:
            os.sched_setaffinity(self._proc.pid, cpus)
        self.returncode: Optional[int] = None
        self.peak_rss_mb = float("nan")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def poll(self) -> Optional[int]:
        """Reap the child if it has exited; its exit code, else ``None``."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self._proc.pid, os.WNOHANG)
            if pid != 0:
                self.returncode = os.waitstatus_to_exitcode(status)
                # Popen must not try to reap it a second time.
                self._proc.returncode = self.returncode
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    async def wait(self, timeout: float) -> Optional[int]:
        deadline = now() + timeout
        while self.poll() is None and now() < deadline:
            await asyncio.sleep(0.005)
        return self.returncode

    async def stop(self, grace: float = 20.0) -> Optional[int]:
        """SIGINT (the server drains and exits), then SIGKILL after ``grace``."""
        if self.poll() is None:
            self._proc.send_signal(signal.SIGINT)
            if await self.wait(grace) is None:
                self._proc.kill()
                await self.wait(grace)
        return self.returncode

    def kill(self) -> None:
        """Synchronous last resort for error paths."""
        if self.poll() is None:
            self._proc.kill()
            self._proc.wait()
            self.returncode = self._proc.returncode

    def stdout(self) -> str:
        with open(self.out_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def stderr_tail(self, lines: int = 50) -> str:
        with open(self.err_path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])


async def wait_ready(child: Child, timeout: float = 120.0) -> int:
    """Wait for ``repro serve`` to answer ``ready``; returns its port.

    The port comes from the server's ``serving on HOST:PORT`` line; the
    set-up ends at the first ``ready: true`` answer.
    """
    deadline = child.started + timeout
    port = None
    while port is None:
        match = _SERVING.search(child.stdout())
        if match is not None:
            port = int(match.group(2))
            break
        if child.poll() is not None:
            raise RuntimeError(f"server exited with {child.returncode} "
                               "before serving")
        if now() > deadline:
            raise RuntimeError("server did not start serving in time")
        await asyncio.sleep(0.002)
    conn = await Connection.open("127.0.0.1", port)
    try:
        while not (await conn.call({"op": "ready"})).get("ready"):
            if now() > deadline:
                raise RuntimeError("server never became ready")
            await asyncio.sleep(0.002)
        return port
    finally:
        await conn.close()
