"""The repository benchmark: one workload, one seed, every answer checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload point-hot --seed 0 \\
        --seconds 15 --trace 0 [--out results.json]

Workloads: ``point-hot``, ``scan-cold``, ``mixed-write`` (served by
``python -m repro serve``) and ``bulk-load`` (``repro.io.format`` in a
child process); see README.md.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it starts a traced program instead
and prints every per-layer metric.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Every time is reported at the speed probe's nominal speed (``probe.py``);
``--out`` also records the times as measured.

Exit status: 0 for a correct, valid run; 1 when an answer was wrong or
missing; 2 when the source tree is absent; 3 when the run is invalid
(the generator fell behind its schedule or the server died).

This process never imports ``repro``; ``--src`` names the source tree
the children run (default: ``src`` beside this checkout's benchmark).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import numpy as np

from client import ANSWER_TIMEOUT_S, Op
from layers import layer_metrics
from probe import Speed
from process import Child, KeepAwake, split_cpus
from served import WORKLOADS, run_served

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

ALL_WORKLOADS = (*WORKLOADS, "bulk-load")
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
#: Spawns per run whose set-up is timed; ``setup_s`` is their median.
SETUPS = 5
WARMUP_S = 2.0
#: A run whose generator sent 1% of its requests later than this is
#: void: it could not hold its schedule.  (Latency is timed from the
#: due time, so lateness below it still counts against the server.)
MAX_LATE_P99_MS = 10.0
SMOKE = {"seconds": 3.0, "warmup": 0.5, "setups": 1, "scale": 0.2,
         "check_keys": 20}


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _latencies(ops: List[Op], speed: Speed = None) -> List[float]:
    """Per-request latency in ms from its due time, at the probe's
    nominal speed (as measured without ``speed``); a failed request
    misses any limit."""
    timeout_ms = ANSWER_TIMEOUT_S * 1000.0
    return [timeout_ms if not op.ok
            else op.latency_ms if speed is None
            else speed.scaled(op.latency_ms, op.due, op.done)
            for op in ops]


def _batch_rate(parts: List[List[Op]], speed: Speed = None) -> float:
    """Requests per second of a saturated batch: its requests over the
    time its parts took, each from its start to its last answer."""
    seconds = 0.0
    for ops in parts:
        if any(math.isnan(op.done) for op in ops):
            return float("nan")
        start, end = ops[0].due, max(op.done for op in ops)
        seconds += (end - start if speed is None
                    else speed.scaled(end - start, start, end))
    return sum(len(ops) for ops in parts) / seconds


def provenance(src: str) -> Dict[str, Any]:
    """Where and on what the run happened."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(src, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(src, "..", ".git")):
        done = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the workloads, and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _scale_times(metrics: Dict[str, float], speed: Speed,
                 intervals: List[Tuple[float, float]]) -> None:
    """Per-layer times at the probe's nominal speed: one factor a run,
    the median over its ops."""
    factor = statistics.median(speed.scaled(1.0, t0, t1)
                               for t0, t1 in intervals)
    for metric in load_spec()["per_layer"]:
        if metric["unit"] in _TIME_UNITS:
            metrics[metric["name"]] *= factor


def served_run(opts, work: str, smoke: Dict[str, Any],
               cpu: int) -> Dict[str, Any]:
    workload = WORKLOADS[opts.workload](
        opts.seed, rows=int(WORKLOADS[opts.workload].rows
                            * smoke.get("scale", 1)))
    if opts.wrong:
        workload.corrupt_one_answer()
    gc.disable()  # a collection pause would show up as generator lateness
    try:
        raw = asyncio.run(run_served(
            workload, src=opts.src, work=work, seconds=opts.seconds,
            warmup=smoke.get("warmup", WARMUP_S),
            setups=1 if opts.trace else smoke.get("setups", SETUPS),
            trace=bool(opts.trace),
            check_keys=smoke.get("check_keys", 200), cpus={cpu}))
    finally:
        gc.enable()
    raw["workload"] = workload
    if opts.trace:
        with open(raw["spans_path"], encoding="utf-8") as fh:
            raw["spans"] = json.load(fh)
    return raw


def served_metrics(raw: Dict[str, Any], speed: Speed, opts
                   ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    workload = raw["workload"]
    server: Child = raw["server"]
    rounds = raw.get("rounds", [])
    nominal = raw["nominal"] if opts.trace else [
        op for ops, _ in rounds for op in ops]
    late_p99 = _percentile([op.late_ms for op in nominal], 99)
    lat = _latencies(nominal, speed)
    detail: Dict[str, Any] = {
        "attempted": raw["attempted"], "failed": raw["failed"],
        "failures": workload.failures, "requests": len(nominal),
        "rate_qps": workload.rate, "table_rows": len(workload.table),
        "initial_blocks": raw.get("initial_blocks"),
        "server_exit": raw["server_exit"],
        "gen_late_p99_ms": late_p99,
        "invalid": [],
    }
    for kind in ("select", "insert", "delete"):
        kind_lat = _latencies([op for op in nominal if op.kind == kind],
                              speed)
        if kind_lat:
            detail[f"{kind}_p50_ms"] = _percentile(kind_lat, 50)
            detail[f"{kind}_p99_ms"] = _percentile(kind_lat, 99)
    if late_p99 > MAX_LATE_P99_MS:
        detail["invalid"].append(
            f"generator p99 lateness {late_p99:.2f} ms "
            f"> {MAX_LATE_P99_MS} ms")
    if raw["server_exit"] != 0:
        detail["invalid"].append(
            f"server exited with {raw['server_exit']}")
    if detail["invalid"]:
        detail["server_stderr"] = server.stderr_tail(50)
    if opts.trace:
        dump = raw["spans"]
        answered = [op for op in nominal if op.ok]
        metrics = layer_metrics(
            dump["spans"], ops=len(answered),
            op_s=sum(op.done - op.sent for op in answered))
        _scale_times(metrics, speed, [(op.due, op.done) for op in answered])
        metrics["harness.trace_overhead_frac"] = (
            _percentile(lat, 50)
            / _percentile(_latencies(raw["untraced"], speed), 50) - 1.0)
        detail["trace_missing"] = dump["missing"]
        return metrics, detail
    batches = [batch for _, batch in rounds]
    setup_s = [speed.scaled(t1 - t0, t0, t1) for t0, t1 in raw["setups"]]
    measured_lat = _latencies(nominal)
    detail.update({
        "setup_s_samples": setup_s,
        "round_capacity_per_s": [_batch_rate(b, speed) for b in batches],
        "measured": {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in raw["setups"]),
            "p50_ms": _percentile(measured_lat, 50),
            "p90_ms": _percentile(measured_lat, 90),
            "capacity_per_s": statistics.median(_batch_rate(b)
                                                for b in batches),
        },
    })
    metrics = {
        "setup_s": statistics.median(setup_s),
        "p50_ms": _percentile(lat, 50),
        "p90_ms": _percentile(lat, 90),
        "capacity_per_s": statistics.median(detail["round_capacity_per_s"]),
        "peak_rss_mb": server.peak_rss_mb,
        "stored_bytes_ratio": raw.get("stored_bytes_ratio", float("nan")),
    }
    return metrics, detail


def bulk_run(opts, work: str, smoke: Dict[str, Any],
             cpu: int) -> Dict[str, Any]:
    argv = [sys.executable, os.path.join(HERE, "bulk.py"),
            "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--work", work, "--scale", str(smoke.get("scale", 1.0))]
    spans_path = os.path.join(work, "spans.json")
    if opts.trace:
        argv += ["--trace", spans_path]
    if opts.wrong:
        argv.append("--wrong")
    env = dict(os.environ, PYTHONPATH=opts.src)
    child = Child(argv, env=env, cwd=work, stem=os.path.join(work, "bulk"),
                  cpus={cpu})
    code = asyncio.run(child.wait(opts.seconds + 150.0))
    if code is None:
        child.kill()
    if code != 0:
        raise RuntimeError(f"bulk-load program exited with {code}:\n"
                           + child.stderr_tail(50))
    with open(os.path.join(work, "bulk.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    _check_imported(raw["repro"], opts.src)
    raw["peak_rss_mb"] = child.peak_rss_mb
    if opts.trace:
        with open(spans_path, encoding="utf-8") as fh:
            raw["spans"] = json.load(fh)
    return raw


def bulk_metrics(raw: Dict[str, Any], speed: Speed, opts
                 ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    def cycle_ms(cycles: List[List[float]]) -> List[float]:
        """Each ``[start, end, seconds in the container calls]`` in ms."""
        return [1000.0 * speed.scaled(spent, t0, t1)
                for t0, t1, spent in cycles]

    cycles_ms = cycle_ms(raw["cycles"])
    detail: Dict[str, Any] = {
        "attempted": raw["attempted"], "failed": raw["failed"],
        "cycles": len(cycles_ms), "tuples_per_cycle": raw["tuples_per_cycle"],
        "invalid": [],
    }
    if opts.trace:
        dump = raw["spans"]
        metrics = layer_metrics(dump["spans"], ops=len(cycles_ms),
                                op_s=sum(c[2] for c in raw["cycles"]))
        _scale_times(metrics, speed, [(t0, t1) for t0, t1, _ in raw["cycles"]])
        metrics["harness.trace_overhead_frac"] = (
            statistics.median(cycles_ms)
            / statistics.median(cycle_ms(raw["untraced_cycles"])) - 1.0)
        detail["trace_missing"] = dump["missing"]
        return metrics, detail
    # Each container call at the probe speed of its cycle.
    factors = [speed.scaled(1.0, t0, t1) for t0, t1, _ in raw["cycles"]]
    for kind, label in (("vector", ""), ("scalar", "_wide")):
        n = raw[f"{kind}_tuples"]
        for op, name in (("write", "compress"), ("read", "decompress")):
            seconds = [s * f for s, f in zip(raw[f"{kind}_{op}_s"], factors)]
            detail[f"{name}{label}_ktuples_s"] = (
                n / statistics.median(seconds) / 1000.0)
    setup_s = [speed.scaled(t1 - t0, t0, t1) for t0, t1 in raw["setups"]]
    measured_ms = [1000.0 * spent for _, _, spent in raw["cycles"]]
    detail["measured"] = {
        "setup_s": statistics.median(t1 - t0 for t0, t1 in raw["setups"]),
        "p50_ms": _percentile(measured_ms, 50),
        "p90_ms": _percentile(measured_ms, 90),
        "capacity_per_s": (1000.0 * raw["tuples_per_cycle"]
                           / statistics.median(measured_ms)),
    }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "p50_ms": _percentile(cycles_ms, 50),
        "p90_ms": _percentile(cycles_ms, 90),
        "capacity_per_s": (1000.0 * raw["tuples_per_cycle"]
                           / statistics.median(cycles_ms)),
        "peak_rss_mb": raw["peak_rss_mb"],
        "stored_bytes_ratio": (raw["vector_file_bytes"]
                               / raw["vector_fixed_width_bytes"]),
    }
    return metrics, detail


def _check_imported(path: str, src: str) -> None:
    """The program measured must be the one under ``src``."""
    if not os.path.realpath(path).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"repro was imported from {path}, not {src}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds (after set-up and warm-up)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced program, per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="also write the full results as JSON here")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree to measure (default: ./src)")
    parser.add_argument("--smoke", action="store_true",
                        help="shorten every phase to a few seconds")
    parser.add_argument("--wrong", action="store_true",
                        help="expect one wrong answer (checker self-test)")
    opts = parser.parse_args(argv)
    opts.src = os.path.abspath(opts.src)
    if not os.path.isfile(os.path.join(opts.src, "repro", "__init__.py")):
        print(f"error: no repro package under {opts.src}", file=sys.stderr)
        return 2
    smoke: Dict[str, Any] = SMOKE if opts.smoke else {}
    if opts.smoke:
        opts.seconds = min(opts.seconds, SMOKE["seconds"])
    # Taken at the start (load average); only a results file records it.
    info = provenance(opts.src) if opts.out is not None else None
    work = os.path.join(ROOT, ".bench_build", "e2e",
                        f"{opts.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    generator_cpu, program_cpu = split_cpus()
    probe_path = os.path.join(work, "probe.npy")
    bulk = opts.workload == "bulk-load"
    try:
        with KeepAwake(generator_cpu, program_cpu, probe_path):
            raw = (bulk_run if bulk else served_run)(opts, work, smoke,
                                                     program_cpu)
        metrics, detail = (bulk_metrics if bulk else served_metrics)(
            raw, Speed.load(probe_path), opts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = [(m["name"], m["unit"])
            for m in load_spec()["per_layer" if opts.trace else "end_to_end"]]
    for name, unit in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    stderr_tail = detail.pop("server_stderr", None)
    for key in sorted(detail):
        print(f"# {key}: {detail[key]}")
    if stderr_tail:
        print(stderr_tail, file=sys.stderr)
    for reason in detail["invalid"]:
        print(f"invalid run: {reason}", file=sys.stderr)
    answered = detail["failed"] == 0 and not detail.get("failures")
    correct = answered and not detail["invalid"]
    if opts.out is not None:
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": opts.workload, "seed": opts.seed,
                       "seconds": opts.seconds, "trace": opts.trace,
                       "provenance": info, "correct": correct,
                       "metrics": metrics, "detail": detail},
                      fh, indent=2, sort_keys=True, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec},
    }))
    if detail["invalid"]:
        return 3
    return 0 if answered else 1


if __name__ == "__main__":
    sys.exit(main())
