"""Command-line interface: compress, decompress, inspect, and query.

::

    python -m repro compress  data.csv data.avq [--block-size N]
    python -m repro decompress data.avq data.csv
    python -m repro info      data.avq
    python -m repro query     data.avq --attr years --between 20 30
    python -m repro recover   data.wal data.avq
    python -m repro scrub     data.avq
    python -m repro fsck      data.avq --repair --wal data.wal
    python -m repro serve     data.csv --port 7474
    python -m repro loadgen   --selfhosted --clients 1000 --json out.json
    python -m repro chaos     --seeds 5 --json BENCH_chaos.json

``compress`` runs the full Section 3 pipeline on a CSV; ``query``
demonstrates localized access — only the blocks that can contain
matches are decoded.  ``compress --durable`` also writes a write-ahead
log seeded with the table's checkpoint image, and ``recover`` rebuilds
a container from such a log (docs/RECOVERY.md).

``scrub`` verifies every block's checksum and decode round-trip;
``fsck`` additionally repairs damaged blocks from a write-ahead log,
backfills checksums onto legacy containers, and quarantines what it
cannot prove repaired (docs/INTEGRITY.md).  Both exit 0 when the
container is healthy and 2 when damage remains.

``serve`` compresses CSVs into an in-process database and answers
concurrent clients over the length-prefixed protocol; ``loadgen`` drives
a server with closed-loop zipf-skewed clients and reports qps and
latency percentiles (docs/SERVING.md).  ``loadgen --selfhosted --json``
is the CI benchmark entry point behind ``BENCH_serving.json``.
``chaos`` runs the seeded network/disk fault sweep
(:mod:`repro.server.chaos`) and checks the serving invariants — no lost
acknowledged write, no client hang past its deadline, typed refusals,
recovery to steady state; its report is ``BENCH_chaos.json``.  It exits
0 only when every scenario passed.

The global ``--metrics PATH`` flag (before the subcommand) enables the
observability layer for the run and writes its JSON-lines export —
every counter, histogram, and retained span — to ``PATH`` afterwards
(docs/OBSERVABILITY.md).  With it, ``stats`` also appends the
registry's human-readable table to its report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.io.csvio import read_csv_relation, write_csv_rows
from repro.io.format import AVQFileReader, write_avq_file
from repro.obs import runtime as _obs
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE

__all__ = ["build_parser", "main"]


def _cmd_compress(args: argparse.Namespace) -> int:
    relation = read_csv_relation(
        args.input,
        has_header=not args.no_header,
        inferencer=SchemaInferencer(integer_padding=args.integer_padding),
    )
    schema = relation.schema
    summary = write_avq_file(args.output, relation, block_size=args.block_size)
    ratio = 100.0 * (
        1.0 - summary["file_bytes"] / max(1, summary["fixed_width_bytes"])
    )
    print(f"{args.input}: {summary['tuples']} tuples, "
          f"{schema.arity} attributes")
    print(f"{args.output}: {summary['blocks']} blocks, "
          f"{summary['file_bytes']:,} bytes "
          f"({summary['payload_bytes']:,} payload)")
    print(f"versus packed fixed-width ({summary['fixed_width_bytes']:,} "
          f"bytes): {ratio:.1f}% smaller")
    if args.durable is not None:
        from repro.storage.wal import WriteAheadLog

        with WriteAheadLog.create(
            args.durable, schema, block_size=args.block_size
        ) as wal:
            wal.checkpoint(relation.phi_ordinals())
        print(f"{args.durable}: write-ahead log with a "
              f"{summary['tuples']}-tuple checkpoint image")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.storage.wal import read_log, replay_records

    header, records, truncated, _ = read_log(args.wal)
    image = replay_records(records)
    mapper = header.schema.mapper
    relation = Relation(
        header.schema, [mapper.phi_inverse(o) for o in image.ordinals]
    )
    summary = write_avq_file(
        args.output, relation, block_size=header.block_size
    )
    print(f"{args.wal}: {len(records)} records scanned"
          + ("" if truncated is None
             else f", torn tail truncated at byte {truncated}"))
    print(f"transactions: {image.committed_txns} committed, "
          f"{image.discarded_txns} discarded "
          f"({image.replayed_ops} operations replayed)")
    print(f"{args.output}: {summary['tuples']} tuples recovered into "
          f"{summary['blocks']} blocks")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    with AVQFileReader(args.input) as reader:
        names = reader.schema.names
        rows = list(reader.scan_values())
    write_csv_rows(args.output, names, rows)
    print(f"{args.output}: {len(rows)} rows, {len(names)} columns")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with AVQFileReader(args.input) as reader:
        schema = reader.schema
        print(f"container:   {args.input}")
        print(f"tuples:      {reader.num_tuples}")
        print(f"blocks:      {reader.num_blocks} "
              f"(logical block size {reader.block_size})")
        print(f"codec:       chained={reader.codec.chained}, "
              f"representative={reader.codec.representative_strategy}")
        print(f"tuple width: {reader.codec.tuple_bytes} bytes fixed")
        print("attributes:")
        for attr in schema.attributes:
            print(f"  {attr.name:20s} |domain| = {attr.domain.size}")
        if args.blocks:
            print("block directory:")
            for pos in range(reader.num_blocks):
                count, first = reader.block_info(pos)
                print(f"  block {pos:4d}: {count:5d} tuples, "
                      f"first ordinal {first}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with AVQFileReader(args.input) as reader:
        schema = reader.schema
        domain = schema.attribute(args.attr).domain
        lo_raw, hi_raw = args.between
        lo = domain.encode_bound(_coerce(lo_raw))
        hi = domain.encode_bound(_coerce(hi_raw))
        if lo > hi:
            raise ReproError(
                f"{lo_raw!r}..{hi_raw!r} is inverted under the domain order"
            )
        pos = schema.position(args.attr)

        if pos == 0:
            # Clustering attribute: only the overlapping ordinal range.
            w0 = schema.mapper.weights[0]
            candidates = reader.blocks_overlapping(
                lo * w0, (hi + 1) * w0 - 1
            )
        else:
            candidates = list(range(reader.num_blocks))

        from collections import OrderedDict

        from repro.storage.buffer import BufferStats

        # Stage timing runs through repro.obs — the sanctioned clock
        # (R008) — so the same numbers the CLI prints also land in the
        # registry/tracer whenever the global --metrics flag is up.
        stats = BufferStats()
        cache: "OrderedDict[int, list]" = OrderedDict()
        stage_ms = {"decode": 0.0, "total": 0.0}

        def read_cached(position: int) -> list:
            block = cache.get(position) if args.decoded_cache > 0 else None
            if block is not None:
                cache.move_to_end(position)
                stats.decoded_hits += 1
                return block
            t0 = _obs.now_ms()
            block = reader.read_block(position)
            stage_ms["decode"] += _obs.now_ms() - t0
            if args.decoded_cache > 0:
                stats.decoded_misses += 1
                cache[position] = block
                if len(cache) > args.decoded_cache:
                    cache.popitem(last=False)
                    stats.decoded_evictions += 1
            return block

        matches = 0
        repeats = max(1, args.repeat)
        with _obs.span(
            "cli.query",
            attr=args.attr,
            candidates=len(candidates),
            repeats=repeats,
        ):
            for repeat in range(repeats):
                matches = 0
                t0 = _obs.now_ms()
                for position in candidates:
                    for t in read_cached(position):
                        if lo <= t[pos] <= hi:
                            matches += 1
                            if repeat == 0 and matches <= args.limit:
                                print(schema.decode_tuple(t))
                stage_ms["total"] += _obs.now_ms() - t0
        reg = _obs.REGISTRY
        if reg is not None:
            reg.inc("cli.query.matches", matches)
            reg.inc("cli.query.candidate_blocks", len(candidates))
            reg.observe("cli.query.decode_ms", stage_ms["decode"])
            reg.observe("cli.query.total_ms", stage_ms["total"])
        print(f"-- {matches} matching rows; decoded {len(candidates)} of "
              f"{reader.num_blocks} blocks (N = {len(candidates)})")
        if args.repeat > 1 or args.decoded_cache > 0:
            print(f"-- decoded cache: {stats.decoded_hits} hits, "
                  f"{stats.decoded_misses} misses, "
                  f"{stats.decoded_evictions} evictions "
                  f"(hit rate {stats.decoded_hit_rate:.1%})")
            print(f"-- stages: decode {stage_ms['decode']:.2f} ms "
                  f"within total {stage_ms['total']:.2f} ms "
                  f"over {repeats} run(s)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with AVQFileReader(args.input) as reader:
        schema = reader.schema
        from repro.db.stats import AttributeHistogram

        histograms = {
            name: AttributeHistogram(size, num_buckets=args.buckets)
            for name, size in zip(schema.names, schema.domain_sizes)
        }
        for position in range(reader.num_blocks):
            for t in reader.read_block(position):
                for pos, name in enumerate(schema.names):
                    histograms[name].add(t[pos])
        print(f"{args.input}: {reader.num_tuples} tuples, "
              f"{reader.num_blocks} blocks")
        for name in schema.names:
            h = histograms[name]
            size = schema.attribute(name).domain.size
            print(f"  {name:20s} |domain| = {size:8d}  "
                  f"distinct >= {h.distinct_values():6d}  "
                  f"mid-range share = "
                  f"{h.estimate_selectivity(size // 4, 3 * size // 4):.1%}")
        reg = _obs.REGISTRY
        if reg is not None:
            from repro.obs.export import stats_table

            print()
            print(stats_table(reg, title="observability"), end="")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.io.scrub import scrub_container

    report = scrub_container(args.input)
    for line in report.fsck_lines():
        print(line)
    print(f"{args.input}: {report.blocks_checked} blocks checked, "
          f"{len(report.findings)} finding(s)")
    if report.backfill_candidates:
        print(f"note: {report.backfill_candidates} block(s) predate "
              "checksums; run fsck --backfill-checksums")
    return 0 if report.clean else 2


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.io.scrub import fsck_container

    report = fsck_container(
        args.input,
        repair=args.repair,
        backfill=args.backfill_checksums,
        wal_path=args.wal,
    )
    for line in report.fsck_lines():
        print(line)
    if args.repair and report.findings and args.wal is None:
        print("note: no --wal given, so damaged blocks had no repair "
              "source", file=sys.stderr)
    print(f"{args.input}: {report.blocks_checked} blocks checked, "
          f"{len(report.findings)} finding(s), "
          f"{len(report.repaired)} repaired, "
          f"{len(report.quarantined)} quarantined, "
          f"{report.backfilled} backfilled")
    return 0 if report.healthy else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.db.database import Database
    from repro.server.server import ReproServer, ServerConfig

    database = Database()
    for spec in args.csv:
        path, _, name = spec.partition(":")
        name = name or Path(path).stem
        database.create_table_from_relation(
            name, read_csv_relation(path), compressed=True
        )
        table = database.table(name)
        print(f"{name}: {table.num_tuples} tuples in "
              f"{table.num_blocks} blocks (from {path})")
    server = ReproServer(
        database,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queued=args.max_queued,
            max_per_client=args.max_per_client,
            reader_threads=args.reader_threads,
        ),
    )

    async def _serve() -> None:
        host, port = await server.start()
        print(f"serving on {host}:{port} (ctrl-c to stop)")
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # serve_forever usually absorbs the cancellation itself
    print("stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.server import loadgen as _loadgen

    if args.selfhosted:
        report = _loadgen.run_selfhosted_bench(
            tuples=args.tuples,
            clients=args.clients,
            requests_per_client=args.requests,
            read_fraction=args.read_fraction,
            zipf_s=args.zipf_s,
            seed=args.seed,
        )
    else:
        if args.table is None:
            raise ReproError("--table is required unless --selfhosted")
        report = asyncio.run(
            _loadgen.run_loadgen(
                args.host,
                args.port,
                table=args.table,
                clients=args.clients,
                requests_per_client=args.requests,
                read_fraction=args.read_fraction,
                zipf_s=args.zipf_s,
                seed=args.seed,
            )
        )
    lat = report.latency_ms
    print(f"{report.clients} clients x {report.requests_per_client} "
          f"requests: {report.ok} ok, {report.busy} busy, "
          f"{report.errors} errors")
    print(f"qps {report.qps:.1f} over {report.duration_ms:.0f} ms")
    if lat:
        print(f"latency ms: p50 {lat['p50']:.2f}  p90 {lat['p90']:.2f}  "
              f"p99 {lat['p99']:.2f}  max {lat['max']:.2f}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"-- report -> {args.json}", file=sys.stderr)
    return 0 if report.errors == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.server.chaos import SCENARIO_KINDS, run_chaos_sweep

    kinds = (
        tuple(args.kinds.split(",")) if args.kinds else SCENARIO_KINDS
    )
    report = run_chaos_sweep(
        kinds=kinds,
        seeds=tuple(range(args.seeds)),
        clients=args.clients,
        requests_per_client=args.requests,
        work_dir=args.work_dir,
    )
    print(
        f"{report['total']} scenarios: {report['passed']} passed, "
        f"{report['failed']} failed"
    )
    print(
        f"invariants: {report['lost_acked_writes']} lost acked writes, "
        f"{report['hangs']} hangs, "
        f"{report['untyped_responses']} untyped responses, "
        f"{report['deadline_violations']} deadline violations"
    )
    print(f"p99 under chaos: {report['p99_under_chaos_ms']:.2f} ms")
    for scenario in report["scenarios"]:
        if not scenario["passed"]:
            print(f"FAILED: {json.dumps(scenario, sort_keys=True)}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"-- report -> {args.json}", file=sys.stderr)
    return 0 if report["failed"] == 0 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as lint_main

    argv: List[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.show_suppressed:
        argv.append("--show-suppressed")
    if args.list_rules:
        argv.append("--list-rules")
    if args.project:
        argv.append("--project")
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv += ["--write-baseline", args.write_baseline]
    if args.shared_state:
        argv.append("--shared-state")
    return lint_main(argv)


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AVQ relational compression (Ng & Ravishankar, ICDE 1995)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable the observability layer for this command and write "
             "its JSON-lines metric/span export to PATH afterwards "
             "(docs/OBSERVABILITY.md); goes before the subcommand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="CSV -> .avq container")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    p.add_argument("--no-header", action="store_true",
                   help="CSV has no header row")
    p.add_argument("--integer-padding", type=int, default=0,
                   help="headroom added above each integer column's max")
    p.add_argument("--durable", metavar="WALPATH", default=None,
                   help="also write a write-ahead log seeded with the "
                        "table's checkpoint image (docs/RECOVERY.md)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "recover",
        help="rebuild a container from a write-ahead log",
    )
    p.add_argument("wal", help="write-ahead log (.wal)")
    p.add_argument("output", help="container to write (.avq)")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("decompress", help=".avq container -> CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("info", help="describe a container")
    p.add_argument("input")
    p.add_argument("--blocks", action="store_true",
                   help="also print the block directory")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("stats", help="per-attribute histograms of a container")
    p.add_argument("input")
    p.add_argument("--buckets", type=int, default=16,
                   help="histogram resolution")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "scrub",
        help="verify every block of a container (docs/INTEGRITY.md)",
    )
    p.add_argument("input")
    p.set_defaults(func=_cmd_scrub)

    p = sub.add_parser(
        "fsck",
        help="check a container; optionally repair from a WAL, "
             "backfill checksums, quarantine unrepairable blocks",
    )
    p.add_argument("input")
    p.add_argument("--repair", action="store_true",
                   help="restore damaged blocks from --wal where byte "
                        "identity can be proven; quarantine the rest")
    p.add_argument("--backfill-checksums", action="store_true",
                   help="add CRC32s to legacy pre-checksum directory "
                        "entries that still decode cleanly")
    p.add_argument("--wal", metavar="WALPATH", default=None,
                   help="write-ahead log to use as the repair source")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "lint",
        help="static analysis of codec invariants (see docs/ANALYSIS.md)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to scan (default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--select", metavar="RULES",
                   help="comma-separated rule ids to run")
    p.add_argument("--ignore", metavar="RULES",
                   help="comma-separated rule ids to skip")
    p.add_argument("--show-suppressed", action="store_true",
                   help="also print findings waived by # repro: noqa")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--project", action="store_true",
                   help="whole-program mode: run R009-R014 over the "
                        "project context too")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="known-findings file; fail only on new findings "
                        "(implies --project)")
    p.add_argument("--write-baseline", metavar="FILE", default=None,
                   help="record current findings as the baseline "
                        "(implies --project)")
    p.add_argument("--shared-state", action="store_true",
                   help="print the audited shared-state registry "
                        "(implies --project)")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="serve CSV-seeded tables to concurrent clients "
             "(docs/SERVING.md)",
    )
    p.add_argument("csv", nargs="+", metavar="CSV[:NAME]",
                   help="CSV file(s) to compress and serve; table name "
                        "defaults to the file stem")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7474,
                   help="0 picks an ephemeral port (printed on start)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="requests executing at once")
    p.add_argument("--max-queued", type=int, default=256,
                   help="requests waiting beyond that (then BUSY)")
    p.add_argument("--max-per-client", type=int, default=8,
                   help="per-connection queued-or-executing cap")
    p.add_argument("--reader-threads", type=int, default=8,
                   help="thread pool size for snapshot reads")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="closed-loop zipf load generator against a repro server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7474)
    p.add_argument("--table", default=None,
                   help="table to exercise (required unless --selfhosted)")
    p.add_argument("--selfhosted", action="store_true",
                   help="seed a synthetic table and serve it in-process "
                        "for the run (the CI benchmark mode)")
    p.add_argument("--tuples", type=int, default=5000,
                   help="synthetic table size (--selfhosted only)")
    p.add_argument("--clients", type=int, default=100,
                   help="concurrent closed-loop clients")
    p.add_argument("--requests", type=int, default=20,
                   help="requests per client")
    p.add_argument("--read-fraction", type=float, default=0.9,
                   help="fraction of requests that are selects")
    p.add_argument("--zipf-s", type=float, default=1.2,
                   help="zipf skew of key popularity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full report (BENCH_serving.json shape)")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "chaos",
        help="seeded network/disk fault sweep against an in-process "
             "server (serving-layer invariant checks)",
    )
    p.add_argument("--kinds", default=None,
                   help="comma-separated scenario kinds (default: all)")
    p.add_argument("--seeds", type=int, default=5,
                   help="seeds per kind (scenarios = kinds x seeds)")
    p.add_argument("--clients", type=int, default=3,
                   help="concurrent clients per scenario")
    p.add_argument("--requests", type=int, default=5,
                   help="requests per client per scenario")
    p.add_argument("--work-dir", default=None,
                   help="directory for crash-restart WALs "
                        "(default: a temp dir)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full report (BENCH_chaos.json shape)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("query", help="range-select from a container")
    p.add_argument("input")
    p.add_argument("--attr", required=True, help="attribute name")
    p.add_argument("--between", nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--limit", type=int, default=20,
                   help="rows to print (count is always exact)")
    p.add_argument("--decoded-cache", type=int, default=0, metavar="BLOCKS",
                   help="LRU-cache up to this many decoded blocks "
                        "(0 disables; see docs/PERFORMANCE.md)")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the query this many times (with --decoded-cache "
                        "the repeats hit the cache; counters are printed)")
    p.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.metrics is None:
            return args.func(args)
        from repro.obs.export import write_jsonl

        # Fresh instruments scoped to this one command: the export
        # reflects exactly what the command did, and the prior global
        # state (if any) is restored on the way out.
        with _obs.scoped() as (registry, tracer):
            code = args.func(args)
            rows = write_jsonl(args.metrics, registry, tracer)
        print(f"-- metrics: {rows} event(s) -> {args.metrics}",
              file=sys.stderr)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
