"""Plain-text rendering of the experiment tables.

Every driver returns structured results; these formatters print them in
the same row/column arrangement the paper uses, so the output can be
eyeballed against Figures 5.7, 5.8, and 5.9 directly.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.fig57 import CompressionResult
from repro.experiments.fig58 import Fig58Result
from repro.perf.costmodel import ResponseTimeRow

__all__ = [
    "format_table",
    "format_fig57",
    "format_fig58",
    "format_fig59",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table with a header rule."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines)


def format_fig57(results: List[CompressionResult]) -> str:
    """Figure 5.7 Table (b): percentage reduction per test and size."""
    headers = [
        "tuples", "test", "uncoded blk", "AVQ blk",
        "reduction", "paper", "vs packed", "raw-RLE",
    ]
    rows = [
        [
            r.num_tuples,
            r.test.label,
            r.uncoded_blocks,
            r.coded_blocks,
            f"{r.reduction_pct:.1f}%",
            f"{r.paper_reduction_pct:.1f}%",
            f"{r.packed_reduction_pct:.1f}%",
            f"{r.raw_rle_reduction_pct:.1f}%",
        ]
        for r in results
    ]
    return format_table(headers, rows)


def format_fig58(result: Fig58Result) -> str:
    """Figure 5.8: N per attribute, then the averages."""
    headers = ["attribute", "range", "N uncoded", "N AVQ"]
    rows = [
        [
            r.attribute + (" (key)" if r.is_key else ""),
            f"[{r.lo}, {r.hi}]",
            r.blocks_uncoded,
            r.blocks_coded,
        ]
        for r in result.rows
    ]
    table = format_table(headers, rows)
    summary = (
        f"\nfile blocks: uncoded={result.total_blocks_uncoded} "
        f"coded={result.total_blocks_coded}"
        f"\naverage N: uncoded={result.avg_uncoded:.1f} "
        f"coded={result.avg_coded:.1f} "
        f"(reduction {result.reduction_pct:.1f}%; paper: 153.6 vs 55.0, 64.2%)"
    )
    return table + summary


def format_fig59(rows: List[ResponseTimeRow]) -> str:
    """Figure 5.9: the full response-time table, machines as columns."""
    labels = [
        ("Block coding time (msec)", lambda r: f"{r.coding_ms:.2f}"),
        ("Block decoding time (msec), t2", lambda r: f"{r.decoding_ms:.2f}"),
        ("Single block I/O time (msec), t1", lambda r: f"{r.t1_ms:.2f}"),
        ("Time to extract tuples (msec), t3", lambda r: f"{r.extract_ms:.2f}"),
        ("Index search (uncoded) (sec), I", lambda r: f"{r.index_time_uncoded_s:.3f}"),
        ("Index search (AVQ) (sec), I", lambda r: f"{r.index_time_coded_s:.3f}"),
        ("Blocks accessed (uncoded), N", lambda r: f"{r.blocks_uncoded:.1f}"),
        ("Blocks accessed (AVQ), N", lambda r: f"{r.blocks_coded:.1f}"),
        ("Total I/O time (uncoded) (sec), C2", lambda r: f"{r.total_uncoded_s:.3f}"),
        ("Total I/O time (AVQ) (sec), C1", lambda r: f"{r.total_coded_s:.3f}"),
        ("Improvement", lambda r: f"{r.improvement_pct:.1f}%"),
    ]
    headers = ["No.", "Description"] + [r.machine for r in rows]
    table_rows = [
        [i + 1, label] + [extract(r) for r in rows]
        for i, (label, extract) in enumerate(labels)
    ]
    return format_table(headers, table_rows)
