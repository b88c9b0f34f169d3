"""Run every experiment and print the paper-style tables.

Usage::

    python -m repro.experiments [--quick]

``--quick`` shrinks relation sizes so the whole sweep finishes in a few
seconds (useful as a smoke test); the default sizes match the scaled
experiment described in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.fig57 import run_figure_57
from repro.experiments.fig58 import run_figure_58
from repro.experiments.fig59 import (
    measure_local_codec,
    measured_response_table,
    paper_response_table,
)
from repro.experiments.reporting import (
    format_fig57,
    format_fig58,
    format_fig59,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table and figure of the AVQ paper.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small relations; finishes in seconds",
    )
    parser.add_argument(
        "--ablations",
        action="store_true",
        help="also run the DESIGN.md ablation studies",
    )
    args = parser.parse_args(argv)

    if args.quick:
        fig57_sizes = (2_000, 10_000)
        fig58_tuples = 5_000
        timing_tuples = 5_000
        repeats = 20
    else:
        fig57_sizes = (10_000, 100_000)
        fig58_tuples = 50_000
        timing_tuples = 20_000
        repeats = 100

    print("=" * 72)
    print("Figure 5.7 — compression efficiency")
    print("=" * 72)
    print(format_fig57(run_figure_57(fig57_sizes)))

    print()
    print("=" * 72)
    print("Figure 5.8 — blocks accessed per range query")
    print("=" * 72)
    fig58 = run_figure_58(num_tuples=fig58_tuples)
    print(format_fig58(fig58))

    print()
    print("=" * 72)
    print("Figure 5.9 — response times (paper constants, regenerated)")
    print("=" * 72)
    print(format_fig59(paper_response_table()))

    print()
    print("=" * 72)
    print("Figure 5.9 — response times (measured N, + local calibration)")
    print("=" * 72)
    timings = measure_local_codec(num_tuples=timing_tuples, repeats=repeats)
    print(
        f"local codec: {timings.tuples_per_block} tuples/block, "
        f"{timings.block_bytes} coded bytes"
    )
    print(format_fig59(measured_response_table(fig58, local=timings.profile)))

    if args.ablations:
        from repro.experiments.ablations import run_ablations

        print()
        print("=" * 72)
        print("Ablation studies (DESIGN.md section 5)")
        print("=" * 72)
        print(run_ablations(num_tuples=2_000 if args.quick else 20_000))
    return 0


if __name__ == "__main__":
    sys.exit(main())
