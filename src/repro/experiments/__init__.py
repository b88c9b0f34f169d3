"""Experiment drivers: one module per table/figure of the paper.

* :mod:`repro.experiments.worked_example` — the Figure 2.2/3.3 relation
* :mod:`repro.experiments.fig57` — compression efficiency
* :mod:`repro.experiments.fig58` — blocks accessed per query
* :mod:`repro.experiments.fig59` — coding times and response times
* :mod:`repro.experiments.reporting` — paper-style text tables

Run everything with ``python -m repro.experiments``.
"""

from repro.experiments.ablations import AblationReport, run_ablations
from repro.experiments.fig57 import (
    PAPER_REDUCTIONS,
    TEST_CONFIGS,
    CompressionResult,
    run_compression_test,
    run_figure_57,
)
from repro.experiments.fig58 import (
    Fig58Result,
    Fig58Row,
    build_fig58_relation,
    run_figure_58,
)
from repro.experiments.fig59 import (
    CodecTimings,
    measure_local_codec,
    measured_response_table,
    paper_response_table,
)
from repro.experiments.reporting import (
    format_fig57,
    format_fig58,
    format_fig59,
    format_table,
)
from repro.experiments.worked_example import (
    PAPER_BLOCK_TUPLES,
    PAPER_DOMAIN_SIZES,
    encode_paper_blocks,
    paper_blocks,
    paper_codec,
    paper_ordinals,
    paper_relation,
    paper_schema,
)

__all__ = [
    "run_ablations",
    "AblationReport",
    "TEST_CONFIGS",
    "PAPER_REDUCTIONS",
    "CompressionResult",
    "run_compression_test",
    "run_figure_57",
    "Fig58Row",
    "Fig58Result",
    "build_fig58_relation",
    "run_figure_58",
    "CodecTimings",
    "measure_local_codec",
    "paper_response_table",
    "measured_response_table",
    "format_table",
    "format_fig57",
    "format_fig58",
    "format_fig59",
    "PAPER_DOMAIN_SIZES",
    "PAPER_BLOCK_TUPLES",
    "paper_ordinals",
    "paper_schema",
    "paper_relation",
    "paper_blocks",
    "paper_codec",
    "encode_paper_blocks",
]
