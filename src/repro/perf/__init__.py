"""Performance substrate: machine profiles, timing, and the cost model.

Implements Section 5.3's analytic response-time arithmetic and carries
the paper's measured per-machine constants (Figure 5.9 rows 1-4) so the
response-time table can be regenerated exactly.
"""

from repro.perf.costmodel import (
    INDEX_BLOCK_FRACTION,
    PAPER_T1_MS,
    ResponseTimeRow,
    improvement_percent,
    index_search_time_s,
    response_time_s,
    response_time_table,
)
from repro.perf.machines import (
    DEC_5000_120,
    HP_9000_735,
    PAPER_MACHINES,
    SUN_4_50,
    MachineProfile,
    calibrated_profile,
)
from repro.perf.simulation import (
    WorkloadCost,
    predicted_workload_cost,
    simulate_workload,
)
from repro.perf.timer import mean_time_ms

__all__ = [
    "PAPER_T1_MS",
    "INDEX_BLOCK_FRACTION",
    "index_search_time_s",
    "response_time_s",
    "improvement_percent",
    "ResponseTimeRow",
    "response_time_table",
    "MachineProfile",
    "HP_9000_735",
    "SUN_4_50",
    "DEC_5000_120",
    "PAPER_MACHINES",
    "calibrated_profile",
    "mean_time_ms",
    "WorkloadCost",
    "simulate_workload",
    "predicted_workload_cost",
]
