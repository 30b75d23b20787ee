"""Analysis helpers: report rendering, capability tables, roofline."""

from .report import render_kv, render_table
from .tables import (
    BUFFER_ROWS,
    SCHEDULER_ROWS,
    BufferCapabilities,
    SchedulerCapabilities,
    buffer_capability_table,
    scheduler_capability_table,
)
from .roofline import (
    REGULAR_GEMM,
    SKEWED_GEMM,
    GemmPoint,
    gemm_roofline_rows,
    result_on_roofline,
    roofline_for,
)
from .service_report import (
    render_jobs,
    summarize_sweep_outcome,
    sweep_outcome_rows,
)
from .tuner_report import render_tune_result, tune_results_json

__all__ = [
    "render_kv",
    "render_table",
    "BUFFER_ROWS",
    "SCHEDULER_ROWS",
    "BufferCapabilities",
    "SchedulerCapabilities",
    "buffer_capability_table",
    "scheduler_capability_table",
    "REGULAR_GEMM",
    "SKEWED_GEMM",
    "GemmPoint",
    "gemm_roofline_rows",
    "result_on_roofline",
    "roofline_for",
    "render_tune_result",
    "tune_results_json",
    "render_jobs",
    "summarize_sweep_outcome",
    "sweep_outcome_rows",
]
