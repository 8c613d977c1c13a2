"""Experiment harness: calibration, per-figure/table runners, rendering."""

from .calibration import (
    DEFAULT_BOWTIE2_MODEL,
    DEFAULT_CPU_MODEL,
    PAPER_FIG5,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TRENDS,
    NativeBowtie2CostModel,
    NativeCPUCostModel,
)
from .harness import (
    PAPER_REF_BASES,
    experiment_fig5,
    experiment_fig6,
    experiment_fig7,
    experiment_table,
    experiment_table1,
    experiment_table2,
    get_index,
    get_reference,
)
from .reporting import fmt_bytes, fmt_ms, fmt_ratio, render_table

__all__ = [
    "DEFAULT_BOWTIE2_MODEL",
    "DEFAULT_CPU_MODEL",
    "NativeBowtie2CostModel",
    "NativeCPUCostModel",
    "PAPER_FIG5",
    "PAPER_REF_BASES",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TRENDS",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_table",
    "experiment_table1",
    "experiment_table2",
    "fmt_bytes",
    "fmt_ms",
    "fmt_ratio",
    "get_index",
    "get_reference",
    "render_table",
]
