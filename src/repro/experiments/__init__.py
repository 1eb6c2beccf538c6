"""Experiment harnesses: one per table/figure of the evaluation."""

from .area_power import Table3, format_table3, table3
from .capabilities import capability_scores, format_table1
from .dnn_comparison import (
    DnnRow,
    dnn_comparison,
    format_figure11,
    geomean,
)
from .generality import format_table4, table4_rows
from .sensitivity import (
    SweepPoint,
    SweepResult,
    format_sweep,
    sweep_dram_bandwidth,
    sweep_port_depth,
    sweep_stream_table,
)
from .machsuite_comparison import (
    MachSuiteRow,
    format_figure12,
    format_figure13,
    format_figure14,
    format_figure15,
    machsuite_comparison,
)

__all__ = [
    "DnnRow",
    "MachSuiteRow",
    "Table3",
    "capability_scores",
    "dnn_comparison",
    "format_figure11",
    "format_figure12",
    "format_figure13",
    "format_figure14",
    "format_figure15",
    "format_table1",
    "format_table3",
    "format_table4",
    "geomean",
    "machsuite_comparison",
    "sweep_dram_bandwidth",
    "sweep_port_depth",
    "sweep_stream_table",
    "SweepPoint",
    "SweepResult",
    "format_sweep",
    "table3",
    "table4_rows",
]
