"""Mini-Aladdin: pre-RTL fixed-function accelerator modeling.

The comparison ASICs of Section 7.3 are modeled the way Aladdin models
them: instrumented execution of each kernel produces a dynamic dependence
graph (:mod:`ddg`), candidate designs are resource-constrained schedules of that
graph (:mod:`schedule`), power/area come from per-op and per-structure
constants (:mod:`power_area`), and a design-space sweep with iso-performance
Pareto selection picks the reported point (:mod:`dse`).
"""

from .ddg import Ddg, Evaluator, OP_COSTS, TraceBuilder, TracedValue
from .dse import explore_design_space, select_iso_performance
from .power_area import AsicEstimate, estimate_power_area, local_sram_kb
from .schedule import AsicDesign, ScheduleResult, schedule_ddg

__all__ = [
    "AsicDesign",
    "AsicEstimate",
    "Ddg",
    "Evaluator",
    "OP_COSTS",
    "ScheduleResult",
    "TraceBuilder",
    "TracedValue",
    "estimate_power_area",
    "explore_design_space",
    "local_sram_kb",
    "schedule_ddg",
    "select_iso_performance",
]
