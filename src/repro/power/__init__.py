"""Area and power accounting for Softbrain (Table 3 methodology)."""

from .model import (
    ComponentModel,
    PowerBreakdown,
    SOFTBRAIN_COMPONENTS,
    activity_factors,
    estimate_power,
    softbrain_area_mm2,
    softbrain_peak_power_mw,
)
from .tech import REFERENCE_NODE_NM, scale_area, scale_power

__all__ = [
    "ComponentModel",
    "PowerBreakdown",
    "REFERENCE_NODE_NM",
    "SOFTBRAIN_COMPONENTS",
    "activity_factors",
    "estimate_power",
    "scale_area",
    "scale_power",
    "softbrain_area_mm2",
    "softbrain_peak_power_mw",
]
