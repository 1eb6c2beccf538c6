"""Fault injection, hang watchdog and structured failure diagnostics.

Three pieces (see ``docs/RESILIENCE.md``):

* :class:`FaultPlan` / :class:`FaultInjector` — deterministic, planned
  fault injection through thin hooks in the simulator (memory delays and
  bit corruption, engine stalls, CGRA bit-flips, port drops, illegal
  command words).  Zero-fault runs pay one ``is None`` test per hook.
* :func:`build_wait_graph` — the hang watchdog: turns a deadlocked or
  limit-tripped simulator into a wait-for graph with root-cause chains.
* :class:`FailureReport` — the JSON crash dump attached to every escaping
  :class:`~repro.sim.errors.SimError`, and :func:`run_campaign` — the
  fault-campaign driver behind ``python -m repro faults``.
"""

from .campaign import (
    BAD_CLASSIFICATIONS,
    CampaignResult,
    CaseOutcome,
    run_campaign,
)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from .report import (
    FailureReport,
    build_failure_report,
    snapshot_components,
)
from .watchdog import WaitGraph, build_wait_graph

__all__ = [
    "BAD_CLASSIFICATIONS",
    "CampaignResult",
    "CaseOutcome",
    "FAULT_KINDS",
    "FailureReport",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "WaitGraph",
    "build_failure_report",
    "build_wait_graph",
    "run_campaign",
    "snapshot_components",
]
