"""Fault-campaign driver: sweep fault classes x seeds, assert detection.

For every (seed, case) pair the driver generates a random legal stream
program (the fuzz layer's generator), runs it clean to get the baseline
cycle count, then re-runs it once per fault class with a single fault
aimed inside the baseline run window.  Each faulted run is classified:

``detected``
    The simulator raised a :class:`~repro.sim.errors.SimError` carrying a
    structured :class:`~repro.resilience.report.FailureReport` — the fault
    was caught *and* diagnosed.
``divergent``
    The run completed but the three-way fuzz oracle flagged the wrong
    result (e.g. a ``mem.corrupt`` flip surfacing as a memory mismatch) —
    the fault was caught by the oracle, not silently absorbed.
``benign``
    The run completed and the oracle verified the result bit-for-bit
    (e.g. a ``mem.delay`` only slowed the run down).
``not-fired``
    The planned fault never triggered (aimed past the program's end).

Anything else is a campaign **failure**: ``unstructured`` (a non-SimError
escaped — the diagnostics layer has a hole), ``undiagnosed`` (a SimError
without a crash dump), or ``nondeterministic`` (the same seed did not
reproduce the same outcome/report).  A campaign with zero failures is the
acceptance property: *no injected fault ever produces a silent wrong
answer or an undiagnosed crash*.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.softbrain import SoftbrainParams
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, random_spec

#: oracle divergence kinds meaning "SimError raised" (see fuzz.oracle)
DETECTED_KINDS = ("sim-error", "sim-deadlock")
#: classifications that fail a campaign
BAD_CLASSIFICATIONS = ("unstructured", "undiagnosed", "nondeterministic")
#: cycle ceiling for faulted runs (delays/stalls make programs slower,
#: but a bounded limit keeps a livelocked run from hanging the campaign)
DEFAULT_MAX_CYCLES = 300_000


@dataclass
class CaseOutcome:
    """One (program, fault) run of the campaign."""

    seed: int
    case: str
    fault_kind: str
    spec: Dict[str, object]
    classification: str
    detail: str
    dump: Optional[str] = None

    @property
    def bad(self) -> bool:
        return self.classification in BAD_CLASSIFICATIONS


@dataclass
class CampaignResult:
    outcomes: List[CaseOutcome] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for outcome in self.outcomes:
            out[outcome.classification] = out.get(outcome.classification, 0) + 1
        return out

    @property
    def failures(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if o.bad]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.counts.items()))
        verdict = "PASS" if self.ok else "FAIL"
        return (f"campaign {verdict}: {len(self.outcomes)} faulted runs "
                f"({counts})")


def faulted_run(plan, fault_plan: FaultPlan, rng=None,
                max_cycles: int = DEFAULT_MAX_CYCLES):
    """``(report, injector)``: ``plan`` through the fuzz oracle, with
    ``fault_plan`` injected into the cycle-level leg.

    A fresh injector per run: :class:`FaultInjector` consumes its pending
    specs, so a rerun (determinism check, shrinking) must not see a
    drained plan.  ``rng`` is the oracle's mismatch sampler.
    """
    from ..fuzz.oracle import run_case

    injector = FaultInjector(FaultPlan.from_dict(fault_plan.to_dict()))
    params = SoftbrainParams(max_cycles=max_cycles)
    return run_case(plan, rng=rng, faults=injector, params=params), injector


def classify(report, injector: FaultInjector):
    """(classification, detail, failure_report_or_None) for one faulted
    run (see the module docstring)."""
    if report.ok:
        if injector.fired:
            return "benign", "oracle verified bit-identical result", None
        return "not-fired", "fault window missed the run", None
    crash = next((d for d in report.divergences if d.kind == "sim-crash"),
                 None)
    if crash is not None:
        return ("unstructured",
                f"non-SimError escaped: {crash.detail}", None)
    detected = next(
        (d for d in report.divergences if d.kind in DETECTED_KINDS), None)
    if detected is not None:
        failure_report = getattr(detected.exception, "report", None)
        if failure_report is None:
            return ("undiagnosed",
                    f"SimError without crash dump: {detected.detail}", None)
        return ("detected",
                f"{detected.kind}: {detected.detail.splitlines()[0]}",
                failure_report)
    first = report.divergences[0]
    return ("divergent",
            f"oracle flagged {first.kind}: {first.detail[:120]}", None)


def run_campaign(
    classes: Sequence[str] = FAULT_KINDS,
    seeds: Sequence[int] = (0, 1, 2),
    cases_per_seed: int = 2,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    dump_dir: Optional[str] = None,
    check_determinism: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Sweep ``classes`` x ``seeds`` x ``cases_per_seed`` faulted runs."""
    from ..fuzz.generators import random_plan
    from ..fuzz.oracle import run_case

    say = progress or (lambda _line: None)
    result = CampaignResult()

    for seed in seeds:
        for case_index in range(cases_per_seed):
            name = f"fault-{seed}-{case_index}"
            plan = random_plan(random.Random(f"faultcase:{seed}:{case_index}"),
                               name=name)
            baseline = run_case(plan)
            if not baseline.ok:
                # A clean-run divergence is the fuzzer's jurisdiction, not
                # a fault-detection result; skip rather than misclassify.
                say(f"{name}: baseline diverges, skipping "
                    f"({baseline.divergences[0].kind})")
                continue
            window = max(2, baseline.sim_cycles)
            for kind in classes:
                outcome = _run_one(plan, name, seed, kind, window,
                                   max_cycles, dump_dir, check_determinism)
                result.outcomes.append(outcome)
                say(f"{name} {kind}: {outcome.classification} "
                    f"({outcome.detail})")
    return result


def _spec_for(seed: int, name: str, kind: str, window: int):
    rng = random.Random(f"faultspec:{seed}:{name}:{kind}")
    return random_spec(rng, kind, window)


def _run_one(plan, name: str, seed: int, kind: str, window: int,
             max_cycles: int, dump_dir: Optional[str],
             check_determinism: bool) -> CaseOutcome:
    spec = _spec_for(seed, name, kind, window)
    fault_plan = FaultPlan(f"{name}:{kind}", [spec])
    report, injector = faulted_run(plan, fault_plan, max_cycles=max_cycles)
    classification, detail, failure_report = classify(report, injector)
    outcome = CaseOutcome(seed=seed, case=name, fault_kind=kind,
                          spec=spec.to_dict(),
                          classification=classification, detail=detail)

    if check_determinism:
        classification2, _detail2, failure_report2 = classify(
            *faulted_run(plan, fault_plan, max_cycles=max_cycles))
        same = classification2 == classification
        if same and failure_report is not None:
            same = failure_report2 is not None and (
                failure_report.to_json() == failure_report2.to_json())
        if not same:
            outcome.classification = "nondeterministic"
            outcome.detail = (f"rerun classified {classification2!r}, "
                              f"first run {classification!r}")
            return outcome

    if failure_report is not None and dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
        filename = f"{name}-{kind.replace('.', '_')}.json"
        outcome.dump = failure_report.save(os.path.join(dump_dir, filename))
    return outcome
