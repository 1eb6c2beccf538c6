"""The ``python -m repro fuzz`` entry point.

Modes:

* default — generate ``--count`` random cases from ``--seed`` and run the
  three-way oracle on each; diverging cases are shrunk and written as
  replayable JSON files under ``--save-dir``;
* ``--replay case.json`` — re-run one saved case and report its verdict;
* ``--smoke`` — replay every checked-in corpus case plus a small random
  batch; sized for a sub-minute CI job.
* ``--faults`` — run each random case under a random fault plan
  (``repro.resilience``).  A case only counts as a failure when a fault
  *escapes the diagnostics*: a non-SimError crash, or a SimError without
  an attached :class:`~repro.resilience.FailureReport`.  Oracle-flagged
  wrong results and diagnosed SimErrors are the expected, correct
  outcomes under injection.

Exit status is non-zero iff any divergence was observed.
"""

from __future__ import annotations

import pathlib
import random
import time
from typing import List, Optional

from ..core.dfg import DfgError
from .case import PlanError, plan_from_json, plan_to_json
from .generators import random_plan
from .oracle import run_case
from .shrink import shrink

#: random cases a --smoke run generates on top of the corpus replay
SMOKE_COUNT = 12
DEFAULT_COUNT = 100


def corpus_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "corpus"


def corpus_paths() -> List[pathlib.Path]:
    return sorted(corpus_dir().glob("*.json"))


def _check_rng(seed: int, tag: str) -> random.Random:
    # Handed to run_case so mismatch sampling never touches the
    # module-level random state.
    return random.Random(f"verify:{seed}:{tag}")


def _fault_plan(seed: int, index: int):
    from ..resilience import FaultPlan

    return FaultPlan.random(f"fuzz:{seed}:{index}", count=2)


def _fault_escape(plan, fault_plan, rng=None) -> Optional[str]:
    """What escaped the diagnostics in a faulted run of ``plan``, or None
    when the fault was detected, flagged by the oracle, benign or unfired."""
    from ..resilience.campaign import (
        BAD_CLASSIFICATIONS, classify, faulted_run)

    classification, detail, _ = classify(
        *faulted_run(plan, fault_plan, rng=rng))
    if classification in BAD_CLASSIFICATIONS:
        return f"{classification}: {detail}"
    return None


def _replay(path: pathlib.Path, seed: int) -> int:
    try:
        plan = plan_from_json(path.read_text())
    except OSError as exc:
        raise SystemExit(f"error: cannot read case file: {exc}")
    except (PlanError, ValueError) as exc:
        raise SystemExit(f"error: {path} is not a valid case file: {exc}")
    try:
        report = run_case(plan, rng=_check_rng(seed, plan.name))
    except PlanError as exc:
        raise SystemExit(f"error: {path} violates plan legality: {exc}")
    except DfgError as exc:
        raise SystemExit(f"error: {path} has a malformed DFG: {exc}")
    if report.ok:
        print(f"{path}: OK ({plan.name}, "
              f"{len(plan_to_json(plan))} bytes)")
        return 0
    print(f"{path}: DIVERGED")
    for divergence in report.divergences:
        print(f"  {divergence}")
    return 1


def cmd_fuzz(args) -> int:
    started = time.time()
    failures = 0

    if args.replay:
        return _replay(pathlib.Path(args.replay), args.seed)

    replayed = 0
    if args.smoke:
        for path in corpus_paths():
            failures += _replay(path, args.seed)
            replayed += 1

    count = args.count if args.count is not None else (
        SMOKE_COUNT if args.smoke else DEFAULT_COUNT)
    save_dir = pathlib.Path(args.save_dir)
    ran = 0
    for index in range(count):
        if args.time_budget and time.time() - started > args.time_budget:
            print(f"time budget ({args.time_budget}s) reached "
                  f"after {ran} cases")
            break
        name = f"fuzz-{args.seed}-{index}"
        plan = random_plan(random.Random(f"{args.seed}:{index}"), name=name)
        rng = _check_rng(args.seed, str(index))
        if getattr(args, "faults", False):
            fault_plan = _fault_plan(args.seed, index)
            escape = _fault_escape(plan, fault_plan, rng=rng)
            ran += 1
            if escape is None:
                continue
            failures += 1
            print(f"{name}: FAULT ESCAPED DIAGNOSTICS "
                  f"(plan {[s.to_dict() for s in fault_plan.specs]})")
            print(f"  {escape}")
            if not args.no_shrink:
                plan = shrink(
                    plan,
                    lambda p: _fault_escape(p, fault_plan) is not None)
                print(f"  shrunk to {build_num_commands(plan)} commands")
        else:
            report = run_case(plan, rng=rng)
            ran += 1
            if report.ok:
                continue
            failures += 1
            print(f"{name}: DIVERGED")
            for divergence in report.divergences:
                print(f"  {divergence}")
            if not args.no_shrink:
                plan = shrink(
                    plan, lambda p: bool(run_case(p).divergences))
                print(f"  shrunk to {plan_to_json(plan).count(chr(10))} lines, "
                      f"{build_num_commands(plan)} commands")
        save_dir.mkdir(parents=True, exist_ok=True)
        case_path = save_dir / f"{name}.json"
        case_path.write_text(plan_to_json(plan))
        print(f"  repro written to {case_path}")

    wall = time.time() - started
    print(f"fuzz: {ran} generated + {replayed} corpus cases, "
          f"{failures} divergence(s), {wall:.1f}s")
    return 1 if failures else 0


def build_num_commands(plan) -> int:
    from .case import build_case

    return build_case(plan).program.num_commands
