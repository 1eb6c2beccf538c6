"""Table 1: architectural specialization capability matrix.

The qualitative comparison of SIMD, SIMT, vector-thread, spatial-dataflow
and stream-dataflow architectures across the eight specialization
capabilities of Section 2.1, under the paper's stated assumption of
high-parallelism, small-footprint compute kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

ARCHITECTURES = (
    "SIMD",
    "SIMT",
    "Vector Threads",
    "Spatial Dataflow",
    "Stream-Dataflow",
)

#: (group, capability) -> per-architecture verdicts, in ARCHITECTURES order
CAPABILITIES: List[Tuple[str, str, Tuple[str, ...]]] = [
    (
        "Instr.",
        "Amortize instruction dispatch",
        ("Yes", "Yes", "Yes SIMD/ No Scalar", "Somewhat", "Yes"),
    ),
    (
        "Instr.",
        "Reduce control divergence penalty",
        ("No", "Somewhat", "Yes", "Yes", "Somewhat"),
    ),
    (
        "Instr.",
        "Avoids large register file access",
        ("No", "No", "No", "Yes", "Yes"),
    ),
    (
        "Memory",
        "Coalesce spatially-local memory access",
        ("Yes", "Yes", "Yes SIMD/ No Scalar", "No", "Yes"),
    ),
    (
        "Memory",
        "Avoid redundant addr. gen. for spatial access",
        ("Yes", "No", "Yes SIMD/ No Scalar", "No", "Yes"),
    ),
    (
        "Memory",
        "Provide efficient memory for data reuse",
        ("No", "Yes", "No", "No", "Yes"),
    ),
    (
        "Util.",
        "Avoid multi-issue logic",
        ("No", "Yes", "No", "Yes", "Yes"),
    ),
    (
        "Util.",
        "Avoid multi-threading logic and state",
        ("Yes", "No", "Yes", "Yes", "Yes"),
    ),
]


@dataclass
class CapabilityScore:
    """Summary score per architecture (Yes=1, Somewhat/mixed=0.5, No=0)."""

    architecture: str
    score: float
    max_score: int


def _verdict_value(verdict: str) -> float:
    if verdict == "Yes":
        return 1.0
    if verdict == "No":
        return 0.0
    return 0.5  # Somewhat / mixed SIMD-scalar


def capability_scores() -> List[CapabilityScore]:
    scores = []
    for idx, arch in enumerate(ARCHITECTURES):
        total = sum(_verdict_value(row[2][idx]) for row in CAPABILITIES)
        scores.append(CapabilityScore(arch, total, len(CAPABILITIES)))
    return scores


def format_table1() -> str:
    # each row's label is its capability behind a group prefix (the group
    # name on the group's first row, an indent on the others)
    labels = []
    group_seen = set()
    for group, capability, _ in CAPABILITIES:
        prefix = f"[{group}] " if group not in group_seen else "       "
        group_seen.add(group)
        labels.append(prefix + capability)
    width = max(len(label) for label in labels) + 2
    # every column is as wide as its longest cell plus a separating gap
    column = 2 + max(len(cell) for _, _, verdicts in CAPABILITIES
                     for cell in verdicts + ARCHITECTURES)
    header = f"{'':{width}}" + "".join(f"{a:>{column}}" for a in ARCHITECTURES)
    lines = [
        "Table 1: architectural specialization capabilities",
        "(assumption: high-parallelism, small-footprint compute kernels)",
        header,
        "-" * len(header),
    ]
    for label, (_, _, verdicts) in zip(labels, CAPABILITIES):
        lines.append(f"{label:{width}}"
                     + "".join(f"{v:>{column}}" for v in verdicts))
    lines.append("-" * len(header))
    scores = capability_scores()
    lines.append(
        f"{'score (Yes=1, partial=0.5)':{width}}"
        + "".join(f"{f'{s.score:.1f}/{s.max_score}':>{column}}"
                  for s in scores)
    )
    return "\n".join(lines)
