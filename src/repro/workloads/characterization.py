"""Workload characterisation — the data behind the paper's Table 4.

The stream-pattern column is *derived* from the actual stream programs (by
classifying every command's access pattern), not hand-written, so it stays
truthful as implementations evolve.  Datapath descriptions and the
unsuitable-workloads list mirror Table 4's text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.isa.commands import port_uses
from .common import BuiltWorkload


#: memory stream engine -> the Table 4 label of its streams that use an
#: indirect port (as address source, or as the destination of a load)
_INDIRECT = {"mse_read": "Indirect Loads", "mse_write": "Indirect Stores"}


def stream_patterns(built: BuiltWorkload) -> Set[str]:
    """Classify every stream command in a built workload's program."""
    patterns: Set[str] = set()
    accumulating = any(
        inst.is_accumulator for inst in _bound_dfg_instructions(built)
    )
    for command in built.program.commands:
        pattern = getattr(command, "pattern", None)
        if pattern is not None:
            patterns.add(pattern.classify().capitalize())
        uses = port_uses(command)
        if command.engine in _INDIRECT and any(
            port.kind == "ind" for port, _role in uses
        ):
            patterns.add(_INDIRECT[command.engine])
        roles = {role for _port, role in uses}
        # Port-to-port streams carry recurrences; reset-constant streams
        # (write-only) drive in-fabric accumulators, the architecture's
        # recurrence mechanism for reductions.
        if command.engine == "rse" and (
            roles == {"r", "w"} or (roles == {"w"} and accumulating)
        ):
            patterns.add("Recurrence")
    # Multi-access (non-linear) affine patterns count as "Affine".
    if patterns & {"Strided", "Overlapped", "Repeating"}:
        patterns.add("Affine")
    return patterns


def _bound_dfg_instructions(built: BuiltWorkload):
    for config in built.program.config_images.values():
        yield from config.dfg.instructions.values()


#: datapath description per MachSuite workload (Table 4's right column)
DATAPATH: Dict[str, str] = {
    "bfs": "Compare/Increment",
    "gemm": "8-Way Multiply-Accumulate",
    "md": "Large Irregular Datapath",
    "spmv-crs": "Single Multiply-Accumulate",
    "spmv-ellpack": "4-Way Multiply-Accumulate",
    "stencil": "8-Way Multiply-Accumulate",
    "stencil3d": "6-1 Reduce and Multiplier Tree",
    "viterbi": "4-Way Add-Minimize Tree",
    "fft": "Complex Butterfly (4-Mul)",  # extension workload (footnote 3)
    "nw": "Compare/Select/Max Cell",  # extension workload (footnote 3)
    "backprop": "4-Way Update + MAC Tree",  # extension workload (footnote 3)
}

#: workloads the paper found unsuitable for stream-dataflow, with reasons
UNSUITABLE: List[Tuple[str, str]] = [
    ("aes", "Byte-level data manipulation"),
    ("kmp", "Multi-level indirect pointer access"),
    ("merge-sort", "Fine-grain data-dependent loads/control"),
    ("radix-sort", "Concurrent reads/writes to same address"),
]


@dataclass
class CharacterizationRow:
    """One Table 4 row for an implemented workload."""

    name: str
    patterns: List[str]
    datapath: str


def characterize(built: BuiltWorkload) -> CharacterizationRow:
    order = [
        "Indirect Loads",
        "Indirect Stores",
        "Affine",
        "Linear",
        "Strided",
        "Overlapped",
        "Repeating",
        "Recurrence",
    ]
    found = stream_patterns(built)
    return CharacterizationRow(
        name=built.name,
        patterns=[p for p in order if p in found],
        datapath=DATAPATH.get(built.name, "Custom"),
    )
