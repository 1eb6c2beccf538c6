"""Functional-unit types composing the CGRA's processing elements.

A hardware instance is provisioned once per chip family by choosing the FU
mix (Section 5, "Hardware/Software Workflow"): e.g. the DNN-provisioned
Softbrain uses 4-way 16-bit sub-word multipliers and ALUs plus a 16-bit
sigmoid unit, while the broadly-provisioned design uses the maximum FU mix
needed across the MachSuite workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from ..core.dfg.instructions import get_operation

#: op classes used to define FU capabilities
ALU_OPS = frozenset(
    {
        "add", "sub", "min", "max", "abs", "neg",
        "and", "or", "xor", "shl", "shr",
        "eq", "ne", "lt", "le", "gt", "ge",
        "select", "pass", "acc", "accmin", "accmax",
        "hadd", "hmin", "hmax",
    }
)
MUL_OPS = frozenset({"mul", "madd"})
DIV_OPS = frozenset({"div", "mod"})
SIGMOID_OPS = frozenset({"sigmoid"})


@dataclass(frozen=True)
class FuType:
    """A functional-unit flavour: which ops it executes.

    FU area and power live only in Table 3's ``fus`` row
    (:data:`repro.power.model.SOFTBRAIN_COMPONENTS`).
    """

    name: str
    ops: FrozenSet[str]

    def supports(self, mnemonic: str) -> bool:
        return mnemonic in self.ops

    def __post_init__(self) -> None:
        for mnemonic in self.ops:
            get_operation(mnemonic)  # fail fast on typos


ALU = FuType("alu", ALU_OPS)
MULTIPLIER = FuType("mul", MUL_OPS | ALU_OPS)
DIVIDER = FuType("div", DIV_OPS | MUL_OPS | ALU_OPS)
SIGMOID_UNIT = FuType("sigmoid", SIGMOID_OPS | ALU_OPS)

FU_TYPES: Dict[str, FuType] = {
    fu.name: fu for fu in (ALU, MULTIPLIER, DIVIDER, SIGMOID_UNIT)
}


def fu_for_name(name: str) -> FuType:
    try:
        return FU_TYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown FU type {name!r}; known: {sorted(FU_TYPES)}"
        ) from None
