"""Execution-model timelines: regenerate Figures 4(b) and 6 (bottom).

Shows how the stream dispatcher exposes concurrency: commands are enqueued
by the control core, dispatched when their resources free up, and complete
out of order while the barrier holds the core.  ``q`` = enqueued/waiting,
``=`` = resource active, ``#`` = completion.

Run:  python examples/timeline_trace.py
"""

from repro.cgra import dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.sim import MemorySystem, render_timeline, run_program
from repro.workloads.common import run_and_verify, write_words
from repro.workloads.dnn import build_classifier
from repro.workloads.dnn.layers import ClassifierLayer


def figure4() -> None:
    print("=" * 72)
    print("Figure 4(b): dot-product execution")
    print("=" * 72)
    dfg = parse_dfg(
        "input A 4\ninput B 4\n"
        "m0 = mul A.0 B.0\nm1 = mul A.1 B.1\nm2 = mul A.2 B.2\n"
        "s0 = add m0 m1\ns1 = add s0 m2\noutput C s1",
        "dotprod",
    )
    fabric = dnn_provisioned()
    config = schedule(dfg, fabric)
    memory = MemorySystem()
    n = 32
    write_words(memory, 0x1000, list(range(4 * n)))
    write_words(memory, 0x8000, list(range(4 * n)))
    program = StreamProgram("fig4", config)
    program.mem_port(0x1000, 32, 32, n, "A")
    program.mem_port(0x8000, 32, 32, n, "B")
    program.port_mem("C", 8, 8, n, 0x10000)
    program.barrier_all()
    result = run_program(program, fabric=fabric, memory=memory)
    print(render_timeline(result.timeline))
    print()


def figure6() -> None:
    print("=" * 72)
    print("Figure 6 (bottom): classifier execution")
    print("=" * 72)
    built = build_classifier(ClassifierLayer("fig6", ni=128, nn=4))
    result = run_and_verify(built)
    print(render_timeline(result.timeline))


if __name__ == "__main__":
    figure4()
    figure6()
