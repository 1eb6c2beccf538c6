"""Figures 4(b) and 6 (bottom): execution-model timelines."""

from conftest import record

from repro.cgra import dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.sim import MemorySystem, render_timeline, run_program
from repro.workloads.common import run_and_verify, write_words
from repro.workloads.dnn import build_classifier
from repro.workloads.dnn.layers import ClassifierLayer


def _dot_product_run():
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
    return run_program(program, fabric=fabric, memory=memory)


def test_fig4_dot_product_timeline(benchmark):
    result = benchmark.pedantic(_dot_product_run, rounds=1, iterations=1)
    record("Figure 4(b): dot-product execution timeline",
           render_timeline(result.timeline))
    traces = result.timeline.traces
    # Concurrency shape: the two loads overlap; the store overlaps both;
    # the barrier completes last.
    load_a, load_b, store = traces[1], traces[2], traces[3]
    assert load_b.dispatched < load_a.completed
    assert store.dispatched < load_a.completed
    assert traces[-1].completed == max(t.completed for t in traces)


def _classifier_run():
    return run_and_verify(build_classifier(ClassifierLayer("fig6", ni=128, nn=4)))


def test_fig6_classifier_timeline(benchmark):
    result = benchmark.pedantic(_classifier_run, rounds=1, iterations=1)
    record("Figure 6 (bottom): classifier execution timeline",
           render_timeline(result.timeline))
    labels = [t.label for t in result.timeline.traces]
    # The Figure 6 command mix is all present.
    for expected in ("SD_Config", "SD_MemScratch", "SD_MemPort",
                     "SD_ScratchPort", "SD_ConstPort", "SD_CleanPort",
                     "SD_PortMem", "SD_BarrierAll"):
        assert expected in labels, expected
