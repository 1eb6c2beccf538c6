"""Golden-model cross-validation: cycle simulator vs functional interpreter.

Every workload runs twice — once on the cycle-level Softbrain simulator and
once on the untimed functional interpreter — and both must satisfy the
workload's verifier.  This is the two-simulator methodology real
accelerator stacks use: any semantics divergence between the engines and
the ISA's definition shows up here.
"""

import pytest

from repro.core.isa.interpreter import FunctionalDeadlock, interpret_program
from repro.sim.memory import BackingStore, MemorySystem, load_image, pack_words
from repro.workloads.common import run_and_verify
from repro.workloads.dnn import build_classifier, build_conv, build_pool
from repro.workloads.dnn.layers import ClassifierLayer, ConvLayer, PoolLayer
from repro.workloads.machsuite import MACHSUITE


def functional_verify(built) -> None:
    """Run the program on the golden model and apply the same verifier."""
    memory = built.fresh_memory()
    interpret_program(built.program, memory.store)
    built.verify(memory)


SMALL_BUILDERS = {
    "gemm": lambda: MACHSUITE["gemm"][0](n=8),
    "stencil": lambda: MACHSUITE["stencil"][0](width=10, height=6),
    "stencil3d": lambda: MACHSUITE["stencil3d"][0](side=6),
    "spmv-crs": lambda: MACHSUITE["spmv-crs"][0](n=16),
    "spmv-ellpack": lambda: MACHSUITE["spmv-ellpack"][0](n=16),
    "bfs": lambda: MACHSUITE["bfs"][0](n=24, e=60),
    "md": lambda: MACHSUITE["md"][0](n=16, k=4),
    "viterbi": lambda: MACHSUITE["viterbi"][0](n_states=8, n_steps=6),
    "fft": lambda: MACHSUITE["fft"][0](n=16),
    "nw": lambda: MACHSUITE["nw"][0](length=10),
    "backprop": lambda: MACHSUITE["backprop"][0](n_in=6, n_out=8),
}


class TestMachSuiteGoldenModel:
    @pytest.mark.parametrize("name", sorted(SMALL_BUILDERS))
    def test_functional_model_verifies(self, name):
        functional_verify(SMALL_BUILDERS[name]())

    @pytest.mark.parametrize("name", ["gemm", "spmv-crs", "fft"])
    def test_both_engines_agree(self, name):
        built = SMALL_BUILDERS[name]()
        functional_verify(built)  # golden model first
        run_and_verify(built)  # then the cycle-level simulator


class TestDnnGoldenModel:
    def test_classifier(self):
        functional_verify(
            build_classifier(ClassifierLayer("gm-class", ni=32, nn=4))
        )

    def test_conv(self):
        functional_verify(
            build_conv(ConvLayer("gm-conv", out_w=8, out_h=4, n_in=2, k=3,
                                 n_out=2))
        )

    def test_pool(self):
        functional_verify(
            build_pool(PoolLayer("gm-pool", in_w=16, in_h=8, maps=2, window=2))
        )


class TestFunctionalDeadlock:
    def test_starved_port_detected(self):
        from repro.cgra import dnn_provisioned
        from repro.core.compiler import schedule
        from repro.core.dfg import parse_dfg
        from repro.core.isa import StreamProgram

        config = schedule(
            parse_dfg("input A\ninput B\nx = add A B\noutput O x", "stuck"),
            dnn_provisioned(),
        )
        program = StreamProgram("stuck", config)
        program.mem_port(0, 8, 8, 1, "A")  # B never fed
        program.port_mem("O", 8, 8, 1, 0x100)
        program.barrier_all()
        with pytest.raises(FunctionalDeadlock):
            interpret_program(program, BackingStore())

    def test_deadlock_message_names_blocked_ports(self):
        """The exception must localise the bug: which command is stuck,
        which port it waits on, and which CGRA input is starved."""
        from repro.cgra import dnn_provisioned
        from repro.core.compiler import schedule
        from repro.core.dfg import parse_dfg
        from repro.core.isa import StreamProgram

        config = schedule(
            parse_dfg("input A\ninput B\nx = add A B\noutput O x", "stuck"),
            dnn_provisioned(),
        )
        program = StreamProgram("stuck", config)
        program.mem_port(0, 8, 8, 1, "A")  # B never fed
        program.port_mem("O", 8, 8, 1, 0x100)
        program.barrier_all()
        with pytest.raises(FunctionalDeadlock) as excinfo:
            interpret_program(program, BackingStore())
        message = str(excinfo.value)
        # The stuck drain names the output port it is blocked on...
        assert f"out{config.hw_output_port('O')}:r" in message
        assert "0/1 elements" in message
        # ...and the starvation report names the unfed input port.
        assert f"in{config.hw_input_port('B')} (B): 0/1 words" in message
        # The whole text, locked: unfinished commands in program order.
        assert message == (
            "functional model stuck; unfinished commands: "
            "['SDPortMem(out4:r; 0/1 elements)', 'SDBarrierAll']; "
            "starved CGRA inputs: ['in6 (B): 0/1 words']"
        )


class TestInterpreterSetup:
    def test_unhandled_command_type_is_named(self):
        """A command class the interpreter has no handler for raises a
        ``TypeError`` naming it, rather than running as some other kind."""
        import dataclasses

        from repro.core.isa import SDConstPort, StreamProgram

        class Unhandled(SDConstPort):
            pass

        program = StreamProgram("odd", _passthrough_config())
        program.const_port(1, 1, "A")
        program.port_mem("O", 8, 8, 1, 0x100)
        program.barrier_all()
        index = next(i for i, item in enumerate(program.items)
                     if isinstance(item, SDConstPort))
        const = program.items[index]
        program.items[index] = Unhandled(**{
            field.name: getattr(const, field.name)
            for field in dataclasses.fields(const)})
        with pytest.raises(TypeError, match="cannot interpret Unhandled"):
            interpret_program(program, BackingStore())

    def test_no_port_ref_built_after_config(self, monkeypatch):
        """The CGRA's port queues are bound once, at SD_Config: firing
        and draining build no ``PortRef`` on any corpus case."""
        from repro.core.isa import commands, interpreter
        from repro.fuzz import build_case, plan_from_json
        from repro.fuzz.cli import corpus_paths

        configured, refs_after = [], []
        apply_config = interpreter._State.apply_config
        post_init = commands.PortRef.__post_init__

        def counting_apply_config(self, command):
            apply_config(self, command)
            configured.append(command)

        def counting_post_init(self):
            post_init(self)
            if configured:
                refs_after.append(self)

        monkeypatch.setattr(interpreter._State, "apply_config",
                            counting_apply_config)
        monkeypatch.setattr(commands.PortRef, "__post_init__",
                            counting_post_init)
        for path in corpus_paths():
            built = build_case(plan_from_json(path.read_text()))
            configured.clear()
            refs_after.clear()
            interpret_program(built.program, built.fresh_store())
            assert configured, path.stem
            assert len(refs_after) == 0, path.stem

    def test_finished_run_leaves_no_cyclic_garbage(self):
        """Executors and the state they hold die with their last
        reference, not at the next cyclic collection."""
        import gc

        from repro.fuzz import build_case, plan_from_json
        from repro.fuzz.cli import corpus_paths

        cases = [build_case(plan_from_json(path.read_text()))
                 for path in corpus_paths()]
        gc.collect()
        gc.disable()
        try:
            for built in cases:
                final = interpret_program(built.program, built.fresh_store())
                del final
                assert gc.collect() == 0, built.plan.name
        finally:
            gc.enable()


def _passthrough_config():
    from repro.cgra import broadly_provisioned
    from repro.core.compiler import schedule
    from repro.core.dfg import parse_dfg

    return schedule(
        parse_dfg("input A\nx = pass A\noutput O x", "thru"),
        broadly_provisioned(),
    )


def _both_engines(program, image):
    """Run on the cycle simulator and the functional interpreter, each
    from its own memory holding ``image``; return (sim RunResult,
    interpreter store, interpreter final state)."""
    from repro.cgra import broadly_provisioned
    from repro.sim.softbrain import run_program

    result = run_program(program, fabric=broadly_provisioned(),
                         memory=load_image(image))
    store = load_image(image).store
    final = interpret_program(program, store)
    return result, store, final


class TestGoldenModelEdgeCases:
    """Hand-written corner cases for the ISA features the original
    workloads exercise only lightly (see also the generated coverage in
    tests/test_fuzz.py)."""

    def test_indirect_port_mem_roundtrip(self):
        """Gather table[perm] into the CGRA, scatter it back through the
        same permutation: the output region must equal the table."""
        from repro.core.isa import StreamProgram
        from repro.workloads.common import read_words

        config = _passthrough_config()
        n = 12
        table = [(i * 0x9E37) & 0xFFFF_FFFF_FFFF_FFFF for i in range(n)]
        perm = [7, 3, 11, 0, 9, 5, 1, 10, 2, 8, 4, 6]
        table_addr, idx_addr, idx2_addr, out_addr = 0x1000, 0x2000, 0x3000, 0x4000

        program = StreamProgram("ind-roundtrip", config)
        program.mem_to_indirect(idx_addr, n, 0)
        program.ind_port_port(0, table_addr, "A", n)
        program.mem_to_indirect(idx2_addr, n, 1)
        program.ind_port_mem(1, "O", out_addr, n)
        program.barrier_all()

        image = ((table_addr, pack_words(table)), (idx_addr, pack_words(perm)),
                 (idx2_addr, pack_words(perm)))

        result, store, _ = _both_engines(program, image)
        expected = [table[i] if i in perm else 0 for i in range(n)]
        assert read_words(result.memory, out_addr, n, signed=False) == expected
        got_interp = [store.read_word(out_addr + 8 * i) for i in range(n)]
        assert got_interp == expected
        assert result.stats.instances_fired == n

    def test_mem_scratch_port_roundtrip(self):
        """memory -> scratchpad -> port -> memory preserves the array, and
        both engines leave identical scratchpad images."""
        from repro.core.isa import StreamProgram
        from repro.workloads.common import read_words

        config = _passthrough_config()
        n = 10
        array = [3 * i + 1 for i in range(n)]
        src_addr, out_addr, scratch_addr = 0x1000, 0x2000, 256

        program = StreamProgram("scratch-roundtrip", config)
        program.mem_scratch(src_addr, 8 * n, 8 * n, 1, scratch_addr)
        program.barrier_scratch_wr()
        program.scratch_port(scratch_addr, 8 * n, 8 * n, 1, "A")
        program.port_mem("O", 8 * n, 8 * n, 1, out_addr)
        program.barrier_all()

        result, store, final = _both_engines(
            program, ((src_addr, pack_words(array)),))
        assert read_words(result.memory, out_addr, n) == array
        assert [store.read_word(out_addr + 8 * i) for i in range(n)] == array
        packed = b"".join(v.to_bytes(8, "little") for v in array)
        window = slice(scratch_addr, scratch_addr + 8 * n)
        assert result.scratchpad.snapshot()[window] == packed
        assert bytes(final.scratch[window]) == packed

    @pytest.mark.parametrize("path", ["mem_scratch", "scratch_port",
                                      "port_scratch"])
    def test_scratch_bound_enforced_by_both_engines(self, path):
        """A 64-byte scratch access at ``SCRATCH_BYTES - 6`` runs past the
        scratchpad: the simulator and the interpreter both reject it."""
        from repro.cgra import broadly_provisioned
        from repro.core.isa import StreamProgram
        from repro.core.isa.patterns import SCRATCH_BYTES
        from repro.sim.errors import ScratchpadError
        from repro.sim.softbrain import run_program

        addr = SCRATCH_BYTES - 6
        program = StreamProgram(f"scratch-bound-{path}", _passthrough_config())
        if path == "mem_scratch":
            program.mem_scratch(0x1000, 64, 64, 1, addr)
        elif path == "scratch_port":
            program.scratch_port(addr, 64, 64, 1, "A")
            program.port_mem("O", 64, 64, 1, 0x2000)
        else:
            program.mem_port(0x1000, 64, 64, 1, "A")
            program.port_scratch("O", 8, addr)
        program.barrier_all()

        with pytest.raises(ScratchpadError, match="outside 0..4096"):
            run_program(program, fabric=broadly_provisioned(),
                        memory=MemorySystem())
        with pytest.raises(IndexError, match="outside 0..4096"):
            interpret_program(program, BackingStore())

    def test_zero_length_streams_rejected(self):
        """The ISA has no zero-element streams: every constructor rejects
        them at build time rather than hanging an engine."""
        from repro.core.isa import (
            Affine2D,
            SDCleanPort,
            SDConstPort,
            SDPortPort,
            SDPortScratch,
            in_port,
            out_port,
        )
        from repro.core.isa.patterns import PatternError

        with pytest.raises(ValueError):
            SDConstPort(1, 0, in_port(0))
        with pytest.raises(ValueError):
            SDCleanPort(0, out_port(0))
        with pytest.raises(ValueError):
            SDPortPort(out_port(0), 0, in_port(1))
        with pytest.raises(ValueError):
            SDPortScratch(out_port(0), 0, 0)
        with pytest.raises(PatternError):
            Affine2D(0, 8, 8, 0, 8)  # zero strides
        with pytest.raises(PatternError):
            Affine2D(0, 0, 8, 1, 8)  # zero-byte access
