"""Unit + property tests for stream commands, port roles and the codec."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.isa import (
    Affine2D,
    EncodingError,
    HostCompute,
    SDBarrierAll,
    SDBarrierScratchRd,
    SDBarrierScratchWr,
    SDCleanPort,
    SDConfig,
    SDConstPort,
    SDIndPortMem,
    SDIndPortPort,
    SDMemPort,
    SDMemScratch,
    SDPortMem,
    SDPortPort,
    SDPortScratch,
    SDScratchPort,
    decode_item,
    decode_items,
    encode_item,
    encode_items,
    in_port,
    ind_port,
    is_barrier,
    out_port,
)
from repro.core.isa.commands import BARRIER_TYPES, Command, PortRef, port_uses
from repro.fuzz.case import build_case, plan_from_json
from repro.fuzz.cli import corpus_paths

from .test_golden_stats import CASES


#: class -> (OPCODE, engine, instruction_count, scratch_counter), one row
#: per command
COMMAND_FACTS = {
    SDConfig: (0x01, "mse_read", 1, ""),
    SDMemPort: (0x02, "mse_read", 2, ""),
    SDMemScratch: (0x03, "mse_read", 3, "scratch_wr"),
    SDScratchPort: (0x04, "sse", 2, "scratch_rd"),
    SDConstPort: (0x05, "rse", 1, ""),
    SDCleanPort: (0x06, "rse", 1, ""),
    SDPortPort: (0x07, "rse", 2, ""),
    SDPortScratch: (0x08, "sse", 2, "scratch_wr"),
    SDPortMem: (0x09, "mse_write", 3, ""),
    SDIndPortPort: (0x0A, "mse_read", 3, ""),
    SDIndPortMem: (0x0B, "mse_write", 3, ""),
    SDBarrierScratchRd: (0x0C, "dispatch", 1, "scratch_rd"),
    SDBarrierScratchWr: (0x0D, "dispatch", 1, "scratch_wr"),
    SDBarrierAll: (0x0E, "dispatch", 1, ""),
}

#: every class the codec encodes: the commands and the host-compute marker
ITEM_CLASSES = (HostCompute, *COMMAND_FACTS)

#: field type -> the codecs that may carry it
FIELD_CODECS = {
    "int": {"u8", "u32", "u64"},
    "bool": {"bool"},
    "PortRef": {"port"},
    "Affine2D": {"pattern"},
}


def pattern(**kw):
    defaults = dict(start=0x1000, access_size=64, stride=64, num_strides=4)
    defaults.update(kw)
    return Affine2D(**defaults)


class TestPortRef:
    def test_str(self):
        assert str(in_port(3)) == "in3"
        assert str(out_port(0)) == "out0"
        assert str(ind_port(2)) == "ind2"

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            PortRef("sideways", 0)

    def test_negative_id(self):
        with pytest.raises(ValueError):
            in_port(-1)

    def test_refs_are_interned(self):
        assert in_port(3) is in_port(3)
        assert out_port(3) is out_port(3)
        assert ind_port(3) is ind_port(3)
        assert in_port(3) == PortRef("in", 3) and in_port(3) is not out_port(3)


class TestCommandValidation:
    def test_mem_port_dest_must_be_input_or_indirect(self):
        with pytest.raises(ValueError):
            SDMemPort(pattern(), out_port(0))
        SDMemPort(pattern(), in_port(0))
        SDMemPort(pattern(), ind_port(0))

    def test_const_port_positive_count(self):
        with pytest.raises(ValueError):
            SDConstPort(1, 0, in_port(0))

    def test_clean_source_must_be_output(self):
        with pytest.raises(ValueError):
            SDCleanPort(4, in_port(0))

    def test_port_port_direction(self):
        with pytest.raises(ValueError):
            SDPortPort(in_port(0), 4, in_port(1))
        SDPortPort(out_port(0), 4, in_port(1))
        SDPortPort(out_port(0), 4, ind_port(1))

    def test_indirect_index_port_kind(self):
        with pytest.raises(ValueError):
            SDIndPortPort(in_port(0), 0, in_port(1), 4)

    def test_ind_port_mem_source_must_be_output(self):
        with pytest.raises(ValueError):
            SDIndPortMem(ind_port(0), in_port(0), 0, 4)

    def test_is_barrier(self):
        assert is_barrier(SDBarrierAll())
        assert is_barrier(SDBarrierScratchRd())
        assert is_barrier(SDBarrierScratchWr())
        assert not is_barrier(SDMemPort(pattern(), in_port(0)))

    def test_engine_assignment(self):
        assert SDMemPort(pattern(), in_port(0)).engine == "mse_read"
        assert SDPortMem(out_port(0), pattern()).engine == "mse_write"
        assert SDScratchPort(pattern(), in_port(0)).engine == "sse"
        assert SDPortScratch(out_port(0), 4, 0).engine == "sse"
        assert SDConstPort(0, 1, in_port(0)).engine == "rse"
        assert SDPortPort(out_port(0), 1, in_port(0)).engine == "rse"
        assert SDConfig(0, 64).engine == "mse_read"

    def test_instruction_counts_in_bounds(self):
        commands = [
            SDConfig(0, 64),
            SDMemPort(pattern(), in_port(0)),
            SDBarrierAll(),
            SDPortMem(out_port(0), pattern()),
        ]
        for command in commands:
            assert 1 <= command.instruction_count <= 3

    def test_command_facts(self):
        assert set(COMMAND_FACTS) == set(Command.__subclasses__())
        for cls, (opcode, engine, count, counter) in COMMAND_FACTS.items():
            facts = (cls.OPCODE, cls.engine, cls.instruction_count,
                     cls.scratch_counter)
            assert facts == (opcode, engine, count, counter), cls.__name__
            assert 1 <= count <= 3

    def test_dispatch_classes(self):
        # Barriers release at the queue head, SD_Config waits for the unit
        # to quiesce, and every other command issues as a stream.
        for cls in Command.__subclasses__():
            expected = ("barrier" if cls in BARRIER_TYPES
                        else "config" if cls is SDConfig else "stream")
            assert cls.dispatch_class == expected, cls.__name__
            assert (cls.engine == "dispatch") == (expected == "barrier")


class TestDeclarations:
    """Each class's OPCODE/LAYOUT/PORTS agree with its dataclass fields."""

    @pytest.mark.parametrize("cls", ITEM_CLASSES, ids=lambda c: c.__name__)
    def test_layout_is_the_fields_in_order(self, cls):
        fields = dataclasses.fields(cls)
        assert [name for name, _codec in cls.LAYOUT] == [f.name for f in fields]
        for field, (_name, codec) in zip(fields, cls.LAYOUT):
            assert codec in FIELD_CODECS[field.type], (field.name, codec)

    def test_opcodes_are_unique_and_dense(self):
        assert sorted(cls.OPCODE for cls in ITEM_CLASSES) == list(range(0x0F))
        assert HostCompute.OPCODE == 0x00

    @pytest.mark.parametrize("cls", ITEM_CLASSES, ids=lambda c: c.__name__)
    def test_ports_are_the_port_fields(self, cls):
        port_fields = [f.name for f in dataclasses.fields(cls)
                       if f.type == "PortRef"]
        assert sorted(name for name, _role in cls.PORTS) == sorted(port_fields)
        assert all(role in ("r", "w") for _name, role in cls.PORTS)


class TestPortRoles:
    def test_writer_roles(self):
        (use,) = port_uses(SDMemPort(pattern(), in_port(3)))
        assert use == (in_port(3), "w")

    def test_reader_roles(self):
        (use,) = port_uses(SDCleanPort(4, out_port(2)))
        assert use == (out_port(2), "r")

    def test_indirect_gather_reads_index_writes_dest(self):
        uses = dict(port_uses(SDIndPortPort(ind_port(1), 0, in_port(2), 4)))
        assert uses[ind_port(1)] == "r"
        assert uses[in_port(2)] == "w"

    def test_indirect_scatter_reads_both(self):
        uses = dict(port_uses(SDIndPortMem(ind_port(0), out_port(1), 0, 4)))
        assert uses[ind_port(0)] == "r"
        assert uses[out_port(1)] == "r"

    def test_recurrence_reads_source_writes_dest(self):
        uses = dict(port_uses(SDPortPort(out_port(0), 4, in_port(1))))
        assert uses[out_port(0)] == "r"
        assert uses[in_port(1)] == "w"

    def test_barriers_use_no_ports(self):
        assert port_uses(SDBarrierAll()) == ()


ALL_COMMANDS = [
    HostCompute(7),
    SDConfig(0xC0000000, 368),
    SDMemPort(pattern(elem_bytes=2, signed=True), in_port(1)),
    SDMemScratch(pattern(), 128),
    SDScratchPort(pattern(start=0, access_size=32, stride=0, num_strides=9),
                  in_port(2)),
    SDConstPort(0xDEADBEEF, 48, in_port(3)),
    SDCleanPort(47, out_port(0)),
    SDPortPort(out_port(1), 64, in_port(4)),
    SDPortScratch(out_port(2), 16, 256, 8),
    SDPortMem(out_port(3), pattern(start=0x2000)),
    SDIndPortPort(ind_port(0), 0x3000, in_port(5), 12, 8, 8, True),
    SDIndPortMem(ind_port(1), out_port(4), 0x4000, 12, 2, 4),
    SDBarrierScratchRd(),
    SDBarrierScratchWr(),
    SDBarrierAll(),
]


class TestEncoding:
    @pytest.mark.parametrize("item", ALL_COMMANDS, ids=lambda c: type(c).__name__)
    def test_round_trip_each_command(self, item):
        decoded, offset = decode_item(encode_item(item))
        assert decoded == item
        assert offset == len(encode_item(item))

    def test_round_trip_program(self):
        data = encode_items(ALL_COMMANDS)
        assert decode_items(data) == ALL_COMMANDS

    def test_unknown_opcode(self):
        with pytest.raises(EncodingError, match="opcode"):
            decode_item(b"\xff")

    def test_decode_past_end(self):
        with pytest.raises(EncodingError):
            decode_item(b"", 0)

    @pytest.mark.parametrize("item", ALL_COMMANDS, ids=lambda c: type(c).__name__)
    def test_every_proper_prefix_is_an_encoding_error(self, item):
        data = encode_item(item)
        for end in range(len(data)):
            with pytest.raises(EncodingError):
                decode_item(data[:end])

    @pytest.mark.parametrize("item", ALL_COMMANDS, ids=lambda c: type(c).__name__)
    def test_every_bit_flip_is_caught_or_changes_the_item(self, item):
        data = encode_item(item)
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << bit % 8
            try:
                decoded, _ = decode_item(bytes(flipped))
            except ValueError:
                continue
            assert decoded != item, f"bit {bit} decodes to the original"

    def test_bool_bytes_other_than_0_and_1_are_rejected(self):
        data = bytearray(encode_item(SDMemPort(pattern(signed=True), in_port(1))))
        assert data[-3] == 1  # the pattern's signed byte, before the port
        data[-3] = 2
        with pytest.raises(EncodingError, match="bool"):
            decode_item(bytes(data))

    def test_unencodable_values_are_encoding_errors(self):
        with pytest.raises(EncodingError, match="dest"):
            encode_item(SDMemPort(pattern(), in_port(256)))
        with pytest.raises(EncodingError, match="cannot encode PortRef"):
            encode_item(in_port(0))

    @given(
        start=st.integers(0, 2**40),
        access=st.integers(1, 64).map(lambda v: v * 8),
        stride=st.integers(0, 2**20),
        n=st.integers(1, 10_000),
        elem=st.sampled_from([1, 2, 4, 8]),
        signed=st.booleans(),
        port=st.integers(0, 255),
    )
    @settings(max_examples=200)
    def test_mem_port_round_trip_property(
        self, start, access, stride, n, elem, signed, port
    ):
        p = Affine2D(start, access, stride, n, elem, signed)
        command = SDMemPort(p, in_port(port))
        decoded, _ = decode_item(encode_item(command))
        assert decoded == command

    @given(
        value=st.integers(0, 2**64 - 1),
        n=st.integers(1, 2**31 - 1),
        port=st.integers(0, 255),
    )
    @settings(max_examples=100)
    def test_const_round_trip_property(self, value, n, port):
        command = SDConstPort(value, n, in_port(port))
        decoded, _ = decode_item(encode_item(command))
        assert decoded == command


class TestEncodingLock:
    """The byte encoding of every checked-in program, pinned by SHA-256:
    a codec change that moves one byte of one command fails here."""

    def test_golden_workload_programs(self):
        digest = hashlib.sha256()
        for _name, make in sorted(CASES, key=lambda case: case[0]):
            digest.update(encode_items(make().program.items))
        assert digest.hexdigest() == (
            "ed11c824299d99fc85b0aeef42fe33afd2b2d0cbf7bec3c127bc8d7ef52d2c63")

    def test_fuzz_corpus_programs(self):
        digest = hashlib.sha256()
        for path in corpus_paths():
            plan = plan_from_json(path.read_text())
            digest.update(encode_items(build_case(plan).program.items))
        assert digest.hexdigest() == (
            "301148f0ffdba6dd6407479f9b15d3fef76cb13732e33604160d3c35189b2a9e")
