"""Unit tests for the CGRA hardware model: FUs, PEs, mesh, fabric."""

import pytest

from repro.cgra import (
    ALU,
    DIVIDER,
    Fabric,
    FabricError,
    HwVectorPort,
    MULTIPLIER,
    MeshNetwork,
    SIGMOID_UNIT,
    broadly_provisioned,
    build_fabric,
    dnn_provisioned,
    fu_for_name,
    make_pe,
)


class TestFuTypes:
    def test_alu_supports_basics(self):
        for op in ("add", "sub", "min", "select", "acc", "hadd"):
            assert ALU.supports(op)

    def test_alu_does_not_multiply(self):
        assert not ALU.supports("mul")

    def test_multiplier_is_alu_superset(self):
        assert MULTIPLIER.supports("mul")
        assert MULTIPLIER.supports("add")

    def test_divider_richest(self):
        assert DIVIDER.supports("div")
        assert DIVIDER.supports("mul")

    def test_sigmoid_unit(self):
        assert SIGMOID_UNIT.supports("sigmoid")
        assert not MULTIPLIER.supports("sigmoid")

    def test_fu_for_name_unknown(self):
        with pytest.raises(KeyError):
            fu_for_name("fpga")


class TestMesh:
    def test_neighbors_corner(self):
        mesh = MeshNetwork(3, 3)
        assert set(mesh.neighbors((0, 0))) == {(1, 0), (0, 1)}

    def test_neighbors_interior(self):
        mesh = MeshNetwork(3, 3)
        assert len(mesh.neighbors((1, 1))) == 4

    def test_manhattan(self):
        mesh = MeshNetwork(5, 4)
        assert mesh.manhattan((0, 0), (3, 2)) == 5

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshNetwork(0, 1)
        with pytest.raises(ValueError):
            MeshNetwork(2, 2, channels=0)


MESH_SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (4, 5)]


class TestMeshTables:
    """The integer-id tables the placer, annealer and router read."""

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("shape", MESH_SHAPES,
                             ids=[f"{c}x{r}" for c, r in MESH_SHAPES])
    def test_tables_match_the_mesh(self, shape, channels):
        mesh = MeshNetwork(*shape, channels=channels)
        coords, ids, distance, adjacency = mesh.tables
        assert list(coords) == list(mesh.coords())
        assert len(ids) == len(distance) == len(adjacency) == len(coords)
        for coord in coords:
            at = ids[coord]
            assert coords[at] == coord
            assert distance[at] == [mesh.manhattan(coord, b) for b in coords]
            assert [(coords[nbr], link) for nbr, link in adjacency[at]] == [
                (nbr, (coord, nbr)) for nbr in mesh.neighbors(coord)
            ]

    @pytest.mark.parametrize("fabric", [dnn_provisioned(), broadly_provisioned()],
                             ids=["dnn", "broad"])
    def test_fabric_tables_by_id(self, fabric):
        coords = fabric.mesh.tables.coords
        for op, op_ids in fabric.ids_supporting.items():
            assert [coords[at] for at in op_ids] == [
                pe.coord for pe in fabric.pes_supporting(op)
            ]
        assert fabric.fu_richness == [
            len(fabric.pes[coord].fu.ops) for coord in coords
        ]


class TestVectorPortSpec:
    def test_capacity(self):
        port = HwVectorPort(0, "in", 4, 16, ((0, 0),) * 4)
        assert port.capacity_words == 64

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            HwVectorPort(0, "in", 9, 16)
        with pytest.raises(ValueError):
            HwVectorPort(0, "in", 0, 16)

    def test_direction_checked(self):
        # the kind uses PortRef's vocabulary: in / out / ind
        for kind in ("diagonal", "indirect"):
            with pytest.raises(ValueError):
                HwVectorPort(0, kind, 4, 16)
        assert HwVectorPort(3, "ind", 8, 16).name == "ind3"


class TestFabric:
    def test_dnn_preset_dimensions(self):
        fabric = dnn_provisioned()
        assert fabric.num_fus == 20
        assert fabric.mesh.cols == 5 and fabric.mesh.rows == 4

    def test_dnn_preset_fu_mix(self):
        histogram = dnn_provisioned().fu_histogram()
        assert histogram["mul"] == 8
        assert histogram["sigmoid"] == 1

    def test_broad_preset_has_dividers(self):
        histogram = broadly_provisioned().fu_histogram()
        assert histogram["div"] == 2

    def test_broad_preset_indirect_ports(self):
        assert len(broadly_provisioned().indirect_ports) == 4

    def test_pes_supporting(self):
        fabric = dnn_provisioned()
        assert len(fabric.pes_supporting("mul")) == 8
        assert len(fabric.pes_supporting("add")) == 20  # every FU has ALU ops
        assert len(fabric.pes_supporting("sigmoid")) == 1

    def test_find_port(self):
        fabric = dnn_provisioned()
        port = fabric.find_port("in", 0)
        assert port.width == 8
        with pytest.raises(FabricError):
            fabric.find_port("in", 99)

    def test_attach_coordinates_in_bounds(self):
        fabric = broadly_provisioned()
        for port in fabric.input_ports + fabric.output_ports:
            for coord in port.attach:
                assert fabric.mesh.in_bounds(coord)

    def test_input_ports_attach_top_outputs_bottom(self):
        fabric = dnn_provisioned()
        assert all(c[1] == 0 for p in fabric.input_ports for c in p.attach)
        assert all(
            c[1] == fabric.mesh.rows - 1
            for p in fabric.output_ports
            for c in p.attach
        )

    def test_config_size_reasonable(self):
        size = dnn_provisioned().config_size_bytes
        # should load in <10 cycles at 64 B/cycle when cached (paper claim)
        assert size <= 10 * 64

    def test_bad_grid_rejected(self):
        with pytest.raises(FabricError):
            build_fabric("bad", 2, 2, [["alu", "alu"]], [1], [1])

    def test_make_pe(self):
        pe = make_pe(1, 2, "mul")
        assert pe.coord == (1, 2)
        assert pe.supports("mul")
        assert str(pe) == "PE(1,2:mul)"
