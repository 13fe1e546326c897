"""Mesh, mesh-switch and multi-wafer topologies."""

import pytest

from repro.hardware.faults import FaultModel
from repro.interconnect.topology import MeshSwitchTopology, MeshTopology, MultiWaferTopology


@pytest.fixture
def mesh() -> MeshTopology:
    return MeshTopology(dies_x=4, dies_y=3, link_bandwidth=1e12)


class TestMesh:
    def test_die_and_link_counts(self, mesh):
        assert mesh.num_dies == 12
        assert len(mesh.dies()) == 12
        # Links: horizontal 3*3=9, vertical 4*2=8.
        assert len(mesh.links()) == 3 * 3 + 4 * 2

    def test_neighbors_at_corner_and_interior(self, mesh):
        assert len(mesh.neighbors((0, 0))) == 2
        assert len(mesh.neighbors((1, 1))) == 4

    def test_link_requires_adjacency(self, mesh):
        with pytest.raises(ValueError):
            mesh.link((0, 0), (2, 0))

    def test_from_wafer_uses_per_link_bandwidth(self, small_wafer):
        mesh = MeshTopology.from_wafer(small_wafer)
        assert mesh.link_bandwidth == pytest.approx(small_wafer.die.d2d_link_bandwidth)
        assert mesh.num_dies == small_wafer.num_dies

    def test_adjacency_has_all_dies_and_links_when_healthy(self, mesh):
        adjacency = mesh.healthy_adjacency()
        assert len(adjacency) == 12
        # Each link is listed once from either end.
        assert sum(len(neighbours) for neighbours in adjacency.values()) == 2 * len(mesh.links())
        # Neighbours come in links() order, which fault-aware routes break ties on.
        assert adjacency[(1, 1)] == [(0, 1), (1, 0), (2, 1), (1, 2)]

    def test_faults_remove_dead_dies_from_adjacency(self):
        faults = FaultModel()
        faults.add_die_fault((0, 0), 0.0)
        mesh = MeshTopology(4, 4, 1e12, faults=faults)
        adjacency = mesh.healthy_adjacency()
        assert (0, 0) not in adjacency
        assert all((0, 0) not in neighbours for neighbours in adjacency.values())
        assert len(mesh.healthy_dies()) == 15

    def test_degraded_link_reduces_bandwidth(self):
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (1, 0)), 0.5)
        mesh = MeshTopology(4, 4, 1e12, faults=faults)
        assert mesh.link((0, 0), (1, 0)).bandwidth == pytest.approx(0.5e12)

    def test_dead_link_raises_when_used(self):
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (1, 0)), 0.0)
        mesh = MeshTopology(4, 4, 1e12, faults=faults)
        with pytest.raises(ValueError):
            mesh.link((0, 0), (1, 0))

    def test_bisection_bandwidth(self, mesh):
        assert mesh.bisection_bandwidth() == pytest.approx(3e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4, 1e12)
        with pytest.raises(ValueError):
            MeshTopology(4, 4, 0.0)


class TestMeshSwitch:
    def test_counts(self):
        topo = MeshSwitchTopology(num_groups=12, group_shape=(2, 2),
                                  link_bandwidth=1e12, switch_bandwidth=1.6e12)
        assert topo.dies_per_group == 4
        assert topo.num_dies == 48

    def test_group_mesh_shape(self):
        topo = MeshSwitchTopology(6, (2, 3), 1e12, 1.6e12)
        mesh = topo.group_mesh()
        assert (mesh.dies_x, mesh.dies_y) == (2, 3)

    def test_switch_link_shares_bandwidth(self):
        topo = MeshSwitchTopology(8, (2, 2), 1e12, 1.6e12)
        assert topo.switch_link().bandwidth == pytest.approx(1.6e12 / 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshSwitchTopology(0, (2, 2), 1e12, 1.6e12)


class TestMultiWafer:
    def test_totals_scale_with_wafer_count(self, small_wafer):
        node = MultiWaferTopology(num_wafers=4, wafer=small_wafer, w2w_bandwidth=1.8e12)
        assert node.total_dies == 4 * small_wafer.num_dies
        assert node.total_flops == pytest.approx(4 * small_wafer.total_flops)
        assert node.total_dram_capacity == pytest.approx(4 * small_wafer.total_dram_capacity)

    def test_w2w_link(self, small_wafer):
        node = MultiWaferTopology(2, small_wafer, w2w_bandwidth=4e11)
        assert node.w2w_link().bandwidth == pytest.approx(4e11)

    def test_validation(self, small_wafer):
        with pytest.raises(ValueError):
            MultiWaferTopology(0, small_wafer, 1e12)
        with pytest.raises(ValueError):
            MultiWaferTopology(2, small_wafer, 0.0)
