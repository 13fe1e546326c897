"""XY routing, fault-aware paths and the link-load tracker."""

import pytest

from repro.hardware.faults import FaultModel
from repro.interconnect.routing import (
    LinkLoadTracker,
    fault_aware_path,
    manhattan_hops,
    path_links,
    xy_path,
)
from repro.interconnect.topology import MeshTopology


@pytest.fixture
def mesh() -> MeshTopology:
    return MeshTopology(dies_x=5, dies_y=5, link_bandwidth=1e12)


class TestPaths:
    def test_manhattan_distance(self):
        assert manhattan_hops((0, 0), (3, 2)) == 5
        assert manhattan_hops((2, 2), (2, 2)) == 0

    def test_xy_path_goes_x_first(self):
        path = xy_path((0, 0), (2, 1))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_xy_path_handles_negative_direction(self):
        path = xy_path((3, 3), (1, 3))
        assert path == [(3, 3), (2, 3), (1, 3)]

    def test_xy_path_length_matches_manhattan(self):
        src, dst = (0, 4), (4, 0)
        assert len(xy_path(src, dst)) - 1 == manhattan_hops(src, dst)

    def test_path_links_are_canonical(self):
        links = path_links([(1, 0), (0, 0), (0, 1)])
        assert ((0, 0), (1, 0)) in links
        assert ((0, 0), (0, 1)) in links

    def test_fault_aware_path_equals_xy_when_healthy(self, mesh):
        assert fault_aware_path(mesh, (0, 0), (3, 2)) == xy_path((0, 0), (3, 2))

    def test_fault_aware_path_avoids_dead_die(self):
        faults = FaultModel()
        faults.add_die_fault((1, 0), 0.0)
        mesh = MeshTopology(5, 5, 1e12, faults=faults)
        path = fault_aware_path(mesh, (0, 0), (2, 0))
        assert (1, 0) not in path
        assert path[0] == (0, 0) and path[-1] == (2, 0)


class TestLinkLoadTracker:
    def test_add_path_accumulates_load(self, mesh):
        tracker = LinkLoadTracker(mesh)
        tracker.add_path(xy_path((0, 0), (2, 0)), 100.0)
        tracker.add_path(xy_path((0, 0), (1, 0)), 50.0)
        assert tracker.load(((0, 0), (1, 0))) == pytest.approx(150.0)
        assert tracker.load(((1, 0), (2, 0))) == pytest.approx(100.0)

    def test_conflicts_count_shared_links(self, mesh):
        tracker = LinkLoadTracker(mesh)
        tracker.add_path(xy_path((0, 0), (3, 0)), 10.0)
        assert tracker.conflicts(xy_path((1, 0), (2, 0))) == 1
        assert tracker.conflicts(xy_path((0, 1), (3, 1))) == 0

    def test_utilization_fraction(self, mesh):
        tracker = LinkLoadTracker(mesh)
        assert tracker.utilization() == 0.0
        tracker.add_path(xy_path((0, 0), (4, 0)), 1.0)
        assert tracker.utilization() == pytest.approx(4 / len(mesh.links()))

    def test_congestion_time_grows_with_existing_load(self, mesh):
        tracker = LinkLoadTracker(mesh)
        empty = tracker.congestion_time(1e9, xy_path((0, 0), (2, 0)))
        tracker.add_path(xy_path((0, 0), (2, 0)), 1e9)
        loaded = tracker.congestion_time(1e9, xy_path((0, 0), (2, 0)))
        assert loaded > empty

    def test_congestion_time_zero_for_local_path(self, mesh):
        tracker = LinkLoadTracker(mesh)
        assert tracker.congestion_time(1e9, [(0, 0)]) == 0.0

    def test_congestion_time_rejects_dead_link(self):
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (1, 0)), 0.0)
        mesh = MeshTopology(3, 3, 1e12, faults=faults)
        tracker = LinkLoadTracker(mesh)
        with pytest.raises(ValueError):
            tracker.congestion_time(1.0, [(0, 0), (1, 0)])

    def test_negative_traffic_rejected(self, mesh):
        with pytest.raises(ValueError):
            LinkLoadTracker(mesh).add_path(xy_path((0, 0), (1, 0)), -1.0)

    def test_totals(self, mesh):
        tracker = LinkLoadTracker(mesh)
        tracker.add_path(xy_path((0, 0), (2, 0)), 5.0)
        assert tracker.total_traffic() == pytest.approx(10.0)
        assert tracker.busy_links() == 2
        assert tracker.max_link_load() == pytest.approx(5.0)
