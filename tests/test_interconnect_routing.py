"""XY routing, fault-aware paths and the link-load tracker."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import repro
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


def _networkx_route(nx, mesh, src, dst):
    """The networkx routing ``fault_aware_path`` replaced, plus which outcome it took."""
    if mesh.faults.is_empty:
        return xy_path(src, dst), "healthy mesh"
    graph = nx.Graph()
    for die in mesh.healthy_dies():
        graph.add_node(die)
    for a, b in mesh.links():
        quality = mesh.faults.link_quality((a, b))
        if quality <= 0.0:
            continue
        if a in graph and b in graph:
            graph.add_edge(
                a, b, bandwidth=mesh.link_bandwidth * quality, latency=mesh.link_latency, weight=1.0
            )
    if src not in graph or dst not in graph:
        return xy_path(src, dst), "dead endpoint"
    try:
        route = nx.shortest_path(graph, src, dst, weight="weight")
    except nx.NetworkXNoPath:
        return xy_path(src, dst), "no healthy path"
    if src == dst:
        return route, "same die"
    return route, "xy" if route == xy_path(src, dst) else "detour"


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

    def test_fault_aware_path_matches_networkx_exactly(self):
        """Routes equal networkx's own, tie-breaks included, on seeded faulty wafers.

        Stored evaluations are keyed on the wafer, faults, workload and plan but not on
        the routing code, so a route that is merely another shortest path would make
        cached rows disagree with fresh pricing.
        """
        nx = pytest.importorskip("networkx")
        grids = ((8, 8), (7, 8), (6, 8), (4, 4))  # Table II configs 1-4, then `tiny`
        states = itertools.product(grids, (0.15, 0.3, 0.6), (0.0, 0.2, 0.6), (0.2, 1.0))
        outcomes = Counter()
        mismatches = []
        for seed, ((dies_x, dies_y), link_rate, die_rate, dead_share) in enumerate(states):
            faults = FaultModel.random(
                dies_x, dies_y, link_rate, die_rate, dead_share=dead_share, seed=seed
            )
            mesh = MeshTopology(dies_x, dies_y, 1e12, faults=faults)
            rng = random.Random(seed)
            dies = mesh.dies()
            for _ in range(40):
                src, dst = rng.choice(dies), rng.choice(dies)
                expected, outcome = _networkx_route(nx, mesh, src, dst)
                outcomes[outcome] += 1
                if fault_aware_path(mesh, src, dst) != expected:
                    mismatches.append((dies_x, dies_y, seed, src, dst))
        assert mismatches == []
        assert sum(outcomes.values()) == 2880
        assert set(outcomes) == {"detour", "xy", "same die", "dead endpoint", "no healthy path"}


def test_repro_imports_and_routes_without_networkx():
    """``repro`` needs the standard library alone.

    With numpy and networkx blocked it imports, routes around a fault and runs a cell,
    and numpy is never imported; only the Fig. 10b DNN module refuses, naming its extra.
    """
    script = textwrap.dedent(
        """
        import sys

        class Uninstalled:
            # Every `import numpy` / `import networkx` fails as if neither were installed.
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] in ("networkx", "numpy"):
                    raise ModuleNotFoundError(f"No module named {name!r}", name=name)
                return None

        sys.meta_path.insert(0, Uninstalled())
        import repro, repro.api, repro.predictor, repro.obs
        from repro.api import ExperimentSpec, Session
        from repro.hardware.faults import FaultModel
        from repro.interconnect.routing import fault_aware_path
        from repro.interconnect.topology import MeshTopology

        faults = FaultModel()
        faults.add_die_fault((1, 0), 0.0)
        path = fault_aware_path(MeshTopology(4, 4, 1e12, faults=faults), (0, 0), (2, 0))
        assert path == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)], path

        spec = ExperimentSpec(
            kind="watos", wafer="tiny", workload="tiny", population=4, generations=2
        )
        run = Session().run(spec)
        assert run.metrics["throughput"] > 0, run.metrics

        try:
            import repro.predictor.dnn
        except ImportError as exc:
            message = str(exc)
        else:
            raise AssertionError("repro.predictor.dnn imported without numpy")
        assert "numpy" in message and "'dnn' extra" in message, message
        assert "numpy" not in sys.modules
        """
    )
    # A subprocess: this test session may already have imported numpy and networkx.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
