"""Table-driven Eq. 2 GlobalCost against its direct reference, on the Table II mesh.

``global_cost`` prices a placement on the memoised geometry of its block set;
``global_cost_reference`` walks the placement directly.  Every comparison here is an
exact float ``==``: the table must reproduce the reference bit for bit.
"""

import itertools
import random
import sys
import threading

import pytest

from repro.core import placement as placement_module
from repro.core.dram_allocation import DramAllocator
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.placement import (
    GEOMETRY_MEMO_SIZE,
    PlacementOptimizer,
    block_geometry,
    global_cost,
    global_cost_reference,
    serpentine_placement,
)
from repro.core.plan import MemPair, RecomputeConfig, StagePlacement, TrainingPlan
from repro.hardware.configs import wafer_config3
from repro.interconnect.routing import path_links, xy_path
from repro.interconnect.topology import MeshTopology
from repro.parallelism.strategies import ParallelismConfig
from repro.workloads.models import get_model
from repro.workloads.workload import TrainingWorkload

#: The (TP shape, PP) block sets the paper cells place on the 7×8 Table II mesh.
PAPER_SHAPES = [((1, 1), 56), ((1, 2), 28), ((2, 2), 14), ((2, 4), 7), ((2, 7), 4)]


@pytest.fixture(scope="module")
def mesh() -> MeshTopology:
    return MeshTopology.from_wafer(wafer_config3())


def random_mem_pairs(rng: random.Random, pp: int, count: int):
    """Sender→Helper pairs with byte volumes; about a quarter move zero bytes."""
    pairs = []
    for _ in range(count):
        sender, helper = rng.sample(range(pp), 2)
        moved = 0.0 if rng.random() < 0.25 else rng.uniform(0.1, 8.0) * 2**30
        pairs.append(MemPair(sender, helper, moved))
    return pairs


def random_order(rng: random.Random, pp: int):
    order = list(range(pp))
    rng.shuffle(order)
    return order


def reference_optimize(optimizer: PlacementOptimizer, tp_shape, pp, mem_pairs, pipeline_comm=1.0):
    """The permutation search priced with ``global_cost_reference``, one placement per step."""
    mesh = optimizer.mesh
    base = serpentine_placement(mesh.dies_x, mesh.dies_y, tp_shape, pp)
    pairs = optimizer._normalise(mem_pairs)
    best, best_cost = base, global_cost_reference(base, pairs, pipeline_comm)
    if pp <= optimizer.exhaustive_limit:
        for order in itertools.permutations(range(pp)):
            candidate = base.permuted(order)
            cost = global_cost_reference(candidate, pairs, pipeline_comm)
            if cost < best_cost:
                best, best_cost = candidate, cost
        return best
    rng = random.Random(optimizer.seed)
    order = list(range(pp))
    for _ in range(optimizer.local_search_iterations):
        i, j = rng.sample(range(pp), 2)
        order[i], order[j] = order[j], order[i]
        candidate = base.permuted(order)
        cost = global_cost_reference(candidate, pairs, pipeline_comm)
        if cost < best_cost:
            best, best_cost = candidate, cost
        else:
            order[i], order[j] = order[j], order[i]
    return best


class TestDifferential:
    @pytest.mark.parametrize("tp_shape, pp", PAPER_SHAPES)
    def test_table_cost_equals_reference(self, mesh, tp_shape, pp):
        rng = random.Random(pp)
        base = serpentine_placement(mesh.dies_x, mesh.dies_y, tp_shape, pp)
        for trial in range(40):
            placement = base.permuted(random_order(rng, pp))
            pairs = random_mem_pairs(rng, pp, rng.randrange(0, 9))
            pipeline_comm = (1.0, 0.37, 12.5)[trial % 3]
            pair_comm = None
            if pairs and trial % 2:
                first = pairs[0]
                pair_comm = {(first.sender_stage, first.helper_stage): rng.uniform(0.5, 3.0)}
            expected = global_cost_reference(placement, pairs, pipeline_comm, pair_comm)
            assert global_cost(placement, pairs, pipeline_comm, pair_comm) == expected

    # pp=7 takes the exhaustive path, pp=28 and 56 the local search.
    @pytest.mark.parametrize("tp_shape, pp", [((2, 4), 7), ((1, 2), 28), ((1, 1), 56)])
    def test_optimizer_matches_reference_search(self, mesh, tp_shape, pp):
        rng = random.Random(100 + pp)
        for seed in (0, 1):
            optimizer = PlacementOptimizer(mesh, seed=seed)
            pairs = random_mem_pairs(rng, pp, 3 + pp // 8)
            pipeline_comm = 1.0 if seed == 0 else 2.5
            placed = optimizer.optimize(tp_shape, pp, pairs, pipeline_comm)
            reference = reference_optimize(optimizer, tp_shape, pp, pairs, pipeline_comm)
            assert placed.stage_dies == reference.stage_dies

    def test_dram_allocator_cost_equals_direct_geometry(self, mesh):
        rng = random.Random(7)
        base = serpentine_placement(mesh.dies_x, mesh.dies_y, (1, 2), 28)
        placement = base.permuted(random_order(rng, 28))
        allocator = DramAllocator(placement)
        pipeline = set()
        for stage in range(27):
            pipeline.update(path_links(xy_path(*placement.boundary_dies(stage, stage + 1))))
        for sender, helper in itertools.permutations(range(28), 2):
            links = path_links(xy_path(*placement.boundary_dies(sender, helper)))
            gamma = sum(1 for link in links if link in pipeline)
            expected = placement.stage_distance(sender, helper) * (1.0 + gamma)
            assert allocator._cost(sender, helper) == expected

    def test_threads_filling_one_cold_table_stay_exact(self, mesh):
        # Sweep cells on threads share the memo; pairs are filled lazily, concurrently.
        base = serpentine_placement(mesh.dies_x, mesh.dies_y, (1, 1), 56)
        rng = random.Random(5)
        jobs = []
        for _ in range(4):
            pairs = random_mem_pairs(rng, 56, 6)
            placements = [base.permuted(random_order(rng, 56)) for _ in range(30)]
            jobs.append([(p, pairs, global_cost_reference(p, pairs)) for p in placements])
        placement_module._geometry.cache_clear()
        mismatches = []

        def price(job):
            for placement, pairs, expected in job:
                if global_cost(placement, pairs) != expected:
                    mismatches.append(placement)

        threads = [threading.Thread(target=price, args=(job,)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


def count_boundary_dies(monkeypatch):
    """Count every ``StagePlacement.boundary_dies`` call from here on."""
    calls = []
    original = StagePlacement.boundary_dies

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(StagePlacement, "boundary_dies", counting)
    return calls


@pytest.mark.perf_smoke
class TestGeometryIsComputedOnce:
    @pytest.mark.parametrize("iterations", [400, 4000])
    def test_local_search_derives_each_block_pair_at_most_once(
        self, mesh, monkeypatch, iterations
    ):
        placement_module._geometry.cache_clear()
        calls = count_boundary_dies(monkeypatch)
        pairs = random_mem_pairs(random.Random(3), 56, 10)
        PlacementOptimizer(mesh, local_search_iterations=iterations).optimize((1, 1), 56, pairs)
        assert 0 < len(calls) <= 56 * 55

    def test_ga_fitness_on_permuted_placements_adds_no_geometry(self, mesh, monkeypatch):
        wafer = wafer_config3()
        workload = TrainingWorkload(get_model("llama2-30b"), 128, 4, 4096)
        base = serpentine_placement(mesh.dies_x, mesh.dies_y, (2, 4), 7)
        plan = TrainingPlan(
            parallelism=ParallelismConfig(dp=1, tp=8, pp=7),
            tp_shape=(2, 4),
            recompute=RecomputeConfig.none(7),
            placement=base,
            mem_pairs=(MemPair(0, 6, 2.0 * 2**30), MemPair(1, 4, 0.0)),
        )
        evaluator = Evaluator(wafer)
        result = evaluator.evaluate(workload, plan)
        assert not result.oom  # an OOM individual's fitness skips Eq. 2
        optimizer = GeneticOptimizer(evaluator, workload, GAConfig(seed=0))
        geometry = block_geometry(base.stage_dies)
        for a, b in itertools.permutations(range(7), 2):
            geometry.pair(a, b)

        calls = count_boundary_dies(monkeypatch)
        rng = random.Random(11)
        for _ in range(50):
            individual = plan.with_placement(base.permuted(random_order(rng, 7)))
            optimizer._fitness_of(individual, result)
        assert calls == []

    def test_memo_is_bounded(self):
        for pp in range(1, GEOMETRY_MEMO_SIZE + 10):
            block_geometry(serpentine_placement(8, 8, (1, 1), pp).stage_dies)
        assert placement_module._geometry.cache_info().currsize <= GEOMETRY_MEMO_SIZE
