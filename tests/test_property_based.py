"""Property-based tests (hypothesis) for core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import geomean, normalize
from repro.core.plan import RecomputeConfig
from repro.interconnect.alphabeta import AlphaBetaLink
from repro.interconnect.collectives import CollectiveModel
from repro.interconnect.routing import manhattan_hops, xy_path
from repro.memsys.dataflow import Dataflow, external_memory_accesses, select_dataflow
from repro.memsys.sram import SramTiler
from repro.parallelism.pipeline import PipelineCostInputs, analytic_1f1b_time, simulate_1f1b
from repro.parallelism.strategies import enumerate_tp_pp
from repro.units import MB
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.transformer import build_layer_graph, layer_flops

from repro_testlib import make_tiny_model


coords = st.tuples(st.integers(0, 15), st.integers(0, 15))


@given(src=coords, dst=coords)
def test_xy_path_is_shortest_and_connected(src, dst):
    path = xy_path(src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) - 1 == manhattan_hops(src, dst)
    for a, b in zip(path, path[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


@given(
    size=st.floats(min_value=1.0, max_value=1e12),
    group=st.integers(min_value=2, max_value=64),
)
def test_ring_all_reduce_respects_bandwidth_lower_bound(size, group):
    model = CollectiveModel(AlphaBetaLink(1e12, 1e-7), group)
    lower_bound = 2.0 * (group - 1) / group * size / (2.0 * 1e12)
    assert model.ring_all_reduce(size, bidirectional=True) >= lower_bound


@given(
    size=st.floats(min_value=1.0, max_value=1e12),
    group=st.integers(min_value=1, max_value=64),
)
def test_collectives_are_nonnegative_and_monotone_in_size(size, group):
    model = CollectiveModel(AlphaBetaLink(1e12, 1e-7), group)
    small = model.ring_all_reduce(size)
    large = model.ring_all_reduce(size * 2.0)
    assert small >= 0.0
    assert large >= small


@given(
    s=st.integers(1, 4096), h=st.integers(1, 4096), k=st.integers(1, 4096),
    m=st.integers(1, 64), n=st.integers(1, 64),
)
def test_selected_dataflow_is_never_worse_than_alternatives(s, h, k, m, n):
    _, best_ema = select_dataflow(s, h, k, m, n)
    for dataflow in (Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY, Dataflow.INPUT_STATIONARY):
        assert best_ema <= external_memory_accesses(s, h, k, m, n, dataflow) + 1e-9


@given(s=st.integers(1, 8192), h=st.integers(1, 8192), k=st.integers(1, 8192))
def test_sram_tiles_always_fit_budget(s, h, k):
    tiler = SramTiler(sram_bytes=1.25 * MB)
    plan = tiler.plan(s, h, k)
    assert plan.tile_bytes <= tiler.budget_bytes or (plan.tile_s == plan.tile_h == plan.tile_k == 1)
    assert plan.num_tiles >= 1


@given(
    pp=st.integers(1, 8),
    n=st.integers(1, 16),
    fwd=st.floats(0.001, 10.0),
    bwd=st.floats(0.001, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_1f1b_simulation_bounds(pp, n, fwd, bwd):
    result = simulate_1f1b(
        PipelineCostInputs([fwd] * pp, [bwd] * pp, [0.0] * (pp - 1), n)
    )
    # Never faster than the work of one stage, never slower than fully serial execution.
    assert result.iteration_time >= n * (fwd + bwd) - 1e-9
    assert result.iteration_time <= pp * n * (fwd + bwd) + 1e-9
    assert math.isclose(result.iteration_time, analytic_1f1b_time(fwd, bwd, pp, n), rel_tol=1e-9)
    assert 0.0 <= result.bubble_fraction < 1.0


@st.composite
def _grown_pipeline(draw):
    """Heterogeneous 1F1B inputs, and a copy with one forward, backward or comm time
    grown."""
    pp = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    times = st.floats(0.0, 10.0)
    inputs = {
        "forward": draw(st.lists(times, min_size=pp, max_size=pp)),
        "backward": draw(st.lists(times, min_size=pp, max_size=pp)),
        "comm": draw(st.lists(times, min_size=pp - 1, max_size=pp - 1)),
    }
    kind = draw(st.sampled_from([name for name, values in inputs.items() if values]))
    index = draw(st.integers(0, len(inputs[kind]) - 1))
    grown = {name: list(values) for name, values in inputs.items()}
    grown[kind][index] = draw(st.floats(inputs[kind][index], 20.0))
    return (
        PipelineCostInputs(num_microbatches=n, **inputs),
        PipelineCostInputs(num_microbatches=n, **grown),
    )


@given(_grown_pipeline())
@settings(max_examples=200, deadline=None)
def test_1f1b_makespan_is_monotone_in_every_input(pair):
    """IEEE ``+`` and ``max`` are monotone, so no finish time falls when an input grows;
    the early-pruning bound (``Evaluator.bound``) rests on this, compared exactly."""
    base, grown = (simulate_1f1b(inputs) for inputs in pair)
    assert grown.iteration_time >= base.iteration_time
    assert all(g >= b for g, b in zip(grown.stage_finish_time, base.stage_finish_time))


@given(mp=st.integers(1, 128), layers=st.integers(1, 128))
@settings(max_examples=60, deadline=None)
def test_enumerate_tp_pp_products_and_constraints(mp, layers):
    for tp, pp in enumerate_tp_pp(mp, layers):
        assert tp * pp == mp
        assert pp <= layers
        assert tp == 1 or tp % 2 == 0


@given(
    pp=st.integers(1, 12),
    tp=st.integers(1, 8),
    n=st.integers(1, 32),
    micro=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_memory_breakdown_invariants(pp, tp, n, micro):
    model = make_tiny_model()
    memory = TrainingMemoryModel(model)
    if pp > model.num_layers:
        pp = model.num_layers
    breakdown = memory.pipeline_breakdown(pp, tp, micro, 512, n)
    assert len(breakdown) == pp
    # Checkpoint retention never increases along the pipeline.
    checkpoints = [stage.checkpoint_bytes / max(1, memory.layers_per_stage(pp)[i])
                   for i, stage in enumerate(breakdown)]
    assert all(checkpoints[i] >= checkpoints[i + 1] - 1e-6 for i in range(pp - 1))
    # Everything is nonnegative and recomputation can only shrink the footprint.
    full = memory.pipeline_breakdown(pp, tp, micro, 512, n, [1.0] * pp)
    for plain, recomputed in zip(breakdown, full):
        assert plain.total_bytes >= recomputed.total_bytes - 1e-6
        assert recomputed.checkpoint_bytes == 0.0


@given(batch=st.integers(1, 8), seq=st.sampled_from([128, 256, 512, 1024]))
@settings(max_examples=20, deadline=None)
def test_layer_flops_scale_linearly_in_batch(batch, seq):
    model = make_tiny_model()
    single = layer_flops(model, 1, seq)
    scaled = layer_flops(model, batch, seq)
    assert scaled == math.isclose(scaled, batch * single, rel_tol=1e-9) and scaled or scaled
    assert math.isclose(scaled, batch * single, rel_tol=1e-9)


@given(
    values=st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1, max_size=8,
    )
)
def test_normalize_minimum_is_one_or_all_zero(values):
    normalised = normalize(values)
    positive = [v for v in normalised.values() if v > 0]
    if positive:
        assert math.isclose(min(positive), 1.0, rel_tol=1e-9)
    for value in normalised.values():
        assert value >= 0.0


@given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=10))
def test_geomean_between_min_and_max(values):
    result = geomean(values)
    assert min(values) * 0.999 <= result <= max(values) * 1.001


@given(pp=st.integers(1, 10), names=st.lists(st.sampled_from(
    ["attn_norm", "qkv_proj", "mlp_up_proj", "mlp_down_proj"]), max_size=4))
def test_recompute_config_uniform_fraction_bounds(pp, names):
    model = make_tiny_model()
    ops = build_layer_graph(model, 1, 256)
    cfg = RecomputeConfig.uniform(pp, names)
    for stage in range(pp):
        fraction = cfg.recompute_fraction(stage, ops)
        assert 0.0 <= fraction <= 1.0
