"""End-to-end evaluator (the extended Astra-sim of paper §IV-F).

Given a wafer configuration, a training workload and a :class:`TrainingPlan`, the
evaluator prices one training iteration:

1. the memory model checks whether every stage's modelP + retained checkpoints (after
   recomputation and Sender→Helper balancing) fits the per-die DRAM;
2. the TP engine prices each stage's per-micro-batch forward/backward/recompute time;
3. the PP engine routes inter-stage and balancing traffic on the mesh;
4. the 1F1B simulator turns per-stage times and boundary delays into an iteration
   makespan;
5. utilisation and throughput metrics are derived from the makespan.

A plan that does not fit memory is returned with ``oom=True`` and an infinite iteration
time so that searchers can still rank it (and prune it).  :meth:`Evaluator.bound` runs
steps 2 and 4 only, with every pipeline boundary at its one-hop minimum: an upper bound
on the throughput of any plan of a (TP, PP, strategy, collective) split, which Alg. 1's
early pruning ranks splits by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.evalcache import (
    CacheKey,
    CanonicalTexts,
    EvaluationCache,
    combine_fingerprints,
    hardware_fingerprint,
)
from repro.obs import tracer as _obs
from repro.core.plan import RecomputeConfig, StagePlacement, TrainingPlan
from repro.core.pp_engine import PPEngine
from repro.core.tp_engine import TPEngine
from repro.core.placement import serpentine_placement
from repro.hardware.faults import FaultModel
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveModel
from repro.interconnect.alphabeta import AlphaBetaLink
from repro.interconnect.topology import MeshTopology
from repro.parallelism.pipeline import PipelineCostInputs, PipelineResult, simulate_1f1b
from repro.predictor.lookup import OperatorPredictor
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.workload import TrainingWorkload

Coord = Tuple[int, int]

#: Distinct stage footprints, and distinct 1F1B schedules, one evaluator remembers
#: (each); a full memo starts over.
PRICING_MEMO_SIZE = 1024

#: Prefix of the hardware half of a :meth:`Evaluator.bound` cache key; no hardware
#: digest starts with it, so a bound and an evaluation never share a key or a row.
BOUND_TAG = "bound:"


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one training plan on one system."""

    iteration_time: float
    useful_flops: float
    recompute_flops: float
    oom: bool = False
    bubble_fraction: float = 0.0
    tp_comm_time: float = 0.0
    pp_comm_time: float = 0.0
    balance_exposed_time: float = 0.0
    stage_memory_bytes: Tuple[float, ...] = ()
    dram_utilization: float = 0.0
    d2d_utilization: float = 0.0
    compute_utilization: float = 0.0
    plan_label: str = ""
    system_label: str = ""

    @property
    def throughput(self) -> float:
        """Useful FLOP/s delivered (excludes recomputation work)."""
        if self.oom or self.iteration_time == 0 or math.isinf(self.iteration_time):
            return 0.0
        return self.useful_flops / self.iteration_time

    @property
    def total_throughput(self) -> float:
        """FLOP/s including recomputation (the paper's "Recomp Throughput" bars)."""
        if self.oom or self.iteration_time == 0 or math.isinf(self.iteration_time):
            return 0.0
        return (self.useful_flops + self.recompute_flops) / self.iteration_time

    @property
    def recompute_ratio(self) -> float:
        """Share of executed FLOPs that are recomputation."""
        total = self.useful_flops + self.recompute_flops
        return self.recompute_flops / total if total else 0.0

    @classmethod
    def out_of_memory(cls, plan_label: str = "", system_label: str = "") -> "EvaluationResult":
        return cls(
            iteration_time=float("inf"),
            useful_flops=0.0,
            recompute_flops=0.0,
            oom=True,
            plan_label=plan_label,
            system_label=system_label,
        )


class Evaluator:
    """Prices training plans on a wafer configuration.

    A GA child differs from its parent in one plan component (Op1–Op5 of §IV-D), so
    most of the pricing it needs was done before.  The plan-level :attr:`cache` is
    keyed by :meth:`cache_key`: the hardware and workload digests, each computed
    once while it cannot change, and the plan itself, which hashes once per object.
    The sha256 digest of a plan is built only for a cache store's row keys
    (:meth:`fingerprint`), or for a plan that does not hash.  Besides the cache,
    each evaluator memoises:

    * the pre-Mem_pair stage footprints per (model, micro-batch size, sequence
      length, PP, TP, micro-batch count, recompute config); the Mem_pair shifts are
      applied to a fresh copy on every call;
    * the 1F1B result per (forward, backward, boundary times, micro-batch count);
      :class:`PipelineCostInputs` is still built, and so validated, on every call;
    * the workload's digest, and the text of each plan component
      :meth:`fingerprint` reads (:class:`~repro.core.evalcache.CanonicalTexts`).

    The first two keep :data:`PRICING_MEMO_SIZE` entries each.  They, and the TP
    engines' stage-time memo, are skipped with ``memoize_stages=False``; with
    ``use_cache=False`` as well, that is the raw reference path the memoised one is
    tested against.
    """

    #: Host-offloading (Fig. 6b) moves evicted checkpoints over the host link; only this
    #: fraction of the transfer can be hidden behind compute.
    OFFLOAD_OVERLAP = 0.3

    def __init__(
        self,
        wafer: WaferConfig,
        predictor: Optional[OperatorPredictor] = None,
        faults: Optional[FaultModel] = None,
        fault_aware: bool = True,
        cache: Optional[EvaluationCache] = None,
        use_cache: bool = True,
        memoize_stages: bool = True,
    ) -> None:
        self.wafer = wafer
        self.faults = faults or FaultModel()
        self.fault_aware = fault_aware
        self.mesh = MeshTopology.from_wafer(wafer, self.faults)
        self._predictor = predictor
        self._tp_engines: Dict[Tuple, TPEngine] = {}
        #: Plan-level result cache (keyed by :meth:`cache_key`; see :mod:`repro.core.evalcache`).
        #: ``use_cache=False`` gives the raw path benchmarks compare against.
        self.cache: Optional[EvaluationCache] = (
            cache if cache is not None else (EvaluationCache() if use_cache else None)
        )
        self.memoize_stages = memoize_stages
        #: Number of evaluations actually priced (cache misses + uncached calls).
        self.raw_evaluations = 0
        # Incremental per-instance state, hoisted out of evaluate(): one PP engine per
        # mesh, one memory model per model config, one operator graph per workload shape,
        # and the footprint and 1F1B memos (see the class docstring).
        self._pp_engine = PPEngine(self.mesh)
        self._memory_models: Dict[object, TrainingMemoryModel] = {}
        self._layer_operators: Dict[Tuple, List] = {}
        self._footprints: Dict[Tuple, Tuple[float, ...]] = {}
        self._pipelines: Dict[Tuple, PipelineResult] = {}
        # Digest memos: the hardware digest is static while the fault model is empty
        # (it is recomputed per call otherwise, so in-place fault injection still
        # invalidates keys); a workload that cannot change is digested once, and
        # plan digests are built from memoised texts of their components.
        self._hardware_fp: Optional[str] = None
        self._texts = CanonicalTexts()

    # ------------------------------------------------------------------ helpers
    def _tp_engine(self, plan: TrainingPlan) -> TPEngine:
        key = (plan.collective, plan.split_strategy)
        engine = self._tp_engines.get(key)
        if engine is None:
            engine = TPEngine(
                self.wafer,
                predictor=self._predictor,
                collective=plan.collective,
                split_strategy=plan.split_strategy,
                memoize=self.memoize_stages,
            )
            self._tp_engines[key] = engine
        return engine

    def _memory_model(self, workload: TrainingWorkload) -> TrainingMemoryModel:
        model = self._memory_models.get(workload.model)
        if model is None:
            model = TrainingMemoryModel(workload.model)
            self._memory_models[workload.model] = model
        return model

    def _layer_ops(self, workload: TrainingWorkload):
        key = (workload.model, workload.micro_batch_size, workload.seq_len)
        operators = self._layer_operators.get(key)
        if operators is None:
            operators = workload.layer_operators()
            self._layer_operators[key] = operators
        return operators

    def default_placement(self, plan: TrainingPlan) -> StagePlacement:
        """Serpentine placement used when a plan does not specify one."""
        return serpentine_placement(
            self.wafer.dies_x, self.wafer.dies_y, plan.tp_shape, plan.parallelism.pp
        )

    def _stage_hardware(self, placement: StagePlacement, stage: int) -> Tuple[float, float]:
        """(compute throughput, link quality) of a stage's dies under the fault model."""
        if self.faults.is_empty:
            return 1.0, 1.0
        dies = placement.dies(stage)
        throughputs = [self.faults.die_throughput(d) for d in dies]
        if not self.fault_aware:
            # The non-robust baseline keeps its static work split, so the slowest die
            # gates the stage; a dead die stalls it almost completely.
            worst = min(throughputs)
            compute = max(worst, 0.05)
        else:
            # The robust scheduler rebalances work across healthy dies.
            avg = sum(throughputs) / len(throughputs)
            compute = max(avg, 0.05)
        qualities = []
        for die in dies:
            for neighbor in self.mesh.neighbors(die):
                qualities.append(self.faults.link_quality((die, neighbor)))
        if not qualities:
            link = 1.0
        elif self.fault_aware:
            healthy = [q for q in qualities if q > 0.0]
            link = (sum(healthy) / len(healthy)) if healthy else 0.05
        else:
            link = max(min(qualities), 0.05)
        return compute, max(link, 0.05)

    # ------------------------------------------------------------------ memory
    def stage_memory(
        self,
        workload: TrainingWorkload,
        plan: TrainingPlan,
        num_microbatches: int,
    ) -> List[float]:
        """Per-die memory footprint of every stage after recomputation and balancing."""
        memory = self._memory_model(workload)
        pp, tp = plan.parallelism.pp, plan.parallelism.tp
        recompute = plan.recompute if plan.recompute.num_stages == pp else RecomputeConfig.none(pp)
        key = base = None
        if self.memoize_stages:
            # One memory model per model config, so it stands in for the model.
            key = (
                memory,
                workload.micro_batch_size,
                workload.seq_len,
                pp,
                tp,
                num_microbatches,
                recompute,
            )
            try:
                base = self._footprints.get(key)
            except TypeError:  # a recompute config built on lists or sets does not hash
                key = None
        if base is None:
            operators = self._layer_ops(workload)
            fractions = [recompute.recompute_fraction(s, operators) for s in range(pp)]
            breakdown = memory.pipeline_breakdown(
                pp,
                tp,
                workload.micro_batch_size,
                workload.seq_len,
                num_microbatches,
                fractions,
            )
            base = tuple(stage.total_bytes for stage in breakdown)
            if key is not None:
                if len(self._footprints) >= PRICING_MEMO_SIZE:
                    self._footprints.clear()
                self._footprints[key] = base
        footprints = list(base)
        # Mem_pair volumes are expressed per die of the stage (the same unit as the
        # footprints), so they shift directly between Sender and Helper stages.
        for pair in plan.mem_pairs:
            footprints[pair.sender_stage] -= pair.bytes_moved
            footprints[pair.helper_stage] += pair.bytes_moved
        return footprints

    def _stage_times(
        self,
        workload: TrainingWorkload,
        plan: TrainingPlan,
        placement: Optional[StagePlacement],
        recompute: RecomputeConfig,
        num_microbatches: int,
    ) -> Tuple[List[float], List[float], float, float, float]:
        """Each stage's forward and backward time per micro-batch from the TP engine,
        and the iteration's TP communication time, useful FLOPs and recomputed FLOPs.

        ``placement`` is read only on a mesh with faults (:meth:`_stage_hardware`).
        """
        engine = self._tp_engine(plan)
        tp, pp = plan.parallelism.tp, plan.parallelism.pp
        layers = self._memory_model(workload).layers_per_stage(pp)
        operators = self._layer_ops(workload)
        forward: List[float] = []
        backward: List[float] = []
        tp_comm_total = 0.0
        useful_flops = 0.0
        recompute_flops = 0.0
        for stage in range(pp):
            compute_q, link_q = self._stage_hardware(placement, stage)
            times = engine.stage_times(
                workload,
                stage,
                layers[stage],
                tp,
                pp,
                recomputed_ops=recompute.stage(stage),
                link_quality=link_q,
                compute_throughput=compute_q,
            )
            forward.append(times.forward)
            backward.append(times.backward_total)
            tp_comm_total += times.tp_comm * 3.0 * num_microbatches
            stage_fwd_flops = engine.stage_forward_flops(workload, stage, layers[stage], pp)
            useful_flops += 3.0 * stage_fwd_flops * num_microbatches
            recompute_flops += (
                recompute.extra_forward_flops(stage, operators)
                * layers[stage]
                * num_microbatches
            )
        return forward, backward, tp_comm_total, useful_flops, recompute_flops

    def _pipeline(self, inputs: PipelineCostInputs) -> PipelineResult:
        """:func:`simulate_1f1b` of ``inputs``, memoised per distinct stage times."""
        if not self.memoize_stages:
            return simulate_1f1b(inputs)
        key = (
            tuple(inputs.forward),
            tuple(inputs.backward),
            tuple(inputs.comm),
            inputs.num_microbatches,
        )
        result = self._pipelines.get(key)
        if result is None:
            result = simulate_1f1b(inputs)
            if len(self._pipelines) >= PRICING_MEMO_SIZE:
                self._pipelines.clear()
            self._pipelines[key] = result
        return result

    # ------------------------------------------------------------------ evaluation
    def _hardware_digest(self) -> str:
        """The hardware half of every key (wafer, fault state, fault awareness)."""
        if not self.faults.is_empty:
            # Fault models can be mutated in place (robustness study); re-digest.
            return hardware_fingerprint(self.wafer, self.faults, self.fault_aware)
        if self._hardware_fp is None:
            self._hardware_fp = hardware_fingerprint(self.wafer, self.faults, self.fault_aware)
        return self._hardware_fp

    def fingerprint(self, workload: TrainingWorkload, plan: TrainingPlan) -> str:
        """Content address of one (wafer, faults, workload, plan) evaluation: the
        row key a cache store keeps its result under."""
        return combine_fingerprints(
            self._hardware_digest(),
            self._texts.fingerprint(workload, hold=True),
            self._texts.fingerprint(plan),
        )

    def cache_key(self, workload: TrainingWorkload, plan: TrainingPlan) -> CacheKey:
        """The :attr:`cache` key of one evaluation: ``(hardware digest, workload
        digest, plan)``, or the :meth:`fingerprint` of a plan that does not hash."""
        return self._key(self._hardware_digest(), workload, plan)

    def _key(self, hardware: str, workload: TrainingWorkload, plan: TrainingPlan) -> CacheKey:
        workload_digest = self._texts.fingerprint(workload, hold=True)
        try:
            hash(plan)
        except TypeError:  # a placement or recompute config built on lists
            return combine_fingerprints(hardware, workload_digest, self._texts.fingerprint(plan))
        return (hardware, workload_digest, plan)

    def evaluate(self, workload: TrainingWorkload, plan: TrainingPlan) -> EvaluationResult:
        """Price one training iteration of ``workload`` under ``plan``.

        Results are memoized in :attr:`cache` (when enabled) under
        :meth:`cache_key`, so GA elites, duplicate children and repeated scheduler
        probes are priced exactly once.
        """
        if self.cache is None:
            self.raw_evaluations += 1
            # Manual span form: on this innermost path even a no-op context
            # manager would be measurable, the flag check is not.
            t0 = _obs.now() if _obs.enabled else 0.0
            result = self._evaluate_uncached(workload, plan)
            if _obs.enabled:
                _obs.add("pricing", t0, _obs.now())
            return result
        key = self.cache_key(workload, plan)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        self.raw_evaluations += 1
        t0 = _obs.now() if _obs.enabled else 0.0
        result = self._evaluate_uncached(workload, plan)
        if _obs.enabled:
            _obs.add("pricing", t0, _obs.now())
        self.cache.put(key, result)
        return result

    def bound(self, workload: TrainingWorkload, plan: TrainingPlan) -> EvaluationResult:
        """An upper bound on the throughput of every plan of ``plan``'s split — its
        parallelism, collective and split strategy — on this healthy mesh.

        The bound is the split's useful FLOPs over the 1F1B makespan of its TP-engine
        stage times without recomputation, with every pipeline boundary at its
        one-hop minimum ``(a + a) / link_bandwidth + link_latency``: what
        :meth:`~repro.interconnect.routing.LinkLoadTracker.congestion_time` gives a
        one-hop boundary whose link carries only its own activation ``a``.  Nothing
        is routed and no memory is checked, and ``plan``'s recomputation, placement,
        Mem_pairs and host offload are not read.  On the split's ideal plan
        (serpentine placement, no recomputation, no Mem_pairs) that fits memory, the
        iteration time and throughput are exactly :meth:`evaluate`'s.  The result
        holds the time fields; no memory or utilisation field is priced.

        Cached in :attr:`cache` under a key of its own, whose hardware half is
        tagged :data:`BOUND_TAG`, so no bound is served as an evaluation, and a
        warm store serves bounds too.  An evaluator with faults raises
        ``ValueError``: a faulted link can make a boundary cost more than one hop.
        """
        if not self.faults.is_empty:
            raise ValueError("a throughput bound holds only on a mesh without faults")
        if self.cache is None:
            return self._bound_uncached(workload, plan)
        key = self._key(BOUND_TAG + self._hardware_digest(), workload, plan)
        result = self.cache.get(key)
        if result is None:
            result = self._bound_uncached(workload, plan)
            self.cache.put(key, result)
        return result

    def _bound_uncached(self, workload: TrainingWorkload, plan: TrainingPlan) -> EvaluationResult:
        pp = plan.parallelism.pp
        num_microbatches = workload.num_microbatches(plan.parallelism.dp)
        forward, backward, tp_comm_total, useful_flops, recompute_flops = self._stage_times(
            workload, plan, None, RecomputeConfig.none(pp), num_microbatches
        )
        activation_bytes = PPEngine.activation_bytes(workload)
        one_hop = (activation_bytes + activation_bytes) / self.mesh.link_bandwidth
        boundary_times = [one_hop + self.mesh.link_latency] * (pp - 1)
        pipeline = self._pipeline(
            PipelineCostInputs(
                forward=forward,
                backward=backward,
                comm=boundary_times,
                num_microbatches=num_microbatches,
            )
        )
        return EvaluationResult(
            iteration_time=pipeline.iteration_time,
            useful_flops=useful_flops,
            recompute_flops=recompute_flops,
            bubble_fraction=pipeline.bubble_fraction,
            tp_comm_time=tp_comm_total,
            pp_comm_time=sum(boundary_times) * num_microbatches,
            plan_label=plan.label(),
            system_label=self.wafer.name,
        )

    def _evaluate_uncached(
        self, workload: TrainingWorkload, plan: TrainingPlan
    ) -> EvaluationResult:
        parallelism = plan.parallelism
        tp, pp, dp = parallelism.tp, parallelism.pp, parallelism.dp
        if parallelism.world_size > self.wafer.num_dies:
            raise ValueError(
                f"plan needs {parallelism.world_size} dies but the wafer has "
                f"{self.wafer.num_dies}"
            )
        num_microbatches = workload.num_microbatches(dp)
        placement = plan.placement or self.default_placement(plan)

        # ---------------------------------------------------------------- memory check
        footprints = self.stage_memory(workload, plan, num_microbatches)
        capacity = self.wafer.die.dram_capacity
        memory_model = self._memory_model(workload)
        offload_traffic_bytes = 0.0
        if plan.offload_to_host:
            # Evicted checkpoints cross the host link twice per micro-batch (write on the
            # forward pass, read back for the backward pass).
            for stage, footprint in enumerate(footprints):
                overflow = max(0.0, footprint - capacity)
                if overflow == 0.0:
                    continue
                retained = memory_model.retained_microbatches(stage, pp, num_microbatches)
                offload_traffic_bytes += 2.0 * overflow / max(1, retained) * num_microbatches
            footprints = [min(f, capacity) for f in footprints]
        oom = any(f > capacity * 1.001 for f in footprints)
        if oom:
            return EvaluationResult.out_of_memory(plan.label(), self.wafer.name)

        # ---------------------------------------------------------------- stage times
        recompute = plan.recompute if plan.recompute.num_stages == pp else RecomputeConfig.none(pp)
        forward, backward, tp_comm_total, useful_flops, recompute_flops = self._stage_times(
            workload, plan, placement, recompute, num_microbatches
        )

        # ---------------------------------------------------------------- inter-stage comm
        pp_engine = self._pp_engine
        activation_bytes = PPEngine.activation_bytes(workload)
        microbatch_dram_time = activation_bytes / self.wafer.die.dram_bandwidth
        comm_plan = pp_engine.plan(
            placement,
            activation_bytes,
            mem_pairs=plan.mem_pairs,
            microbatch_dram_time=microbatch_dram_time,
        )
        boundary_times = list(comm_plan.boundary_times) or [0.0] * max(0, pp - 1)

        # ---------------------------------------------------------------- pipeline makespan
        pipeline = self._pipeline(
            PipelineCostInputs(
                forward=forward,
                backward=backward,
                comm=boundary_times,
                num_microbatches=num_microbatches,
            )
        )
        iteration_time = pipeline.iteration_time
        iteration_time += comm_plan.balance_exposed_time

        # Data-parallel gradient all-reduce (only when DP > 1 on the wafer).
        if dp > 1:
            link = AlphaBetaLink(self.wafer.die.d2d_link_bandwidth, self.wafer.die.d2d_latency)
            grad_bytes = workload.model.num_parameters * 2.0 / (tp * pp)
            iteration_time += CollectiveModel(link, dp).ring_all_reduce(
                grad_bytes, bidirectional=True
            )

        # Host offloading penalty (Fig. 6b): evicted checkpoints cross the host link for
        # every micro-batch, and most of the transfer is exposed.
        if plan.offload_to_host and offload_traffic_bytes > 0:
            transfer = offload_traffic_bytes / self.wafer.host_bandwidth
            iteration_time += transfer * (1.0 - self.OFFLOAD_OVERLAP)

        # ---------------------------------------------------------------- utilisation
        busy_dies = tp * pp * dp
        compute_util = 0.0
        if iteration_time > 0 and not math.isinf(iteration_time):
            compute_util = (useful_flops + recompute_flops) / (
                self.wafer.die.flops_fp16 * busy_dies * iteration_time
            )
        dram_util = sum(min(f, capacity) for f in footprints) / (capacity * pp)
        d2d_util = comm_plan.link_utilization

        return EvaluationResult(
            iteration_time=iteration_time,
            useful_flops=useful_flops,
            recompute_flops=recompute_flops,
            oom=False,
            bubble_fraction=pipeline.bubble_fraction,
            tp_comm_time=tp_comm_total,
            pp_comm_time=sum(boundary_times) * num_microbatches,
            balance_exposed_time=comm_plan.balance_exposed_time,
            stage_memory_bytes=tuple(footprints),
            dram_utilization=min(1.0, dram_util),
            d2d_utilization=d2d_util,
            compute_utilization=min(1.0, compute_util),
            plan_label=plan.label(),
            system_label=self.wafer.name,
        )
