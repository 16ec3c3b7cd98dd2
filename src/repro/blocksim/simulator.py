"""BlockSim: block-graph simulation with global-LDS residency tracking.

Executes a workload DAG of :class:`~repro.blocksim.blocks.BlockInstance`
nodes.  With cNoC enabled, producer outputs are registered in the global
LDS and consumers whose operands are still resident skip the DRAM fetch;
LABS reorders the schedule so those hits actually happen and groups blocks
that share switching keys.
"""

from __future__ import annotations

from typing import Any

from repro import dag
from repro.fhe.params import CkksParameters
from repro.gme.cnoc import ConcentratedTorus, GlobalLds
from repro.gme.features import FeatureSet
from repro.gme.labs import LabsScheduler
from repro.gpusim.config import GpuConfig, mi100

from .analytical import AnalyticalTimingModel, BlockTiming
from .blocks import BlockCost, BlockCostModel, BlockInstance, BlockType
from .metrics import WorkloadMetrics


def make_block_node(graph: dag.DiGraph, instance: BlockInstance) -> str:
    """Insert a block instance as a graph node; returns its id."""
    graph.add_node(instance.block_id, block=instance)
    return instance.block_id


class BlockGraphSimulator:
    """Simulates one workload DAG under one feature configuration."""

    def __init__(self, features: FeatureSet,
                 params: CkksParameters | None = None,
                 config: GpuConfig | None = None,
                 seed: int = 2023):
        self.features = features
        self.params = params or CkksParameters.paper()
        self.config = config or mi100()
        self.cost_model = BlockCostModel(self.params)
        self.timing = AnalyticalTimingModel(features, self.config)
        self.seed = seed
        self.torus: ConcentratedTorus | None = None
        self.gas: GlobalLds | None = None
        if features.cnoc:
            self.torus = ConcentratedTorus(self.config)
            self.gas = GlobalLds(self.torus, lds_scale=features.lds_scale)

    # -- scheduling ---------------------------------------------------------

    def _order(self, graph: dag.DiGraph) -> list[Any]:
        """The block issue order: a function of the graph, LABS on or
        off, the router count and the seed — of nothing else in the
        feature set, so one order serves a whole sweep (:meth:`run`'s
        ``order``).  Only the ordering half of LABS runs here; no cycle
        depends on where the annealer places the parts."""
        if self.features.labs:
            def key_of(node: Any) -> Any:
                return graph.nodes[node]["block"].metadata.get("key")
            scheduler = LabsScheduler(
                self.torus or ConcentratedTorus(self.config),
                seed=self.seed)
            return scheduler.order(graph, key_of=key_of)[0]
        # Greedy baseline: plain topological order (stream issue order).
        return list(dag.topological_sort(graph))

    # -- execution ---------------------------------------------------------

    def run(self, graph: dag.DiGraph, name: str = "workload",
            record: list[dict[str, Any]] | None = None,
            order: list[Any] | None = None) -> WorkloadMetrics:
        """Execute the DAG; returns aggregate metrics.

        ``order`` is a block order :meth:`_order` produced for this graph
        (a plan keeps one per LABS setting); without it the run computes
        its own.

        When ``record`` is a list, one dict per executed block is
        appended to it — block id/type/level, the op id it lowered from,
        its start/end cycle under serial block issue, and the timing
        lanes.  The records decompose exactly the cycles
        this run accumulates, which is what
        :meth:`repro.engine.ExecutablePlan.profile` consumes.
        """
        if order is None:
            order = self._order(graph)
        metrics = WorkloadMetrics(name=name, config=self.config)
        gas = self.gas
        if gas is not None:
            gas.clear()
        labs = self.features.labs
        # A run prices each case once: a workload has thousands of blocks
        # and a few hundred distinct (type, level, repeat, resident bytes,
        # key grouped) cases.
        priced: dict[tuple[BlockType, int, int, float, bool],
                     tuple[BlockCost, BlockTiming]] = {}
        # Keys whose slices are still live in the global LDS: LABS keeps a
        # window of recently-streamed keys resident (section 3.3).  The
        # window size is a FeatureSet knob so ablations can sweep it.
        window = self.features.key_residency_window
        recent_keys: list[str] = []
        previous_node = None
        for node in order:
            instance: BlockInstance = graph.nodes[node]["block"]
            # Inter-block residency: the baseline dispatcher "forces cache
            # flushes when transitioning from one block to the next"
            # (section 3.3), so without LABS only the immediately preceding
            # block's output survives in the LDS (stream locality).
            resident_bytes = 0.0
            if gas is not None:
                for pred, edge in graph.pred[node].items():
                    edge_bytes = edge.get("bytes", 0.0)
                    survives = gas.is_resident(pred) if labs \
                        else pred == previous_node
                    if survives:
                        hit = min(edge_bytes,
                                  gas.resident_bytes(pred, edge_bytes))
                        resident_bytes += hit
                        metrics.resident_hits += 1
                        metrics.resident_hit_bytes += hit
            key_id = instance.metadata.get("key")
            labs_grouped = key_id is not None and key_id in recent_keys
            if key_id is not None:
                recent_keys.append(key_id)
                if len(recent_keys) > window:
                    recent_keys.pop(0)
            case = (instance.block_type, instance.level, instance.repeat,
                    resident_bytes, labs_grouped)
            if case not in priced:
                cost = self.cost_model.cost(instance.block_type,
                                            instance.level)
                if instance.repeat != 1:
                    cost = cost.scaled(instance.repeat)
                priced[case] = cost, self.timing.block_timing(
                    cost,
                    resident_input_bytes=resident_bytes,
                    resident_output=gas is not None,
                    labs_grouped=labs_grouped,
                )
            cost, timing = priced[case]
            if gas is not None and cost.output_bytes:
                # Partial residency: store what fits; the remainder would
                # stream from DRAM on consumption.
                gas.put(node, min(cost.output_bytes, gas.capacity_bytes))
            if record is not None:
                record.append({
                    "workload": name,
                    "block": node,
                    "type": instance.block_type.value,
                    "level": instance.level,
                    "op_id": instance.metadata.get("op_id"),
                    "start_cycle": metrics.cycles,
                    "end_cycle": metrics.cycles + timing.total_cycles,
                    "compute_cycles": timing.compute_cycles,
                    "dram_cycles": timing.dram_cycles,
                    "onchip_cycles": timing.onchip_cycles,
                    "dram_bytes": timing.dram_bytes,
                })
            metrics.cycles += timing.total_cycles
            metrics.compute_cycles += timing.compute_cycles
            metrics.dram_bytes += timing.dram_bytes
            metrics.noc_bytes += timing.noc_bytes
            metrics.lds_bytes += max(
                0.0, cost.intermediate_bytes - timing.noc_bytes)
            metrics.instructions += timing.instructions
            metrics.blocks += 1
            previous_node = node
        return metrics

    def run_blocks(self, instances: list[BlockInstance],
                   name: str = "chain") -> WorkloadMetrics:
        """Convenience: run a linear chain of blocks."""
        graph = dag.DiGraph()
        prev = None
        for instance in instances:
            make_block_node(graph, instance)
            if prev is not None:
                out_bytes = self.cost_model.params.ciphertext_bytes(
                    graph.nodes[prev]["block"].level)
                graph.add_edge(prev, instance.block_id, bytes=out_bytes)
            prev = instance.block_id
        return self.run(graph, name=name)
