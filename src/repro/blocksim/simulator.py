"""BlockSim: block-graph simulation with global-LDS residency tracking.

Executes a workload DAG of blocks.  With cNoC enabled, producer outputs
are registered in the global LDS and consumers whose operands are still
resident skip the DRAM fetch; LABS reorders the schedule so those hits
actually happen and groups blocks that share switching keys.

A run walks a :class:`BlockTable`: one tuple row per block (type, level,
repeat, key, op id) and each block's predecessors as (row, edge bytes)
pairs, which lowering writes once per plan; a hand-built graph of
:class:`~repro.blocksim.blocks.BlockInstance` nodes is read into one.  A
profiling run folds each block into its op's row as it goes
(``per_op``); no record is made per block.
"""

from __future__ import annotations

from typing import Any

from repro.dag import DiGraph
from repro.fhe.params import CkksParameters
from repro.gme.cnoc import ConcentratedTorus, GlobalLds
from repro.gme.features import FeatureSet
from repro.gme.labs import LabsScheduler
from repro.gpusim.config import GpuConfig, mi100

from .analytical import AnalyticalTimingModel, BlockTiming
from .blocks import BlockCostModel, BlockInstance, BlockType
from .metrics import WorkloadMetrics
from .table import BlockTable


def make_block_node(graph: DiGraph, instance: BlockInstance) -> str:
    """Insert a block instance as a graph node; returns its id."""
    graph.add_node(instance.block_id, block=instance)
    return instance.block_id


#: What one block of a (type, level, repeat, resident bytes, key grouped)
#: case adds to a run: total / compute / DRAM / on-chip cycles, DRAM /
#: NoC / LDS bytes, instructions, and the bytes it leaves in the global
#: LDS (``None``: it puts nothing there).
_Case = tuple[float, float, float, float, float, float, float, float,
              float | None]


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

    def _order(self, table: BlockTable) -> list[int]:
        """The block issue order, as rows: a function of the table, LABS
        on or off, the router count and the seed — of nothing else in
        the feature set, so one order serves a whole sweep (:meth:`run`'s
        ``order``).  Only the ordering half of LABS runs here; no cycle
        depends on where the annealer places the parts."""
        if self.features.labs:
            scheduler = LabsScheduler(
                self.torus or ConcentratedTorus(self.config),
                seed=self.seed)
            return scheduler.order(table)[0]
        # Greedy baseline: plain topological order (stream issue order).
        return table.topological_order()

    # -- execution ---------------------------------------------------------

    def run(self, blocks: DiGraph | BlockTable, name: str = "workload",
            order: list[int] | None = None,
            per_op: dict[Any, list[float]] | None = None,
            ) -> WorkloadMetrics:
        """Execute a block DAG (or its :class:`BlockTable`); returns
        aggregate metrics.

        ``order`` is a block order :meth:`_order` produced for this table
        (a plan keeps one per LABS setting); without it the run computes
        its own.

        When ``per_op`` is a dict, the run folds each executed block
        into its op's row there: ``per_op[op_id]`` is ``[blocks, cycles,
        compute cycles, DRAM cycles, on-chip cycles, DRAM bytes]``, a
        block's cycles taken as its end cycle minus its start cycle under
        serial block issue.  The rows decompose exactly the cycles this
        run accumulates, which is what
        :meth:`repro.engine.ExecutablePlan.profile` consumes.
        """
        table = blocks if isinstance(blocks, BlockTable) \
            else BlockTable(blocks)
        if order is None:
            order = self._order(table)
        metrics = WorkloadMetrics(name=name, config=self.config)
        gas = self.gas
        if gas is not None:
            gas.clear()
        labs = self.features.labs
        # A run prices each case once: a workload has thousands of blocks
        # and a few hundred distinct (type, level, repeat, resident bytes,
        # key grouped) cases.
        priced: dict[tuple[BlockType, int, int, float, bool], _Case] = {}
        # Keys whose slices are still live in the global LDS: LABS keeps a
        # window of recently-streamed keys resident (section 3.3).  The
        # window size is a FeatureSet knob so ablations can sweep it.
        window = self.features.key_residency_window
        recent_keys: list[str] = []
        cycles = compute_cycles = dram_bytes = noc_bytes = lds_bytes = \
            instructions = resident_hit_bytes = 0.0
        resident_hits = 0
        previous = -1
        rows, preds = table.rows, table.preds
        for node in order:
            block_type, level, repeat, key_id, op_id = rows[node]
            # Inter-block residency: the baseline dispatcher "forces cache
            # flushes when transitioning from one block to the next"
            # (section 3.3), so without LABS only the immediately preceding
            # block's output survives in the LDS (stream locality).
            resident_bytes = 0.0
            if gas is not None:
                for pred, edge_bytes in preds[node]:
                    survives = gas.is_resident(pred) if labs \
                        else pred == previous
                    if survives:
                        hit = min(edge_bytes,
                                  gas.resident_bytes(pred, edge_bytes))
                        resident_bytes += hit
                        resident_hits += 1
                        resident_hit_bytes += hit
            labs_grouped = key_id is not None and key_id in recent_keys
            if key_id is not None:
                recent_keys.append(key_id)
                if len(recent_keys) > window:
                    recent_keys.pop(0)
            case = (block_type, level, repeat, resident_bytes, labs_grouped)
            lanes = priced.get(case)
            if lanes is None:
                lanes = priced[case] = self._price(
                    block_type, level, repeat, resident_bytes,
                    labs_grouped)
            total, compute, dram, onchip, dram_b, noc_b, lds_b, instr, \
                stored = lanes
            if stored is not None and gas is not None:
                gas.put(node, stored)
            if per_op is not None:
                row = per_op.get(op_id)
                if row is None:
                    row = per_op[op_id] = [0, 0.0, 0.0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += (cycles + total) - cycles
                row[2] += compute
                row[3] += dram
                row[4] += onchip
                row[5] += dram_b
            cycles += total
            compute_cycles += compute
            dram_bytes += dram_b
            noc_bytes += noc_b
            lds_bytes += lds_b
            instructions += instr
            previous = node
        metrics.cycles = cycles
        metrics.compute_cycles = compute_cycles
        metrics.dram_bytes = dram_bytes
        metrics.noc_bytes = noc_bytes
        metrics.lds_bytes = lds_bytes
        metrics.instructions = instructions
        metrics.blocks = len(order)
        metrics.resident_hits = resident_hits
        metrics.resident_hit_bytes = resident_hit_bytes
        return metrics

    def _price(self, block_type: BlockType, level: int, repeat: int,
               resident_bytes: float, labs_grouped: bool) -> _Case:
        """What one block of a case adds to a run (:meth:`run`'s
        ``priced`` entry)."""
        gas = self.gas
        cost = self.cost_model.cost(block_type, level)
        if repeat != 1:
            cost = cost.scaled(repeat)
        timing: BlockTiming = self.timing.block_timing(
            cost,
            resident_input_bytes=resident_bytes,
            resident_output=gas is not None,
            labs_grouped=labs_grouped,
        )
        # Partial residency: store what fits; the remainder would stream
        # from DRAM on consumption.
        stored = min(cost.output_bytes, gas.capacity_bytes) \
            if gas is not None and cost.output_bytes else None
        return (timing.total_cycles, timing.compute_cycles,
                timing.dram_cycles, timing.onchip_cycles,
                timing.dram_bytes, timing.noc_bytes,
                max(0.0, cost.intermediate_bytes - timing.noc_bytes),
                timing.instructions, stored)

    def run_blocks(self, instances: list[BlockInstance],
                   name: str = "chain") -> WorkloadMetrics:
        """Convenience: run a linear chain of blocks."""
        graph = DiGraph()
        prev = None
        for instance in instances:
            make_block_node(graph, instance)
            if prev is not None:
                out_bytes = self.cost_model.params.ciphertext_bytes(
                    graph.nodes[prev]["block"].level)
                graph.add_edge(prev, instance.block_id, bytes=out_bytes)
            prev = instance.block_id
        return self.run(graph, name=name)
