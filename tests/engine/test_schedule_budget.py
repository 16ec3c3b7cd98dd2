"""How much scheduling and pricing a plan's simulate / profile sweep does.

A block order is a function of the block table, LABS on or off, the
router count and a fixed seed; a block cost of ``(type, level)`` and the
parameters.  A feature-set sweep over one plan changes none of them, so
the sweep below — the five cumulative configs, full GME at two more LDS
sizes, a profile, a repeated simulate — may partition the table once,
ask for its topological order once (made when the plan's DAG was
checked), build no block table (lowering wrote the plan's), never map
parts to routers (no cycle depends on where they land), never deep-copy
a block, and price each block kind once per run.  Before the plan owned
its orders the same sweep made 2 partitions, 2 ``map_parts`` calls, 4
topological sorts and 6 500 deep copies.

A plan is built, checked, scheduled, simulated, saved and loaded over
the table alone: the whole offline path makes no ``DiGraph`` and no
``BlockInstance``, and one table per plan.
"""

import copy

import pytest

import pins
from repro import dag, engine
from repro.blocksim import BlockTable, blocks
from repro.blocksim.blocks import BlockCostModel
from repro.fhe.params import CkksParameters
from repro.gme import (LabsScheduler, MultilevelPartitioner,
                       SimulatedAnnealingMapper)
from repro.gme.features import GME_FULL, cumulative_configs

#: Simulator runs of :func:`sweep`: seven simulates and one profile;
#: the closing ``simulate(GME_FULL)`` is served from the plan's cache.
SWEEP_RUNS = 8


class Calls:
    """Counts calls to ``owner.name`` (``owner[name]`` for a dict)."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        original = owner[name] if isinstance(owner, dict) \
            else getattr(owner, name)

        def counting(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, counting)
        else:
            monkeypatch.setattr(owner, name, counting)


class Budget:
    """Counting wrappers around everything the sweep should do once."""

    def __init__(self, monkeypatch):
        self.partitions = Calls(monkeypatch, MultilevelPartitioner,
                                "partition")
        self.mappings = Calls(monkeypatch, SimulatedAnnealingMapper,
                              "map_parts")
        self.sorts = Calls(monkeypatch, BlockTable, "topological_order")
        self.graph_sorts = Calls(monkeypatch, dag, "topological_sort")
        self.copies = Calls(monkeypatch, copy, "deepcopy")
        self.tables = Calls(monkeypatch, BlockTable, "__init__")
        self.builders = [Calls(monkeypatch, BlockCostModel._BUILDERS, kind)
                         for kind in list(BlockCostModel._BUILDERS)]

    @property
    def deep_copies(self) -> int:
        return self.copies.count

    @property
    def builder_calls(self) -> int:
        return sum(calls.count for calls in self.builders)


@pytest.fixture
def plan():
    engine.clear_plan_cache()
    return engine.compile_workload("helr", CkksParameters.test())


def sweep(plan):
    for features in cumulative_configs() + [GME_FULL.with_lds_scale(2.0),
                                            GME_FULL.with_lds_scale(4.0)]:
        plan.simulate(features)
    profile = plan.profile(GME_FULL)
    assert profile.total_cycles == plan.simulate(GME_FULL).cycles


def block_kinds(plan) -> int:
    return len({row[:2] for row in plan.table.rows})


def test_a_sweep_schedules_once_and_prices_each_kind_once(plan,
                                                          monkeypatch):
    budget = Budget(monkeypatch)
    sweep(plan)
    assert budget.partitions.count == 1
    assert budget.mappings.count == 0
    assert budget.sorts.count == 1
    assert budget.graph_sorts.count == 0
    assert budget.tables.count == 0
    assert budget.deep_copies == 0
    assert 0 < budget.builder_calls <= SWEEP_RUNS * block_kinds(plan)


def test_a_loaded_plan_pays_its_own_partition(plan, monkeypatch, tmp_path):
    sweep(plan)
    path = str(tmp_path / "helr.rpa")
    plan.save(path)
    budget = Budget(monkeypatch)
    loaded = engine.load_plan(path)
    assert loaded.simulate(GME_FULL).cycles == \
        plan.simulate(GME_FULL).cycles
    loaded.profile(GME_FULL)
    assert budget.partitions.count == 1
    assert budget.tables.count == 1
    assert budget.mappings.count == 0
    assert budget.deep_copies == 0


def test_a_full_schedule_still_maps_the_parts(plan, monkeypatch):
    budget = Budget(monkeypatch)
    schedule = LabsScheduler().schedule(plan.graph)
    assert budget.partitions.count == 1
    assert budget.mappings.count == 1
    assert budget.deep_copies == 0
    assert set(schedule.block_router) == set(plan.graph.nodes)


class Made:
    """Counts the instances of ``cls`` made while it is installed."""

    def __init__(self, monkeypatch, cls):
        self.count = 0
        original = cls.__init__

        def counting(instance, *args, **kwargs):
            self.count += 1
            original(instance, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)


def test_the_offline_path_makes_no_graph_and_one_table_per_plan(
        monkeypatch, tmp_path):
    """compile -> lint -> simulate x5 -> profile -> save -> load ->
    simulate, as ``bench``'s ``offline_paper`` pass walks a plan: the
    block DAG is a table from lowering to the last run.  The graph a
    caller asks for afterwards is the one lowering used to build."""
    engine.clear_plan_cache()
    graphs = Made(monkeypatch, dag.DiGraph)
    instances = Made(monkeypatch, blocks.BlockInstance)
    tables = Made(monkeypatch, BlockTable)
    plan = engine.compile_workload("helr", CkksParameters.test())
    plan.lint().raise_for_errors()
    for features in cumulative_configs():
        plan.simulate(features)
    profile = plan.profile(GME_FULL)
    path = str(tmp_path / "helr.rpa")
    plan.save(path)
    loaded = engine.load_plan(path)
    assert loaded.simulate(GME_FULL).cycles == profile.total_cycles
    assert repr(loaded).startswith(f"ExecutablePlan('helr', "
                                   f"{plan.num_blocks} blocks")
    assert (graphs.count, instances.count, tables.count) == (0, 0, 2)
    assert pins.graph_digest(plan.graph) \
        == pins.expected("dag", "helr", "test")
    assert (graphs.count, instances.count) == (1, plan.num_blocks)
