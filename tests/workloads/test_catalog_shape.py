"""Catalog workload DAGs: invariants + frozen shape at paper parameters.

``FROZEN_SHAPE`` and ``FROZEN_ROTATION_KEYS`` were recorded from the
hand-built DAG builders on the last commit that had them (their graphs
and the compiled programs' graphs agreed per block type and level); the
compiled catalog must keep reproducing those node / edge counts and
per-(block type, level) histograms exactly.
"""

from collections import Counter

import pytest

from repro.blocksim.blocks import BlockType
from repro.fhe.params import CkksParameters
from repro.trace import assert_workload_dag
from repro.workloads import (build_workload, compile_workload,
                             workload_names, workload_plans)

WORKLOADS = ("boot", "helr", "resnet")

#: name -> (nodes, edges, {block type: {level: count}}).
FROZEN_SHAPE = {
    "boot": (380, 484, {
        BlockType.HE_ADD: {10: 13, 11: 13, 12: 13, 13: 14, 20: 13,
                           21: 13, 22: 13, 23: 13},
        BlockType.HE_MULT: {13: 4, 14: 6, 15: 6, 16: 6, 17: 6, 18: 6,
                            19: 6},
        BlockType.HE_RESCALE: {10: 1, 11: 1, 12: 1, 13: 1, 14: 2, 15: 2,
                               16: 2, 17: 2, 18: 2, 19: 2, 20: 1, 21: 1,
                               22: 1, 23: 1},
        BlockType.HE_ROTATE: {10: 10, 11: 10, 12: 10, 13: 10, 19: 2,
                              20: 10, 21: 10, 22: 10, 23: 10},
        BlockType.MOD_RAISE: {23: 1},
        BlockType.POLY_MULT: {10: 14, 11: 14, 12: 14, 13: 14, 20: 14,
                              21: 14, 22: 14, 23: 14},
        BlockType.SCALAR_MULT: {19: 20},
    }),
    "helr": (591, 725, {
        BlockType.HE_ADD: {2: 4, 3: 1, 5: 4, 6: 1, 8: 4, 10: 13, 11: 18,
                           12: 13, 13: 14, 14: 5, 17: 5, 20: 14, 21: 13,
                           22: 13, 23: 13},
        BlockType.HE_MULT: {3: 4, 4: 5, 5: 1, 6: 4, 7: 5, 8: 1, 9: 4,
                            10: 4, 12: 5, 13: 9, 14: 6, 15: 11, 16: 11,
                            17: 6, 18: 11, 19: 11, 21: 1, 22: 1},
        BlockType.HE_RESCALE: {2: 4, 3: 1, 5: 4, 6: 1, 8: 4, 10: 1,
                               11: 6, 12: 1, 13: 1, 14: 7, 15: 2, 16: 2,
                               17: 7, 18: 2, 19: 2, 20: 2, 21: 1, 22: 1,
                               23: 1},
        BlockType.HE_ROTATE: {4: 8, 5: 2, 7: 8, 8: 2, 10: 18, 11: 10,
                              12: 10, 13: 20, 16: 10, 19: 12, 20: 10,
                              21: 10, 22: 12, 23: 10},
        BlockType.MOD_RAISE: {23: 1},
        BlockType.POLY_MULT: {2: 4, 3: 1, 5: 4, 6: 1, 8: 4, 10: 14,
                              11: 19, 12: 14, 13: 14, 14: 5, 17: 5,
                              20: 15, 21: 14, 22: 14, 23: 14},
        BlockType.SCALAR_ADD: {22: 1},
        BlockType.SCALAR_MULT: {19: 20},
    }),
    "resnet": (7775, 9873, {
        BlockType.HE_ADD: {8: 198, 10: 234, 11: 234, 12: 234, 13: 252,
                           20: 234, 21: 234, 22: 245, 23: 234},
        BlockType.HE_MULT: {6: 1, 7: 18, 13: 72, 14: 108, 15: 108,
                            16: 108, 17: 108, 18: 108, 19: 108, 21: 1},
        BlockType.HE_RESCALE: {6: 1, 7: 18, 10: 18, 11: 18, 12: 18,
                               13: 18, 14: 36, 15: 36, 16: 36, 17: 36,
                               18: 36, 19: 36, 20: 18, 21: 19, 22: 18,
                               23: 18},
        BlockType.HE_ROTATE: {6: 1, 8: 432, 10: 180, 11: 180, 12: 180,
                              13: 180, 19: 36, 20: 180, 21: 180, 22: 204,
                              23: 180},
        BlockType.MOD_RAISE: {23: 18},
        BlockType.POLY_MULT: {8: 216, 10: 252, 11: 252, 12: 252, 13: 252,
                              20: 252, 21: 252, 22: 264, 23: 252},
        BlockType.SCALAR_ADD: {22: 1},
        BlockType.SCALAR_MULT: {19: 360},
    }),
}

#: The hand-built builders' rotation-key annotations: how many rotations
#: shared each key in the bootstrap DAG (sorted, ids ignored), and the
#: number of distinct rotation keys per application workload.
FROZEN_BOOT_KEY_PROFILE = [2, 4, 4, 4, 8, 12, 12, 16, 20]
FROZEN_DISTINCT_KEYS = {"helr": 11, "resnet": 19}


@pytest.fixture(scope="module")
def params():
    return CkksParameters.paper()


@pytest.fixture(scope="module")
def graphs(params):
    return {name: build_workload(name, params) for name in WORKLOADS}


def _type_counts(graph):
    return Counter(d["block"].block_type
                   for _, d in graph.nodes(data=True))


def _rotation_keys(graph):
    return Counter(d["block"].metadata["key"]
                   for _, d in graph.nodes(data=True)
                   if d["block"].block_type is BlockType.HE_ROTATE)


class TestDagInvariants:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_invariants_hold(self, graphs, params, name):
        assert_workload_dag(graphs[name], params=params,
                            require_keyswitch_meta=True)


class TestFrozenShape:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_node_and_edge_counts(self, graphs, name):
        nodes, edges, _ = FROZEN_SHAPE[name]
        assert graphs[name].number_of_nodes() == nodes
        assert graphs[name].number_of_edges() == edges

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_level_histograms_equal(self, graphs, name):
        """Levels drive block costs; the (type, level) profile is
        pinned, and no block folds a repeat count."""
        histogram: dict = {}
        for _, data in graphs[name].nodes(data=True):
            block = data["block"]
            assert block.repeat == 1
            levels = histogram.setdefault(block.block_type, Counter())
            levels[block.level] += 1
        assert histogram == FROZEN_SHAPE[name][2], name

    def test_bootstrap_golden_counts(self, graphs):
        """The bootstrap DAG's per-type totals, with where they come
        from."""
        assert _type_counts(graphs["boot"]) == {
            BlockType.MOD_RAISE: 1,
            BlockType.HE_ROTATE: 82,     # 8x10 BSGS + 2 conjugations
            BlockType.POLY_MULT: 112,    # 8 stages x radix 14
            BlockType.HE_ADD: 105,       # 8x13 accumulations + join
            BlockType.HE_RESCALE: 20,    # 8 stages + 12 EvalMod
            BlockType.SCALAR_MULT: 20,   # EvalMod normalizations
            BlockType.HE_MULT: 40,       # EvalMod square chains
        }

    def test_boot_key_multiplicity_profile_matches(self, graphs):
        """LABS groups on key ids: the key-reuse *profile* (how many
        rotations share each key, ignoring the id strings) of the
        bootstrap DAG is pinned.

        (HELR/ResNet share real rotation amounts between the
        application loop and the embedded bootstraps — e.g. rot-1 is
        both a reduction step and a BSGS baby step — where the frozen
        annotations used disjoint synthetic namespaces, so only the
        distinct-key *count* is compared there.)"""
        assert sorted(_rotation_keys(graphs["boot"]).values()) \
            == FROZEN_BOOT_KEY_PROFILE

    @pytest.mark.parametrize("name", ["helr", "resnet"])
    def test_distinct_key_count_close_to_frozen(self, graphs, name):
        distinct = len(_rotation_keys(graphs[name]))
        assert abs(distinct - FROZEN_DISTINCT_KEYS[name]) <= 4, distinct


class TestRegistry:
    def test_names(self):
        assert set(workload_names()) >= set(WORKLOADS)

    def test_plans_are_cached_per_params(self, params):
        """Plan-cache identity: one compile per (program, params)."""
        plans = workload_plans(params)
        again = workload_plans(params)
        for name in WORKLOADS:
            assert plans[name] is again[name]
            assert plans[name] is compile_workload(name, params)

    def test_trace_exposes_keyswitch_shape(self, params):
        plan = compile_workload("boot", params)
        ks = [plan.trace.ops[i] for i in plan.schedule.keyswitch_ops]
        assert ks
        assert all(op.meta["dnum"] == params.dnum for op in ks)

    def test_traced_graphs_at_test_parameters(self):
        """Programs are parameter-generic: the tiny-parameter trace
        (CI smoke lane) builds healthy DAGs too."""
        params = CkksParameters.test()
        for name in WORKLOADS:
            graph = build_workload(name, params)
            assert_workload_dag(graph, params=params,
                                require_keyswitch_meta=True)
            assert graph.number_of_nodes() > 50


class TestDeprecationShimsRemoved:
    """The one-release shims (trace_workload/workload_graphs) are gone;
    the engine surface is the only entry point."""

    def test_shims_are_gone(self):
        import repro.workloads as wl
        import repro.workloads.registry as registry
        for module in (wl, registry):
            assert not hasattr(module, "trace_workload")
            assert not hasattr(module, "workload_graphs")

    def test_replacement_surface_covers_shim_uses(self, params):
        trace = compile_workload("boot", params).trace
        assert len(trace) > 0
        plans = workload_plans()
        assert set(plans) >= set(WORKLOADS)
        assert all(plan.graph.number_of_nodes() > 0
                   for plan in plans.values())
