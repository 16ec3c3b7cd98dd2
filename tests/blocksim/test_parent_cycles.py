"""Simulated statistics pinned against the commit before the offline-path
rewrite.

Every other test of the block simulator and of LABS asserts a *relation*
(GME beats the baseline, the order is topological, Phi is below the total
traffic); none pins a number.  A change meant only to make the simulator
or the scheduler faster must leave every statistic it reports identical,
so the values below were recorded at commit 3a6bb14 — deep-copying
``to_undirected()`` partitioner, annealer on the simulate path, one
``BlockCost`` per block — by running this very file
(``python tests/blocksim/test_parent_cycles.py`` prints the three tables).
Floats are compared by ``repr``: bit-identical or not at all.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from repro.fhe.params import CkksParameters
from repro.gme import LabsScheduler, MultilevelPartitioner
from repro.gme.features import cumulative_configs
from repro.workloads import compile_workload

WORKLOADS = ("boot", "helr", "resnet")

#: (workload, config) -> repr of cycles, compute_cycles, dram_bytes,
#: noc_bytes, lds_bytes, instructions, resident_hit_bytes, then the
#: integers resident_hits and blocks.
PARENT_METRICS = {
    ("boot", "Baseline"): (
        "637499719.7594503",
        "46374066.991869755",
        "70649885491.19997",
        "0.0",
        "24506302464.0",
        "4563208192.0",
        "0.0",
        0,
        380,
    ),
    ("boot", "cNoC"): (
        "74178715.14501792",
        "46374066.991869755",
        "13719164116.008972",
        "13149683712.0",
        "12119457792.0",
        "4563208192.0",
        "896532480.0",
        114,
        380,
    ),
    ("boot", "cNoC+MOD"): (
        "66618178.06810505",
        "28252617.88617887",
        "13719164116.008972",
        "13149683712.0",
        "12119457792.0",
        "2780057600.0",
        "896532480.0",
        114,
        380,
    ),
    ("boot", "cNoC+MOD+WMAC"): (
        "61236317.09946103",
        "11120619.186991876",
        "13719164116.008972",
        "13149683712.0",
        "12119457792.0",
        "1094268928.0",
        "896532480.0",
        114,
        380,
    ),
    ("boot", "cNoC+MOD+WMAC+LABS"): (
        "52875028.16465773",
        "11120619.186991872",
        "12102966077.030409",
        "13684457472.0",
        "11726241792.0",
        "1094268928.0",
        "1431306240.0",
        182,
        380,
    ),
    ("helr", "Baseline"): (
        "1082956363.6568346",
        "78767089.43089417",
        "117583626240.00012",
        "0.0",
        "42616848384.0",
        "7750681600.0",
        "0.0",
        0,
        591,
    ),
    ("helr", "cNoC"): (
        "123093547.69148365",
        "78767089.43089417",
        "19811511026.31936",
        "23653662720.0",
        "20132610048.0",
        "7750681600.0",
        "2352218112.0",
        325,
        591,
    ),
    ("helr", "cNoC+MOD"): (
        "110240930.18052024",
        "48105365.8536586",
        "19811511026.31936",
        "23653662720.0",
        "20132610048.0",
        "4733568000.0",
        "2352218112.0",
        325,
        591,
    ),
    ("helr", "cNoC+MOD+WMAC"): (
        "100966553.48647961",
        "18965135.609756086",
        "19811511026.31936",
        "23653662720.0",
        "20132610048.0",
        "1866169344.0",
        "2352218112.0",
        325,
        591,
    ),
    ("helr", "cNoC+MOD+WMAC+LABS"): (
        "83524264.78843684",
        "18965135.609756086",
        "16942825881.99322",
        "24172707840.0",
        "19747258368.0",
        "1866169344.0",
        "2871263232.0",
        391,
        591,
    ),
    ("resnet", "Baseline"): (
        "12888454144.83919",
        "929639680.0000142",
        "1421380671897.6055",
        "0.0",
        "501165342720.0",
        "91476544512.0",
        "0.0",
        0,
        7775,
    ),
    ("resnet", "cNoC"): (
        "1470007728.3466544",
        "929639680.0000142",
        "266387580439.76495",
        "268683091968.0",
        "247707574272.0",
        "91476544512.0",
        "18197643264.0",
        2320,
        7775,
    ),
    ("resnet", "cNoC+MOD"): (
        "1320107542.428462",
        "567126696.5853701",
        "266387580439.76495",
        "268683091968.0",
        "247707574272.0",
        "55805266944.0",
        "18197643264.0",
        2320,
        7775,
    ),
    ("resnet", "cNoC+MOD+WMAC"): (
        "1212492791.8533723",
        "223459538.21137965",
        "266387580439.76495",
        "268683091968.0",
        "247707574272.0",
        "21988418560.0",
        "18197643264.0",
        2320,
        7775,
    ),
    ("resnet", "cNoC+MOD+WMAC+LABS"): (
        "1043445190.0682693",
        "223459538.21137965",
        "242907264580.5863",
        "268643770368.0",
        "247746895872.0",
        "21988418560.0",
        "18158321664.0",
        2315,
        7775,
    ),
}

#: workload -> SHA-256 of block_order (keys grouped as the simulator
#: groups them), of sorted(parts.items()) and of sorted(block_router
#: .items()), then repr of phi, gamma and phi_unpartitioned.
PARENT_SCHEDULES = {
    "boot": (
        "a541897fc693f23951712750eaea51e7cf3c4ab96cdda96f8fd3e75ab3e49182",
        "7440ffefc23d0e78c33808affd2029ddb37d9a24fadbd6f400e65960dc34cb67",
        "65281d6b907233a2afa3da3ce6d6480fec6de51628aff1f9d9c389cd0073b1ac",
        "66.0",
        "70.0",
        "484.0",
    ),
    "helr": (
        "54b02d2bd84c5116cfce06be065249387766baf675f13aaac92c22cce7552d4e",
        "a15acb9bdf2ab09f893e4fd1872333e12d23018a4c4f1997a12c23d8c469be69",
        "3ecc4f70e232fb28c3eed82d46540919fc9d5c524d52a4320dce5b781a6cb81e",
        "22.0",
        "24.0",
        "725.0",
    ),
    "resnet": (
        "aa4aa435dd1e4365d55db09126e79a9628374f98b9b20039ccec5ee8d56c6584",
        "5a093fce061386e00f292a752830639d1941ff85e16315b9dcbdc77a32ceecff",
        "2539741602da0f2da1e48e86741d18a3ede2153c5cf66f3d2f0afa0e88ea8676",
        "23.0",
        "27.0",
        "9873.0",
    ),
}

#: test_labs graph -> SHA-256 of sorted(parts.items()) and repr of phi
#: from ``MultilevelPartitioner(6, seed=11)``.
PARENT_PARTITIONS = {
    "block_dag": (
        "1296472dd838c9101b7e8b02c17f4c359a8443ffa174a6e326588c4ffa95c626",
        "172.0",
    ),
    "clustered": (
        "aa2d2d7e177de74b2a11cd536de86562d4b425731a1facd8f74c2b8a5454627f",
        "2.5",
    ),
}


def _sha(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def _metrics_row(metrics) -> tuple:
    return (repr(metrics.cycles), repr(metrics.compute_cycles),
            repr(metrics.dram_bytes), repr(metrics.noc_bytes),
            repr(metrics.lds_bytes), repr(metrics.instructions),
            repr(metrics.resident_hit_bytes), metrics.resident_hits,
            metrics.blocks)


def _schedule_row(graph) -> tuple:
    def key_of(node):
        return graph.nodes[node]["block"].metadata.get("key")

    schedule = LabsScheduler().schedule(graph, key_of=key_of)
    return (_sha(schedule.block_order), _sha(sorted(schedule.parts.items())),
            _sha(sorted(schedule.block_router.items())), repr(schedule.phi),
            repr(schedule.gamma), repr(schedule.phi_unpartitioned))


def _labs_test_graphs() -> dict:
    """The seeded random graphs of ``tests/gme/test_labs.py``: one
    undirected, one DAG — both kinds of input the partitioner takes."""
    path = pathlib.Path(__file__).parents[1] / "gme" / "test_labs.py"
    spec = importlib.util.spec_from_file_location("_labs_graphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"clustered": module._clustered_graph(seed=5),
            "block_dag": module._block_dag()}


def _partition_row(graph) -> tuple:
    result = MultilevelPartitioner(6, seed=11).partition(graph)
    return (_sha(sorted(result.parts.items())), repr(result.phi))


@pytest.fixture(scope="module")
def plans():
    params = CkksParameters.paper()
    return {name: compile_workload(name, params) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_the_parent_commit(plans, workload):
    for features in cumulative_configs():
        got = _metrics_row(plans[workload].simulate(features))
        assert got == PARENT_METRICS[(workload, features.name)], \
            features.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schedule_matches_the_parent_commit(plans, workload):
    assert _schedule_row(plans[workload].graph) == \
        PARENT_SCHEDULES[workload]


@pytest.mark.parametrize("graph", sorted(PARENT_PARTITIONS))
def test_partition_matches_the_parent_commit(graph):
    assert _partition_row(_labs_test_graphs()[graph]) == \
        PARENT_PARTITIONS[graph]


if __name__ == "__main__":
    import pprint

    compiled = {name: compile_workload(name, CkksParameters.paper())
                for name in WORKLOADS}
    pprint.pprint({(name, features.name):
                   _metrics_row(plan.simulate(features))
                   for name, plan in compiled.items()
                   for features in cumulative_configs()}, width=76)
    pprint.pprint({name: _schedule_row(plan.graph)
                   for name, plan in compiled.items()}, width=76)
    pprint.pprint({name: _partition_row(graph)
                   for name, graph in _labs_test_graphs().items()},
                  width=76)
