"""Block tables for oracle tests: random lowering-shaped tables, and the
DAG invariants as a walk of a block graph.

:func:`lowered_tables` draws a :class:`~repro.blocksim.BlockTable` the
way lowering writes one — rows appended producers first, lowering-style
node ids (regions, per-stem counters), inputs drawn from earlier rows
with repeats (a product of a value with itself), several sources, and a
few switching keys shared by many rotations.  Levels, keys, shapes and
bytes are drawn freely, so a table may break any DAG invariant.

:func:`graph_dag_violations` is ``repro.trace.dag_violations`` as it was
while lowering built a ``DiGraph``: it reads each node's
``BlockInstance`` and metadata and each edge's attribute dict.  The
checker now reads a block table (a graph through ``BlockTable(graph)``);
the two must return the same problems, in the same order, for every
graph.
"""

import random

from hypothesis import strategies as st

from repro.blocksim import BlockTable
from repro.blocksim.blocks import BlockInstance, BlockType
from repro.dag import is_directed_acyclic_graph
from repro.trace import KEYSWITCH_BLOCKS

#: Block types as lowering names them.
STEMS = {BlockType.HE_ADD: "add", BlockType.HE_MULT: "mult",
         BlockType.HE_ROTATE: "rot", BlockType.HE_RESCALE: "rescale",
         BlockType.POLY_MULT: "pmul", BlockType.MOD_RAISE: "modraise"}
KEYS = ("rot-1", "rot-2", "rot-16", "conj")


@st.composite
def lowered_tables(draw, max_rows: int = 160, defects: bool = False):
    """A block table in lowering's shape, its size drawn and its rows
    from a drawn seed; with ``defects``, rotations may lack a key, key
    switches their shape, levels may fall below 0 and edges carry no
    bytes."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    table = BlockTable()
    counters: dict = {}
    types = sorted(STEMS, key=str)
    keys = KEYS + ((None, "") if defects else ())
    for row in range(draw(st.integers(1, max_rows))):
        region = rng.choice(("", "boot", "boot/cts", "it1"))
        block_type = rng.choice(types)
        stem = STEMS[block_type]
        seq = counters[region, stem] = counters.get((region, stem), -1) + 1
        table.ids.append(f"{region}/{stem}{seq}" if region
                         else f"{stem}{seq}")
        level = rng.randint(-1 if defects else 0, 12)
        key = rng.choice(keys) if block_type is BlockType.HE_ROTATE \
            else None
        table.rows.append((block_type, level, 1, key,
                           rng.randint(0, row // 2)))
        inputs = [rng.randrange(row) for _ in range(rng.randint(0, 3))] \
            if row and rng.randrange(6) else []
        table.preds.append(tuple(
            (pred, rng.choice((0.0, 512.0)) if defects
             else 512.0 * (1 + max(0, table.rows[pred][1])))
            for pred in dict.fromkeys(inputs)))
        shape = None
        if block_type in KEYSWITCH_BLOCKS \
                and not (defects and rng.randrange(2)):
            shape = {"key": key or "relin", "level": level, "dnum": 3}
        table.keyswitch.append(shape)
        table.refresh.append(rng.randrange(8) == 0)
    return table


def graph_dag_violations(graph, params=None, require_keyswitch_meta=False):
    """All structural problems found in a workload DAG, walking it."""
    problems = []
    if not is_directed_acyclic_graph(graph):
        problems.append("graph contains a cycle")
    max_level = params.max_level if params is not None else None
    for node, data in graph.nodes(data=True):
        block = data.get("block")
        if not isinstance(block, BlockInstance):
            problems.append(f"{node}: missing BlockInstance")
            continue
        if block.level < 0:
            problems.append(f"{node}: negative level {block.level}")
        if max_level is not None and block.level > max_level:
            problems.append(
                f"{node}: level {block.level} > max {max_level}")
        if block.block_type is BlockType.HE_ROTATE \
                and not block.metadata.get("key"):
            problems.append(f"{node}: HERotate without key metadata")
        if require_keyswitch_meta \
                and block.block_type in KEYSWITCH_BLOCKS \
                and "keyswitch" not in block.metadata:
            problems.append(f"{node}: key-switch block without "
                            "keyswitch metadata")
    for u, v, data in graph.edges(data=True):
        if data.get("bytes", 0.0) <= 0.0:
            problems.append(f"{u} -> {v}: non-positive edge bytes")
        u_block = graph.nodes[u].get("block")
        v_block = graph.nodes[v].get("block")
        if not isinstance(u_block, BlockInstance) \
                or not isinstance(v_block, BlockInstance):
            continue
        if v_block.level > u_block.level \
                and v_block.block_type is not BlockType.MOD_RAISE \
                and not v_block.metadata.get("refresh"):
            problems.append(
                f"{u} -> {v}: level rises {u_block.level} -> "
                f"{v_block.level} without ModRaise/refresh")
    return problems
