"""Noise-budget constants and planning aids for CKKS circuits.

The level and scale a circuit reaches are the op table's to say
(:data:`repro.trace.ops.OPS`, run shape-only by
:class:`~repro.trace.SymbolicEvaluator`); this module holds the noise
floor and result headroom the linter and the served entry level check
them against, and the multiplicative depth of a workload DAG.
"""

from __future__ import annotations

import math

from repro.dag import topological_sort

from .params import CkksParameters


#: Log2 of the smallest usable encoding scale.  Below ~10 bits the
#: message is indistinguishable from the rescale rounding noise a CKKS
#: ciphertext carries; the static noise checker (HE030 in
#: :mod:`repro.analysis`) reports a scale below it.
NOISE_FLOOR_LOG2 = 10.0

#: Bits a result keeps free below its ciphertext modulus: one for the
#: sign (decryption centres the residues in (-Q/2, Q/2]) and one for the
#: noise riding on ``scale * |result|``, which may carry a value at the
#: bound past a power of two.  A served plan's entry level
#: (:meth:`repro.serve.ServedWorkload.entry_level`) and the static
#: headroom check (``HE031`` in :mod:`repro.analysis`) share it.
HEADROOM_BITS = 2.0


def result_headroom(params: CkksParameters, level: int, scale: float,
                    bound: float) -> float:
    """Spare bits of ``Q_level`` over a result of magnitude up to
    ``bound`` encoded at ``scale``, after :data:`HEADROOM_BITS`; below
    zero the decrypted value can wrap around the modulus."""
    log_q = sum(math.log2(q) for q in params.moduli[:level + 1])
    return log_q - math.log2(scale) - math.log2(bound) - HEADROOM_BITS


def circuit_depth(graph) -> int:
    """Longest multiplicative path through a workload DAG (planning aid).

    Nodes are :class:`repro.blocksim.blocks.BlockInstance`; HEMult,
    PolyMult, ScalarMult and HERescale consume a level each.
    """
    consuming = {"HEMult", "PolyMult", "ScalarMult", "HERescale"}
    depth: dict = {}
    for node in topological_sort(graph):
        block = graph.nodes[node]["block"]
        own = 1 if block.block_type.value in consuming else 0
        best_pred = max((depth[p] for p in graph.predecessors(node)),
                        default=0)
        depth[node] = best_pred + own
    return max(depth.values(), default=0)
