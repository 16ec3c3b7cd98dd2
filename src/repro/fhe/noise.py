"""Noise-budget estimation for CKKS circuit planning.

Applications (and the paper's workload DAG builders) need to know how many
levels a circuit can consume before bootstrapping.  This module provides a
static budget tracker mirroring the evaluator's level/scale rules without
touching ciphertexts, plus an empirical noise probe used by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dag import topological_sort

from .params import CkksParameters


#: Log2 of the smallest usable encoding scale.  Below ~10 bits the
#: message is indistinguishable from the rescale rounding noise a CKKS
#: ciphertext carries; :meth:`LevelBudget.multiplications_remaining`
#: and the static noise checker (:mod:`repro.analysis`) share this
#: floor so planning and linting agree on when the budget is exhausted.
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


@dataclass
class LevelBudget:
    """Static (level, scale) tracker for planning a circuit."""

    params: CkksParameters
    level: int
    log_scale: float

    @classmethod
    def fresh(cls, params: CkksParameters) -> "LevelBudget":
        return cls(params=params, level=params.max_level,
                   log_scale=float(params.scale_bits))

    def after_mult(self) -> "LevelBudget":
        """HEMult followed by rescale: one level, scale renormalized."""
        if self.level < 1:
            raise ValueError("no level left for a multiplication")
        q_next = self.params.moduli[self.level]
        new_log_scale = 2 * self.log_scale - math.log2(q_next)
        return LevelBudget(self.params, self.level - 1, new_log_scale)

    def after_rotation(self) -> "LevelBudget":
        """Rotations preserve level and scale."""
        return LevelBudget(self.params, self.level, self.log_scale)

    def multiplications_remaining(self) -> int:
        """Levels usable before the scale underflows or level 0."""
        budget = self
        count = 0
        while budget.level >= 1 and budget.log_scale > NOISE_FLOOR_LOG2:
            budget = budget.after_mult()
            count += 1
        return count


def measure_fresh_noise(ctx, trials: int = 5) -> float:
    """Empirical fresh-encryption noise (max abs slot error).

    Used by tests to pin the noise floor assumptions documented in
    bootstrap.py.
    """
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(trials):
        values = rng.uniform(-1, 1, ctx.params.num_slots)
        ct = ctx.encrypt(values)
        err = float(np.max(np.abs(ctx.decrypt(ct).real - values)))
        worst = max(worst, err)
    return worst


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
