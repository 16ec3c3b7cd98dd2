"""FHE block taxonomy and first-principles op/byte counts (paper Table 2).

Each block type knows, for a given parameter set and level, how many
modular operations and NTT butterflies it executes and how many bytes it
moves.  These counts drive both the analytical timing model and the
workload DAGs, so every experiment consumes one consistent set of numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.fhe.params import CkksParameters


class BlockType(enum.Enum):
    """The CKKS building blocks of Table 2, plus bootstrap plumbing.

    Members hash by identity, as :class:`repro.trace.OpKind`'s do.
    """

    __hash__ = object.__hash__

    SCALAR_ADD = "ScalarAdd"
    SCALAR_MULT = "ScalarMult"       # "CMult" in Table 7
    POLY_ADD = "PolyAdd"
    POLY_MULT = "PolyMult"
    HE_ADD = "HEAdd"
    HE_MULT = "HEMult"
    HE_ROTATE = "HERotate"
    HE_RESCALE = "HERescale"
    MOD_RAISE = "ModRaise"


@dataclass(frozen=True)
class BlockCost:
    """Aggregate operation and byte counts for one block execution.

    Immutable: :meth:`BlockCostModel.cost` hands the same object to every
    caller asking for the same block kind.
    """

    name: str
    mod_mul: float = 0.0
    mod_add: float = 0.0
    ntt_butterflies: float = 0.0
    mov: float = 0.0
    input_bytes: float = 0.0        # operand ciphertexts/plaintexts
    key_bytes: float = 0.0          # switching-key traffic (always DRAM)
    output_bytes: float = 0.0
    intermediate_bytes: float = 0.0  # inter-kernel traffic within the block
    spill_bytes: float = 0.0        # intermediates too large for the LDS

    @property
    def total_ops(self) -> float:
        return self.mod_mul + self.mod_add + self.ntt_butterflies + self.mov

    @property
    def compulsory_dram_bytes(self) -> float:
        return self.input_bytes + self.key_bytes + self.output_bytes

    def scaled(self, factor: float) -> "BlockCost":
        return BlockCost(
            name=self.name,
            mod_mul=self.mod_mul * factor,
            mod_add=self.mod_add * factor,
            ntt_butterflies=self.ntt_butterflies * factor,
            mov=self.mov * factor,
            input_bytes=self.input_bytes * factor,
            key_bytes=self.key_bytes * factor,
            output_bytes=self.output_bytes * factor,
            intermediate_bytes=self.intermediate_bytes * factor,
            spill_bytes=self.spill_bytes * factor,
        )


class BlockCostModel:
    """Derives per-block costs from the CKKS algebra at paper parameters."""

    def __init__(self, params: CkksParameters | None = None):
        self.params = params or CkksParameters.paper()
        self._costs: dict[tuple[BlockType, int], BlockCost] = {}

    # -- shared quantities -------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.ring_degree

    def ntt_limbs(self, limbs: float) -> float:
        """Butterflies for ``limbs`` single-limb (i)NTTs."""
        return limbs * (self.n / 2) * math.log2(self.n)

    def switching_key_bytes(self, level: int) -> float:
        """Key material streamed for one key switch at ``level``."""
        num_digits = self.params.digits_at(level)
        raised = (level + 1) + self.params.num_special_limbs
        return num_digits * 2 * raised * self.params.limb_bytes()

    # -- Table 2 blocks ----------------------------------------------------

    def cost(self, block: BlockType, level: int) -> BlockCost:
        """The per-block counting rules, priced once per (block, level):
        costs are pure functions of ``params``."""
        cost = self._costs.get((block, level))
        if cost is None:
            if level < 0 or level > self.params.max_level:
                raise ValueError(f"level {level} out of range")
            cost = self._costs[block, level] = \
                self._BUILDERS[block](self, level)
        return cost

    def _scalar_add(self, level: int) -> BlockCost:
        limbs = level + 1
        return BlockCost(
            name=BlockType.SCALAR_ADD.value,
            mod_add=self.n * limbs,
            input_bytes=self.params.ciphertext_bytes(level),
            output_bytes=self.params.ciphertext_bytes(level),
        )

    def _scalar_mult(self, level: int) -> BlockCost:
        limbs = level + 1
        return BlockCost(
            name=BlockType.SCALAR_MULT.value,
            mod_mul=2 * self.n * limbs,
            input_bytes=self.params.ciphertext_bytes(level),
            output_bytes=self.params.ciphertext_bytes(level),
        )

    def _poly_add(self, level: int) -> BlockCost:
        limbs = level + 1
        return BlockCost(
            name=BlockType.POLY_ADD.value,
            mod_add=self.n * limbs,
            input_bytes=(self.params.ciphertext_bytes(level)
                         + self.params.poly_bytes(level)),
            output_bytes=self.params.ciphertext_bytes(level),
        )

    def _poly_mult(self, level: int) -> BlockCost:
        limbs = level + 1
        return BlockCost(
            name=BlockType.POLY_MULT.value,
            mod_mul=2 * self.n * limbs,
            input_bytes=(self.params.ciphertext_bytes(level)
                         + self.params.poly_bytes(level)),
            output_bytes=self.params.ciphertext_bytes(level),
        )

    def _he_add(self, level: int) -> BlockCost:
        limbs = level + 1
        return BlockCost(
            name=BlockType.HE_ADD.value,
            mod_add=2 * self.n * limbs,
            input_bytes=2 * self.params.ciphertext_bytes(level),
            output_bytes=self.params.ciphertext_bytes(level),
        )

    def mod_up_cost(self, level: int) -> BlockCost:
        """Decomp+ModUp stage of one hybrid key switch at ``level``.

        This is the stage rotation hoisting shares across a Galois
        group (:attr:`repro.trace.Schedule.galois_groups`): iNTT of the
        ciphertext limbs, the exact base conversion of every digit into
        the raised basis, and the NTTs of the new limbs.
        :meth:`_key_switch` takes its ModUp counts from here.
        """
        if level < 0 or level > self.params.max_level:
            raise ValueError(f"level {level} out of range")
        params = self.params
        limbs = level + 1
        alpha = params.alpha
        num_digits = params.digits_at(level)
        raised = limbs + params.num_special_limbs
        n = self.n
        intt = self.ntt_limbs(limbs)
        base_up_macs = sum(
            n * min(alpha, limbs - d * alpha) * (raised - min(
                alpha, limbs - d * alpha)) for d in range(num_digits))
        ntt_up = self.ntt_limbs(num_digits * raised - limbs)
        # The ModUp share of _key_switch's intermediate traffic: the
        # limb-NTT read+write passes plus the materialized raised digits.
        intermediate = (num_digits * raised * self.params.limb_bytes() * 2
                        + num_digits * raised * self.params.limb_bytes())
        return BlockCost(
            name="ModUp",
            mod_mul=base_up_macs,
            mod_add=base_up_macs,
            ntt_butterflies=intt + ntt_up,
            input_bytes=self.params.poly_bytes(level),
            output_bytes=num_digits * raised * self.params.limb_bytes(),
            intermediate_bytes=intermediate,
        )

    def _key_switch(self, level: int) -> BlockCost:
        """Hybrid key switch (section 2.2): ModUp, key products, ModDown."""
        params = self.params
        limbs = level + 1
        specials = params.num_special_limbs
        num_digits = params.digits_at(level)
        raised = limbs + specials
        n = self.n
        up = self.mod_up_cost(level)
        # Key products: 2 output polys x digits x raised limbs, MAC each.
        key_macs = 2 * num_digits * raised * n
        key_adds = key_macs
        # ModDown: per output poly, iNTT special limbs, base-convert to the
        # ct basis, subtract + scale, NTT back.
        intt_down = 2 * self.ntt_limbs(specials)
        base_down_macs = 2 * n * limbs * specials
        fixup = 2 * n * limbs * 2
        ntt_down = 2 * self.ntt_limbs(limbs)
        # Inter-kernel intermediate traffic: every limb-NTT pass reads and
        # writes its limb, the raised digit polynomials are materialized,
        # and the two accumulator polynomials are read-modified per digit.
        limb_passes = (limbs + (num_digits * raised - limbs)
                       + 2 * specials + 2 * limbs)
        intermediate = (limb_passes * self.params.limb_bytes() * 2
                        + num_digits * raised * self.params.limb_bytes()
                        + 2 * raised * self.params.limb_bytes() * 2)
        return BlockCost(
            name="KeySwitch",
            mod_mul=up.mod_mul + key_macs + base_down_macs + fixup / 2,
            mod_add=up.mod_add + key_adds + base_down_macs + fixup / 2,
            ntt_butterflies=up.ntt_butterflies + intt_down + ntt_down,
            key_bytes=self.switching_key_bytes(level),
            intermediate_bytes=intermediate,
        )

    def _he_mult(self, level: int) -> BlockCost:
        limbs = level + 1
        ks = self._key_switch(level)
        tensor_muls = 4 * self.n * limbs
        tensor_adds = 3 * self.n * limbs
        return BlockCost(
            name=BlockType.HE_MULT.value,
            mod_mul=tensor_muls + ks.mod_mul,
            mod_add=tensor_adds + ks.mod_add,
            ntt_butterflies=ks.ntt_butterflies,
            input_bytes=2 * self.params.ciphertext_bytes(level),
            key_bytes=ks.key_bytes,
            output_bytes=self.params.ciphertext_bytes(level),
            intermediate_bytes=ks.intermediate_bytes,
            # The three tensor polynomials d0..d2 exceed the LDS and bounce
            # through DRAM even with cNoC.
            spill_bytes=3 * self.params.poly_bytes(level),
        )

    def _he_rotate(self, level: int) -> BlockCost:
        limbs = level + 1
        ks = self._key_switch(level)
        return BlockCost(
            name=BlockType.HE_ROTATE.value,
            mod_mul=ks.mod_mul,
            mod_add=ks.mod_add + self.n * limbs,
            ntt_butterflies=ks.ntt_butterflies,
            mov=2 * self.n * limbs,            # automorphism permutation
            input_bytes=self.params.ciphertext_bytes(level),
            key_bytes=ks.key_bytes,
            output_bytes=self.params.ciphertext_bytes(level),
            intermediate_bytes=ks.intermediate_bytes
            + self.params.ciphertext_bytes(level),
        )

    def _rescale(self, level: int) -> BlockCost:
        limbs = level + 1
        # Per poly: iNTT dropped limb, NTT-lift into remaining limbs,
        # subtract and scale (exact RNS rescale).
        intt = 2 * self.ntt_limbs(1)
        ntt = 2 * self.ntt_limbs(limbs - 1)
        fixup = 2 * self.n * (limbs - 1) * 2
        return BlockCost(
            name=BlockType.HE_RESCALE.value,
            mod_mul=fixup / 2,
            mod_add=fixup / 2,
            ntt_butterflies=intt + ntt,
            input_bytes=self.params.ciphertext_bytes(level),
            output_bytes=self.params.ciphertext_bytes(level - 1),
            # Both polynomials bounce through an iNTT + NTT pass.
            intermediate_bytes=2 * self.params.ciphertext_bytes(level),
        )

    def _mod_raise(self, level: int) -> BlockCost:
        """Level-0 -> max-level lift at the start of bootstrapping."""
        limbs = self.params.max_level + 1
        return BlockCost(
            name=BlockType.MOD_RAISE.value,
            mod_add=2 * self.n * limbs,
            ntt_butterflies=2 * self.ntt_limbs(limbs),
            input_bytes=self.params.ciphertext_bytes(0),
            output_bytes=self.params.ciphertext_bytes(),
            intermediate_bytes=self.params.ciphertext_bytes(),
        )

    _BUILDERS = {
        BlockType.SCALAR_ADD: _scalar_add,
        BlockType.SCALAR_MULT: _scalar_mult,
        BlockType.POLY_ADD: _poly_add,
        BlockType.POLY_MULT: _poly_mult,
        BlockType.HE_ADD: _he_add,
        BlockType.HE_MULT: _he_mult,
        BlockType.HE_ROTATE: _he_rotate,
        BlockType.HE_RESCALE: _rescale,
        BlockType.MOD_RAISE: _mod_raise,
    }


@dataclass
class BlockInstance:
    """A node of a workload DAG: a block type at a concrete level."""

    block_id: str
    block_type: BlockType
    level: int
    repeat: int = 1
    metadata: dict = field(default_factory=dict)
