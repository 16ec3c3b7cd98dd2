"""Micro-op sequences and latency tables for the modeled CDNA pipeline.

Three pipeline profiles reproduce paper Table 4:

* ``VANILLA`` -- unmodified MI100: 64-bit modular arithmetic is emulated
  with 32-bit integer instructions (Barrett reduction [48]), operands
  fetched from LDS.
* ``MOD`` -- the paper's native modular-reduction unit with compile-time
  prime constants (modified Barrett, one comparison [76]); the datapath is
  still 32-bit.
* ``MOD_WMAC`` -- MOD plus the 64-bit WMAC pipeline and widened register
  file, removing both the 32-bit emulation and the LDS operand fetches.

Each modulus instruction is described two ways:

* a *latency DAG* of micro-ops (used by the scoreboard pipeline to produce
  the per-instruction cycle counts of Table 4), and
* an *issue occupancy* in SIMD slot-cycles (used by the throughput model:
  how long the instruction occupies a SIMD unit in steady state with full
  wavefront occupancy).

Latency values are calibrated against the paper's NaviSim measurements
(Table 4): the claims ledger's Table 4 rows name ``LATENCY_SEQUENCES``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PipelineProfile(enum.Enum):
    """Which vector-ALU feature set is active (paper Table 4 rows)."""

    VANILLA = "vanilla"
    MOD = "mod"
    MOD_WMAC = "mod+wmac"


@dataclass(frozen=True)
class MicroOp:
    """One pipeline micro-op.

    ``deps`` are indices of earlier micro-ops in the same sequence whose
    results this op consumes; an empty list depends only on issue order.
    ``lds_access`` marks LDS loads/stores subject to bank conflicts.
    """

    name: str
    latency: int
    deps: tuple[int, ...] = ()
    lds_access: bool = False


def _seq(*ops: tuple) -> tuple[MicroOp, ...]:
    """Build a serial chain: each op depends on the previous one."""
    out = []
    for i, (name, latency, *flags) in enumerate(ops):
        deps = (i - 1,) if i > 0 else ()
        out.append(MicroOp(name=name, latency=latency, deps=deps,
                           lds_access="lds" in flags))
    return tuple(out)


# -- latency DAGs per profile (Table 4 substrate) --------------------------

#: Vanilla MI100: Barrett reduction emulated with 32-bit ops; the second
#: operand of two-input instructions loads in parallel (dep structure below).
_VANILLA = {
    # mod-red <v0,s0>: one LDS operand, emulated Barrett chain.
    "mod_red": _seq(("lds_load", 11, "lds"), ("mul64hi_emu", 13),
                    ("shift64_emu", 3), ("mul64lo_emu", 9),
                    ("sub64_emu", 4), ("cmp_sel", 4)),
    # mod-add <v0,v1,s0>: two LDS operands, add + conditional subtract,
    # result written back; divergent branch executes both paths.
    "mod_add": (MicroOp("lds_load_a", 11, (), True),
                MicroOp("lds_load_b", 11, (), True),
                MicroOp("add64_emu", 8, (0, 1)),
                MicroOp("cmp64_emu", 8, (2,)),
                MicroOp("sub64_emu", 8, (3,)),
                MicroOp("sel64_emu", 8, (4,)),
                MicroOp("lds_store", 11, (5,), True),
                MicroOp("branch_overhead", 4, (6,))),
    # mod-mult <v0,v1,s0>: two LDS operands, full 64x64 product + Barrett.
    "mod_mul": (MicroOp("lds_load_a", 11, (), True),
                MicroOp("lds_load_b", 11, (), True),
                MicroOp("mul64full_emu", 21, (0, 1)),
                MicroOp("shift64_emu", 3, (2,)),
                MicroOp("mul64lo_emu", 9, (3,)),
                MicroOp("sub64_emu", 4, (4,)),
                MicroOp("cmp_sel", 8, (5,)),
                MicroOp("branch_overhead", 4, (6,))),
}

#: MOD unit: native reduction with compile-time prime constants; operands
#: still travel through LDS and products still use the 32-bit multiplier.
_MOD = {
    "mod_red": _seq(("lds_load", 11, "lds"), ("native_mod_red", 14)),
    "mod_add": (MicroOp("lds_load_a", 11, (), True),
                MicroOp("lds_load_b", 11, (), True),
                MicroOp("native_mod_add", 5, (0, 1))),
    "mod_mul": (MicroOp("lds_load_a", 11, (), True),
                MicroOp("lds_load_b", 11, (), True),
                MicroOp("mul64full_emu", 21, (0, 1)),
                MicroOp("native_mod_red_fused", 3, (2,))),
}

#: MOD+WMAC: 64-bit integer datapath and widened register file -- operands
#: come from registers, no LDS round trip.
_MOD_WMAC = {
    "mod_red": _seq(("mul64hi", 5), ("shift64", 1), ("mul64lo", 5),
                    ("sub64", 3), ("csel64", 3)),
    "mod_add": _seq(("add64", 4), ("csub64", 3)),
    "mod_mul": _seq(("mul64lo", 5), ("mul64hi", 5),
                    ("native_mod_red_fused", 13)),
}

LATENCY_SEQUENCES: dict[PipelineProfile, dict[str, tuple[MicroOp, ...]]] = {
    PipelineProfile.VANILLA: _VANILLA,
    PipelineProfile.MOD: _MOD,
    PipelineProfile.MOD_WMAC: _MOD_WMAC,
}

# -- issue occupancy (throughput) per profile -------------------------------

#: SIMD slot-cycles one instruction occupies in steady state (full
#: occupancy, latency hidden by other wavefronts).  A plain 32-bit op
#: occupies 4 cycles (64-lane wavefront on a SIMD-16); emulated 64-bit
#: sequences occupy one slot per constituent op.
ISSUE_CYCLES: dict[PipelineProfile, dict[str, int]] = {
    PipelineProfile.VANILLA: {"mod_red": 40, "mod_add": 28, "mod_mul": 52,
                              "add64": 8, "mul64": 24, "mov": 4,
                              "ntt_butterfly": 72},
    PipelineProfile.MOD: {"mod_red": 16, "mod_add": 12, "mod_mul": 32,
                          "add64": 8, "mul64": 24, "mov": 4,
                          "ntt_butterfly": 48},
    PipelineProfile.MOD_WMAC: {"mod_red": 8, "mod_add": 4, "mod_mul": 12,
                               "add64": 4, "mul64": 8, "mov": 4,
                               "ntt_butterfly": 20},
}

#: Paper Table 4 (cycles), read by ``gme.mod_unit`` and the claims ledger.
PAPER_TABLE4 = {
    PipelineProfile.VANILLA: {"mod_red": 46, "mod_add": 62, "mod_mul": 63},
    PipelineProfile.MOD: {"mod_red": 26, "mod_add": 18, "mod_mul": 38},
    PipelineProfile.MOD_WMAC: {"mod_red": 17, "mod_add": 7, "mod_mul": 23},
}
