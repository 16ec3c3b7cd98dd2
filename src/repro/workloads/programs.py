"""The paper workloads as *evaluator programs* (traced, not transcribed).

Each function here is an ordinary program against the evaluator call
surface (``he_mult`` / ``he_rotate`` / ``rescale`` / ...).  Run
one through a :class:`~repro.trace.TracingEvaluator` wrapping a
:class:`~repro.trace.SymbolicEvaluator` and the recorded trace lowers to
the BlockSim DAG — the block multiplicities are *measured from the
execution* instead of being transcribed constants, so any drift between
the functional ``repro.fhe`` library and the simulated graphs surfaces
as a test failure (``tests/workloads/test_catalog_shape`` pins the
per-(block type, level) histograms at paper parameters).

Structure (section 2.2 at Table 3 parameters: fftIter = 4
linear-transform stages on each side, L_boot = 17 levels consumed): BSGS
stages of radix n^(1/fftIter), a scaled-sine EvalMod depth schedule, the
per-iteration HE-LR step, the multiplexed-convolution layer.  Rotation
amounts are chosen so the switching-key reuse pattern (what LABS groups
on) is 4 distinct baby-step keys shared between CoeffToSlot and
SlotToCoeff, 4 giant-step keys, 9 convolution tap keys, log2-tree
reduction keys.
"""

from __future__ import annotations

import math

from repro.blocksim import calibration as cal

#: EvalMod shape: Chebyshev degree ~31 plus double-angle squarings per
#: branch (real and imaginary coefficient halves).
EVALMOD_MULTS_PER_BRANCH = 20
EVALMOD_SCALARS_PER_BRANCH = 10


def _to_level(ev, ct, level: int):
    """Bring a handle to ``level``: drop limbs, or refresh upward.

    An upward move models a schematic level reset (fresh ciphertext /
    elided bootstrap); it exists only on the symbolic evaluator and
    marks the consuming block ``metadata["refresh"]``.
    """
    if ct.level > level:
        return ev.mod_drop(ct, ct.level - level)
    if ct.level < level:
        return ev.refresh(ct, level)
    return ct


def _bsgs_stage(ev, ct, radix: int, rotations_per_stage: int,
                with_giant_steps: bool):
    """One BSGS linear-transform stage: hoisted rotation batch, one
    diagonal multiply per radix entry, an accumulation tree, one rescale.

    All rotations act on the stage input, so replay serves the whole
    batch with one hoisted Decomp+ModUp.  Baby-step amounts cycle
    through 1..4 (shared across stages and with SlotToCoeff); giant
    steps are multiples of ``radix``.
    """
    pt = ev.plaintext()
    rotated = []
    for j in range(rotations_per_stage):
        if with_giant_steps and j >= rotations_per_stage // 2:
            amount = ((j % 4) + 1) * radix
        else:
            amount = (j % 4) + 1
        rotated.append(ev.he_rotate(ct, amount))
    products = [ev.poly_mult(rotated[j % len(rotated)], pt, rescale=False)
                for j in range(radix)]
    acc = products[0]
    for product in products[1:]:
        acc = ev.he_add(acc, product)
    return ev.rescale(acc)


def bootstrap_program(ev, ct):
    """Packed CKKS bootstrapping (section 2.2 pipeline at any params).

    ModRaise -> CoeffToSlot (fftIter BSGS stages) -> EvalMod on the
    real/imag branches (scaled-sine: scalar normalizations, square
    chain with interleaved rescales) -> SlotToCoeff (fftIter stages).
    """
    params = ev.params
    stages = params.fft_iterations
    radix = math.ceil(params.num_slots ** (1.0 / stages))
    rotations_per_stage = max(2, 2 * math.ceil(math.sqrt(radix)) + 2)
    evalmod_floor = params.max_level - params.boot_levels + stages + 1

    ct = ev.mod_raise(ct)
    for stage in range(stages):
        with ev.region(f"cts{stage}"):
            ct = _bsgs_stage(ev, ct, radix, rotations_per_stage,
                             with_giant_steps=True)

    branches = []
    for branch in ("re", "im"):
        with ev.region(f"evalmod/{branch}"):
            b = ev.he_conjugate(ct)
            for _ in range(EVALMOD_SCALARS_PER_BRANCH):
                b = ev.scalar_mult(b, 0.5, rescale=False)
            for j in range(EVALMOD_MULTS_PER_BRANCH):
                b = ev.he_square(b, rescale=False)
                if j % 3 == 2 and b.level > evalmod_floor:
                    b = ev.rescale(b)
            branches.append(b)

    with ev.region("stc"):
        ct = ev.he_add(branches[0], branches[1])
    for stage in range(stages):
        with ev.region(f"stc{stage}"):
            ct = _bsgs_stage(ev, ct, radix, rotations_per_stage,
                             with_giant_steps=False)
    return ct


def helr_program(ev):
    """HE-LR training: 30 iterations, one embedded bootstrap.

    Per iteration: inner-product HEMult, log2-tree rotation reduction,
    sigmoid HEMult, plaintext gradient multiply, weight update, rescale
    — the shape of Han et al.'s batch gradient step.
    """
    params = ev.params
    rotations = max(2, int(math.log2(cal.HELR_FEATURES)) // 4)
    level = params.max_level - 1
    boot_at = cal.HELR_ITERATIONS // 2
    with ev.region("helr"):
        frontier = ev.scalar_add(ev.fresh(level=level), 0.0)
        for it in range(cal.HELR_ITERATIONS):
            if level < 4:
                level = params.max_level - 4
            with ev.region(f"it{it}"):
                dot = ev.he_square(_to_level(ev, frontier, level),
                                   rescale=False)
                acc = dot
                for r in range(rotations):
                    acc = ev.he_rotate(acc, 1 << r)
                sig = ev.he_square(_to_level(ev, acc, level - 1),
                                   rescale=False)
                grad = ev.poly_mult(_to_level(ev, sig, level - 2),
                                    ev.plaintext(), rescale=False)
                update = ev.he_add(grad,
                                   _to_level(ev, frontier, level - 2))
                frontier = ev.rescale(update)
            level -= 3
            if it == boot_at:
                with ev.region(f"it{it}/boot"):
                    frontier = bootstrap_program(ev, frontier)
                level = params.max_level - params.boot_levels + 2
    return frontier


def resnet20_program(ev):
    """Encrypted ResNet-20: multiplexed convolutions + inter-layer
    bootstraps (Lee et al.'s formulation at the paper's schedule).

    Per layer: one hoisted rotation per kernel tap replica (9 distinct
    tap offsets), a plaintext multiply per channel slice, accumulation,
    squaring activation, rescale; bootstraps distributed across layers.
    """
    params = ev.params
    level = params.max_level - 1
    boots_done = 0
    boot_every = max(1, cal.RESNET_CONV_LAYERS // cal.RESNET_BOOTSTRAPS)
    with ev.region("resnet"):
        frontier = ev.scalar_add(ev.fresh(level=level), 0.0)
        for layer in range(cal.RESNET_CONV_LAYERS):
            if level < 5:
                level = params.max_level - 3
            with ev.region(f"conv{layer}"):
                src = _to_level(ev, frontier, level)
                rotated = [ev.he_rotate(src, (r % 9) + 1) for r in
                           range(cal.RESNET_ROTATIONS_PER_CONV)]
                products = []
                for m in range(cal.RESNET_MULTS_PER_CONV):
                    tap = rotated[m * len(rotated)
                                  // cal.RESNET_MULTS_PER_CONV]
                    products.append(ev.poly_mult(tap, ev.plaintext(),
                                                 rescale=False))
                acc = products[0]
                for product in products[1:]:
                    acc = ev.he_add(acc, product)
                act = ev.he_square(_to_level(ev, acc, level - 1),
                                   rescale=False)
                frontier = ev.rescale(act)
            level -= 2
            if (layer + 1) % boot_every == 0 \
                    and boots_done < cal.RESNET_BOOTSTRAPS:
                with ev.region(f"conv{layer}/boot"):
                    frontier = bootstrap_program(ev, frontier)
                boots_done += 1
                level = params.max_level - params.boot_levels + 2
        # Average pool + fully connected head.
        pool_level = max(2, level)
        pool = ev.he_rotate(_to_level(ev, frontier, pool_level), 16)
        fc = ev.he_square(pool, rescale=False)
        out = ev.rescale(fc)
    return out
