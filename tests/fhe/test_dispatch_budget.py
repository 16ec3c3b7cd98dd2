"""How often a warm HE op re-derives what its contexts already bound.

``modmath.stack_native_class`` and ``modmath._q_column`` are the per-call
dispatch of the generic stack kernels: the kernel tier of a basis (only
a multiply asks: int64 or double-word) and its modulus column, looked up
by hashing the modulus tuple.  The transforms and the key-switch kernels
bind both when their ``BatchedNttContext`` / ``KeySwitchContext`` is
built, so a warm op only pays them in the elementwise ``Polynomial``
arithmetic around those kernels.  Before the tables were bound one
``he_rotate`` made 251 + 239 such calls, 220 of each from inside its
seven transforms (ten butterfly stages apiece); with a third, object
tier every elementwise kernel also asked for the tier (15 + 11 for the
rotation).  The ceilings below are today's counts (4 + 7 for the
rotation) with room for a handful of extra elementwise ops.  A transform is whatever
runs under ``BatchedNttContext.forward`` / ``inverse`` — on both native
tiers the step driver (``_contract`` / ``_scale``) and, below it, the
split-word matmul kernel ``modmath.BoundModMatmul``; the frame walk
below finds ``forward`` / ``inverse`` above all of them — and none of it
may look a tier up per call: routing a step back through the generic
kernels would add tens of lookups per transform, and
``inside_transform`` must stay 0.
"""

import sys

import pytest

from repro.fhe import CkksContext, CkksParameters, modmath
from repro.fhe.ntt import BatchedNttContext

TOY = CkksParameters.toy()
VALUES = [1.0, -2.0, 3.5]

#: op -> ceiling on (``stack_native_class``, ``_q_column``) calls.
CEILINGS = {
    "he_rotate": (6, 10),
    "he_square_rescale": (10, 16),
    "encrypt": (4, 10),
}

TRANSFORMS = {BatchedNttContext.forward.__code__,
              BatchedNttContext.inverse.__code__}


def warm_context() -> CkksContext:
    ctx = CkksContext(TOY, seed=3, backend="stacked")
    ct = ctx.encrypt(VALUES)
    ctx.evaluator.he_rotate(ct, 1)
    ctx.evaluator.he_square(ct)
    return ctx


def ops(ctx: CkksContext):
    ev = ctx.evaluator
    ct = ctx.encrypt(VALUES)
    return {
        "he_rotate": lambda: ev.he_rotate(ct, 1),
        "he_square_rescale": lambda: ev.he_square(ct),
        "encrypt": lambda: ctx.encrypt(VALUES),
    }


class Counter:
    """Counts calls to one ``modmath`` function, and how many of them
    have a batched transform somewhere up their stack."""

    def __init__(self, monkeypatch, name: str):
        self.calls = self.inside_transform = 0
        original = getattr(modmath, name)

        def counting(*args, **kwargs):
            self.calls += 1
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in TRANSFORMS:
                    self.inside_transform += 1
                    break
                frame = frame.f_back
            return original(*args, **kwargs)

        monkeypatch.setattr(modmath, name, counting)


@pytest.mark.parametrize("op", sorted(CEILINGS))
def test_warm_op_stays_inside_its_dispatch_budget(op, monkeypatch):
    run = ops(warm_context())[op]
    tier = Counter(monkeypatch, "stack_native_class")
    q_column = Counter(monkeypatch, "_q_column")
    run()
    assert tier.inside_transform == 0
    assert q_column.inside_transform == 0
    assert 0 < tier.calls <= CEILINGS[op][0]
    assert 0 < q_column.calls <= CEILINGS[op][1]
