"""How many limb rows each HE op sweeps through the NTT, as closed forms.

A counting subclass of the stacked backend sums ``len(data)`` over every
``ntt_forward`` / ``ntt_inverse`` call — what ``bench``'s traced run
reports as ``backend.ntt_limb_rows``.  Each op below is held to the
minimum the algebra forces, in terms of n = level + 1 ciphertext limbs,
k special limbs and d digits (see "Where the transforms are" in
``src/repro/fhe/backend/README.md``), so a refactor cannot quietly bring
a COEFF round trip back.
"""

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters, register_backend
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.keys import key_switch


@register_backend("count-transforms")
class CountingBackend(StackedBackend):
    """The stacked backend, counting the limb rows it transforms."""

    def __init__(self, params):
        super().__init__(params)
        self.rows = 0

    def ntt_forward(self, data, moduli):
        self.rows += len(data)
        return super().ntt_forward(data, moduli)

    def ntt_inverse(self, data, moduli):
        self.rows += len(data)
        return super().ntt_inverse(data, moduli)


class Budget:
    """One context on the counting backend, plus the closed forms."""

    def __init__(self, params: CkksParameters, level: int):
        self.ctx = CkksContext(params, seed=3, backend="count-transforms")
        self.ev = self.ctx.evaluator
        self.backend = self.ctx.keygen.context.backend
        self.level = level
        self.n = level + 1
        self.k = len(params.special_moduli)
        self.d = len(self.backend.keyswitch_context(level).digit_spans)
        rng = np.random.default_rng(5)
        self.values = rng.uniform(-1, 1, 8)
        self.ct = self.ctx.encrypt(self.values, level=level)
        self.pt = self.ctx.encoder.encode(rng.uniform(-1, 1, 8))
        # Key generation transforms too; it is not what is budgeted.
        for rotation in (1, 2, 3):
            self.ctx.keygen.rotation_key(rotation, level)
        self.ctx.keygen.conjugation_key(level)
        self.ctx.keygen.relinearization_key(level)

    def rows(self, op) -> int:
        before = self.backend.rows
        op()
        return self.backend.rows - before

    @property
    def key_switch(self) -> int:
        n, k, d = self.n, self.k, self.d
        # c1 to COEFF (n), d raised digits to EVAL except on their own
        # limbs (d(n+k) - n), 2 ModDowns (k in, n out).
        return d * (n + k) + 2 * (k + n)

    @property
    def rescale(self) -> int:
        # Per component: the dropped limb in, its lift out on n-1 limbs.
        return 2 * self.n


@pytest.fixture(scope="module", params=["toy", "boot_test"])
def budget(request):
    params = getattr(CkksParameters, request.param)()
    return Budget(params, level=params.max_level)


def test_presets_cover_two_shapes(budget):
    assert (budget.n, budget.k, budget.d) in {(6, 4, 2), (20, 8, 3)}


def test_key_switch(budget):
    key = budget.ctx.keygen.relinearization_key(budget.level)
    assert budget.rows(lambda: key_switch(
        budget.ct.c1, key, budget.ctx.params)) == budget.key_switch


def test_rotate_and_conjugate_are_one_key_switch(budget):
    ev, ct = budget.ev, budget.ct
    assert budget.rows(lambda: ev.he_rotate(ct, 1)) == budget.key_switch
    assert budget.rows(lambda: ev.he_conjugate(ct)) == budget.key_switch


def test_rescale_reads_one_limb_per_component(budget):
    ev = budget.ev
    raw = ev.scalar_mult(budget.ct, 1.5, rescale=False)
    assert budget.rows(lambda: ev.rescale(raw)) == budget.rescale


def test_mult_and_square(budget):
    ev, ct = budget.ev, budget.ct
    assert budget.rows(lambda: ev.he_mult(ct, ct, rescale=False)) \
        == budget.key_switch
    assert budget.rows(lambda: ev.he_mult(ct, ct)) \
        == budget.key_switch + budget.rescale
    assert budget.rows(lambda: ev.he_square(ct, rescale=False)) \
        == budget.key_switch
    assert budget.rows(lambda: ev.he_square(ct)) \
        == budget.key_switch + budget.rescale


def test_plaintext_operands_are_prepared_once(budget):
    ev, ct = budget.ev, budget.ct
    pt = budget.ctx.encoder.encode(budget.values)
    assert budget.rows(lambda: ev.poly_mult(ct, pt)) \
        == budget.n + budget.rescale
    assert budget.rows(lambda: ev.poly_mult(ct, pt)) == budget.rescale
    assert budget.rows(lambda: ev.poly_mult(ct, pt, rescale=False)) == 0
    # One prepared entry serves PolyAdd too.
    assert budget.rows(lambda: ev.poly_add(ct, pt)) == 0


def test_encrypt_and_decrypt(budget):
    ctx = budget.ctx
    assert budget.rows(lambda: ctx.encrypt(
        budget.values, level=budget.level)) == 3 * budget.n
    assert budget.rows(lambda: ctx.decrypt(budget.ct)) == budget.n


def test_further_hoisted_rotations_only_pay_mod_down(budget):
    ev, ct = budget.ev, budget.ct
    n, k, d = budget.n, budget.k, budget.d
    hoisted = None

    def hoist():
        nonlocal hoisted
        hoisted = ev.hoist(ct)

    # The hoist: c1 to COEFF once, d raised digits to EVAL once — the
    # digits' own limbs are c1's evaluations, scaled.
    assert budget.rows(hoist) == d * (n + k)
    for rotation in (1, 2, 3):
        assert budget.rows(
            lambda: ev.rotate_hoisted(hoisted, rotation)) == 2 * (k + n)
    assert budget.rows(lambda: ev.conjugate_hoisted(hoisted)) == 2 * (k + n)
    # A batch of m rotations: one key switch + (m - 1) ModDown pairs.
    assert budget.rows(lambda: ev.hoisted_rotations(ct, [1, 2, 3])) \
        == budget.key_switch + 2 * 2 * (k + n)
