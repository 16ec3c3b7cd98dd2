"""How many limb rows each HE op sweeps through the NTT, as closed forms.

A counting subclass of the stacked backend sums ``len(data)`` over every
``ntt_forward`` / ``ntt_inverse`` call — what ``bench``'s traced run
reports as ``backend.ntt_limb_rows``.  Each op below is held to the
minimum the algebra forces, in terms of n = level + 1 ciphertext limbs,
k special limbs and d digits (see "Where the transforms are" in
``src/repro/fhe/backend/README.md``), so a refactor cannot quietly bring
a COEFF round trip back.
"""

from collections import Counter

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParameters, register_backend
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.keys import key_switch, raise_digits
from repro.fhe.polyval import match_scale_level
from repro.serve.workloads import scoring_workload
from pins import PRESETS


@register_backend("count-transforms")
class CountingBackend(StackedBackend):
    """The stacked backend, counting the limb rows it transforms and the
    calls of the key-switch kernels."""

    def __init__(self, params):
        super().__init__(params)
        self.rows = 0
        self.forwards: list[int] = []       # rows of each forward call
        self.calls = Counter()
        #: The transform calls each ModDown / rescale made.
        self.inside: list[tuple[str, Counter]] = []

    def ntt_forward(self, data, moduli):
        self.rows += len(data)
        self.forwards.append(len(data))
        self.calls["ntt_forward"] += 1
        return super().ntt_forward(data, moduli)

    def ntt_inverse(self, data, moduli):
        self.rows += len(data)
        self.calls["ntt_inverse"] += 1
        return super().ntt_inverse(data, moduli)

    def mod_up(self, digit, digit_index, ksctx):
        self.calls["mod_up"] += 1
        return super().mod_up(digit, digit_index, ksctx)

    def mod_down(self, data, ksctx, plus=None):
        self.calls["mod_down"] += 1
        return self._noting("mod_down", super().mod_down, data, ksctx, plus)

    def rescale_last(self, data, moduli):
        return self._noting("rescale_last", super().rescale_last, data,
                            moduli)

    def _noting(self, kernel, run, *args):
        before = Counter(self.calls)
        out = run(*args)
        self.inside.append((kernel, Counter({
            name: count for name, count in (self.calls - before).items()
            if name.startswith("ntt_")})))
        return out

    def mul(self, a, b, moduli):
        self.calls["mul"] += 1
        return super().mul(a, b, moduli)


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
        for rotation in (1, 2, 3, 4, 8, 12):
            self.ctx.keygen.rotation_key(rotation)
        self.ctx.keygen.conjugation_key()
        self.ctx.keygen.relinearization_key()

    def rows(self, op) -> int:
        before = self.backend.rows
        op()
        return self.backend.rows - before

    def calls(self, op) -> Counter:
        """Kernel calls ``op`` makes."""
        before = Counter(self.backend.calls)
        op()
        return self.backend.calls - before

    @property
    def key_switch(self) -> int:
        n, k, d = self.n, self.k, self.d
        # c1 to COEFF (n), d raised digits to EVAL except on their own
        # limbs (d(n+k) - n), one ModDown of both components (k in, n
        # out, each).
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
    key = budget.ctx.keygen.relinearization_key()
    assert budget.rows(lambda: key_switch(
        budget.ct.c1, key)) == budget.key_switch


def test_rotate_and_conjugate_are_one_key_switch(budget):
    ev, ct = budget.ev, budget.ct
    assert budget.rows(lambda: ev.he_rotate(ct, 1)) == budget.key_switch
    assert budget.rows(lambda: ev.he_conjugate(ct)) == budget.key_switch


def test_rescale_reads_one_limb_per_component(budget):
    ev = budget.ev
    raw = ev.scalar_mult(budget.ct, 1.5, rescale=False)
    assert budget.rows(lambda: ev.rescale(raw)) == budget.rescale


def test_mult_and_square(budget):
    """A rescaled product divides by P * q_l at once: the ModDown's k
    special rows and the q_l row in, l rows out per component — the
    rescale's 2n rows vanish."""
    ev, ct = budget.ev, budget.ct
    assert budget.rows(lambda: ev.he_mult(ct, ct, rescale=False)) \
        == budget.key_switch
    assert budget.rows(lambda: ev.he_mult(ct, ct)) == budget.key_switch
    assert budget.rows(lambda: ev.he_square(ct, rescale=False)) \
        == budget.key_switch
    assert budget.rows(lambda: ev.he_square(ct)) == budget.key_switch


def test_a_moddown_or_rescale_is_one_transform_each_way(budget):
    """Both components of a ciphertext cross every ModDown and rescale
    together: one inverse and one forward call, whatever the op."""
    ev, ct, backend = budget.ev, budget.ct, budget.backend
    raw = ev.scalar_mult(ct, 1.5, rescale=False)
    backend.inside.clear()
    for op in (lambda: ev.rescale(raw), lambda: ev.he_mult(ct, ct),
               lambda: ev.he_square(ct, rescale=False),
               lambda: ev.he_rotate(ct, 1), lambda: ev.he_conjugate(ct),
               lambda: ev.rotate_add(ct, [1, 2, 3]),
               lambda: ev.hoisted_rotations(ct, [1, 2])):
        op()
    assert [kernel for kernel, _ in backend.inside] == [
        "rescale_last"] + ["mod_down"] * 7
    assert all(calls == {"ntt_forward": 1, "ntt_inverse": 1}
               for _, calls in backend.inside)


@pytest.mark.parametrize("method", ["he_mult", "he_square"])
def test_a_rescaled_product_at_level_zero_is_refused_first(method):
    """No limb is left to drop: the product is refused before any
    transform or key product, not after a whole key switch."""
    budget = Budget(CkksParameters.toy(), level=0)
    ev, ct = budget.ev, budget.ct
    cts = (ct, ct) if method == "he_mult" else (ct,)
    calls = Counter(budget.backend.calls)
    rows = budget.backend.rows
    with pytest.raises(ValueError, match="cannot rescale at level 0"):
        getattr(ev, method)(*cts)
    assert budget.backend.rows == rows
    assert budget.backend.calls == calls
    # Unrescaled, level 0 key-switches as any level does.
    assert budget.rows(lambda: getattr(ev, method)(*cts, rescale=False)) \
        == budget.key_switch


def test_plaintext_operands_are_prepared_once(budget):
    ev, ct = budget.ev, budget.ct
    pt = budget.ctx.encoder.encode(budget.values)
    assert budget.rows(lambda: ev.poly_mult(ct, pt)) \
        == budget.n + budget.rescale
    assert budget.rows(lambda: ev.poly_mult(ct, pt)) == budget.rescale
    assert budget.rows(lambda: ev.poly_mult(ct, pt, rescale=False)) == 0
    # One prepared entry serves PolyAdd too.
    assert budget.rows(lambda: ev.poly_add(ct, pt)) == 0


def test_a_scale_fix_prepares_its_constant(budget):
    """``match_scale_level`` fixes a scale by a rescaled ``poly_mult``
    with the constant 1 at the adjusting scale: a constant's EVAL form is
    the constant in every row, so its preparation transforms nothing and
    the rescale's own forward call is the only one."""
    ev, ct, backend = budget.ev, budget.ct, budget.backend

    def forwards(op):
        before = len(backend.forwards)
        op()
        return backend.forwards[before:]

    rescale = forwards(lambda: ev.rescale(ct))
    assert forwards(lambda: match_scale_level(
        ev, ct, ct.level, ct.scale * 1.37)) == rescale


def test_encrypt_and_decrypt(budget):
    ctx = budget.ctx
    # Secret-key encryption: a is drawn in EVAL form, only m + e is
    # transformed.
    assert budget.rows(lambda: ctx.encrypt(
        budget.values, level=budget.level)) == budget.n
    assert budget.rows(lambda: ctx.decrypt(budget.ct)) == budget.n


@pytest.mark.parametrize("preset", ["toy", "boot_test"])
def test_a_new_context_transforms_only_its_secret(preset):
    """There is no public key to build: a tenant's context makes one
    forward transform, the secret's L + 1 + k rows, and no inverse."""
    params = getattr(CkksParameters, preset)()
    ctx = CkksContext(params, seed=3, backend="count-transforms")
    backend = ctx.keygen.context.backend
    assert backend.forwards == [len(params.moduli)
                                + len(params.special_moduli)]
    assert backend.rows == backend.forwards[0]


def test_further_hoisted_rotations_only_pay_mod_down(budget):
    ev, ct = budget.ev, budget.ct
    n, k, d = budget.n, budget.k, budget.d
    hoisted = None

    def hoist():
        nonlocal hoisted
        hoisted = ev._hoist(ct)

    # The hoist: c1 to COEFF once, d raised digits to EVAL once — the
    # digits' own limbs are c1's evaluations, scaled.
    assert budget.rows(hoist) == d * (n + k)
    for rotation in (1, 2, 3):
        assert budget.rows(
            lambda: ev._galois(ct, rotation, hoisted)) == 2 * (k + n)
    assert budget.rows(lambda: ev._galois(ct, None, hoisted)) \
        == 2 * (k + n)
    # A batch of m rotations: one key switch + (m - 1) ModDown pairs.
    assert budget.rows(lambda: ev.hoisted_rotations(ct, [1, 2, 3])) \
        == budget.key_switch + 2 * 2 * (k + n)


def test_replay_hoists_every_galois_op_of_one_value_once(monkeypatch):
    """A ``toy`` program reads one value with two ``he_conjugate`` and
    three ``he_rotate`` calls and names no hoist: replay raises its c1
    once — one hoist and five hoisted tails by the closed forms above —
    and reproduces the direct run's residues."""
    from repro import engine
    from repro.fhe import evaluator, keys
    budget = Budget(CkksParameters.toy(), level=5)
    ev, ct, n, k, d = budget.ev, budget.ct, budget.n, budget.k, budget.d

    def five_galois(ev):
        parts = [ev.he_conjugate(ct), ev.he_rotate(ct, 1),
                 ev.he_conjugate(ct), ev.he_rotate(ct, 2),
                 ev.he_rotate(ct, 3)]
        total = parts[0]
        for part in parts[1:]:
            total = ev.he_add(total, part)
        return total

    plan = engine.compile(five_galois, context=budget.ctx)
    raises = []
    for module in (evaluator, keys):
        monkeypatch.setattr(module, "raise_digits", lambda *args: raises
                            .append(args) or raise_digits(*args))
    run = None

    def replay():
        nonlocal run
        run = plan.execute(budget.ctx, sources=[ct])

    assert budget.rows(replay) == d * (n + k) + 5 * 2 * (k + n)
    assert len(raises) == 1
    assert engine.bit_identical(run.output, five_galois(ev))


@pytest.mark.parametrize("workload, groups",
                         [("boot", 9), ("helr", 9), ("resnet", 181)])
def test_the_catalog_has_one_raise_per_galois_group(workload, groups):
    """At ``paper``: every BSGS stage or convolution's rotations, and
    each bootstrap's EvalMod pair of conjugations, read one value."""
    from repro.trace.ops import galois_groups
    from repro.workloads import compile_workload
    trace = compile_workload(workload, CkksParameters.paper()).trace
    assert len(galois_groups(trace)) == groups


@pytest.mark.parametrize("rotations", [[1], [1, 2, 3], [4, 8, 12, 1, 2, 3]],
                         ids=["one", "three", "six"])
def test_a_rotation_group_raises_once_and_moddowns_once(budget, rotations):
    """``rotate_add``: one raise of c1 (one ModUp per digit) and one
    ModDown call for both components, whatever ``|R|``; ``|R|`` key
    products of ``d`` digits by two key components each."""
    ev, ct, d = budget.ev, budget.ct, budget.d
    # The transforms of one key switch, however many rotations.
    assert budget.rows(lambda: ev.rotate_add(ct, rotations)) \
        == budget.key_switch
    calls = budget.calls(lambda: ev.rotate_add(ct, rotations))
    assert (calls["mod_up"], calls["mod_down"], calls["mul"]) \
        == (d, 1, 2 * d * len(rotations))


@pytest.mark.parametrize("preset", ["toy", "pw54"])
def test_a_warm_scoring_batch(preset):
    """Encrypt at the plan's entry level, as the server does, replay the
    width-16 scoring plan and decrypt on a warm tenant.

    With n = entry + 1 limbs at entry, k = 4 special limbs and d digits
    at level entry - 1 (one at both presets: the two-level program
    key-switches on n - 1 <= 3 limbs, one digit of dnum = 2 at
    L = 5), the batch sweeps

    * ``encrypt``: n rows, one forward call;
    * the weight product's rescale: 2n rows, one forward + one inverse;
    * two rotation groups, two key switches at n - 1 limbs:
      2(d(n - 1 + k) + 2(k + n - 1)) rows, each d + 1 forward and two
      inverse calls, d ModUp and one ModDown;
    * the square, left unrelinearized (no key switch), and its rescale
      of three components at n - 1 limbs: 3(n - 1) rows — each
      component's dropped row in, its lift out on n - 2 rows — one
      forward and one inverse call;
    * ``decrypt`` (with s^2) at n - 2 limbs: n - 2 rows, one inverse
      call.

    That is (7, 7, 65, 2, 2) at ``toy`` (n = 4) and (7, 7, 52, 2, 2)
    at ``pw54`` (n = 3) for forward / inverse calls, limb rows, ModUp
    and ModDown calls; with the square relinearized, its rescale fused
    into its ModDown, it was (8, 8, 77, 3, 3) and (8, 8, 64, 3, 3), and
    with a ModDown and a rescale per component before that
    (14, 14, 83, 3, 6) and (14, 14, 68, 3, 6).  The count twin of the
    wall-clock hoisting floor in ``benchmarks/test_keyswitch_speedup.py``;
    ``bench --trace 1`` reports the same five numbers per batch plus the
    two rows of its ``max_level`` encryption, which replay drops to the
    entry level."""
    params = PRESETS[preset]()
    plan = scoring_workload(16).compile(params)
    entry = plan.entry_level
    assert entry == {"toy": 3, "pw54": 2}[preset]
    ctx = CkksContext(params, seed=3, backend="count-transforms")
    backend = ctx.keygen.context.backend
    slots = np.random.default_rng(5).uniform(-1, 1, params.num_slots)
    n, k = entry + 1, len(params.special_moduli)
    d = len(backend.keyswitch_context(entry - 1).digit_spans)
    assert d == 1

    def batch():
        ct = ctx.encrypt(slots, level=plan.entry_level)
        ctx.decrypt(plan.execute(ctx, sources=[ct]).output)

    batch()     # keys and the plaintext operand are built once
    rows = backend.rows
    calls = Counter(backend.calls)
    batch()
    calls = backend.calls - calls
    key_switch = d * (n - 1 + k) + 2 * (k + n - 1)
    assert (calls["ntt_forward"], calls["ntt_inverse"], backend.rows - rows,
            calls["mod_up"], calls["mod_down"]) == (
        1 + 1 + 2 * (d + 1) + 1, 1 + 2 * 2 + 1 + 1,
        n + 2 * n + 2 * key_switch + 3 * (n - 1) + n - 2, 2 * d, 2)
    assert backend.rows - rows == {"toy": 65, "pw54": 52}[preset]
