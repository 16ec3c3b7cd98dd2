"""How much work the hot kernels of both native tiers do, as exact counts.

Before its transforms and base conversions became split-word matrix
products, a double-word ``forward`` ran log2 N butterfly stages (one
Shoup twiddle multiply each, its MULHI emulated from 32-bit splits) and
every exact ModDown lift walked ``RnsBasis.convert_exact``'s 32-bit word
planes.  Now a transform is one step per factor of N — ``table_pieces``
float64 matmuls and, between steps, one ``_mulmod_f64`` twiddle scale —
and a warm key switch never leaves the bound matmuls.  These counts fail
on the commit before (10 Shoup multiplies and no matmul per N = 2**10
transform, two ``convert_exact`` calls per key switch).  Nothing a warm
double-word batch runs splits a word into 32-bit halves any more: every
product is one int64 multiply and two float64 quotient estimates.

Since the int64 tier binds the same kernel for its conversions — it had
an int64 ``@`` for narrow digits, a broadcast sweep for wide ones and
``convert_exact`` past a row-sum bound — the count is one for both
tiers: a warm key switch is ``len(digit_spans) + 1`` ``left`` calls on
the context's own kernels (``toy`` made none on the commit before; the
lift took one call per polynomial of the pair until the pair shared it).
"""

import inspect
import re
import sys

import numpy as np
import pytest

from repro.fhe import CkksContext, encoder, modmath, ntt, rns
from repro.fhe.backend.stacked import StackedBackend
from repro.fhe.keys import key_switch
from repro.fhe.modmath import BoundModMatmul
from repro.fhe.ntt import BatchedNttContext
from repro.fhe.primes import generate_ntt_primes
from repro.serve.workloads import scoring_workload
from test_parent_digests import PRESETS

PW54 = PRESETS["pw54"]()


class Calls:
    """Counts calls to ``owner.name``."""

    def __init__(self, monkeypatch, owner, name: str):
        self.count = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


def test_warm_dword_key_switch_never_walks_word_planes(monkeypatch):
    ctx = CkksContext(PW54, seed=5, backend="stacked")
    ct = ctx.encrypt([1.0, -0.5, 0.25])
    assert ct.level == 5
    key = ctx.keygen.relinearization_key()
    want = key_switch(ct.c1, key)
    convert_exact = Calls(monkeypatch, rns.RnsBasis, "convert_exact")
    crt_sum = Calls(monkeypatch, rns.RnsBasis, "_total_object")
    round_quotient = Calls(monkeypatch, rns.RnsBasis, "round_quotient")
    got = key_switch(ct.c1, key)
    assert convert_exact.count == crt_sum.count == 0
    # The Python-integer quotient is for coefficients within P * 2**-40
    # of +-P/2 only; random ones never get there.
    assert round_quotient.count == 0
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(a.limbs, b.limbs))


@pytest.mark.parametrize("n,steps", [(64, 1), (1 << 10, 2), (1 << 13, 3)])
def test_a_dword_transform_is_one_matmul_round_per_factor(n, steps,
                                                          monkeypatch):
    moduli = tuple(generate_ntt_primes(3, 54, n))
    ctx = BatchedNttContext(moduli, n)
    assert ctx.klass == "dword" and len(ctx.grid) == steps
    table_pieces = ctx.matmul.table_pieces
    assert table_pieces == 2
    stack = np.random.default_rng(3).integers(
        0, min(moduli), size=(3, n), dtype=np.int64)
    scale = Calls(monkeypatch, ntt, "_mulmod_f64")
    matmul = Calls(monkeypatch, np, "matmul")
    for transform in (ctx.forward, ctx.inverse):
        scale.count = matmul.count = 0
        transform(stack)
        assert scale.count == steps - 1
        assert matmul.count == table_pieces * steps


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_warm_key_switch_is_one_matmul_per_digit_and_one_per_lift(
        preset, monkeypatch):
    params = PRESETS[preset]()
    ctx = CkksContext(params, seed=5, backend="stacked")
    ct = ctx.encrypt([1.0, -0.5, 0.25])
    key = ctx.keygen.relinearization_key()
    want = key_switch(ct.c1, key)
    ksctx = ctx.keygen.context.backend.keyswitch_context(ct.level)
    moddown = rns.division(ksctx.extended, ksctx.num_ct)
    conversions = []
    left = BoundModMatmul.left

    def counting(kernel, *args, **kwargs):
        # The transforms' kernel is another object: counted apart.
        conversions.append(
            "modup" if kernel is ksctx.modup_matmul else
            "lift" if kernel is moddown.lift_matmul else "ntt")
        return left(kernel, *args, **kwargs)

    monkeypatch.setattr(BoundModMatmul, "left", counting)
    convert_exact = Calls(monkeypatch, rns.RnsBasis, "convert_exact")
    got = key_switch(ct.c1, key)
    digits = len(ksctx.digit_spans)
    assert digits == 2
    # One ModUp per digit, one lift for both polynomials of the pair.
    assert [conversions.count(kind) for kind in ("modup", "lift")] \
        == [digits, 1]
    assert convert_exact.count == 0
    for a, b in zip(got, want):
        assert all(np.array_equal(x, y) for x, y in zip(a.limbs, b.limbs))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_warm_edge_never_leaves_machine_words(preset, monkeypatch):
    """encode -> lift -> encrypt and decrypt -> compose -> decode used to
    push each coefficient through a Python integer (``int(round(c))``, a
    fresh ``RnsBasis``, the big-integer CRT sum, ``[float(c)]``);
    a message-sized batch now crosses both edges in int64.  Encryption
    lifts and transforms one polynomial, m + e, over L + 1 rows;
    decryption makes one inverse over l + 1."""
    params = PRESETS[preset]()
    ctx = CkksContext(params, seed=5, backend="stacked")
    values = np.random.default_rng(8).uniform(-1, 1, params.num_slots)
    low = ctx.encrypt(values, level=2)
    want = ctx.decrypt(low)                         # warms level 2's basis
    ctx.decrypt(ctx.encrypt(values))                # ... and level L's
    counted = [
        Calls(monkeypatch, rns.RnsBasis, "_total_object"),
        Calls(monkeypatch, rns.RnsBasis, "compose_centered_vec"),
        Calls(monkeypatch, rns.RnsBasis, "__init__"),
    ]
    rounds = []
    monkeypatch.setattr(encoder, "round", rounds.append, raising=False)
    crossed = []                       # dtype of what crosses each seam
    transforms = {"ntt_forward": [], "ntt_inverse": []}

    def spy(owner, name, note):
        original = getattr(owner, name)

        def spying(self, data, *args):
            note(data)
            return original(self, data, *args)

        monkeypatch.setattr(owner, name, spying)

    spy(StackedBackend, "reduce_coeffs", lambda a: crossed.append(a.dtype))
    spy(encoder.CkksEncoder, "decode", lambda a: crossed.append(a.dtype))
    for name, rows in transforms.items():
        spy(StackedBackend, name, lambda data, rows=rows:
            rows.append(len(data)))

    fresh = ctx.encrypt(values)
    assert transforms == {"ntt_forward": [params.max_level + 1],
                          "ntt_inverse": []}
    ctx.decrypt(fresh)
    got = ctx.decrypt(low)
    assert transforms["ntt_inverse"] == [params.max_level + 1, 3]
    assert len(transforms["ntt_forward"]) == 1
    assert [c.count for c in counted] == [0] * len(counted)
    assert rounds == []
    assert crossed == [np.int64] * 3               # 1 lift, 2 decodes
    assert got.tobytes() == want.tobytes()


class Remainders:
    """Counts the explicit ``np.remainder`` sweeps — the int64 tier's
    ``%`` of a product, a transform's input reduce — made inside each
    of the named stacked-backend kernels (innermost kernel wins)."""

    def __init__(self, monkeypatch, names):
        self.calls = dict.fromkeys(names, 0)
        self.remainders = dict.fromkeys(names, 0)
        inside = []
        remainder = np.remainder

        def counting(*args, **kwargs):
            if inside:
                self.remainders[inside[-1]] += 1
            return remainder(*args, **kwargs)

        monkeypatch.setattr(np, "remainder", counting)
        for name in names:
            original = getattr(StackedBackend, name)

            def spying(backend, *args, name=name, original=original):
                self.calls[name] += 1
                inside.append(name)
                try:
                    return original(backend, *args)
                finally:
                    inside.pop()

            monkeypatch.setattr(StackedBackend, name, spying)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_one_remainder_per_product_and_none_per_transform(preset,
                                                          monkeypatch):
    """Below 2**31 every product — key products included — is one
    multiply and one ``%`` (a key product was two while keys were held
    in Montgomery form: the product, then ``R**-1``), and a key is
    stored as it is drawn (it took one ``to_mont`` call per component,
    ``2 * dnum`` per key; now none).  On both tiers a transform reduces
    no input that is already within its kernel's reach — everything a
    scoring batch hands one (it was one ``%`` per transform)."""
    params = PRESETS[preset]()
    plan = scoring_workload(16).compile(params)
    ctx = CkksContext(params, seed=123, backend="stacked")
    values = np.random.default_rng(7).uniform(-1, 1, params.num_slots)
    ct = ctx.encrypt(values)
    want = plan.execute(ctx, sources=[ct]).output   # warms keys and tables
    names = ("mul", "ntt_forward", "ntt_inverse")
    spy = Remainders(monkeypatch, names)
    got = plan.execute(ctx, sources=[ct]).output
    assert min(spy.calls.values()) > 0
    per_product = 1 if preset == "toy" else 0
    assert spy.remainders == {
        "mul": per_product * spy.calls["mul"],
        "ntt_forward": 0, "ntt_inverse": 0}
    for a, b in ((got.c0, want.c0), (got.c1, want.c1)):
        assert np.array_equal(a.data, b.data)
    # A cold key: one product per digit (a_j * s), and nothing else.
    spy.calls["mul"] = spy.remainders["mul"] = 0
    ctx.keygen.rotation_key(7)
    assert spy.calls["mul"] == params.dnum
    assert spy.remainders["mul"] == per_product * params.dnum


#: A uint64 word cut into 32-bit halves: its high half shifted down, its
#: low half masked off — how ``_mul64`` / ``_mulhi64`` emulated a
#: 64 x 64 -> 128-bit product before the double-word tier's products
#: became one int64 multiply with float64 quotient estimates.
_SPLIT = re.compile(r">>\s*(?:np\.uint64\(\s*)?(?:32\b|_SHIFT32)"
                    r"|&\s*(?:np\.uint64\(\s*)?(?:0x[fF]{8}\b|_U32_MASK)")


def _splits(code) -> list[str]:
    """The source lines of a function or code object that split a word
    in two."""
    return [line.strip() for line in inspect.getsourcelines(code)[0]
            if _SPLIT.search(line)]


def test_the_split_guard_sees_what_it_is_there_to_stop():
    for line in ("a0 = a & _U32_MASK", "a1 = a >> _SHIFT32",
                 "b0 = b & np.uint64(0xFFFFFFFF)", "hi = x >> np.uint64(32)",
                 "mid >> 32"):
        assert _SPLIT.search(line), line
    for line in ("(hi << np.uint64(32)) | lo", "d >> 63", "w & mask",
                 "x >> 320", "r & 0xFFFFFFFFFF"):
        assert not _SPLIT.search(line), line
    assert _splits(modmath._mulmod_f64) == []


def test_a_warm_pw54_batch_makes_no_32_bit_splits():
    """Every repro function a warm ``pw54`` scoring batch runs, read
    line by line: none cuts a word into 32-bit halves (the emulated
    Barrett, REDC and Shoup products did, ~15-45 array passes each)."""
    plan = scoring_workload(16).compile(PW54)
    ctx = CkksContext(PW54, seed=123, backend="stacked")
    ct = ctx.encrypt(np.random.default_rng(7).uniform(-1, 1,
                                                      PW54.num_slots))
    want = plan.execute(ctx, sources=[ct]).output    # warms keys and tables
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        got = plan.execute(ctx, sources=[ct]).output
    finally:
        sys.setprofile(None)
    assert np.array_equal(got.c0.data, want.c0.data)
    assert np.array_equal(got.c1.data, want.c1.data)
    ours = {code for code in ran if "/repro/" in code.co_filename}
    names = {code.co_name for code in ours}
    assert {"_mulmod_f64", "_steps", "divide_round"} <= names
    offenders = {f"{code.co_filename}:{code.co_name}": _splits(code)
                 for code in ours if _splits(code)}
    assert offenders == {}
