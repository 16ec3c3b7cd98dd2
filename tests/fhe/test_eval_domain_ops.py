"""EVAL-domain automorphism, rescale, ModDown and the merged encrypt are
the COEFF-domain definitions, transformed.

Every op here used to leave evaluation form, do its work on coefficients
and come back.  The NTT is an exact ring isomorphism per limb, so each
has an EVAL-domain form that yields the same integers; these tests hold
the new kernels to the coefficient-domain *definitions* — a Python-loop
automorphism and exact big-integer CRT arithmetic written out below, not
the kernels themselves — on ``reference`` and ``stacked``, at the int64
tier (``toy``) and at the paper's 54-bit word.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fhe import (CkksContext, CkksParameters, Plaintext, PolyContext,
                       Polynomial, Representation)
from repro.fhe.keys import mod_down_polys
from repro.fhe.poly import rescale_last
from repro.fhe.rns import RnsBasis

TOY = CkksParameters.toy()
#: The 54-bit word on a small ring.
WORD54 = CkksParameters._build(ring_degree=1 << 6, scale_bits=50,
                               prime_bits=54, max_level=3, boot_levels=2,
                               dnum=2, fft_iterations=1)
PRESETS = {"toy": TOY, "word54": WORD54}
BACKENDS = ("reference", "stacked")

cases = pytest.mark.parametrize(
    "preset,backend", [(p, b) for p in PRESETS for b in BACKENDS])


def as_ints(poly: Polynomial) -> list[np.ndarray]:
    return [np.asarray(limb, dtype=object) for limb in poly.limbs]


def assert_limbs(poly: Polynomial, expected: list[np.ndarray]) -> None:
    got = as_ints(poly)
    assert len(got) == len(expected)
    for have, want in zip(got, expected):
        assert np.array_equal(have, np.asarray(want, dtype=object))


def same_limbs(a: Polynomial, b: Polynomial) -> bool:
    return a.moduli == b.moduli and all(
        np.array_equal(x, y) for x, y in zip(as_ints(a), as_ints(b)))


def ct_equal(ct1, ct2) -> bool:
    return (ct1.level == ct2.level and ct1.scale == ct2.scale
            and same_limbs(ct1.c0, ct2.c0) and same_limbs(ct1.c1, ct2.c1))


def centered(value: int, modulus: int) -> int:
    value %= modulus
    return value - modulus if value > modulus // 2 else value


# ---------------------------------------------------------------------------
# automorphism
# ---------------------------------------------------------------------------

def naive_automorphism(poly: Polynomial, g: int) -> list[np.ndarray]:
    """x^i -> x^(i*g) with x^N = -1, one coefficient at a time."""
    n = poly.context.params.ring_degree
    out = []
    for limb, q in zip(as_ints(poly), poly.moduli):
        image = np.zeros(n, dtype=object)
        for i, c in enumerate(limb):
            e = (i * g) % (2 * n)
            image[e % n] = (-c if e >= n else c) % q
        out.append(image)
    return out


class TestAutomorphism:
    CONTEXTS = {(p, b): PolyContext(PRESETS[p], seed=11, backend=b)
                for p in PRESETS for b in BACKENDS}

    @cases
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(min_value=0, max_value=(1 << 10) - 1))
    @example(k=-1)                  # g = 2N - 1, the conjugation
    @example(k=0)                   # g = 1, the identity
    def test_eval_gather_is_the_coeff_permutation(self, preset, backend, k):
        context = self.CONTEXTS[preset, backend]
        two_n = 2 * context.params.ring_degree
        g = (2 * k + 1) % two_n
        a = context.random_uniform(context.params.moduli[:3],
                                   Representation.COEFF)
        want = naive_automorphism(a, g)
        assert_limbs(a.automorphism(g), want)
        image = a.to_eval().automorphism(g)
        assert image.rep is Representation.EVAL
        assert_limbs(image.to_coeff(), want)


# ---------------------------------------------------------------------------
# rescale
# ---------------------------------------------------------------------------

def exact_rescale(poly_coeff: Polynomial) -> list[np.ndarray]:
    """round(x / q_last) by big-integer CRT, coefficient by coefficient."""
    moduli = poly_coeff.moduli
    q_last = moduli[-1]
    values = RnsBasis(list(moduli)).compose_vec(poly_coeff.limbs)
    quotients = [(x - centered(x, q_last)) // q_last for x in values]
    for x, y in zip(values, quotients):
        assert y * q_last + centered(x, q_last) == x
    return [np.array([y % q for y in quotients], dtype=object)
            for q in moduli[:-1]]


class TestRescale:
    @cases
    @pytest.mark.parametrize("limbs", [2, 4])
    def test_matches_exact_division(self, preset, backend, limbs):
        context = PolyContext(PRESETS[preset], seed=11, backend=backend)
        a = context.random_uniform(context.params.moduli[:limbs],
                                   Representation.EVAL)
        (out,) = rescale_last([a])
        assert out.rep is Representation.EVAL
        assert out.moduli == a.moduli[:-1]
        assert_limbs(out.to_coeff(), exact_rescale(a.to_coeff()))

    def test_needs_plain_eval_form_and_two_limbs(self):
        context = PolyContext(TOY, seed=11, backend="stacked")
        a = context.random_uniform(TOY.moduli[:2], Representation.EVAL)
        with pytest.raises(ValueError, match="EVAL"):
            rescale_last([a.to_coeff()])
        with pytest.raises(ValueError, match="only limb"):
            rescale_last([a.at_basis(TOY.moduli[:1])])


# ---------------------------------------------------------------------------
# ModDown
# ---------------------------------------------------------------------------

def coeff_mod_down(poly_coeff: Polynomial, ksctx) -> list[np.ndarray]:
    """(x - lift([x]_P)) * P^-1 mod q_i on big integers, the lift being
    the centered CRT value of the special-prime residues."""
    p_prod = ksctx.p_prod
    special = RnsBasis(list(ksctx.special_moduli))
    lift = [centered(int(v), p_prod) for v in special.compose_vec(
        poly_coeff.limbs[ksctx.num_ct:])]
    return [np.array([(int(x) - v) * pow(p_prod, -1, q) % q
                      for x, v in zip(limb, lift)], dtype=object)
            for limb, q in zip(as_ints(poly_coeff), ksctx.ct_moduli)]


class TestModDown:
    # One quotient rule, the exact one; the ids have said so since there
    # were two.
    @pytest.mark.parametrize(
        "preset,backend", [(p, b) for p in PRESETS for b in BACKENDS],
        ids=[f"exact-{p}-{b}" for p in PRESETS for b in BACKENDS])
    @pytest.mark.parametrize("level", [1, 3])
    def test_matches_the_coeff_definition(self, preset, backend, level):
        context = PolyContext(PRESETS[preset], seed=17, backend=backend)
        ksctx = context.backend.keyswitch_context(level)
        a = context.random_uniform(ksctx.extended, Representation.EVAL)
        (out,) = mod_down_polys([a], ksctx)
        assert out.rep is Representation.EVAL
        assert out.moduli == ksctx.ct_moduli
        assert_limbs(out.to_coeff(), coeff_mod_down(a.to_coeff(), ksctx))

    def test_needs_plain_eval_form(self):
        context = PolyContext(TOY, seed=11, backend="stacked")
        ksctx = context.backend.keyswitch_context(2)
        a = context.random_uniform(ksctx.extended, Representation.EVAL)
        with pytest.raises(ValueError, match="EVAL"):
            mod_down_polys([a.to_coeff()], ksctx)


# ---------------------------------------------------------------------------
# encrypt, hoisting, prepared plaintexts
# ---------------------------------------------------------------------------

class TestEncrypt:
    @cases
    def test_one_transform_for_e0_plus_m(self, preset, backend):
        """Replay the draws (``a`` per limb, then ``e``): the ciphertext
        is ``(NTT(m + e) - a*s, a)``, so the only error it carries is
        ``e``, coefficient for coefficient."""
        ctx = CkksContext(PRESETS[preset], seed=5, backend=backend)
        twin = CkksContext(PRESETS[preset], seed=5, backend=backend)
        values = [0.5, -1.25, 2.0]
        got = ctx.encrypt(values)
        context = twin.keygen.context
        moduli = twin.params.moduli
        a = context.random_uniform(moduli)
        e = context.gaussian_coeffs()
        m = np.asarray(twin.encoder.encode(values).coeffs, dtype=object)
        assert same_limbs(got.c1, a)
        s = twin.keygen.secret_key.s.at_basis(moduli)
        phase = [(c0 + c1 * sk) % q for c0, c1, sk, q in zip(
            as_ints(got.c0), as_ints(got.c1), as_ints(s), moduli)]
        assert_limbs(context.from_signed_coeffs(m + e, moduli).to_eval(),
                     phase)
        assert ctx.decryptor.decrypt_centered(got).tolist() \
            == (m + e).tolist()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_level_must_lie_on_the_chain(self, preset):
        ctx = CkksContext(PRESETS[preset], seed=5)
        top = ctx.params.max_level
        for level in (0, top):
            ct = ctx.encrypt([0.5], level=level)
            assert ct.level == level and len(ct.c0.moduli) == level + 1
        for level in (-1, top + 1):
            with pytest.raises(ValueError,
                               match=rf"level {level} .*max_level={top}"):
                ctx.encrypt([0.5], level=level)


class TestHoistedDigitsInEvalForm:
    @cases
    def test_hoisted_equals_sequential(self, preset, backend):
        ctx = CkksContext(PRESETS[preset], seed=5, backend=backend)
        ev = ctx.evaluator
        ct = ctx.encrypt([1.0, -2.0, 3.5, 0.25])
        hoisted = ev._hoist(ct)
        assert all(d.rep is Representation.EVAL for d in hoisted.raised)
        assert not hasattr(hoisted, "c0_coeff")
        for r in (1, 2, 7):
            assert ct_equal(ev._galois(ct, r, hoisted),
                            ev.he_rotate(ct, r))
        assert ct_equal(ev._galois(ct, None, hoisted), ev.he_conjugate(ct))


class TestPreparedPlaintext:
    def test_prepared_under_one_tenant_serves_another(self):
        tenant_a = CkksContext(TOY, seed=1)
        tenant_b = CkksContext(TOY, seed=2)
        weights = np.linspace(0.5, 1.5, 8)
        x = np.linspace(-1.0, 1.0, 8)
        pt = tenant_a.encoder.encode(weights)
        tenant_a.evaluator.poly_mult(tenant_a.encrypt(x), pt)
        prepared = dict(pt._prepared)
        assert len(prepared) == 1

        ct_b = tenant_b.encrypt(x)
        out = tenant_b.evaluator.poly_mult(ct_b, pt)
        assert {k: id(v) for k, v in pt._prepared.items()} \
            == {k: id(v) for k, v in prepared.items()}
        assert out.c0.context is tenant_b.keygen.context
        assert np.max(np.abs(tenant_b.decrypt(out)[:8].real
                             - weights * x)) < 1e-3
        fresh = Plaintext(coeffs=pt.coeffs, scale=pt.scale,
                          num_slots=pt.num_slots)
        assert fresh == pt
        assert ct_equal(out, tenant_b.evaluator.poly_mult(ct_b, fresh))

    def test_poly_add_uses_the_plain_domain_entry(self):
        ctx = CkksContext(TOY, seed=3)
        pt = ctx.encoder.encode([0.25, 0.5])
        ct = ctx.encrypt([1.0, 2.0])
        first = ctx.evaluator.poly_add(ct, pt)
        assert len(pt._prepared) == 1
        assert ct_equal(first, ctx.evaluator.poly_add(ct, pt))
        ctx.evaluator.poly_mult(ct, pt)
        # PolyMult reads the very entry PolyAdd prepared.
        assert len(pt._prepared) == 1

    def test_holds_no_reference_to_a_context(self):
        tenant = CkksContext(TOY, seed=4)
        pt = tenant.encoder.encode([1.0, 2.0])
        tenant.evaluator.poly_mult(tenant.encrypt([0.5]), pt)
        tenant.evaluator.poly_add(tenant.encrypt([0.5]), pt)
        for stored in pt._prepared.values():
            # Backend-native storage — one stack, or a list of limbs on
            # the reference backend — never a Polynomial.
            assert all(isinstance(limb, np.ndarray) for limb in stored)
        context = weakref.ref(tenant.keygen.context)
        del tenant
        gc.collect()
        assert context() is None
