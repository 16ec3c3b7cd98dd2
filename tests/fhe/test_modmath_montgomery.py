"""Property tests for the vectorized Montgomery-domain kernels.

The Montgomery radix is 1 for every modulus: a plain product is already
one multiply and one ``%`` below 2**31 and one ``_mulmod_f64`` above, so
REDC has nothing left to save.  Converting operands into Montgomery
form, chaining products in-domain, and converting back must still
produce exactly the residues of the scalar Python-int oracles
(``MontgomeryContext`` and plain ``(a*b) % q``), on the 1-D, stacked,
and object-dtype (``force_object_dtype``) tiers alike, for every modulus
width from 32 to 61 bits — on both sides of the double-word ceiling —
and on stacks mixing widths on both backends.  Also covers the
Polynomial-level domain guard rails (Montgomery limbs must never reach
the NTT, scalar adds, or the serializer) that stay until the ``mont``
flag goes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters, PolyContext
from repro.fhe.backend import create_backend
from repro.fhe.modmath import (MontgomeryContext, force_object_dtype,
                               from_mont_stack, from_mont_vec, limb_dtype,
                               mont_mulmod_stack, mont_mulmod_vec,
                               mulmod_stack, stack_native_class,
                               stack_residues, to_mont_stack, to_mont_vec)
from repro.fhe.poly import Representation
from repro.fhe.serialization import _poly_to_arrays

from test_modmath_dword import (DWORD_PRIMES, N, WIDE_PRIMES,
                                prime_and_operands)

Q_SMALL = 1032193  # 20-bit companion for mixed-width stacks
#: Primes on either side of 2**31, where R used to change class (the
#: 32-bit ``DWORD_PRIMES[0]`` already stands just above it).
BELOW_2_31 = [3, Q_SMALL, (1 << 31) - 1]
ABOVE_2_31 = [(1 << 31) + 11]


@st.composite
def prime_and_chain(draw):
    q = draw(st.sampled_from(DWORD_PRIMES))
    k = draw(st.integers(min_value=2, max_value=6))
    ops = [np.array(draw(st.lists(st.integers(0, q - 1),
                                  min_size=N, max_size=N)), dtype=np.int64)
           for _ in range(k)]
    return q, ops


def assert_radix_is_one(q: int) -> None:
    """Montgomery form is the identity mod ``q`` and an in-domain
    product the plain one, in whichever storage ``q`` takes."""
    a = np.array([(i * (q // N)) % q for i in range(N)], dtype=limb_dtype(q))
    b = a[::-1].copy()
    want = [int(x) * int(y) % q for x, y in zip(a, b)]
    assert to_mont_vec(a, q) is a and from_mont_vec(a, q) is a
    assert [int(v) for v in mont_mulmod_vec(a, b, q)] == want
    moduli = (q, q)
    stack = np.stack([a, b])
    assert to_mont_stack(stack, moduli) is stack
    assert from_mont_stack(stack, moduli) is stack
    assert [int(v) for v in mont_mulmod_stack(stack, stack[::-1],
                                              moduli)[0]] == want


class TestRedcConstants:
    """``R = 1`` for every modulus: below 2**31, on the double-word tier,
    and past its 2**56 ceiling (``WIDE_PRIMES``, the object tier)."""

    @pytest.mark.parametrize("q", ABOVE_2_31 + DWORD_PRIMES + WIDE_PRIMES)
    def test_constant_identities(self, q):
        assert_radix_is_one(q)

    @pytest.mark.parametrize("q", BELOW_2_31)
    def test_radix_is_one_below_2_31(self, q):
        """One machine multiply and one ``%`` is already the cheapest
        product there: Montgomery form is the identity."""
        assert_radix_is_one(q)

    def test_even_modulus_rejected(self):
        """The scalar REDC oracle needs an odd modulus."""
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(1 << 32)


class TestMontgomeryVec:
    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, qab):
        q, a, _ = qab
        back = from_mont_vec(to_mont_vec(a, q), q)
        assert np.array_equal(back, a)

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_in_domain_product_matches_scalar_oracle(self, qab):
        q, a, b = qab
        mont = MontgomeryContext(q)
        am, bm = to_mont_vec(a, q), to_mont_vec(b, q)
        prod_m = mont_mulmod_vec(am, bm, q)
        out = from_mont_vec(prod_m, q)
        for x, y, gm, got in zip(a, b, prod_m, out):
            x, y = int(x), int(y)
            # In-domain value: with R = 1 the plain product
            # (MontgomeryContext uses R = 2**bitlen(q), so only its
            # plain-domain output is comparable).
            assert int(gm) == (x * y) % q
            assert int(got) == mont.from_mont(
                mont.mulmod(mont.to_mont(x), mont.to_mont(y)))
            assert int(got) == (x * y) % q

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_mixed_domain_single_conversion(self, qab):
        """mont x plain -> plain: the one-conversion trick for constants."""
        q, a, b = qab
        out = mont_mulmod_vec(to_mont_vec(a, q), b, q)
        for x, y, got in zip(a, b, out):
            assert int(got) == (int(x) * int(y)) % q

    @given(prime_and_chain())
    @settings(max_examples=30, deadline=None)
    def test_chain_stays_exact(self, qops):
        """k-long in-domain chains: one REDC per link, exact at the end."""
        q, ops = qops
        acc = to_mont_vec(ops[0], q)
        for op in ops[1:]:
            acc = mont_mulmod_vec(acc, to_mont_vec(op, q), q)
        out = from_mont_vec(acc, q)
        for j in range(N):
            expect = 1
            for op in ops:
                expect = (expect * int(op[j])) % q
            assert int(out[j]) == expect

    @given(prime_and_operands())
    @settings(max_examples=20, deadline=None)
    def test_object_dtype_tier_matches_native(self, qab):
        q, a, b = qab
        native = from_mont_vec(
            mont_mulmod_vec(to_mont_vec(a, q), to_mont_vec(b, q), q), q)
        ao, bo = a.astype(object), b.astype(object)
        am_o, bm_o = to_mont_vec(ao, q), to_mont_vec(bo, q)
        # The Montgomery representation itself is tier-independent.
        assert np.array_equal(np.asarray(to_mont_vec(a, q), dtype=object),
                              np.asarray(am_o, dtype=object))
        obj = from_mont_vec(mont_mulmod_vec(am_o, bm_o, q), q)
        assert np.array_equal(np.asarray(native, dtype=object),
                              np.asarray(obj, dtype=object))


class TestMontgomeryStack:
    def _stacks(self, q, a, b):
        moduli = (Q_SMALL, q)
        sa = stack_residues([a % Q_SMALL, a], moduli)
        sb = stack_residues([b % Q_SMALL, b], moduli)
        return moduli, sa, sb

    @given(prime_and_operands())
    @settings(max_examples=30, deadline=None)
    def test_stack_matches_rowwise_vec(self, qab):
        q, a, b = qab
        moduli, sa, sb = self._stacks(q, a, b)
        assert stack_native_class(moduli) == "dword"
        am, bm = to_mont_stack(sa, moduli), to_mont_stack(sb, moduli)
        prod = mont_mulmod_stack(am, bm, moduli)
        out = from_mont_stack(prod, moduli)
        for i, qi in enumerate(moduli):
            assert np.array_equal(am[i], to_mont_vec(sa[i], qi))
            assert np.array_equal(
                prod[i],
                mont_mulmod_vec(to_mont_vec(sa[i], qi),
                                to_mont_vec(sb[i], qi), qi))
            assert np.array_equal(out[i], mulmod_stack(sa, sb, moduli)[i])

    @given(prime_and_operands())
    @settings(max_examples=15, deadline=None)
    def test_force_object_matches_native(self, qab):
        q, a, b = qab
        moduli, sa, sb = self._stacks(q, a, b)
        am = to_mont_stack(sa, moduli)
        native = from_mont_stack(
            mont_mulmod_stack(am, to_mont_stack(sb, moduli), moduli), moduli)
        with force_object_dtype():
            sa_o = stack_residues([a % Q_SMALL, a], moduli)
            sb_o = stack_residues([b % Q_SMALL, b], moduli)
            assert sa_o.dtype == object
            am_o = to_mont_stack(sa_o, moduli)
            assert np.array_equal(np.asarray(am, dtype=object),
                                  np.asarray(am_o, dtype=object))
            obj = from_mont_stack(
                mont_mulmod_stack(am_o, to_mont_stack(sb_o, moduli), moduli),
                moduli)
        assert np.array_equal(np.asarray(native, dtype=object),
                              np.asarray(obj, dtype=object))


class TestMixedClassStacks:
    """Rows below and above 2**31 in one basis, ``R = 1`` on each: both
    backends agree with each other and with ``force_object_dtype`` limb
    by limb."""

    @staticmethod
    def _run(backend_name, moduli, a, b):
        backend = create_backend(backend_name, CkksParameters.toy())
        limbs = [[np.array(x % q) for q in moduli] for x in (a, b)]
        data_a, data_b = (backend.as_native(x, moduli) for x in limbs)
        am, bm = backend.to_mont(data_a, moduli), backend.to_mont(data_b,
                                                                  moduli)
        outs = (am, backend.mont_mul(am, bm, moduli),
                backend.mont_mul(am, data_b, moduli),
                backend.from_mont(backend.mont_mul(am, bm, moduli), moduli))
        return [[[int(v) for v in limb]
                 for limb in backend.to_limbs(out, moduli)] for out in outs]

    @given(prime_and_operands())
    @settings(max_examples=15, deadline=None)
    def test_backends_and_tiers_agree_row_by_row(self, qab):
        q, a, b = qab
        moduli = (Q_SMALL, q, BELOW_2_31[-1])
        assert stack_native_class(moduli) == "dword"
        runs = [self._run(name, moduli, a, b)
                for name in ("reference", "stacked")]
        with force_object_dtype():
            runs += [self._run(name, moduli, a, b)
                     for name in ("reference", "stacked")]
        assert all(run == runs[0] for run in runs[1:])
        am, both, one, back = runs[0]
        for i, p in enumerate(moduli):
            x, y = [int(v) % p for v in a], [int(v) % p for v in b]
            assert am[i] == x
            assert both[i] == one[i] == back[i] == [
                u * v % p for u, v in zip(x, y)]


@pytest.fixture(params=["reference", "stacked"])
def pctx(request):
    return PolyContext(CkksParameters.toy(), seed=7, backend=request.param)


class TestPolynomialDomain:
    """Guard rails: Montgomery limbs never cross a domain boundary."""

    def test_round_trip_and_flags(self, pctx):
        p = pctx.random_uniform(pctx.params.moduli)
        pm = p.to_mont()
        assert pm.mont and not p.mont
        assert pm.to_mont() is pm                 # idempotent
        back = pm.from_mont()
        assert not back.mont
        for x, y in zip(p.limbs, back.limbs):
            assert np.array_equal(np.asarray(x, dtype=object),
                                  np.asarray(y, dtype=object))

    def test_products_match_plain(self, pctx):
        a = pctx.random_uniform(pctx.params.moduli)
        b = pctx.random_uniform(pctx.params.moduli)
        plain = a * b
        both = (a.to_mont() * b.to_mont())
        assert both.mont
        one = a.to_mont() * b
        assert not one.mont
        for got in (both.from_mont(), one):
            for x, y in zip(plain.limbs, got.limbs):
                assert np.array_equal(np.asarray(x, dtype=object),
                                      np.asarray(y, dtype=object))

    def test_to_mont_requires_eval(self, pctx):
        p = pctx.random_uniform(pctx.params.moduli, Representation.COEFF)
        with pytest.raises(ValueError, match="EVAL"):
            p.to_mont()

    def test_ntt_conversion_blocked(self, pctx):
        pm = pctx.random_uniform(pctx.params.moduli).to_mont()
        with pytest.raises(ValueError, match="from_mont"):
            pm.to_coeff()

    def test_additive_domain_mismatch_blocked(self, pctx):
        p = pctx.random_uniform(pctx.params.moduli)
        with pytest.raises(ValueError, match="domain"):
            p.to_mont() + p

    def test_scalar_add_blocked(self, pctx):
        pm = pctx.random_uniform(pctx.params.moduli).to_mont()
        with pytest.raises(ValueError, match="plain-domain"):
            pm.scalar_add_per_limb([1] * len(pm.moduli))

    def test_serialization_blocked(self, pctx):
        pm = pctx.random_uniform(pctx.params.moduli).to_mont()
        with pytest.raises(ValueError, match="Montgomery"):
            _poly_to_arrays(pm, "c0", {})

    def test_additive_ops_stay_in_domain(self, pctx):
        a = pctx.random_uniform(pctx.params.moduli)
        b = pctx.random_uniform(pctx.params.moduli)
        am, bm = a.to_mont(), b.to_mont()
        # Montgomery form is additively closed: (aR + bR) = (a+b)R.
        plain = a + b
        got = (am + bm).from_mont()
        for x, y in zip(plain.limbs, got.limbs):
            assert np.array_equal(np.asarray(x, dtype=object),
                                  np.asarray(y, dtype=object))
        assert (am + bm).mont and (am - bm).mont and (-am).mont
