"""The library's one modular product, held to the scalar REDC oracle.

There is no Montgomery domain in the library: a product is one multiply
and one ``%`` below 2**31 and one ``_mulmod_f64`` up to 2**56, and limbs
are always plain residues.  ``MontgomeryContext`` stays as an independent
scalar oracle: ``mulmod_vec``, ``mulmod_stack`` and ``backend.mul`` must
produce exactly its residues and those of plain Python integers, on the
1-D, stacked, mixed-width and object-dtype (``force_object_dtype``)
tiers alike, for every modulus width from 32 to 61 bits — on both sides
of the double-word ceiling — and on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters
from repro.fhe.backend import create_backend
from repro.fhe.modmath import (MontgomeryContext, force_object_dtype,
                               limb_dtype, mulmod_stack, mulmod_vec,
                               stack_native_class, stack_residues)

from test_modmath_dword import (DWORD_PRIMES, N, WIDE_PRIMES,
                                prime_and_operands)

Q_SMALL = 1032193  # 20-bit companion for mixed-width stacks
#: Primes on either side of 2**31, where the product changes tier (the
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


def redc(mont: MontgomeryContext, x: int, y: int) -> int:
    """``x * y mod q`` the oracle's way: in, REDC, out."""
    return mont.from_mont(mont.mulmod(mont.to_mont(x), mont.to_mont(y)))


def as_ints(rows) -> list:
    return [[int(v) for v in row] for row in rows]


def assert_products_match_oracles(q: int) -> None:
    """``mulmod_vec``, ``mulmod_stack`` and both backends' ``mul`` give
    the oracle's residues mod ``q``, in whichever storage ``q`` takes."""
    a = np.array([(i * (q // N)) % q for i in range(N)], dtype=limb_dtype(q))
    b = a[::-1].copy()
    mont = MontgomeryContext(q)
    want = [int(x) * int(y) % q for x, y in zip(a, b)]
    assert want == [redc(mont, int(x), int(y)) for x, y in zip(a, b)]
    assert as_ints([mulmod_vec(a, b, q)]) == [want]
    moduli = (q, q)
    stack = np.stack([a, b])
    assert as_ints(mulmod_stack(stack, stack[::-1], moduli)) == [want] * 2
    for name in ("reference", "stacked"):
        backend = create_backend(name, CkksParameters.toy())
        data = backend.as_native([a, b], moduli)
        flipped = backend.as_native([b, a], moduli)
        out = backend.mul(data, flipped, moduli)
        assert as_ints(backend.to_limbs(out, moduli)) == [want] * 2


class TestRedcConstants:
    """The scalar REDC oracle and the library's product agree for every
    modulus: below 2**31, on the double-word tier, and past its 2**56
    ceiling (``WIDE_PRIMES``, the object tier)."""

    @pytest.mark.parametrize("q", ABOVE_2_31 + DWORD_PRIMES + WIDE_PRIMES)
    def test_constant_identities(self, q):
        assert_products_match_oracles(q)

    @pytest.mark.parametrize("q", BELOW_2_31)
    def test_radix_is_one_below_2_31(self, q):
        """One machine multiply and one ``%`` is the product there."""
        assert_products_match_oracles(q)

    def test_even_modulus_rejected(self):
        """The scalar REDC oracle needs an odd modulus."""
        with pytest.raises(ValueError, match="odd"):
            MontgomeryContext(1 << 32)


class TestMontgomeryVec:
    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_in_domain_product_matches_scalar_oracle(self, qab):
        q, a, b = qab
        mont = MontgomeryContext(q)
        out = mulmod_vec(a, b, q)
        assert out.dtype == np.int64
        for x, y, got in zip(a, b, out):
            x, y = int(x), int(y)
            assert int(got) == redc(mont, x, y) == (x * y) % q

    @given(prime_and_chain())
    @settings(max_examples=30, deadline=None)
    def test_chain_stays_exact(self, qops):
        """k-long product chains stay exact at every link."""
        q, ops = qops
        mont = MontgomeryContext(q)
        acc = ops[0]
        for op in ops[1:]:
            acc = mulmod_vec(acc, op, q)
        for j in range(N):
            expect = oracle = 1
            for op in ops:
                expect = (expect * int(op[j])) % q
                oracle = redc(mont, oracle, int(op[j]))
            assert int(acc[j]) == expect == oracle

    @given(prime_and_operands())
    @settings(max_examples=20, deadline=None)
    def test_object_dtype_tier_matches_native(self, qab):
        q, a, b = qab
        native = mulmod_vec(a, b, q)
        obj = mulmod_vec(a.astype(object), b.astype(object), q)
        with force_object_dtype():
            forced = mulmod_vec(a, b, q)
        assert obj.dtype == forced.dtype == object
        assert as_ints([native]) == as_ints([obj]) == as_ints([forced])


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
        prod = mulmod_stack(sa, sb, moduli)
        for i, qi in enumerate(moduli):
            mont = MontgomeryContext(qi)
            assert np.array_equal(prod[i], mulmod_vec(sa[i], sb[i], qi))
            assert [int(v) for v in prod[i]] == [
                redc(mont, int(x), int(y)) for x, y in zip(sa[i], sb[i])]

    @given(prime_and_operands())
    @settings(max_examples=15, deadline=None)
    def test_force_object_matches_native(self, qab):
        q, a, b = qab
        moduli, sa, sb = self._stacks(q, a, b)
        native = mulmod_stack(sa, sb, moduli)
        with force_object_dtype():
            sa_o = stack_residues([a % Q_SMALL, a], moduli)
            sb_o = stack_residues([b % Q_SMALL, b], moduli)
            assert sa_o.dtype == object
            obj = mulmod_stack(sa_o, sb_o, moduli)
        assert obj.dtype == object
        assert as_ints(native) == as_ints(obj)


class TestMixedClassStacks:
    """Rows below and above 2**31 in one basis: both backends' ``mul``
    agree with each other, with ``force_object_dtype`` and with the
    oracles, limb by limb."""

    @staticmethod
    def _run(backend_name, moduli, a, b):
        backend = create_backend(backend_name, CkksParameters.toy())
        limbs = [[np.array(x % q) for q in moduli] for x in (a, b)]
        data_a, data_b = (backend.as_native(x, moduli) for x in limbs)
        return as_ints(backend.to_limbs(
            backend.mul(data_a, data_b, moduli), moduli))

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
        for i, p in enumerate(moduli):
            mont = MontgomeryContext(p)
            x, y = [int(v) % p for v in a], [int(v) % p for v in b]
            assert runs[0][i] == [u * v % p for u, v in zip(x, y)] == [
                redc(mont, u, v) for u, v in zip(x, y)]
