"""Property tests for the double-word (32..55-bit) native modmath paths.

For every modulus below 2**56 the double-word product — one wrapping
int64 multiply and two float64 quotient estimates,
``modmath._mulmod_f64`` — produces exactly the residues of the scalar
Python-int oracles (classic Barrett, single-subtraction Barrett,
Montgomery) across random primes of every width from 32 to 55 bits, for
array and constant multiplicands.  The kernel itself is held to Python
integers from 31 bits to the largest prime below 2**56, with its first
quotient estimate read off and checked against the bound its exactness
rests on, and against the Python-integer oracle (``bignum.py``).  From
56 bits up there is no kernel: the modulus is refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bignum
from repro.fhe import modmath
from repro.fhe.modmath import (MontgomeryContext, NATIVE_SAFE_MODULUS,
                               BoundScalarMul, _f64_columns, _mulmod_f64,
                               barrett_precompute, barrett_precompute_single,
                               barrett_reduce, barrett_reduce_single,
                               mulmod_stack, mulmod_vec, native_class,
                               stack_native_class, stack_residues)
from repro.fhe.primes import is_prime

N = 16


def _prime_near(start: int, bits: int) -> int:
    """Deterministic prime of exactly ``bits`` bits at/above ``start``."""
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    p = max(start | 1, lo | 1)
    while not is_prime(p):
        p += 2
        if p > hi:  # extremely unlikely wrap; restart low
            p = lo | 1
    return p


def _prime_pool() -> list[int]:
    """One random prime per width 32..61 bits (seeded, so stable)."""
    rng = np.random.default_rng(0xD0D)
    pool = []
    for bits in range(32, 62):
        start = (1 << (bits - 1)) + int(rng.integers(0, 1 << (bits - 2)))
        pool.append(_prime_near(start, bits))
    return pool


#: 32..56 bits: the double-word tier.
DWORD_PRIMES = [q for q in _prime_pool() if q < NATIVE_SAFE_MODULUS]
#: 57..61 bits: past the double-word ceiling, refused.
WIDE_PRIMES = [q for q in _prime_pool() if q >= NATIVE_SAFE_MODULUS]


def _largest_prime_below(bound: int) -> int:
    q = bound - 1
    while not is_prime(q):
        q -= 2
    return q


#: The widest modulus the double-word tier takes.
TOP_PRIME = _largest_prime_below(NATIVE_SAFE_MODULUS)


@st.composite
def prime_and_operands(draw):
    q = draw(st.sampled_from(DWORD_PRIMES))
    a = draw(st.lists(st.integers(0, q - 1), min_size=N, max_size=N))
    b = draw(st.lists(st.integers(0, q - 1), min_size=N, max_size=N))
    return q, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


class TestDwordAgainstScalarOracles:
    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_vec_matches_barrett_oracles(self, qab):
        q, a, b = qab
        assert native_class(q) == "dword"
        out = mulmod_vec(a, b, q)
        assert out.dtype == np.int64
        mu, k = barrett_precompute(q)
        mu1, k1 = barrett_precompute_single(q)
        for x, y, got in zip(a, b, out):
            x, y = int(x), int(y)
            expect = (x * y) % q
            assert int(got) == expect
            assert barrett_reduce(x * y, q, mu, k) == expect
            assert barrett_reduce_single(x * y, q, mu1, k1) == expect

    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_mulmod_vec_matches_montgomery(self, qab):
        q, a, b = qab
        mont = MontgomeryContext(q)
        out = mulmod_vec(a, b, q)
        for x, y, got in zip(a, b, out):
            x, y = int(x), int(y)
            assert int(got) == mont.from_mont(
                mont.mulmod(mont.to_mont(x), mont.to_mont(y)))

    @given(prime_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_constant_multiply_matches_oracles(self, qab):
        """A constant multiplicand — a scalar to ``mulmod_vec``, a bound
        column to ``BoundScalarMul`` — takes the same kernel as an array
        one; the Shoup multiply it used to take is gone."""
        q, a, b = qab
        w = int(b[0])
        scalar_path = mulmod_vec(a, w, q)
        bound = BoundScalarMul([w], [q])
        mu, k = barrett_precompute_single(q)
        for x, via_mulmod, via_bound in zip(a, scalar_path, bound(a[None])[0]):
            expect = (int(x) * w) % q
            assert int(via_mulmod) == int(via_bound) == expect
            assert barrett_reduce_single(int(x) * w, q, mu, k) == expect

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_stacked_mulmod_matches_scalar(self, qab):
        q, a, b = qab
        # A mixed-width stack (30-bit + the drawn prime) must classify as
        # dword and stay exact on every row.
        q_small = 1032193
        moduli = (q_small, q)
        stack_a = stack_residues([a % q_small, a], moduli)
        stack_b = stack_residues([b % q_small, b], moduli)
        assert stack_native_class(moduli) == "dword"
        assert stack_a.dtype == np.int64
        out = mulmod_stack(stack_a, stack_b, moduli)
        for i, qi in enumerate(moduli):
            for j in range(N):
                assert int(out[i, j]) == \
                    (int(stack_a[i, j]) * int(stack_b[i, j])) % qi

    @given(prime_and_operands())
    @settings(max_examples=40, deadline=None)
    def test_object_oracle_agrees_under_force(self, qab):
        """The Python-integer oracle is what the native path must equal."""
        q, a, b = qab
        native = mulmod_vec(a, b, q)
        assert native.dtype == np.int64
        assert np.array_equal(native.astype(object), bignum.mul(a, b, q))


class TestDispatchBoundaries:
    def test_native_class_tiers(self):
        assert NATIVE_SAFE_MODULUS == 1 << 56
        assert native_class((1 << 31) - 1) == "int64"
        assert native_class(1 << 31) == "dword"
        assert native_class((1 << 56) - 1) == "dword"
        for q in [1 << 56] + WIDE_PRIMES:
            with pytest.raises(ValueError, match=f"modulus {q} is 2"):
                native_class(q)

    def test_largest_residues_at_native_bound(self):
        """q-1 squared at the largest prime below 2**56: the largest
        product and the widest first quotient estimate the double-word
        tier meets."""
        q = TOP_PRIME
        assert q.bit_length() == 56 and native_class(q) == "dword"
        a = np.array([q - 1, q - 2, 1, 0], dtype=np.int64)
        out = mulmod_vec(a, a, q)
        assert out.dtype == np.int64
        assert [int(v) for v in out] == [(int(x) * int(x)) % q for x in a]


#: One prime per width from 31 to 55 bits, and the widest the tier takes.
F64_PRIMES = [_prime_near((1 << 30) + 0x5EED, 31)] + DWORD_PRIMES + [TOP_PRIME]
#: Operands every modulus is tried with, beside random ones.
EDGES = ("0", "1", "q-1", "q-2")


@st.composite
def kernel_operands(draw, q: int, count: int = N) -> list[int]:
    """``count`` residues mod ``q``: the edge values and random ones."""
    edge = {"0": 0, "1": 1, "q-1": q - 1, "q-2": q - 2}
    return [edge[draw(st.sampled_from(EDGES))] if draw(st.booleans())
            else draw(st.integers(0, q - 1)) for _ in range(count)]


class RoundOne:
    """The kernel's first quotient estimate, read off its first
    ``np.rint`` (later rounds overwrite the array, so it is copied)."""

    def __init__(self, patch):
        self.estimates = []
        rint = np.rint

        def capturing(*args, **kwargs):
            out = rint(*args, **kwargs)
            self.estimates.append(np.array(out, copy=True))
            return out

        patch.setattr(np, "rint", capturing)

    def assert_within_41q(self, a, b, q) -> None:
        """``r = a * b - k * q`` in Python integers, elementwise: the
        remainder round 1 hands on is under ``41 q`` in magnitude."""
        k = self.estimates[0]
        assert len(self.estimates) == 2
        a, b, q = np.broadcast_arrays(np.asarray(a, dtype=object),
                                      np.asarray(b, dtype=object),
                                      np.asarray(q, dtype=object))
        for x, y, p, kk in zip(a.ravel(), b.ravel(), q.ravel(),
                               np.broadcast_to(k, a.shape).ravel()):
            assert float(kk).is_integer()
            assert abs(int(x) * int(y) - int(kk) * int(p)) < 41 * int(p)


def _run_kernel(a, b, b_f64, q, q_inv) -> tuple[np.ndarray, RoundOne]:
    with pytest.MonkeyPatch.context() as patch:
        round_one = RoundOne(patch)
        out = _mulmod_f64(a, b, b_f64, q, q_inv)
    return out, round_one


class TestMulmodF64:
    """``_mulmod_f64`` against Python integers."""

    @given(data=st.data(), q=st.sampled_from(F64_PRIMES),
           signed=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_array_and_constant_multiplicands(self, data, q, signed):
        a = data.draw(kernel_operands(q))
        if signed:
            # The division scales the difference of two residues.
            a = [x - q if x and data.draw(st.booleans()) else x for x in a]
        b = data.draw(kernel_operands(q))
        w = data.draw(kernel_operands(q, 1))[0]
        a_arr = np.array(a, dtype=np.int64)
        b_arr = np.array(b, dtype=np.int64)
        q64 = np.int64(q)
        for multiplicand, as_f64 in ((b_arr, b_arr),
                                     (b_arr, b_arr.astype(np.float64)),
                                     (w, float(w))):
            out, round_one = _run_kernel(a_arr, multiplicand, as_f64, q64,
                                         1.0 / q)
            round_one.assert_within_41q(a_arr, multiplicand, q)
            want = [x * y % q for x, y in zip(
                a, np.broadcast_to(np.asarray(multiplicand, dtype=object),
                                   a_arr.shape))]
            assert out.dtype == np.int64 and out.tolist() == want

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_mixed_30_and_55_bit_stack(self, data):
        """One quotient estimate per row, each against its own modulus."""
        moduli = (_prime_near((1 << 29) + 0xACE, 30), DWORD_PRIMES[55 - 32])
        assert [q.bit_length() for q in moduli] == [30, 55]
        a = np.array([data.draw(kernel_operands(q)) for q in moduli],
                     dtype=np.int64)
        b = np.array([data.draw(kernel_operands(q)) for q in moduli],
                     dtype=np.int64)
        q_col, q_inv_col = _f64_columns(moduli, 2)
        for multiplicand in (b, b[:, :1].copy()):
            out, round_one = _run_kernel(a, multiplicand, multiplicand,
                                         q_col, q_inv_col)
            round_one.assert_within_41q(a, multiplicand, q_col)
            product = np.broadcast_to(multiplicand, a.shape)
            assert out.tolist() == [
                [int(x) * int(y) % q for x, y in zip(row, other)]
                for row, other, q in zip(a, product, moduli)]
            assert np.array_equal(out, mulmod_stack(a, product, moduli))


def test_scalar_constant_cache_is_bounded():
    """The ``reference`` backend's ``scalar_mul`` hands ``mulmod_vec``
    request-supplied scalars, so nothing may be cached per distinct
    scalar for the life of the process.  A scalar multiplicand used to
    keep its Shoup quotient in a bounded cache; now it needs nothing but
    its float64, and no cache of the module grows with scalars."""
    q = DWORD_PRIMES[54 - 32]
    assert q.bit_length() == 54
    caches = [value for value in vars(modmath).values()
              if hasattr(value, "cache_info")]
    assert caches
    a = np.array([q - 1, q // 2, 12345, 1, 0], dtype=np.int64)
    mulmod_vec(a, 3, q)
    sizes = [cache.cache_info().currsize for cache in caches]
    for s in range(1, 10 ** 4 + 1):
        s *= 0x9E3779B97F4A7C15        # spread over (and past) the word
        assert [int(v) for v in mulmod_vec(a, s, q)] \
            == [(int(x) * s) % q for x in a]
    assert [cache.cache_info().currsize for cache in caches] == sizes


@given(bits=st.integers(32, 55), offset=st.integers(0, 1 << 40),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_uniform_draws_in_machine_words_are_one_bounded_draw(
        bits, offset, seed):
    """Below 2**56 ``random_residues`` is one bounded int64 draw, as at
    the int64 tier: every residue in ``[0, q)`` across the whole range,
    and a ``(rows, n)`` draw is the flat draw of ``rows * n`` in row
    order, one RNG call either way."""
    q = _prime_near((1 << (bits - 1)) + offset, bits)
    assert 1 << 31 <= q < NATIVE_SAFE_MODULUS
    want_rng = np.random.default_rng(seed)
    want = modmath.random_residues(3 * 257, q, want_rng)
    rng = np.random.default_rng(seed)
    got = modmath.random_residues((3, 257), q, rng)
    assert got.dtype == np.int64 and got.shape == (3, 257)
    assert np.array_equal(got.ravel(), want)
    assert 0 <= int(got.min()) < q // 4 and 3 * q // 4 < int(got.max()) < q
    # Same calls: the streams stay in step.
    assert rng.integers(0, 1 << 62) == want_rng.integers(0, 1 << 62)
