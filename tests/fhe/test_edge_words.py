"""The machine-word paths at a batch's edges against the exact ones.

``encode`` rounds into one int64 array, ``decrypt`` composes through two
balanced mixed-radix digits and ``decode`` reads the array — each only
where the data shows the integers fit, each with the arbitrary-precision
path it replaced as fallback.  Here the old paths are the oracle: the
fast one must return their integers exactly or decline, at the bounds
where it has to decide; a whole decryption is also held to the
Python-integer oracle (``bignum.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bignum
from repro.fhe import CkksContext, CkksEncoder, CkksParameters, Plaintext
from repro.fhe.encoder import round_coeffs
from repro.fhe.modmath import reduce_vec
from repro.fhe.primes import generate_ntt_primes
from repro.fhe.rns import WORD_BOUND, RnsBasis
from pins import PRESETS

N = 64
POOLS = {
    "30": generate_ntt_primes(6, 30, N),
    "54": generate_ntt_primes(6, 54, N),
    # ``toy`` / ``pw54`` shapes: one wider base prime among the words.
    "31+30": generate_ntt_primes(1, 31, N) + generate_ntt_primes(5, 30, N),
    "30+55": (generate_ntt_primes(3, 30, N)
              + generate_ntt_primes(3, 55, N)),
}
MAGNITUDES = (0, 1, 2 ** 53 - 1, 2 ** 53 + 1, WORD_BOUND - 1, WORD_BOUND,
              WORD_BOUND + 1)


@st.composite
def bases(draw):
    pool = draw(st.permutations(POOLS[draw(st.sampled_from(sorted(POOLS)))]))
    return RnsBasis(list(pool[:draw(st.integers(1, 6))]))


@st.composite
def composed(draw):
    """A basis and a vector of centered values in (-Q/2, Q/2]."""
    basis = draw(bases())
    half = basis.big_modulus // 2
    special = [sign * m for m in MAGNITUDES + (half,) for sign in (1, -1)
               if abs(m) <= half]
    value = st.one_of(st.sampled_from(special),
                      st.integers(-half, half),
                      st.integers(-min(half, 2 ** 60), min(half, 2 ** 60)))
    # Mostly vectors a message could be; sometimes one that is not.
    values = draw(st.one_of(
        st.lists(st.integers(-min(half, 2 ** 60), min(half, 2 ** 60)),
                 min_size=1, max_size=8),
        st.lists(value, min_size=1, max_size=8)))
    return basis, values


def _limbs(basis, values):
    return [np.array([v % q for v in values], dtype=np.int64)
            for q in basis.primes]


def _must_accept(basis, values) -> bool:
    """Inside both bounds with room to spare: no reason to decline."""
    bound = 2 ** 61
    if basis.size > 1:
        bound = min(bound, (basis.primes[0] * basis.primes[1] - 1) // 2)
    return basis.size == 1 or max(map(abs, values)) <= bound


class TestComposeCenteredWords:
    @settings(deadline=None, max_examples=300)
    @given(composed())
    def test_returns_the_exact_integers_or_declines(self, case):
        basis, values = case
        limbs = _limbs(basis, values)
        exact = basis.compose_centered_vec(limbs)
        assert exact.tolist() == values
        for given_limbs in (limbs, np.stack(limbs)):
            words = basis.compose_centered_words(given_limbs)
            if words is None:
                assert not _must_accept(basis, values)
                continue
            assert words.dtype == np.int64
            assert words.tolist() == values
            assert max(map(abs, values)) < WORD_BOUND

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_one_coefficient_past_the_bound_declines_the_vector(self, pool):
        basis = RnsBasis(POOLS[pool])
        values = [3, -7, WORD_BOUND, 11]
        assert basis.compose_centered_words(_limbs(basis, values)) is None
        values[2] = WORD_BOUND - 1
        got = basis.compose_centered_words(_limbs(basis, values))
        if got is not None:       # two 30-bit digits cannot hold 2**62 - 1
            assert got.tolist() == values
        values[2] = -(2 ** 58)
        assert basis.compose_centered_words(
            _limbs(basis, values)).tolist() == values


def oracle_decrypt(ctx: CkksContext, ct) -> np.ndarray:
    """``ctx.decrypt`` in Python integers: ``c0 + c1 * s`` per limb, the
    oracle's inverse transform and its exact CRT, then ``decode``."""
    moduli = ctx.params.moduli[:ct.level + 1]
    s = ctx.keygen.secret_key.s.at_basis(moduli)
    evals = [(bignum.big(c0) + bignum.mul(c1, sk, q)) % q
             for c0, c1, sk, q in zip(ct.c0.limbs, ct.c1.limbs, s.limbs,
                                      moduli)]
    coeffs = bignum.transform(moduli, evals, "inverse")
    return ctx.encoder.decode(bignum.compose_centered(coeffs, moduli),
                              ct.scale)


class TestDecrypt:
    @pytest.mark.parametrize("backend", ["stacked", "reference"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bytes_equal_the_exact_path(self, preset, backend, monkeypatch):
        params = PRESETS[preset]()
        ctx = CkksContext(params, seed=9, backend=backend)
        values = np.random.default_rng(2).uniform(-1, 1, params.num_slots)
        cts = [ctx.encrypt(values, level=level) for level in (5, 2, 1, 0)]
        # One coefficient near the bound among small ones, either side.
        for peak in (2 ** 58, WORD_BOUND + 2 ** 20):
            coeffs = [peak] + list(range(-50, params.ring_degree - 51))
            cts.append(ctx.encryptor.encrypt(Plaintext(
                coeffs=coeffs, scale=2.0 ** 40, num_slots=params.num_slots)))
        cts.append(ctx.encrypt(values, scale=2.0 ** 80))    # all beyond
        fast = [ctx.decrypt(ct) for ct in cts]
        took = [ctx.decryptor.decrypt_centered(ct).dtype for ct in cts]
        assert took == [np.int64] * 5 + [object] * 2
        oracle = [oracle_decrypt(ctx, ct) for ct in cts]
        monkeypatch.setattr(RnsBasis, "compose_centered_words",
                            lambda self, limbs: None)
        exact = [ctx.decrypt(ct) for ct in cts]
        for a, b, c in zip(fast, exact, oracle, strict=True):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_coefficients_stay_python_integers(self):
        ctx = CkksContext(CkksParameters.toy(), seed=9)
        coeffs = ctx.decryptor.decrypt_to_coeffs(ctx.encrypt([0.5, -1.5]))
        assert all(type(c) is int for c in coeffs)


class TestEncode:
    @pytest.mark.parametrize("bad,error", [
        (float("nan"), ValueError), (float("inf"), OverflowError),
        (float("-inf"), OverflowError)])
    def test_non_finite_input_raises_as_it_always_did(self, bad, error):
        encoder = CkksEncoder(CkksParameters.toy())
        for values in ([bad], [1.0, bad, 2.0]):
            with pytest.raises(error), np.errstate(all="ignore"):
                encoder.encode(values)
        with pytest.raises(error):
            round_coeffs(np.array([0.0, 1.0, bad]))

    floats = st.one_of(
        st.floats(-2.0 ** 70, 2.0 ** 70),
        st.integers(-2 ** 20, 2 ** 20).map(lambda k: k + 0.5),
        st.sampled_from([2.0 ** 62, -(2.0 ** 62), 2.0 ** 62 - 1024,
                         -(2.0 ** 62 - 1024), 2.0 ** 53 + 2, -0.0]))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(floats, min_size=1, max_size=8))
    def test_rounds_as_python_does_in_either_representation(self, values):
        got = round_coeffs(np.array(values))
        want = [int(round(v)) for v in values]
        assert [int(c) for c in got] == want
        if max(map(abs, values)) < WORD_BOUND:
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
        else:
            assert all(type(c) is int for c in got)

    def test_a_constant_is_one_representation_too(self):
        encoder = CkksEncoder(CkksParameters.toy())
        assert encoder.encode_constant(2.5).coeffs.dtype == np.int64
        big = encoder.encode_constant(2.5, scale=2.0 ** 80).coeffs
        assert big[0] == 5 * 2 ** 79 and all(type(c) is int for c in big)


class TestDecode:
    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(st.integers(-WORD_BOUND, WORD_BOUND - 1),
                              st.integers(-2 ** 200, 2 ** 200)),
                    min_size=1, max_size=8))
    def test_integers_decode_as_their_floats_in_any_container(self, values):
        encoder = CkksEncoder(CkksParameters.toy())
        padded = values + [0] * (encoder.params.ring_degree - len(values))
        forms = [padded, np.array(padded, dtype=object)]
        if max(map(abs, values)) < WORD_BOUND:
            forms.append(np.array(padded, dtype=np.int64))
        for scale in (2.0 ** 29, 2.0 ** 50):
            want = encoder.decode([float(c) for c in padded], scale)
            for form in forms:
                assert encoder.decode(form, scale).tobytes() \
                    == want.tobytes()


class TestReduceCoeffs:
    @pytest.mark.parametrize("backend", ["stacked", "reference"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_one_sweep_equals_one_reduction_per_limb(self, preset, backend):
        params = PRESETS[preset]()
        context = CkksContext(params, seed=1, backend=backend).keygen.context
        rng = np.random.default_rng(4)
        small = rng.integers(-WORD_BOUND + 1, WORD_BOUND,
                             size=params.ring_degree)
        small[:4] = [0, -1, WORD_BOUND - 1, -WORD_BOUND + 1]
        big = [int(c) << 20 for c in small]
        for moduli in (params.moduli, params.moduli[:1]):
            for coeffs, lift in ((small, context.from_signed_coeffs),
                                 (small, context.from_big_coeffs),
                                 (small.tolist(), context.from_big_coeffs),
                                 (big, context.from_big_coeffs)):
                poly = lift(coeffs, moduli)
                as_objects = np.array(coeffs, dtype=object)
                for limb, q in zip(poly.limbs, moduli, strict=True):
                    assert limb.dtype == np.int64
                    assert np.array_equal(limb, reduce_vec(as_objects, q))
