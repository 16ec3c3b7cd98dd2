"""The division's lift is the exact centered CRT lift.

``Division.lift`` (:mod:`repro.fhe.rns`) evaluates
``sum_j y_j * hat{p}_j - e * D mod q_i`` as one split-word matmul with
the quotient ``e = round(sum_j y_j / p_j)`` taken from a float64 sum and,
in a guard band around the half-integers, from Python integers.  It is
held here, on ModDown's division (``D = P``), to
``RnsBasis.convert_exact`` (what the reference backend runs) and to the
definition — the big integer itself, centered, reduced modulo each
target prime.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe import CkksParameters, PolyContext
from repro.fhe.rns import KeySwitchContext, RnsBasis, division

PRESETS = {"toy": CkksParameters.toy(), "boot_test": CkksParameters.boot_test()}


def lift_setup(params: CkksParameters):
    """The top-level key-switch tables and ModDown's division."""
    backend = PolyContext(params, seed=1, backend="stacked").backend
    ksctx = backend.keyswitch_context(params.max_level)
    return ksctx, division(ksctx.extended, ksctx.num_ct)


def special_stack(values: list[int], ksctx: KeySwitchContext) -> np.ndarray:
    """Residues of big integers over the special primes, one row each."""
    return np.array([[x % p for x in values] for p in ksctx.special_moduli],
                    dtype=np.int64)


def centered_crt(values: list[int], ksctx: KeySwitchContext) -> np.ndarray:
    """The definition: center in (-P/2, P/2], reduce modulo each q_i."""
    p_prod = ksctx.p_prod
    lifted = [x - p_prod if x > p_prod // 2 else x for x in values]
    return np.array([[v % q for v in lifted] for q in ksctx.ct_moduli],
                    dtype=np.int64)


def random_values(seed: int, count: int, p_prod: int) -> list[int]:
    """Big integers spread over [0, P) (P has up to 248 bits here)."""
    rng = np.random.default_rng(seed)
    return [int(x) ** 17 % p_prod
            for x in rng.integers(1 << 61, 1 << 62, size=count)]


def boundary_values(p_prod: int) -> list[int]:
    half = (p_prod - 1) // 2
    return [0, 1, half - 1, half, half + 1, half + 2, p_prod - 1]


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestExactLift:
    def test_presets_take_the_matmul(self, preset):
        ksctx, moddown = lift_setup(PRESETS[preset])
        n, k = ksctx.num_ct, len(ksctx.special_moduli)
        kernel = moddown.lift_matmul
        assert (kernel.width, kernel.table_pieces) == (k + 1, 1)
        table, = moddown.lift_table
        assert table.shape == (n, kernel.pieces * (k + 1))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_convert_exact_and_the_definition(self, preset, data):
        ksctx, moddown = lift_setup(PRESETS[preset])
        values = data.draw(st.lists(st.integers(0, ksctx.p_prod - 1),
                                    min_size=1, max_size=24))
        special = special_stack(values, ksctx)
        got = moddown.lift(special)
        assert got.dtype == np.int64
        assert np.array_equal(got, centered_crt(values, ksctx))
        assert np.array_equal(got, np.stack(moddown.basis.convert_exact(
            list(special), list(ksctx.ct_moduli))))

    def test_half_integer_quotients_take_the_integer_fallback(
            self, preset, monkeypatch):
        """Around +-P/2 the quotient sum sits within 1/(2P) of a
        half-integer, far inside the guard band: float64 cannot round it,
        the Python-integer rule must — and only there."""
        ksctx, moddown = lift_setup(PRESETS[preset])
        values = random_values(11, 40, ksctx.p_prod)
        positions = [0, 5, 6, 17, 18, 31, 39]
        for position, x in zip(positions, boundary_values(ksctx.p_prod)):
            values[position] = x
        flagged = []
        round_quotient = RnsBasis.round_quotient

        def counting(self, columns):
            flagged.append(columns.shape[1])
            return round_quotient(self, columns)

        monkeypatch.setattr(RnsBasis, "round_quotient", counting)
        got = moddown.lift(special_stack(values, ksctx))
        # (P-1)/2 - 1 .. (P+1)/2 + 1; 0, 1 and P - 1 sit at integers.
        assert flagged == [4]
        assert np.array_equal(got, centered_crt(values, ksctx))


class TestOverflowBound:
    """33 special primes at the 30-bit word: a row of an int64 matmul
    could reach 33 * 2**30 * 2**29 > 2**63, which once left this lift to
    ``convert_exact``.  Split into words it is bounded like any other."""

    PARAMS = CkksParameters._build(ring_degree=1 << 8, scale_bits=29,
                                   prime_bits=30, max_level=31, dnum=1,
                                   boot_levels=4, fft_iterations=2)

    def test_the_lift_stays_exact_past_the_int64_row_sum(self):
        ksctx, moddown = lift_setup(self.PARAMS)
        assert len(ksctx.special_moduli) == 33
        assert moddown.lift_matmul.pieces == 3
        values = random_values(17, 16, ksctx.p_prod)
        values[:7] = boundary_values(ksctx.p_prod)
        got = moddown.lift(special_stack(values, ksctx))
        assert np.array_equal(got, centered_crt(values, ksctx))
