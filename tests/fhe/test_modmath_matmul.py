"""``BoundModMatmul`` against Python integers.

The kernel computes ``A @ X mod q_i`` (one modulus per output row) as
float64 matrix products over split words and recombines the partial sums
through a float64 quotient estimate.  Its two claims are checked here on
every instance built: the 2**53 bound, recomputed from the plan, and the
estimate's distance from the true quotient — read off the kernel's own
``np.rint`` call and compared in exact rationals, on random operands, on
the largest possible products (every entry and every operand at
``q - 1``) and on columns constructed so that the exact sum lands on
``m * q - 1``, ``m * q`` and ``m * q + 1``, where a quotient off by more
than the kernel allows would wrap the remainder.  Every product is
compared with the same sum in Python integers.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.modmath import BoundModMatmul, MATMUL_MAX_WORDS
from repro.fhe.primes import is_prime

WIDTHS = [1, 3, 4, 9, 10, 33]
COLUMNS = 12


def prime_at(bits: int, start: int) -> int:
    """The first ``bits``-bit prime at or after the start-th odd one."""
    lo, hi = 1 << (bits - 1), 1 << bits
    q = lo + 2 * (start % ((hi - lo) // 2)) + 1
    while not is_prime(q):
        q = q + 2 if q + 2 < hi else lo + 1
    return q


@st.composite
def instances(draw):
    width = draw(st.sampled_from(WIDTHS))
    moduli = [prime_at(draw(st.integers(32, 55)),
                       draw(st.integers(0, 1 << 40)))
              for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        # A narrow row beside the wide ones: the quotient of the largest
        # sums over the smallest modulus.
        moduli.insert(draw(st.integers(0, len(moduli))),
                      prime_at(draw(st.integers(12, 31)),
                               draw(st.integers(0, 1 << 28))))
    return width, tuple(dict.fromkeys(moduli)), draw(st.integers(0, 1 << 32))


def assert_plan(kernel: BoundModMatmul, q_max: int) -> None:
    pieces, bits = kernel.pieces, kernel.bits
    table_pieces, table_bits = kernel.table_pieces, kernel.table_bits
    word = (q_max - 1).bit_length()
    assert 1 <= pieces <= MATMUL_MAX_WORDS >= table_pieces >= 1
    assert pieces * bits >= word and table_pieces * table_bits >= word
    table_max = q_max - 1 if table_pieces == 1 else (1 << table_bits) - 1
    assert pieces * kernel.width * ((1 << bits) - 1) * table_max < 1 << 53
    # One word fewer on either side would not do.
    for fewer_pieces, fewer_table in ((pieces - 1, table_pieces),
                                      (pieces, table_pieces - 1)):
        if fewer_pieces and fewer_table:
            b, tb = -(-word // fewer_pieces), -(-word // fewer_table)
            t_max = q_max - 1 if fewer_table == 1 else (1 << tb) - 1
            assert fewer_pieces * kernel.width * ((1 << b) - 1) * t_max \
                >= 1 << 53


def exact(kernel, matrix, operands, moduli) -> tuple[np.ndarray, np.ndarray]:
    """In Python integers: the sums the kernel's partial products add up
    to — entry ``A * 2**(p * bits) mod q`` times word p of the operand,
    over all p — and ``matrix @ operands`` reduced per row, which they
    must be congruent to."""
    pieces, bits = kernel.pieces, kernel.bits
    a, x = matrix.astype(object), operands.astype(object)
    q_col = np.array(moduli, dtype=object).reshape(-1, 1)
    sums = 0
    for p in range(pieces):
        word = x >> (p * bits)
        if p < pieces - 1:
            word = word & ((1 << bits) - 1)
        sums = sums + ((a << (p * bits)) % q_col) @ word
    want = (a @ x) % q_col
    assert np.array_equal(sums % q_col, want)
    return sums, want.astype(np.int64)


class Estimates:
    """Captures the quotient estimates ``BoundModMatmul._multiply``
    rounds — and no other ``np.rint``: building a table multiplies
    through ``_mulmod_f64``, which rounds estimates of its own."""

    def __init__(self, monkeypatch):
        self.seen = []
        inside = []
        rint = np.rint
        multiply = BoundModMatmul._multiply

        def capturing(x, *args, **kwargs):
            if inside:
                self.seen.append(x.copy())
            return rint(x, *args, **kwargs)

        def multiplying(kernel, *args):
            inside.append(kernel)
            try:
                return multiply(kernel, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(np, "rint", capturing)
        monkeypatch.setattr(BoundModMatmul, "_multiply", multiplying)

    def assert_within(self, sums, moduli) -> None:
        """Every estimate within 1/4 of the true ``y / q`` — so the
        integer it rounds to is within 1 of ``floor(y / q)``."""
        estimate = self.seen.pop().reshape(sums.shape)
        assert not self.seen
        for row, est_row, q in zip(sums, estimate, moduli):
            for y, est in zip(row, est_row):
                assert abs(Fraction(float(est)) - Fraction(int(y), q)) \
                    < Fraction(1, 4)
                assert abs(round(float(est)) - int(y) // q) <= 1


def check(kernel, matrix, operands, moduli, estimates) -> None:
    """``matrix @ operands`` with row i modulo ``moduli[i]``, from the
    left as the base conversions multiply (one 2-D table) and from the
    right as the NTT's last step does (one ``K x 1`` table per modulus,
    a batch)."""
    q_col = np.array(moduli, dtype=np.int64).reshape(-1, 1)
    sums, want = exact(kernel, matrix, operands, moduli)
    split = kernel.table_pieces > 1
    got = kernel.left(kernel.table(matrix, moduli, -1), operands, q_col,
                      1.0 / q_col)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if split:
        estimates.assert_within(sums, moduli)
    batch = (len(moduli),) + operands.T.shape
    got = kernel.right(np.broadcast_to(operands.T, batch),
                       kernel.table(matrix[:, :, None], moduli, -2),
                       q_col, 1.0 / q_col)
    assert got.dtype == np.int64 and np.array_equal(got[:, :, 0], want)
    if split:
        estimates.assert_within(sums, moduli)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_products_match_python_integers(estimates, case):
    width, moduli, seed = case
    q_max = max(moduli)
    kernel = BoundModMatmul(q_max, width)
    assert_plan(kernel, q_max)
    rng = np.random.default_rng(seed)
    q_col = np.array(moduli, dtype=np.int64).reshape(-1, 1)
    matrix = rng.integers(0, q_col, size=(len(moduli), width),
                          dtype=np.int64)
    reduced = rng.integers(0, q_max, size=(width, COLUMNS), dtype=np.int64)
    check(kernel, matrix, reduced, moduli, estimates)
    # Signed operands: the centered residues both base conversions pass.
    check(kernel, matrix, reduced - np.where(reduced > q_max // 2, q_max, 0),
          moduli, estimates)
    # The largest sums the bound admits, and their negatives.
    top = np.broadcast_to(q_col - 1, matrix.shape).copy()
    full = np.full((width, 2), q_max - 1, dtype=np.int64)
    full[:, 1] = -(q_max // 2)
    check(kernel, top, full, moduli, estimates)
    # Columns whose exact sum is m * q - 1, m * q, m * q + 1 in one row:
    # entry 0 of that row is 1, operand 0 makes up the difference.
    edges = matrix.copy()
    edges[:, 0] = 1
    operands = rng.integers(0, q_max, size=(width, 3 * len(moduli)),
                            dtype=np.int64)
    for column in range(operands.shape[1]):
        row, target = divmod(column, 3)
        rest = sum(int(a) * int(x) for a, x in
                   zip(edges[row, 1:], operands[1:, column]))
        operands[0, column] = (target - 1 - rest) % moduli[row]
    sums, _ = exact(kernel, edges, operands, moduli)
    for column in range(operands.shape[1]):
        row, target = divmod(column, 3)
        assert int(sums[row][column]) % moduli[row] \
            == (target - 1) % moduli[row]
    check(kernel, edges, operands, moduli, estimates)


@pytest.fixture(scope="module")
def estimates():
    """One ``np.rint`` capture for the whole hypothesis run (a
    function-scoped fixture is not reset between examples)."""
    with pytest.MonkeyPatch.context() as patch:
        yield Estimates(patch)
