"""A Python-integer oracle for residue arithmetic, at any word size.

The library keeps every residue in int64 and refuses a modulus of 2**56
or more; this module is what its kernels are held to — and what the
pins recorded with the object-dtype tier it once had are reproduced
by.  Every value is a plain Python ``int`` in an object-dtype array, so
nothing here can overflow or round:

* :func:`mul` — elementwise products;
* :class:`Ntt` — the per-limb negacyclic transform, the butterfly stages
  of ``repro.fhe.ntt.NttContext`` in the same order over the same
  bit-reversed power tables;
* :func:`compose`, :func:`compose_centered`, :func:`convert` and
  :func:`decompose` — the exact CRT.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.fhe.ntt import bit_reverse_permutation
from repro.fhe.primes import primitive_nth_root


def big(values) -> np.ndarray:
    """Integers — an array of any integer dtype or a list — as an
    object array of Python ints."""
    if isinstance(values, np.ndarray):
        return values.astype(object)
    return np.array([int(v) for v in values], dtype=object)


def mul(a, b, q: int) -> np.ndarray:
    """``a * b mod q`` elementwise; ``b`` an array or one integer."""
    return big(np.asarray(a)) * big(np.asarray(b)) % q


class Ntt:
    """``NttContext``'s transform of one limb, in Python integers."""

    def __init__(self, q: int, n: int):
        self.q, self.n = q, n
        psi = primitive_nth_root(q, 2 * n)
        # The root is the code under test's: check it is one of order 2N.
        assert pow(psi, n, q) == q - 1, (q, n)
        rev = bit_reverse_permutation(n).tolist()
        self.psi_rev = big([pow(psi, e, q) for e in rev])
        self.psi_inv_rev = big([pow(psi, -e, q) for e in rev])
        self.n_inv = pow(n, -1, q)

    def forward(self, coeffs) -> np.ndarray:
        """Cooley--Tukey stages, coefficients -> bit-reversed evaluations."""
        q, n = self.q, self.n
        a = big(np.asarray(coeffs)) % q
        t, m = n, 1
        while m < n:
            t //= 2
            block = a.reshape(m, 2 * t)
            u = block[:, :t].copy()
            v = block[:, t:] * self.psi_rev[m:2 * m, None] % q
            block[:, :t] = (u + v) % q
            block[:, t:] = (u - v) % q
            m *= 2
        return a

    def inverse(self, evals) -> np.ndarray:
        """Gentleman--Sande stages and the ``N**-1`` scaling."""
        q, n = self.q, self.n
        a = big(np.asarray(evals)) % q
        t, m = 1, n
        while m > 1:
            h = m // 2
            block = a.reshape(h, 2 * t)
            u = block[:, :t].copy()
            v = block[:, t:].copy()
            block[:, :t] = (u + v) % q
            block[:, t:] = (u - v) * self.psi_inv_rev[h:2 * h, None] % q
            t *= 2
            m = h
        return a * self.n_inv % q


@functools.lru_cache(maxsize=None)
def ntt(q: int, n: int) -> Ntt:
    """The oracle transform for ``(q, n)``, built once."""
    return Ntt(q, n)


def transform(moduli, stack, direction: str) -> np.ndarray:
    """Row i of ``stack`` through the oracle ``forward`` / ``inverse``
    modulo ``moduli[i]``."""
    n = np.shape(stack)[-1]
    return np.stack([getattr(ntt(q, n), direction)(row)
                     for q, row in zip(moduli, stack)])


def compose(limbs, primes) -> np.ndarray:
    """Exact CRT: residue limbs -> the integers in ``[0, Q)``."""
    big_q = math.prod(primes)
    total = sum(big(np.asarray(limb)) * (big_q // q) * pow(big_q // q, -1, q)
                for limb, q in zip(limbs, primes))
    return total % big_q


def compose_centered(limbs, primes) -> np.ndarray:
    """Exact CRT centered into ``(-Q/2, Q/2]``."""
    big_q = math.prod(primes)
    total = compose(limbs, primes)
    return np.where(total > big_q // 2, total - big_q, total)


def convert(limbs, primes, targets) -> list[np.ndarray]:
    """The centered composition reduced modulo each target prime."""
    centered = compose_centered(limbs, primes)
    return [centered % p for p in targets]


def decompose(values, primes) -> list[np.ndarray]:
    """Integers of any size -> one residue limb per prime."""
    values = big(values)
    return [values % q for q in primes]
