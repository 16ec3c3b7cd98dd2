"""CKKS encoder: complex message vectors <-> ring elements (paper sec 2.2).

Messages m in C^n (n = N/2 slots) are mapped onto real-coefficient
polynomials through the canonical embedding: slot j corresponds to
evaluation at zeta^{5^j}, where zeta = exp(i*pi/N) is a primitive 2N-th
root of unity.  The power-of-5 indexing is what makes slot rotation
correspond to the automorphism x -> x^(5^r) (paper's psi_r).

Both directions run in O(N log N) through a length-2N complex FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import CkksParameters
from .poly import PolyContext, Polynomial, Representation
from .rns import WORD_BOUND


def round_coeffs(coeffs: np.ndarray) -> np.ndarray | list[int]:
    """Round float coefficients to integers, ties to even.

    One int64 array where every coefficient is inside
    :data:`~repro.fhe.rns.WORD_BOUND`: ``np.rint`` rounds as Python's
    ``round`` does and a float of that size converts to int64 exactly,
    so the array holds the integers ``int(round(c))`` would.  Anything
    else — a coefficient at or past the bound, NaN (every comparison
    with it is false), an infinity — takes the per-coefficient path,
    which grows without bound and raises on a non-finite value instead
    of wrapping it.
    """
    if np.abs(coeffs).max() < WORD_BOUND:
        return np.rint(coeffs).astype(np.int64)
    return [int(round(c)) for c in coeffs]


@dataclass
class Plaintext:
    """Encoded message: signed integer coefficients plus its scale.

    ``coeffs`` is one int64 array wherever every coefficient fits the
    wire format (:data:`~repro.fhe.rns.WORD_BOUND`), a list of Python
    integers beyond (:func:`round_coeffs`).

    A plaintext that is an *operand* of PolyAdd / PolyMult is needed in
    EVAL form over the ciphertext's basis.  :meth:`as_eval` prepares that
    once per ``(basis, backend name, domain)`` and keeps the limb data on
    the plaintext itself, as backend-native storage rather than as a
    :class:`~repro.fhe.poly.Polynomial`: a recorded payload lives on a
    plan shared by every tenant of the process, and must not pin the
    :class:`~repro.fhe.poly.PolyContext` (keys' RNG, backend tables) of
    whichever tenant replayed it first.  The cache lives exactly as long
    as the plaintext; its size is one ``(limbs, N)`` array per entry.
    """

    coeffs: np.ndarray | list[int]
    scale: float
    num_slots: int
    _prepared: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __len__(self) -> int:
        return len(self.coeffs)

    def as_eval(self, context: PolyContext, moduli: tuple[int, ...],
                mont: bool = False) -> Polynomial:
        """This plaintext over ``moduli`` in EVAL form, in ``context``.

        ``mont=True`` gives the Montgomery-domain operand PolyMult wants.
        The lift + NTT (+ domain conversion) runs on first use; later
        calls — every replay of a recorded plan, on any tenant's context
        with the same backend — wrap the stored limbs, which are shared
        and must be treated as read-only like all kernel inputs.  Two
        threads that miss together both compute the same integers; the
        second store wins and nothing is lost.
        """
        key = (moduli, context.backend.name, mont)
        data = self._prepared.get(key)
        if data is None:
            poly = context.from_big_coeffs(self.coeffs, moduli).to_eval()
            data = (poly.to_mont() if mont else poly).data
            self._prepared[key] = data
        return Polynomial(context, data, moduli, Representation.EVAL,
                          mont=mont)


class CkksEncoder:
    """Encoder/decoder for one parameter set."""

    def __init__(self, params: CkksParameters):
        self.params = params
        n = params.num_slots
        two_n = 2 * params.ring_degree
        # Slot j evaluates at exponent 5^j mod 2N.
        exps = np.empty(n, dtype=np.int64)
        e = 1
        for j in range(n):
            exps[j] = e
            e = (e * 5) % two_n
        self.slot_exponents = exps

    def encode(self, values: np.ndarray | list[complex],
               scale: float | None = None) -> Plaintext:
        """Encode up to n complex values into a plaintext polynomial.

        Shorter inputs are zero-padded.  The inverse embedding is computed
        exactly (up to double rounding) via a 2N-point FFT, then scaled by
        ``scale`` and rounded to integers.
        """
        params = self.params
        scale = float(scale if scale is not None else params.scale)
        n = params.num_slots
        vec = np.zeros(n, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128)
        if len(values) > n:
            raise ValueError(f"too many values: {len(values)} > {n} slots")
        vec[:len(values)] = values
        two_n = 2 * params.ring_degree
        spread = np.zeros(two_n, dtype=np.complex128)
        spread[self.slot_exponents] = vec
        # a_k = (2*scale/N) * Re( sum_j z_j * zeta^{-e_j k} ), k < N.
        transform = np.fft.fft(spread)[:params.ring_degree]
        coeffs_float = (2.0 * scale / params.ring_degree) * transform.real
        return Plaintext(coeffs=round_coeffs(coeffs_float), scale=scale,
                         num_slots=n)

    def decode(self, coeffs: np.ndarray | list[int] | list[float],
               scale: float) -> np.ndarray:
        """Decode signed polynomial coefficients back to n complex slots."""
        params = self.params
        two_n = 2 * params.ring_degree
        arr = np.zeros(two_n, dtype=np.complex128)
        # An int64 array, or Python integers of any size as a list or an
        # object array: each rounds to nearest-even, as float(int) does.
        arr[:params.ring_degree] = coeffs
        # z_j = conj( FFT_{2N}(a)[e_j] ) / scale  for real a.
        transform = np.fft.fft(arr)
        return np.conj(transform[self.slot_exponents]) / scale

    def encode_constant(self, value: float, scale: float | None = None
                        ) -> Plaintext:
        """Encode the all-``value`` vector: a constant polynomial.

        A constant vector embeds as the constant polynomial
        ``round(scale*value)``, which is why ScalarAdd/ScalarMult can fetch
        the operand from the register file (paper Table 2 discussion).
        """
        params = self.params
        scale = float(scale if scale is not None else params.scale)
        coeffs = np.zeros(params.ring_degree)
        coeffs[0] = scale * value
        return Plaintext(coeffs=round_coeffs(coeffs), scale=scale,
                         num_slots=params.num_slots)
