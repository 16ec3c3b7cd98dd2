"""Encryption and decryption for RNS-CKKS.

Whoever encrypts holds the secret key (it decrypts with it), so
encryption is the key owner's secret-key form; there is no public key.
"""

from __future__ import annotations

import numpy as np

from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .keys import KeyGenerator
from .params import CkksParameters
from .poly import PolyContext, Polynomial, coeff_array
from .rns import RnsBasis


class CkksEncryptor:
    """Secret-key encryptor."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator,
                 sigma: float = 3.2):
        self.params = params
        self.keygen = keygen
        self.context: PolyContext = keygen.context
        self.sigma = sigma

    def encrypt(self, plaintext: Plaintext,
                level: int | None = None) -> Ciphertext:
        """``(NTT(m + e) - a*s, a)`` at ``level`` (default: L).

        ``a`` is drawn uniform straight in EVAL form, so the one forward
        transform is of ``m + e``, and ``c0 + c1*s`` is exactly that.
        """
        params = self.params
        level = params.max_level if level is None else level
        if not 0 <= level <= params.max_level:
            raise ValueError(f"level {level} is outside "
                             f"[0, max_level={params.max_level}]")
        moduli = params.moduli[:level + 1]
        a = self.context.random_uniform(moduli)
        e = self.context.gaussian_coeffs(self.sigma)
        # e and m are both signed coefficients here: one reduction and
        # one transform carry their sum (|m| < 2**62 in int64, so the sum
        # cannot wrap; a bigger m is an object array and cannot either).
        m = self.context.from_signed_coeffs(
            coeff_array(plaintext.coeffs) + e, moduli).to_eval()
        s = self.keygen.secret_key.s.at_basis(moduli)
        return Ciphertext(c0=m - a * s, c1=a, level=level,
                          scale=plaintext.scale)


class CkksDecryptor:
    """Secret-key decryptor.

    Decrypts with ``(1, s)``, or with ``(1, s, s^2)`` a degree-2 product
    that was never relinearized (a ciphertext with ``c2``); s^2 is made
    once per level and kept.
    """

    def __init__(self, params: CkksParameters, keygen: KeyGenerator):
        self.params = params
        self.keygen = keygen
        self._bases: dict[int, RnsBasis] = {}
        self._s_squares: dict[int, Polynomial] = {}

    def _basis(self, level: int) -> RnsBasis:
        """CRT tables of {q_0 .. q_level} (built on first use, kept)."""
        basis = self._bases.get(level)
        if basis is None:
            basis = self._bases[level] = RnsBasis(
                list(self.params.moduli[:level + 1]))
        return basis

    def _s_squared(self, level: int, s: Polynomial) -> Polynomial:
        """s^2 over {q_0 .. q_level}, EVAL (made on first use, kept)."""
        square = self._s_squares.get(level)
        if square is None:
            square = self._s_squares[level] = s * s
        return square

    def decrypt_centered(self, ct: Ciphertext) -> np.ndarray:
        """m ~ c0 + c1*s (+ c2*s^2) as centered coefficients, in one
        array.

        int64 wherever the data shows every coefficient inside the word
        bound (:meth:`RnsBasis.compose_centered_words`: a message is
        small next to Q), else the exact composition's object-dtype
        array of Python integers — the same integers either way.
        """
        moduli = self.params.moduli[:ct.level + 1]
        s = self.keygen.secret_key.s.at_basis(moduli)
        m = ct.c0 + ct.c1 * s
        if ct.c2 is not None:
            m = m + ct.c2 * self._s_squared(ct.level, s)
        limbs = m.to_coeff().limbs
        basis = self._basis(ct.level)
        words = basis.compose_centered_words(limbs)
        return basis.compose_centered_vec(limbs) if words is None else words

    def decrypt_to_coeffs(self, ct: Ciphertext) -> list[int]:
        """m ~ c0 + c1*s (+ c2*s^2), returned as centered big-integer
        coefficients."""
        return self.decrypt_centered(ct).tolist()

    def decrypt(self, ct: Ciphertext, encoder: CkksEncoder) -> np.ndarray:
        """Decrypt and decode to complex slot values."""
        return encoder.decode(self.decrypt_centered(ct), ct.scale)
