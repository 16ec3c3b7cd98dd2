"""Encryption and decryption for RNS-CKKS."""

from __future__ import annotations

import numpy as np

from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .keys import KeyGenerator
from .params import CkksParameters
from .poly import PolyContext, coeff_array
from .rns import RnsBasis


class CkksEncryptor:
    """Public-key encryptor."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator,
                 sigma: float = 3.2):
        self.params = params
        self.keygen = keygen
        self.context: PolyContext = keygen.context
        self.sigma = sigma

    def encrypt(self, plaintext: Plaintext,
                level: int | None = None) -> Ciphertext:
        """Encrypt an encoded plaintext at the given level (default: L)."""
        params = self.params
        level = params.max_level if level is None else level
        moduli = params.moduli[:level + 1]
        pk = self.keygen.public_key
        b = pk.b.at_basis(moduli)
        a = pk.a.at_basis(moduli)
        u = self.context.random_ternary(moduli).to_eval()
        e0 = self.context.gaussian_coeffs(self.sigma)
        e1 = self.context.random_gaussian(moduli, self.sigma).to_eval()
        # e0 and m are both signed coefficients here: one reduction and
        # one transform carry their sum (|m| < 2**62 in int64, so the sum
        # cannot wrap; a bigger m is an object array and cannot either).
        m = self.context.from_signed_coeffs(
            coeff_array(plaintext.coeffs) + e0, moduli)
        c0 = b * u + m.to_eval()
        c1 = a * u + e1
        return Ciphertext(c0=c0, c1=c1, level=level, scale=plaintext.scale)


class CkksDecryptor:
    """Secret-key decryptor."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator):
        self.params = params
        self.keygen = keygen
        self._bases: dict[int, RnsBasis] = {}

    def _basis(self, level: int) -> RnsBasis:
        """CRT tables of {q_0 .. q_level} (built on first use, kept)."""
        basis = self._bases.get(level)
        if basis is None:
            basis = self._bases[level] = RnsBasis(
                list(self.params.moduli[:level + 1]))
        return basis

    def decrypt_centered(self, ct: Ciphertext) -> np.ndarray:
        """m ~ c0 + c1*s as centered coefficients, in one array.

        int64 wherever the data shows every coefficient inside the word
        bound (:meth:`RnsBasis.compose_centered_words`: a message is
        small next to Q), else the exact composition's object-dtype
        array of Python integers — the same integers either way.
        """
        moduli = self.params.moduli[:ct.level + 1]
        s = self.keygen.secret_key.s.at_basis(moduli)
        limbs = (ct.c0 + ct.c1 * s).to_coeff().limbs
        basis = self._basis(ct.level)
        words = basis.compose_centered_words(limbs)
        return basis.compose_centered_vec(limbs) if words is None else words

    def decrypt_to_coeffs(self, ct: Ciphertext) -> list[int]:
        """m ~ c0 + c1*s, returned as centered big-integer coefficients."""
        return self.decrypt_centered(ct).tolist()

    def decrypt(self, ct: Ciphertext, encoder: CkksEncoder) -> np.ndarray:
        """Decrypt and decode to complex slot values."""
        return encoder.decode(self.decrypt_centered(ct), ct.scale)
