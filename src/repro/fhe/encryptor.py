"""Encryption and decryption for RNS-CKKS."""

from __future__ import annotations

import numpy as np

from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .keys import KeyGenerator
from .params import CkksParameters
from .poly import PolyContext
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
        e0 = self.context.random_gaussian(moduli, self.sigma)
        e1 = self.context.random_gaussian(moduli, self.sigma).to_eval()
        # e0 and m are both COEFF here: one transform carries their sum.
        m = self.context.from_big_coeffs(plaintext.coeffs, moduli)
        c0 = b * u + (e0 + m).to_eval()
        c1 = a * u + e1
        return Ciphertext(c0=c0, c1=c1, level=level, scale=plaintext.scale)


class CkksDecryptor:
    """Secret-key decryptor."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator):
        self.params = params
        self.keygen = keygen

    def decrypt_to_coeffs(self, ct: Ciphertext) -> list[int]:
        """m ~ c0 + c1*s, returned as centered big-integer coefficients."""
        moduli = self.params.moduli[:ct.level + 1]
        s = self.keygen.secret_key.s.at_basis(moduli)
        m_eval = ct.c0 + ct.c1 * s
        m_coeff = m_eval.to_coeff()
        basis = RnsBasis(list(moduli))
        centered = basis.compose_centered_vec(m_coeff.limbs)
        return [int(v) for v in centered]

    def decrypt(self, ct: Ciphertext, encoder: CkksEncoder) -> np.ndarray:
        """Decrypt and decode to complex slot values."""
        coeffs = self.decrypt_to_coeffs(ct)
        return encoder.decode(coeffs, ct.scale)
