"""CKKS RNS-FHE substrate (paper section 2.2).

Public API::

    from repro.fhe import CkksContext
    ctx = CkksContext.test()
    ct = ctx.encrypt([1.0, 2.0, 3.0])
    ct2 = ctx.evaluator.he_mult(ct, ct)
    values = ctx.decrypt(ct2)
"""

from __future__ import annotations

import numpy as np

from .backend import (ComputeBackend, available_backends, create_backend,
                      register_backend, resolve_backend_name)
from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .encryptor import CkksDecryptor, CkksEncryptor
from .evaluator import CkksEvaluator
from .keys import KeyGenerator, SecretKey, SwitchingKey
from .noise import circuit_depth
from .packing import SlotLayout
from .params import CkksParameters
from .poly import (PolyContext, Polynomial, Representation,
                   rotation_galois_element, conjugation_galois_element)
from .rns import KeySwitchContext, RnsBasis

__all__ = [
    "Ciphertext", "CkksContext", "CkksDecryptor", "CkksEncoder",
    "CkksEncryptor", "CkksEvaluator", "CkksParameters", "ComputeBackend",
    "KeyGenerator", "KeySwitchContext", "Plaintext",
    "PolyContext", "Polynomial", "Representation", "RnsBasis", "SecretKey",
    "SlotLayout", "SwitchingKey",
    "available_backends",
    "circuit_depth", "conjugation_galois_element", "create_backend",
    "register_backend", "resolve_backend_name", "rotation_galois_element",
]


class CkksContext:
    """Convenience bundle: parameters, keys, encoder, encryptor, evaluator.

    This is the quickstart entry point; the individual classes remain fully
    usable on their own.
    """

    def __init__(self, params: CkksParameters, seed: int | None = 2023,
                 hamming_weight: int = 64, backend: str | None = None):
        self.params = params
        self.keygen = KeyGenerator(params, seed=seed,
                                   hamming_weight=hamming_weight,
                                   backend=backend)
        self.encoder = CkksEncoder(params)
        self.encryptor = CkksEncryptor(params, self.keygen)
        self.decryptor = CkksDecryptor(params, self.keygen)
        self.evaluator = CkksEvaluator(params, self.keygen, self.encoder)

    @classmethod
    def toy(cls, seed: int | None = 2023) -> "CkksContext":
        """Smallest context (N=2^10) for demos and fast tests."""
        return cls(CkksParameters.toy(), seed=seed)

    @classmethod
    def test(cls, seed: int | None = 2023) -> "CkksContext":
        """Mid-size context (N=2^12) for examples and workloads."""
        return cls(CkksParameters.test(), seed=seed)

    @classmethod
    def bootstrappable(cls, seed: int | None = 2023) -> "CkksContext":
        """Deep context for the functional bootstrap demo.

        Uses a sparse secret (h=12) so the raised-coefficient range fits
        the default EvalMod K=8 bound.
        """
        return cls(CkksParameters.boot_test(), seed=seed, hamming_weight=12)

    def encrypt(self, values, level: int | None = None,
                scale: float | None = None) -> Ciphertext:
        """Encode + encrypt a vector of (complex) numbers."""
        pt = self.encoder.encode(values, scale)
        return self.encryptor.encrypt(pt, level)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt + decode back to complex slot values."""
        return self.decryptor.decrypt(ct, self.encoder)

    def bootstrapper(self, config=None):
        """A :class:`~repro.fhe.bootstrap.Bootstrapper` wired to this
        context's parameters, keys, encoder and evaluator.

        ``config`` is an optional
        :class:`~repro.fhe.bootstrap.BootstrapConfig`.
        """
        from .bootstrap import Bootstrapper
        return Bootstrapper(self.params, self.keygen, self.encoder,
                            self.evaluator, config=config)
