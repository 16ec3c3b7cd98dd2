"""The :class:`ComputeBackend` interface.

A compute backend owns the *storage layout* and the *kernels* for RNS
polynomial limb data.  :class:`~repro.fhe.poly.Polynomial` stores whatever
the backend's :meth:`ComputeBackend.as_native` returns and routes every ring
operation through the backend, so swapping backends never changes results —
only how the per-limb kernels are scheduled (per-limb loops or one batched
sweep over a limb stack).

Backends must be **bit-exact** with each other: all kernels are exact
integer arithmetic, so any divergence is a bug (and is cross-checked by
``tests/fhe/test_backend_equivalence.py``).

Storage contract
----------------
``data`` below is backend-native limb storage for one polynomial over an
ordered RNS basis ``moduli``:

* the :class:`~repro.fhe.backend.reference.ReferenceBackend` keeps a list of
  1-D residue arrays (the seed layout),
* the :class:`~repro.fhe.backend.stacked.StackedBackend` keeps one
  ``(limbs, N)`` 2-D array.

Kernels never mutate their inputs; they return fresh storage (row views
returned by :meth:`to_limbs` must therefore be treated as read-only by
callers that want to keep the original polynomial intact).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..modmath import reduce_vec
from ..ntt import NttContext, ntt_context
from ..rns import KeySwitchContext


class ComputeBackend(abc.ABC):
    """Kernel + storage provider for RNS limb data (see module docstring)."""

    #: Registry name; filled in by ``@register_backend``.
    name: str = "?"

    def __init__(self, params):
        self.params = params
        self._ks_cache: dict[int, KeySwitchContext] = {}

    # -- storage ---------------------------------------------------------

    @abc.abstractmethod
    def as_native(self, limbs: Any, moduli: tuple[int, ...]) -> Any:
        """Coerce a list of per-limb arrays (or native storage) to native."""

    @abc.abstractmethod
    def to_limbs(self, data: Any, moduli: tuple[int, ...]) -> list[np.ndarray]:
        """Per-limb view of native storage (list of 1-D arrays)."""

    @abc.abstractmethod
    def copy(self, data: Any) -> Any:
        """Deep copy of native storage."""

    @abc.abstractmethod
    def select_limbs(self, data: Any, picks: "list[int] | range") -> Any:
        """Native storage restricted to the given limb indices, in order."""

    @abc.abstractmethod
    def concat_limbs(self, parts: list[Any]) -> Any:
        """Native storage holding the limbs of ``parts``, in order."""

    def reduce_coeffs(self, coeffs: np.ndarray,
                      moduli: tuple[int, ...]) -> Any:
        """Native COEFF storage of one signed coefficient vector: limb i
        is ``coeffs mod moduli[i]`` (int64 or object-dtype input)."""
        return self.as_native([reduce_vec(coeffs, q) for q in moduli],
                              moduli)

    # -- elementwise kernels ---------------------------------------------

    @abc.abstractmethod
    def add(self, a: Any, b: Any, moduli: tuple[int, ...]) -> Any:
        """Elementwise modular addition, limb i modulo ``moduli[i]``."""

    @abc.abstractmethod
    def sub(self, a: Any, b: Any, moduli: tuple[int, ...]) -> Any:
        """Elementwise modular subtraction."""

    @abc.abstractmethod
    def neg(self, a: Any, moduli: tuple[int, ...]) -> Any:
        """Elementwise modular negation."""

    @abc.abstractmethod
    def mul(self, a: Any, b: Any, moduli: tuple[int, ...]) -> Any:
        """Elementwise (pointwise) modular multiplication."""

    @abc.abstractmethod
    def scalar_mul(self, a: Any, scalars: list[int],
                   moduli: tuple[int, ...]) -> Any:
        """Multiply limb i by the integer ``scalars[i]``."""

    @abc.abstractmethod
    def scalar_add(self, a: Any, scalars: list[int],
                   moduli: tuple[int, ...]) -> Any:
        """Add the integer ``scalars[i]`` to every residue of limb i."""

    # -- transforms -------------------------------------------------------

    def ntt_context(self, q: int) -> NttContext:
        """Per-modulus NTT tables: built once per process, read-only,
        shared by every backend (:func:`repro.fhe.ntt.ntt_context`)."""
        return ntt_context(q, self.params.ring_degree)

    @abc.abstractmethod
    def ntt_forward(self, data: Any, moduli: tuple[int, ...]) -> Any:
        """Negacyclic NTT of every limb: coefficient -> evaluation form.

        Limbs may hold any integers (signed centered lifts included);
        each is reduced modulo its own prime before the first stage.
        """

    @abc.abstractmethod
    def ntt_inverse(self, data: Any, moduli: tuple[int, ...]) -> Any:
        """Inverse negacyclic NTT of every limb."""

    @abc.abstractmethod
    def automorphism(self, data: Any, moduli: tuple[int, ...],
                     src: np.ndarray, flip: np.ndarray | None) -> Any:
        """Apply x -> x^g as a signed gather, in either representation.

        Entry i of every output limb is entry ``src[i]`` of the input
        limb, negated at the positions listed in ``flip``.  The tables
        (:func:`repro.fhe.poly.galois_tables`) decide the representation:
        COEFF storage takes the coefficient permutation with its
        negacyclic sign flips and returns COEFF storage; EVAL storage
        takes the evaluation-point permutation with ``flip=None`` — no
        arithmetic at all — and returns EVAL storage.
        """

    # -- the division ----------------------------------------------------
    #
    # Rescale divides by q_l, ModDown by P, and a rescaled key switch by
    # P * q_l: each is round(x / D) for D the product of the trailing
    # limbs of a basis, one kernel per backend.

    @abc.abstractmethod
    def divide_round(self, data: list[Any], moduli: tuple[int, ...],
                     keep: int) -> list[Any]:
        """Exact RNS divide-and-round, EVAL to EVAL.

        ``data`` holds evaluation-form storage over ``moduli``, one per
        component of a ciphertext; each result is evaluation-form storage
        over ``moduli[:keep]`` holding ``round(x / D)``, where ``D`` is
        the product of the dropped primes ``moduli[keep:]``:
        ``(x - lift) * D^{-1} mod q_i`` with ``lift`` the exact centered
        lift of ``[x]_D`` (:class:`~repro.fhe.rns.Division`, whose tables
        :func:`~repro.fhe.rns.division` caches per process).  Only the
        dropped rows are taken to coefficient form, every component's in
        one :meth:`ntt_inverse` call; their lifts come back through one
        :meth:`ntt_forward` call over the kept rows and the subtract and
        scaling run on evaluations (the NTT is linear per limb).
        """

    def rescale_last(self, data: list[Any],
                     moduli: tuple[int, ...]) -> list[Any]:
        """Rescale: divide by the last modulus, ``round(x / q_last)`` over
        ``moduli[:-1]`` (:meth:`divide_round`, one dropped prime)."""
        return self.divide_round(data, tuple(moduli), len(moduli) - 1)

    # -- key switching -----------------------------------------------------
    #
    # The hybrid KeySwitch datapath (digit decompose -> ModUp -> key product
    # -> ModDown) is the dominant FHE kernel; its per-level constants come
    # from a cached KeySwitchContext and the three ops below run entirely in
    # backend-native storage.  ModUp uses *centered* digit residues, which
    # makes the raised digits commute exactly with negacyclic automorphisms
    # (the property rotation hoisting relies on) and halves the conversion
    # overshoot.

    def keyswitch_context(self, level: int) -> KeySwitchContext:
        """Per-level key-switching tables (built lazily, cached)."""
        ksctx = self._ks_cache.get(level)
        if ksctx is None:
            ksctx = KeySwitchContext(self.params, level)
            self._ks_cache[level] = ksctx
        return ksctx

    def digit_decompose(self, data: Any, ksctx: KeySwitchContext) -> list[Any]:
        """Split storage over ``ksctx.ct_moduli`` into its digits.

        Digit j is the limb range ``ksctx.digit_spans[j]`` as it stands —
        the residue ``[x]_{Q_j}``, unscaled, because the switching key
        carries the CRT idempotent ``1_j`` instead (:mod:`repro.fhe.keys`).
        Returns one native storage per digit (over that digit's
        sub-basis), a slice of ``data``: COEFF storage gives the digits
        ModUp converts, EVAL storage their evaluations — the raised
        digits' rows on their own primes
        (:func:`repro.fhe.keys.raise_digits`).
        """
        return [self.select_limbs(data, range(start, stop))
                for start, stop in ksctx.digit_spans]

    @abc.abstractmethod
    def mod_up(self, digit: Any, digit_index: int,
               ksctx: KeySwitchContext) -> Any:
        """Raise one digit to the full extended basis C_l + P.

        Approximate base conversion with centered residues: for each target
        prime p the result is ``sum_i c_i * (hat{q}_i mod p) mod p`` where
        ``c_i`` is the centered lift of ``[d_i * hat{q}_i^{-1}]_{q_i}``.
        The output equals ``x + e*Q_j mod p`` with ``|e| <= |digit|/2``;
        key switching absorbs the overshoot in ModDown.
        """

    def mod_down(self, data: list[Any], ksctx: KeySwitchContext,
                 plus: list[Any] | None = None) -> list[Any]:
        """ModDown: divide extended-basis storage by P, back to C_level.

        ``data`` holds one evaluation-form storage over ``ksctx.extended``
        per component of a ciphertext, and the result one per component
        over ``ksctx.ct_moduli``: ``round(x / P)``, the
        :meth:`divide_round` of C_l + P that keeps C_l.

        ``plus`` (one storage over ``ksctx.ct_moduli`` per component,
        level >= 1) fuses a rescale: each result is
        ``round((d + round(x / P)) / q_l)`` over C_{l-1}, which is
        ``round(Z / (P * q_l))`` for ``Z = x + P * d`` — exact, because
        both roundings take centered lifts and P and q_l are odd.  Z is
        x on the special primes, and ``extended[l:]`` is the run
        ``q_l, p_1 .. p_k``, so ``P * q_l`` is again the trailing limbs:
        the division of C_l + P that keeps C_{l-1}, l + 1 forward rows
        and two transform calls per component fewer than ModDown then
        rescale.
        """
        n = ksctx.num_ct
        if plus is None:
            return self.divide_round(data, ksctx.extended, n)
        # Z is x - (-P) * d on C_l's rows, formed by ``sub`` and
        # ``scalar_mul``: ``add`` and ``mul`` are the ring operations a
        # traced run counts, and Z is the division's own input.
        minus_p = [-ksctx.p_prod] * n
        z = [self.concat_limbs([
            self.sub(self.select_limbs(x, range(n)),
                     self.scalar_mul(d, minus_p, ksctx.ct_moduli),
                     ksctx.ct_moduli),
            self.select_limbs(x, range(n, len(ksctx.extended)))])
            for x, d in zip(data, plus)]
        return self.divide_round(z, ksctx.extended, n - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
