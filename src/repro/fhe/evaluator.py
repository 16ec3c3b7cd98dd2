"""The CKKS building blocks of paper Table 2.

Implements ScalarAdd, ScalarMult, PolyAdd, PolyMult, HEAdd, HEMult,
HERotate (with KeySwitch) and HERescale on RNS ciphertexts, plus rotation
hoisting: for a batch of rotations of one ciphertext the digit decompose +
ModUp + NTT of c1 (the expensive half of KeySwitch) runs once and the raised
digits are reused across every automorphism in the batch (HEAAN
Demystified's hoisting; exact here because ModUp uses centered residues),
and rotation groups: :meth:`CkksEvaluator.rotate_add` sums
``ct + sum_r rot_r(ct)`` behind one hoist *and* one ModDown.

Ciphertexts stay in EVAL form throughout: automorphisms are gathers of
evaluation slots, rescale and ModDown take only the limbs they must round
through coefficient form, and plaintext operands are prepared once per
:class:`~repro.fhe.encoder.Plaintext` (the accounting is in
``backend/README.md``, "Where the transforms are").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.trace.ir import OpKind
from repro.trace.ops import OPS, OpSpec, check, install_methods

from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .keys import (KeyGenerator, inner_product_keyswitch, key_product,
                   key_switch, mod_down_polys, raise_digits)
from .params import CkksParameters
from .poly import (Polynomial, conjugation_galois_element, rescale_last,
                   rotation_galois_element)
from .rns import KeySwitchContext


@dataclass
class _HoistedCiphertext:
    """A ciphertext with the hoistable half of KeySwitch precomputed.

    ``raised`` holds the ModUp'ed digits of c1 over the extended basis in
    **EVAL** form, like ``ct`` itself; any number of rotations /
    conjugations can then be applied for the cost of one gather per digit
    and per component + key product + ModDown each, skipping the repeated
    digit decompose, base conversion *and* forward transforms.  Results
    are bit-exact with the sequential :meth:`CkksEvaluator.he_rotate`
    path.  Private: :meth:`CkksEvaluator.hoisted_rotations` and plan
    replay (:meth:`repro.engine.ExecutablePlan.execute`, which hoists
    every value two or more Galois ops read) are its only users.
    """

    ct: Ciphertext
    raised: list[Polynomial]
    ksctx: KeySwitchContext


#: Each real row's kernel name, made once: a lookup allocates nothing.
_KERNELS = {spec.method: f"_{spec.method}" for spec in OPS.values()
            if spec.real and spec.method}


class CkksEvaluator:
    """Homomorphic evaluator bound to one key generator: one method per
    real row of the op table (:func:`repro.trace.ops.install_methods`),
    which checks the call (:func:`repro.trace.ops.check`), aligns levels,
    runs the row's kernel ``_<method>`` and then any fused rescale."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator,
                 encoder: CkksEncoder | None = None):
        self.params = params
        self.keygen = keygen
        self.encoder = encoder or CkksEncoder(params)
        self.context = keygen.context

    def _apply(self, spec: OpSpec, cts: tuple[Ciphertext, ...],
               operands: tuple, rescale: bool | None,
               relinearize: bool = True) -> Ciphertext:
        check(spec, cts, operands, self.params, rescale)
        kernel = getattr(self, _KERNELS[spec.method])
        if len(cts) == 2 and cts[0].level != cts[1].level:
            level = min(cts[0].level, cts[1].level)
            cts = tuple([ct if ct.level == level
                         else self._mod_drop(ct, ct.level - level)
                         for ct in cts])
        if spec.relinearize:    # the key switch's ModDown takes the rescale
            return kernel(*cts, bool(rescale), relinearize)
        out = kernel(*cts, *operands)
        return self._rescale(out) if rescale else out

    # -- plaintext-operand blocks (Table 2, rows 1-4) ---------------------

    def _scalar_add(self, ct: Ciphertext, value: float | complex
                    ) -> Ciphertext:
        """ScalarAdd: Jm + cK = (B + c, A); c broadcast to every slot."""
        if isinstance(value, complex) and value.imag != 0:
            pt = self.encoder.encode([value] * self.params.num_slots,
                                     ct.scale)
            return self._poly_add(ct, pt)
        encoded = int(round(float(value.real if isinstance(value, complex)
                                  else value) * ct.scale))
        # A constant polynomial is the all-constant vector in EVAL form,
        # so the add touches only registers + one vector op per stack.
        c0 = ct.c0.scalar_add_per_limb([encoded] * ct.c0.num_limbs)
        return Ciphertext(c0=c0, c1=ct.c1.copy(), level=ct.level,
                          scale=ct.scale)

    def _scalar_mult(self, ct: Ciphertext, value: float) -> Ciphertext:
        """ScalarMult: Jm*cK = (B*c, A*c); consumes one level if rescaled."""
        encoded = int(round(float(value) * self.params.scale))
        return Ciphertext(c0=ct.c0.scalar_mul(encoded),
                          c1=ct.c1.scalar_mul(encoded), level=ct.level,
                          scale=ct.scale * self.params.scale)

    def _scalar_mult_int(self, ct: Ciphertext, value: int) -> Ciphertext:
        """Multiply by a small integer without consuming scale."""
        return Ciphertext(c0=ct.c0.scalar_mul(value),
                          c1=ct.c1.scalar_mul(value),
                          level=ct.level, scale=ct.scale)

    def _poly_add(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PolyAdd: add an unencrypted polynomial to a ciphertext."""
        m = pt.as_eval(self.context, self.params.moduli[:ct.level + 1])
        return Ciphertext(c0=ct.c0 + m, c1=ct.c1.copy(), level=ct.level,
                          scale=ct.scale)

    def _poly_mult(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PolyMult: multiply by an unencrypted polynomial.

        Followed by HERescale (paper: restores scale Delta^2 -> Delta).
        """
        # The EVAL operand is prepared once per plaintext and basis; it
        # serves both ciphertext components of every replay.
        m = pt.as_eval(self.context, self.params.moduli[:ct.level + 1])
        return Ciphertext(c0=ct.c0 * m, c1=ct.c1 * m, level=ct.level,
                          scale=ct.scale * pt.scale)

    # -- ciphertext-ciphertext blocks --------------------------------------

    def _he_add(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """HEAdd: pairwise polynomial addition, labelled with the larger
        scale in either operand order (the row's ``MAX_SCALE``)."""
        return Ciphertext(c0=ct1.c0 + ct2.c0, c1=ct1.c1 + ct2.c1,
                          level=ct1.level, scale=max(ct1.scale, ct2.scale))

    def _he_sub(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Pairwise polynomial subtraction (HEAdd with negation)."""
        return Ciphertext(c0=ct1.c0 - ct2.c0, c1=ct1.c1 - ct2.c1,
                          level=ct1.level, scale=max(ct1.scale, ct2.scale))

    def _he_mult(self, ct1: Ciphertext, ct2: Ciphertext, rescale: bool,
                 relinearize: bool) -> Ciphertext:
        """HEMult: tensor product + KeySwitch(evk_mult), then rescale.

        Operand scales need not match (the product scale is tracked).
        ``relinearize=False`` skips the KeySwitch and returns the
        degree-2 product ``(d0, d1, d2)``
        (:class:`~repro.fhe.ciphertext.Ciphertext`'s ``c2``), for a
        result that is only rescaled and decrypted.
        """
        d0 = ct1.c0 * ct2.c0
        d1 = ct1.c0 * ct2.c1 + ct1.c1 * ct2.c0
        d2 = ct1.c1 * ct2.c1
        return self._product(d0, d1, d2, ct1.level, ct1.scale * ct2.scale,
                             rescale, relinearize)

    def _he_square(self, ct: Ciphertext, rescale: bool,
                   relinearize: bool) -> Ciphertext:
        """Squaring (saves one polynomial product vs he_mult)."""
        d0 = ct.c0 * ct.c0
        cross = ct.c0 * ct.c1
        d1 = cross + cross
        d2 = ct.c1 * ct.c1
        return self._product(d0, d1, d2, ct.level, ct.scale * ct.scale,
                             rescale, relinearize)

    def _product(self, d0: Polynomial, d1: Polynomial, d2: Polynomial,
                 level: int, scale: float, rescale: bool,
                 relinearize: bool) -> Ciphertext:
        """The tensor product ``(d0, d1, d2)`` as a ciphertext.

        Relinearized, ``(d0, d1) + KeySwitch(d2, evk_mult)``; with
        ``rescale``, the sum divided by P * q_level at once — ModDown and
        rescale in one rounding, bit for bit the two
        (:func:`~repro.fhe.keys.mod_down_polys`).  Unrelinearized, the
        degree-2 ciphertext as it is, its three components rescaled in
        one call with ``rescale``."""
        if not relinearize:
            out = Ciphertext(c0=d0, c1=d1, level=level, scale=scale, c2=d2)
            return self._rescale(out) if rescale else out
        evk = self.keygen.relinearization_key(level)
        ksctx = self.context.backend.keyswitch_context(level)
        acc = key_product(raise_digits(d2, ksctx), evk)
        if rescale:
            c0, c1 = mod_down_polys(acc, ksctx, plus=(d0, d1))
            return Ciphertext(c0=c0, c1=c1, level=level - 1,
                              scale=scale / self.params.moduli[level])
        ks0, ks1 = mod_down_polys(acc, ksctx)
        return Ciphertext(c0=d0 + ks0, c1=d1 + ks1, level=level,
                          scale=scale)

    def _he_rotate(self, ct: Ciphertext, rotation: int) -> Ciphertext:
        """HERotate: Jm <<< rK via automorphism psi_r + KeySwitch."""
        return self._galois(ct, rotation)

    def _he_conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex conjugation of every slot."""
        return self._galois(ct, None)

    def _galois(self, ct: Ciphertext, rotation: int | None,
                hoisted: _HoistedCiphertext | None = None) -> Ciphertext:
        """The automorphism of a rotation (``None``: conjugation) and its
        KeySwitch.  In EVAL form x -> x^g is a gather: no transform
        before the one inverse KeySwitch itself needs.  From ``hoisted``,
        the gather is of the raised digits: it commutes exactly with
        decompose + centered ModUp and the per-limb NTT, so the integers
        are the sequential path's."""
        if rotation is None:
            galois = conjugation_galois_element(self.params.ring_degree)
            key = self.keygen.conjugation_key(ct.level)
        else:
            rotation %= self.params.num_slots
            if rotation == 0:
                return ct.copy()
            galois = rotation_galois_element(rotation,
                                             self.params.ring_degree)
            key = self.keygen.rotation_key(rotation, ct.level)
        if hoisted is None:
            ks0, ks1 = key_switch(ct.c1.automorphism(galois), key)
        else:
            ks0, ks1 = inner_product_keyswitch(
                [d_j.automorphism(galois) for d_j in hoisted.raised], key,
                hoisted.ksctx)
        return Ciphertext(c0=ct.c0.automorphism(galois) + ks0, c1=ks1,
                          level=ct.level, scale=ct.scale)

    # -- hoisted rotations -------------------------------------------------

    def _hoist(self, ct: Ciphertext) -> _HoistedCiphertext:
        """Precompute the shared half of KeySwitch for a rotation batch.

        Runs digit decompose + ModUp + NTT on c1 once; the returned handle
        feeds any number of :meth:`_galois` calls, each of which then
        costs only gathers + key product + ModDown.  It is checked as the
        ``he_rotate`` rows it serves.
        """
        check(OPS[OpKind.HE_ROTATE], (ct,), (), self.params, None)
        ksctx = self.context.backend.keyswitch_context(ct.level)
        return _HoistedCiphertext(
            ct=ct, raised=raise_digits(ct.c1, ksctx),
            ksctx=ksctx)

    def hoisted_rotations(self, ct: Ciphertext,
                          rotations: Iterable[int]
                          ) -> dict[int, Ciphertext]:
        """Rotate one ciphertext by many amounts, hoisting Decomp+ModUp.

        Returns ``{rotation mod num_slots: rotated ciphertext}``; rotation 0
        maps to ``he_rotate(ct, 0)``, a copy.  The digit decompose + ModUp
        of c1 runs once for the whole batch — the dominant algorithmic win
        for the BSGS linear transforms and bootstrapping rotation batches.
        A recorder writes the batch as one plain ``he_rotate`` per amount;
        replay hoists them again because they read one value.
        """
        wanted = sorted({r % self.params.num_slots for r in rotations})
        hoisted = self._hoist(ct) if any(wanted) else None
        return {r: self._galois(ct, r, hoisted) if r
                else self.he_rotate(ct, 0) for r in wanted}

    def _rotate_add(self, ct: Ciphertext,
                    rotations: Iterable[int]) -> Ciphertext:
        """``ct + sum_r rot_r(ct)``: one hoist, one ModDown per component.

        c1 is raised once (:func:`~repro.fhe.keys.raise_digits`); each
        rotation gathers the raised digits and adds its key product over
        C_l + P, and the sum of them all is divided by P once (double
        hoisting, Bossuat et al., Eurocrypt 2021).  ModDown is linear up
        to its rounding, so the result decrypts to the sum of the
        separate rotations with one rounding error where they had
        ``len(rotations)``.  Every amount must be non-zero mod
        ``num_slots``; repeats are summed as often as they appear.
        """
        amounts = [r % self.params.num_slots for r in rotations]
        ksctx = self.context.backend.keyswitch_context(ct.level)
        raised = raise_digits(ct.c1, ksctx)
        c0, acc = ct.c0, None
        for rotation in amounts:
            galois = rotation_galois_element(rotation,
                                             self.params.ring_degree)
            key = self.keygen.rotation_key(rotation, ct.level)
            acc = key_product([d_j.automorphism(galois) for d_j in raised],
                              key, acc)
            c0 = c0 + ct.c0.automorphism(galois)
        ks0, ks1 = mod_down_polys(acc, ksctx)
        return Ciphertext(c0=c0 + ks0, c1=ct.c1 + ks1, level=ct.level,
                          scale=ct.scale)

    # -- scale and level management ---------------------------------------

    def _rescale(self, ct: Ciphertext) -> Ciphertext:
        """HERescale: exact RNS rescale, divides the scale by q_level.

        The one op that also takes a degree-2 product: its ``c2`` is
        divided with the other two components.
        """
        q_last = self.params.moduli[ct.level]
        if ct.c0.moduli[-1] != q_last:
            raise ValueError("rescale modulus does not match the last limb")
        # Divide-and-round by q_last runs in the compute backend, EVAL to
        # EVAL: only the dropped limbs are inverse-transformed, every
        # component's in one call.
        c0, c1, *c2 = rescale_last(ct.components)
        return Ciphertext(c0=c0, c1=c1, level=ct.level - 1,
                          scale=ct.scale / q_last, c2=c2[0] if c2 else None)

    def _mod_drop(self, ct: Ciphertext, levels: int) -> Ciphertext:
        """Drop limbs without scaling (level switch)."""
        if levels <= 0:
            return ct.copy()
        moduli = self.params.moduli[:ct.level + 1 - levels]
        return Ciphertext(c0=ct.c0.at_basis(moduli),
                          c1=ct.c1.at_basis(moduli),
                          level=ct.level - levels, scale=ct.scale)


install_methods(CkksEvaluator, [spec for spec in OPS.values() if spec.real])
