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

from .ciphertext import Ciphertext
from .encoder import CkksEncoder, Plaintext
from .keys import (KeyGenerator, inner_product_keyswitch, key_product,
                   key_switch, mod_down_poly, raise_digits)
from .params import CkksParameters
from .poly import (Polynomial, conjugation_galois_element,
                   rotation_galois_element)
from .rns import KeySwitchContext

#: Relative scale mismatch tolerated when adding ciphertexts.  The
#: mult-by-one scale adjustment rounds its factor to an integer near q ~ 2^30,
#: leaving up to ~2^-29 relative error, so the tolerance sits above that.
SCALE_TOLERANCE = 1e-7


@dataclass
class HoistedCiphertext:
    """A ciphertext with the hoistable half of KeySwitch precomputed.

    ``raised`` holds the ModUp'ed digits of c1 over the extended basis in
    **EVAL** form, like ``ct`` itself; any number of rotations /
    conjugations can then be applied for the cost of one gather per digit
    and per component + key product + ModDown each, skipping the repeated
    digit decompose, base conversion *and* forward transforms.  Results
    are bit-exact with the sequential :meth:`CkksEvaluator.he_rotate`
    path.
    """

    ct: Ciphertext
    raised: list[Polynomial]
    ksctx: KeySwitchContext

    @property
    def level(self) -> int:
        return self.ct.level

    @property
    def scale(self) -> float:
        return self.ct.scale


class CkksEvaluator:
    """Homomorphic evaluator bound to one key generator."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator,
                 encoder: CkksEncoder | None = None):
        self.params = params
        self.keygen = keygen
        self.encoder = encoder or CkksEncoder(params)
        self.context = keygen.context

    # -- plaintext-operand blocks (Table 2, rows 1-4) ---------------------

    def scalar_add(self, ct: Ciphertext, value: float | complex
                   ) -> Ciphertext:
        """ScalarAdd: Jm + cK = (B + c, A); c broadcast to every slot."""
        if isinstance(value, complex) and value.imag != 0:
            pt = self.encoder.encode([value] * self.params.num_slots,
                                     ct.scale)
            return self.poly_add(ct, pt)
        encoded = int(round(float(value.real if isinstance(value, complex)
                                  else value) * ct.scale))
        # A constant polynomial is the all-constant vector in EVAL form,
        # so the add touches only registers + one vector op per stack.
        c0 = ct.c0.scalar_add_per_limb([encoded] * ct.c0.num_limbs)
        return Ciphertext(c0=c0, c1=ct.c1.copy(), level=ct.level,
                          scale=ct.scale)

    def scalar_mult(self, ct: Ciphertext, value: float,
                    rescale: bool = True) -> Ciphertext:
        """ScalarMult: Jm*cK = (B*c, A*c); consumes one level if rescaled."""
        encoded = int(round(float(value) * self.params.scale))
        c0 = ct.c0.scalar_mul(encoded)
        c1 = ct.c1.scalar_mul(encoded)
        out = Ciphertext(c0=c0, c1=c1, level=ct.level,
                         scale=ct.scale * self.params.scale)
        return self.rescale(out) if rescale else out

    def scalar_mult_int(self, ct: Ciphertext, value: int) -> Ciphertext:
        """Multiply by a small integer without consuming scale."""
        return Ciphertext(c0=ct.c0.scalar_mul(value),
                          c1=ct.c1.scalar_mul(value),
                          level=ct.level, scale=ct.scale)

    def poly_add(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PolyAdd: add an unencrypted polynomial to a ciphertext."""
        self._check_scale(ct.scale, pt.scale)
        m = pt.as_eval(self.context, self.params.moduli[:ct.level + 1])
        return Ciphertext(c0=ct.c0 + m, c1=ct.c1.copy(), level=ct.level,
                          scale=ct.scale)

    def poly_mult(self, ct: Ciphertext, pt: Plaintext,
                  rescale: bool = True) -> Ciphertext:
        """PolyMult: multiply by an unencrypted polynomial.

        Followed by HERescale (paper: restores scale Delta^2 -> Delta).
        """
        # The EVAL operand is prepared once per plaintext and basis; it
        # serves both ciphertext components of every replay.
        m = pt.as_eval(self.context, self.params.moduli[:ct.level + 1])
        out = Ciphertext(c0=ct.c0 * m, c1=ct.c1 * m, level=ct.level,
                         scale=ct.scale * pt.scale)
        return self.rescale(out) if rescale else out

    # -- ciphertext-ciphertext blocks --------------------------------------

    def he_add(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """HEAdd: pairwise polynomial addition."""
        ct1, ct2 = self._align(ct1, ct2)
        return Ciphertext(c0=ct1.c0 + ct2.c0, c1=ct1.c1 + ct2.c1,
                          level=ct1.level, scale=ct1.scale)

    def he_sub(self, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
        """Pairwise polynomial subtraction (HEAdd with negation)."""
        ct1, ct2 = self._align(ct1, ct2)
        return Ciphertext(c0=ct1.c0 - ct2.c0, c1=ct1.c1 - ct2.c1,
                          level=ct1.level, scale=ct1.scale)

    def he_mult(self, ct1: Ciphertext, ct2: Ciphertext,
                rescale: bool = True) -> Ciphertext:
        """HEMult: tensor product + KeySwitch(evk_mult), then rescale.

        Operand scales need not match (the product scale is tracked);
        levels are aligned by dropping limbs.
        """
        ct1, ct2 = self._align(ct1, ct2, check_scale=False)
        d0 = ct1.c0 * ct2.c0
        d1 = ct1.c0 * ct2.c1 + ct1.c1 * ct2.c0
        d2 = ct1.c1 * ct2.c1
        evk = self.keygen.relinearization_key()
        ks0, ks1 = key_switch(d2, evk)
        out = Ciphertext(c0=d0 + ks0, c1=d1 + ks1, level=ct1.level,
                         scale=ct1.scale * ct2.scale)
        return self.rescale(out) if rescale else out

    def he_square(self, ct: Ciphertext, rescale: bool = True) -> Ciphertext:
        """Squaring (saves one polynomial product vs he_mult)."""
        d0 = ct.c0 * ct.c0
        cross = ct.c0 * ct.c1
        d1 = cross + cross
        d2 = ct.c1 * ct.c1
        evk = self.keygen.relinearization_key()
        ks0, ks1 = key_switch(d2, evk)
        out = Ciphertext(c0=d0 + ks0, c1=d1 + ks1, level=ct.level,
                         scale=ct.scale * ct.scale)
        return self.rescale(out) if rescale else out

    def he_rotate(self, ct: Ciphertext, rotation: int) -> Ciphertext:
        """HERotate: Jm <<< rK via automorphism psi_r + KeySwitch."""
        rotation %= self.params.num_slots
        if rotation == 0:
            return ct.copy()
        galois = rotation_galois_element(rotation, self.params.ring_degree)
        key = self.keygen.rotation_key(rotation)
        return self._apply_galois(ct, galois, key)

    def he_conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex conjugation of every slot."""
        galois = conjugation_galois_element(self.params.ring_degree)
        key = self.keygen.conjugation_key()
        return self._apply_galois(ct, galois, key)

    def _apply_galois(self, ct: Ciphertext, galois: int,
                      key) -> Ciphertext:
        # In EVAL form x -> x^g is a gather: no transform before the one
        # inverse KeySwitch itself needs.
        ks0, ks1 = key_switch(ct.c1.automorphism(galois), key)
        return Ciphertext(c0=ct.c0.automorphism(galois) + ks0, c1=ks1,
                          level=ct.level, scale=ct.scale)

    # -- hoisted rotations -------------------------------------------------

    def hoist(self, ct: Ciphertext) -> HoistedCiphertext:
        """Precompute the shared half of KeySwitch for a rotation batch.

        Runs digit decompose + ModUp + NTT on c1 once; the returned handle
        feeds :meth:`rotate_hoisted` / :meth:`conjugate_hoisted`, each of
        which then costs only gathers + key product + ModDown.
        """
        ksctx = self.context.backend.keyswitch_context(ct.level)
        return HoistedCiphertext(
            ct=ct, raised=raise_digits(ct.c1, ksctx),
            ksctx=ksctx)

    def rotate_hoisted(self, hoisted: HoistedCiphertext,
                       rotation: int) -> Ciphertext:
        """HERotate from a hoisted handle (bit-exact with he_rotate)."""
        rotation %= self.params.num_slots
        if rotation == 0:
            return hoisted.ct.copy()
        galois = rotation_galois_element(rotation, self.params.ring_degree)
        key = self.keygen.rotation_key(rotation)
        return self._apply_galois_hoisted(hoisted, galois, key)

    def conjugate_hoisted(self, hoisted: HoistedCiphertext) -> Ciphertext:
        """Complex conjugation from a hoisted handle."""
        galois = conjugation_galois_element(self.params.ring_degree)
        key = self.keygen.conjugation_key()
        return self._apply_galois_hoisted(hoisted, galois, key)

    def hoisted_rotations(self, ct: Ciphertext,
                          rotations: Iterable[int]
                          ) -> dict[int, Ciphertext]:
        """Rotate one ciphertext by many amounts, hoisting Decomp+ModUp.

        Returns ``{rotation mod num_slots: rotated ciphertext}``; rotation 0
        maps to ``he_rotate(ct, 0)``, a copy.  The digit decompose + ModUp
        of c1 runs once for the whole batch — the dominant algorithmic win
        for the BSGS linear transforms and bootstrapping rotation batches.
        Written against the call surface alone (``he_rotate``, ``hoist``,
        ``rotate_hoisted``), so the tracing and symbolic evaluators share
        it.
        """
        wanted = sorted({r % self.params.num_slots for r in rotations})
        out = {0: self.he_rotate(ct, 0)} if 0 in wanted else {}
        nonzero = [r for r in wanted if r != 0]
        if nonzero:
            hoisted = self.hoist(ct)
            out.update((r, self.rotate_hoisted(hoisted, r)) for r in nonzero)
        return out

    def rotate_add(self, ct: Ciphertext,
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
        if not amounts or 0 in amounts:
            raise ValueError("rotate_add takes rotation amounts that are "
                             f"non-zero mod {self.params.num_slots}, got "
                             f"{amounts} after reduction")
        ksctx = self.context.backend.keyswitch_context(ct.level)
        raised = raise_digits(ct.c1, ksctx)
        c0, acc = ct.c0, None
        for rotation in amounts:
            galois = rotation_galois_element(rotation,
                                             self.params.ring_degree)
            key = self.keygen.rotation_key(rotation)
            acc = key_product([d_j.automorphism(galois) for d_j in raised],
                              key, acc)
            c0 = c0 + ct.c0.automorphism(galois)
        return Ciphertext(c0=c0 + mod_down_poly(acc[0], ksctx),
                          c1=ct.c1 + mod_down_poly(acc[1], ksctx),
                          level=ct.level, scale=ct.scale)

    def _apply_galois_hoisted(self, hoisted: HoistedCiphertext, galois: int,
                              key) -> Ciphertext:
        """Automorphism of the *raised digits* + key product + ModDown.

        The automorphism commutes exactly with decompose + centered ModUp
        and with the per-limb NTT, so gathering the precomputed EVAL
        digits yields the same integers as the sequential
        automorphism-then-KeySwitch path.
        """
        raised = [d_j.automorphism(galois) for d_j in hoisted.raised]
        ks0, ks1 = inner_product_keyswitch(raised, key, hoisted.ksctx)
        return Ciphertext(c0=hoisted.ct.c0.automorphism(galois) + ks0,
                          c1=ks1, level=hoisted.level, scale=hoisted.scale)

    # -- scale and level management ---------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """HERescale: exact RNS rescale, divides the scale by q_level."""
        if ct.level == 0:
            raise ValueError("cannot rescale at level 0")
        q_last = self.params.moduli[ct.level]
        c0 = self._rescale_poly(ct.c0, q_last)
        c1 = self._rescale_poly(ct.c1, q_last)
        return Ciphertext(c0=c0, c1=c1, level=ct.level - 1,
                          scale=ct.scale / q_last)

    def _rescale_poly(self, poly: Polynomial, q_last: int) -> Polynomial:
        if poly.moduli[-1] != q_last:
            raise ValueError("rescale modulus does not match the last limb")
        # Divide-and-round by q_last runs in the compute backend, EVAL to
        # EVAL: only the dropped limb is inverse-transformed.
        return poly.rescale_last()

    def mod_drop(self, ct: Ciphertext, levels: int = 1) -> Ciphertext:
        """Drop limbs without scaling (level switch)."""
        if levels <= 0:
            return ct.copy()
        if ct.level - levels < 0:
            raise ValueError("cannot drop below level 0")
        moduli = self.params.moduli[:ct.level + 1 - levels]
        return Ciphertext(c0=ct.c0.at_basis(moduli),
                          c1=ct.c1.at_basis(moduli),
                          level=ct.level - levels, scale=ct.scale)

    def _align(self, ct1: Ciphertext, ct2: Ciphertext,
               check_scale: bool = True) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common level; optionally check scales.

        Additive blocks require matching scales; multiplicative blocks do
        not (the product scale is tracked exactly).
        """
        if ct1.level > ct2.level:
            ct1 = self.mod_drop(ct1, ct1.level - ct2.level)
        elif ct2.level > ct1.level:
            ct2 = self.mod_drop(ct2, ct2.level - ct1.level)
        if check_scale:
            self._check_scale(ct1.scale, ct2.scale)
        return ct1, ct2

    @staticmethod
    def _check_scale(scale1: float, scale2: float) -> None:
        if abs(scale1 - scale2) > SCALE_TOLERANCE * max(scale1, scale2):
            raise ValueError(
                f"scale mismatch: {scale1:.6g} vs {scale2:.6g}; "
                "rescale or re-encode first")
