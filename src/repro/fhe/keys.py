"""Key generation for RNS-CKKS, including hybrid key-switching keys.

Key switching follows the hybrid (digit-decomposition) construction the
paper describes in section 2.2: the input polynomial is split into ``dnum``
digits, each digit is raised to the extended basis C_l + P (ModUp), then
multiplied with the corresponding switching-key component, and finally the
accumulated pair is brought back down by dividing by P (ModDown).

Switching keys here are generated lazily per (target-key, level) pair.  A
production library shares one full-level key across levels; the per-level
variant is mathematically identical for the limbs in use and keeps the
implementation transparent.  Performance modeling
always uses the paper-parameter key sizes from
:meth:`repro.fhe.params.CkksParameters.switching_key_bytes`.

There is no public key: the key owner encrypts under the secret
(:class:`~repro.fhe.encryptor.CkksEncryptor`), and every other key is a
switching key, drawn when first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import CkksParameters
from .poly import (PolyContext, Polynomial, Representation,
                   conjugation_galois_element, rotation_galois_element)
from .rns import KeySwitchContext, digit_spans as _digit_spans


@dataclass
class SecretKey:
    """Ternary secret s, stored in EVAL form over the full extended basis."""

    s: Polynomial                   # EVAL over moduli + special_moduli


@dataclass
class SwitchingKey:
    """Hybrid switching key: one (b_j, a_j) pair per digit (EVAL).

    Components live over the extended basis C_level + P as plain
    residues; each key product is one ``%`` on the int64 tier, one
    :func:`repro.fhe.modmath._mulmod_f64` on the double-word tier.
    ``digit_spans`` records the [start, stop) limb range of each digit at
    this level.
    """

    bs: list[Polynomial]
    as_: list[Polynomial]
    level: int
    digit_spans: list[tuple[int, int]]


class KeyGenerator:
    """Generates the secret, relinearization and rotation keys."""

    def __init__(self, params: CkksParameters, seed: int | None = 2023,
                 hamming_weight: int = 64, sigma: float = 3.2,
                 backend: str | None = None):
        self.params = params
        self.context = PolyContext(params, seed=seed, backend=backend)
        self.sigma = sigma
        full_basis = params.moduli + params.special_moduli
        self.secret_key = SecretKey(s=self.context.random_ternary(
            full_basis, hamming_weight).to_eval())
        self._switching_keys: dict[tuple[str, int, int], SwitchingKey] = {}

    # -- switching keys ---------------------------------------------------

    def relinearization_key(self, level: int) -> SwitchingKey:
        """Key switching s^2 -> s at the given level (for HEMult)."""
        return self._switching_key("relin", 0, level, self._square_secret)

    def rotation_key(self, rotation: int, level: int) -> SwitchingKey:
        """Key switching psi_r(s) -> s (for HERotate by ``rotation``)."""
        galois = rotation_galois_element(rotation,
                                         self.params.ring_degree)
        return self._switching_key("rot", rotation % self.params.num_slots,
                                   level,
                                   lambda basis: self._automorphed_secret(
                                       galois, basis))

    def conjugation_key(self, level: int) -> SwitchingKey:
        """Key switching conj(s) -> s (for complex conjugation)."""
        galois = conjugation_galois_element(self.params.ring_degree)
        return self._switching_key(
            "conj", 0, level,
            lambda basis: self._automorphed_secret(galois, basis))

    def _square_secret(self, basis: tuple[int, ...]) -> Polynomial:
        s = self.secret_key.s.at_basis(basis)
        return s * s

    def _automorphed_secret(self, galois: int,
                            basis: tuple[int, ...]) -> Polynomial:
        # In EVAL form x -> x^g is a gather: no transform per key.
        return self.secret_key.s.at_basis(basis).automorphism(galois)

    def _switching_key(self, kind: str, tag: int, level: int,
                       target_fn) -> SwitchingKey:
        cache_key = (kind, tag, level)
        cached = self._switching_keys.get(cache_key)
        if cached is not None:
            return cached
        key = self._generate_switching_key(level, target_fn)
        self._switching_keys[cache_key] = key
        return key

    def digit_spans(self, level: int) -> list[tuple[int, int]]:
        """Digit limb ranges at ``level``: dnum spans of width alpha."""
        return _digit_spans(level, self.params.alpha)

    def _generate_switching_key(self, level: int, target_fn) -> SwitchingKey:
        """Build evk_j = (-a_j*s + e_j + P*hat{Q}_j*s_target, a_j)."""
        ksctx = self.context.backend.keyswitch_context(level)
        extended = ksctx.extended
        s = self.secret_key.s.at_basis(extended)
        s_target = target_fn(extended)
        bs, as_ = [], []
        for hat_qj in ksctx.digit_hat:
            factor = ksctx.p_prod * hat_qj
            a_j = self.context.random_uniform(extended)
            e_j = self.context.random_gaussian(extended, self.sigma).to_eval()
            bs.append(-(a_j * s) + e_j + s_target.scalar_mul(factor))
            as_.append(a_j)
        return SwitchingKey(bs=bs, as_=as_, level=level,
                            digit_spans=list(ksctx.digit_spans))


def raise_digits(poly: Polynomial,
                 ksctx: KeySwitchContext) -> list[Polynomial]:
    """Digit decompose + ModUp + NTT: the hoistable half of KeySwitch.

    Takes an EVAL polynomial over ``ksctx.ct_moduli`` and returns one
    EVAL polynomial per digit over the extended basis C_l + P, ready for
    the key product.  The one inverse transform of ``poly`` here is
    forced — base conversion reads coefficients — but on the digit's own
    primes nothing is converted: every term of
    ``sum_i c_i * hat{q}_i`` except ``i = j`` carries the factor ``q_j``,
    so the raised digit is the scaled digit itself there, and scaling
    commutes with the per-limb NTT.  Those rows are ``poly``'s existing
    evaluations times ``[hat{Q}_j^{-1}]_{q_i}``; only the rest of the
    extended basis — the runs before and after the digit's span — goes
    through the forward transform.

    Rotation hoisting calls this once and reuses the raised digits across
    a whole batch of automorphisms: ModUp uses centered residues (see
    :meth:`ComputeBackend.mod_up`), so the digits commute exactly with
    x -> x^g, and in EVAL form that map is a gather — each further
    rotation skips the digits' forward transforms as well.
    """
    if poly.rep is not Representation.EVAL:
        raise ValueError("raise_digits requires EVAL form")
    context = poly.context
    backend = context.backend
    extended = ksctx.extended
    own = backend.digit_decompose(poly.data, ksctx)
    digits = backend.digit_decompose(poly.to_coeff().data, ksctx)
    raised = []
    for j, (start, stop) in enumerate(ksctx.digit_spans):
        up = backend.mod_up(digits[j], j, ksctx)

        def forward(lo: int, hi: int):
            return backend.ntt_forward(
                backend.select_limbs(up, range(lo, hi)), extended[lo:hi])

        # The special primes always follow the span; digit 0 has no run
        # before it.
        parts = ([forward(0, start)] if start else []) \
            + [own[j], forward(stop, len(extended))]
        raised.append(Polynomial(context, backend.concat_limbs(parts),
                                 extended, Representation.EVAL))
    return raised


def key_product(raised: list[Polynomial], key: SwitchingKey,
                acc: tuple[Polynomial, Polynomial] | None = None
                ) -> tuple[Polynomial, Polynomial]:
    """Key product over C_l + P: ``acc + sum_j d_j * evk_j``, no ModDown.

    ``raised`` are the EVAL digits of :func:`raise_digits` (or a gather
    of them); ``acc`` is a pair to add to, ``None`` for zero.  A rotation
    group sums every rotation's product here and divides by P once.
    """
    acc0, acc1 = (None, None) if acc is None else acc
    for d_j, b_j, a_j in zip(raised, key.bs, key.as_):
        t0, t1 = d_j * b_j, d_j * a_j
        acc0 = t0 if acc0 is None else acc0 + t0
        acc1 = t1 if acc1 is None else acc1 + t1
    return acc0, acc1


def inner_product_keyswitch(raised: list[Polynomial], key: SwitchingKey,
                            ksctx: KeySwitchContext
                            ) -> tuple[Polynomial, Polynomial]:
    """Key product + ModDown: sum_j d_j * evk_j, then divide by P.

    ``raised`` are the EVAL digits of :func:`raise_digits`.
    """
    acc0, acc1 = key_product(raised, key)
    return mod_down_poly(acc0, ksctx), mod_down_poly(acc1, ksctx)


def key_switch(poly: Polynomial, key: SwitchingKey,
               params: CkksParameters) -> tuple[Polynomial, Polynomial]:
    """Hybrid key switch of ``poly`` (EVAL, basis C_level) using ``key``.

    Returns the pair (ks0, ks1) over C_level such that
    ks0 + ks1*s ~ poly * s_source (small noise).  This is the paper's
    KeySwitch operation: digit decompose -> ModUp -> key product -> ModDown,
    with every per-level constant coming from the backend's cached
    :class:`~repro.fhe.rns.KeySwitchContext`.
    """
    context = poly.context
    ksctx = context.backend.keyswitch_context(key.level)
    if tuple(poly.moduli) != ksctx.ct_moduli:
        raise ValueError("polynomial basis does not match key level")
    if list(key.digit_spans) != list(ksctx.digit_spans):
        raise ValueError("switching key digit layout does not match level")
    raised = raise_digits(poly, ksctx)
    return inner_product_keyswitch(raised, key, ksctx)


def mod_down_poly(poly: Polynomial, ksctx: KeySwitchContext) -> Polynomial:
    """ModDown via the compute backend: EVAL over ``ksctx.extended`` in,
    EVAL over ``ksctx.ct_moduli`` out.

    Only the special-prime limbs leave EVAL form on the way (see
    :meth:`ComputeBackend.mod_down`).
    """
    if poly.rep is not Representation.EVAL:
        raise ValueError("ModDown requires EVAL form")
    context = poly.context
    data = context.backend.mod_down(poly.data, ksctx)
    return Polynomial(context, data, ksctx.ct_moduli, Representation.EVAL)


def mod_down(poly: Polynomial, params: CkksParameters,
             level: int) -> Polynomial:
    """ModDown: divide an extended-basis polynomial by P, back to C_level.

    x' = (x - lift([x]_P)) * P^{-1} mod q_i, with an exact centered lift of
    the P-part so no overshoot survives the division.  Thin wrapper over the
    backend kernel; the per-level constants are cached.
    """
    return mod_down_poly(poly, poly.context.backend.keyswitch_context(level))
