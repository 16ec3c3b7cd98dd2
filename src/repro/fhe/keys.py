"""Key generation for RNS-CKKS, including hybrid key-switching keys.

Key switching follows the hybrid (digit-decomposition) construction the
paper describes in section 2.2: the input polynomial is split into ``dnum``
digits, each digit is raised to the extended basis C_l + P (ModUp), then
multiplied with the corresponding switching-key component, and finally the
accumulated pair is brought back down by dividing by P (ModDown).

A switching key is named by its id alone — ``relin``, ``rot-{r}`` or
``conj``, as the trace and the simulator name it — and built over the
CRT-idempotent gadget production libraries use for hybrid key
switching: digit j's key carries ``P * 1_j * s'``, where
``1_j = hat{Q}_j * [hat{Q}_j^{-1}]_{Q_j} mod Q_L`` is 1 on digit j's
primes and 0 on every other ciphertext prime.  The digit is then the
unscaled residue ``[c]_{Q_j}``, and every term of the key relation
``b_j + a_j*s = e_j + P*1_j*s'`` holds prime by prime, so a key over
C_k + P restricted to C_l + P is a valid key at every level l <= k, a
truncated last digit included.

A key is drawn at a level k: its ``digits_at(k)`` digits over C_k + P,
the key :meth:`repro.blocksim.blocks.BlockCostModel.switching_key_bytes`
prices at k.  Each (id, digit) has its own random stream, seeded from the
key generator's seed and nothing else; it draws the digit's N error
coefficients first, then one uniform limb per modulus, the special
primes first and then C_0, C_1, ... upward.  A draw at k is therefore a
prefix of the draw at ``max_level``: the key drawn at k is, bit for bit,
the ``max_level`` key restricted to C_k + P, whatever batch it is drawn
in and whatever was drawn before it.

There is no public key: the key owner encrypts under the secret
(:class:`~repro.fhe.encryptor.CkksEncryptor`), and every other key is a
switching key.  Keys are drawn in batches
(:meth:`KeyGenerator.switching_keys`): a plan asks for every key its
trace names, at its highest key-switch level, before it replays, so a
tenant's keys are one batch — one ``(rows, limbs, N)`` uniform array and
one ``(rows, N)`` error array, a row per digit — and a key asked for
alone is a batch of one.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .modmath import random_residues
from .params import CkksParameters
from .poly import (PolyContext, Polynomial, Representation,
                   conjugation_galois_element, rotation_galois_element)
from .rns import KeySwitchContext, digit_spans


@dataclass
class SecretKey:
    """Ternary secret s, stored in EVAL form over the full extended basis."""

    s: Polynomial                   # EVAL over moduli + special_moduli


@dataclass
class SwitchingKey:
    """Hybrid switching key: one (b_j, a_j) pair per digit (EVAL).

    Components live over the extended basis C_k + P of the level k they
    were drawn at, as plain residues, ``digits_at(k)`` pairs; a key
    switch at level l <= k multiplies by their restriction to C_l + P
    (:func:`key_product`).  Each key product is one ``%`` on the int64
    tier, one :func:`repro.fhe.modmath._mulmod_f64` on the double-word
    tier.
    """

    bs: list[Polynomial]
    as_: list[Polynomial]

    @property
    def level(self) -> int:
        """The highest level the key switches at: its basis is C_k + P."""
        b_0 = self.bs[0]
        return b_0.num_limbs - b_0.context.params.num_special_limbs - 1


class KeyGenerator:
    """Holds the secret and draws the switching keys, one per id.

    Keys are named by the ids the trace records (``relin``, ``rot-{r}``,
    ``conj``) and drawn in batches: :meth:`switching_keys` draws every
    id of a call it does not hold at the level asked for in one batch,
    and each getter is a one-id call of it.  A key is a function of the
    seed, its id and its level alone, and a held key serves every level
    up to its own.
    """

    def __init__(self, params: CkksParameters, seed: int | None = 2023,
                 hamming_weight: int = 64, sigma: float = 3.2,
                 backend: str | None = None):
        self.params = params
        self.context = PolyContext(params, seed=seed, backend=backend)
        self.sigma = sigma
        # The root of every key's stream: taken once, so a ``None`` seed
        # still gives one key per (id, level).
        self._key_entropy = np.random.SeedSequence(seed).entropy
        full_basis = params.moduli + params.special_moduli
        self.secret_key = SecretKey(s=self.context.random_ternary(
            full_basis, hamming_weight).to_eval())
        self._switching_keys: dict[str, SwitchingKey] = {}

    # -- switching keys ---------------------------------------------------

    def relinearization_key(self, level: int | None = None) -> SwitchingKey:
        """Key switching s^2 -> s (for HEMult), valid at ``level``."""
        return self.switching_keys(["relin"], level)[0]

    def rotation_key(self, rotation: int,
                     level: int | None = None) -> SwitchingKey:
        """Key switching psi_r(s) -> s (for HERotate by ``rotation``),
        valid at ``level``."""
        return self.switching_keys([f"rot-{rotation}"], level)[0]

    def conjugation_key(self, level: int | None = None) -> SwitchingKey:
        """Key switching conj(s) -> s (for complex conjugation), valid at
        ``level``."""
        return self.switching_keys(["conj"], level)[0]

    def switching_keys(self, key_ids: Iterable[str],
                       level: int | None = None) -> list[SwitchingKey]:
        """The keys ``key_ids`` name, in order, each valid at ``level``
        (``None``: ``max_level``).

        A held key at ``level`` or above is reused; every other id is
        drawn at ``level`` in one batch.  A key's bits are a function of
        the seed, its id and ``level`` alone — order, repeats and batch
        do not move one — and a redraw above a held key agrees with it
        on every limb they share.  A rotation amount is taken mod
        ``num_slots``.
        """
        max_level = self.params.max_level
        level = max_level if level is None else level
        if not 0 <= level <= max_level:
            raise ValueError(f"switching keys are drawn at levels 0 .. "
                             f"{max_level}, not {level}")
        held = self._switching_keys
        # A held id is canonical already.
        ids = [key_id if key_id in held else self._canonical(key_id)
               for key_id in key_ids]
        missing = sorted({key_id for key_id in ids if key_id not in held
                          or held[key_id].level < level})
        if missing:
            held.update(zip(missing,
                            self._draw_switching_keys(missing, level)))
        return [held[key_id] for key_id in ids]

    def _canonical(self, key_id: str) -> str:
        if key_id in ("relin", "conj"):
            return key_id
        kind, _, amount = key_id.partition("-")
        try:
            if kind == "rot":
                return f"rot-{int(amount) % self.params.num_slots}"
        except ValueError:
            pass
        raise ValueError(f"{key_id!r} names no switching key: ids are "
                         "'relin', 'rot-<r>' and 'conj'")

    def _target(self, key_id: str, s: Polynomial) -> Polynomial:
        """The key's target secret s', from the secret ``s`` (EVAL, over
        the key's basis)."""
        n = self.params.ring_degree
        if key_id == "relin":
            return s * s
        # In EVAL form x -> x^g is a gather: no transform per key.
        if key_id == "conj":
            return s.automorphism(conjugation_galois_element(n))
        return s.automorphism(rotation_galois_element(
            int(key_id.removeprefix("rot-")), n))

    def _stream(self, key_id: str, digit: int) -> np.random.Generator:
        """Digit ``digit`` of key ``key_id``'s random stream."""
        return np.random.default_rng(np.random.SeedSequence(
            self._key_entropy, spawn_key=(zlib.crc32(key_id.encode()),
                                          digit)))

    def _draw_switching_keys(self, key_ids: list[str],
                             level: int) -> list[SwitchingKey]:
        """One key per id, all drawn in one batch over C_level + P:
        ``evk_j = (e_j - a_j*s + P*1_j*s', a_j)``.

        Each digit's stream (:meth:`_stream`) draws its error, then its
        uniform limbs, the special primes first and C_0 .. C_level after
        them, into one row of the batch's arrays; each ``a_j`` is a row
        of the uniform array.  ``P*1_j`` is ``P`` modulo digit j's
        primes and 0 modulo every other prime of C_level + P (the
        CRT-idempotent gadget), so the gadget term is added on digit j's
        own limbs alone.
        """
        params, context = self.params, self.context
        backend = context.backend
        basis = params.moduli[:level + 1] + params.special_moduli
        s = self.secret_key.s.at_basis(basis)
        spans = digit_spans(level, params.alpha)
        rows, n = len(key_ids) * len(spans), params.ring_degree
        # Stream order: the special primes, then C_0 upward.
        order = range(-params.num_special_limbs, level + 1)
        uniform = np.empty((rows, len(basis), n), dtype=np.int64)
        errors = np.empty((rows, n), dtype=np.int64)
        for row in range(rows):
            rng = self._stream(key_ids[row // len(spans)], row % len(spans))
            errors[row] = context.gaussian_coeffs(self.sigma, rng)
            for i in order:
                uniform[row, i] = random_residues(n, basis[i], rng)
        p_prod = math.prod(params.special_moduli)
        keys, row = [], 0
        for key_id in key_ids:
            target = self._target(key_id, s)
            bs, as_ = [], []
            for start, stop in spans:
                a_j = Polynomial(context, uniform[row], basis,
                                 Representation.EVAL)
                e_j = context.from_signed_coeffs(errors[row],
                                                 basis).to_eval()
                b_j = (e_j - a_j * s).data
                own = basis[start:stop]
                gadget = target.at_basis(own).scalar_mul(p_prod)
                b_j = backend.concat_limbs([
                    backend.select_limbs(b_j, range(start)),
                    backend.add(backend.select_limbs(b_j, range(start, stop)),
                                gadget.data, own),
                    backend.select_limbs(b_j, range(stop, len(basis)))])
                bs.append(Polynomial(context, b_j, basis,
                                     Representation.EVAL))
                as_.append(a_j)
                row += 1
            keys.append(SwitchingKey(bs=bs, as_=as_))
        return keys


def raise_digits(poly: Polynomial,
                 ksctx: KeySwitchContext) -> list[Polynomial]:
    """Digit decompose + ModUp + NTT: the hoistable half of KeySwitch.

    Takes an EVAL polynomial over ``ksctx.ct_moduli`` and returns one
    EVAL polynomial per digit over the extended basis C_l + P, ready for
    the key product.  Digit j is the unscaled residue ``[c]_{Q_j}``, a
    slice of ``poly``'s limbs.  The one inverse transform of ``poly`` here
    is forced — base conversion reads coefficients — but on the digit's
    own primes nothing is converted: there the raised digit is ``c``
    itself, so those rows are ``poly``'s existing evaluations; only the
    rest of the extended basis — the runs before and after the digit's
    span — goes through the forward transform.

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
    The key, drawn at level l or above, is restricted to the digits'
    basis C_l + P, one gather per key polynomial (none when it was drawn
    at l), and only the digits live at level l take part.
    """
    basis = raised[0].moduli
    level = len(basis) - raised[0].context.params.num_special_limbs - 1
    if key.level < level:
        raise ValueError(f"a key drawn at level {key.level} cannot switch "
                         f"at level {level}")
    acc0, acc1 = (None, None) if acc is None else acc
    for d_j, b_j, a_j in zip(raised, key.bs, key.as_):
        t0, t1 = d_j * b_j.at_basis(basis), d_j * a_j.at_basis(basis)
        acc0 = t0 if acc0 is None else acc0 + t0
        acc1 = t1 if acc1 is None else acc1 + t1
    return acc0, acc1


def inner_product_keyswitch(raised: list[Polynomial], key: SwitchingKey,
                            ksctx: KeySwitchContext
                            ) -> tuple[Polynomial, Polynomial]:
    """Key product + ModDown: sum_j d_j * evk_j, then divide by P.

    ``raised`` are the EVAL digits of :func:`raise_digits`.
    """
    ks0, ks1 = mod_down_polys(key_product(raised, key), ksctx)
    return ks0, ks1


def key_switch(poly: Polynomial,
               key: SwitchingKey) -> tuple[Polynomial, Polynomial]:
    """Hybrid key switch of ``poly`` (EVAL, basis C_l) using ``key``.

    Returns the pair (ks0, ks1) over C_l such that
    ks0 + ks1*s ~ poly * s_source (small noise).  This is the paper's
    KeySwitch operation: digit decompose -> ModUp -> key product -> ModDown,
    with every per-level constant coming from the backend's cached
    :class:`~repro.fhe.rns.KeySwitchContext` of ``poly``'s level.
    """
    moduli = tuple(poly.moduli)
    if moduli != tuple(poly.context.params.moduli[:len(moduli)]):
        raise ValueError("key switch takes a polynomial over C_l, a prefix "
                         "of the ciphertext moduli")
    ksctx = poly.context.backend.keyswitch_context(len(moduli) - 1)
    raised = raise_digits(poly, ksctx)
    return inner_product_keyswitch(raised, key, ksctx)


def mod_down_polys(polys: Sequence[Polynomial], ksctx: KeySwitchContext,
                   plus: Sequence[Polynomial] | None = None
                   ) -> list[Polynomial]:
    """ModDown via the compute backend: EVAL over ``ksctx.extended`` in,
    EVAL over ``ksctx.ct_moduli`` out, every component of a ciphertext in
    one call.

    It is one division (:meth:`ComputeBackend.divide_round`): only the
    dropped limbs leave EVAL form on the way, in one inverse and one
    forward transform for all of ``polys``.  With ``plus`` (one EVAL
    polynomial over ``ksctx.ct_moduli`` per component) the result is
    rescaled too: ``round((d + x / P) / q_l)`` over C_{l-1}, one division
    by ``P * q_l``, bit for bit ModDown, the add and then
    :func:`~repro.fhe.poly.rescale_last`.
    """
    if any(poly.rep is not Representation.EVAL
           for poly in (*polys, *(plus or ()))):
        raise ValueError("ModDown requires EVAL form")
    context = polys[0].context
    moduli = ksctx.ct_moduli
    if plus is not None:
        moduli = moduli[:-1]
        plus = [poly.data for poly in plus]
    data = context.backend.mod_down([poly.data for poly in polys], ksctx,
                                    plus)
    return [Polynomial(context, out, moduli, Representation.EVAL)
            for out in data]
