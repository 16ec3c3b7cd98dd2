"""CKKS bootstrapping: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

Follows the packed bootstrapping pipeline the paper's workloads rely on
(section 2.2 / Table 3).  The homomorphic modular reduction (EvalMod) uses
the standard scaled-sine construction: a Chebyshev approximation of
``cos(2*pi*(t - 1/4) / 2^r)`` on the raised-coefficient range, followed by
``r`` cosine double-angle squarings, yielding ``sin(2*pi*t)`` whose value at
``t = a/q0`` recovers ``a mod q0`` for coefficients small relative to q0.

Precision characteristics (a deviation from production parameter sets):
the sine approximation requires message magnitudes small relative to q0, so
:meth:`Bootstrapper.bootstrap` expects ``|z| <~ 0.05`` and refreshes with
absolute error around 1e-2 at the test parameter sets.  The error floor is
set by the 30-bit word size: ~10^2 rotations of key-switching noise at
Delta = 2^29, amplified by the dense SlotToCoeff matrix (row norm ~ sqrt(n)).
Production parameter sets use 50+-bit scales and are 2^20x more precise; the
paper-scale parameter set is exercised by the performance model, not
functionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.trace.ops import require_relinearized

from .ciphertext import Ciphertext
from .encoder import CkksEncoder
from .evaluator import CkksEvaluator
from .keys import KeyGenerator
from .linear import LinearTransform, multiply_by_i
from .params import CkksParameters
from .polyval import evaluate_chebyshev, match_scale_level


@dataclass(frozen=True)
class BootstrapConfig:
    """Tunables for the EvalMod stage.

    ``k_range`` bounds the integer part I of the raised coefficients
    (|I| <= (1 + hamming_weight)/2), ``double_angles`` is the number r of
    cosine double-angle squarings, and ``cheby_degree`` the degree of the
    base Chebyshev approximation.
    """

    k_range: float = 8.0
    margin: float = 0.75
    double_angles: int = 5
    cheby_degree: int = 15


class Bootstrapper:
    """Homomorphic re-encryption (noise refresh) for CKKS ciphertexts."""

    def __init__(self, params: CkksParameters, keygen: KeyGenerator,
                 encoder: CkksEncoder, evaluator: CkksEvaluator,
                 config: BootstrapConfig | None = None):
        self.params = params
        self.keygen = keygen
        self.encoder = encoder
        self.evaluator = evaluator
        self.config = config or BootstrapConfig()
        self._cts1 = self._cts2 = self._stc1 = self._stc2 = None
        self._cheb_coeffs: list[float] | None = None

    # -- public API --------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh ``ct`` to a higher level, approximately preserving slots.

        The input is brought to level 0 / canonical scale first; the output
        lands at ``max_level - depth`` with the same logical message.
        """
        ct = self._prepare(ct)
        raised = self.mod_raise(ct)
        t = self.coeff_to_slot(raised)
        u, v = self._split_real_imag(t)
        u_mod = self.eval_mod(u)
        v_mod = self.eval_mod(v)
        return self.slot_to_coeff(u_mod, v_mod)

    @property
    def depth(self) -> int:
        """Worst-case levels consumed by one bootstrap invocation."""
        cheb_depth = max(1, math.ceil(math.log2(self.config.cheby_degree)))
        # CtS + normalize + cheb + aligns + doubles + StC
        return 1 + 1 + cheb_depth + 2 + self.config.double_angles + 1

    # -- pipeline stages -------------------------------------------------

    def _prepare(self, ct: Ciphertext) -> Ciphertext:
        """Normalize to (level 0, scale Delta)."""
        target_scale = self.params.scale
        if ct.level > 0:
            ct = match_scale_level(self.evaluator, ct, ct.level,
                                   target_scale)
            ct = self.evaluator.mod_drop(ct, ct.level)
        if abs(ct.scale - target_scale) > 1e-6 * target_scale:
            raise ValueError(
                f"bootstrap input at level 0 must have scale Delta="
                f"{target_scale:.4g}, got {ct.scale:.4g}")
        return ct

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Re-interpret the level-0 residues over the full modulus chain.

        The lifted message becomes m + q0*I for a small integer polynomial
        I (paper: the reason EvalMod must remove multiples of q0).
        """
        require_relinearized("mod_raise", ct)
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        params = self.params
        q0 = params.moduli[0]
        target = params.moduli[:params.max_level + 1]
        context = ct.c0.context

        def raise_poly(poly):
            coeff = poly.to_coeff()
            residues = coeff.limbs[0]
            half = q0 // 2
            signed = residues.astype(np.int64) - np.where(residues > half,
                                                          q0, 0)
            return context.from_signed_coeffs(signed, target).to_eval()

        return Ciphertext(c0=raise_poly(ct.c0), c1=raise_poly(ct.c1),
                          level=params.max_level, scale=ct.scale)

    def coeff_to_slot(self, ct: Ciphertext) -> Ciphertext:
        """Move coefficients into slots: t_j = (a_j + i*a_{n+j}) / q0.

        The conjugation and the CtS-1 baby-step rotations all act on the
        same input ciphertext: replaying a traced bootstrap
        (:meth:`repro.engine.ExecutablePlan.execute`) serves them all
        with one hoisted Decomp+ModUp of c1; a direct call hoists the
        baby steps and key-switches the conjugation on its own.
        """
        self._build_linear_transforms()
        conj = self.evaluator.he_conjugate(ct)
        part1 = self._cts1.apply(ct)
        part2 = self._cts2.apply(conj)
        return self.evaluator.he_add(part1, part2)

    def _split_real_imag(self, t: Ciphertext
                         ) -> tuple[Ciphertext, Ciphertext]:
        """u = t + conj(t), v = i*(conj(t) - t): twice real/imag parts."""
        conj = self.evaluator.he_conjugate(t)
        u = self.evaluator.he_add(t, conj)
        v = multiply_by_i(self.evaluator, self.evaluator.he_sub(conj, t))
        return u, v

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic t -> sin(2*pi*t): removes integer multiples of q0.

        Input value is 2*a/q0 (the factor 2 from the real/imag split is
        folded into the Chebyshev normalization).  Output value is
        sin(2*pi*a/q0); the q0/(2*pi) recovery factor is folded into the
        SlotToCoeff matrices.
        """
        cfg = self.config
        k_prime = cfg.k_range + cfg.margin
        # Normalize to y = (a/q0)/K' in [-1, 1]; consumes one level.
        y = self.evaluator.scalar_mult(ct, 1.0 / (2.0 * k_prime))
        h = evaluate_chebyshev(self.evaluator, y, self._chebyshev_coeffs())
        for _ in range(cfg.double_angles):
            sq = self.evaluator.he_square(h)
            doubled = self.evaluator.scalar_mult_int(sq, 2)
            h = self.evaluator.scalar_add(doubled, -1.0)
        return h

    def _chebyshev_coeffs(self) -> list[float]:
        """Chebyshev fit of cos(2*pi*(K'*y - 1/4)/2^r) over y in [-1, 1]."""
        if self._cheb_coeffs is None:
            cfg = self.config
            k_prime = cfg.k_range + cfg.margin
            grid = np.cos(np.pi * (np.arange(2048) + 0.5) / 2048)
            values = np.cos(2.0 * np.pi * (k_prime * grid - 0.25)
                            / (1 << cfg.double_angles))
            fit = np.polynomial.chebyshev.chebfit(grid, values,
                                                  cfg.cheby_degree)
            self._cheb_coeffs = [float(c) for c in fit]
        return self._cheb_coeffs

    def slot_to_coeff(self, u: Ciphertext, v: Ciphertext) -> Ciphertext:
        """Map refreshed coefficient values back into slot positions."""
        self._build_linear_transforms()
        part1 = self._stc1.apply(u)
        part2 = self._stc2.apply(v)
        lvl = min(part1.level, part2.level)
        part1 = match_scale_level(self.evaluator, part1, lvl, part1.scale)
        part2 = match_scale_level(self.evaluator, part2, part2.level,
                                  part1.scale)
        part2 = self.evaluator.mod_drop(part2, part2.level - part1.level)
        part1 = self.evaluator.mod_drop(part1, part1.level - part2.level)
        return self.evaluator.he_add(part1, part2)

    # -- linear-stage matrices -------------------------------------------

    def _build_linear_transforms(self) -> None:
        if self._cts1 is not None:
            return
        params = self.params
        n = params.num_slots
        big_n = params.ring_degree
        q0 = params.moduli[0]
        scale = params.scale
        encoder = self.encoder
        # F[j, k] = zeta^(e_j * k): evaluation map coeffs -> slots.
        # Exponents reduced mod 2N in exact integer arithmetic first.
        exps = encoder.slot_exponents.astype(np.int64)
        k_idx = np.arange(big_n, dtype=np.int64)
        phases = (exps[:, None] * k_idx[None, :]) % (2 * big_n)
        f_matrix = np.exp(1j * np.pi * phases / big_n)
        f_h = f_matrix.conj().T                     # N x n
        # CoeffToSlot: t = (Delta/(N*q0)) * (P F^H z + P conj(F^H) zbar).
        cts_factor = scale / (big_n * q0)
        m1 = cts_factor * (f_h[:n, :] + 1j * f_h[n:, :])
        f_t = f_matrix.T                            # conj(F^H) = F^T (N x n)
        m2 = cts_factor * (f_t[:n, :] + 1j * f_t[n:, :])
        # SlotToCoeff: z = (q0/(2*pi*Delta)) * (F[:, :n] u + F[:, n:] v).
        stc_factor = q0 / (2.0 * np.pi * scale)
        w1 = stc_factor * f_matrix[:, :n]
        w2 = stc_factor * f_matrix[:, n:]
        self._cts1 = LinearTransform(self.evaluator, m1, name="CtS-1")
        self._cts2 = LinearTransform(self.evaluator, m2, name="CtS-2")
        self._stc1 = LinearTransform(self.evaluator, w1, name="StC-1")
        self._stc2 = LinearTransform(self.evaluator, w2, name="StC-2")
