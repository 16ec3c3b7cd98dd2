"""CKKS parameter sets (paper Tables 1 and 3).

Three presets are provided:

* :meth:`CkksParameters.toy` -- N=2^10, 30-bit primes: fast unit tests.
* :meth:`CkksParameters.test` -- N=2^12, 30-bit primes: integration tests,
  examples, and the functional workloads.
* :meth:`CkksParameters.paper` -- N=2^16, 54-bit word, logQ=1728, L=23,
  L_boot=17, dnum=3, fftIter=4 (paper Table 3).  Used for *size and graph*
  computations that feed the performance model; it also runs functionally
  (slowly), but no experiment needs it to.

All byte-size accounting uses the paper's convention of ``log q`` bits per
coefficient (54-bit packed words), which is how the paper arrives at a
28.3 MB ciphertext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .modmath import native_class
from .primes import generate_ntt_primes


@dataclass(frozen=True)
class CkksParameters:
    """Static CKKS scheme parameters (paper Table 1 nomenclature)."""

    ring_degree: int                 # N, polynomial degree-bound
    scale_bits: int                  # log2(Delta)
    prime_bits: int                  # log q, RNS word size
    max_level: int                   # L, maximum number of limbs - 1
    boot_levels: int                 # L_boot, levels consumed by bootstrap
    dnum: int                        # digits in the switching key
    fft_iterations: int              # multiplicative depth of boot linear
    security_bits: int = 128         # lambda
    #: Compute backend name (see :mod:`repro.fhe.backend`).  Resolved by
    #: :class:`~repro.fhe.poly.PolyContext`; the ``REPRO_FHE_BACKEND``
    #: environment variable overrides this for tests/CI.
    backend: str = "stacked"
    moduli: tuple[int, ...] = field(default=(), repr=False)
    special_moduli: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self):
        # Every residue is int64 and every kernel exact below 2**56; a
        # wider modulus is refused here, naming it, not deep in a kernel.
        for q in (*self.moduli, *self.special_moduli):
            native_class(q)

    @property
    def num_slots(self) -> int:
        """n = N/2 message slots."""
        return self.ring_degree // 2

    @property
    def num_limbs(self) -> int:
        """Number of ciphertext limbs at full level (L + 1)."""
        return self.max_level + 1

    @property
    def alpha(self) -> int:
        """Limbs per key-switching digit: ceil((L + 1) / dnum)."""
        return math.ceil((self.max_level + 1) / self.dnum)

    def digits_at(self, level: int) -> int:
        """Key-switch digits a ciphertext at ``level`` decomposes into."""
        return math.ceil((level + 1) / self.alpha)

    @property
    def num_special_limbs(self) -> int:
        """Extension limbs for the raised modulus (paper: alpha + 1)."""
        return len(self.special_moduli)

    def limb_bytes(self) -> float:
        """Size of one limb in bytes (N coefficients of log q bits)."""
        return self.ring_degree * self.prime_bits / 8

    def poly_bytes(self, level: int | None = None) -> float:
        """Size of one polynomial at ``level`` (default: full level)."""
        limbs = self.num_limbs if level is None else level + 1
        return limbs * self.limb_bytes()

    def ciphertext_bytes(self, level: int | None = None) -> float:
        """Ciphertext = pair of ring elements."""
        return 2 * self.poly_bytes(level)

    def switching_key_bytes(self) -> float:
        """Hybrid switching key: dnum digit keys, each a pair of polys over
        the raised basis (L + 1 + alpha + 1 limbs).

        With paper parameters this is ~112 MB, matching section 2.2.
        """
        raised_limbs = self.num_limbs + self.alpha + 1
        return self.dnum * 2 * raised_limbs * self.limb_bytes()

    def usable_levels(self) -> int:
        """Levels available for application multiplies between bootstraps."""
        return self.boot_levels

    @classmethod
    def toy(cls, backend: str = "stacked") -> "CkksParameters":
        """Tiny parameters for fast unit tests (not secure)."""
        return cls._build(ring_degree=1 << 10, scale_bits=29, prime_bits=30,
                          max_level=5, boot_levels=3, dnum=2,
                          fft_iterations=2, backend=backend)

    @classmethod
    def test(cls, backend: str = "stacked") -> "CkksParameters":
        """Mid-size parameters for integration tests and examples."""
        return cls._build(ring_degree=1 << 12, scale_bits=29, prime_bits=30,
                          max_level=7, boot_levels=5, dnum=2,
                          fft_iterations=2, backend=backend)

    @classmethod
    def boot_test(cls, backend: str = "stacked") -> "CkksParameters":
        """Parameters with enough depth for the functional bootstrap.

        Depth budget: CtS (1) + EvalMod normalize (1) + Chebyshev (~5) +
        double angles (5) + alignment slack (2) + StC (1) ~ 15 levels.
        """
        return cls._build(ring_degree=1 << 10, scale_bits=29, prime_bits=30,
                          max_level=19, boot_levels=17, dnum=3,
                          fft_iterations=2, backend=backend)

    @classmethod
    def paper(cls, backend: str = "stacked") -> "CkksParameters":
        """Paper Table 3: N=2^16, 54-bit word, L=23, L_boot=17, dnum=3.

        The 54-bit word runs on the native double-word kernels
        (int64 storage, one int64 product and two float64 quotient
        estimates per modular multiply), so functional encryption at full
        paper scale is feasible (seconds per op); experiments still use
        these parameters mainly for op/byte counting.
        """
        return cls._build(ring_degree=1 << 16, scale_bits=54, prime_bits=54,
                          max_level=23, boot_levels=17, dnum=3,
                          fft_iterations=4, backend=backend)

    @classmethod
    def _build(cls, ring_degree: int, scale_bits: int, prime_bits: int,
               max_level: int, boot_levels: int, dnum: int,
               fft_iterations: int,
               backend: str = "stacked") -> "CkksParameters":
        alpha = math.ceil((max_level + 1) / dnum)
        # Rescale primes q_1..q_L sit just above 2^(bits-1) ~ Delta so the
        # scale stays stable across rescaling.  The base prime q_0 and the
        # special primes are one bit larger: q_0 buys message headroom at
        # level 0 (capacity ~ q_0 / 2*Delta) and large special primes
        # minimize ModUp overshoot noise.
        big = generate_ntt_primes(alpha + 2, prime_bits + 1, ring_degree,
                                  descending=True)
        special = tuple(big[:alpha + 1])
        q0 = big[alpha + 1]
        rescale_primes = generate_ntt_primes(max_level, prime_bits,
                                             ring_degree, descending=False)
        moduli = (q0,) + tuple(rescale_primes)
        if set(moduli) & set(special):
            raise ValueError("ciphertext and special prime sets overlap")
        return cls(ring_degree=ring_degree, scale_bits=scale_bits,
                   prime_bits=prime_bits, max_level=max_level,
                   boot_levels=boot_levels, dnum=dnum,
                   fft_iterations=fft_iterations, backend=backend,
                   moduli=moduli, special_moduli=special)

    @classmethod
    def from_doc(cls, doc: object) -> "CkksParameters":
        """The parameters a ``dataclasses.asdict`` document stands for
        (an ``.rpa`` header); ``ValueError`` naming the key where the
        document has one too many or too few."""
        if not isinstance(doc, dict):
            raise ValueError(f"params document is not a mapping: {doc!r}")
        doc = dict(doc)
        # Documents written before the ModDown lift lost its second
        # quotient rule carry the one value that is left.
        if doc.pop("mod_down_mode", "exact") != "exact":
            raise ValueError(
                "params key 'mod_down_mode': the 'approx' ModDown mode was "
                "removed (the lift is always exact); re-trace the program")
        names = {f.name for f in fields(cls)}
        for what, keys in (("unknown", set(doc) - names),
                           ("missing", names - set(doc))):
            if keys:
                raise ValueError(f"params document has {what} key(s) "
                                 f"{', '.join(map(repr, sorted(keys)))}")
        return cls(**{**doc, "moduli": tuple(doc["moduli"]),
                      "special_moduli": tuple(doc["special_moduli"])})

    @property
    def scale(self) -> float:
        """Delta, the encoding scale."""
        return float(1 << self.scale_bits)
