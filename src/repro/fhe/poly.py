"""Ring elements of R_Q = Z_Q[x]/(x^N + 1) in RNS (limb) representation.

A :class:`Polynomial` carries its residue limbs in whatever native storage
the active :class:`~repro.fhe.backend.ComputeBackend` uses (a list of 1-D
arrays for the ``reference`` backend, one ``(limbs, N)`` stack for the
``stacked`` backend) plus a representation flag: ``COEFF`` (coefficient
form) or ``EVAL`` (evaluations at the 2N-th roots, i.e. NTT form -- the
paper's default representation for fast multiplication).

The per-limb view remains available through :attr:`Polynomial.limbs`
regardless of backend; treat the returned arrays as read-only.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Sequence

import numpy as np

from .backend import create_backend, resolve_backend_name
from .modmath import random_residues
from .ntt import NttContext, bit_reverse_permutation
from .params import CkksParameters


class Representation(enum.Enum):
    """Polynomial representation (paper section 2.2)."""

    COEFF = "coeff"
    EVAL = "eval"


@functools.lru_cache(maxsize=256)
def galois_tables(ring_degree: int, galois_element: int,
                  rep: Representation
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Gather tables ``(src, flip)`` of x -> x^g in one representation.

    In either form the automorphism is a signed permutation: entry i of
    the image is entry ``src[i]`` of the operand, negated at the
    positions ``flip`` lists.

    * COEFF: coefficient j moves to exponent ``j*g mod 2N`` and picks up
      a sign when it wraps past N (x^N = -1), so coefficient i of the
      image comes from ``j = i*g^-1 mod 2N``, folded the same way.
    * EVAL: slot i of the merged (bit-reversed-output) NTT holds the
      evaluation at ``psi^(2*brev(i)+1)``, and ``a(x^g)`` at ``psi^e`` is
      ``a`` at ``psi^(g*e)``: a pure gather from the slot j with
      ``2*brev(j)+1 = g*(2*brev(i)+1) mod 2N``; ``flip`` is ``None``.

    Cached per ``(N, g, rep)`` and shared by every caller, so the arrays
    are read-only.
    """
    n, two_n = ring_degree, 2 * ring_degree
    if rep is Representation.COEFF:
        exponents = (np.arange(n, dtype=np.int64)
                     * pow(galois_element, -1, two_n)) % two_n
        src = exponents % n
        flip = np.flatnonzero(exponents >= n)
        flip.setflags(write=False)
    else:
        brev = bit_reverse_permutation(n)
        src = brev[((2 * brev + 1) * galois_element % two_n - 1) // 2]
        flip = None
    src.setflags(write=False)
    return src, flip


def coeff_array(coeffs: np.ndarray | list[int]) -> np.ndarray:
    """Signed coefficients of any size as one array.

    An int64 array (a :class:`~repro.fhe.encoder.Plaintext` inside the
    word bound) is taken as it is and a list whose integers fit int64
    becomes one; anything larger is lifted to a single object-dtype
    array of Python integers.
    """
    try:
        return np.asarray(coeffs, dtype=np.int64)
    except (OverflowError, TypeError):
        return np.array([int(c) for c in coeffs], dtype=object)


class PolyContext:
    """Shared state for ring arithmetic: the compute backend and samplers.

    ``backend`` pins a compute backend by name, bypassing both the
    ``REPRO_FHE_BACKEND`` environment variable and ``params.backend``;
    leave it ``None`` for the normal resolution order.
    """

    def __init__(self, params: CkksParameters,
                 seed: int | None = None,
                 backend: str | None = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        if backend is None:
            backend = resolve_backend_name(getattr(params, "backend", None))
        self.backend = create_backend(backend, params)

    def ntt(self, q: int) -> NttContext:
        """NTT context for modulus ``q`` (built lazily, cached)."""
        return self.backend.ntt_context(q)

    def zero(self, moduli: Iterable[int],
             rep: Representation = Representation.COEFF) -> "Polynomial":
        """The zero polynomial over the given basis."""
        moduli = tuple(moduli)
        limbs = [np.zeros(self.params.ring_degree, dtype=np.int64)
                 for _ in moduli]
        return Polynomial(self, limbs, moduli, rep)

    def random_uniform(self, moduli: Iterable[int],
                       rep: Representation = Representation.EVAL
                       ) -> "Polynomial":
        """Uniform element of R_Q (the `a` part of keys/ciphertexts)."""
        moduli = tuple(moduli)
        limbs = [random_residues(self.params.ring_degree, q, self.rng)
                 for q in moduli]
        return Polynomial(self, limbs, moduli, rep)

    def random_ternary(self, moduli: Iterable[int],
                       hamming_weight: int | None = None) -> "Polynomial":
        """Sparse ternary secret with the given Hamming weight (COEFF)."""
        n = self.params.ring_degree
        weight = min(hamming_weight or 64, n)
        signs = self.rng.choice((-1, 1), size=weight)
        positions = self.rng.choice(n, size=weight, replace=False)
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[positions] = signs
        return self.from_signed_coeffs(coeffs, moduli)

    def gaussian_coeffs(self, sigma: float = 3.2,
                        rng: np.random.Generator | None = None
                        ) -> np.ndarray:
        """N signed discrete-Gaussian error coefficients, drawn from
        ``rng`` (``None``: this context's generator)."""
        rng = self.rng if rng is None else rng
        return np.rint(rng.normal(0.0, sigma, size=self.params.ring_degree)
                       ).astype(np.int64)

    def from_signed_coeffs(self, coeffs: np.ndarray | list[int],
                           moduli: Iterable[int]) -> "Polynomial":
        """Lift signed integer coefficients into each limb (COEFF).

        The array is reduced once against the whole basis, straight into
        backend-native storage
        (:meth:`~repro.fhe.backend.ComputeBackend.reduce_coeffs`).
        """
        moduli = tuple(moduli)
        data = self.backend.reduce_coeffs(np.asarray(coeffs), moduli)
        return Polynomial(self, data, moduli, Representation.COEFF)

    def from_big_coeffs(self, coeffs: np.ndarray | list[int],
                        moduli: Iterable[int]) -> "Polynomial":
        """Lift arbitrary-precision signed coefficients (COEFF).

        One vectorized reduction over :func:`coeff_array` of them.
        """
        return self.from_signed_coeffs(coeff_array(coeffs), moduli)


class Polynomial:
    """An element of R_Q held in backend-native limb storage."""

    __slots__ = ("context", "data", "moduli", "rep")

    def __init__(self, context: PolyContext,
                 limbs: "list[np.ndarray] | np.ndarray",
                 moduli: tuple[int, ...], rep: Representation):
        if len(limbs) != len(moduli):
            raise ValueError("limb count does not match modulus count")
        self.context = context
        self.data = context.backend.as_native(limbs, moduli)
        self.moduli = moduli
        self.rep = rep

    @property
    def limbs(self) -> list[np.ndarray]:
        """Per-limb residue vectors (read-only compatibility view)."""
        return self.context.backend.to_limbs(self.data, self.moduli)

    def _wrap(self, data, moduli: tuple[int, ...] | None = None,
              rep: Representation | None = None) -> "Polynomial":
        return Polynomial(self.context, data,
                          self.moduli if moduli is None else moduli,
                          self.rep if rep is None else rep)

    # -- representation management -------------------------------------

    def to_eval(self) -> "Polynomial":
        """Convert to evaluation (NTT) form; no-op if already there."""
        if self.rep is Representation.EVAL:
            return self
        data = self.context.backend.ntt_forward(self.data, self.moduli)
        return self._wrap(data, rep=Representation.EVAL)

    def to_coeff(self) -> "Polynomial":
        """Convert to coefficient form; no-op if already there."""
        if self.rep is Representation.COEFF:
            return self
        data = self.context.backend.ntt_inverse(self.data, self.moduli)
        return self._wrap(data, rep=Representation.COEFF)

    # -- ring operations -------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.moduli != other.moduli:
            raise ValueError("operands live over different RNS bases")
        if self.rep is not other.rep:
            raise ValueError("operands are in different representations")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        backend = self.context.backend
        return self._wrap(backend.add(self.data, other.data, self.moduli))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        backend = self.context.backend
        return self._wrap(backend.sub(self.data, other.data, self.moduli))

    def __neg__(self) -> "Polynomial":
        return self._wrap(self.context.backend.neg(self.data, self.moduli))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Pointwise product; both operands must be in EVAL form."""
        self._check_compatible(other)
        if self.rep is not Representation.EVAL:
            raise ValueError("ring multiplication requires EVAL form")
        backend = self.context.backend
        return self._wrap(backend.mul(self.data, other.data, self.moduli))

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply by an integer scalar (any representation)."""
        scalars = [scalar] * len(self.moduli)
        backend = self.context.backend
        return self._wrap(backend.scalar_mul(self.data, scalars, self.moduli))

    def scalar_add_per_limb(self, scalars: list[int]) -> "Polynomial":
        """Add scalars[i] to every residue of limb i (constant folding)."""
        if len(scalars) != len(self.moduli):
            raise ValueError("need one scalar per limb")
        backend = self.context.backend
        return self._wrap(backend.scalar_add(self.data, list(scalars),
                                             self.moduli))

    # -- automorphisms -----------------------------------------------------

    def automorphism(self, galois_element: int) -> "Polynomial":
        """Apply x -> x^g (paper's psi_r when g = 5^r mod 2N).

        Works in either representation and stays in it: a signed
        permutation of coefficients in COEFF form, a plain gather of
        evaluation slots in EVAL form (see :func:`galois_tables`), so
        ``a.to_eval().automorphism(g) == a.automorphism(g).to_eval()``.
        """
        two_n = 2 * self.context.params.ring_degree
        g = galois_element % two_n
        if g % 2 == 0:
            raise ValueError("Galois element must be odd")
        src, flip = galois_tables(two_n // 2, g, self.rep)
        data = self.context.backend.automorphism(self.data, self.moduli,
                                                 src, flip)
        return self._wrap(data)

    # -- basis management --------------------------------------------------

    def at_basis(self, moduli: tuple[int, ...]) -> "Polynomial":
        """Restrict to a sub-basis (any subset of this basis, by value).

        Limbs are selected by modulus, so the target may be a prefix
        (level drop) or a prefix + the special primes (key switching).
        This polynomial's own basis selects nothing: kernels never write
        their inputs, so it is returned as it is.
        """
        if tuple(moduli) == tuple(self.moduli):
            return self
        index = {q: i for i, q in enumerate(self.moduli)}
        try:
            picks = [index[q] for q in moduli]
        except KeyError as missing:
            raise ValueError(
                f"modulus {missing} is not a limb of this polynomial"
            ) from None
        data = self.context.backend.select_limbs(self.data, picks)
        return self._wrap(data, moduli=tuple(moduli))

    def copy(self) -> "Polynomial":
        """Deep copy."""
        return self._wrap(self.context.backend.copy(self.data))

    @property
    def num_limbs(self) -> int:
        return len(self.moduli)

    def __repr__(self) -> str:
        return (f"Polynomial(limbs={self.num_limbs}, rep={self.rep.value}, "
                f"n={self.context.params.ring_degree}, "
                f"backend={self.context.backend.name})")


def rescale_last(polys: Sequence[Polynomial]) -> list[Polynomial]:
    """Exact divide-and-round by the last limb's modulus (EVAL form).

    The HERescale workhorse: each polynomial — the components of one
    ciphertext, over one basis — drops its last limb and becomes
    ``round(x / q_last)`` over the remaining basis, still in EVAL form.
    Only the dropped limbs are ever taken to coefficient form, all of
    them in one backend call (see :meth:`ComputeBackend.rescale_last`).
    """
    head = polys[0]
    if any(poly.rep is not Representation.EVAL for poly in polys):
        raise ValueError("rescale_last requires EVAL form")
    if any(poly.moduli != head.moduli for poly in polys):
        raise ValueError("rescale_last takes polynomials over one basis")
    if len(head.moduli) < 2:
        raise ValueError("cannot rescale away the only limb")
    data = head.context.backend.rescale_last([poly.data for poly in polys],
                                             head.moduli)
    return [head._wrap(out, moduli=head.moduli[:-1]) for out in data]


def rotation_galois_element(rotation: int, ring_degree: int) -> int:
    """Galois element 5^r mod 2N implementing a rotation by r slots."""
    two_n = 2 * ring_degree
    return pow(5, rotation % (ring_degree // 2), two_n)


def conjugation_galois_element(ring_degree: int) -> int:
    """Galois element 2N - 1 implementing complex conjugation."""
    return 2 * ring_degree - 1
