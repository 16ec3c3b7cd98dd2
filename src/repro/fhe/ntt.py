"""Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).

Implements the merged NTT of Longa--Naehrig / Poppelmann et al. [65] that the
paper adopts: twiddle factors are stored in bit-reversed order so they are
read sequentially within each butterfly stage (the spatial-locality
optimization the paper cites for GPU twiddle access).

Forward transform: Cooley--Tukey decimation-in-time with the 2N-th root psi
folded in (no pre-multiplication pass).  Inverse: Gentleman--Sande with
psi^-1 folded in and a final N^-1 scaling.  Evaluation j of either is the
value at ``psi**(2 * bit_reverse(j) + 1)``.

:class:`NttContext` runs those butterfly stages on one limb, vectorized
per stage with numpy, on every word size; it is the ``reference``
backend's kernel and the oracle of the stacked one.
:class:`BatchedNttContext` transforms a whole limb stack by one
algorithm, bound to the stack's kernel class (see
:func:`repro.fhe.modmath.stack_native_class`) when it is built.  Both
classes run the same multi-step transform: N = n_1 * ... * n_k
(:func:`factors`: 32 x 32 at 2**10, 64 x 64 at 2**12, 32 x 32 x 64 at
the paper's 2**16), one batched matrix product per factor with a
pointwise twiddle scale between products, the bit-reversed layout baked
into the matrices' row order.  The products
are float64 and exact (:class:`repro.fhe.modmath.BoundModMatmul`): each
residue is split into ``pieces`` words of ``bits`` bits, the matrix
``[W | W * 2**bits | ...] mod q`` absorbs the shifts, and the word sizes
are the coarsest that keep every dot product below 2**53 — so every
partial sum is an integer float64 holds exactly, in whatever order BLAS
adds.  The classes differ in the word sizes and the twiddle multiply:

* ``int64`` (every q < 2**31): a matrix entry is one float64 word, a
  product is reduced with ``%``, a twiddle scale is one int64 multiply
  and ``%`` (two matmuls and three ``%`` per transform at N = 2**10, a
  fourth only for input beyond the kernel's ``reach``, which is
  reduced first on either tier);
* ``dword`` (q < 2**56, the paper's 54-bit word): the matrix entries are
  split into ``table_pieces`` words too (3 x 18 operand bits against
  2 x 27 table bits at 54 bits: six partial products per step, not the
  eight-plus once guessed here), the partial sums are recombined with a
  float64 quotient estimate and wrap-around int64 — no double-word
  arithmetic — and the twiddle scale is one
  :func:`repro.fhe.modmath._mulmod_f64` (an int64 product corrected by
  two float64 quotient estimates), against a float64 copy of each
  twiddle table.

A modulus of 2**56 or more has no kernel class: both contexts refuse it
(``ValueError``).

Tables are a pure function of ``(q, N)``: :func:`ntt_context` and
:func:`batched_ntt_context` build them once per process, read-only, and
share them between every backend instance (see :class:`_TableCache`).
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict

import numpy as np

from .modmath import (BoundModMatmul, _f64_columns, _mulmod_f64, addmod_vec,
                      invmod, mulmod, mulmod_stack, mulmod_vec, native_class,
                      reduce_vec, stack_native_class, submod_vec)
from .primes import primitive_nth_root


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@functools.lru_cache(maxsize=64)
def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index array mapping i -> bit-reversed i for a power-of-two n.

    One read-only array per ``n``, shared by every caller.
    """
    bits = (n - 1).bit_length()
    index = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((index >> b) & 1) << (bits - 1 - b)
    rev.setflags(write=False)
    return rev


def _freeze(tables) -> int:
    """Make every table read-only; their total size in bytes."""
    nbytes = 0
    for table in tables:
        if table is not None:
            table.setflags(write=False)
            nbytes += table.nbytes
    return nbytes


class NttContext:
    """Precomputed negacyclic NTT tables for one prime modulus.

    The butterfly stages run through the generic per-limb kernels
    (:func:`repro.fhe.modmath.mulmod_vec` and friends), so both tiers
    take the same loop, each product on its own tier's kernel.

    Parameters
    ----------
    q:
        NTT-friendly prime with ``q === 1 (mod 2n)``.
    n:
        Power-of-two transform length (the ring degree N).
    """

    def __init__(self, q: int, n: int):
        native_class(q)
        if n & (n - 1):
            raise ValueError(f"transform length must be a power of two: {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not === 1 mod 2n={2 * n}")
        self.q = q
        self.n = n
        self.psi = primitive_nth_root(q, 2 * n)
        self.psi_inv = invmod(self.psi, q)
        self.n_inv = invmod(n, q)
        rev = bit_reverse_permutation(n)
        self.psi_rev = self._power_table(self.psi)[rev]
        self.psi_inv_rev = self._power_table(self.psi_inv)[rev]
        #: Bytes of table storage; the tables are shared between backends
        #: and threads (see :func:`ntt_context`), hence read-only.
        self.nbytes = _freeze((self.psi_rev, self.psi_inv_rev))

    def _power_table(self, base: int) -> np.ndarray:
        """``base**i mod q`` for i < n, in log2 n doubling passes."""
        q, n = self.q, self.n
        powers = np.ones(n, dtype=np.int64)
        m = 1
        while m < n:
            # base holds the m-th power of the root here.
            powers[m:2 * m] = mulmod_vec(powers[:m], base, q)
            base = mulmod(base, base, q)
            m *= 2
        return powers

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT: coefficient form -> evaluation form."""
        q, n = self.q, self.n
        a = reduce_vec(np.array(coeffs, copy=True), q)
        t = n
        m = 1
        while m < n:
            t //= 2
            twiddles = self.psi_rev[m:2 * m]
            block = a.reshape(m, 2 * t)
            u = block[:, :t].copy()
            v = mulmod_vec(block[:, t:], twiddles[:, None], q)
            block[:, :t] = addmod_vec(u, v, q)
            block[:, t:] = submod_vec(u, v, q)
            m *= 2
        return a

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT: evaluation form -> coefficient form."""
        q, n = self.q, self.n
        a = reduce_vec(np.array(evals, copy=True), q)
        t = 1
        m = n
        while m > 1:
            h = m // 2
            twiddles = self.psi_inv_rev[h:2 * h]
            block = a.reshape(h, 2 * t)
            u = block[:, :t].copy()
            v = block[:, t:].copy()
            block[:, :t] = addmod_vec(u, v, q)
            block[:, t:] = mulmod_vec(submod_vec(u, v, q), twiddles[:, None],
                                      q)
            t *= 2
            m = h
        return mulmod_vec(a, self.n_inv, q)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two coefficient-form polynomials mod (x^n + 1, q)."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(mulmod_vec(fa, fb, self.q))


#: Largest factor of the multi-step transform (see :func:`factors`).  A
#: step is a dense ``n_j x n_j`` matrix product per limb — n_j multiplies
#: per coefficient where butterflies take log2 n_j — so factors want to
#: be small; but every extra step is another pass of word splitting,
#: recombination and twiddle scaling over the whole stack, so there want
#: to be few.  Forward transform of a 3-limb stack, ms, two factors
#: against three (measured by lifting this cap): at N = 2**12, 64 x 64
#: 0.41 against 16 x 16 x 16 0.46 with 30-bit primes and 0.86 against
#: 0.80 with 54-bit ones (six partial products per step instead of
#: three: the tiers disagree, mildly); at 2**13, 64 x 128 2.11 against
#: 16 x 16 x 32 1.58 (54-bit); at 2**14, 128 x 128 4.89 against 3.92; at
#: the paper's 2**16, 256 x 256 31.7 against 32 x 32 x 64 21.1 (four
#: factors of 16: 26.7; the per-limb butterflies: 27.2).  At 2**10 two
#: factors beat three on both tiers (0.09 against 0.13, 0.20 against
#: 0.25).  So: as few factors as fit under 64.
MAX_FACTOR = 64


def factors(n: int) -> tuple[int, ...]:
    """The grid a length-``n`` transform runs on: the fewest power-of-two
    factors, each at most :data:`MAX_FACTOR`, as equal as they can be,
    smaller ones first — 32 x 32 at 2**10, 32 x 64 at 2**11, 64 x 64 at
    2**12, 16 x 16 x 32 at 2**13, 32 x 32 x 64 at 2**16."""
    log = n.bit_length() - 1
    count = max(1, -(-log // (MAX_FACTOR.bit_length() - 1)))
    low, wider = divmod(log, count)
    return (1 << low,) * (count - wider) + (2 << low,) * wider


class BatchedNttContext:
    """Negacyclic NTT over a whole stack of RNS limbs at once.

    Where :class:`NttContext` transforms one limb, this context transforms
    a ``(limbs, N)`` array with per-row tables, the batching GME exploits
    on the GPU (each limb is an independent instance of the same kernel).
    The kernel class is bound here, once (see the module docstring): the
    multi-step transform — one exact float64 matrix product per factor of
    N, pointwise twiddles between them — on both tiers, the paper's
    54-bit word and its 55-bit primes included (up to 2**56).  Results
    are bit-exact with the per-limb transforms: both do exact integer
    arithmetic, only its arrangement differs.

    Every table is read-only; the contexts :func:`batched_ntt_context`
    hands out are shared between backends and threads.

    Parameters
    ----------
    moduli:
        NTT-friendly primes, one per limb (each ``q === 1 mod 2n``).
    n:
        Power-of-two transform length (the ring degree N).
    """

    #: Per-row tables: arrays, or tuples of them — one twiddle per step
    #: boundary, one tuple of table words per step; ``rows`` slices
    #: whichever of them the tier built.
    _PER_ROW = ("q_col", "q_grid", "q_inv_col", "q_inv_grid",
                "fwd_matrices", "fwd_twiddles", "fwd_twiddles_f64",
                "inv_matrices", "inv_twiddles", "inv_twiddles_f64")

    def __init__(self, moduli, n: int):
        self.moduli = tuple(moduli)
        self.n = n
        #: The context whose storage this one views (``rows``,
        #: ``repeated``), if any.
        self.owner = None
        #: Copies of the basis stacked in one call (``repeated``).
        self.reps = 1
        for name in self._PER_ROW:
            setattr(self, name, None)
        self.klass = stack_native_class(self.moduli)
        self.q_col = np.array(self.moduli, dtype=np.int64).reshape(-1, 1)
        self._bind_steps([ntt_context(q, n) for q in self.moduli])
        #: Bytes of table storage this context owns (0 for a view).
        self.nbytes = _freeze(self._tables())

    def _tables(self):
        """Every per-row array this context holds."""
        def arrays(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)
            elif value is not None:
                yield value

        for name in self._PER_ROW:
            yield from arrays(getattr(self, name))

    def _bind_steps(self, ctxs: list[NttContext]) -> None:
        """Gather the multi-step matrices and twiddles from the per-limb
        power tables.

        With N = n_1 * ... * n_k, input index ``i = i_1 * N / n_1 + i'``
        and evaluation exponent ``2k + 1``, ``k = k_1 + n_1 * k'``,

            psi**((2k + 1) i) = psi**((2 k_1 + 1) (N / n_1) i_1)
                                * psi**((2 k_1 + 1) i')
                                * (psi**(2 n_1))**(k' i'):

        a matrix over ``i_1``, a pointwise twiddle, and a *cyclic*
        transform of length ``M = N / n_1`` over ``i'`` with the root
        ``w = psi**(2 n_1)``, which splits the same way, ``i' = i_2 * M /
        n_2 + i''`` and ``k' = k_2 + n_2 * k''``:

            w**(k' i') = w**((M / n_2) k_2 i_2) * w**(k_2 i'')
                         * (w**n_2)**(k'' i''),

        and so on down to the last factor.  Step j therefore contracts
        axis j of the ``(n_1, ..., n_k)`` grid with an ``n_j x n_j``
        matrix and (but for the last) scales by a twiddle over axes j and
        beyond.  Ordering every matrix's rows by bit-reversed ``k_j``
        makes the grid, read row-major, the bit-reversed evaluation
        layout.  The inverse runs the chain backwards with negated
        exponents, ``N**-1`` folded into the matrix it ends on.  The last
        axis (of two or more) is contracted from the right, ``x @ A``,
        the others from the left, ``A @ x``, the grid's leading axes
        riding along as matmul batch axes (a table between the first and
        the last axis carries the singleton axis that broadcasts against
        them).

        Bound here: the factors of N (each limb is transformed as a grid
        of that shape), the product of the factors before each, and the
        kernel of every step's matrix product, which holds how residues
        and tables are cut into float64 words.
        """
        n, rows, moduli = self.n, len(ctxs), self.moduli
        self.grid = grid = factors(n)
        self.axes = tuple(range(len(grid)))
        self.leads = tuple(math.prod(grid[:j]) for j in self.axes)
        self.matmul = kernel = BoundModMatmul(max(moduli), max(grid))
        self.q_grid = self.q_col.reshape(rows, 1, 1)
        dword = self.klass == "dword"
        if kernel.table_pieces > 1:
            self.q_inv_col = 1.0 / self.q_col
        if dword:
            # Asserts the bound the twiddle scale's exactness rests on.
            self.q_inv_grid = _f64_columns(moduli, 3)[1]
        # psi**e for e < 2N out of the bit-reversed tables, by
        # psi**(N + e) = -psi**e; psi**-e is entry 2N - e.
        natural = bit_reverse_permutation(n)
        powers = np.stack([c.psi_rev for c in ctxs])[:, natural]
        powers = np.concatenate([powers, self.q_col - powers], axis=1)
        n_inv = np.array([c.n_inv for c in ctxs]).reshape(rows, 1, 1)

        def gather(table, exponents):
            # C order: a gather by an index array comes back transposed.
            return np.ascontiguousarray(table[:, exponents % (2 * n)])

        last = len(grid) - 1

        def bind(sign: int) -> tuple:
            """One direction's ``(matrices, twiddles, twiddles_f64)``:
            the forward chain, or with ``sign`` -1 the inverse one."""
            matrices, twiddles, twiddles_f64 = [], [], []
            for j, (n_j, lead) in enumerate(zip(grid, self.leads)):
                k_j = bit_reverse_permutation(n_j)
                rest = n // (lead * n_j)
                # The exponent of psi at this level's k_j-th point, rows
                # in bit-reversed k_j: psi**(2 k_1 + 1), then the current
                # root w = psi**(2 lead) to the k_j.
                point = sign * (2 * k_j + 1 if j == 0
                                else 2 * lead * k_j)[:, None]
                exponents = point * rest * np.arange(n_j)
                right = last > 0 and j == last
                # A forward table multiplies from the left as it stands;
                # contracting from the right or inverting transposes it.
                if right != (sign < 0):
                    exponents = exponents.T
                matrix = gather(powers, exponents[None] if 0 < j < last
                                else exponents)
                if sign < 0 and j == 0:
                    matrix = mulmod_stack(matrix, n_inv, moduli)
                matrices.append(kernel.table(matrix, moduli,
                                             -2 if right else -1))
                if j < last:
                    exponents = (point * np.arange(rest)).reshape(1, -1)
                    twiddles.append(gather(powers, exponents))
                    if dword:
                        twiddles_f64.append(twiddles[-1].astype(np.float64))
            return tuple(matrices), tuple(twiddles), tuple(twiddles_f64)

        self.fwd_matrices, self.fwd_twiddles, self.fwd_twiddles_f64 = \
            bind(1)
        self.inv_matrices, self.inv_twiddles, self.inv_twiddles_f64 = \
            bind(-1)

    def rows(self, start: int, stop: int) -> "BatchedNttContext":
        """Context for limbs ``[start, stop)``, sharing table storage as
        views.

        Level drops walk down prefixes of one basis, rescale / ModDown
        transform the dropped limb or the special primes alone, and ModUp
        transforms a raised digit on either side of its own limbs; all of
        them are row ranges of a stack that is already cached, so sharing
        it keeps the cache at O(L * N) instead of one copy per level and
        sub-basis.
        """
        rows = slice(start, stop)

        def view(value):
            if isinstance(value, tuple):
                return tuple(view(item) for item in value)
            return None if value is None else value[rows]

        out = object.__new__(BatchedNttContext)
        out.__dict__.update(self.__dict__)
        out.moduli = self.moduli[rows]
        out.owner = self.owner or self
        out.nbytes = 0
        for name in self._PER_ROW:
            setattr(out, name, view(getattr(self, name)))
        return out

    def repeated(self, times: int) -> "BatchedNttContext":
        """Context for ``times`` copies of this basis stacked in one
        call, sharing every table.

        A ciphertext's components cross a transform together: the copies
        ride along as a leading batch axis of every step, and each
        step's tables broadcast over it.  Only the modulus columns the
        reductions sweep row by row are laid out once per copy.
        """
        out = object.__new__(BatchedNttContext)
        out.__dict__.update(self.__dict__)
        out.moduli = self.moduli * times
        out.owner = self.owner or self
        out.nbytes = 0
        out.reps = times
        for name in ("q_col", "q_inv_col"):
            column = getattr(self, name)
            if column is not None:
                column = np.tile(column, (times, 1))
                column.setflags(write=False)
                setattr(out, name, column)
        return out

    def _transform(self, stack: np.ndarray, direction: int, matrices,
                   twiddles, twiddles_f64) -> np.ndarray:
        """One direction's chain over the int64 ``stack``, reduced or
        not."""
        stack = np.asarray(stack)
        # The first step only splits its input into words, and any int64
        # within the kernel's reach splits exactly: reduced residues,
        # centered lifts.  Anything else is reduced row-wise first.
        reach = self.matmul.reach
        if (stack.dtype == np.int64 and -reach < stack.min()
                and stack.max() < reach):
            a = stack
        else:
            a = np.empty(stack.shape, dtype=np.int64)
            np.remainder(stack, self.q_col, out=a)
        if self.reps > 1:
            a = a.reshape(self.reps, -1, self.n)
        return self._steps(a, direction, matrices, twiddles,
                           twiddles_f64).reshape(stack.shape)

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Batched negacyclic NTT: coefficient stack -> evaluation stack."""
        return self._transform(stack, 1, self.fwd_matrices,
                               self.fwd_twiddles, self.fwd_twiddles_f64)

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Batched inverse NTT: evaluation stack -> coefficient stack."""
        return self._transform(stack, -1, self.inv_matrices,
                               self.inv_twiddles, self.inv_twiddles_f64)

    # -- the multi-step transform, exact float64 matmuls -----------------

    def _steps(self, a: np.ndarray, direction: int, matrices: tuple,
               twiddles: tuple, twiddles_f64: tuple) -> np.ndarray:
        """The reduced stack ``a`` through every step of one direction's
        chain: axis 0 first going forward (``direction`` 1), last axis
        first going back (-1).  Each step contracts its axis of the grid
        with its matrix, then scales by the twiddle that sits between
        that axis and the next one to go — over both and everything
        after them, broadcast over the axes before.  ``a`` is ``(rows,
        N)``, or ``(reps, rows, N)`` for a :meth:`repeated` context."""
        rows, grid, kernel = a.shape[:-1], self.grid, self.matmul
        q_col, q_inv_col = self.q_col, self.q_inv_col
        last = len(grid) - 1
        for j in self.axes[::direction]:
            if j == 0:
                a = kernel.left(matrices[0], a.reshape(*rows, grid[0], -1),
                                q_col, q_inv_col)
            elif j == last:
                a = kernel.right(a.reshape(*rows, -1, grid[j]),
                                 matrices[j], q_col, q_inv_col)
            else:
                a = kernel.left(
                    matrices[j],
                    a.reshape(*rows, self.leads[j], grid[j], -1),
                    q_col, q_inv_col)
            between = j if direction > 0 else j - 1
            if not 0 <= between < last:
                continue
            a = a.reshape(*rows, self.leads[between], -1)
            if twiddles_f64:
                a = _mulmod_f64(a, twiddles[between], twiddles_f64[between],
                                self.q_grid, self.q_inv_grid)
            else:
                a *= twiddles[between]      # int64, products < 2**62
                a %= self.q_grid
        return a


def _find_run(basis: tuple[int, ...], run: tuple[int, ...]) -> int | None:
    """Index at which ``run`` occurs as consecutive limbs of ``basis``."""
    try:
        start = basis.index(run[0])
    except ValueError:
        return None
    return start if basis[start:start + len(run)] == run else None


def _period(basis: tuple[int, ...]) -> int:
    """Length of the shortest run ``basis`` is copies of."""
    size = len(basis)
    return next(p for p in range(1, size + 1)
                if size % p == 0 and basis == basis[:p] * (size // p))


class _TableCache:
    """Process-wide LRU of NTT tables, bounded in bytes.

    Tables are a pure function of the modulus (or basis) and the ring
    degree, so one copy serves every backend instance, tenant context and
    worker thread of the process; all of it is read-only.  Two kinds of
    entry:

    * ``(q, N)`` -> :class:`NttContext`: the bit-reversed power tables,
      ``16 * N`` bytes;
    * ``(moduli, N)`` -> :class:`BatchedNttContext`.  A basis that is a
      run of limbs of a cached stack, or copies of one run, is a view of
      it and owns nothing; any other basis copies its limbs' tables into
      a fresh stack.  Per
      limb that is a twiddle of ``8 * N / lead_j`` bytes per direction
      after every step but the last (``lead_j`` the product of the
      factors before n_j: the first one, N entries, dominates) and a
      matrix of ``8 * pieces * table_pieces * n_j**2`` bytes per step
      and direction: ``16 * N + 16 * pieces * (n1**2 + n2**2)`` on the
      int64 tier with two factors (80 KB at N = 2**10, 448 KB at 2**12).
      The double-word tier has ``pieces * table_pieces`` = 6 to 8 words
      per entry and a float64 copy beside every twiddle entry: 192 +
      32 = 224 KB at N = 2**10, and at the paper's N = 2**16 about
      0.7 MB of matrices and 2.1 MB of twiddles.

    ``max_bytes`` bounds the sum over entries; the entry count is bounded
    by it too, each stack owner having at most one view per run of its
    limbs.  Past the budget the least recently used entries go, an
    evicted stack taking its views with it; whoever still holds a context
    keeps it alive, the cache just stops handing it out.  Builds run
    under the lock, so two threads asking for the same tables get the
    same objects.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        # Re-entrant: building a stack looks up its per-limb contexts.
        self._lock = threading.RLock()

    def get(self, key: tuple, build):
        """The tables cached under ``key = (q or moduli, n)``, built as
        ``build(*key)`` on a miss."""
        with self._lock:
            tables = self._entries.get(key)
            if tables is not None:
                self._entries.move_to_end(key)
                return tables
            tables = build(*key)
            self._entries[key] = tables
            self.nbytes += tables.nbytes
            while self.nbytes > self.max_bytes and len(self._entries) > 1:
                evicted = self._entries.popitem(last=False)[1]
                self.nbytes -= evicted.nbytes
                for view in [k for k, v in self._entries.items()
                             if getattr(v, "owner", None) is evicted]:
                    del self._entries[view]
            return tables

    def stack_or_view(self, moduli: tuple[int, ...],
                      n: int) -> BatchedNttContext:
        """A view of a cached stack that holds ``moduli`` as a run of its
        limbs on the same kernel tier, else a fresh stack; a basis that
        is copies of one run (a ciphertext's components stacked) is that
        run's context, :meth:`~BatchedNttContext.repeated`."""
        period = _period(moduli)
        if period < len(moduli):
            return self.get((moduli[:period], n), self.stack_or_view) \
                .repeated(len(moduli) // period)
        want = stack_native_class(moduli)
        with self._lock:
            for cached in self._entries.values():
                if (isinstance(cached, BatchedNttContext)
                        and cached.owner is None and cached.n == n
                        and cached.klass == want):
                    start = _find_run(cached.moduli, moduli)
                    if start is not None:
                        return cached.rows(start, start + len(moduli))
        return BatchedNttContext(moduli, n)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_TABLE_CACHE = _TableCache(max_bytes=512 << 20)


def ntt_context(q: int, n: int) -> NttContext:
    """The process-wide, read-only :class:`NttContext` for ``(q, n)``."""
    return _TABLE_CACHE.get((q, n), NttContext)


def batched_ntt_context(moduli, n: int) -> BatchedNttContext:
    """The process-wide, read-only stacked tables for an RNS basis.

    Bases that are a contiguous run of limbs of an already-cached basis —
    every level drop walks down a prefix, rescale transforms the dropped
    limb alone, ModDown the special primes alone, ModUp the extended
    basis on either side of a digit — share its stacked tables as row
    views; only genuinely new bases (e.g. the extended key-switching
    basis below the top level) allocate fresh stacks.
    """
    return _TABLE_CACHE.get((tuple(moduli), n), _TABLE_CACHE.stack_or_view)


def clear_table_cache() -> None:
    """Drop every shared table; the next context builds its own again."""
    _TABLE_CACHE.clear()


def negacyclic_convolution_naive(a: np.ndarray, b: np.ndarray,
                                 q: int) -> np.ndarray:
    """O(n^2) schoolbook negacyclic convolution; test oracle for the NTT."""
    n = len(a)
    result = [0] * n
    for i, ai in enumerate(int(x) for x in a):
        if ai == 0:
            continue
        for j, bj in enumerate(int(x) for x in b):
            k = i + j
            term = ai * bj
            if k >= n:
                result[k - n] = (result[k - n] - term) % q
            else:
                result[k] = (result[k] + term) % q
    return np.array(result, dtype=np.int64)
