"""Every sha256 bit pin of ``tests/``: one table, one fixture, one recorder.

``tests/pins.json`` holds each pin as ``"family/case/preset": sha256``,
one line per id.  A pin module registers how its pins are computed
(:func:`family`) and asserts them against the table (:func:`expected`).
The recorder imports every pin module (:data:`MODULES`), recomputes
every registered pin and prints old -> new by family; ``--record`` also
rewrites the table::

    PYTHONPATH=src python -m tests.pins            # what would move
    PYTHONPATH=src python -m tests.pins --record   # rewrite pins.json

Arithmetic pins take their secret, their switching keys and their
encryptions from :func:`fixture`, which builds them from NumPy's raw
PCG64 words with the library's polynomial arithmetic and nothing else,
so a change to how the library samples moves none of them.  The pins of
the library's samplers (key streams, encryption) are family ``sampler``.
``blocksim/test_parent_cycles.py`` (model rows) and
``fhe/test_byte_budget.py`` (budgets) keep their own tables.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import itertools
import json
import math
import pathlib
import sys
import zlib
from typing import Callable, Iterable

import numpy as np

from repro.fhe import CkksContext, CkksParameters
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.keys import SecretKey, SwitchingKey
from repro.fhe.packing import SlotLayout
from repro.fhe.poly import (Polynomial, Representation, coeff_array,
                            conjugation_galois_element,
                            rotation_galois_element)
from repro.fhe.rns import digit_spans
from repro.serve.workloads import ServedWorkload, scoring_workload

HERE = pathlib.Path(__file__).resolve().parent
PATH = HERE / "pins.json"

#: The modules that register pins, relative to ``tests/``.
MODULES = ("artifact/test_corpus_pins.py", "engine/test_simulate_pins.py",
           "fhe/test_backend_equivalence.py", "fhe/test_baseconv_pins.py",
           "fhe/test_bootstrap.py", "fhe/test_crt_pins.py",
           "fhe/test_edge_pins.py", "fhe/test_key_digests.py",
           "fhe/test_parent_digests.py", "fhe/test_routed_programs.py",
           "fhe/test_transform_pins.py", "trace/test_op_table_pins.py")


# -- presets and served workloads ---------------------------------------------

def pw54(backend: str = "stacked") -> CkksParameters:
    """The 54-bit paper word on a toy ring (``bench.workloads.pw54``)."""
    return CkksParameters._build(ring_degree=1 << 10, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=2, fft_iterations=1, backend=backend)


#: The two served presets: the int64 tier and the double-word tier.
PRESETS = {"toy": CkksParameters.toy, "pw54": pw54}

WIDTH = 16
_AFFINE = tuple(np.linspace(lo, hi, WIDTH) for lo, hi in
                ((0.5, 1.0), (-0.5, 0.5), (1.0, 0.25), (0.25, -0.25)))


def affine_workload() -> ServedWorkload:
    """``bench``'s key-switch-free lane: ``(x*a + b)*c + d`` slot-wise."""

    def build(layout: SlotLayout):
        a, b, c, d = (np.tile(v, layout.capacity) for v in _AFFINE)

        def affine(ev, ct):
            encode = ev.encoder.encode
            y = ev.poly_mult(ct, encode(a), rescale=True)
            y = ev.poly_add(y, encode(b, y.scale))
            y = ev.poly_mult(y, encode(c), rescale=True)
            return ev.poly_add(y, encode(d, y.scale))

        return affine

    return ServedWorkload(name=f"affine-w{WIDTH}", width=WIDTH,
                          build_program=build, result_slots=WIDTH)


SERVED = {"scoring": lambda: scoring_workload(WIDTH),
          "affine": affine_workload}


def ct_digest(ciphertexts: Iterable[Ciphertext]) -> str:
    """Each ciphertext's level, ``repr(scale)`` and the int64 limbs of
    every component, ``c2`` included."""
    sha = hashlib.sha256()
    for ct in ciphertexts:
        sha.update(f"{ct.level}:{ct.scale!r};".encode())
        for poly in ct.components:
            for limb in poly.limbs:
                sha.update(np.ascontiguousarray(limb, dtype=np.int64)
                           .tobytes())
    return sha.hexdigest()


def graph_digest(graph) -> str:
    """A block graph's nodes (id, block id, type, level and metadata) and
    its edges (ends and ``repr`` of the bytes), in iteration order: the
    ``dag`` pins."""
    sha = hashlib.sha256()
    for node_id, attrs in graph.nodes(data=True):
        block = attrs["block"]
        sha.update(repr((node_id, block.block_id, block.block_type.value,
                         block.level,
                         sorted(block.metadata.items(),
                                key=lambda item: item[0]))).encode())
        sha.update(b"\n")
    for u, v, attrs in graph.edges(data=True):
        sha.update(repr((u, v, repr(attrs["bytes"]))).encode())
        sha.update(b"\n")
    return sha.hexdigest()


# -- the sampler-free fixture -------------------------------------------------

def words(tag: str, count: int) -> np.ndarray:
    """``count`` uint64 words of ``tag``'s stream: PCG64's raw output,
    which NumPy keeps stable (``Generator`` methods it does not)."""
    return np.random.PCG64(zlib.crc32(tag.encode())).random_raw(count)


def _residues(tag: str, basis: tuple[int, ...], n: int) -> list[np.ndarray]:
    """One limb per prime, each from its own stream."""
    return [(words(f"{tag}/{q}", n) % np.uint64(q)).astype(np.int64)
            for q in basis]


def _error(tag: str, n: int) -> np.ndarray:
    """N small signed coefficients, in [-3, 3]."""
    return (words(f"{tag}/e", n) % np.uint64(7)).astype(np.int64) - 3


def _target(key_id: str, s: Polynomial) -> Polynomial:
    """The secret a key switches from: s^2, conj(s) or psi_r(s)."""
    n = s.context.params.ring_degree
    if key_id == "relin":
        return s * s
    if key_id == "conj":
        return s.automorphism(conjugation_galois_element(n))
    rotation = int(key_id.removeprefix("rot-"))
    return s.automorphism(rotation_galois_element(rotation, n))


def _draw_keys(keygen, tag: str, key_ids: list[str],
               level: int) -> list[SwitchingKey]:
    """``evk_j = (e_j - a_j*s + P*1_j*s', a_j)`` over C_level + P.

    Each (id, digit) draws its error and each (id, digit, prime) its
    uniform limb, so a key drawn at level k is the one drawn at
    ``max_level`` restricted to C_k + P."""
    params, poly = keygen.params, keygen.context
    n, eval_ = params.ring_degree, Representation.EVAL
    basis = params.moduli[:level + 1] + params.special_moduli
    s = keygen.secret_key.s.at_basis(basis)
    p_prod = math.prod(params.special_moduli)
    keys = []
    for key_id in key_ids:
        target, bs, as_ = _target(key_id, s), [], []
        for j, (start, stop) in enumerate(digit_spans(level, params.alpha)):
            stream = f"{tag}/{key_id}/{j}"
            a = Polynomial(poly, _residues(stream, basis, n), basis, eval_)
            e = poly.from_signed_coeffs(_error(stream, n), basis).to_eval()
            one_j = Polynomial(poly, [np.full(n, start <= i < stop,
                                              dtype=np.int64)
                                      for i in range(len(basis))],
                               basis, eval_)
            bs.append(e - a * s + (one_j * target).scalar_mul(p_prod))
            as_.append(a)
        keys.append(SwitchingKey(bs=bs, as_=as_))
    return keys


def _encrypt(ctx: CkksContext, stream: str, plaintext,
             level: int | None = None) -> Ciphertext:
    """``(m + e - a*s, a)`` at ``level`` (default: L)."""
    params, poly = ctx.params, ctx.keygen.context
    level = params.max_level if level is None else level
    moduli, n = params.moduli[:level + 1], params.ring_degree
    a = Polynomial(poly, _residues(stream, moduli, n), moduli,
                   Representation.EVAL)
    m = poly.from_signed_coeffs(coeff_array(plaintext.coeffs)
                                + _error(stream, n), moduli).to_eval()
    s = ctx.keygen.secret_key.s.at_basis(moduli)
    return Ciphertext(c0=m - a * s, c1=a, level=level, scale=plaintext.scale)


def fixture(params: CkksParameters, tag: str, *, hamming_weight: int = 64,
            backend: str | None = None) -> CkksContext:
    """A context whose secret, switching keys and encryptions come from
    ``tag``'s words, not from the library's samplers.

    The secret is ternary at ``hamming_weight``; every switching key a
    program asks for is :func:`_draw_keys`'; the n-th ``ctx.encrypt`` is
    :func:`_encrypt` on stream ``tag/enc/n``."""
    ctx = CkksContext(params, backend=backend)
    keygen, n = ctx.keygen, params.ring_degree
    weight = min(hamming_weight, n)
    secret = np.zeros(n, dtype=np.int64)
    picks = np.argsort(words(f"{tag}/secret", n), kind="stable")[:weight]
    secret[picks] = 1 - 2 * (words(f"{tag}/signs", weight)
                             % np.uint64(2)).astype(np.int64)
    keygen.secret_key = SecretKey(s=keygen.context.from_signed_coeffs(
        secret, params.moduli + params.special_moduli).to_eval())
    keygen._draw_switching_keys = functools.partial(_draw_keys, keygen, tag)
    count = itertools.count()
    ctx.encryptor.encrypt = lambda plaintext, level=None: _encrypt(
        ctx, f"{tag}/enc/{next(count)}", plaintext, level)
    return ctx


# -- the table ----------------------------------------------------------------

@functools.cache
def table() -> dict[str, str]:
    """``pins.json``, read once per process."""
    return json.loads(PATH.read_text(encoding="utf-8"))


#: pin id -> (digest function, its arguments), filled in as each pin
#: module is imported.
REGISTRY: dict[str, tuple[Callable[..., str], tuple]] = {}


def pin_id(prefix: str, *case) -> str:
    """``prefix/case/preset``: the last argument is the preset, any
    before it join with ``.``."""
    *head, preset = map(str, case)
    return "/".join([prefix, *([".".join(head)] if head else []), preset])


def family(prefix: str, cases: Iterable[tuple]):
    """Register the decorated ``digest(*case)`` as the computation of
    pin ``pin_id(prefix, *case)``, for every case."""
    def register(digest: Callable[..., str]) -> Callable[..., str]:
        for case in cases:
            REGISTRY[pin_id(prefix, *case)] = (digest, tuple(case))
        return digest
    return register


def expected(prefix: str, *case) -> str:
    """The table's digest of pin ``pin_id(prefix, *case)``."""
    return table()[pin_id(prefix, *case)]


def compute(pin: str) -> str:
    """Pin ``pin`` as the code computes it now."""
    digest, case = load()[pin]
    return digest(*case)


def load() -> dict[str, tuple[Callable[..., str], tuple]]:
    """Import every pin module, so that each registers its pins."""
    for module in MODULES:
        folder = str((HERE / module).parent)
        if folder not in sys.path:
            sys.path.insert(0, folder)
        importlib.import_module(pathlib.Path(module).stem)
    return REGISTRY


def render(digests: dict[str, str]) -> str:
    """``pins.json`` as the recorder writes it: one line per id."""
    return json.dumps(digests, indent=0, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.pins",
        description="Recompute every pin and print old -> new by family.")
    parser.add_argument("--record", action="store_true",
                        help="rewrite tests/pins.json with the new digests")
    args = parser.parse_args(argv)
    old, new = table(), {pin: compute(pin) for pin in sorted(load())}
    for name in sorted({pin.split("/")[0] for pin in old.keys() | new}):
        pins = sorted(pin for pin in old.keys() | new
                      if pin.split("/")[0] == name)
        moved = [pin for pin in pins if old.get(pin) != new.get(pin)]
        print(f"{name}: {len(pins) - len(moved)} unchanged")
        for pin in moved:
            was, now = old.get(pin, "(new)"), new.get(pin, "(removed)")
            print(f"  {pin}: {was[:12]} -> {now[:12]}")
    if args.record:
        PATH.write_text(render(new), encoding="utf-8")
    return 0


if __name__ == "__main__":
    # ``python -m tests.pins`` runs this file as ``__main__``; the pin
    # modules register into the ``pins`` module they import.
    sys.path.insert(0, str(HERE))
    import pins
    sys.exit(pins.main())
