"""Serialization for ciphertexts and plaintexts (library plumbing).

Ciphertexts round-trip through a compact ``.npz``-style dict of numpy
arrays plus a small JSON-able header; useful for offloading encrypted data
to the (simulated) cloud service of Figure 1.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .ciphertext import Ciphertext
from .modmath import limb_dtype
from .params import CkksParameters
from .poly import PolyContext, Polynomial, Representation


def _poly_to_arrays(poly: Polynomial, prefix: str,
                    arrays: dict) -> dict:
    header = {"rep": poly.rep.value, "moduli": list(poly.moduli)}
    for i, limb in enumerate(poly.limbs):
        arr = np.asarray(limb)
        if arr.dtype == object:
            # Object-dtype limbs (moduli of 56+ bits) hold Python ints;
            # they are lossless on the int64 wire only below 2**63 —
            # reject anything larger instead of letting the cast wrap or
            # throw a bare OverflowError mid-save.
            top = int(max(arr.tolist(), default=0))
            if top >= (1 << 63):
                raise ValueError(
                    f"cannot serialize {prefix} limb {i}: residue "
                    f"{top} >= 2**63 does not fit the int64 wire format")
            arr = arr.astype(np.int64)
        arrays[f"{prefix}_limb{i}"] = np.asarray(arr, dtype=np.int64)
    return header


def _poly_from_arrays(context: PolyContext, header: dict, prefix: str,
                      arrays) -> Polynomial:
    moduli = tuple(header["moduli"])
    # Restore the repo-wide dtype convention through the single shared
    # helper (modmath.limb_dtype, also used by poly._zeros,
    # from_big_coeffs and rns.decompose_vec): int64 storage for every
    # native modulus (below 2**56 — the double-word kernels keep 54-bit
    # products exact), object dtype beyond, so the save/load threshold can
    # never drift from the compute threshold.
    limbs = []
    for i, q in enumerate(moduli):
        raw = np.asarray(arrays[f"{prefix}_limb{i}"])
        limbs.append(raw.astype(limb_dtype(q), copy=False))
    return Polynomial(context, limbs, moduli,
                      Representation(header["rep"]))


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Pack a ciphertext into a self-describing binary blob."""
    arrays: dict = {}
    header = {
        "level": ct.level,
        "scale": ct.scale,
        "ring_degree": ct.c0.context.params.ring_degree,
        "c0": _poly_to_arrays(ct.c0, "c0", arrays),
        "c1": _poly_to_arrays(ct.c1, "c1", arrays),
    }
    buffer = io.BytesIO()
    np.savez_compressed(buffer,
                        header=np.frombuffer(
                            json.dumps(header).encode(), dtype=np.uint8),
                        **arrays)
    return buffer.getvalue()


def deserialize_ciphertext(blob: bytes,
                           context: PolyContext) -> Ciphertext:
    """Reconstruct a ciphertext; validates the ring degree."""
    with np.load(io.BytesIO(blob)) as arrays:
        header = json.loads(bytes(arrays["header"]).decode())
        if header["ring_degree"] != context.params.ring_degree:
            raise ValueError(
                f"ciphertext ring degree {header['ring_degree']} does not "
                f"match context {context.params.ring_degree}")
        c0 = _poly_from_arrays(context, header["c0"], "c0", arrays)
        c1 = _poly_from_arrays(context, header["c1"], "c1", arrays)
    return Ciphertext(c0=c0, c1=c1, level=header["level"],
                      scale=header["scale"])


def serialized_size_matches_model(ct: Ciphertext,
                                  params: CkksParameters) -> bool:
    """Sanity hook: the wire size is between 0.5x and 3x the analytic size.

    The int64 wire format pads each log-q-bit word to 64 bits (a factor of
    up to ~2.1x at the 30-bit test word, ~1.2x at the paper's 54-bit word)
    and npz compression pulls it back down, so the wire size lands inside
    (0.5x, 3x) of :meth:`CkksParameters.ciphertext_bytes` for every intact
    ciphertext; an empty or truncated blob falls below the lower bound.
    """
    wire = len(serialize_ciphertext(ct))
    model = params.ciphertext_bytes(ct.level)
    return 0.5 * model < wire < 3.0 * model
