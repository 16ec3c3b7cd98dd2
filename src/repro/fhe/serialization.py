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
from .params import CkksParameters
from .poly import PolyContext, Polynomial, Representation


def _residues(limb, q: int, n: int, name: str) -> np.ndarray:
    """``limb`` as the ``n`` int64 residues mod ``q`` it must hold;
    ``ValueError`` naming it where it holds anything else."""
    arr = np.asarray(limb)
    if (arr.dtype != np.int64 or arr.shape != (n,) or arr.min() < 0
            or arr.max() >= q):
        raise ValueError(f"{name}: not {n} int64 residues in [0, {q})")
    return arr


def _poly_to_arrays(poly: Polynomial, prefix: str,
                    arrays: dict) -> dict:
    n = poly.context.params.ring_degree
    for i, (limb, q) in enumerate(zip(poly.limbs, poly.moduli)):
        arrays[f"{prefix}_limb{i}"] = _residues(
            limb, q, n, f"cannot serialize {prefix} limb {i}")
    return {"rep": poly.rep.value, "moduli": list(poly.moduli)}


def _poly_from_arrays(context: PolyContext, header: dict, prefix: str,
                      arrays, level: int) -> Polynomial:
    """The polynomial a blob holds, if it is one of ``context``'s at
    ``level``: its header names the context's moduli, and every limb is
    N residues below its modulus."""
    moduli = tuple(context.params.moduli[:level + 1])
    named = list(header["moduli"])
    if len(named) != len(moduli):
        raise ValueError(f"{prefix}: {len(named)} limbs, but the context "
                         f"has {len(moduli)} at level {level}")
    for i, (q, want) in enumerate(zip(named, moduli)):
        if q != want:
            raise ValueError(f"{prefix} limb {i}: modulus {q} is not the "
                             f"context's {want}")
    n = context.params.ring_degree
    limbs = [_residues(arrays[f"{prefix}_limb{i}"], q, n,
                       f"{prefix} limb {i}") for i, q in enumerate(moduli)]
    return Polynomial(context, limbs, moduli, Representation(header["rep"]))


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Pack a ciphertext into a self-describing binary blob (a degree-2
    product's ``c2`` too)."""
    arrays: dict = {}
    header = {
        "level": ct.level,
        "scale": ct.scale,
        "ring_degree": ct.c0.context.params.ring_degree,
        "c0": _poly_to_arrays(ct.c0, "c0", arrays),
        "c1": _poly_to_arrays(ct.c1, "c1", arrays),
    }
    if ct.c2 is not None:
        header["c2"] = _poly_to_arrays(ct.c2, "c2", arrays)
    buffer = io.BytesIO()
    np.savez_compressed(buffer,
                        header=np.frombuffer(
                            json.dumps(header).encode(), dtype=np.uint8),
                        **arrays)
    return buffer.getvalue()


def deserialize_ciphertext(blob: bytes,
                           context: PolyContext) -> Ciphertext:
    """Reconstruct a ciphertext; validates the ring degree, the modulus
    chain and every residue."""
    with np.load(io.BytesIO(blob)) as arrays:
        header = json.loads(bytes(arrays["header"]).decode())
        if header["ring_degree"] != context.params.ring_degree:
            raise ValueError(
                f"ciphertext ring degree {header['ring_degree']} does not "
                f"match context {context.params.ring_degree}")
        level = header["level"]
        c0 = _poly_from_arrays(context, header["c0"], "c0", arrays, level)
        c1 = _poly_from_arrays(context, header["c1"], "c1", arrays, level)
        c2 = None if "c2" not in header else _poly_from_arrays(
            context, header["c2"], "c2", arrays, level)
    return Ciphertext(c0=c0, c1=c1, level=level, scale=header["scale"],
                      c2=c2)


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
