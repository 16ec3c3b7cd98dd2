"""Slot-packing utilities: the rotate-and-add idioms of FHE applications.

These are the reusable building blocks the paper's workloads lean on:
slot reductions (HE-LR batch sums) and replication (broadcasting a
scalar result); a matrix-vector product is
:class:`~repro.fhe.linear.LinearTransform`.  Reductions and replication
run radix-4: one :meth:`CkksEvaluator.rotate_add` (one key
switch) per group of three rotations, so a width-16 window costs two
key switches and a tenant holds six rotation keys plus the
relinearization key.

:class:`SlotLayout` is the public window-packing API: it carves the N/2
CKKS slots into aligned power-of-two windows and packs/unpacks many
independent vectors into one ciphertext's slot vector.  The serving
layer's slot-level batcher (:mod:`repro.serve`) is built on it, and it
replaces the ad-hoc ``values[k*w:(k+1)*w]`` slicing that workloads and
tests used to do by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ciphertext import Ciphertext
from .evaluator import CkksEvaluator


@dataclass(frozen=True)
class SlotLayout:
    """Aligned power-of-two windows over a ciphertext's message slots.

    A layout assigns window ``i`` the slot range
    ``[i * width, (i + 1) * width)``.  Because windows are power-of-two
    sized and aligned, the in-window rotate-and-add idioms
    (:func:`rotate_sum` / :func:`replicate` with ``width`` equal to the
    window size) never leak across windows in the slots a window owns:
    slot ``i * width`` of a ``rotate_sum`` result depends only on window
    ``i``'s own slots.  That is the property slot-level batching relies
    on — independent queries packed into disjoint windows ride one
    ciphertext through a window-local program unchanged.
    """

    num_slots: int
    width: int

    def __post_init__(self):
        if self.num_slots < 1 or self.num_slots & (self.num_slots - 1):
            raise ValueError(
                f"num_slots must be a power of two, got {self.num_slots}")
        if self.width < 1 or self.width & (self.width - 1):
            raise ValueError(
                f"width must be a power of two, got {self.width}")
        if self.width > self.num_slots:
            raise ValueError(f"width {self.width} exceeds the "
                             f"{self.num_slots} available slots")

    @classmethod
    def for_params(cls, params, width: int) -> "SlotLayout":
        """The layout carving ``params``' N/2 slots into windows."""
        return cls(num_slots=params.num_slots, width=width)

    @property
    def capacity(self) -> int:
        """How many windows (independent queries) fit."""
        return self.num_slots // self.width

    def offset(self, index: int) -> int:
        """First slot of window ``index``."""
        if not 0 <= index < self.capacity:
            raise ValueError(f"window {index} out of range "
                             f"[0, {self.capacity})")
        return index * self.width

    def window(self, index: int) -> slice:
        """Slot slice of window ``index``."""
        off = self.offset(index)
        return slice(off, off + self.width)

    def occupancy(self, count: int) -> float:
        """Fraction of all slots used by ``count`` packed windows."""
        return count * self.width / self.num_slots

    def pack_many(self, vectors: Sequence) -> np.ndarray:
        """Pack independent vectors into disjoint windows of one slot
        vector (window ``i`` gets ``vectors[i]``, zero-padded)."""
        if len(vectors) > self.capacity:
            raise ValueError(f"{len(vectors)} vectors exceed the layout "
                             f"capacity of {self.capacity}")
        arrays = [np.asarray(v) for v in vectors]
        complex_data = any(np.iscomplexobj(a) for a in arrays)
        out = np.zeros(self.num_slots,
                       dtype=complex if complex_data else float)
        for i, arr in enumerate(arrays):
            if arr.ndim != 1:
                raise ValueError("pack_many expects 1-D vectors")
            if len(arr) > self.width:
                raise ValueError(f"vector {i} has {len(arr)} entries, "
                                 f"window width is {self.width}")
            out[self.offset(i):self.offset(i) + len(arr)] = arr
        return out

    def unpack_many(self, values, count: int,
                    take: int | None = None) -> list[np.ndarray]:
        """Split a decoded slot vector back into per-window vectors.

        ``take`` limits how many leading slots of each window are
        returned (e.g. 1 for reduction results that land in the
        window's first slot); default is the full window.
        """
        take = self.width if take is None else take
        if not 0 < take <= self.width:
            raise ValueError(f"take must be in [1, {self.width}], "
                             f"got {take}")
        if count > self.capacity:
            raise ValueError(f"cannot unpack {count} windows from a "
                             f"capacity-{self.capacity} layout")
        values = np.asarray(values)
        return [values[self.offset(i):self.offset(i) + take]
                for i in range(count)]

    # -- in-window evaluator idioms ----------------------------------------

    def rotate_sum(self, evaluator: CkksEvaluator,
                   ct: Ciphertext) -> Ciphertext:
        """Window-local sum: slot ``i*width`` gets window ``i``'s sum."""
        return rotate_sum(evaluator, ct, self.width)

    def replicate(self, evaluator: CkksEvaluator,
                  ct: Ciphertext) -> Ciphertext:
        """Broadcast each window's first slot across its window."""
        return replicate(evaluator, ct, self.width)


def rotation_groups(width: int) -> list[list[int]]:
    """The radix-4 rotate-and-add groups that sum a ``width`` window.

    ``{s, 2s, 3s}`` for ``s = 1, 4, 16, ...``, and ``{s}`` last where
    ``width`` is not a power of 4: width 8 is ``[[1, 2, 3], [4]]``.
    After group ``s`` every slot holds the sum of the ``4s`` (or, last,
    ``2s``) slots from it on, so the groups together sum the window.
    """
    if width & (width - 1) or width < 1:
        raise ValueError(f"width must be a power of two, got {width}")
    groups, s = [], 1
    while s < width:
        groups.append([m * s for m in (1, 2, 3) if m * s < width])
        s *= 4
    return groups


def rotate_sum(evaluator: CkksEvaluator, ct: Ciphertext,
               width: int) -> Ciphertext:
    """Sum each aligned window of ``width`` slots into its first slot.

    After this, slot k*width holds the sum of slots
    [k*width, (k+1)*width).  ``width`` must be a power of two.  One
    :meth:`~CkksEvaluator.rotate_add` per radix-4 group
    (:func:`rotation_groups`): a width-16 window is two key switches
    over the keys ``rot-1, 2, 3, 4, 8, 12``.
    """
    for group in rotation_groups(width):
        ct = evaluator.rotate_add(ct, group)
    return ct


def replicate(evaluator: CkksEvaluator, ct: Ciphertext,
              width: int) -> Ciphertext:
    """Broadcast slot k*width into its whole window (inverse of
    rotate_sum's layout): :func:`rotate_sum`'s groups, negated."""
    n = evaluator.params.num_slots
    for group in rotation_groups(width):
        ct = evaluator.rotate_add(ct, [n - r for r in group])
    return ct
