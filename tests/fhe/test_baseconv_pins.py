"""Key-switch base conversions pinned against the commit before the
54-bit tier's conversions became split-word matrix products.

``test_parent_digests.py`` pins whole ciphertexts and
``test_transform_pins.py`` the transforms; this module pins the two
kernels in between: what ``StackedBackend.lift_special`` (the ModDown
lift) and ``StackedBackend.mod_up`` (every digit) return.  The digests
were recorded at commit 27cb4ec — the double-word tier lifting through
``RnsBasis.convert_exact`` word planes and raising digits by per-limb
Shoup sweeps, the int64 tier already on its integer matmuls — by running
this very file (``python tests/fhe/test_baseconv_pins.py`` prints them);
it passes unchanged on both sides of the change.  Inputs: seeded
residues, every residue at 0, ``p - 1``, ``p // 2`` and ``p // 2 + 1``,
and residues chosen so that the *scaled* residue ``y = [x * hat^-1]_p``
both kernels center sits at ``p // 2`` / ``p // 2 + 1``: the centering
edges, before and after the unpuncturing multiply.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksParameters, PolyContext
from repro.fhe.rns import RnsBasis
from test_parent_digests import PRESETS

#: preset -> key-switch levels pinned.
LEVELS = {"pw54": (5, 3, 1), "toy": (5,)}

KINDS = ("seeded", "zero", "p_minus_1", "half", "half_plus_1",
         "y_half", "y_half_plus_1")

PARENT_BASECONV_DIGESTS = {
    ("pw54", 5, "seeded"):
        "872d2754a8498d623e1a3b1cc27c0448ff97b35abfb5794421fc1e2ec762ecc5",
    ("pw54", 5, "zero"):
        "530c21dc215641f188486e84399daa1dd29913882fae387f603eeaeb0458b4a0",
    ("pw54", 5, "p_minus_1"):
        "0681f72b6bafb0fa9edd958c05e9b81789b069c8039622fbe1a2349c8e0225f4",
    ("pw54", 5, "half"):
        "923754d52fe19149942715ae3d360dc4279d328bd6847a27f1e44d8cc2336141",
    ("pw54", 5, "half_plus_1"):
        "0b604b381e8d57486d79d71970aa9550ad903c4b76eea72e09be3f78c5f2e1a9",
    ("pw54", 5, "y_half"):
        "01007308370d690fe006d3100bf135bcc54cc5c06d8c9cee01c218b60ff30e1b",
    ("pw54", 5, "y_half_plus_1"):
        "fcceadd8cf0423e13e667f05819a842e1b10116f27e9eaa56f0b53122bd6d429",
    ("pw54", 3, "seeded"):
        "820cb930b8f5c4d823d5bf7db03d393f748628140d3776dbd8cc7c00a572d124",
    ("pw54", 3, "zero"):
        "6cdd259c8ecbe61fbc369f3293c1961541386954a223b17a37899d7fd9ad42da",
    ("pw54", 3, "p_minus_1"):
        "4edac57df3acd57390e2580397a48fc333e25b15099f362971349c577ea7445f",
    ("pw54", 3, "half"):
        "bb0083ff53b296b3d15cd0802e59478af3d178d324c0f6da6b98cddfa2efe058",
    ("pw54", 3, "half_plus_1"):
        "35feb85a78eefc864b66b97283d97a1479daeed35baad5b503cb91c8c26d8f19",
    ("pw54", 3, "y_half"):
        "0b1de43f8931ff395980fb4363459a213bedca6b1ce23f4579b0b489d0437399",
    ("pw54", 3, "y_half_plus_1"):
        "15a8f785e5a125e0d90c5828b27e24793b1c0c60d8846115eeea58818816cdd8",
    ("pw54", 1, "seeded"):
        "75ff62bb1b484233b9bc6f23a1b15ce82959bf32fc6a354a60fb3f962db41536",
    ("pw54", 1, "zero"):
        "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31",
    ("pw54", 1, "p_minus_1"):
        "e5854a90892fc1f0e348ca86b02140ea094d045771d1c666f8a3d4ee57b77f12",
    ("pw54", 1, "half"):
        "288081920faae506c208a8b8fa48b8785fef75987f50d980fd3b2e4fd6abc9a6",
    ("pw54", 1, "half_plus_1"):
        "5f03a6095c99393b2885a8e7b324fb82e80388325279f17fb0a4f40d9fd7da32",
    ("pw54", 1, "y_half"):
        "d6ac55236f09f2e2b380d1dd30c7c3e32a51112011923d75c73668328b9bfbe0",
    ("pw54", 1, "y_half_plus_1"):
        "fa99662a1ea018a747cf95ff642c144ca4c7db7b180e77f9758b7695064f4c6e",
    ("toy", 5, "seeded"):
        "c494baec9f2a6e1e46fe7e8f55a8019d5515124b47a0bea3ef51773157cc48ef",
    ("toy", 5, "zero"):
        "530c21dc215641f188486e84399daa1dd29913882fae387f603eeaeb0458b4a0",
    ("toy", 5, "p_minus_1"):
        "1d82ebaebbbc64a30eb9da07282f72584616ffae996aafff593cb993e25d1aea",
    ("toy", 5, "half"):
        "3bd19cd00ef659866bea9caae45a6106ad692e72858544bb7ffed4b47827a74a",
    ("toy", 5, "half_plus_1"):
        "50b04942e65b340e0d213fd35e46a2ed100f6ce4baa3d7240c9de0ded90486b9",
    ("toy", 5, "y_half"):
        "62080ceb84a0828c79823d9830d638ea4cb88ab2ed55c4d37cecfccc0a45de65",
    ("toy", 5, "y_half_plus_1"):
        "94cbb7cfe86faf0c7687f25d8c18149139dfddc612b8e02e76a090098f7b9b9d",
}


def inputs(basis: RnsBasis, n: int) -> dict[str, np.ndarray]:
    """One ``(len(basis), n)`` stack of reduced residues per kind."""
    primes = basis.primes
    p_col = np.array(primes, dtype=np.int64).reshape(-1, 1)

    def rows(values) -> np.ndarray:
        column = np.array(list(values), dtype=np.int64).reshape(-1, 1)
        return np.broadcast_to(column, (len(primes), n)).copy()

    def scaled_to(edge) -> np.ndarray:
        # x with [x * hat^-1]_p == edge(p): x = edge(p) * hat mod p.
        return rows(edge(p) * hat % p
                    for p, hat in zip(primes, basis.punctured))

    rng = np.random.default_rng(23)
    return {
        "seeded": rng.integers(0, p_col, size=(len(primes), n),
                               dtype=np.int64),
        "zero": rows(0 for _ in primes),
        "p_minus_1": rows(p - 1 for p in primes),
        "half": rows(p // 2 for p in primes),
        "half_plus_1": rows(p // 2 + 1 for p in primes),
        "y_half": scaled_to(lambda p: p // 2),
        "y_half_plus_1": scaled_to(lambda p: p // 2 + 1),
    }


def baseconv_digest(preset: str, level: int, kind: str) -> str:
    params = PRESETS[preset]()
    backend = PolyContext(params, seed=1, backend="stacked").backend
    ksctx = backend.keyswitch_context(level)
    n = params.ring_degree
    sha = hashlib.sha256()

    def update(array) -> None:
        assert array.dtype == np.int64
        sha.update(np.ascontiguousarray(array).tobytes())

    update(backend.lift_special(inputs(ksctx.p_basis, n)[kind], ksctx))
    for j, basis in enumerate(ksctx.digit_bases):
        update(backend.mod_up(inputs(basis, n)[kind], j, ksctx))
    return sha.hexdigest()


CASES = [(preset, level, kind) for preset, levels in sorted(LEVELS.items())
         for level in levels for kind in KINDS]


@pytest.mark.parametrize("preset,level,kind", CASES)
def test_baseconv_bits_match_the_parent_commit(preset, level, kind):
    assert baseconv_digest(preset, level, kind) \
        == PARENT_BASECONV_DIGESTS[(preset, level, kind)]


def test_a_digit_too_wide_for_int64_sums_takes_the_same_matmul():
    """32 limbs in one digit at the 30-bit word: sums of 32 reduced
    products could leave int64, so the context binds ``"dword"`` mode on
    an int64-tier basis — the split-word matmul with a single table word
    — and must still raise digits to the reference backend's integers."""
    params = CkksParameters._build(
        ring_degree=1 << 8, scale_bits=29, prime_bits=30, max_level=31,
        dnum=1, boot_levels=4, fft_iterations=2)
    stacked = PolyContext(params, seed=1, backend="stacked").backend
    reference = PolyContext(params, seed=1, backend="reference").backend
    ksctx = stacked.keyswitch_context(params.max_level)
    assert ksctx.modup_mode == "dword"
    assert ksctx.modup_matmul.table_pieces == 1
    digit = inputs(ksctx.digit_bases[0], params.ring_degree)["seeded"]
    want = reference.mod_up(list(digit), 0,
                            reference.keyswitch_context(params.max_level))
    assert np.array_equal(stacked.mod_up(digit, 0, ksctx), np.stack(want))


if __name__ == "__main__":
    for key in CASES:
        print(f"    {key!r}:\n        \"{baseconv_digest(*key)}\",")
