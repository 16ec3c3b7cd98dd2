"""Transform outputs and twiddle tables pinned against the commit before
the int64 tier's NTT became two matrix products.

``test_parent_digests.py`` pins whole ciphertexts; this module pins the
layer underneath, where that change lands: what
``BatchedNttContext.forward`` / ``inverse`` return for a seeded stack,
and the per-modulus tables every transform path is derived from.  The
digests were recorded at commit df51a20 (ten butterfly stages on every
tier, tables rebuilt per backend) by running this very file
(``python tests/fhe/test_transform_pins.py`` prints them); it passes
unchanged on both sides of the change.  Presets: ``toy`` (int64 tier,
10 limbs, N = 2^10), ``test`` (int64 tier, 13 limbs, N = 2^12) and
``pw54`` (double-word tier, 10 limbs).  Inputs: reduced residues, every
residue at ``q - 1``, a signed centered lift (what rescale and ModDown
hand to ``forward``) and one row broadcast with stride 0 over all limbs
(how rescale passes it).

``PARENT_STACK_DIGESTS`` pins the same four input kinds on 3-limb stacks
away from the presets' ring degree, recorded at commit 27cb4ec (the
54-bit tier still on Shoup butterflies, a fixed ``n1 x n2`` grid on the
int64 tier) before the 54-bit tier's transform became matrix products
too: 54-bit and 30-bit primes at N = 8 and 64 (one factor now), 2^11
(32 x 64) and 2^13 (three factors), and one mixed-width stack — a 30-bit
row beside two 55-bit rows, the case the quotient estimate of the
split-word matmul must cover.

``PARENT_OBJECT_DIGESTS`` pins 3-limb stacks of 30-, 54- and 62-bit
primes as the object-dtype tier transformed them (the per-limb
butterflies in Python integers) before that tier left the library.  The
Python-integer oracle (``bignum.py``) reproduces them now, and below
2**56 the native context must too; a 62-bit prime the library refuses.
"""

import hashlib

import numpy as np
import pytest

import bignum
from repro.fhe import CkksParameters
from repro.fhe.modmath import NATIVE_SAFE_MODULUS, stack_native_class
from repro.fhe.ntt import BatchedNttContext, NttContext
from repro.fhe.primes import generate_ntt_primes
from test_parent_digests import PRESETS as _SCORING_PRESETS

PRESETS = {**_SCORING_PRESETS, "test": CkksParameters.test}

PARENT_TRANSFORM_DIGESTS = {
    ("pw54", "broadcast"):
        "21a82e840b5ff6507b00a019d3873db562416287f1301415ea970c438befa58b",
    ("pw54", "centered"):
        "bfe2a783b35426d967ea83d104174da0f07f44d97616283e5e7bad76f000e2a4",
    ("pw54", "q_minus_1"):
        "fdc23606332e65264ebd269b66a8389c508761ebcd37113781aa640a36037c61",
    ("pw54", "reduced"):
        "bfe2a783b35426d967ea83d104174da0f07f44d97616283e5e7bad76f000e2a4",
    ("test", "broadcast"):
        "0ffca175bcccdfbdec00e00b797b9a100072a1509c2bc53519c72c733c5ffadf",
    ("test", "centered"):
        "f441405023b524b7a64e6dcf45d2266a4eb169a7baf7b7d33aad92727c62cdaf",
    ("test", "q_minus_1"):
        "2f7fd54225e86daa52bb059710719af7683852dac81d71e556fc801392358e9a",
    ("test", "reduced"):
        "f441405023b524b7a64e6dcf45d2266a4eb169a7baf7b7d33aad92727c62cdaf",
    ("toy", "broadcast"):
        "ab0917ebacf1c16e8497682c430e50b4674fe67b5e418b9948b135da1c92195a",
    ("toy", "centered"):
        "3367473ccede4be6d50be2fac3de848fe44d1c745c30ee94d3322d4df65685c0",
    ("toy", "q_minus_1"):
        "ef4b447d0d01c08784559793d92b86372630183cd2e37ba9b3f914c26efe3d52",
    ("toy", "reduced"):
        "3367473ccede4be6d50be2fac3de848fe44d1c745c30ee94d3322d4df65685c0",
}

PARENT_TABLE_DIGESTS = {
    "pw54":
        "0eeb8bd88e10ef90beec2db0d46cd910ab447c6ffe2898192abee04c72c6f3c8",
    "test":
        "d775a6991601fb928bfbf9f967bad854c88d4e416e56b202b3eb6622b2056663",
    "toy":
        "6d1fb8e9ac4d9c3495ae2a6e2d4d33fca81ed88ec15f52e2ffef5e87b4fc5041",
}


#: Ring degrees of the 3-limb stacks: one factor, 32 x 64, three factors.
STACK_DEGREES = (8, 64, 1 << 11, 1 << 13)

PARENT_STACK_DIGESTS = {
    (30, 8, "broadcast"):
        "854371949b40ccf1228aae52264fdbfa435db36a37bb97e9c2b076c787647865",
    (30, 8, "centered"):
        "b52e6196aaefcd2c6484ab16482a2e99efdaeafda603a8b60f0cad31c713bfd0",
    (30, 8, "q_minus_1"):
        "5fed41ee860f7d10191e398afda2a37767da40083bd7de24a519558f35f75c81",
    (30, 8, "reduced"):
        "b52e6196aaefcd2c6484ab16482a2e99efdaeafda603a8b60f0cad31c713bfd0",
    (30, 64, "broadcast"):
        "34c3406f2165b7230ea059f1b6b3b8a6565c4ddfb95fa337a032b53a4858ec8d",
    (30, 64, "centered"):
        "d5dd0a5b467374664a7edbb38bcd0921577015605f10bc8d2f5129f1a7a5e356",
    (30, 64, "q_minus_1"):
        "1369fe0403eea6427ebed58a8df05277c47b8a3a4549387de22990e6f406f7e7",
    (30, 64, "reduced"):
        "d5dd0a5b467374664a7edbb38bcd0921577015605f10bc8d2f5129f1a7a5e356",
    (30, 2048, "broadcast"):
        "a2620074a26d926b4371583951d1b695c448fd0e92d61a3f8cba2df196e01d0e",
    (30, 2048, "centered"):
        "d52150d29db06e62988fefae9e0669c93c61ade73563476732cd199e7c4bbf95",
    (30, 2048, "q_minus_1"):
        "06b249f4c5a4716e2954b528e617813fb92774197256fd92340fd34a93c216dc",
    (30, 2048, "reduced"):
        "d52150d29db06e62988fefae9e0669c93c61ade73563476732cd199e7c4bbf95",
    (30, 8192, "broadcast"):
        "823da671c99d95c45658edac7253f053c93d02631f640d41ed809d738ab7c9cc",
    (30, 8192, "centered"):
        "17e6b3504e8f872dddb4101e99af2ee7f94e963682d4d71a3e18802de63ae989",
    (30, 8192, "q_minus_1"):
        "9576ae47e457bb1e38cff4be3bffe5e72204e45295f200f025b7c586c0401905",
    (30, 8192, "reduced"):
        "17e6b3504e8f872dddb4101e99af2ee7f94e963682d4d71a3e18802de63ae989",
    (54, 8, "broadcast"):
        "14133f8353a17b17b4609c4217bff355385d90e6f05ad0e33a02672203c735dd",
    (54, 8, "centered"):
        "f30559d8d425e0eb477a0bbf748b105c06329bc8501c744b5ff066c61bec9120",
    (54, 8, "q_minus_1"):
        "180e4d933ec85e7e0a6ac9b12ca4fdf31d164e21390d3699688cecc8f52fa09b",
    (54, 8, "reduced"):
        "f30559d8d425e0eb477a0bbf748b105c06329bc8501c744b5ff066c61bec9120",
    (54, 64, "broadcast"):
        "7979574cd3db3f8d4e1be5c9321b00403737493936e49ecf45a029633496acb5",
    (54, 64, "centered"):
        "193cc0e465d8a9209f739741bfb6e0babf57f35271a5ca53931aef4dbd9baa22",
    (54, 64, "q_minus_1"):
        "18735dfc29fee276aa566386d1e00e72203138a568f3968fa6c3a05c11e7fb5c",
    (54, 64, "reduced"):
        "193cc0e465d8a9209f739741bfb6e0babf57f35271a5ca53931aef4dbd9baa22",
    (54, 2048, "broadcast"):
        "79bcc04ac39d5ce7aee81d148666a2259eefd1665f396811ffb082cab5e495e8",
    (54, 2048, "centered"):
        "c65ab0866d6d0d45d238ef5a81f76951c2c3b20608c47811478a0ffc3545ad0c",
    (54, 2048, "q_minus_1"):
        "945dc3738166ae1f59c65e912f4ed04edfdd2e8aa45dcd14ad87c94b10fbaf5c",
    (54, 2048, "reduced"):
        "c65ab0866d6d0d45d238ef5a81f76951c2c3b20608c47811478a0ffc3545ad0c",
    (54, 8192, "broadcast"):
        "625c9fe5fd0074be4f1095625c4a8ad3f31fd4600f4dbab4fbe58a49623c495b",
    (54, 8192, "centered"):
        "ee507d0b312e61fd628e949d281f4a7faf9cc63b48ef64df869a0d1b55baf806",
    (54, 8192, "q_minus_1"):
        "05706db2cdc0de916e1e990d73fa826df2c3391e4fc5661ed7b74396d0b43f68",
    (54, 8192, "reduced"):
        "ee507d0b312e61fd628e949d281f4a7faf9cc63b48ef64df869a0d1b55baf806",
    ("mixed", 1024, "broadcast"):
        "eb0319f07ea363772c9056c7bb36194cb9f819c512a1d8fbb2e4ef53584fa054",
    ("mixed", 1024, "centered"):
        "d60aebe90b2a03848149b92eece04210befcc9427b9ee9add178783d2a1fcd41",
    ("mixed", 1024, "q_minus_1"):
        "8b37edb15094495e60b2e1e8f263f3535e31984feac232ad5e50edadce8384f8",
    ("mixed", 1024, "reduced"):
        "d60aebe90b2a03848149b92eece04210befcc9427b9ee9add178783d2a1fcd41",
}

#: ``(word, N)`` of the 3-limb stacks pinned on the object-dtype tier.
OBJECT_STACKS = tuple((word, n) for word in (30, 54, 62)
                      for n in (64, 1 << 10))

PARENT_OBJECT_DIGESTS = {
    (30, 64, "broadcast"):
        "34c3406f2165b7230ea059f1b6b3b8a6565c4ddfb95fa337a032b53a4858ec8d",
    (30, 64, "centered"):
        "d5dd0a5b467374664a7edbb38bcd0921577015605f10bc8d2f5129f1a7a5e356",
    (30, 64, "q_minus_1"):
        "1369fe0403eea6427ebed58a8df05277c47b8a3a4549387de22990e6f406f7e7",
    (30, 64, "reduced"):
        "d5dd0a5b467374664a7edbb38bcd0921577015605f10bc8d2f5129f1a7a5e356",
    (30, 1024, "broadcast"):
        "ccf1a1f427f40b21c62d291b2b30d91490a3d42bc20c70eabd8105b2d08ae0a3",
    (30, 1024, "centered"):
        "b9bf34dc69602d7a7de800ca6d8f6d5a5ef4597db4eed16c2279d55df699867d",
    (30, 1024, "q_minus_1"):
        "89c37ea1f8d98f73518a00f03270a84e20e480a185bb7abc76aab09c1caf8124",
    (30, 1024, "reduced"):
        "b9bf34dc69602d7a7de800ca6d8f6d5a5ef4597db4eed16c2279d55df699867d",
    (54, 64, "broadcast"):
        "7979574cd3db3f8d4e1be5c9321b00403737493936e49ecf45a029633496acb5",
    (54, 64, "centered"):
        "193cc0e465d8a9209f739741bfb6e0babf57f35271a5ca53931aef4dbd9baa22",
    (54, 64, "q_minus_1"):
        "18735dfc29fee276aa566386d1e00e72203138a568f3968fa6c3a05c11e7fb5c",
    (54, 64, "reduced"):
        "193cc0e465d8a9209f739741bfb6e0babf57f35271a5ca53931aef4dbd9baa22",
    (54, 1024, "broadcast"):
        "fddebbd2482be3e255dc604a6368637d8c081466c43abca1aec321ada400ee57",
    (54, 1024, "centered"):
        "7791eaf38b55463b78700df5ddbb7e4a18dd64d5ce7bffd8aff8623bd24f2a83",
    (54, 1024, "q_minus_1"):
        "d5ce28dbded91d103efb4efcf3d8a10fe5b9d022dea3b931d88e3c4d92559fe4",
    (54, 1024, "reduced"):
        "7791eaf38b55463b78700df5ddbb7e4a18dd64d5ce7bffd8aff8623bd24f2a83",
    (62, 64, "broadcast"):
        "5967a1aba6bad3feea65b2bdbc83af5e55920712887bb5782eca0cd1c805630f",
    (62, 64, "centered"):
        "4b292cb8d652847509e933cb728adf7214a0548d333a16403082359ddc6de962",
    (62, 64, "q_minus_1"):
        "d1527e8c08e06feb1e770720b5d4b9ffb833338bd4d027e2178b237c42825f4f",
    (62, 64, "reduced"):
        "4b292cb8d652847509e933cb728adf7214a0548d333a16403082359ddc6de962",
    (62, 1024, "broadcast"):
        "558825f1b9d3e46f08bd128854d05689ecb3c4d8a60589fca98ec455b4b95d0d",
    (62, 1024, "centered"):
        "6af5f1670e9eea5d53c0028dc844b6d415f6441abeba09bb616cb8cb8c3af322",
    (62, 1024, "q_minus_1"):
        "720316df11d106314189a226bb90c452682202ff64e59d0c10f9b640c79e4a92",
    (62, 1024, "reduced"):
        "6af5f1670e9eea5d53c0028dc844b6d415f6441abeba09bb616cb8cb8c3af322",
}


def _basis(params: CkksParameters) -> tuple[int, ...]:
    """The top-level extended basis: every modulus the preset owns."""
    return tuple(params.moduli) + tuple(params.special_moduli)


def seeded_inputs(moduli: tuple[int, ...], n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    q_col = np.array(moduli, dtype=np.int64).reshape(-1, 1)
    reduced = rng.integers(0, q_col, size=(len(moduli), n), dtype=np.int64)
    row = reduced[0] - np.where(reduced[0] > moduli[0] // 2, moduli[0], 0)
    return {
        "reduced": reduced,
        "q_minus_1": np.broadcast_to(q_col - 1, reduced.shape).copy(),
        "centered": reduced - np.where(reduced > q_col // 2, q_col, 0),
        "broadcast": np.broadcast_to(row, reduced.shape),
    }


def _sha(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return sha.hexdigest()


def transform_digest(preset: str, kind: str) -> str:
    params = PRESETS[preset]()
    moduli, n = _basis(params), params.ring_degree
    ctx = BatchedNttContext(moduli, n)
    stack = seeded_inputs(moduli, n)[kind]
    return _sha(ctx.forward(stack), ctx.inverse(stack))


def stack_moduli(word, n: int) -> tuple[int, ...]:
    """Three ``word``-bit NTT primes, or the mixed-width stack."""
    if word == "mixed":
        return tuple(generate_ntt_primes(1, 30, n)
                     + generate_ntt_primes(2, 55, n))
    return tuple(generate_ntt_primes(3, word, n))


def stack_digest(word, n: int, kind: str) -> str:
    moduli = stack_moduli(word, n)
    ctx = BatchedNttContext(moduli, n)
    stack = seeded_inputs(moduli, n)[kind]
    return _sha(ctx.forward(stack), ctx.inverse(stack))


def object_digests(word, n: int, kind: str) -> set[str]:
    """One digest per road to these integers: the oracle's transforms
    and, below 2**56, the native context's."""
    moduli = stack_moduli(word, n)
    stack = seeded_inputs(moduli, n)[kind]
    outputs = [(bignum.transform(moduli, stack, "forward"),
                bignum.transform(moduli, stack, "inverse"))]
    if max(moduli) < NATIVE_SAFE_MODULUS:
        ctx = BatchedNttContext(moduli, n)
        outputs.append((ctx.forward(stack), ctx.inverse(stack)))
    return {_sha(*pair) for pair in outputs}


def table_digest(preset: str) -> str:
    params = PRESETS[preset]()
    tables = []
    for q in _basis(params):
        ctx = NttContext(q, params.ring_degree)
        tables += [ctx.psi_rev, ctx.psi_inv_rev, [ctx.n_inv]]
        if q >= 1 << 31:
            # The Shoup quotients floor(w * 2**64 / q) the double-word
            # tier stored until its products became one float64-estimated
            # multiply; derived from the tables, as uint64 bit patterns.
            tables += [np.array([(int(w) << 64) // q for w in table],
                                dtype=np.uint64).view(np.int64)
                       for table in (ctx.psi_rev, ctx.psi_inv_rev,
                                     [ctx.n_inv])]
    return _sha(*tables)


@pytest.mark.parametrize("preset,kind", sorted(PARENT_TRANSFORM_DIGESTS))
def test_transform_bits_match_the_parent_commit(preset, kind):
    assert transform_digest(preset, kind) \
        == PARENT_TRANSFORM_DIGESTS[(preset, kind)]


@pytest.mark.parametrize("word,n,kind", sorted(PARENT_STACK_DIGESTS, key=str))
def test_stack_bits_match_the_parent_commit(word, n, kind):
    assert stack_digest(word, n, kind) \
        == PARENT_STACK_DIGESTS[(word, n, kind)]


@pytest.mark.parametrize("word,n,kind", sorted(PARENT_OBJECT_DIGESTS))
def test_object_tier_bits_match_the_parent_commit(word, n, kind):
    assert object_digests(word, n, kind) \
        == {PARENT_OBJECT_DIGESTS[(word, n, kind)]}


@pytest.mark.parametrize("preset", sorted(PARENT_TABLE_DIGESTS))
def test_table_bits_match_the_parent_commit(preset):
    assert table_digest(preset) == PARENT_TABLE_DIGESTS[preset]


def test_pinned_presets_sit_on_both_sides_of_the_tier_split():
    assert {name: stack_native_class(_basis(make()))
            for name, make in PRESETS.items()} \
        == {"toy": "int64", "test": "int64", "pw54": "dword"}
    assert {name: len(_basis(make())) for name, make in PRESETS.items()} \
        == {"toy": 10, "test": 13, "pw54": 10}


if __name__ == "__main__":
    for key in sorted(PARENT_TRANSFORM_DIGESTS):
        print(f"    {key!r}:\n        \"{transform_digest(*key)}\",")
    for key in [(word, n, kind)
                for word, degrees in ((30, STACK_DEGREES), (54, STACK_DEGREES),
                                      ("mixed", (1 << 10,)))
                for n in degrees for kind in sorted(seeded_inputs((3,), 2))]:
        print(f"    {key!r}:\n        \"{stack_digest(*key)}\",")
    for key in [(word, n, kind) for word, n in OBJECT_STACKS
                for kind in sorted(seeded_inputs((3,), 2))]:
        digest, = object_digests(*key)
        print(f"    {key!r}:\n        \"{digest}\",")
    for key in sorted(PARENT_TABLE_DIGESTS):
        print(f"    {key!r}:\n        \"{table_digest(key)}\",")
