"""The big-integer CRT pinned against the commit before its word planes left.

``test_baseconv_pins.py`` pins the two key-switch conversions the
``stacked`` backend runs and ``test_edge_pins.py`` a whole encode /
decrypt round; this module pins what is underneath both as fallback and
oracle: ``RnsBasis.convert_exact``, ``compose_vec``,
``compose_centered_vec`` and ``decompose_vec``.  The digests were recorded
at commit 6683b78 — composition by carry-save 32-bit word planes with a
float-estimated, plane-corrected quotient, per-target Horner folds — by
running this very file (``PYTHONPATH=src:tests/fhe python
tests/fhe/test_crt_pins.py`` prints them); it passes unchanged on both
sides of the change.  Each digest covers values *and dtype*.

Bases: the special-prime bases of ``toy``, ``pw54`` (55-bit), ``test``
and ``boot_test`` (8 primes), converted to their ciphertext primes; a
mixed 30 + 55-bit basis; a single prime; a 62-bit basis.  Two modes:
``native`` is the library, which takes every basis and target below
2**56; ``forced_object`` is the Python-integer oracle (``bignum.py``),
and so is whatever the library refuses — the 62-bit basis and the 62-bit
target the others also convert to.  The oracle returns object-dtype
limbs where the digests were recorded with an object-dtype tier that
took those moduli (the library has no such tier now: a modulus of 2**56
or more is refused); its integers must be the library's, bit for bit.
Inputs: seeded residues, every residue 0 (the composed value 0), every
residue ``q_i - 1``, and residues whose composed value is exactly
``Q // 2``, ``Q // 2 + 1`` (the two sides of the centering decision) and
``Q - 1``.  ``decompose_vec`` takes composed values, negative integers,
values past 2**64, an int64 array, an object array and a ``uint64``
array holding values of 2**63 and more.
"""

import hashlib

import numpy as np
import pytest

import bignum
from repro.fhe import CkksParameters
from repro.fhe.modmath import NATIVE_SAFE_MODULUS
from repro.fhe.primes import generate_ntt_primes
from repro.fhe.rns import RnsBasis
from test_parent_digests import PRESETS as _SCORING_PRESETS

N = 64

_P30 = generate_ntt_primes(4, 30, N)
_P55 = generate_ntt_primes(3, 55, N)
_P62 = generate_ntt_primes(4, 62, N)


def _preset(build) -> tuple[list[int], list[int]]:
    params = build()
    return list(params.special_moduli), list(params.moduli)


#: name -> (basis primes, target primes of ``convert_exact``).
BASES = {
    "toy": lambda: _preset(_SCORING_PRESETS["toy"]),
    "pw54": lambda: _preset(_SCORING_PRESETS["pw54"]),
    "test": lambda: _preset(CkksParameters.test),
    "boot_test": lambda: _preset(CkksParameters.boot_test),
    "mixed30+55": lambda: ([_P30[0], _P55[0], _P30[1], _P55[1]],
                           [_P30[2], _P55[2], _P62[3]]),
    "one_prime": lambda: ([_P55[0]], [_P30[0], _P55[1], _P62[3]]),
    "object62": lambda: (_P62[:3], [_P30[0], _P55[0], _P62[3]]),
}

MODES = ("native", "forced_object")

KINDS = ("seeded", "zero", "q_minus_1", "v_half", "v_half_plus_1",
         "v_q_minus_1")

PARENT_COMPOSE_DIGESTS = {
    ('boot_test', 'native', 'seeded'):
        "011fc7d41c611d9257a9f842527fe4489aacc4bddfacf2e94e594fb3c779041f",
    ('boot_test', 'native', 'zero'):
        "91e5c614fbc58d1ef0bc0e77e29ebc8c79ce425491d49d732909f3d60a91457a",
    ('boot_test', 'native', 'q_minus_1'):
        "e442f697b3b63fdbca6097d96678e905b03f8dd1062d58dbfb4a4b9f9e4f511e",
    ('boot_test', 'native', 'v_half'):
        "4e9f1381dd87c014dade9f33fdcbb3476a0f4e0ac0d97afd138b4b394a165bab",
    ('boot_test', 'native', 'v_half_plus_1'):
        "6d05843a1bcef265a55f1e6b9200c9014406b5aac597c959c90d8acc61afec47",
    ('boot_test', 'native', 'v_q_minus_1'):
        "e442f697b3b63fdbca6097d96678e905b03f8dd1062d58dbfb4a4b9f9e4f511e",
    ('boot_test', 'forced_object', 'seeded'):
        "84f79acfd05356523d6d37966ff122783433d39391632fa8b4c0ca0dc3156fe4",
    ('boot_test', 'forced_object', 'zero'):
        "eed7e3c2bdc2643a4cc9d2a5f1491b35fa1cacb81e3e70d76ed8fff7996727d8",
    ('boot_test', 'forced_object', 'q_minus_1'):
        "690384fc17d34fa8af0bbadb2ea2ab24394fafadca4f085a0d027cbe5cdacc9f",
    ('boot_test', 'forced_object', 'v_half'):
        "4876352c60b19d11af4ecdf22660dd2d6e87b41fe07c241555b721356c708a18",
    ('boot_test', 'forced_object', 'v_half_plus_1'):
        "2135ecab4f4e1ff0e185526453eed4eed80238e8dffc795e67ab238b20ace769",
    ('boot_test', 'forced_object', 'v_q_minus_1'):
        "690384fc17d34fa8af0bbadb2ea2ab24394fafadca4f085a0d027cbe5cdacc9f",
    ('mixed30+55', 'native', 'seeded'):
        "6c895925a70b06473aea27e681c1707659daa13cd09397b97168f61b4d508505",
    ('mixed30+55', 'native', 'zero'):
        "755892dc7d3dd137c673699156b29f56e16c18e88f6c4c4d3c0de898d42918ac",
    ('mixed30+55', 'native', 'q_minus_1'):
        "5cf3796c97f78cf7007faf4e05f9446576c8f2b317aa708c7e7077b601812d32",
    ('mixed30+55', 'native', 'v_half'):
        "0f444e3e62da7bae3aa7f7a37f32f733dbf33b4e1b9059bced9bff6cf7f1c202",
    ('mixed30+55', 'native', 'v_half_plus_1'):
        "e3e25786db566d2356a723895775916ab867be285f06a054f36ca57ba92b9c73",
    ('mixed30+55', 'native', 'v_q_minus_1'):
        "5cf3796c97f78cf7007faf4e05f9446576c8f2b317aa708c7e7077b601812d32",
    ('mixed30+55', 'forced_object', 'seeded'):
        "f68eb6a6621cd4fbd33d4c00ed0826b4a4578bcbea18c8ff640e01f2e50f1b2f",
    ('mixed30+55', 'forced_object', 'zero'):
        "fc38f2e6dbd3dc18627cf43606ec3e85e776b2bdb7fd9317d13be4f1a16d75b5",
    ('mixed30+55', 'forced_object', 'q_minus_1'):
        "83ea9f82cbf08218a01aa2edeee20135f68fef20638a49503d62c7abb7b42931",
    ('mixed30+55', 'forced_object', 'v_half'):
        "fc60103ab55a9cf190021ec980d9b0d8d96155dc53f02308cb52ae627f3f3c15",
    ('mixed30+55', 'forced_object', 'v_half_plus_1'):
        "a8f58491a727148fc0e0141cff622a1f3014275a17e2a78afeba73e3d228343d",
    ('mixed30+55', 'forced_object', 'v_q_minus_1'):
        "83ea9f82cbf08218a01aa2edeee20135f68fef20638a49503d62c7abb7b42931",
    ('object62', 'native', 'seeded'):
        "af93533777c3cb0a26d0a8cbf9c33e91e96734a1ac34687147323e1ed268b2ea",
    ('object62', 'native', 'zero'):
        "755892dc7d3dd137c673699156b29f56e16c18e88f6c4c4d3c0de898d42918ac",
    ('object62', 'native', 'q_minus_1'):
        "05d01ad822b27cd99ec0df70dc909f78ccd4d5b0eed8caf6ad20f21bfb1fa81c",
    ('object62', 'native', 'v_half'):
        "2744a455522702335369b4855164456caa9d74a6c57b3906e779a1b0bbe988eb",
    ('object62', 'native', 'v_half_plus_1'):
        "25bbfe0170ac5adabac904c020c153b911250f46b0763a0d631ca14127889ba3",
    ('object62', 'native', 'v_q_minus_1'):
        "05d01ad822b27cd99ec0df70dc909f78ccd4d5b0eed8caf6ad20f21bfb1fa81c",
    ('object62', 'forced_object', 'seeded'):
        "c0bf601b2bac0986e3313cd1be66faea3bf9f64e54070aac8a1ce2b1e0b70fd8",
    ('object62', 'forced_object', 'zero'):
        "fc38f2e6dbd3dc18627cf43606ec3e85e776b2bdb7fd9317d13be4f1a16d75b5",
    ('object62', 'forced_object', 'q_minus_1'):
        "cb2b64017fc9be9794fc30cae7b649c3577280bf3a3de9df19a30062a96f8e6c",
    ('object62', 'forced_object', 'v_half'):
        "ca32e87f7a6facada1e3752fe45ad0c28268ef7846d7b87579bfd01448ad2aac",
    ('object62', 'forced_object', 'v_half_plus_1'):
        "ac187cc6dd2703a02e4c7ade4009f6cf45900069ec9ea4ce7715e2389fcdfaeb",
    ('object62', 'forced_object', 'v_q_minus_1'):
        "cb2b64017fc9be9794fc30cae7b649c3577280bf3a3de9df19a30062a96f8e6c",
    ('one_prime', 'native', 'seeded'):
        "c031f174bb4bb05b21b6a91bde704a3af53a8fea8c8a69eeb0bb15b0b9ed0108",
    ('one_prime', 'native', 'zero'):
        "755892dc7d3dd137c673699156b29f56e16c18e88f6c4c4d3c0de898d42918ac",
    ('one_prime', 'native', 'q_minus_1'):
        "6f919a65038d810ded46af1d96cd4ec5ff72723f40b620c478d9b1c77e96b0f4",
    ('one_prime', 'native', 'v_half'):
        "20c3fb363c7d0dae4cf98d25a5c83db1471f93ba919420f5c21ba59ce003ec32",
    ('one_prime', 'native', 'v_half_plus_1'):
        "137b55a4eca50238df7df990079deb35fea276131cc90083c79dcabf0037b181",
    ('one_prime', 'native', 'v_q_minus_1'):
        "6f919a65038d810ded46af1d96cd4ec5ff72723f40b620c478d9b1c77e96b0f4",
    ('one_prime', 'forced_object', 'seeded'):
        "096e342df1e8d8d1b23e49bbc3a163847916a23165c79b17421c435896062c02",
    ('one_prime', 'forced_object', 'zero'):
        "fc38f2e6dbd3dc18627cf43606ec3e85e776b2bdb7fd9317d13be4f1a16d75b5",
    ('one_prime', 'forced_object', 'q_minus_1'):
        "23d6cd806e5aaabb05dcb9559b614bc968e6bcaadc5f8e8209f6e768bb5fa739",
    ('one_prime', 'forced_object', 'v_half'):
        "e1ee75e67c2982bb0225d4a7c6026f4bb9105a96e5ff38dcb0d46b5f61289da6",
    ('one_prime', 'forced_object', 'v_half_plus_1'):
        "d4aa1712ed688051cc1b41f6f9f56ca7f9c2a07076cd08a40bbfdf1bc8bc7823",
    ('one_prime', 'forced_object', 'v_q_minus_1'):
        "23d6cd806e5aaabb05dcb9559b614bc968e6bcaadc5f8e8209f6e768bb5fa739",
    ('pw54', 'native', 'seeded'):
        "df0eddbf1de13590e2bf02cc520e6247237a085f1d10f2d3b1d4385114f16a5d",
    ('pw54', 'native', 'zero'):
        "ea071de2fe0b9eb4fd9e424d4e631d346e181e82fb5cb7479d29404b0704a546",
    ('pw54', 'native', 'q_minus_1'):
        "aa744a80f3f7b97889e3f3d1fa80eaf31d022a18c62bcdf84fc76a529f5640fe",
    ('pw54', 'native', 'v_half'):
        "4b4296251e65a9ce3b47ac93a918ec4360fa69665052c027d3accc58331da821",
    ('pw54', 'native', 'v_half_plus_1'):
        "dff4255bc7b7adf0e1045808373b3ed8141c1094b4952f403265b32170fd6588",
    ('pw54', 'native', 'v_q_minus_1'):
        "aa744a80f3f7b97889e3f3d1fa80eaf31d022a18c62bcdf84fc76a529f5640fe",
    ('pw54', 'forced_object', 'seeded'):
        "50aaa8660c554b9bd7bb0bd216f87bee6cf4fa78dbe570448e0a940099284956",
    ('pw54', 'forced_object', 'zero'):
        "a04909858f2f11ec891aba63c006c6e9f3f83b5465be02a044b9d27141d7b8b1",
    ('pw54', 'forced_object', 'q_minus_1'):
        "39cfd694b37e0a0b36379e3179add67f40fa0d50846a20e3f87740a33772f487",
    ('pw54', 'forced_object', 'v_half'):
        "1e0a844ab82b9665db30d366b7598657adf0ce5608e177d597de06ef839bf6e6",
    ('pw54', 'forced_object', 'v_half_plus_1'):
        "cd4272067a51ec67d3448939173ada36ac1c06a17be3d8c208e2d973f36b5a2b",
    ('pw54', 'forced_object', 'v_q_minus_1'):
        "39cfd694b37e0a0b36379e3179add67f40fa0d50846a20e3f87740a33772f487",
    ('test', 'native', 'seeded'):
        "121e20eb7cff7400268359c93e90cc86d72f3210d1205e850f02aeac3f28bff0",
    ('test', 'native', 'zero'):
        "7df712989325f36bbb7b084e104cd622a9c7a3ae3f4974889498544249104ca2",
    ('test', 'native', 'q_minus_1'):
        "1dc95999f0f7b5e398091784dc689283893002723ccf500b9a17d3c9ee55659b",
    ('test', 'native', 'v_half'):
        "bd719eb49b9ea34db8d67c780c5e8440a64e47f133291a60da533739b852b63a",
    ('test', 'native', 'v_half_plus_1'):
        "e4e26eaee544985f2f185c681ad400e8cab486f2a084155ddfa473a220e6b5cb",
    ('test', 'native', 'v_q_minus_1'):
        "1dc95999f0f7b5e398091784dc689283893002723ccf500b9a17d3c9ee55659b",
    ('test', 'forced_object', 'seeded'):
        "da2dca30dd793edc41339d6cc3e1903fadff876333562108152947529508fe9d",
    ('test', 'forced_object', 'zero'):
        "af23add176adf0f9e2d8eba3e010c5ab2b60f6382f9fabfd87bdef26a067281a",
    ('test', 'forced_object', 'q_minus_1'):
        "a77d783ed273981890be6e90627d70dfd3d420fde28c5796344b78a4a218dbee",
    ('test', 'forced_object', 'v_half'):
        "efed9fb16f17fc7fe92541a48a5f6f562f9193a37774eace2651d252e1a537ee",
    ('test', 'forced_object', 'v_half_plus_1'):
        "ac8830815081fdee526447e3a3a1018c8bdac8616e87f4e019f07da8688d51b6",
    ('test', 'forced_object', 'v_q_minus_1'):
        "a77d783ed273981890be6e90627d70dfd3d420fde28c5796344b78a4a218dbee",
    ('toy', 'native', 'seeded'):
        "90c8783569b72968821297a2c54cd61e417129b4440762b6273269553d5f1f8f",
    ('toy', 'native', 'zero'):
        "ea071de2fe0b9eb4fd9e424d4e631d346e181e82fb5cb7479d29404b0704a546",
    ('toy', 'native', 'q_minus_1'):
        "2ce38645d708704e73f55dc3d606deae782ecff3be27482fada51162fb22eaea",
    ('toy', 'native', 'v_half'):
        "18f56126dfe10d9f46aebe6e6f8f926acf4316f54a1dbeb582dfe6259fc28998",
    ('toy', 'native', 'v_half_plus_1'):
        "74c48ca104f8571a4870fabd2b5e6ce43b125c90fd099024f862aa06909a53e8",
    ('toy', 'native', 'v_q_minus_1'):
        "2ce38645d708704e73f55dc3d606deae782ecff3be27482fada51162fb22eaea",
    ('toy', 'forced_object', 'seeded'):
        "c910986a38747d285015257af060d7d989770ff9eb5f6df3c5e5d0667ff12b92",
    ('toy', 'forced_object', 'zero'):
        "a04909858f2f11ec891aba63c006c6e9f3f83b5465be02a044b9d27141d7b8b1",
    ('toy', 'forced_object', 'q_minus_1'):
        "fc59e46e5cd4c895c07c47ba9843c4bdf833ec2aa87a5d1841bdd20da1b350fe",
    ('toy', 'forced_object', 'v_half'):
        "18372d62b82fc179840f45c016607a13d8e37d3bf68c974eeb257d94f206df47",
    ('toy', 'forced_object', 'v_half_plus_1'):
        "3aca47d3fb4eb35834eba06e3666ecb0c55f4f4a106752772086ed327b3e0799",
    ('toy', 'forced_object', 'v_q_minus_1'):
        "fc59e46e5cd4c895c07c47ba9843c4bdf833ec2aa87a5d1841bdd20da1b350fe",
}

PARENT_DECOMPOSE_DIGESTS = {
    ('boot_test', 'native'):
        "ff7eda9c1eb5044d8cec61b90290b4a2dbd17e789bcb3366d7db147b174fb7ee",
    ('boot_test', 'forced_object'):
        "51712c30e159d7bc4ccca06118f841bbc32ff1051b4944f22edb33630f334b77",
    ('mixed30+55', 'native'):
        "5fb07cbb834a9707b0114f9b840f5b5817df212332e418ae356a7e2408f9aea1",
    ('mixed30+55', 'forced_object'):
        "7950f84d51dc5e82150ad2f21f15e74adb0074a423c27e7bc9b5922f9a5e96d3",
    ('object62', 'native'):
        "d87c02b8df3f7ab3025f37e3cf0d247a019497650a2510fb812332073cd31d13",
    ('object62', 'forced_object'):
        "d87c02b8df3f7ab3025f37e3cf0d247a019497650a2510fb812332073cd31d13",
    ('one_prime', 'native'):
        "e7158b3e4d3b0784a87f4c4d9f5a249a3f8c04f20481d767fcd31c8b71fd4ff4",
    ('one_prime', 'forced_object'):
        "2ccb95c314cf3e2b5f75ab4db4f78acd3932dab5a6bb49ca7fd671a804464c4a",
    ('pw54', 'native'):
        "37cbfcd356e15a76ddd9ce26560ff6236018ae3ede8d415bee855bea3b2116bb",
    ('pw54', 'forced_object'):
        "2a0b0ad3a667091c62060bc84fc07a4bef5f5e21de87fb79637dae751aa126b7",
    ('test', 'native'):
        "7cce4ec8d321bb75ddc77ecccd2da307cd42006af170372db97183eeb3509698",
    ('test', 'forced_object'):
        "3d303d5bb755c55635a87917e0499a6292f1792573116a322a47ffe02b0a35bc",
    ('toy', 'native'):
        "e3575806a862a21c3b6a2c568a579107afdee86776ff8e9ca228cfe7236f9e87",
    ('toy', 'forced_object'):
        "35e3d9be48f595d9bb8c4cf5642d81d8d10e2a2995e44ba0008364ea4abcb733",
}


def _stack_dtype(primes) -> type:
    return object if max(primes) >= NATIVE_SAFE_MODULUS else np.int64


def _library(mode: str, *moduli: int) -> bool:
    """Whether the library computes over ``moduli`` in ``mode``."""
    return mode == "native" and max(moduli) < NATIVE_SAFE_MODULUS


def inputs(basis: RnsBasis, kind: str) -> list[np.ndarray]:
    """One residue vector of length N per prime of ``basis``."""
    primes = basis.primes
    dtype = _stack_dtype(primes)

    def constant(value: int) -> list[np.ndarray]:
        return [np.array([r] * N, dtype=dtype)
                for r in basis.decompose(value)]

    if kind == "seeded":
        rng = np.random.default_rng(29)
        return [np.array([int(v) for v in rng.integers(0, q, size=N)],
                         dtype=dtype) for q in primes]
    if kind == "q_minus_1":
        return [np.array([q - 1] * N, dtype=dtype) for q in primes]
    big = basis.big_modulus
    return constant({"zero": 0, "v_half": big // 2,
                     "v_half_plus_1": big // 2 + 1,
                     "v_q_minus_1": big - 1}[kind])


def _update(sha, array: np.ndarray) -> None:
    sha.update(f"{array.dtype.str}:{array.shape};".encode())
    sha.update(",".join(str(int(v)) for v in array).encode())


def compose_digest(name: str, mode: str, kind: str) -> str:
    primes, targets = BASES[name]()
    basis = RnsBasis(primes)
    limbs = inputs(basis, kind)
    library = _library(mode, *primes)
    sha = hashlib.sha256()
    for p in targets:
        if library and _library(mode, p):
            limb, = basis.convert_exact(limbs, [p])
        else:
            limb, = bignum.convert(limbs, primes, [p])
            limb = limb.astype(np.int64 if _library(mode, p) else object)
        _update(sha, limb)
    composed = basis.compose_vec(limbs) if library \
        else bignum.compose(limbs, primes).tolist()
    assert type(composed) is list and all(type(v) is int for v in composed)
    _update(sha, np.array(composed, dtype=object))
    _update(sha, basis.compose_centered_vec(limbs) if library
            else bignum.compose_centered(limbs, primes))
    return sha.hexdigest()


def decompose_inputs(basis: RnsBasis) -> dict[str, object]:
    big = basis.big_modulus
    rng = np.random.default_rng(31)
    words = [int(v) for v in rng.integers(0, 1 << 62, size=N)]
    composed = [(w * (big >> 40) + w) % big for w in words]
    small = rng.integers(-(1 << 62), 1 << 62, size=N, dtype=np.int64)
    return {
        "composed": composed,
        "negative": [-v for v in composed] + [-1, -big, -big - 1],
        "past_2_64": [(1 << 64) + w for w in words]
                     + [1 << 64, (1 << 64) - 1, (1 << 200) + 7, 0],
        "int64_array": small,
        "object_array": np.array([int(v) * 3 for v in small], dtype=object),
        "uint64_array": np.array(
            [(1 << 63) + w for w in words] + [(1 << 64) - 1, 1 << 63, 0],
            dtype=np.uint64),
    }


def decompose_digest(name: str, mode: str) -> str:
    primes = BASES[name]()[0]
    basis = RnsBasis(primes)
    sha = hashlib.sha256()
    for what, values in decompose_inputs(basis).items():
        sha.update(what.encode())
        for limb in (basis.decompose_vec(values) if _library(mode, *primes)
                     else bignum.decompose(values, primes)):
            _update(sha, limb)
    return sha.hexdigest()


COMPOSE_CASES = [(name, mode, kind) for name in sorted(BASES)
                 for mode in MODES for kind in KINDS]
DECOMPOSE_CASES = [(name, mode) for name in sorted(BASES) for mode in MODES]


@pytest.mark.parametrize("name,mode,kind", COMPOSE_CASES)
def test_composition_bits_match_the_parent_commit(name, mode, kind):
    assert compose_digest(name, mode, kind) \
        == PARENT_COMPOSE_DIGESTS[(name, mode, kind)]


@pytest.mark.parametrize("name,mode", DECOMPOSE_CASES)
def test_decomposition_bits_match_the_parent_commit(name, mode):
    assert decompose_digest(name, mode) \
        == PARENT_DECOMPOSE_DIGESTS[(name, mode)]


@pytest.mark.parametrize("name", sorted(BASES))
def test_the_pinned_inputs_compose_to_what_they_say(name):
    """The boundary kinds are built by ``decompose``; hold them to the
    scalar CRT so a pin cannot quietly stop covering the centering edge."""
    basis = RnsBasis(BASES[name]()[0])
    big = basis.big_modulus
    for kind, value in (("zero", 0), ("v_half", big // 2),
                        ("v_half_plus_1", big // 2 + 1),
                        ("v_q_minus_1", big - 1)):
        limbs = inputs(basis, kind)
        assert basis.compose([int(limb[0]) for limb in limbs]) == value
        centered = bignum.compose_centered(limbs, basis.primes)
        assert int(centered[0]) == (value - big if value > big // 2
                                    else value)
        if _library("native", *basis.primes):
            assert np.array_equal(basis.compose_centered_vec(limbs),
                                  centered)


if __name__ == "__main__":
    print("PARENT_COMPOSE_DIGESTS = {")
    for key in COMPOSE_CASES:
        print(f"    {key!r}:\n        \"{compose_digest(*key)}\",")
    print("}\n\nPARENT_DECOMPOSE_DIGESTS = {")
    for key in DECOMPOSE_CASES:
        print(f"    {key!r}:\n        \"{decompose_digest(*key)}\",")
    print("}")
