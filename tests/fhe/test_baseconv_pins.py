"""Key-switch base conversions pinned against the commits before each
tier's conversions became split-word matrix products.

``test_parent_digests.py`` pins whole ciphertexts and
``test_transform_pins.py`` the transforms; this module pins the two
kernels in between: what ModDown's ``Division.lift`` (its exact lift,
:mod:`repro.fhe.rns`) and ``StackedBackend.mod_up`` (every digit)
return.  The digests
were recorded at commit 27cb4ec — the double-word tier lifting through
``RnsBasis.convert_exact`` word planes and raising digits by per-limb
Shoup sweeps, the int64 tier already on its integer matmuls — by running
this very file (``python tests/fhe/test_baseconv_pins.py`` prints them);
it passes unchanged on both sides of the change.  Inputs: seeded
residues, every residue at 0, ``p - 1``, ``p // 2`` and ``p // 2 + 1``,
and residues chosen so that the *scaled* residue ``y = [x * hat^-1]_p``
both kernels center sits at ``p // 2`` / ``p // 2 + 1``: the centering
edges, before and after the unpuncturing multiply.

``PARENT_INT64_DIGESTS`` pins the int64 tier the same way, recorded at
commit be8af92 — the last with int64-only ModUp / lift branches beside
the kernel — for every context that change rerouted: ``toy`` below the
top level, ``test``, ``boot_test`` (7-limb digits) and the two one-digit
contexts whose row sums had kept them off the integer matmuls.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksParameters, PolyContext
from repro.fhe.rns import RnsBasis, division
from test_parent_digests import PRESETS as _SCORING_PRESETS


def _one_digit(max_level: int) -> CkksParameters:
    """One digit of ``max_level + 1`` limbs at the 30-bit word, raised
    over as many special primes plus one (``test_keyswitch.py`` /
    ``test_moddown_lift.py``): 16 limbs were past the int64 matmul's
    row-sum bound, 33 special primes past the int64 lift's."""
    return CkksParameters._build(
        ring_degree=1 << 8, scale_bits=29, prime_bits=30,
        max_level=max_level, dnum=1, boot_levels=4, fft_iterations=2)


PRESETS = {**_SCORING_PRESETS, "test": CkksParameters.test,
           "boot_test": CkksParameters.boot_test,
           "digit16": lambda: _one_digit(15),
           "special33": lambda: _one_digit(31)}

#: preset -> key-switch levels pinned.
LEVELS = {"pw54": (5, 3, 1), "toy": (5, 3, 1), "test": (7,),
          "boot_test": (19, 9), "digit16": (15,), "special33": (31,)}

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

#: The int64-tier contexts, recorded at commit be8af92 — ModUp by one
#: int64 matmul over centered weights (the per-term broadcast sweep for
#: ``digit16`` / ``special33``), the lift by one int64 matmul
#: (``convert_exact`` for ``digit16`` / ``special33``) — before both tiers
#: took the one split-word kernel.
PARENT_INT64_DIGESTS = {
    ('boot_test', 19, 'seeded'):
        "c8bace68ee45e391f347b885004713da81e004ab9824eabbc51ab224983ec994",
    ('boot_test', 19, 'zero'):
        "13df1b6b49dd17e47a1162286446485633aa23414c1e42c319d2609844fd2799",
    ('boot_test', 19, 'p_minus_1'):
        "79a8151428b9cafedf1973b879d09c22cb9b521eac86e301c609d3484dc1af3d",
    ('boot_test', 19, 'half'):
        "10ebb93b79c7a4e26c1fdcac8f0a01e8365eea4af714616914defc58adbb7076",
    ('boot_test', 19, 'half_plus_1'):
        "afe64c89faa8d0a26184ce30868c0d4fc8b2ac25759fab0b8cb8098d616d9010",
    ('boot_test', 19, 'y_half'):
        "e6224ab6f8f24404204ac726b3ccbcfe2207951de34e168f336f7d215e9e5293",
    ('boot_test', 19, 'y_half_plus_1'):
        "919f2f8598269c8d272e55d2fc2bb429294ebf16313f6b904f95ce74e3e08296",
    ('boot_test', 9, 'seeded'):
        "c708a4f42f7ea3d86bb88ea8a5b19909f5c7d9982243cf6cca3828ed47520ee2",
    ('boot_test', 9, 'zero'):
        "ece761fc8648d152e7f761e8992079946868b88f75ad66122d822d5cb2df316e",
    ('boot_test', 9, 'p_minus_1'):
        "6a14e72d656940adff6d97b70a8a339ae6ce3deba7a79d545fc3b7b67990f7ae",
    ('boot_test', 9, 'half'):
        "1d72bfb66bfd37d39008a66c2b13cff679cd6da745c8707189b22e08fcf320f9",
    ('boot_test', 9, 'half_plus_1'):
        "d61725f2ff5509ca679cf1d3fe501e49ba4f20b2f4f468a737134c2d289ff7f1",
    ('boot_test', 9, 'y_half'):
        "78ab008dcd1756ff1ff13a4cc762a36ace6dc36ca882d62e705383adcc7d21a4",
    ('boot_test', 9, 'y_half_plus_1'):
        "1fe84f175fc166b60edb623a14085684639a2c8374845ffa57aa73bdd355fd66",
    ('digit16', 15, 'seeded'):
        "0d50bc49e000716210b4e587ebdd14841a379d466fdec142947a533480221c03",
    ('digit16', 15, 'zero'):
        "c7ed01f07cdc4b4dcc076f195492aa8e5c1807b4aaa7ed597c0ccb77981f9a04",
    ('digit16', 15, 'p_minus_1'):
        "9cb5ffbe370d3e9be51d064b21fd83d754cea17249a93fa30fe29e6a0b493733",
    ('digit16', 15, 'half'):
        "5b2be59526f4d344b0998fa616fcf218d8ff7ac792f68ae1a5defe89f4e4f13d",
    ('digit16', 15, 'half_plus_1'):
        "80981520ff46c7f1f6edb6033fb90b3046f2530dca91e6750b01c5d77681d093",
    ('digit16', 15, 'y_half'):
        "91f1604c194d1a68ddae8ab0bcd4bc1ad86bcd201b61a50e219217f3636b8520",
    ('digit16', 15, 'y_half_plus_1'):
        "30b5e21552c16e9d167a37c0f42696fbe99946869c7be8ca6202b5f9640eb4e1",
    ('special33', 31, 'seeded'):
        "1e224cb7b4b9d6014355ddce79391d399e3ec26e5db6b5b05345023546c730bb",
    ('special33', 31, 'zero'):
        "5fd4fdffbb378da9646414e9497b83987d7efa147bcaec3c597bcfb28698a88c",
    ('special33', 31, 'p_minus_1'):
        "1671f0df3c640d6c56b8a97c9db15f3016b124544496a7c97c647575f49bc885",
    ('special33', 31, 'half'):
        "b6c99c69274ec286e813d3f56ff85c259ca357c52f53a39dd9d4f8a937a0463d",
    ('special33', 31, 'half_plus_1'):
        "453b6c2f53d0f2be2eabbfc6dbef99ab777f2cddac8a5da45d07952c19e92adc",
    ('special33', 31, 'y_half'):
        "6bd412f6065f68084c1ba9a313d38dbf1b49402f74f9596cf151379803ba13ea",
    ('special33', 31, 'y_half_plus_1'):
        "d19c4dc5b6a018e2c28896b761b1b2b9f5a9597830ecad269c9828ce20c6aaa3",
    ('test', 7, 'seeded'):
        "892383d8f6c24d6ecf582e9dbd228f0d7337bea24903cb06d55494ee6cd7dede",
    ('test', 7, 'zero'):
        "f1295e11a9e904f62008f50df5da2a0c3a89d90ffb9c445ae11789704413d396",
    ('test', 7, 'p_minus_1'):
        "a287e42ac926cdd7e1ece6910f780a488e53787cfc60945db45e48fe0b9419f6",
    ('test', 7, 'half'):
        "32fed8a2a3b596f59f19e031b5ced6dffb6de3959e3e2110d21e3d7d6aab021c",
    ('test', 7, 'half_plus_1'):
        "633efa411e865501d4b0f2005a77b6ebfb62596745654784144052531cca5f05",
    ('test', 7, 'y_half'):
        "ede002a1e9512b8b9edc78c16f1815f31d0d379de146fa3d74a782343c542c4e",
    ('test', 7, 'y_half_plus_1'):
        "108bf076f6b8448bbc858032191de394e13b1a448bf39b155ed12b0a85cca940",
    ('toy', 3, 'seeded'):
        "01fc4f12275a1f7c0b0632e500de92eb3302cbc3a5f1e58d320d6a97f49eab12",
    ('toy', 3, 'zero'):
        "6cdd259c8ecbe61fbc369f3293c1961541386954a223b17a37899d7fd9ad42da",
    ('toy', 3, 'p_minus_1'):
        "40d6e96f94d69bb34230564d968f91f086466e235eeaf848fd4231bbe6cc5985",
    ('toy', 3, 'half'):
        "ad2fff771a93597562de2cbc36a02292c6221235e31368492556afbe198d3f4d",
    ('toy', 3, 'half_plus_1'):
        "d35151d7f4a11becef262e3f27521d4e9cdc68dfbec9ecb147df1999ebd6d53b",
    ('toy', 3, 'y_half'):
        "ef486491f1017d831daee30caf3b538ec1c92dc2e684106b1516154db13673b4",
    ('toy', 3, 'y_half_plus_1'):
        "186a96383e03ea09752586a6cbae06290d9a574f255cc701694394b4cdb3b011",
    ('toy', 1, 'seeded'):
        "0c9223604b58c42d1f6667e8f15e869a42ea4f9b8f576bf6a4ad4fa82e2aecad",
    ('toy', 1, 'zero'):
        "de2f256064a0af797747c2b97505dc0b9f3df0de4f489eac731c23ae9ca9cc31",
    ('toy', 1, 'p_minus_1'):
        "73e89bf0a3abe04a562a3b721cda8f407066494aadd0d96e19e6cfb56c9c1c8c",
    ('toy', 1, 'half'):
        "b445f92e7207137c0a77dca77803145b04b12c6d740dcc97019f71a7abf0f34c",
    ('toy', 1, 'half_plus_1'):
        "5173cb27af65f1c23fe64bcfb405f97f9168b3e9b2a5a8d02d25d73f52586ba2",
    ('toy', 1, 'y_half'):
        "adc1461e97e65bf249f0d3894daf63a3b71e4c9dc242d171b754cc8dc9fd7057",
    ('toy', 1, 'y_half_plus_1'):
        "059ecce18a97140fdc894e59e85c1a048b3abd049e42fe3638ae55acb645b2ba",
}

PARENT_BASECONV_DIGESTS.update(PARENT_INT64_DIGESTS)


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

    moddown = division(ksctx.extended, ksctx.num_ct)
    update(moddown.lift(inputs(moddown.basis, n)[kind]))
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
    products could leave int64, which once took such a context off the
    int64 tier's integer paths.  Every width binds the one kernel now —
    the split-word matmul with a single table word; the 34-term lift
    beside it cuts its operands into three words where this digit still
    fits two — and must still raise digits to the reference backend's
    integers."""
    params = PRESETS["special33"]()
    stacked = PolyContext(params, seed=1, backend="stacked").backend
    reference = PolyContext(params, seed=1, backend="reference").backend
    ksctx = stacked.keyswitch_context(params.max_level)
    moddown = division(ksctx.extended, ksctx.num_ct)
    for kernel, width, pieces in ((ksctx.modup_matmul, 32, 2),
                                  (moddown.lift_matmul, 34, 3)):
        assert (kernel.width, kernel.pieces, kernel.table_pieces) \
            == (width, pieces, 1)
    digit = inputs(ksctx.digit_bases[0], params.ring_degree)["seeded"]
    want = reference.mod_up(list(digit), 0,
                            reference.keyswitch_context(params.max_level))
    assert np.array_equal(stacked.mod_up(digit, 0, ksctx), np.stack(want))


@pytest.mark.parametrize("preset,level", [
    (preset, level) for preset, levels in sorted(LEVELS.items())
    for level in levels])
def test_reference_backend_converts_to_the_same_integers(preset, level):
    """The pins hold ``stacked``; the per-limb loops of ``reference`` —
    one ModUp loop for every word size, ``convert_exact`` as the lift —
    must land on them too."""
    params = PRESETS[preset]()
    stacked = PolyContext(params, seed=1, backend="stacked").backend
    reference = PolyContext(params, seed=1, backend="reference").backend
    ksctx = stacked.keyswitch_context(level)
    ks_ref = reference.keyswitch_context(level)
    moddown = division(ksctx.extended, ksctx.num_ct)
    n = params.ring_degree
    for kind in ("seeded", "y_half", "y_half_plus_1"):
        special = inputs(moddown.basis, n)[kind]
        assert np.array_equal(
            moddown.lift(special),
            np.stack(moddown.basis.convert_exact(list(special),
                                                 list(ks_ref.ct_moduli))))
        for j, basis in enumerate(ksctx.digit_bases):
            digit = inputs(basis, n)[kind]
            raised = reference.mod_up(list(digit), j, ks_ref)
            assert all(limb.dtype == np.int64 for limb in raised)
            assert np.array_equal(stacked.mod_up(digit, j, ksctx),
                                  np.stack(raised))


if __name__ == "__main__":
    for key in CASES:
        print(f"    {key!r}:\n        \"{baseconv_digest(*key)}\",")
