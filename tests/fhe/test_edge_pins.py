"""What crosses a batch's two edges, pinned.

``encode`` -> lift -> encrypt on the way in and decrypt -> compose ->
``decode`` on the way out stay in int64 wherever the values allow; the
digests below hold every coefficient, ciphertext bit and decoded byte
of both edges.  Coefficients are hashed as
``','.join(str(int(c)) for c in pt.coeffs)``, so one pin reads a list
of Python integers and an int64 array alike.

Re-pin only deliberately: ``python tests/fhe/test_edge_pins.py`` prints
the tables; CHANGES.md records every old -> new.
"""

import hashlib

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksEncoder, CkksParameters
from repro.fhe.packing import SlotLayout
from repro.serve.workloads import ServedWorkload, scoring_workload
from test_parent_digests import PRESETS as _TWO

PRESETS = {**_TWO, "test": CkksParameters.test}
BACKENDS = ("stacked", "reference")
WIDTH = 16


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- encode ------------------------------------------------------------------

def _uniform(params, seed=11):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, params.num_slots)


def _complex(params):
    rng = np.random.default_rng(12)
    n = params.num_slots
    return rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)


def _encodings(params):
    """``name -> [Plaintext, ...]`` for one parameter set."""
    enc = CkksEncoder(params)
    n, scale = params.num_slots, params.scale
    # A constant vector v embeds as the constant polynomial scale * v,
    # exactly: coefficient 0 lands on a .5 tie, either sign, odd and even.
    ties = [k + 0.5 for k in range(-4, 4)]
    return {
        "uniform": [enc.encode(_uniform(params))],
        "complex": [enc.encode(_complex(params))],
        "short": [enc.encode([1.5, -2.5, 0.125])],
        "zeros": [enc.encode(np.zeros(n))],
        "ties": [enc.encode([t / scale] * n) for t in ties],
        "other_scale": [enc.encode(_uniform(params), scale=2.0 ** 40)],
        # Beyond the int64 wire bound: the big-integer path.
        "scale_2_80": [enc.encode(_uniform(params), scale=2.0 ** 80)],
        # Either side of 2**62: the last float below it, then 2**62.
        "below_2_62": [enc.encode([1.0 - 2.0 ** -53] * n, scale=2.0 ** 62)],
        "at_2_62": [enc.encode([1.0] * n, scale=2.0 ** 62),
                    enc.encode([-1.0] * n, scale=2.0 ** 62)],
    }


def _encode_digest(plaintexts) -> str:
    sha = hashlib.sha256()
    for pt in plaintexts:
        sha.update(f"{pt.scale!r}:{pt.num_slots}:{len(pt.coeffs)};".encode())
        sha.update(",".join(str(int(c)) for c in pt.coeffs).encode())
    return sha.hexdigest()


ENCODE_PINS = {
    ("pw54", "at_2_62"):
        "f1b69fb6cac47f51133ef4218313bc99c09b41c5045f653692ddded6a110c279",
    ("pw54", "below_2_62"):
        "71c445b4bade4bd38dfe128003dbc775951bc2943922498b6f51c1768fb736ef",
    ("pw54", "complex"):
        "4c25efc74e9bd63303e2c143c3f2d61fd2b5bfd72645a392d7a2af222dbd3bef",
    ("pw54", "other_scale"):
        "3ba7b8cdca6a24e78f9f811a300db86d3cf9782d434a78245ba16945f4c0412d",
    ("pw54", "scale_2_80"):
        "2f4de661d742765c24195d55cd05b75fa0f4623e22cd424f43db3e13c37f56c9",
    ("pw54", "short"):
        "7d39402f0998d0d384666c51fddc8435a3934e0a06462dd913d00202e0b3de92",
    ("pw54", "ties"):
        "f13d4eedf48ce7c05e08707e8da4ed44a7c78613e36c631be28acfe9ccd45f8c",
    ("pw54", "uniform"):
        "56ed6510e5d0d0b109876157fd28d5f66e3f32381250f9c16ba4f3653af65c4a",
    ("pw54", "zeros"):
        "4e709466fb3cf4ac265f09ebb1ad47d978d362e8f8c59f21145c37186567693c",
    ("test", "at_2_62"):
        "ab790a72849abef9155fd22f0aca168dd868a91e45104771df1c87eded43d15a",
    ("test", "below_2_62"):
        "3fa09f696218f647cdef6511e36af437081f33270a32e3f0e37059b2fd127964",
    ("test", "complex"):
        "a8f6fe1c30c45e6f9cc22165779f568065662a066e30eca1e4f280a29114b420",
    ("test", "other_scale"):
        "438833ca77429c1f57ed10e33ce90c19d3e745708b12ac868c98f985c2316789",
    ("test", "scale_2_80"):
        "8b4f9be3abebec363b051c5372af7725edd2fcbeb0574652ecdec8da3b05ae13",
    ("test", "short"):
        "f402875a6a3417d3323460675f68935cc22d575433b60e305b64a58c935a5143",
    ("test", "ties"):
        "0d4b437b6b2b6a60f1d7cf7c2fa550f9d825744e142f092a15676bfcb2d6039d",
    ("test", "uniform"):
        "b726ac70b4429edcc85ca48917f196a7dda83e6354ae6d1d744d24050ec0d206",
    ("test", "zeros"):
        "b12b101037039484ad09e2f1dae50a6e24e9efc43c4ee1cb3d124d12444bfb24",
    ("toy", "at_2_62"):
        "f1b69fb6cac47f51133ef4218313bc99c09b41c5045f653692ddded6a110c279",
    ("toy", "below_2_62"):
        "71c445b4bade4bd38dfe128003dbc775951bc2943922498b6f51c1768fb736ef",
    ("toy", "complex"):
        "18c1ed515fc98b10d2ee26a5ee8bb6992ba9bc9fad61f564fdc42cab4d681779",
    ("toy", "other_scale"):
        "3ba7b8cdca6a24e78f9f811a300db86d3cf9782d434a78245ba16945f4c0412d",
    ("toy", "scale_2_80"):
        "2f4de661d742765c24195d55cd05b75fa0f4623e22cd424f43db3e13c37f56c9",
    ("toy", "short"):
        "aad4b9f8dfbe792c53b4624d9f19660fc57e0b3431161bba8b5dae78b470fb5b",
    ("toy", "ties"):
        "34b74ba887e1de6e5da294e325a323799bdbe4162718c4642d5b629063274106",
    ("toy", "uniform"):
        "bec6724fc35c7dc76938eb6a035d5ecbb56e0d71061d645979b170da408e9e5c",
    ("toy", "zeros"):
        "3ce5f350974ea43c4305aa8cbaab5e33b52f58e160974434736b2b5c118f13e6",
}


# -- encrypt -----------------------------------------------------------------

def _ct_digest(ciphertexts) -> str:
    sha = hashlib.sha256()
    for ct in ciphertexts:
        sha.update(f"{ct.level}:{ct.scale!r};".encode())
        for poly in (ct.c0, ct.c1):
            for limb in poly.limbs:
                sha.update(np.ascontiguousarray(limb, dtype=np.int64)
                           .tobytes())
    return sha.hexdigest()


def _levels(params):
    return sorted({params.max_level, 3, 0}, reverse=True)


def _encrypt_digest(params, backend) -> str:
    """Five encryptions off one seeded context: the RNG draw order is
    part of the pin."""
    ctx = CkksContext(params, seed=123, backend=backend)
    cts = [ctx.encrypt(_uniform(params), level=level)
           for level in _levels(params)]
    cts.append(ctx.encrypt(_complex(params)))
    cts.append(ctx.encrypt(_uniform(params), scale=2.0 ** 80))
    return _ct_digest(cts)


ENCRYPT_PINS = {
    "pw54":
        "af719404d2bdd226b2b02be2bd48971093b0e1f0bd54fc2b1bb00b52ea6384b0",
    "test":
        "8beca2f813f240b164c9e5ac64450a2b82099aba94f85240efde4dcc463ed5f7",
    "toy":
        "a22c08fc50750d1a2efd9b28d4d4b8e9e7bf24e04715d0501b6bb98575d13574",
}


# -- decrypt -----------------------------------------------------------------

_AFFINE = tuple(np.linspace(lo, hi, WIDTH) for lo, hi in
                ((0.5, 1.0), (-0.5, 0.5), (1.0, 0.25), (0.25, -0.25)))


def _affine_workload() -> ServedWorkload:
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


PLANS = {"scoring": lambda: scoring_workload(WIDTH),
         "affine": _affine_workload}


def _decrypt_digests(params, backend) -> dict[str, str]:
    """``case -> sha256(ctx.decrypt(ct).tobytes())`` off one context."""
    ctx = CkksContext(params, seed=123, backend=backend)
    out = {}
    for level in _levels(params):
        ct = ctx.encrypt(_uniform(params), level=level)
        out[f"fresh_l{level}"] = _sha(ctx.decrypt(ct).tobytes())
    ct = ctx.encrypt(_complex(params))
    out["fresh_complex"] = _sha(ctx.decrypt(ct).tobytes())
    # Coefficients past 2**62: the exact composition.
    ct = ctx.encrypt(_uniform(params), scale=2.0 ** 80)
    out["fresh_2_80"] = _sha(ctx.decrypt(ct).tobytes())
    if params.ring_degree == 1 << 10:
        for name, workload in PLANS.items():
            plan = workload().compile(params)
            ct = ctx.encrypt(_uniform(params, seed=7))
            result = plan.execute(ctx, sources=[ct]).output
            out[name] = _sha(ctx.decrypt(result).tobytes())
    return out


DECRYPT_PINS = {
    ("pw54", "affine"):
        "afd684633c7c2fcff243d538295200174f36d422446952edcfc5479b7e8ea2c2",
    ("pw54", "fresh_2_80"):
        "c9f8a712be6a065c220ec3818847d00d025914bcd10737e055524c200b6c83ea",
    ("pw54", "fresh_complex"):
        "d6d70b22559ca8c2e81708df6b50ccac4b4c09accfb4e0f6141b9ef452064847",
    ("pw54", "fresh_l0"):
        "04e12416b01316722e6cb2b9268bce5fab397188d2854cd7ba012a0a2f249049",
    ("pw54", "fresh_l3"):
        "ad64d4a024cd102d93b7672ad32eaaf627d4659bbf68979d0c0710d84f6544d3",
    ("pw54", "fresh_l5"):
        "10abcdba9b6654bb945b18bd850cc9e6912a4b0029899ca73e16114a7e942c38",
    ("pw54", "scoring"):
        "c21555277ad6f65790776622e9c09b8997e289af4444825206556b93712e4c33",
    ("test", "fresh_2_80"):
        "aa7d3394fe185d4cd2972d2e54c97004fb7411c565dcbed918ada8ff04efe7ef",
    ("test", "fresh_complex"):
        "c02aee7d2cd31c6d0bf3d964e1a64ae0daa4df8e56c2ad8fe0a852ea1d1966cd",
    ("test", "fresh_l0"):
        "d2033954c39849ebe0b594f9cf1d5d3a27d4416ae47f78a8f779325fa8cf14d6",
    ("test", "fresh_l3"):
        "5c856b7355fcbaccd3471caf25fe2972bc7748aadc4bcac36f2719cc8046836e",
    ("test", "fresh_l7"):
        "318f76ada9068ef5e003143c1c4844f0b7b96658489488f924c38ba5d95f0415",
    ("toy", "affine"):
        "24f6a994f207fe1515000c764c585d39ac0232fd7a33a419b66d082b221d6318",
    ("toy", "fresh_2_80"):
        "c9f8a712be6a065c220ec3818847d00d025914bcd10737e055524c200b6c83ea",
    ("toy", "fresh_complex"):
        "e8999941997a1202255b1b8c8647ae62300faf76a09243657adcc4d7f7447558",
    ("toy", "fresh_l0"):
        "a03a1b7acb6ef56275cad90823228fa6acac91f60df7cced37412213d4b476e4",
    ("toy", "fresh_l3"):
        "9fb5b091f7edc4a9de9de1242fdc609242d03e607d9e740f181f7de1de76b710",
    ("toy", "fresh_l5"):
        "ca02381c37a4a36368c2b35854dd9e6a5422fc7d3b4860833281d14c531f95b3",
    ("toy", "scoring"):
        "3b6155affc92576ec71b48a5a13c6ae9c17f0d4c03faefd0fab6d25af00437bc",
}


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_encode_coefficients_match_the_parent_commit(preset):
    got = {(preset, name): _encode_digest(pts)
           for name, pts in _encodings(PRESETS[preset]()).items()}
    assert got == {key: pin for key, pin in ENCODE_PINS.items()
                   if key[0] == preset}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_encrypt_bits_match_the_parent_commit(preset, backend):
    assert _encrypt_digest(PRESETS[preset](), backend) \
        == ENCRYPT_PINS[preset]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_decrypted_bytes_match_the_parent_commit(preset, backend):
    got = _decrypt_digests(PRESETS[preset](), backend)
    assert got == {name: pin for (p, name), pin in DECRYPT_PINS.items()
                   if p == preset}


if __name__ == "__main__":  # pragma: no cover - re-pin deliberately
    import pprint
    encode, encrypt, decrypt = {}, {}, {}
    for preset, build in sorted(PRESETS.items()):
        params = build()
        for name, pts in _encodings(params).items():
            encode[(preset, name)] = _encode_digest(pts)
        encrypt[preset] = _encrypt_digest(params, "stacked")
        for name, digest in _decrypt_digests(params, "stacked").items():
            decrypt[(preset, name)] = digest
    for title, table in (("ENCODE_PINS", encode), ("ENCRYPT_PINS", encrypt),
                         ("DECRYPT_PINS", decrypt)):
        print(f"{title} = ", end="")
        pprint.pprint(table, width=79)
