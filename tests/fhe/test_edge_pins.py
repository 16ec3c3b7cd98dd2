"""What crosses a batch's two edges, pinned.

``encode`` -> lift -> encrypt on the way in and decrypt -> compose ->
``decode`` on the way out stay in int64 wherever the values allow; the
digests in ``tests/pins.json`` hold every coefficient, ciphertext bit
and decoded byte of both edges.  Coefficients are hashed as
``','.join(str(int(c)) for c in pt.coeffs)``, so one pin reads a list
of Python integers and an int64 array alike.  The encrypt pins are
about the library's encryption sampler (family ``sampler``); every
decrypted case encrypts under the sampler-free fixture
(``pins.fixture``), one context per case.

Re-pin only deliberately: ``PYTHONPATH=src python -m tests.pins
--record``; CHANGES.md records every old -> new.
"""

import functools
import hashlib

import numpy as np
import pytest

import pins
from repro.fhe import CkksContext, CkksEncoder, CkksParameters

PRESETS = {**pins.PRESETS, "test": CkksParameters.test}
BACKENDS = ("stacked", "reference")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- encode ------------------------------------------------------------------

def _uniform(params, seed=11):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, params.num_slots)


def _complex(params):
    rng = np.random.default_rng(12)
    n = params.num_slots
    return rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)


@functools.cache
def _encodings(preset: str):
    """``name -> [Plaintext, ...]`` for one parameter set."""
    params = PRESETS[preset]()
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


_ENCODED = ("uniform", "complex", "short", "zeros", "ties", "other_scale",
            "scale_2_80", "below_2_62", "at_2_62")


@pins.family("encode", [(name, p) for p in PRESETS for name in _ENCODED])
def encode_digest(name: str, preset: str) -> str:
    sha = hashlib.sha256()
    for pt in _encodings(preset)[name]:
        sha.update(f"{pt.scale!r}:{pt.num_slots}:{len(pt.coeffs)};".encode())
        sha.update(",".join(str(int(c)) for c in pt.coeffs).encode())
    return sha.hexdigest()


# -- encrypt -----------------------------------------------------------------

def _levels(params):
    return sorted({params.max_level, 3, 0}, reverse=True)


@pins.family("sampler/encrypt", [(p,) for p in PRESETS])
def encrypt_digest(preset: str, backend: str | None = None) -> str:
    """Five encryptions off one seeded context: the RNG draw order is
    part of the pin."""
    params = PRESETS[preset]()
    ctx = CkksContext(params, seed=123, backend=backend)
    cts = [ctx.encrypt(_uniform(params), level=level)
           for level in _levels(params)]
    cts.append(ctx.encrypt(_complex(params)))
    cts.append(ctx.encrypt(_uniform(params), scale=2.0 ** 80))
    return pins.ct_digest(cts)


# -- decrypt -----------------------------------------------------------------

def _cases(params) -> list[str]:
    """The decrypted cases at ``params``: fresh encryptions, and a
    served batch at N = 2^10."""
    served = list(pins.SERVED) if params.ring_degree == 1 << 10 else []
    return [f"fresh_l{level}" for level in _levels(params)] \
        + ["fresh_complex", "fresh_2_80"] + served


@pins.family("decrypt", [(case, p) for p, build in PRESETS.items()
                         for case in _cases(build())])
def decrypt_digest(case: str, preset: str,
                   backend: str | None = None) -> str:
    """``sha256(ctx.decrypt(ct).tobytes())`` of one case."""
    params = PRESETS[preset]()
    ctx = pins.fixture(params, pins.pin_id("decrypt", case, preset),
                       backend=backend)
    if case in pins.SERVED:
        plan = pins.SERVED[case]().compile(params)
        ct = ctx.encrypt(_uniform(params, seed=7))
        ct = plan.execute(ctx, sources=[ct]).output
    elif case == "fresh_complex":
        ct = ctx.encrypt(_complex(params))
    elif case == "fresh_2_80":
        # Coefficients past 2**62: the exact composition.
        ct = ctx.encrypt(_uniform(params), scale=2.0 ** 80)
    else:
        ct = ctx.encrypt(_uniform(params),
                         level=int(case.removeprefix("fresh_l")))
    return _sha(ctx.decrypt(ct).tobytes())


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_encode_coefficients_match_the_parent_commit(preset):
    assert sorted(_encodings(preset)) == sorted(_ENCODED)
    for name in _ENCODED:
        assert encode_digest(name, preset) \
            == pins.expected("encode", name, preset), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_encrypt_bits_match_the_parent_commit(preset, backend):
    assert encrypt_digest(preset, backend) \
        == pins.expected("sampler/encrypt", preset)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_decrypted_bytes_match_the_parent_commit(preset, backend):
    for case in _cases(PRESETS[preset]()):
        assert decrypt_digest(case, preset, backend) \
            == pins.expected("decrypt", case, preset), case
