"""The pin table, and what moves it.

``tests/pins.json`` holds exactly the pins the pin modules register,
in the recorder's layout.  Arithmetic pins take their keys and
encryptions from the sampler-free fixture (``pins.fixture``): with every
library sampler perturbed — ``CkksContext``'s seed, ``PolyContext``'s
uniform, ternary and Gaussian draws, ``KeyGenerator``'s key streams —
they still match, and every ``sampler/...`` pin moves.
"""

import pytest

import pins
from repro.fhe import CkksContext
from repro.fhe.keys import KeyGenerator
from repro.fhe.poly import PolyContext

SAMPLER = sorted(pin for pin in pins.table() if pin.startswith("sampler/"))

#: A scoring replay at both tiers, one routed program, one decrypt edge.
ARITHMETIC = ("arithmetic/scoring/toy", "arithmetic/scoring/pw54",
              "replay/scoring/toy", "replay/scoring/pw54",
              "routed/polynomial/toy", "decrypt/fresh_l3/pw54")


def test_the_table_holds_exactly_the_registered_pins():
    assert sorted(pins.load()) == sorted(pins.table())


def test_the_table_is_laid_out_as_the_recorder_writes_it():
    assert pins.PATH.read_text(encoding="utf-8") == pins.render(pins.table())


def test_the_sampler_pins_are_the_key_and_encrypt_digests():
    assert SAMPLER == sorted(
        [f"sampler/{kind}_key/{preset}" for kind in ("rotation", "conjugation")
         for preset in ("toy", "pw54")]
        + [f"sampler/encrypt/{preset}" for preset in ("toy", "pw54", "test")])


@pytest.fixture
def perturbed(monkeypatch):
    """Every library sampler draws something else."""
    init = CkksContext.__init__
    uniform = PolyContext.random_uniform
    ternary = PolyContext.random_ternary
    gaussian = PolyContext.gaussian_coeffs
    stream = KeyGenerator._stream

    def context(self, params, seed=2023, *args, **kwargs):
        init(self, params, None if seed is None else seed + 1, *args,
             **kwargs)

    def shifted(self, moduli, *args):
        poly = uniform(self, moduli, *args)
        return poly.scalar_add_per_limb([1] * len(poly.moduli))

    monkeypatch.setattr(CkksContext, "__init__", context)
    monkeypatch.setattr(PolyContext, "random_uniform", shifted)
    monkeypatch.setattr(PolyContext, "random_ternary",
                        lambda self, *args: -ternary(self, *args))
    monkeypatch.setattr(PolyContext, "gaussian_coeffs",
                        lambda self, sigma=3.2, rng=None:
                        gaussian(self, sigma + 1.0, rng))
    monkeypatch.setattr(KeyGenerator, "_stream",
                        lambda self, key_id, digit:
                        stream(self, key_id, digit + 1000))


@pytest.mark.parametrize("pin", ARITHMETIC)
def test_an_arithmetic_pin_holds_under_other_samplers(perturbed, pin):
    assert pins.compute(pin) == pins.table()[pin]


@pytest.mark.parametrize("pin", SAMPLER)
def test_a_sampler_pin_moves_with_its_sampler(perturbed, pin):
    assert pins.compute(pin) != pins.table()[pin]
