"""Tests for the CKKS bootstrapping pipeline.

The full end-to-end bootstrap is the most expensive functional test in the
suite (about 2.5 s a bootstrap on ``stacked``); individual stages are
tested separately and cheaply.
"""

import numpy as np
import pytest

from repro.fhe import CkksContext, keys
from repro.fhe.bootstrap import BootstrapConfig, Bootstrapper


@pytest.fixture(scope="module")
def boot_ctx():
    return CkksContext.bootstrappable(seed=31)


@pytest.fixture(scope="module")
def bootstrapper(boot_ctx):
    return Bootstrapper(boot_ctx.params, boot_ctx.keygen, boot_ctx.encoder,
                        boot_ctx.evaluator)


class TestStages:
    def test_mod_raise_preserves_message_mod_q0(self, boot_ctx,
                                                bootstrapper):
        """After ModRaise the message is m + q0*I: reducing the decryption
        mod q0 must recover the original level-0 residues."""
        rng = np.random.default_rng(0)
        n = boot_ctx.params.num_slots
        z = rng.uniform(-0.05, 0.05, n)
        ct = boot_ctx.encrypt(z, level=0)
        raised = bootstrapper.mod_raise(ct)
        assert raised.level == boot_ctx.params.max_level
        q0 = boot_ctx.params.moduli[0]
        coeffs = boot_ctx.decryptor.decrypt_to_coeffs(raised)
        original = boot_ctx.decryptor.decrypt_to_coeffs(ct)
        for c_raised, c_orig in zip(coeffs[:64], original[:64]):
            assert (c_raised - c_orig) % q0 == 0

    def test_mod_raise_requires_level_zero(self, boot_ctx, bootstrapper):
        ct = boot_ctx.encrypt([0.01], level=1)
        with pytest.raises(ValueError):
            bootstrapper.mod_raise(ct)

    def test_mod_raise_integer_part_bounded(self, boot_ctx, bootstrapper):
        """|I| <= (1 + h)/2 for the sparse secret: validates the K bound."""
        rng = np.random.default_rng(1)
        n = boot_ctx.params.num_slots
        z = rng.uniform(-0.05, 0.05, n)
        ct = boot_ctx.encrypt(z, level=0)
        raised = bootstrapper.mod_raise(ct)
        q0 = boot_ctx.params.moduli[0]
        coeffs = boot_ctx.decryptor.decrypt_to_coeffs(raised)
        bound = bootstrapper.config.k_range
        for c in coeffs:
            assert abs(c) / q0 <= bound, "raised coeff exceeds K*q0"

    def test_chebyshev_coefficients_accurate(self, bootstrapper):
        """The plaintext Chebyshev model must approximate the target cos."""
        cfg = bootstrapper.config
        coeffs = bootstrapper._chebyshev_coeffs()
        k_prime = cfg.k_range + cfg.margin
        ys = np.linspace(-1, 1, 500)
        target = np.cos(2 * np.pi * (k_prime * ys - 0.25)
                        / (1 << cfg.double_angles))
        approx = np.polynomial.chebyshev.chebval(ys, coeffs)
        assert np.max(np.abs(approx - target)) < 1e-6

    def test_double_angle_identity_plaintext(self):
        """cos(2x) = 2cos(x)^2 - 1 chain recovers sin(2 pi t)."""
        cfg = BootstrapConfig()
        k_prime = cfg.k_range + cfg.margin
        t = np.linspace(-cfg.k_range, cfg.k_range, 1000)
        h = np.cos(2 * np.pi * (t - 0.25) / (1 << cfg.double_angles))
        for _ in range(cfg.double_angles):
            h = 2 * h * h - 1
        assert np.max(np.abs(h - np.sin(2 * np.pi * t))) < 1e-9


@pytest.mark.slow
class TestEndToEnd:
    """Full bootstrap pipeline: about 6 s on the ``stacked`` backend;
    excluded from the fast CI lane."""

    def test_one_bootstrap_builds_one_key_per_id(self, monkeypatch):
        """A key is drawn at the level it is first asked for and serves
        every level below it; the bootstrap asks for each id at its
        highest level first, so none is drawn twice: 46 ids, 46 keys
        (99 while keys were drawn per level)."""
        drawn = []
        draw = keys.KeyGenerator._draw_switching_keys

        def counting(self, key_ids, level):
            drawn.extend(key_ids)
            return draw(self, key_ids, level)

        monkeypatch.setattr(keys.KeyGenerator, "_draw_switching_keys",
                            counting)
        ctx = CkksContext.bootstrappable(seed=31)
        ctx.bootstrapper().bootstrap(ctx.encrypt([0.01], level=1))
        assert len(drawn) == len(ctx.keygen._switching_keys) == 46

    def test_full_bootstrap_refreshes_level(self, boot_ctx, bootstrapper):
        rng = np.random.default_rng(2)
        n = boot_ctx.params.num_slots
        z = rng.uniform(-0.05, 0.05, n) + 1j * rng.uniform(-0.05, 0.05, n)
        ct = boot_ctx.encrypt(z, level=1)
        out = bootstrapper.bootstrap(ct)
        assert out.level > ct.level, "bootstrap must gain levels"
        decoded = boot_ctx.decrypt(out)
        err = np.max(np.abs(decoded - z))
        # Noise floor of the 30-bit test parameters (see bootstrap.py).
        assert err < 5e-2, f"bootstrap error too large: {err}"

    def test_bootstrap_then_compute(self, boot_ctx, bootstrapper):
        """Refreshed ciphertexts must support further multiplication."""
        n = boot_ctx.params.num_slots
        z = np.full(n, 0.04)
        ct = boot_ctx.encrypt(z, level=1)
        out = bootstrapper.bootstrap(ct)
        assert out.level >= 1
        sq = boot_ctx.evaluator.he_square(out)
        decoded = boot_ctx.decrypt(sq)
        assert np.max(np.abs(decoded.real - 0.04 ** 2)) < 5e-2

    def test_wrong_scale_at_level_zero_rejected(self, boot_ctx,
                                                bootstrapper):
        ct = boot_ctx.encrypt([0.01], level=0,
                              scale=boot_ctx.params.scale * 4)
        with pytest.raises(ValueError):
            bootstrapper.bootstrap(ct)
