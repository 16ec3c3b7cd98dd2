"""The batched key-switch pipeline: backend ops, caching, and hoisting.

The ``digit_decompose`` / ``mod_up`` / ``mod_down`` backend ops must be
bit-exact across backends, the per-level ``KeySwitchContext`` tables
must be cached, and rotations from a hoisted handle must reproduce the
sequential ``he_rotate`` path bit for bit (centered ModUp makes the
raised digits commute with automorphisms).  A switching key is built
over the CRT-idempotent gadget: its relation holds prime by prime, so a
key drawn at level k is a valid key at every level up to k, and it is
the ``max_level`` key restricted to C_k + P.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe import (CkksContext, CkksParameters, PolyContext,
                       Representation)
from repro.fhe import keys
from repro.fhe.keys import key_switch, mod_down_polys, raise_digits
from repro.fhe.poly import rotation_galois_element
from repro.fhe.rns import KeySwitchContext, digit_spans, division
from pins import PRESETS

TOY = CkksParameters.toy()


def limbs_equal(p1, p2):
    return all(np.array_equal(np.asarray(a, dtype=object),
                              np.asarray(b, dtype=object))
               for a, b in zip(p1.limbs, p2.limbs))


def ct_equal(ct1, ct2):
    return (ct1.level == ct2.level and ct1.scale == ct2.scale
            and limbs_equal(ct1.c0, ct2.c0) and limbs_equal(ct1.c1, ct2.c1))


@pytest.fixture(scope="module")
def contexts():
    return (CkksContext(TOY, seed=23, backend="reference"),
            CkksContext(TOY, seed=23, backend="stacked"))


class TestKeySwitchContext:
    def test_cache_hit_same_level(self):
        ctx = PolyContext(TOY, seed=1)
        assert ctx.backend.keyswitch_context(2) \
            is ctx.backend.keyswitch_context(2)

    def test_cache_miss_across_levels(self):
        ctx = PolyContext(TOY, seed=1)
        ks2 = ctx.backend.keyswitch_context(2)
        ks3 = ctx.backend.keyswitch_context(3)
        assert ks2 is not ks3
        assert ks2.level == 2 and ks3.level == 3
        assert ctx.backend.keyswitch_context(2) is ks2

    def test_tables_match_direct_computation(self):
        ksctx = KeySwitchContext(TOY, TOY.max_level)
        moddown = division(ksctx.extended, ksctx.num_ct)
        assert moddown.kept == ksctx.ct_moduli
        for q, p_inv in zip(ksctx.ct_moduli, moddown.scale.scalars,
                            strict=True):
            assert (p_inv * ksctx.p_prod) % q == 1

    def test_digit_spans_cover_every_limb_once(self):
        for level in range(TOY.max_level + 1):
            spans = digit_spans(level, TOY.alpha)
            covered = [i for start, stop in spans
                       for i in range(start, stop)]
            assert covered == list(range(level + 1))

    def test_modup_weights_shape_and_values(self):
        ksctx = KeySwitchContext(TOY, 3)
        for basis, weights in zip(ksctx.digit_bases, ksctx.modup_weights):
            assert weights.shape == (len(ksctx.extended), basis.size)
            for t, p in enumerate(ksctx.extended):
                assert list(weights[t]) == [hat % p
                                            for hat in basis.punctured]


class TestBackendOpsBitExact:
    """reference and stacked must produce identical key-switch integers."""

    def _poly_pair(self, seed=7, level=None):
        level = TOY.max_level if level is None else level
        moduli = TOY.moduli[:level + 1]
        ref = PolyContext(TOY, seed=seed, backend="reference")
        stk = PolyContext(TOY, seed=seed, backend="stacked")
        return (ref.random_uniform(moduli, Representation.COEFF),
                stk.random_uniform(moduli, Representation.COEFF))

    def test_digit_decompose_matches(self):
        p_ref, p_stk = self._poly_pair()
        ks_ref = p_ref.context.backend.keyswitch_context(TOY.max_level)
        ks_stk = p_stk.context.backend.keyswitch_context(TOY.max_level)
        d_ref = p_ref.context.backend.digit_decompose(p_ref.data, ks_ref)
        d_stk = p_stk.context.backend.digit_decompose(p_stk.data, ks_stk)
        for dr, ds in zip(d_ref, d_stk):
            for a, b in zip(dr, ds):
                assert np.array_equal(np.asarray(a, dtype=object),
                                      np.asarray(b, dtype=object))

    def test_raise_digits_match(self):
        p_ref, p_stk = self._poly_pair()
        ks_ref = p_ref.context.backend.keyswitch_context(TOY.max_level)
        ks_stk = p_stk.context.backend.keyswitch_context(TOY.max_level)
        for r_ref, r_stk in zip(raise_digits(p_ref.to_eval(), ks_ref),
                                raise_digits(p_stk.to_eval(), ks_stk)):
            assert r_ref.moduli == ks_ref.extended
            assert limbs_equal(r_ref, r_stk)

    def test_mod_down_matches(self):
        level = TOY.max_level
        extended = TOY.moduli[:level + 1] + TOY.special_moduli
        ref = PolyContext(TOY, seed=3, backend="reference")
        stk = PolyContext(TOY, seed=3, backend="stacked")
        p_ref = ref.random_uniform(extended, Representation.EVAL)
        p_stk = stk.random_uniform(extended, Representation.EVAL)
        (out_ref,) = mod_down_polys([p_ref],
                                    ref.backend.keyswitch_context(level))
        (out_stk,) = mod_down_polys([p_stk],
                                    stk.backend.keyswitch_context(level))
        assert limbs_equal(out_ref, out_stk)

    def test_key_switch_matches(self, contexts):
        ref, stk = contexts
        ct_ref = ref.encrypt([1.5, -2.25, 3.0])
        ct_stk = stk.encrypt([1.5, -2.25, 3.0])
        key_ref = ref.keygen.relinearization_key()
        key_stk = stk.keygen.relinearization_key()
        ks_ref = key_switch(ct_ref.c1, key_ref)
        ks_stk = key_switch(ct_stk.c1, key_stk)
        assert limbs_equal(ks_ref[0], ks_stk[0])
        assert limbs_equal(ks_ref[1], ks_stk[1])

    def test_key_switch_rejects_wrong_basis(self, contexts):
        ref, _ = contexts
        ct = ref.encrypt([1.0], level=2)
        key = ref.keygen.relinearization_key()
        # Not a prefix of the ciphertext moduli; the extended basis.
        for poly in (ct.c1.at_basis(TOY.moduli[1:3]),
                     ref.keygen.secret_key.s):
            with pytest.raises(ValueError, match="prefix"):
                key_switch(poly, key)


def _one(params, j):
    """The CRT idempotent ``1_j`` of top-level digit j, from integers."""
    start, stop = digit_spans(params.max_level, params.alpha)[j]
    q_big = math.prod(params.moduli)
    digit = math.prod(params.moduli[start:stop])
    hat = q_big // digit
    return hat * pow(hat, -1, digit) % q_big


def _key_ids(keygen) -> set[str]:
    return set(keygen._switching_keys)


def _drawn_batches(monkeypatch) -> list[tuple[list[str], int]]:
    """(ids, level) of every batch the key generators draw from here on."""
    batches = []
    draw = keys.KeyGenerator._draw_switching_keys

    def counting(self, key_ids, level):
        batches.append((list(key_ids), level))
        return draw(self, key_ids, level)

    monkeypatch.setattr(keys.KeyGenerator, "_draw_switching_keys", counting)
    return batches


def _restricted(key, level):
    """``key``'s digits live at ``level``, over C_level + P."""
    params = key.bs[0].context.params
    basis = params.moduli[:level + 1] + params.special_moduli
    digits = params.digits_at(level)
    return keys.SwitchingKey(
        bs=[b_j.at_basis(basis) for b_j in key.bs[:digits]],
        as_=[a_j.at_basis(basis) for a_j in key.as_[:digits]])


class TestTopLevelKeys:
    """One key per id; the ``max_level`` key is valid at every level."""

    @pytest.mark.parametrize("backend", ["reference", "stacked"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_the_key_relation_holds_at_every_level(self, preset, backend):
        """``b_j + a_j*s - P*1_j*s'`` over C_l + P is the key's Gaussian
        error for every level l and every digit live at l: the same
        small integers on every limb."""
        params = PRESETS[preset]()
        keygen = CkksContext(params, seed=17, backend=backend).keygen
        galois = rotation_galois_element(1, params.ring_degree)
        p_prod = math.prod(params.special_moduli)
        # One batch of two: the second key's digits are later rows of
        # the same draws.
        rotation, relin = keygen.switching_keys(["rot-1", "relin"])
        for key, target in (
                (rotation, lambda s: s.automorphism(galois)),
                (relin, lambda s: s * s)):
            assert len(key.bs) == len(key.as_) == params.dnum
            for level in range(params.max_level + 1):
                basis = params.moduli[:level + 1] + params.special_moduli
                s = keygen.secret_key.s.at_basis(basis)
                live = digit_spans(level, params.alpha)
                for j in range(len(live)):
                    b_j = key.bs[j].at_basis(basis)
                    a_j = key.as_[j].at_basis(basis)
                    gadget = target(s).scalar_mul(p_prod * _one(params, j))
                    error = (b_j + a_j * s - gadget).to_coeff()
                    rows = [np.asarray(limb, dtype=np.int64)
                            for limb in error.limbs]
                    rows = [np.where(row > q // 2, row - q, row)
                            for row, q in zip(rows, basis)]
                    assert max(int(np.abs(row).max()) for row in rows) <= 64
                    for row in rows[1:]:
                        assert np.array_equal(row, rows[0])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_one_key_decrypts_at_the_top_and_at_level_one(self, preset):
        params = PRESETS[preset]()
        ctx = CkksContext(params, seed=19)
        ev = ctx.evaluator
        z = np.random.default_rng(4).uniform(-1, 1, params.num_slots)
        for level in (params.max_level, 1):
            ct = ctx.encrypt(z, level=level)
            rotated = ctx.decrypt(ev.he_rotate(ct, 1)).real
            squared = ctx.decrypt(ev.he_square(ct)).real
            assert np.max(np.abs(rotated - np.roll(z, -1))) < 1e-4
            assert np.max(np.abs(squared - z * z)) < 1e-4
        assert _key_ids(ctx.keygen) == {"relin", "rot-1"}

    def test_no_key_is_drawn_at_a_new_level(self, monkeypatch):
        """A key asked for at or below the level it was drawn at is not
        drawn again; asked for above it, it is redrawn there, and the
        redraw agrees with the old key on every limb they share."""
        batches = _drawn_batches(monkeypatch)
        ctx = CkksContext(TOY, seed=21)
        ev, keygen = ctx.evaluator, ctx.keygen
        for level in (3, 2, 1):
            ct = ctx.encrypt([0.5, -0.25, 1.0], level=level)
            ev.he_square(ev.he_rotate(ct, 1))
        assert batches == [(["rot-1"], 3), (["relin"], 3)]
        low = keygen.rotation_key(1, 3)
        assert low.level == 3 and len(low.bs) == TOY.digits_at(3)
        high = keygen.rotation_key(1)
        assert batches[2:] == [(["rot-1"], TOY.max_level)]
        assert high.level == TOY.max_level and len(high.bs) == TOY.dnum
        assert _same_keys([_restricted(high, 3)], [low])
        assert keygen.rotation_key(1, 0) is high and len(batches) == 3


class TestLibraryModelKeyParity:
    """The keys the library holds are the keys the model names and
    prices: one per id, each ``digits_at(k)`` digits over C_k + P for
    the plan's highest key-switch level k."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scoring_builds_the_keys_its_trace_names(self, preset):
        from repro.blocksim.blocks import BlockCostModel
        from repro.serve.workloads import scoring_workload

        params = PRESETS[preset]()
        plan = scoring_workload(16).compile(params)
        ctx = CkksContext(params, seed=23)
        plan.execute(ctx, sources=[ctx.encrypt([0.5] * 16)])
        assert _key_ids(ctx.keygen) == set(plan.schedule.key_ids)
        level = max(plan.trace.ops[i].level
                    for i in plan.schedule.keyswitch_ops)
        assert level == {"toy": 2, "pw54": 1}[preset]
        limbs = level + 1 + params.num_special_limbs
        model = BlockCostModel(params).switching_key_bytes(level)
        for key in ctx.keygen._switching_keys.values():
            assert key.level == level
            assert len(key.bs) == len(key.as_) == params.digits_at(level)
            assert all(poly.num_limbs == limbs for poly in key.bs + key.as_)
            assert len(key.bs) * 2 * limbs * params.limb_bytes() == model
        assert params.switching_key_bytes() \
            == params.dnum * 2 * (params.num_limbs
                                  + params.num_special_limbs) \
            * params.limb_bytes()


class _CountingRng:
    """A generator that notes each call's name and ``size``."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append((name, kwargs.get("size")))
            return method(*args, **kwargs)

        return counted


def _key_bits(key) -> list[np.ndarray]:
    return [limb for poly in key.bs + key.as_ for limb in poly.limbs]


def _same_keys(first, second) -> bool:
    return all(len(_key_bits(a)) == len(_key_bits(b))
               and all(np.array_equal(x, y)
                       for x, y in zip(_key_bits(a), _key_bits(b)))
               for a, b in zip(first, second, strict=True))


_IDS = ("conj", "relin", "rot-1", "rot-3", "rot-12")
_TOP_KEYS: dict[tuple[str, str], dict] = {}


def _top_keys(preset, backend):
    """Every id of ``_IDS`` drawn at ``max_level`` in one batch, seed 41."""
    if (preset, backend) not in _TOP_KEYS:
        keygen = CkksContext(PRESETS[preset](), seed=41,
                             backend=backend).keygen
        _TOP_KEYS[preset, backend] = dict(zip(
            _IDS, keygen.switching_keys(_IDS)))
    return _TOP_KEYS[preset, backend]


class TestKeyStreams:
    """A key is a function of (seed, id) alone: drawn at any level, in
    any batch, in any order, after any other draw of the context, it is
    the ``max_level`` key restricted to C_level + P, bit for bit."""

    @pytest.mark.parametrize("backend", ["reference", "stacked"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_key_is_the_top_key_restricted(self, preset, backend, data):
        params = PRESETS[preset]()
        top = _top_keys(preset, backend)
        level = data.draw(st.integers(0, params.max_level), label="level")
        order = data.draw(st.permutations(_IDS), label="order")
        split = data.draw(st.integers(0, len(_IDS)), label="split")
        ctx = CkksContext(params, seed=41, backend=backend)
        if data.draw(st.booleans(), label="encrypt first"):
            ctx.encrypt([0.25, -0.5])
        got = {}
        for batch in (order[:split], order[split:]):
            got.update(zip(batch, ctx.keygen.switching_keys(batch, level)))
        for key_id in _IDS:
            assert got[key_id].level == level
            assert _same_keys([got[key_id]],
                              [_restricted(top[key_id], level)])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_level_on_both_backends(self, preset):
        """Level by level, one batch each, the two backends draw the
        same bits, and each key is the top key restricted."""
        params = PRESETS[preset]()
        top = _top_keys(preset, "reference")
        for level in range(params.max_level + 1):
            drawn = [CkksContext(params, seed=41, backend=backend)
                     .keygen.switching_keys(_IDS[::-1], level)
                     for backend in ("reference", "stacked")]
            want = [_restricted(top[key_id], level) for key_id in _IDS[::-1]]
            assert _same_keys(drawn[0], want)
            assert _same_keys(drawn[1], want)

    def test_the_seed_names_the_keys(self):
        first, second = (CkksContext(TOY, seed=seed).keygen
                         .relinearization_key(2) for seed in (41, 42))
        assert not _same_keys([first], [second])

    @pytest.mark.parametrize("level", [-1, TOY.max_level + 1])
    def test_a_level_outside_the_chain_is_refused(self, level):
        keygen = CkksContext(TOY, seed=5).keygen
        with pytest.raises(ValueError, match="levels 0 .. 5"):
            keygen.switching_keys(["relin"], level)
        assert not keygen._switching_keys

    @pytest.mark.parametrize("held, level", [(1, 3), (4, 5)])
    def test_a_key_below_the_switch_level_is_refused(self, held, level):
        """Fewer digits (1 -> 3) or the same digits over fewer limbs
        (4 -> 5): either way the key cannot switch there."""
        ctx = CkksContext(TOY, seed=5)
        low = ctx.keygen.relinearization_key(held)
        ct = ctx.encrypt([1.0], level=level)
        with pytest.raises(ValueError, match=f"drawn at level {held} "
                           f"cannot switch at level {level}"):
            key_switch(ct.c1, low)


class TestKeyBatch:
    """A plan's switching keys are one batch: drawn together the first
    time it runs on a context, a function of the id set alone."""

    def test_a_plan_draws_its_keys_in_one_batch(self, monkeypatch):
        """Width-16 scoring at ``toy`` switches keys at level 2 alone,
        in its two rotation groups (the square is left unrelinearized):
        one batch of 6 keys of ``digits_at(2) = 1`` digit over C_2 + P
        (3 + 4 = 7 limbs), one stream per (id, digit) — N Gaussian
        coefficients, then one bounded draw per limb — and one forward
        transform of 7 rows per digit's error; the context's shared
        generator draws nothing, and a second execute draws nothing.

        The plan is recorded without running (``ServedWorkload.compile``
        traces symbolically), so its one payload is first prepared by
        the first execute in the process: one more forward transform,
        of the entry level's 3 + 1 = 4 rows.  A second context's first
        execute adds only its own six key transforms: a payload is
        prepared once per process, keys once per tenant."""
        from repro.serve.workloads import scoring_workload

        plan = scoring_workload(16).compile(TOY)
        ctx, other = CkksContext(TOY, seed=23), CkksContext(TOY, seed=29)
        ct, other_ct = ctx.encrypt([0.5] * 16), other.encrypt([0.5] * 16)
        batches = _drawn_batches(monkeypatch)
        rng = ctx.keygen.context.rng = _CountingRng(ctx.keygen.context.rng)
        streams: dict[tuple[str, int], _CountingRng] = {}
        stream = keys.KeyGenerator._stream

        def counting_stream(self, key_id, digit):
            counted = streams[key_id, digit] = \
                _CountingRng(stream(self, key_id, digit))
            return counted

        monkeypatch.setattr(keys.KeyGenerator, "_stream", counting_stream)
        rows: list[int] = []

        def count_forward(backend):
            forward = backend.ntt_forward

            def counting_forward(data, moduli):
                rows.append(len(moduli))
                return forward(data, moduli)

            monkeypatch.setattr(backend, "ntt_forward", counting_forward)

        count_forward(ctx.keygen.context.backend)
        count_forward(other.keygen.context.backend)
        plan.execute(ctx, sources=[ct])
        cold, rows[:] = rows[:], []
        plan.execute(ctx, sources=[ct])
        warm, rows[:] = rows[:], []
        ids, basis, n = list(plan.schedule.key_ids), 3 + 4, TOY.ring_degree
        assert len(ids) == 6 and TOY.num_special_limbs == 4
        assert batches == [(ids, 2)]
        assert list(streams) == [(key_id, 0) for key_id in ids]
        for counted in streams.values():
            assert counted.calls == [("normal", n)] + [("integers", n)] * basis
        assert rng.calls == []
        assert plan.schedule.entry_level == 3 and len(plan.trace.payloads) == 1
        assert sorted(cold) == sorted(warm + [basis] * len(ids) + [3 + 1])
        plan.execute(other, sources=[other_ct])
        assert batches == [(ids, 2)] * 2
        assert sorted(rows) == sorted(warm + [basis] * len(ids))

    def test_keys_are_a_function_of_the_id_set(self):
        """Order, repeats and a rotation's representative do not move a
        bit; the keys come back in the order asked for."""
        ids = ["rot-3", "relin", "conj", "rot-1"]
        asked = ["conj", f"rot-{TOY.num_slots + 1}", "relin", "rot-3",
                 "rot-1", "conj"]
        first = CkksContext(TOY, seed=5).keygen
        second = CkksContext(TOY, seed=5).keygen
        keys_by_id = dict(zip(ids, first.switching_keys(ids)))
        got = second.switching_keys(asked)
        assert got[0] is got[5] and got[1] is got[4]
        assert _same_keys([keys_by_id[i] for i in
                           ("conj", "rot-1", "relin", "rot-3")], got[:4])
        assert _key_ids(second) == set(ids)

    def test_one_batch_is_bit_identical_across_backends(self):
        ids = ["relin", "rot-1", "rot-4", "conj"]
        ref = CkksContext(TOY, seed=29, backend="reference").keygen
        stk = CkksContext(TOY, seed=29, backend="stacked").keygen
        assert _same_keys(ref.switching_keys(ids), stk.switching_keys(ids))

    @pytest.mark.parametrize("key_id", ["rot-", "rot-x", "rotate-1", ""])
    def test_an_unknown_id_is_refused(self, key_id):
        keygen = CkksContext(TOY, seed=5).keygen
        with pytest.raises(ValueError, match="names no switching key"):
            keygen.switching_keys([key_id])
        assert not keygen._switching_keys


class TestWideDigitFallback:
    """A 16-limb digit at the 30-bit word: its row sums (16 * 2**29 *
    2**30 >= 2**63) once sent the stacked backend to a per-term sweep.
    The split-word matmul has no such bound — there is no fallback left
    to take — and stays bit-exact with reference."""

    def test_wide_digit_keyswitch_matches(self):
        params = CkksParameters._build(ring_degree=1 << 8, scale_bits=29,
                                       prime_bits=30, max_level=15, dnum=1,
                                       boot_levels=4, fft_iterations=2)
        assert params.alpha == 16
        ref = CkksContext(params, seed=41, backend="reference")
        stk = CkksContext(params, seed=41, backend="stacked")
        ksctx = stk.keygen.context.backend.keyswitch_context(
            params.max_level)
        assert ksctx.modup_matmul.width == 16
        ct_ref = ref.encrypt([1.0, -2.0])
        ct_stk = stk.encrypt([1.0, -2.0])
        out_ref = ref.evaluator.he_rotate(ct_ref, 3)
        out_stk = stk.evaluator.he_rotate(ct_stk, 3)
        assert ct_equal(out_ref, out_stk)


class TestBigWordKeySwitch:
    """Cross-backend bit-exactness at the paper's 54-bit word (every
    modulus >= 2**31: the double-word native ModUp/ModDown paths)."""

    PARAMS_54 = CkksParameters._build(ring_degree=1 << 6, scale_bits=50,
                                      prime_bits=54, max_level=3,
                                      boot_levels=2, dnum=2,
                                      fft_iterations=1)

    def test_keyswitch_and_rotation_match(self):
        ref = CkksContext(self.PARAMS_54, seed=5, backend="reference")
        stk = CkksContext(self.PARAMS_54, seed=5, backend="stacked")
        m_ref = ref.evaluator.he_mult(ref.encrypt([1.5, -2.0]),
                                      ref.encrypt([0.5, 3.0]))
        m_stk = stk.evaluator.he_mult(stk.encrypt([1.5, -2.0]),
                                      stk.encrypt([0.5, 3.0]))
        assert ct_equal(m_ref, m_stk)
        r_ref = ref.evaluator.he_rotate(ref.encrypt([1.0, 2.0, 3.0]), 1)
        r_stk = stk.evaluator.he_rotate(stk.encrypt([1.0, 2.0, 3.0]), 1)
        assert ct_equal(r_ref, r_stk)

    def test_hoisted_matches_sequential(self):
        stk = CkksContext(self.PARAMS_54, seed=7, backend="stacked")
        ev = stk.evaluator
        ct = stk.encrypt([1.0, -0.5, 2.0])
        out = ev.hoisted_rotations(ct, [1, 2])
        for r in (1, 2):
            assert ct_equal(out[r], ev.he_rotate(ct, r))


class TestModUpOvershoot:
    def test_raised_digit_is_x_plus_small_multiple_of_digit_modulus(self):
        """ModUp output = digit + e*Q_j mod p with |e| <= digit size / 2."""
        ctx = PolyContext(TOY, seed=13, backend="reference")
        level = TOY.max_level
        ksctx = ctx.backend.keyswitch_context(level)
        poly = ctx.random_uniform(ksctx.ct_moduli, Representation.COEFF)
        digits = ctx.backend.digit_decompose(poly.data, ksctx)
        for j, digit in enumerate(digits):
            basis = ksctx.digit_bases[j]
            raised = ctx.backend.mod_up(digit, j, ksctx)
            # Exact digit value, centered, from its residues.
            centered = basis.compose_centered_vec(list(digit))
            half = (basis.size + 1) // 2
            for t, p in enumerate(ksctx.extended):
                got = np.asarray(raised[t], dtype=object)
                for i in range(0, len(got), 37):
                    candidates = {
                        (int(centered[i]) + e * basis.big_modulus) % p
                        for e in range(-half, half + 1)}
                    assert int(got[i]) % p in candidates


class TestHoistedRotations:
    @pytest.mark.parametrize("backend", ["reference", "stacked"])
    def test_bit_exact_with_sequential(self, backend):
        ctx = CkksContext(TOY, seed=31, backend=backend)
        ev = ctx.evaluator
        ct = ctx.encrypt([1.0, -2.0, 3.5, 0.25])
        rotations = [1, 2, 7, 130]
        hoisted = ev.hoisted_rotations(ct, rotations)
        for r in rotations:
            assert ct_equal(hoisted[r], ev.he_rotate(ct, r))

    def test_rotation_zero_returns_copy(self, contexts):
        _, stk = contexts
        ct = stk.encrypt([1.0, 2.0])
        out = stk.evaluator.hoisted_rotations(ct, [0])
        assert set(out) == {0}
        assert ct_equal(out[0], ct)
        assert out[0] is not ct

    def test_rotations_normalized_modulo_slots(self, contexts):
        _, stk = contexts
        ev = stk.evaluator
        ct = stk.encrypt([1.0, 2.0, 3.0])
        n = TOY.ring_degree // 2
        out = ev.hoisted_rotations(ct, [1, n + 1, 2])
        assert set(out) == {1, 2}
        assert ct_equal(out[1], ev.he_rotate(ct, 1))

    def test_conjugate_hoisted_matches_sequential(self, contexts):
        for ctx in contexts:
            ev = ctx.evaluator
            ct = ctx.encrypt([0.5 + 0.25j, -1.0 - 2.0j])
            hoisted = ev._hoist(ct)
            assert ct_equal(ev._galois(ct, None, hoisted),
                            ev.he_conjugate(ct))

    def test_hoisted_handle_reusable_across_galois(self, contexts):
        """One hoist serves rotations and the conjugation (bootstrap use)."""
        _, stk = contexts
        ev = stk.evaluator
        ct = stk.encrypt([1.0, 2.0, 3.0, 4.0])
        hoisted = ev._hoist(ct)
        assert ct_equal(ev._galois(ct, 3, hoisted), ev.he_rotate(ct, 3))
        assert ct_equal(ev._galois(ct, None, hoisted), ev.he_conjugate(ct))
        assert ct_equal(ev._galois(ct, 5, hoisted), ev.he_rotate(ct, 5))

    def test_decrypted_rotation_is_correct(self, contexts):
        for ctx in contexts:
            values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
            ct = ctx.encrypt(values)
            out = ctx.evaluator.hoisted_rotations(ct, [2])
            got = ctx.decrypt(out[2])[:3].real
            assert np.max(np.abs(got - values[2:5])) < 1e-4


class TestLinearTransformHoisting:
    def test_apply_hoists_its_baby_steps_once(self, contexts, monkeypatch):
        """The baby steps are one ``hoisted_rotations`` batch: one raise
        of c1, and the result of rotating them one by one."""
        from repro.fhe.linear import LinearTransform
        _, stk = contexts
        ev = stk.evaluator
        n = TOY.ring_degree // 2
        rng = np.random.default_rng(5)
        matrix = np.zeros((n, n))
        idx = np.arange(n)
        for k in (0, 1, 3, 17):
            matrix[idx, (idx + k) % n] = rng.normal(size=n) * 0.1
        transform = LinearTransform(ev, matrix)
        ct = stk.encrypt(rng.normal(size=n) * 0.1)
        raises = []
        monkeypatch.setattr(ev, "_hoist", lambda c: raises.append(c)
                            or type(ev)._hoist(ev, c))
        hoisted = transform.apply(ct)
        assert raises == [ct]
        monkeypatch.setattr(ev, "hoisted_rotations", lambda c, rotations: {
            r: ev.he_rotate(c, r) for r in rotations})
        assert ct_equal(hoisted, transform.apply(ct))
        assert raises == [ct]
