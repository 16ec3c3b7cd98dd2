"""Per-code unit tests: each defect class fires exactly its HE0xx code.

Every test hand-builds a minimal synthetic :class:`OpTrace` containing
one defect and asserts ``lint_trace`` reports *exactly* the expected
code (``report.codes() == {code: n}``) — no collateral findings, no
misses.  Clean traces must lint empty.  The declared-chain cases compile
a program instead, so what they lint is what the recorder writes.
"""

import pytest

from repro import engine
from repro.analysis import CODES, Severity, lint_trace, op_mix
from repro.analysis.checks import (check_structure, check_windows,
                                   live_op_ids)
from repro.analysis.diagnostics import Diagnostic, make
from repro.fhe.params import CkksParameters
from repro.trace import SymbolicEvaluator, TracingEvaluator
from repro.trace.ir import OpKind, OpTrace, TraceOp
from repro.trace.ops import galois_groups

TOY = CkksParameters.toy()  # max_level 5, scale_bits 29, num_slots 512
DELTA = 2.0 ** TOY.scale_bits


def _trace(params=TOY, name="synthetic"):
    return OpTrace(params=params, name=name)


def _add(trace, kind, inputs=(), level=4, out_level=None,
         out_scale=DELTA, key=None, meta=None):
    """Append one op with a dense id; returns the op id."""
    op = TraceOp(op_id=len(trace.ops), kind=kind, inputs=tuple(inputs),
                 level=level,
                 out_level=level if out_level is None else out_level,
                 out_scale=out_scale, key=key, meta=dict(meta or {}))
    trace.append(op)
    return op.op_id


def _mult_meta(level, params=TOY):
    """Correct hybrid-decomposition meta for a key switch at ``level``."""
    return {"digits": -(-(level + 1) // params.alpha),
            "dnum": params.dnum}


def _codes(trace, **kwargs):
    return lint_trace(trace, **kwargs).codes()


class TestCleanTraces:
    def test_well_formed_chain_lints_empty(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        prod = _add(t, OpKind.HE_MULT, [src, src], level=4,
                    out_scale=DELTA * DELTA, key="relin",
                    meta=_mult_meta(4))
        _add(t, OpKind.RESCALE, [prod], level=4, out_level=3,
             out_scale=DELTA)
        assert _codes(t) == {}

    def test_empty_trace_lints_empty(self):
        assert _codes(_trace()) == {}


class TestLevelChecks:
    def test_he001_rescale_at_level_zero(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=0)
        _add(t, OpKind.RESCALE, [src], level=0)
        assert _codes(t) == {"HE001": 1}

    def test_he001_negative_level(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=1)
        _add(t, OpKind.RESCALE, [src], level=1, out_level=0)
        _add(t, OpKind.RESCALE, [1], level=0, out_level=-1)
        assert _codes(t) == {"HE001": 1}

    def test_he002_out_level_breaks_kind_rule(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=3)
        _add(t, OpKind.HE_ADD, [src, src], level=3, out_level=2)
        assert _codes(t) == {"HE002": 1}

    def test_he002_operating_level_disagrees_with_operands(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=3)
        _add(t, OpKind.HE_ADD, [src, src], level=2, out_level=2)
        assert _codes(t) == {"HE002": 1}

    def test_he003_level_exceeds_parameter_chain(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=TOY.max_level + 2)
        assert _codes(t) == {"HE003": 1}


class TestScaleChecks:
    def test_he010_missing_rescale_overflows_modulus(self):
        t = _trace()
        a = _add(t, OpKind.SOURCE, level=2, out_scale=2.0 ** 58)
        b = _add(t, OpKind.SOURCE, level=2, out_scale=2.0 ** 58)
        _add(t, OpKind.HE_MULT, [a, b], level=2,
             out_scale=2.0 ** 116, key="relin", meta=_mult_meta(2))
        assert _codes(t) == {"HE010": 1}

    def test_he011_addition_pairs_mismatched_scales(self):
        t = _trace()
        a = _add(t, OpKind.SOURCE, level=3, out_scale=2.0 ** 29)
        b = _add(t, OpKind.SOURCE, level=3, out_scale=2.0 ** 50)
        _add(t, OpKind.HE_ADD, [a, b], level=3, out_scale=2.0 ** 50)
        assert _codes(t) == {"HE011": 1}

    def test_a_strict_clean_plan_cannot_fail_its_replay(self):
        """HE011 is the evaluators' own scale rule: an add of Delta and
        Delta^2 / q_3 (a drift of 1e-4) is refused at compile with the
        real evaluator's message, and its recorded trace lints HE011."""
        def drift(ev):
            x = ev.fresh(level=3)
            return ev.he_add(ev.mod_drop(x, 1), ev.he_square(x))

        with pytest.raises(ValueError, match=r"^scale mismatch: "
                           r"5\.36871e\+08 vs 5\.36818e\+08; rescale or "
                           r"re-encode first$"):
            engine.compile(drift, TOY, name="drift")
        recorder = TracingEvaluator(SymbolicEvaluator(TOY))
        x = recorder.fresh(level=3)
        dropped = recorder.mod_drop(x, 1)
        squared = recorder.he_square(x)
        t = recorder.trace
        t.output_op_id = _add(
            t, OpKind.HE_ADD, [recorder.producer_of(dropped),
                               recorder.producer_of(squared)],
            level=2, out_scale=max(dropped.scale, squared.scale))
        assert _codes(t) == {"HE011": 1}

    def test_he030_scale_below_noise_floor(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=1, out_scale=2.0 ** 5)
        assert _codes(t) == {"HE030": 1}

    @pytest.mark.parametrize("level, codes",
                             [(0, {"HE031": 1}), (1, {})])
    def test_he031_result_bound_needs_headroom_under_q(self, level, codes):
        """2^29 scale x a 2^7.1 bound + 2 bits overflows q_0 ~ 2^31, not
        q_0 q_1 ~ 2^60."""
        t = _trace()
        _add(t, OpKind.SOURCE, level=level,
             meta={"result_bound": 11.75 ** 2})
        assert _codes(t) == codes

    def test_he110_rescale_drift_warns(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=3, out_scale=2.0 ** 36)
        _add(t, OpKind.RESCALE, [src], level=3, out_level=2,
             out_scale=2.0 ** 36)
        assert _codes(t) == {"HE110": 1}

    def test_declared_rescale_opt_out_suppresses_scale_findings(self):
        """rescale=False is a declaration, not a defect (catalog idiom)."""
        t = _trace()
        a = _add(t, OpKind.SOURCE, level=2, out_scale=2.0 ** 58)
        _add(t, OpKind.HE_MULT, [a, a], level=2, out_scale=2.0 ** 116,
             key="relin", meta={**_mult_meta(2), "rescaled": False})
        assert _codes(t) == {}

    @pytest.mark.parametrize("mixed", [False, True],
                             ids=["alone", "beside-a-rescaled-product"])
    def test_a_declared_chain_lints_clean_whatever_else_rescales(self,
                                                                 mixed):
        """Three declared ``rescale=False`` squares overflow q unmanaged;
        a ``rescale=True`` product elsewhere in the program leaves their
        declarations standing."""
        def program(ev):
            ct = ev.fresh(level=4)
            for _ in range(3):
                ct = ev.he_square(ct, rescale=False)
            if mixed:
                ct = ev.he_add(ct, ev.he_square(ev.fresh(level=4),
                                                rescale=True))
            return ct

        plan = engine.compile(program, TOY, name=f"declared-{mixed}")
        assert plan.lint().codes() == {}

    def test_taint_propagates_and_clears_at_managed_rescale(self):
        t = _trace()
        a = _add(t, OpKind.SOURCE, level=3, out_scale=2.0 ** 58)
        unmanaged = _add(t, OpKind.HE_MULT, [a, a], level=3,
                         out_scale=2.0 ** 116, key="relin",
                         meta={**_mult_meta(3), "rescaled": False})
        # tainted flow: no finding even at an overflowing scale
        huge = _add(t, OpKind.HE_ADD, [unmanaged, unmanaged], level=3,
                    out_scale=2.0 ** 200)
        # a rescale landing back at Delta puts the value under management
        back = _add(t, OpKind.RESCALE, [huge], level=3, out_level=2,
                    out_scale=DELTA)
        # ... after which defects are caught again
        _add(t, OpKind.SCALAR_MULT, [back], level=2,
             out_scale=2.0 ** 116, key=None, meta={"value": 0.5})
        assert _codes(t) == {"HE010": 1}


class TestKeyChecks:
    def test_he020_rotation_amount_has_no_key(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ROTATE, [src], level=4,
             key=f"rot-{TOY.num_slots + 88}",
             meta={"rotation": TOY.num_slots + 88})
        assert _codes(t) == {"HE020": 1}

    def test_he020_malformed_key_id(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ROTATE, [src], level=4, key="rot-abc",
             meta={"rotation": 1})
        assert _codes(t) == {"HE020": 1}

    def test_he020_key_disagrees_with_recorded_rotation(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ROTATE, [src], level=4, key="rot-2",
             meta={"rotation": 3})
        assert _codes(t) == {"HE020": 1}

    def test_he020_multiply_names_non_relin_key(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_MULT, [src, src], level=4,
             out_scale=DELTA * DELTA, key="bogus", meta=_mult_meta(4))
        assert _codes(t) == {"HE020": 1}

    def test_he020_key_outside_available_set(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ROTATE, [src], level=4, key="rot-4",
             meta={"rotation": 4})
        assert _codes(t, available_keys=["relin", "conj"]) == {"HE020": 1}
        assert _codes(t, available_keys=["rot-4"]) == {}

    def test_he021_digit_count_disagrees_with_level(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_MULT, [src, src], level=4,
             out_scale=DELTA * DELTA, key="relin",
             meta={"digits": 5, "dnum": TOY.dnum})
        assert _codes(t) == {"HE021": 1}

    def test_he021_dnum_disagrees_with_params(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_MULT, [src, src], level=4,
             out_scale=DELTA * DELTA, key="relin",
             meta={"digits": _mult_meta(4)["digits"],
                   "dnum": TOY.dnum + 1})
        assert _codes(t) == {"HE021": 1}

    def test_he022_keyswitch_without_key_id(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ROTATE, [src], level=4, key=None,
             meta={"rotation": 1})
        assert _codes(t) == {"HE022": 1}


class TestRotationGroupKeys:
    """A ``rotate_add`` op names one ``rot-<amount>`` key per entry of
    ``meta["rotations"]``, joined by ``,``; every amount is checked."""

    def _group(self, rotations, key="recorded"):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.ROTATE_ADD, [src], level=4,
             key=",".join(f"rot-{r}" for r in rotations)
             if key == "recorded" else key,
             meta={"rotations": list(rotations), **_mult_meta(4)})
        return t

    def test_a_well_formed_group_is_silent(self):
        assert _codes(self._group([1, 2, 3])) == {}
        assert _codes(self._group([4, 8, 12]),
                      available_keys=["rot-4", "rot-8", "rot-12"]) == {}

    @pytest.mark.parametrize("rotations", [[1, 0, 3],
                                           [1, TOY.num_slots + 2], []],
                             ids=["zero", "past-num-slots", "empty"])
    def test_he020_any_amount_without_a_key(self, rotations):
        assert _codes(self._group(rotations)) == {"HE020": 1}

    def test_he020_key_disagrees_with_the_recorded_group(self):
        t = self._group([1, 2, 3], key="rot-1,rot-2,rot-4")
        assert _codes(t) == {"HE020": 1}

    def test_he020_one_key_outside_the_available_set(self):
        t = self._group([1, 2, 3])
        assert _codes(t, available_keys=["rot-1", "rot-2"]) == {"HE020": 1}

    def test_he022_group_without_key_ids(self):
        t = self._group([1, 2], key=None)
        assert _codes(t) == {"HE022": 1}

    @pytest.mark.parametrize("rotations", [3], ids=["scalar"])
    def test_he050_a_group_that_is_not_a_non_empty_list(self, rotations):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.ROTATE_ADD, [src], level=4, key="rot-3",
             meta={"rotations": rotations, **_mult_meta(4)})
        assert _codes(t) == {"HE050": 1}


class TestUnrelinearizedProducts:
    """A product recorded with ``meta["relinearized"] = False`` switches
    no key and is a degree-2 value, as is every rescale of one: only a
    rescale may read it (HE023), the evaluators' own rule."""

    def _square(self, key=None):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        prod = _add(t, OpKind.HE_SQUARE, [src], level=4,
                    out_scale=DELTA * DELTA, key=key,
                    meta={"relinearized": False})
        return t, prod

    def test_a_product_only_rescaled_is_silent(self):
        t, prod = self._square()
        _add(t, OpKind.RESCALE, [prod], level=4, out_level=3,
             out_scale=DELTA)
        assert _codes(t) == {}

    def test_a_chain_of_rescales_compiles_strict(self):
        """The evaluators rescale a degree-2 value as often as it has
        levels, so the strict lint takes the chain too."""
        def chain(ev):
            ct = ev.scalar_mult(ev.fresh(level=4), 2.0, rescale=False)
            square = ev.he_square(ct, rescale=False, relinearize=False)
            return ev.rescale(ev.rescale(square))

        plan = engine.compile(chain, TOY, lint="strict")
        assert plan.lint_report is None or not plan.lint_report.codes()

    @pytest.mark.parametrize("rescales", [0, 1, 2])
    def test_he023_a_degree_two_value_read(self, rescales):
        t, value = self._square()
        level = 4
        for _ in range(rescales):
            value = _add(t, OpKind.RESCALE, [value], level=level,
                         out_level=level - 1, out_scale=DELTA)
            level -= 1
        _add(t, OpKind.HE_ADD, [value, value], level=level)
        report = lint_trace(t)
        assert report.codes() == {"HE023": 1}
        assert report.errors[0].message.startswith(
            "he_add takes a relinearized ciphertext")

    def test_he020_an_unrelinearized_product_names_a_key(self):
        t, prod = self._square(key="relin")
        _add(t, OpKind.RESCALE, [prod], level=4, out_level=3,
             out_scale=DELTA)
        assert _codes(t) == {"HE020": 1}


class TestLiveness:
    def test_he120_dead_op(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=3)
        live = _add(t, OpKind.HE_MULT, [src, src], level=3,
                    out_scale=DELTA * DELTA, key="relin",
                    meta=_mult_meta(3))
        _add(t, OpKind.HE_ADD, [live, live], level=3,
             out_scale=DELTA * DELTA)
        t.output_op_id = live
        assert _codes(t) == {"HE120": 1}

    def test_unused_sources_are_not_dead_ops(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=3)
        _add(t, OpKind.SOURCE, level=3)
        t.output_op_id = 1
        assert _codes(t) == {}

    def test_live_op_ids_follows_output(self):
        t = _trace()
        a = _add(t, OpKind.SOURCE, level=3)
        b = _add(t, OpKind.HE_ADD, [a, a], level=3)
        _add(t, OpKind.HE_ADD, [b, b], level=3)
        t.output_op_id = b
        assert live_op_ids(t) == {a, b}


class TestHoists:
    """Hoisting is replay's, decided by ``galois_groups``: the linter
    has nothing to find, and the op mix counts one Decomp+ModUp stage
    per Galois group and per ``rotate_add``."""

    def _rotations_of(self, t, src, amounts):
        return [_add(t, OpKind.HE_ROTATE, [src], level=4, key=f"rot-{r}",
                     meta={"rotation": r, **_mult_meta(4)})
                for r in amounts]

    def test_shared_hoist_group_is_silent(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_ADD, self._rotations_of(t, src, (1, 2)), level=4)
        assert _codes(t) == {}
        assert galois_groups(t) == {src: (1, 2)}
        assert op_mix(t)["hoists"] == 1

    def test_a_rotation_group_is_one_stage(self):
        """A ``rotate_add`` is one hoisted stage of its own and joins no
        group: an ``he_rotate`` of the same source beside it stays a
        plain key switch."""
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        group = _add(t, OpKind.ROTATE_ADD, [src], level=4,
                     key="rot-1,rot-2,rot-3",
                     meta={"rotations": [1, 2, 3], **_mult_meta(4)})
        (rot,) = self._rotations_of(t, src, (4,))
        _add(t, OpKind.HE_ADD, [group, rot], level=4)
        assert _codes(t) == {}
        assert galois_groups(t) == {}
        assert op_mix(t)["hoists"] == 1


class TestNoise:
    def test_exact_moddown_is_silent(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        _add(t, OpKind.HE_MULT, [src, src], level=4,
             out_scale=DELTA * DELTA, key="relin", meta=_mult_meta(4))
        assert _codes(t) == {}


class TestServeWindows:
    def _windowed(self, windows):
        t = _trace()
        _add(t, OpKind.SOURCE, level=4,
             meta={"slot_windows": [list(w) for w in windows]})
        return t

    def test_he040_overlapping_windows(self):
        assert _codes(self._windowed([(0, 16), (8, 8)])) == {"HE040": 1}

    def test_he041_width_not_power_of_two(self):
        assert _codes(self._windowed([(0, 12)])) == {"HE041": 1}

    def test_he041_offset_not_width_aligned(self):
        assert _codes(self._windowed([(8, 16)])) == {"HE041": 1}

    def test_he041_window_exceeds_slot_count(self):
        slots = TOY.num_slots
        assert _codes(self._windowed([(slots, 16)])) == {"HE041": 1}

    def test_disjoint_aligned_windows_are_silent(self):
        assert _codes(self._windowed([(0, 16), (16, 16), (32, 8)])) == {}

    def test_single_window_meta_spelling(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=4, meta={"slot_window": [0, 12]})
        assert check_windows(t)[0].code == "HE041"


class TestStructure:
    def test_he050_non_dense_op_ids(self):
        t = _trace()
        t.append(TraceOp(op_id=3, kind=OpKind.SOURCE, inputs=(),
                         level=4, out_level=4))
        assert _codes(t) == {"HE050": 1}

    def test_he050_forward_reference(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=4)
        t.append(TraceOp(op_id=1, kind=OpKind.HE_ADD, inputs=(1, 5),
                         level=4, out_level=4))
        assert _codes(t) == {"HE050": 2}

    def test_he050_output_op_id_out_of_range(self):
        t = _trace()
        _add(t, OpKind.SOURCE, level=4)
        t.output_op_id = 9
        assert _codes(t) == {"HE050": 1}

    def test_structural_findings_suppress_dataflow_checks(self):
        """A malformed trace reports HE050 only, never a crash."""
        t = _trace()
        t.append(TraceOp(op_id=0, kind=OpKind.RESCALE, inputs=(7,),
                         level=0, out_level=0))
        report = lint_trace(t)
        assert report.codes() == {"HE050": 1}
        assert check_structure(t)


class TestDiagnosticsFramework:
    def test_code_families_match_severities(self):
        for code, info in CODES.items():
            assert code == info.code
            if code.startswith("HE0"):
                assert info.severity is Severity.ERROR
            else:
                assert info.severity in (Severity.WARNING, Severity.HINT)

    def test_make_rejects_unknown_codes(self):
        with pytest.raises(KeyError, match="HE999"):
            make("HE999", "nope")

    def test_render_includes_code_span_and_message(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=0)
        _add(t, OpKind.RESCALE, [src], level=0)
        report = lint_trace(t)
        (finding,) = report.errors
        text = finding.render()
        assert "HE001" in text and "op 1 rescale @L0" in text

    def test_report_orders_errors_before_warnings_before_hints(self):
        t = _trace()
        src = _add(t, OpKind.SOURCE, level=4)
        r1 = _add(t, OpKind.HE_ROTATE, [src], level=4, key="rot-1",
                  meta={"rotation": 1, **_mult_meta(4)})
        r2 = _add(t, OpKind.HE_ROTATE, [src], level=4, key=None,
                  meta={"rotation": 2, **_mult_meta(4)})
        _add(t, OpKind.HE_ADD, [r1, r1], level=4)
        _add(t, OpKind.HE_ADD, [r1, r2], level=4)
        t.output_op_id = 3
        report = lint_trace(t)
        ranks = [d.severity.rank for d in report.sorted()]
        assert ranks == sorted(ranks)
        assert report.codes() == {"HE022": 1, "HE120": 2}

    def test_to_json_roundtrips_the_contract_fields(self):
        diag = Diagnostic(code="HE010", message="m", op_id=3,
                          kind="he_mult", region="r", level=2)
        doc = diag.to_json()
        assert doc["severity"] == "error"
        assert doc["title"] == CODES["HE010"].title
        assert doc["op_id"] == 3 and doc["region"] == "r"
