"""Diagnostics framework for the static HE-program linter.

A :class:`Diagnostic` is one finding of a static check: a stable code
(``HE0xx`` errors, ``HE1xx`` warnings/hints — see :data:`CODES`), a
severity, a human message, and the *op span* it anchors to (op id, kind,
region, level inside the analyzed :class:`~repro.trace.OpTrace`).  A
:class:`DiagnosticReport` is the result of linting one trace: the
ordered findings plus enough trace context to render a human or JSON
report (:mod:`repro.analysis.report`).

Codes are a stable public contract: tests, CI goldens, and downstream
tooling match on them, so a code is never renumbered or reused — new
checks take new codes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Severity(enum.Enum):
    """How bad a finding is; orders ``error > warning > hint``."""

    ERROR = "error"
    WARNING = "warning"
    HINT = "hint"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "hint": 2}[self.value]


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry of one diagnostic code."""

    code: str
    severity: Severity
    title: str
    summary: str


def _info(code: str, severity: Severity, title: str,
          summary: str) -> tuple[str, CodeInfo]:
    return code, CodeInfo(code=code, severity=severity, title=title,
                          summary=summary)


#: The stable code registry.  ``HE0xx`` are errors (the plan cannot run
#: or cannot decrypt correctly); ``HE1xx`` are warnings and hints
#: (wasted work, drift that has not yet broken anything).
CODES: dict[str, CodeInfo] = dict([
    _info("HE001", Severity.ERROR, "level underflow",
          "An op consumes a level that does not exist: a rescale or "
          "fused-rescale multiply at level 0, or a recorded level below "
          "0.  The program runs out of modulus before it ends."),
    _info("HE002", Severity.ERROR, "level inconsistency",
          "An op's operating or output level disagrees with its inputs "
          "or its kind's level rule (rescale drops exactly one level, "
          "mod_drop drops meta['levels'], everything else preserves)."),
    _info("HE003", Severity.ERROR, "level out of range",
          "A recorded level exceeds the parameter set's max_level — the "
          "trace is not reachable from these parameters."),
    _info("HE010", Severity.ERROR, "scale overflow (missing rescale)",
          "Abstract interpretation of the scale shows it meeting or "
          "exceeding the ciphertext modulus at the op's level; the "
          "message wraps around Q and decryption is garbage.  A rescale "
          "is missing upstream."),
    _info("HE011", Severity.ERROR, "operand scale mismatch",
          "An addition/subtraction combines ciphertexts whose scales "
          "differ by far more than rescale drift; the smaller operand "
          "is effectively multiplied by a large constant."),
    _info("HE020", Severity.ERROR, "switching key unavailable",
          "A key-switch op names a key no keygen for these parameters "
          "would hold: a malformed key id, a rotation amount outside "
          "[1, num_slots), a key id disagreeing with the recorded "
          "rotation amount(s) of a rotation or rotation group, or a key "
          "missing from an explicitly provided available-key set."),
    _info("HE021", Severity.ERROR, "key-switch shape mismatch",
          "A key-switch op's recorded hybrid-decomposition shape "
          "(dnum, digit count) disagrees with what the parameters "
          "dictate at its level; the streamed key would not match."),
    _info("HE022", Severity.ERROR, "key-switch without key id",
          "A key-switch op carries no key id at all; lowering and LABS "
          "grouping cannot place its key traffic."),
    _info("HE023", Severity.ERROR, "unrelinearized product read",
          "A product recorded with meta['relinearized'] = False is a "
          "degree-2 ciphertext (c0, c1, c2), as is every rescale of "
          "one; only rescale and decryption take it, and an op other "
          "than rescale reads it."),
    _info("HE030", Severity.ERROR, "noise budget exhausted",
          "The propagated scale falls below the noise floor "
          "(repro.fhe.noise.NOISE_FLOOR_LOG2): the message is smaller "
          "than the rescale rounding noise and cannot be recovered."),
    _info("HE031", Severity.ERROR, "result headroom exhausted",
          "The output modulus cannot hold the declared result bound "
          "(meta['result_bound']) at the output scale with "
          "repro.fhe.noise.HEADROOM_BITS to spare: a result near the "
          "bound wraps around Q and decrypts as garbage."),
    _info("HE040", Severity.ERROR, "serve windows overlap",
          "Two slot windows of a served batch overlap; queries packed "
          "into them would read each other's slots."),
    _info("HE041", Severity.ERROR, "serve window misaligned",
          "A slot window is not power-of-two sized, not aligned to its "
          "width, or exceeds the slot count, breaking the window-local "
          "rotation contract of repro.fhe.packing.SlotLayout."),
    _info("HE050", Severity.ERROR, "malformed trace",
          "The trace violates a structural invariant (op ids not dense "
          "and ordered, inputs referencing non-earlier ops, an input "
          "count other than the op table's); data-flow checks are "
          "skipped."),
    _info("HE110", Severity.WARNING, "scale drift",
          "A rescale output's scale deviates from the encoding scale "
          "Delta by more than the drift tolerance; precision degrades "
          "and later additions pair mismatched scales."),
    _info("HE120", Severity.WARNING, "dead op",
          "The op's result never reaches the program output — wasted "
          "cycles on every execution (and every served batch)."),
])


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code + severity + message + source op span."""

    code: str
    message: str
    op_id: int | None = None
    kind: str | None = None
    region: str = ""
    level: int | None = None

    @property
    def severity(self) -> Severity:
        return CODES[self.code].severity

    @property
    def title(self) -> str:
        return CODES[self.code].title

    def span(self) -> str:
        """Human-readable op span (``op 12 he_rotate @L3 [boot/cts]``)."""
        if self.op_id is None:
            return "trace"
        parts = [f"op {self.op_id}"]
        if self.kind:
            parts.append(self.kind)
        if self.level is not None:
            parts.append(f"@L{self.level}")
        if self.region:
            parts.append(f"[{self.region}]")
        return " ".join(parts)

    def render(self) -> str:
        return (f"{self.code} {self.severity.value}: {self.title} — "
                f"{self.span()}: {self.message}")

    def to_json(self) -> dict[str, Any]:
        return {"code": self.code, "severity": self.severity.value,
                "title": self.title, "message": self.message,
                "op_id": self.op_id, "kind": self.kind,
                "region": self.region, "level": self.level}


def make(code: str, message: str, op: Any = None) -> Diagnostic:
    """Build a diagnostic, taking the op span from a ``TraceOp``."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    if op is None:
        return Diagnostic(code=code, message=message)
    return Diagnostic(code=code, message=message, op_id=op.op_id,
                      kind=op.kind.value, region=op.region,
                      level=op.level)


@dataclass
class DiagnosticReport:
    """Every finding of one lint run over one trace."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Per-workload op-mix payload (filled by :func:`repro.analysis.
    #: report.op_mix`); doubles as the ROADMAP item-5 op-mix table.
    op_mix: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def extend(self, findings: list[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def at(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.at(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.at(Severity.WARNING)

    @property
    def hints(self) -> list[Diagnostic]:
        return self.at(Severity.HINT)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def codes(self) -> dict[str, int]:
        """Multiplicity of each finding code (sorted by code)."""
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def sorted(self) -> list[Diagnostic]:
        """Findings ordered by severity, then code, then op id."""
        return sorted(self.diagnostics,
                      key=lambda d: (d.severity.rank, d.code,
                                     d.op_id if d.op_id is not None
                                     else -1))

    def summary(self) -> str:
        counts = (f"{len(self.errors)} errors, {len(self.warnings)} "
                  f"warnings, {len(self.hints)} hints")
        return f"lint {self.name}: {counts}"

    def render(self, max_per_code: int = 20) -> str:
        """Human report: summary line + findings (capped per code)."""
        lines = [self.summary()]
        shown: dict[str, int] = {}
        elided: dict[str, int] = {}
        for diag in self.sorted():
            shown[diag.code] = shown.get(diag.code, 0) + 1
            if shown[diag.code] > max_per_code:
                elided[diag.code] = elided.get(diag.code, 0) + 1
                continue
            lines.append(f"  {diag.render()}")
        for code, count in sorted(elided.items()):
            lines.append(f"  {code}: ... {count} more")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "hints": len(self.hints),
            "codes": self.codes(),
            "diagnostics": [d.to_json() for d in self.sorted()],
            "op_mix": self.op_mix,
        }

    def raise_for_errors(self) -> "DiagnosticReport":
        """Raise :class:`LintError` if any error-severity finding exists."""
        if self.has_errors:
            raise LintError(self)
        return self


class LintError(RuntimeError):
    """Strict-mode lint failure; carries the full report."""

    def __init__(self, report: DiagnosticReport) -> None:
        self.report = report
        super().__init__(report.render())


class LintWarning(UserWarning):
    """Emitted by ``engine.compile(..., lint="warn")`` for findings."""
