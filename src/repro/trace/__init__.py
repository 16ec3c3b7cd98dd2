"""HE-op trace IR: record evaluator executions, lower them to BlockSim.

See README.md in this directory for the architecture.  Quick use::

    from repro.trace import SymbolicEvaluator, TracingEvaluator, lower_trace

    ev = TracingEvaluator(SymbolicEvaluator(params), name="my-workload")
    ct = ev.fresh(level=params.max_level)
    ct = ev.he_mult(ct, ct)                    # ... any evaluator program
    table = lower_trace(ev.trace)              # BlockSim-ready block table
"""

from .invariants import (KEYSWITCH_BLOCKS, TraceValidationError,
                         assert_workload_dag, dag_violations,
                         validate_trace)
from .ir import OpKind, OpTrace, TraceOp
from .lowering import lower_trace
from .ops import Schedule, schedule
from .recorder import TracingEvaluator
from .symbolic import (SymbolicCiphertext, SymbolicEvaluator,
                       SymbolicPlaintext)

__all__ = [
    "KEYSWITCH_BLOCKS", "OpKind", "OpTrace", "Schedule",
    "SymbolicCiphertext", "SymbolicEvaluator", "SymbolicPlaintext",
    "TraceOp", "TraceValidationError",
    "TracingEvaluator", "assert_workload_dag", "dag_violations",
    "lower_trace", "schedule", "validate_trace",
]
