"""HE-op trace IR: record evaluator executions, lower them to BlockSim.

See README.md in this directory for the architecture.  Quick use::

    from repro.trace import SymbolicEvaluator, TracingEvaluator, lower_trace

    ev = TracingEvaluator(SymbolicEvaluator(params), name="my-workload")
    ct = ev.fresh(level=params.max_level)
    ct = ev.he_mult(ct, ct)                    # ... any evaluator program
    graph = lower_trace(ev.trace)              # BlockSim-ready DAG
"""

from .invariants import (KEYSWITCH_BLOCKS, assert_workload_dag,
                         dag_violations)
from .ir import OpKind, OpTrace, TraceOp
from .lowering import lower_expanded_trace, lower_trace
from .passes import (DEFAULT_PASSES, TraceValidationError,
                     expand_implicit_rescales, infer_hoist_groups,
                     run_passes, validate_trace)
from .recorder import TracingEvaluator
from .symbolic import (SymbolicCiphertext, SymbolicEvaluator,
                       SymbolicPlaintext)

__all__ = [
    "DEFAULT_PASSES", "KEYSWITCH_BLOCKS", "OpKind", "OpTrace",
    "SymbolicCiphertext", "SymbolicEvaluator", "SymbolicPlaintext",
    "TraceOp", "TraceValidationError",
    "TracingEvaluator", "assert_workload_dag", "dag_violations",
    "expand_implicit_rescales", "infer_hoist_groups",
    "lower_expanded_trace", "lower_trace", "run_passes", "validate_trace",
]
