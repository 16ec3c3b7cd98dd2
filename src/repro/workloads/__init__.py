"""Paper workloads: bootstrapping, HE-LR, encrypted ResNet-20.

Evaluator *programs* (:mod:`.programs`) are registered in the catalog
(:mod:`.registry`) and compiled through :mod:`repro.engine` into
:class:`~repro.engine.ExecutablePlan` objects — the measured path every
experiment consumes.  :mod:`.helr` and :mod:`.resnet20` hold the
functional encrypted trainer and convolution layer.
"""

from .helr import EncryptedLogisticRegression, SIGMOID_COEFFS
from .programs import bootstrap_program, helr_program, resnet20_program
from .registry import (compile_workload, register_workload,
                       workload_names, workload_plans)
from .resnet20 import EncryptedConvLayer

__all__ = [
    "EncryptedConvLayer", "EncryptedLogisticRegression", "SIGMOID_COEFFS",
    "bootstrap_program", "compile_workload",
    "helr_program", "register_workload", "resnet20_program",
    "workload_names", "workload_plans",
]
