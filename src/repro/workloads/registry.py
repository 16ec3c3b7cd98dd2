"""Workload catalog: named HE programs, compiled through ``repro.engine``.

This module is a thin registry.  A workload is an evaluator *program*
(:data:`~repro.engine.HeProgram`).  All compilation, lowering,
simulation, replay, and profiling happen in
:mod:`repro.engine` — newcomers should start there (and at
``src/repro/engine/README.md``); this file only names programs::

    from repro.workloads.registry import register_workload, compile_workload

    def my_program(ev):
        ct = ev.fresh()
        ...                        # any evaluator ops

    register_workload("mine", program=my_program)
    plan = compile_workload("mine")          # ExecutablePlan
    plan.simulate(GME_FULL)                  # BlockSim metrics

Plans are cached by :func:`repro.engine.compile`, so sweeps compile
once and simulate many times.

The pre-engine entry points (``trace_workload``, ``workload_graphs``)
served their one-release deprecation window and are gone; use
``compile_workload(name, params).trace`` and ``workload_plans(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import engine
from repro.dag import DiGraph
from repro.fhe.params import CkksParameters

from .programs import bootstrap_program, helr_program, resnet20_program


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: a name and its evaluator program."""

    name: str
    program: Callable


def _boot_program(ev):
    with ev.region("boot"):
        return bootstrap_program(ev, ev.fresh(level=0))


_REGISTRY: dict[str, WorkloadSpec] = {}


def register_workload(name: str, program: Callable) -> WorkloadSpec:
    """Register (or replace) a workload; returns its spec."""
    spec = WorkloadSpec(name=name, program=program)
    _REGISTRY[name] = spec
    return spec


def workload_names() -> list[str]:
    return list(_REGISTRY)


def compile_workload(name: str, params: CkksParameters | None = None,
                     lint: str | None = None) -> engine.ExecutablePlan:
    """The :class:`~repro.engine.ExecutablePlan` for one workload.

    Plans come from the engine's memoized compile — requesting the
    same workload at the same parameters returns the same plan
    object, whatever feature sets it later simulates.  ``lint`` is
    forwarded to :func:`repro.engine.compile` (``"warn"``/``"strict"``
    static analysis of the compiled trace).
    """
    params = params or CkksParameters.paper()
    return engine.compile(_REGISTRY[name].program, params, name=name,
                          lint=lint)


def workload_plans(params: CkksParameters | None = None
                   ) -> dict[str, engine.ExecutablePlan]:
    """Every registered workload as a compiled plan."""
    return {name: compile_workload(name, params) for name in _REGISTRY}


def build_workload(name: str,
                   params: CkksParameters | None = None) -> DiGraph:
    """The lowered BlockSim DAG of one workload."""
    return compile_workload(name, params).graph


register_workload("boot", _boot_program)
register_workload("helr", helr_program)
register_workload("resnet", resnet20_program)
