"""Adversarial fault injection for the radio simulator.

The paper's guarantees assume a fault-free synchronous network; this
package supplies the adversaries the related literature makes
first-class (unreliable links and adversarial wake-up as in Afek et
al.'s beeping MIS, jamming as in Daum et al.'s multichannel MIS):

* :class:`FaultPlan` — composable, deterministically seeded description
  of message loss, jamming windows, crash/crash–recovery schedules, and
  wake skew (:mod:`repro.faults.plan`);
* :class:`ChurnPlan` — dynamic-topology events (edge churn, node
  join/leave) with MIS repair driven by :class:`~repro.faults.churn.
  ChurnRuntime` (:mod:`repro.faults.churn`);
* :func:`parse_fault_spec` — the ``--faults`` CLI grammar
  (:mod:`repro.faults.spec`);
* :func:`compile_fault_plan` — materializes a plan into the hooks both
  engines apply at collision-resolution time
  (:mod:`repro.faults.injector`).

Passing ``faults=None`` (or a default, no-op plan) to the engines takes
a fast path that is bit-identical to, and as fast as, a fault-free run.
"""

from .churn import ChurnPlan, ChurnRuntime
from .injector import CompiledFaultPlan, compile_fault_plan, restart_rng
from .plan import CrashEvent, FaultPlan, JamWindow, fault_roll
from .spec import FAULT_SPEC_GRAMMAR, parse_fault_spec

__all__ = [
    "ChurnPlan",
    "ChurnRuntime",
    "CompiledFaultPlan",
    "CrashEvent",
    "FAULT_SPEC_GRAMMAR",
    "FaultPlan",
    "JamWindow",
    "compile_fault_plan",
    "fault_roll",
    "parse_fault_spec",
    "restart_rng",
]
