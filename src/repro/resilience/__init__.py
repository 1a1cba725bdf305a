"""Resilience layer: faults, energy frontier, checkpoint/resume, errors.

Five pillars (see ``docs/robustness.md``):

* :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection engine (bit flips, bursts, stuck-at cells) for the
  approximate data array, the conventional LLC and DRAM;
* :mod:`repro.resilience.energy` — the SRAM voltage-scaling model
  mapping supply-voltage steps onto fault rates and energy credits
  (the physical story behind the ``frontier`` experiment);
* :mod:`repro.resilience.controller` — the closed-loop
  :class:`ErrorBudgetController` searching the voltage ladder for the
  max survivable fault rate within a declared error budget, with
  graceful degradation (it resumes through the sweep journal);
* :mod:`repro.resilience.checkpoint` — a crash-tolerant journal of
  completed (workload, config) results so killed sweeps resume
  byte-identically (``--resume``);
* :mod:`repro.errors` — the typed exception hierarchy the CLI maps to
  documented exit codes (re-exported here for convenience).
"""

from repro.errors import ConfigError, ReproError, SimulationFault, TraceFormatError
from repro.resilience.checkpoint import SweepJournal, context_fingerprint, open_journal
from repro.resilience.controller import (
    ErrorBudgetController,
    FrontierOptions,
    FrontierResult,
)
from repro.resilience.energy import (
    VoltageStep,
    energy_saved_fraction,
    voltage_ladder,
)
from repro.resilience.faults import (
    FAULT_TARGETS,
    TARGET_APPROX_DATA,
    TARGET_DRAM,
    TARGET_LLC,
    FaultConfig,
    FaultInjector,
)

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FAULT_TARGETS",
    "TARGET_APPROX_DATA",
    "TARGET_DRAM",
    "TARGET_LLC",
    "VoltageStep",
    "voltage_ladder",
    "energy_saved_fraction",
    "ErrorBudgetController",
    "FrontierOptions",
    "FrontierResult",
    "SweepJournal",
    "context_fingerprint",
    "open_journal",
    "ReproError",
    "ConfigError",
    "TraceFormatError",
    "SimulationFault",
]
