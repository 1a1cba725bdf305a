"""What each workload runs; the metric catalogue comes from BENCHMARK.json.

``BENCHMARK.json`` at the repository root is the only place that names
the workloads, says why each exists and lists the metrics with their
units, directions and bounds. This module reads it and adds the run
plan of each workload: the apps, LLC configurations and command line.

It imports nothing from the simulator, so the orchestrator
(``run.py``) and the tests can read it without the program present.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")

#: Dataset scale of every workload.
SCALE = 0.1
#: Seed whose operation digests and work counts are committed in
#: ``reference_seed7.json``.
PINNED_SEED = 7

ALL_APPS = (
    "blackscholes", "canneal", "ferret", "fluidanimate", "inversek2j",
    "jmeint", "jpeg", "kmeans", "swaptions",
)

#: LLC organizations as ``(kind, map_bits, data_fraction)``; the worker
#: turns them into ``ConfigSpec`` objects.
DOPP_CONFIGS = (("dopp", 14, 0.25), ("dopp", 14, 0.125), ("uni", 14, 0.5))
BASELINE_CONFIGS = (("baseline", 14, 0.25),)


@dataclass(frozen=True)
class Workload:
    """The run plan of one benchmark workload.

    Attributes:
        apps: the simulator's applications it synthesizes and traces.
        configs: LLC organizations each app is simulated under.
        errors: evaluate the output error of every (app, config).
        table: a table function of ``repro.harness.experiments`` run
            over the simulated records, or None.
        cli: arguments of the ``repro`` command line the workload runs
            instead of its own sweep (empty for a sweep).
        nonzero: per-layer work counts the workload exists to drive,
            which the traced run requires to be above zero.
    """

    apps: Tuple[str, ...]
    configs: Tuple[Tuple[str, int, float], ...] = ()
    errors: bool = False
    table: Optional[str] = None
    cli: Tuple[str, ...] = ()
    nonzero: Tuple[str, ...] = ()

    @property
    def approximate(self) -> bool:
        """Whether any LLC it simulates is a Doppelgänger one."""
        return bool(self.cli) or any(kind != "baseline" for kind, *_ in self.configs)


# Why each workload exists is its "why" in BENCHMARK.json. In dopp,
# ferret's accesses are almost all approximate reads; inversek2j and
# swaptions are the apps at this scale whose dirty approximate blocks
# reach the LLC's Sec. 3.4 write path (uniDoppelgänger and split
# Doppelgänger respectively). Under kmeans, and inversek2j's split
# configs, no approximate block leaves the L2 dirty.
WORKLOADS: Dict[str, Workload] = {
    "dopp": Workload(
        ("ferret", "inversek2j", "swaptions"), DOPP_CONFIGS, errors=True,
        nonzero=("core.dopp.writeback.calls", "core.uni.writeback.calls"),
    ),
    "baseline-all": Workload(ALL_APPS, BASELINE_CONFIGS, table="table2_approx_footprint"),
    "profiled": Workload(
        ("kmeans", "swaptions"),
        cli=("run", "headline", "--profile", "--workloads", "kmeans",
             "swaptions", "--scale", str(SCALE)),
    ),
}


def _load() -> dict:
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise ValueError(f"BENCHMARK.json workloads {names} have no run plan "
                         f"matching {sorted(WORKLOADS)}")
    return bench


_BENCH = _load()

#: End-to-end metrics: (name, unit, better, bound).
END_TO_END: List[Tuple[str, str, str, float]] = [
    (m["name"], m["unit"], m["better"], m["bound"]) for m in _BENCH["end_to_end"]]

#: Per-layer metrics: (name, unit, better). Every ``_s`` metric but
#: ``bench.residual_s`` is the self time of one span (its duration
#: minus its child spans), so those metrics of one repetition plus
#: ``bench.residual_s`` add up to its wall time.
PER_LAYER: List[Tuple[str, str, str]] = [
    (m["name"], m["unit"], m["better"]) for m in _BENCH["per_layer"]]


def is_work_count(name: str, unit: str) -> bool:
    """Whether a per-layer metric is a deterministic work count.

    Times are not, nor the trace overhead, nor the JSONL size (its
    events carry timestamps whose digit count varies). Every work
    count must repeat exactly across repetitions and runs of one seed.
    """
    return unit in ("count", "ratio", "bytes") and name not in (
        "obs.jsonl_bytes", "bench.trace_overhead",
    )


def zero_work(workload: str) -> List[str]:
    """Per-layer metrics the workload must leave at exactly zero.

    The predictions the traced run checks: a baseline-only sweep does
    no Doppelgänger, map-generation, precompute or error-evaluation
    work, and only the profiled workload emits trace events.
    """
    w = WORKLOADS[workload]
    names = [name for name, *_ in PER_LAYER]
    zero = []
    if not w.approximate:
        zero += [n for n in names if n.startswith("core.") and n.endswith(".calls")]
        zero += [
            n for n in names
            if n.startswith(("hierarchy.llc.dopp.", "hierarchy.llc.uni."))
            and n.endswith(".calls")
        ]
        zero.append("engine.precompute_s")
    if not w.errors and not w.cli:
        zero.append("workloads.kernel_s")
    if not w.cli:
        zero.append("obs.tracer.emit.calls")
    return zero
