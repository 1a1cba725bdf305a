"""In-memory spans around calls into the simulator's layers.

The benchmark measures the program from outside: :func:`instrument`
replaces public functions and methods of each layer with wrappers that
open a span on entry and close it on exit. A :class:`SpanRecorder`
keeps the open spans on a stack and, as each closes, adds its self
time (duration minus the time its child spans took) and one call to
totals held per span name. Nothing is written while the program runs.

Two levels exist. ``coarse`` wraps only the calls a timed repetition
needs (set-up, ``ExperimentContext.run``): a few dozen calls per
repetition. ``full`` adds every layer boundary down to the tag array,
including calls made once per simulated access, and is used only by
the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List


class SpanRecorder:
    """Stack of open spans plus per-name call counts and self times.

    Args:
        clock: seconds as a float; ``time.perf_counter`` by default
            (tests pass a fake clock).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans, innermost last: ``[name, start, child_seconds]``.
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Calls counted without a span (no self time of their own).
        self.counts: Dict[str, int] = {}

    def enter(self, name: str) -> None:
        """Open a span."""
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the body of a ``with`` block."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(frame[0] == name for frame in self.stack)

    def total_self(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_s.values())


def _span_wrapper(rec: SpanRecorder, fn, name):
    """Wrap ``fn`` in a span; ``name`` is a string or ``f(args) -> str|None``.

    A name function that returns None lets the call through without a
    span, so its time stays with the enclosing span.
    """
    stack = rec.stack
    clock = rec.clock
    exit_span = rec.exit

    if callable(name):
        namer = name

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            span = namer(args)
            if span is None:
                return fn(*args, **kwargs)
            stack.append([span, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                exit_span()

        return dispatch

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append([name, clock(), 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            exit_span()

    return wrapper


def _count_wrapper(rec: SpanRecorder, fn, name: str):
    """Wrap ``fn`` so each call is counted, without a span."""
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores."""

    def __init__(self):
        self._saved: List[tuple] = []

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new``, remembering the old value."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def instrument(rec: SpanRecorder, level: str = "coarse") -> Patches:
    """Wrap the simulator's layer boundaries so ``rec`` records them.

    Must run before the calls it should see; classes are patched, so
    instances created earlier are covered too. Returns the
    :class:`Patches` to undo.
    """
    import repro.engine.precompute as precompute
    import repro.harness.experiments as experiments
    import repro.harness.runner as runner
    from repro.workloads.base import Workload

    p = Patches()

    def span(owner, attr, name):
        p.replace(owner, attr, _span_wrapper(rec, owner.__dict__[attr], name))

    def count(owner, attr, name):
        p.replace(owner, attr, _count_wrapper(rec, owner.__dict__[attr], name))

    # Set-up: synthesis, trace generation and the per-trace precompute.
    # ExperimentContext looks get_workload up in its own module.
    span(runner, "get_workload", "workloads.build")
    span(Workload, "build_trace", "workloads.trace")
    span(precompute, "map_seed_pairs", "engine.precompute")
    span(precompute, "quantize_region_values", "engine.precompute")
    span(runner.ExperimentContext, "run", "harness.run")
    if level == "coarse":
        return p
    if level != "full":
        raise ValueError(f"unknown instrumentation level {level!r}")

    import repro.cli as cli
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.cache.writeback import WritebackBuffer
    from repro.core.data_array import MTagDataArray
    from repro.core.doppelganger import DoppelgangerCache
    from repro.core.functional import BlockApproximator
    from repro.core.maps import MapGenerator
    from repro.core.tag_array import TagArray
    from repro.core.unidoppelganger import UniDoppelgangerCache
    from repro.energy.accounting import EnergyModel
    from repro.hierarchy import llc
    from repro.hierarchy.system import System
    from repro.obs.events import Tracer
    from repro.obs.store import RunStore

    span(runner.ExperimentContext, "error", "harness.error")
    span(experiments, "table2_approx_footprint", "harness.tables")
    span(experiments, "summary_headline", "harness.tables")
    span(cli, "run_strategies", "harness.driver")
    span(EnergyModel, "dynamic_energy", "energy.dynamic")
    span(System, "run", "engine.scan")

    # A kernel run counts as error evaluation only inside
    # ExperimentContext.error; the precise run inside build_trace
    # (refresh_outputs) stays part of trace generation.
    def kernel(args):
        return "workloads.kernel" if rec.inside("harness.error") else None

    for cls in Workload.__subclasses__():
        if "run" in cls.__dict__:
            span(cls, "run", kernel)

    for cls, kind in ((llc.BaselineLLC, "baseline"),
                      (llc.SplitDoppelgangerLLC, "dopp"),
                      (llc.UnifiedDoppelgangerLLC, "uni")):
        span(cls, "read", f"hierarchy.llc.{kind}.read")
        span(cls, "fill", f"hierarchy.llc.{kind}.fill")
        span(cls, "handle_writeback", f"hierarchy.llc.{kind}.writeback")

    # uniDoppelgänger inherits lookup/insert/writeback; its approximate
    # insert and writeback run inside insert_block/writeback_block,
    # which carry the core.uni spans.
    def split_only(name):
        def namer(args):
            return None if isinstance(args[0], UniDoppelgangerCache) else name
        return namer

    def lookup(args):
        uni = isinstance(args[0], UniDoppelgangerCache)
        return "core.uni.lookup" if uni else "core.dopp.lookup"

    span(DoppelgangerCache, "lookup", lookup)
    span(DoppelgangerCache, "insert", split_only("core.dopp.insert"))
    span(DoppelgangerCache, "writeback", split_only("core.dopp.writeback"))
    span(UniDoppelgangerCache, "insert_block", "core.uni.insert")
    span(UniDoppelgangerCache, "writeback_block", "core.uni.writeback")
    for attr in ("allocate", "probe", "invalidate"):
        span(TagArray, attr, f"core.tag_array.{attr}")
    for attr in ("allocate", "probe"):
        span(MTagDataArray, attr, f"core.data_array.{attr}")
    for attr in ("compute_batch", "compute_from_stats"):
        span(MapGenerator, attr, f"core.maps.{attr}")
    span(BlockApproximator, "filter", "core.functional.filter")

    for attr in ("access", "install", "invalidate"):
        count(SetAssociativeCache, attr, f"cache.set_assoc.{attr}")
    count(WritebackBuffer, "enqueue", "cache.wb_buffer.enqueue")

    # A disabled tracer's emit returns at once and records nothing.
    span(Tracer, "emit", lambda args: "obs.tracer.emit" if args[0].enabled else None)
    for attr in ("__init__", "start_run", "finish_run", "add_result",
                 "add_metric", "add_event", "add_events", "close"):
        span(RunStore, attr, "obs.store")
    return p
