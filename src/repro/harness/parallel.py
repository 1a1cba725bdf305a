"""Process-pool prefetch for the experiment harness (``--jobs N``).

The per-(workload, config) pipeline — trace generation, simulation,
energy accounting and error evaluation — is embarrassingly parallel:
runs never share mutable state, only the memo dictionaries inside
:class:`~repro.harness.runner.ExperimentContext`. :func:`prefetch_runs`
fans explicit (workload, config) pairs out across worker processes and
merges the finished :class:`~repro.harness.runner.RunRecord` objects
back into the parent context's memo, so the (sequential) experiment
drivers then find every simulation already cached. The generic driver
passes every workload under every planned config; the frontier search
passes each workload's own probe of the round.

Determinism: each worker rebuilds its context from the same
(seed, scale, engine) triple, so a run computed in a child is
bit-identical to one computed in the parent; results are merged in
task-submission order (workloads in context order, specs in plan
order), and ``run_summaries`` additionally sorts by (workload,
config) — a ``--jobs 4`` sweep therefore emits exactly the same
tables and BENCH rows as ``--jobs 1``.

Workers are spawned per workload (one task covers all of a workload's
configs) so the expensive trace generation happens once per worker,
mirroring the parent's memoization. When there are fewer workloads
than ``--jobs`` workers — the ROADMAP-noted imbalance when sweeping
few workloads on many cores — each workload's config fan is split
into (workload, config-chunk) units so every worker gets a slice;
each chunk worker regenerates its workload's trace, a cost that only
pays off when cores would otherwise sit idle, which is exactly the
case the split is gated on.

Resilience (``docs/robustness.md``): a worker that dies (OOM kill,
segfault) or exceeds ``timeout`` no longer hangs or poisons the whole
sweep — the pool is torn down, finished results are kept, and the
failed workloads are retried up to ``retries`` times with exponential
backoff; the final failure is a typed
:class:`~repro.errors.SimulationFault` naming every (workload, config)
that could not be computed. Merged records enter the memo through
:meth:`~repro.harness.runner.ExperimentContext.keep_run`, which
journals them when the context has a
:class:`~repro.resilience.checkpoint.SweepJournal`, so an interrupted
sweep resumes instead of restarting.

Cancellation: every prefetch runs under a :class:`CancelToken`. While
the pool is live, SIGINT/SIGTERM are routed through
:func:`cancellation_signals` onto that token (main thread only), so an
interrupted sweep tears the pool down cleanly, keeps and journals
every record already merged, and surfaces as the typed
:class:`~repro.errors.Cancelled` (exit code 130) rather than a raw
``KeyboardInterrupt`` traceback mid-merge. Pool workers reset those
handlers (:func:`_init_worker`): the parent alone owns Ctrl-C, and a
worker's SIGTERM from pool teardown ends it at once.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import Cancelled, SimulationFault
from repro.harness.runner import ConfigSpec, ExperimentContext
from repro.obs import EVENT_WORKER_RETRY, get_logger

log = get_logger("harness.parallel")

#: Seconds between cancellation checks while awaiting a worker future.
_POLL_S = 0.1


class CancelToken:
    """Cooperative, thread-safe cancellation flag for a sweep.

    Created per prefetch, or handed in by a caller that wants to
    cancel from another thread. Setting it is idempotent; the first
    reason wins.
    """

    def __init__(self):
        """Create an unset token."""
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (first caller's ``reason`` is kept)."""
        if self.reason is None:
            self.reason = reason
        self._event.set()

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()


@contextmanager
def cancellation_signals(
    token: CancelToken, signals=(signal.SIGINT, signal.SIGTERM)
):
    """Route SIGINT/SIGTERM onto ``token`` for the guarded block.

    Installed around the worker pool so an interrupt becomes a clean
    cancellation — pool teardown, journal flush, typed
    :class:`~repro.errors.Cancelled` — instead of a
    ``KeyboardInterrupt`` traceback from whatever bytecode the merge
    loop happened to be on. Previous handlers are restored on exit.
    No-op outside the main thread (Python only delivers signals
    there), so sweeps started from other threads share the same code
    path.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    def _handler(signum, frame):
        """Turn the delivered signal into a token cancellation."""
        token.cancel(f"received {signal.Signals(signum).name}")

    previous = {}
    for sig in signals:
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            continue
    try:
        yield token
    finally:
        for sig, prev in previous.items():
            signal.signal(sig, prev)


class _RoundCancelled(Exception):
    """Internal: the current round observed a set CancelToken."""


def _wait_result(future, timeout: Optional[float], cancel: Optional[CancelToken]):
    """Await one future in short slices so cancellation stays live.

    ``future.result(timeout)`` would block the merge loop for the whole
    task timeout (possibly forever); polling in :data:`_POLL_S` slices
    lets a set token abort within ~100 ms while preserving the
    original semantics: ``timeout`` is still measured from this call.

    Raises:
        _RoundCancelled: the token was set while waiting.
        FutureTimeout: ``timeout`` elapsed without a result.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        if cancel is not None and cancel.cancelled():
            raise _RoundCancelled()
        slice_s = _POLL_S
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FutureTimeout()
            slice_s = min(slice_s, remaining)
        try:
            return future.result(timeout=slice_s)
        except FutureTimeout:
            continue


def _run_task(task: dict):
    """Worker: simulate one workload under every requested config.

    Runs in a child process; builds a fresh context (observability
    disabled — sinks and registries don't cross process boundaries)
    and returns picklable records only. Specs arrive with their fault
    configs already resolved by the parent, so a worker's memo keys
    match the parent's exactly.

    When the parent attached a progress channel (``--progress``), the
    worker emits one heartbeat at task start, one after the trace is
    generated, and one per completed (workload, config) simulation /
    error evaluation — accesses/sec, slow-path fraction and RSS ride
    along so a thrashing worker is visible mid-run (see
    :mod:`repro.obs.livestream`).
    """
    from repro.obs.livestream import WorkerProgress

    ctx = ExperimentContext(
        seed=task["seed"],
        scale=task["scale"],
        workloads=[task["workload"]],
        engine=task["engine"],
    )
    name = task["workload"]
    run_specs = task["run_specs"]
    error_specs = task["error_specs"]
    progress = WorkerProgress(
        task.get("progress"), task.get("unit") or name
    )
    total = len(run_specs) + len(error_specs)
    done = 0
    progress.emit("start", workload=name, total=total)
    if run_specs or error_specs:
        ctx.trace(name)
        progress.emit("trace", workload=name, total=total)
    runs = []
    for spec in run_specs:
        record = ctx.run(name, spec)
        runs.append((spec, record))
        done += 1
        stats = record.engine_stats or {}
        progress.emit(
            "run", workload=name, config=spec.label(), done=done, total=total,
            accesses=record.accesses,
            accesses_per_sec=record.accesses_per_sec,
            slow_path_fraction=stats.get("slow_fraction"),
        )
    errors = {}
    for spec in error_specs:
        errors[spec] = ctx.error(name, spec)
        done += 1
        progress.emit(
            "error", workload=name, config=spec.label(), done=done, total=total
        )
    progress.emit("done", workload=name, done=done, total=total)
    return name, runs, errors


def _split_fan(task: dict, nchunks: int) -> List[dict]:
    """Split one workload task's config fan into ``nchunks`` units.

    Specs are dealt round-robin (``[k::nchunks]``) so heterogeneous
    per-config costs spread across chunks; empty chunks are dropped.
    Chunking never changes results — every (workload, spec) pair is
    simulated from the same fresh per-worker context regardless of
    which unit carries it, and the parent merges records into the same
    memo keys.
    """
    run_specs = task["run_specs"]
    error_specs = task["error_specs"]
    nchunks = max(1, min(nchunks, max(len(run_specs), len(error_specs), 1)))
    if nchunks == 1:
        return [task]
    units = []
    for k in range(nchunks):
        unit = dict(task)
        unit["run_specs"] = run_specs[k::nchunks]
        unit["error_specs"] = error_specs[k::nchunks]
        if unit["run_specs"] or unit["error_specs"]:
            units.append(unit)
    return units


def _init_worker() -> None:
    """Pool initializer: undo the parent's signal handlers in a worker.

    Forked workers inherit :func:`cancellation_signals`' handler, so
    they would catch SIGTERM from :func:`_terminate_pool` instead of
    exiting, and catch a terminal's Ctrl-C meant for the parent.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A worker pool whose processes leave signal handling to the parent."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are wedged.

    ``shutdown(wait=True)`` would join workers that may never exit (the
    original hang this module had on a worker death); instead cancel
    queued work and terminate any process still alive. The process
    handles must be snapshotted first: ``shutdown`` drops the pool's
    ``_processes`` dict even with ``wait=False``.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():  # ignored SIGTERM: escalate
            proc.kill()
            proc.join(timeout=5)


def _run_round(
    tasks: List[dict],
    workers: int,
    timeout: Optional[float],
    cancel: Optional[CancelToken] = None,
):
    """Run one batch of tasks; returns ``(completed, failed)``.

    ``completed`` holds ``(task, worker result)`` pairs; ``failed``
    holds ``(task, reason)`` pairs. A worker death, timeout or set
    ``cancel`` token aborts the round: results already finished are
    kept, everything else is reported failed so the caller can retry
    it in a fresh pool (or, on cancellation, raise
    :class:`~repro.errors.Cancelled` after merging what completed).
    """
    completed: List[Tuple[dict, tuple]] = []
    failed: List[Tuple[dict, str]] = []
    pool = _new_pool(workers)
    futures = [(task, pool.submit(_run_task, task)) for task in tasks]
    abort: Optional[str] = None
    for task, future in futures:
        if abort is not None:
            # The pool is compromised; salvage finished futures only.
            if future.done() and not future.cancelled():
                try:
                    completed.append((task, future.result()))
                except Exception as exc:
                    failed.append((task, repr(exc)))
            else:
                failed.append((task, abort))
            continue
        try:
            completed.append((task, _wait_result(future, timeout, cancel)))
        except _RoundCancelled:
            failed.append((task, "cancelled"))
            abort = "pool torn down after cancellation"
        except FutureTimeout:
            failed.append(
                (task, f"worker exceeded the {timeout:g}s timeout")
            )
            abort = "pool torn down after a worker timeout"
        except BrokenProcessPool as exc:
            failed.append((task, f"worker process died ({exc})"))
            abort = "pool torn down after a worker death"
        except Exception as exc:
            # A deterministic in-task failure; the pool itself is fine.
            failed.append((task, repr(exc)))
    if abort is not None:
        _terminate_pool(pool)
    else:
        pool.shutdown()
    return completed, failed


def prefetch_runs(
    ctx: ExperimentContext,
    run_pairs: Sequence[Tuple[str, ConfigSpec]] = (),
    error_pairs: Sequence[Tuple[str, ConfigSpec]] = (),
    jobs: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 1.0,
    progress=None,
    cancel: Optional[CancelToken] = None,
) -> int:
    """Simulate explicit (workload, spec) pairs across worker processes.

    Groups the pairs into one task per workload (in ``ctx.names``
    order, specs in first-seen order), fans the tasks across ``jobs``
    worker processes and merges the results into ``ctx``'s memo
    dictionaries. Pairs already memoized, duplicate pairs, workloads
    outside ``ctx.names`` and baseline error pairs (0 by definition)
    are skipped; fault configs are resolved through
    :meth:`~repro.harness.runner.ExperimentContext.apply_faults` first
    so worker memo keys, parent memo keys and journal digests agree.
    When there are fewer tasks than ``jobs``, each workload's config
    fan is split across the idle workers (see :func:`_split_fan`;
    results are identical either way). Returns the number of
    (workload, config) simulations fetched.

    Args:
        timeout: seconds allowed per workload task, measured from the
            completion of the previously merged task (None = wait
            forever). A timeout kills the pool and counts as a failure.
        retries: rounds to re-run failed tasks in a fresh pool.
        backoff: base delay before retry ``k``, growing as
            ``backoff * 2**(k-1)`` seconds.
        progress: optional
            :class:`~repro.obs.livestream.LiveProgressSink`; workers
            then emit heartbeats (unit, accesses/sec, slow-path
            fraction, RSS) over a manager queue that the sink drains
            live, so a stuck worker is visible mid-run.
        cancel: optional :class:`CancelToken` shared with another
            thread. A fresh token is created when omitted; either way
            SIGINT/SIGTERM route onto it while the pool is live (main
            thread only).

    Raises:
        SimulationFault: tasks still failing after every retry; the
            message names each failed (workload, configs) pair.
        Cancelled: the token was set; completed records were merged
            (and journaled) before raising.
    """
    needs: Dict[str, Tuple[List[ConfigSpec], List[ConfigSpec]]] = {}

    def _need(name: str, spec: ConfigSpec, side: int, memo: dict) -> None:
        """Queue one unmemoized (workload, spec) pair for its task."""
        spec = ctx.apply_faults(spec)
        bucket = needs.setdefault(name, ([], []))[side]
        if (name, spec) not in memo and spec not in bucket:
            bucket.append(spec)

    for name, spec in run_pairs:
        _need(name, spec, 0, ctx._runs)
    for name, spec in error_pairs:
        if spec.kind != "baseline":  # baseline error is 0 by definition
            _need(name, spec, 1, ctx._errors)
    tasks = []
    for name in ctx.names:
        run_specs, error_specs = needs.get(name, ((), ()))
        if run_specs or error_specs:
            tasks.append(
                {
                    "workload": name,
                    "seed": ctx.seed,
                    "scale": ctx.scale,
                    "engine": ctx.engine,
                    "run_specs": list(run_specs),
                    "error_specs": list(error_specs),
                }
            )
    if not tasks:
        return 0
    if len(tasks) < int(jobs):
        want = -(-int(jobs) // len(tasks))  # ceil: chunks per workload
        units: List[dict] = []
        for task in tasks:
            units.extend(_split_fan(task, want))
        if len(units) > len(tasks):
            log.info(
                "splitting %d workload fans into %d (workload, "
                "config-chunk) units for %d workers",
                len(tasks), len(units), int(jobs),
            )
        tasks = units
    # Unit names for progress display/storage: the workload, suffixed
    # with #k when its config fan was split across several chunk units.
    per_workload: Dict[str, int] = {}
    for task in tasks:
        per_workload[task["workload"]] = per_workload.get(task["workload"], 0) + 1
    seen: Dict[str, int] = {}
    for task in tasks:
        name = task["workload"]
        if per_workload[name] > 1:
            task["unit"] = f"{name}#{seen.get(name, 0)}"
            seen[name] = seen.get(name, 0) + 1
        else:
            task["unit"] = name
    manager = None
    if progress is not None:
        import multiprocessing

        # A manager queue proxy is picklable under every start method,
        # unlike a raw mp.Queue, so it can ride inside the task dicts.
        manager = multiprocessing.Manager()
        channel = manager.Queue()
        for task in tasks:
            task["progress"] = channel
        progress.start(channel)
    workers = max(1, min(int(jobs), len(tasks)))
    log.info(
        "prefetching %d workload tasks across %d workers", len(tasks), workers
    )
    token = cancel if cancel is not None else CancelToken()
    try:
        with cancellation_signals(token):
            return _prefetch_rounds(
                ctx, tasks, workers, timeout, retries, backoff, cancel=token
            )
    finally:
        if progress is not None:
            progress.stop()
        if manager is not None:
            manager.shutdown()


def _prefetch_rounds(
    ctx: ExperimentContext,
    tasks: List[dict],
    workers: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    cancel: Optional[CancelToken] = None,
) -> int:
    """Run the retry loop of :func:`prefetch_runs`; returns runs fetched.

    Raises :class:`~repro.errors.Cancelled` when ``cancel`` is set —
    *after* merging and journaling whatever the aborted round had
    already completed, so a resumed sweep keeps that work.
    """
    fetched = 0
    with ctx.obs.profiler.phase(f"parallel/jobs{workers}"):
        pending = tasks
        attempt = 0
        while True:
            completed, failed = _run_round(
                pending, max(1, min(workers, len(pending))), timeout, cancel
            )
            for task, (name, runs, errors) in completed:
                for spec, record in runs:
                    ctx.keep_run(name, spec, record)
                    fetched += 1
                for spec, err in errors.items():
                    ctx.keep_error(name, spec, err)
            if cancel is not None and cancel.cancelled():
                raise Cancelled(
                    f"sweep cancelled ({cancel.reason}); "
                    f"{fetched} completed simulation"
                    f"{'' if fetched == 1 else 's'} kept"
                )
            if not failed:
                break
            if attempt >= retries:
                detail = "; ".join(
                    "{} [{}]: {}".format(
                        task["workload"],
                        ", ".join(
                            s.label()
                            for s in task["run_specs"] + task["error_specs"]
                        ) or "no specs",
                        reason,
                    )
                    for task, reason in failed
                )
                raise SimulationFault(
                    f"parallel sweep failed after {attempt} retr"
                    f"{'y' if attempt == 1 else 'ies'} for: {detail}"
                )
            attempt += 1
            delay = backoff * (2 ** (attempt - 1))
            for task, reason in failed:
                log.warning(
                    "retrying %s (attempt %d/%d in %.1fs): %s",
                    task["workload"], attempt, retries, delay, reason,
                )
                ctx.obs.tracer.emit(
                    EVENT_WORKER_RETRY,
                    workload=task["workload"], attempt=attempt,
                    delay_s=delay, error=reason,
                )
            time.sleep(delay)
            pending = [task for task, _ in failed]
    return fetched
