"""Cancellation tests for the parallel harness and the CLI.

Exercises the chain a Ctrl-C on a ``--jobs N`` sweep rides: SIGINT →
:func:`~repro.harness.parallel.cancellation_signals` → the
:class:`~repro.harness.parallel.CancelToken` the sweep's poll loop
watches → pool teardown → the typed :class:`~repro.errors.Cancelled`
(exit code 130) → the history run's ``run_cancelled`` event.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import Cancelled
from repro.harness.parallel import (
    CancelToken,
    _new_pool,
    _terminate_pool,
    cancellation_signals,
    prefetch_runs,
)
from repro.harness.runner import ExperimentContext, dopp_spec
from repro.obs.store import RunStore


class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"

    def test_default_reason(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled()
        assert token.reason


class TestCancellationSignals:
    def test_sigint_sets_token_once(self):
        token = CancelToken()
        with cancellation_signals(token, signals=(signal.SIGINT,)):
            os.kill(os.getpid(), signal.SIGINT)
            for _ in range(100):
                if token.cancelled():
                    break
                time.sleep(0.01)
        assert token.cancelled()
        assert "SIGINT" in token.reason

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with cancellation_signals(CancelToken(), signals=(signal.SIGINT,)):
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_noop_off_main_thread(self):
        outcome = {}

        def run():
            token = CancelToken()
            before = signal.getsignal(signal.SIGINT)
            with cancellation_signals(token, signals=(signal.SIGINT,)):
                outcome["unchanged"] = signal.getsignal(signal.SIGINT) is before

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10)
        assert outcome == {"unchanged": True}


class TestPrefetchCancel:
    def test_preset_token_raises_cancelled(self, small_scale_ctx):
        token = CancelToken()
        token.cancel("test cancel")
        with pytest.raises(Cancelled, match="test cancel"):
            prefetch_runs(
                small_scale_ctx, _pairs(small_scale_ctx, dopp_spec()),
                jobs=2, cancel=token,
            )

    def test_mid_sweep_cancel_keeps_completed(self, small_scale_ctx):
        token = CancelToken()
        timer = threading.Timer(0.2, token.cancel, args=("mid-sweep",))
        timer.start()
        try:
            with pytest.raises(Cancelled, match="mid-sweep"):
                prefetch_runs(
                    small_scale_ctx,
                    _pairs(small_scale_ctx, dopp_spec()),
                    jobs=2,
                    cancel=token,
                )
        finally:
            timer.cancel()

    def test_uncancelled_sweep_completes(self, small_scale_ctx):
        fetched = prefetch_runs(
            small_scale_ctx,
            _pairs(small_scale_ctx, dopp_spec()),
            jobs=2,
            cancel=CancelToken(),
        )
        assert fetched == 2


def _pairs(ctx, spec):
    """Every workload of ``ctx`` under ``spec``."""
    return [(name, spec) for name in ctx.names]


@pytest.fixture
def small_scale_ctx():
    """A tiny context for fast parallel sweeps."""
    return ExperimentContext(seed=3, scale=0.05, workloads=["swaptions", "kmeans"])


class TestPoolTeardown:
    def test_terminate_skips_the_join_wait(self):
        """Workers forked under the cancel handlers still die on SIGTERM."""
        with cancellation_signals(CancelToken()):
            pool = _new_pool(1)
            pool.submit(os.getpid).result(timeout=30)  # worker is up
            pool.submit(time.sleep, 30)
            time.sleep(0.2)  # let the worker pick the sleep up
            start = time.monotonic()
            _terminate_pool(pool)
        assert time.monotonic() - start < 2.0


def _src_path() -> str:
    """The ``src`` directory for subprocess PYTHONPATH."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_row(store_path: str):
    """The store's only run row, or None before the CLI has written it."""
    if not os.path.exists(store_path):
        return None
    try:
        with sqlite3.connect(store_path) as conn:
            return conn.execute("SELECT id, finished FROM runs").fetchone()
    except sqlite3.Error:  # schema not created yet
        return None


class TestRunStrategiesCancel:
    def test_sigint_mid_prefetch_records_cancelled_run(self, tmp_path):
        """Ctrl-C on a ``--jobs 2`` CLI sweep: exit 130, unfinished run."""
        store_path = str(tmp_path / "history.db")
        env = dict(os.environ, PYTHONPATH=_src_path())
        env.pop("REPRO_STORE", None)
        # The prefetch of this sweep takes well over 10 s.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "fig10",
                "--workloads", "kmeans", "canneal", "--scale", "0.5",
                "--seed", "3", "--jobs", "2", "--store", store_path,
                "--json-out", str(tmp_path / "json"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while _run_row(store_path) is None and proc.poll() is None:
                assert time.monotonic() < deadline, "run row never appeared"
                time.sleep(0.05)
            time.sleep(1.5)  # past the run row, into the worker pool
            assert proc.poll() is None, "sweep ended before the SIGINT"
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 130, err.decode()

        store = RunStore(store_path)
        (run,) = store.list_runs()
        assert run["finished"] == 0
        cancelled = store.events_for(run["id"], "run_cancelled")
        store.close()
        assert len(cancelled) == 1
        assert "SIGINT" in cancelled[0]["reason"]

    def test_exit_code(self):
        assert Cancelled("x").exit_code == 130
