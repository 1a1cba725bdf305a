"""Tests of the benchmark's own logic: names, checks and span arithmetic.

Run from the repository root with ``python3 -m pytest perfsuite/tests -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfsuite import plan, run, worker
from perfsuite.spans import SpanRecorder, _span_wrapper, instrument

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ names


def test_metric_and_workload_names_follow_the_naming_rule():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    entries = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_benchmark_json_bounds_and_run_length():
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= bench["run_seconds"] <= 60


# ----------------------------------------------------------------- checks


def rep(ops, layers=None, wall=1.0):
    return {"ops": dict(ops), "layers": layers or {}, "wall_s": wall}


def test_perturbed_digest_counts_as_one_failed_operation():
    expected = {"ferret/dopp-14bit-1/4": "aa", "ferret/uni-14bit-1/2": "bb"}
    good = rep(expected)
    bad = rep({**expected, "ferret/uni-14bit-1/2": "bc"})
    assert run.check_ops([good, good], expected) == (4, 0)
    assert run.check_ops([good, bad], expected) == (4, 1)


def test_missing_or_unexpected_operation_fails():
    expected = {"a": "1", "b": "2"}
    assert run.check_ops([rep({"a": "1"})], expected) == (2, 1)
    assert run.check_ops([rep({"a": "1", "b": "2", "c": "3"})], expected) == (3, 1)


def layers(**values):
    out = {name: 0 for name, *_ in plan.PER_LAYER}
    out.update({k.replace("__", "."): v for k, v in values.items()})
    return out


def test_work_counts_must_repeat_exactly():
    a = layers(engine__accesses=100, core__dopp__hit_rate=0.5)
    b = layers(engine__accesses=101, core__dopp__hit_rate=0.5)
    slower = dict(a, **{"engine.scan.self_s": 9.0})
    expected = run.work_counts(a)
    assert "engine.scan.self_s" not in expected
    assert run.check_counts([rep({}, a), rep({}, slower)], expected) == (2, 0, [])
    assert run.check_counts([rep({}, a), rep({}, b)], expected) == (
        2, 1, ["engine.accesses"])


def test_zero_work_predictions():
    zero = plan.zero_work("baseline-all")
    assert "core.dopp.insert.calls" in zero
    assert "hierarchy.llc.uni.fill.calls" in zero
    assert "engine.precompute_s" in zero and "workloads.kernel_s" in zero
    assert "hierarchy.llc.baseline.fill.calls" not in zero
    assert plan.zero_work("dopp") == ["obs.tracer.emit.calls"]
    assert plan.zero_work("profiled") == []
    clean = layers(engine__accesses=5)
    dirty = layers(core__tag_array__probe__calls=3)
    assert run.check_work("baseline-all", [rep({}, clean)]) == (1, 0, [])
    assert run.check_work("baseline-all", [rep({}, dirty)]) == (
        1, 1, ["core.tag_array.probe.calls"])


def test_write_path_must_run_on_dopp_write():
    both = layers(core__dopp__writeback__calls=818, core__uni__writeback__calls=10)
    split_only = layers(core__dopp__writeback__calls=818)
    assert run.check_work("dopp", [rep({}, both)]) == (1, 0, [])
    assert run.check_work("dopp", [rep({}, both), rep({}, split_only)]) == (
        2, 1, ["core.uni.writeback.calls"])


def test_residual_must_be_small_and_not_negative():
    ok = rep({}, {"bench.residual_s": 0.02}, wall=2.0)
    negative = rep({}, {"bench.residual_s": -0.01}, wall=2.0)
    large = rep({}, {"bench.residual_s": 0.5}, wall=2.0)
    assert run.check_residual([ok]) == (1, 0)
    assert run.check_residual([ok, negative, large]) == (3, 2)


# ------------------------------------------------------------------ spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_repetition(slow_call: float) -> dict:
    """A repetition's residual from a synthetic span tree.

    The process starts at -0.02; the root span opens at 0 and holds a
    layer span, ``slow_call`` seconds outside any span, and a glue span.
    """
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.enter(worker.ROOT_SPAN)
    for t, name in [(0.01, "harness.run"), (2.0, None),
                    (2.0 + slow_call, "bench.glue"), (2.1 + slow_call, None)]:
        clock.now = t
        rec.enter(name) if name else rec.exit()
    clock.now = 2.11 + slow_call
    wall = rec.exit() + 0.02
    return rep({}, {"bench.residual_s": worker.residual(rec, wall)}, wall=wall)


def test_unwrapped_slow_call_breaks_the_residual_check():
    fine = traced_repetition(slow_call=0.0)
    assert fine["layers"]["bench.residual_s"] == pytest.approx(0.04)
    assert run.check_residual([fine]) == (1, 0)
    slow = traced_repetition(slow_call=1.0)
    assert slow["layers"]["bench.residual_s"] == pytest.approx(1.04)
    assert run.check_residual([fine, slow]) == (2, 1)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9];  root > a [9.5, 10]
    clock = FakeClock()
    rec = SpanRecorder(clock)
    for t, op, name in [(0, "enter", "root"), (1, "enter", "a"), (2, "enter", "b"),
                        (3, "exit", None), (4, "exit", None), (5, "enter", "c"),
                        (9, "exit", None), (9.5, "enter", "a"), (10, "exit", None),
                        (10, "exit", None)]:
        clock.now = t
        rec.enter(name) if op == "enter" else rec.exit()
    assert rec.self_s == {"b": 1.0, "a": 2.5, "c": 4.0, "root": 2.5}
    assert rec.calls == {"b": 1, "a": 2, "c": 1, "root": 1}
    assert rec.total_self() == pytest.approx(10.0)
    assert rec.stack == []


def test_span_wrapper_name_function_can_pass_a_call_through():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    wrapped = _span_wrapper(rec, lambda x: x * 2, lambda args: None if args[0] < 0 else "f")
    assert wrapped(-1) == -2 and rec.calls == {}
    assert wrapped(3) == 6 and rec.calls == {"f": 1}


def test_instrumented_simulation_adds_up_and_predictions_hold():
    from repro.core.tag_array import TagArray
    from repro.harness.runner import ExperimentContext, baseline_spec, dopp_spec

    original = TagArray.__dict__["probe"]
    rec = SpanRecorder()
    patches = instrument(rec, "full")
    try:
        ctx = ExperimentContext(seed=1, scale=0.02, workloads=["jpeg"])
        rec.enter("root")
        ctx.run("jpeg", baseline_spec())
        base_calls = dict(rec.calls)
        ctx.run("jpeg", dopp_spec())
        total = rec.exit()
    finally:
        patches.undo()
    assert TagArray.__dict__["probe"] is original
    assert rec.total_self() == pytest.approx(total)
    assert base_calls["harness.run"] == 1 and base_calls["engine.scan"] == 1
    assert not any(k.startswith(("core.", "hierarchy.llc.dopp")) for k in base_calls)
    assert rec.calls["core.dopp.insert"] > 0
    assert rec.calls["core.tag_array.allocate"] > 0


# ------------------------------------------------------------ entry point


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfsuite"), tmp_path / "perfsuite",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfsuite/run.py", "--workload", "dopp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
