"""Benchmark entry point: one workload, one seed, one measured window.

Usage, from the repository root::

    python3 perfsuite/run.py --workload dopp --seed 7 --seconds 40 --trace 0

Every repetition runs in a fresh process (``perfsuite/worker.py``), one
at a time. A warmup process, kept out of the metrics, comes first: it
compiles and caches bytecode and warms the page cache. Measured rounds
then follow until the next would end past ``--seconds``.

With ``--trace 0`` the warmup only sets up, each round is one full
repetition plus two set-up-only processes, and the last line of
standard output is a JSON object with the end-to-end metrics: medians
over the repetitions (over every set-up sample for ``setup_s``).

With ``--trace 1`` the warmup is a full repetition followed by the
identity check: every simulated (trace, config) replayed under the
reference engine must equal the batched result. Rounds then alternate
a repetition with only the coarse timing wrappers and a traced one,
and the JSON holds the per-layer metrics of the traced repetitions.

A run ends within ``--seconds`` plus :data:`MARGIN_S` seconds or fails:
the margin covers the warmup, the identity check and one round that
runs long.

Checks, each mismatch one failed operation: every operation digest
against the committed one (seed 7) or the first repetition's (other
seeds); with ``--trace 1`` also the identity check, every work count
against the first traced repetition and the committed counts (seed
7), the work predictions (:func:`check_work`), and that the span self
times add up to the wall time within a small residual.

``--record`` (seed 7 only) rewrites this workload's entry in
``reference_seed7.json`` instead of checking against it: a deliberate
change of the simulated model re-records the digests, and says so, in
a change of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfsuite import plan  # noqa: E402

REFERENCE = os.path.join(ROOT, "perfsuite", "reference_seed7.json")
WORK = os.path.join(ROOT, "perfsuite", ".work")
#: Minimum measured repetitions (per kind with ``--trace 1``).
MIN_REPS = {0: 3, 1: 2}
SETUPS_PER_REP = 2
#: Seconds a run may take beyond ``--seconds`` before it fails.
MARGIN_S = 90.0
#: Largest share of a traced repetition's wall time that no layer or
#: benchmark span accounts for (see ``worker.residual``).
MAX_RESIDUAL_SHARE = 0.05


class ChildFailed(RuntimeError):
    """A repetition process failed, timed out or printed no result."""


def child_env() -> dict:
    """The environment of every repetition: pinned hashing and threads.

    ``REPRO_*`` settings are dropped, and bytecode is cached so that
    the warmup's compilation serves every later process.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


class Launcher:
    """Starts repetition processes for one run, one at a time."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.deadline = time.perf_counter() + seconds + MARGIN_S
        self.workdir = os.path.join(WORK, workload)

    def child(self, mode: str = "rep", level: str = "coarse",
              identity: bool = False) -> dict:
        """Run one repetition process and return its result."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed("out of time before the repetition started")
        job = {
            "workload": self.workload, "seed": self.seed, "mode": mode,
            "level": level, "identity": identity, "workdir": self.workdir,
        }
        job["spawn"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfsuite.worker", json.dumps(job)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode}/{level} repetition timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode}/{level} repetition exited {proc.returncode}")
        try:
            return json.loads(lines[-1])
        except ValueError as exc:
            raise ChildFailed(f"{mode}/{level} repetition printed no result") from exc


def measure(launcher: Launcher, seconds: float, traced: bool):
    """Warmup, then measured rounds until the window is spent.

    The warmup of a traced run is a full repetition followed by the
    identity check; an untraced run warms up with a set-up-only
    process, which imports, compiles and reads every module a
    repetition does. Returns ``(warmup, reps, setups, traced_reps)``.
    """
    warmup = launcher.child(identity=True) if traced else launcher.child(mode="setup")
    reps, setups, traced_reps = [], [], []
    rounds = []
    end = time.perf_counter() + seconds
    while True:
        done = len(traced_reps if traced else reps)
        now = time.perf_counter()
        if done >= MIN_REPS[traced] and rounds and now + median(rounds) > end:
            break
        reps.append(launcher.child())
        if traced:
            traced_reps.append(launcher.child(level="full"))
        else:
            setups.extend(launcher.child(mode="setup") for _ in range(SETUPS_PER_REP))
        rounds.append(time.perf_counter() - now)
    return warmup, reps, setups, traced_reps


def check_ops(reps, expected: dict):
    """``(attempted, failed)`` of every operation digest against ``expected``.

    An operation missing from a repetition, or one ``expected`` lacks,
    fails too.
    """
    attempted = failed = 0
    for rep in reps:
        for key in sorted(set(expected) | set(rep["ops"])):
            attempted += 1
            if rep["ops"].get(key) != expected.get(key):
                failed += 1
    return attempted, failed


def work_counts(layers: dict) -> dict:
    """The deterministic work counts among a repetition's layer metrics."""
    return {name: layers[name] for name, unit, _ in plan.PER_LAYER
            if plan.is_work_count(name, unit)}


def check_counts(traced_reps, expected: dict):
    """``(attempted, failed, names)``: each repetition's counts vs ``expected``."""
    attempted = failed = 0
    names = set()
    for rep in traced_reps:
        attempted += 1
        counts = work_counts(rep["layers"])
        diff = sorted(n for n in set(counts) | set(expected)
                      if counts.get(n) != expected.get(n))
        if diff:
            failed += 1
            names.update(diff)
    return attempted, failed, sorted(names)


def check_work(workload: str, traced_reps):
    """``(attempted, failed, names)`` of the work predictions.

    The metrics of :func:`perfsuite.plan.zero_work` must be 0, and the
    workload's ``nonzero`` counts, the work it exists to drive, above 0.
    """
    w = plan.WORKLOADS[workload]
    attempted = failed = 0
    names = set()
    for rep in traced_reps:
        attempted += 1
        layers = rep["layers"]
        wrong = ([n for n in plan.zero_work(workload) if layers[n] != 0]
                 + [n for n in w.nonzero if layers[n] == 0])
        if wrong:
            failed += 1
            names.update(wrong)
    return attempted, failed, sorted(names)


def check_residual(traced_reps):
    """``(attempted, failed)``: self times must add up to the wall time."""
    failed = 0
    for rep in traced_reps:
        residual = rep["layers"]["bench.residual_s"]
        if not 0.0 <= residual <= MAX_RESIDUAL_SHARE * rep["wall_s"]:
            failed += 1
    return len(traced_reps), failed


def end_to_end(reps, setups) -> dict:
    """The end-to-end metrics of the measured repetitions."""
    values = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "accesses_per_s": median([r["accesses"] / r["sim_s"] for r in reps]),
        "setup_s": median([r["setup_s"] for r in reps + setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in plan.END_TO_END}


def per_layer(reps, traced_reps) -> dict:
    """Per-layer metrics: medians of times, counts of the first traced rep."""
    out = {}
    for name, unit, _ in plan.PER_LAYER:
        if name == "bench.trace_overhead":
            value = (median([r["wall_s"] for r in traced_reps])
                     / median([r["wall_s"] for r in reps]))
        elif plan.is_work_count(name, unit):
            value = traced_reps[0]["layers"][name]
        else:
            value = median([r["layers"][name] for r in traced_reps])
        out[name] = {"value": value, "unit": unit}
    return out


def load_reference() -> dict:
    """The committed digests and work counts for the pinned seed."""
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def record(workload: str, digests: dict, traced_rep: dict) -> None:
    """Write this workload's digests and work counts as the reference."""
    ref = load_reference()
    ref[workload] = {"digests": digests,
                     "counts": work_counts(traced_rep["layers"])}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite reference_seed7.json for this workload")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the simulator's sources (src/repro) are missing", file=sys.stderr)
        return 2
    if args.record and (args.seed != plan.PINNED_SEED or not args.trace):
        print(f"error: --record needs --seed {plan.PINNED_SEED} --trace 1",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    launcher = Launcher(args.workload, args.seed, args.seconds)
    try:
        warmup, reps, setups, traced_reps = measure(launcher, args.seconds, traced)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(launcher.workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    pinned = args.seed == plan.PINNED_SEED and not args.record
    ref = load_reference().get(args.workload, {}) if pinned else {}
    expected = ref.get("digests", reps[0]["ops"])
    checked = reps + traced_reps + ([warmup] if traced else [])
    attempted, failed = check_ops(checked, expected)
    problems = []
    if traced:
        identity = warmup["identity"]
        attempted += identity["attempted"]
        failed += len(identity["failed"])
        problems += [f"identity check failed: {k}" for k in identity["failed"]]
        first = work_counts(traced_reps[0]["layers"])
        checks = [
            ("work counts differ between repetitions",
             check_counts(traced_reps, first)),
            ("work predictions broken", check_work(args.workload, traced_reps)),
        ]
        if "counts" in ref:
            checks.append(("work counts differ from the committed ones",
                           check_counts(traced_reps, ref["counts"])))
        for what, (a, f, names) in checks:
            attempted += a
            failed += f
            if f:
                problems.append(f"{what}: {', '.join(names)}")
        a, f = check_residual(traced_reps)
        attempted += a
        failed += f
        if f:
            problems.append("span self times do not add up to the wall time")
    if failed and not problems:
        problems.append("operation digests differ")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    if args.record and not failed:
        record(args.workload, reps[0]["ops"], traced_reps[0])
    metrics = per_layer(reps, traced_reps) if traced else end_to_end(reps, setups)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
    print(f"{args.workload}: {len(reps)} repetitions (wall_s {walls}), "
          f"{len(traced_reps)} traced, {len(setups)} set-up only", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
