"""One repetition of a benchmark workload, in a process of its own.

``run.py`` starts ``python3 -m perfsuite.worker '<job json>'`` once per
repetition, one at a time, and reads the single JSON line this prints
last. A repetition imports the simulator, sets up (synthesis, traces,
per-trace precompute), runs the workload's operations and reports:

* ``wall_s`` — from the moment ``run.py`` started the process (the
  ``spawn`` field; both processes read the same monotonic clock) to
  the end of the last operation;
* ``setup_s`` — start-up and imports plus the self time of every
  set-up span (``workloads.build``, ``workloads.trace``,
  ``engine.precompute``), wherever the program made those calls; the
  precompute runs only for workloads with a Doppelgänger LLC, as in
  the program, whose baseline LLC never uses it;
* ``sim_s`` and ``accesses`` — self time of ``ExperimentContext.run``
  spans and the trace accesses of the records they produced;
* ``peak_rss_mb`` — this process's peak resident set at that moment;
* ``ops`` — a digest per operation of ``SystemResult.to_dict()``, the
  energy report and the error value (tables digest their rows);
* ``layers`` — the per-layer metrics, at the ``full`` level only.

Job fields: ``workload``, ``seed``, ``spawn``, ``workdir``, ``mode``
(``rep`` or ``setup``: stop after set-up), ``level`` (``coarse`` or
``full``, see :mod:`perfsuite.spans`) and ``identity`` (afterwards,
replay every simulated (trace, config) under the reference engine and
compare it with the batched result; untimed).
"""

import time

T_MAIN = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from perfsuite import plan  # noqa: E402
from perfsuite.spans import SpanRecorder, instrument  # noqa: E402

SETUP_SPANS = ("workloads.build", "workloads.trace", "engine.precompute")
#: The span around a whole repetition; its self time is unattributed.
ROOT_SPAN = "bench.repetition"
#: The benchmark's own work inside a repetition: gc, digests, files.
GLUE_SPAN = "bench.glue"


def digest(obj) -> str:
    """SHA-256 of a JSON value, keys sorted, floats at full precision."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_digest(record, error) -> str:
    """Digest of one simulated (app, config) and its output error."""
    return digest({
        "system": record.system.to_dict(),
        "energy": record.energy.to_dict(),
        "error": error,
    })


def capture_runs(runner, captured: dict) -> None:
    """Keep every RunRecord ``ExperimentContext.run`` returns, by (app, label)."""
    run = runner.ExperimentContext.run

    def capturing(ctx, name, spec):
        record = run(ctx, name, spec)
        captured.setdefault((name, record.spec.label()), record)
        return record

    runner.ExperimentContext.run = capturing


def collect(rec: SpanRecorder) -> None:
    """``gc.collect()`` before a timed operation, in a span of its own."""
    with rec.span(GLUE_SPAN):
        gc.collect()


def set_up(w: plan.Workload, ctx) -> None:
    """Synthesize and trace every app; precompute where an LLC uses it."""
    import repro.engine.precompute as precompute

    for app in w.apps:
        trace = ctx.trace(app)
        if w.approximate:
            precompute.map_seed_pairs(trace)
            precompute.quantize_region_values(trace)


def sweep(w: plan.Workload, rec: SpanRecorder, ctx, ops: dict, errors: dict) -> None:
    """Run a sweep workload: each (app, config), its error, the table."""
    import repro.harness.experiments as experiments
    from repro.harness.runner import ConfigSpec

    for app in w.apps:
        for kind, bits, fraction in w.configs:
            spec = ConfigSpec(kind, bits, fraction)
            collect(rec)
            ctx.run(app, spec)
            if w.errors:
                collect(rec)
                errors[f"{app}/{spec.label()}"] = ctx.error(app, spec)
    if w.table:
        collect(rec)
        table = getattr(experiments, w.table)(ctx)
        with rec.span(GLUE_SPAN):
            ops[w.table] = digest([table.title, table.headers, table.rows])


def profiled(w: plan.Workload, rec: SpanRecorder, seed: int, workdir: str,
             ops: dict) -> None:
    """Run the workload's ``repro`` command line in this process."""
    import repro.cli as cli

    with rec.span(GLUE_SPAN):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
    argv = list(w.cli) + [
        "--seed", str(seed), "--json-out", workdir,
        "--store", os.path.join(workdir, "history.db"),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {status}: {err.getvalue()}")
    with rec.span(GLUE_SPAN), open(os.path.join(workdir, f"{w.cli[1]}.json")) as fh:
        ops[w.cli[1]] = digest(json.load(fh)["tables"])


def identity_check(w: plan.Workload, seed: int, captured: dict) -> list:
    """(trace, config) pairs whose reference replay differs from batched."""
    from repro.harness.runner import ExperimentContext
    from repro.obs import Observability

    # The profiled workload simulates with a tracer attached, which
    # sends the batched engine down its adapter paths; replay alike.
    obs = Observability(enabled=True, ring_capacity=16) if w.cli else None
    ref = ExperimentContext(seed=seed, scale=plan.SCALE, workloads=list(w.apps),
                            engine="reference", obs=obs)
    bad = []
    for (name, label), record in list(captured.items()):
        other = ref.run(name, record.spec)
        same = (other.system.to_dict() == record.system.to_dict()
                and other.energy.to_dict() == record.energy.to_dict())
        if not same:
            bad.append(f"{name}/{label}")
    return bad


def dopp_stats(records) -> Counter:
    """Summed DoppelgangerStats counters over the records' LLCs."""
    total: Counter = Counter()
    for record in records:
        cache = getattr(record.llc, "dopp", None) or getattr(record.llc, "uni", None)
        if cache is not None:
            total.update(cache.stats.as_dict())
    return total


def ratio(num, den) -> float:
    """``num / den``, or 0.0 for no work."""
    return num / den if den else 0.0


def residual(rec: SpanRecorder, wall_s: float) -> float:
    """Wall time no layer or benchmark span accounts for.

    That is the start-up before the worker's first statement plus the
    self time of the root span ``bench.repetition``: every call the
    benchmark makes between spans, and any slow call left unwrapped.
    """
    return wall_s - rec.total_self() + rec.self_s.get(ROOT_SPAN, 0.0)


def layer_metrics(rec: SpanRecorder, records, workdir: str, wall_s: float) -> dict:
    """The per-layer metrics of one repetition (all but the trace overhead)."""
    out = {}
    for name, unit, _ in plan.PER_LAYER:
        if name.endswith(".calls"):
            span = name[: -len(".calls")]
            out[name] = rec.calls.get(span, rec.counts.get(span, 0))
        elif name.endswith(".self_s"):
            out[name] = rec.self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith("_s"):
            out[name] = rec.self_s.get(name[: -len("_s")], 0.0)
    out["bench.residual_s"] = residual(rec, wall_s)

    engine = {"accesses": 0, "slow": 0}
    fast = {name[len("engine.fast."):]: 0 for name, *_ in plan.PER_LAYER
            if name.startswith("engine.fast.")}
    system = {"llc_misses": 0, "llc_accesses": 0, "back_invalidations": 0,
              "traffic_bytes": 0}
    for record in records:
        stats = record.engine_stats or {}
        engine["accesses"] += stats.get("accesses", 0)
        engine["slow"] += sum(stats.get("slow", {}).values())
        for k in fast:
            fast[k] += stats.get("fast", {}).get(k, 0)
        sysdict = record.system.to_dict()
        for k in system:
            system[k] += sysdict[k]
    out["engine.accesses"] = engine["accesses"]
    out["engine.slow_fraction"] = ratio(engine["slow"], engine["accesses"])
    for k, v in fast.items():
        out[f"engine.fast.{k}"] = v
    out["hierarchy.llc_miss_rate"] = ratio(system["llc_misses"], system["llc_accesses"])
    out["hierarchy.back_invalidations"] = system["back_invalidations"]
    out["hierarchy.traffic_bytes"] = system["traffic_bytes"]

    d = dopp_stats(records)
    out["core.dopp.hit_rate"] = ratio(d["hits"], d["accesses"])
    out["core.dopp.shared_insert_ratio"] = ratio(d["shared_insertions"], d["insertions"])
    out["core.dopp.tags_per_data_eviction"] = ratio(
        d["tags_at_data_eviction"], d["data_evictions"])
    out["core.dopp.write_moved_ratio"] = ratio(
        d["write_moved"], d["write_moved"] + d["write_same_map"])

    events = size = 0
    if os.path.isdir(workdir):
        for fname in sorted(os.listdir(workdir)):
            if fname.endswith(".jsonl"):
                path = os.path.join(workdir, fname)
                size += os.path.getsize(path)
                with open(path, "rb") as fh:
                    events += sum(1 for _ in fh)
    out["obs.jsonl_events"] = events
    out["obs.jsonl_bytes"] = size
    return out


def main(argv) -> int:
    job = json.loads(argv[1])
    w = plan.WORKLOADS[job["workload"]]
    seed = job["seed"]
    rec = SpanRecorder()
    rec.stack.append([ROOT_SPAN, T_MAIN, 0.0])

    rec.enter("bench.import")
    import repro.engine.precompute  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.harness.runner as runner

    if w.cli:
        import repro.cli  # noqa: F401

    instrument(rec, job["level"])
    captured: dict = {}
    capture_runs(runner, captured)
    rec.exit()
    imports_done = time.perf_counter()
    collect(rec)

    ops: dict = {}
    errors: dict = {}
    if job["mode"] == "setup" or not w.cli:
        ctx = runner.ExperimentContext(seed=seed, scale=plan.SCALE,
                                       workloads=list(w.apps), engine="batched")
        set_up(w, ctx)
    if job["mode"] == "rep":
        if w.cli:
            profiled(w, rec, seed, job["workdir"], ops)
        else:
            sweep(w, rec, ctx, ops, errors)
    wall_s = T_MAIN + rec.exit() - job["spawn"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = imports_done - job["spawn"] + sum(rec.self_s.get(s, 0.0) for s in SETUP_SPANS)
    result = {"setup_s": setup_s}
    if job["mode"] == "rep":
        records = list(captured.values())
        for (name, label), record in captured.items():
            key = f"{name}/{label}"
            ops[key] = record_digest(record, errors.get(key))
        result.update(
            wall_s=wall_s,
            sim_s=rec.self_s.get("harness.run", 0.0),
            accesses=sum(record.accesses for record in records),
            peak_rss_mb=peak_rss_mb,
            ops=ops,
        )
        if job["level"] == "full":
            result["layers"] = layer_metrics(rec, records, job["workdir"], wall_s)
        if job["identity"]:
            result["identity"] = {
                "attempted": len(captured),
                "failed": identity_check(w, seed, captured),
            }
    if w.cli:
        shutil.rmtree(job["workdir"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
