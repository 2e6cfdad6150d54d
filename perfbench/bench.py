"""Run one workload at one seed: time it, check it, report its metrics.

Untraced (``--trace 0``) the harness repeats rounds until ``--seconds``
have passed.  One round is:

1. set-up: clear the process-wide memos, generate the inputs from the
   seed, build the system and warm its cache (``setup_s``);
2. cold run: clear the memos again and serve the trace (``cold_rps``);
3. steady runs: build a fresh system (untimed) and serve the same trace
   with the memos warm (``steady_rps``), ``Workload.steady_runs`` times.

Timings are medians over rounds.  The ``sim_*`` metrics come from the
first cold run; they are deterministic for a seed.

Traced (``--trace 1``) the harness runs one round and then a traced
cold run on a fresh system, and reports the per-layer ledger.

Every run of an invocation must produce the same per-request digest,
complete or shed every request, lose none and report no negative
latency; a failed check makes the invocation exit non-zero.
"""

from __future__ import annotations

import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.retrieval import TextToImageRetrieval
from repro.core.serving import clear_hotpath_memos
from repro.metrics.clipscore import ClipScoreMetric

from perfbench import tracing
from perfbench.metrics import median, tail
from perfbench.workloads import (
    SLO_MULTIPLIER,
    WORKLOADS,
    Inputs,
    Outcome,
    Workload,
    large_solo_latency_s,
)

#: The checkout this file belongs to.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Untraced invocations run at least this many rounds; after that a
#: round starts only if a median round still fits in ``--seconds``.
MIN_ROUNDS = 2


@dataclass
class Check:
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def digest(records) -> str:
    """sha256 over (request id, hit, k, similarity, completion time)."""
    rows = []
    for r in sorted(records, key=lambda r: r.request_id):
        d = r.decision
        done = r.completion_s
        rows.append((
            r.request_id,
            None if d is None else bool(d.hit),
            None if d is None else int(d.k_steps),
            None if d is None else repr(float(d.similarity)),
            None if done is None or done != done else repr(float(done)),
        ))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _done(record) -> bool:
    c = record.completion_s
    return c is not None and c == c


def check_outcome(outcome: Outcome, inputs: Inputs, check: Check,
                  label: str) -> int:
    """Conservation and sanity checks; returns requests lost or errored."""
    attempted = len(inputs.serve)
    records = outcome.records
    completed = sum(1 for r in records if _done(r))
    shed = sum(1 for r in records if r.shed)
    check.expect(len(records) == attempted,
                 f"{label}: {len(records)} records for {attempted} requests")
    check.expect(completed + shed == attempted,
                 f"{label}: completed {completed} + shed {shed} != "
                 f"attempted {attempted}")
    check.expect(outcome.n_lost == 0, f"{label}: n_lost={outcome.n_lost}")
    negative = sum(
        1 for r in records if _done(r) and r.completion_s < r.arrival_s
    )
    check.expect(negative == 0, f"{label}: {negative} negative latencies")
    return max(attempted - completed - shed, outcome.n_lost) + negative


# ----------------------------------------------------------------------
# Simulated (deterministic) metrics
# ----------------------------------------------------------------------
def sim_metrics(outcome: Outcome, inputs: Inputs) -> Dict[str, float]:
    records = outcome.records
    attempted = len(inputs.serve)
    done = [r for r in records if _done(r)]
    latencies = np.array([r.completion_s - r.arrival_s for r in done])
    slo = SLO_MULTIPLIER * large_solo_latency_s()
    hits = [r for r in done if r.decision is not None and r.decision.hit]
    tl = tail(latencies)
    retrieval = TextToImageRetrieval(inputs.space)
    clip = ClipScoreMetric(
        inputs.space, retrieval.text_encoder, retrieval.image_encoder
    )
    return {
        "sim_mean_s": float(latencies.mean()),
        "sim_p50_s": float(np.median(latencies)),
        "sim_tail_s": tl.value,
        "sim_tail_pct": tl.percentile,
        "sim_tail_n_beyond": tl.n_beyond,
        "sim_hit_rate": len(hits) / attempted,
        "sim_slo_attain": int(np.count_nonzero(latencies <= slo)) / attempted,
        "sim_clip": clip.mean_score(outcome.report.images()),
        "n_samples": len(latencies),
    }


def sim_layer_metrics(outcome: Outcome,
                      inputs: Inputs) -> Dict[str, Tuple[float, str]]:
    records = outcome.records
    attempted = len(inputs.serve)
    done = [r for r in records if _done(r)]

    def mean_wait(hit: bool) -> float:
        waits = [
            r.service_start_s - r.enqueued_s
            for r in done
            if r.decision is not None and bool(r.decision.hit) == hit
        ]
        return float(np.mean(waits)) if waits else 0.0

    makespan = max(r.completion_s for r in done)
    workers = outcome.report.workers
    busy = sum(w.busy_seconds for w in workers)
    ks = [r.decision.k_steps for r in done
          if r.decision is not None and r.decision.hit]
    shed = sum(1 for r in records if r.shed)
    degraded = sum(1 for r in records if r.degraded)
    return {
        "sim.queue_wait_miss_mean_s": (mean_wait(False), "sim_s"),
        "sim.queue_wait_hit_mean_s": (mean_wait(True), "sim_s"),
        "sim.worker_busy_frac": (busy / (len(workers) * makespan), "frac"),
        "sim.model_switches": (sum(w.switches for w in workers), "count"),
        "sim.shed_frac": (shed / attempted, "frac"),
        "sim.degraded_frac": (degraded / attempted, "frac"),
        "sim.mean_k": (float(np.mean(ks)) if ks else 0.0, "steps"),
        "core.cluster_router.migrated": (outcome.n_migrated, "count"),
        "core.cluster_router.rerouted": (outcome.n_rerouted, "count"),
    }


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
@dataclass
class Timed:
    setup_s: List[float] = field(default_factory=list)
    inputs_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    steady_s: List[float] = field(default_factory=list)


def _build(workload: Workload, seed: int, work_dir: str,
           timed: Timed) -> Tuple[Inputs, object]:
    clear_hotpath_memos()
    gc.collect()
    t0 = time.perf_counter()
    inputs = workload.make_inputs(seed, workload.size)
    t1 = time.perf_counter()
    system = workload.make_system(inputs, _fresh_dir(work_dir, "setup"))
    t2 = time.perf_counter()
    timed.inputs_s.append(t1 - t0)
    timed.setup_s.append(t2 - t0)
    return inputs, system


def _fresh_dir(work_dir: str, name: str) -> str:
    path = os.path.join(work_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _serve(workload: Workload, system, inputs: Inputs,
           tracer: Optional[tracing.Tracer] = None) -> Tuple[float, Outcome]:
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        outcome = workload.run(system, inputs)
        return time.perf_counter() - t0, outcome
    with tracing.traced(tracer):
        t0 = time.perf_counter()
        with tracer.span(tracing.ROOT_LAYER, "run"):
            outcome = workload.run(system, inputs)
        wall = time.perf_counter() - t0
    return wall, outcome


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    record: Dict


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, out_dir: str) -> Result:
    # Holds the fleet's tiered-cache cold files while the run lasts.
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        return _run(workload, seed, seconds, trace, out_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _round(workload: Workload, seed: int, work_dir: str, timed: Timed,
           verify: Callable[[Outcome, Inputs, str], None]):
    """Set-up, one cold run and the steady runs; returns the inputs, the
    cold outcome and the last steady run's event count."""
    inputs, system = _build(workload, seed, work_dir, timed)
    clear_hotpath_memos(inputs.space)
    wall, cold = _serve(workload, system, inputs)
    del system
    timed.cold_s.append(wall)
    verify(cold, inputs, "cold")
    for i in range(workload.steady_runs):
        system = workload.make_system(inputs, _fresh_dir(work_dir, "steady"))
        wall, steady = _serve(workload, system, inputs)
        timed.steady_s.append(wall)
        verify(steady, inputs, f"steady {i}")
    return inputs, cold, system.loop.processed


def _run(workload: Workload, seed: int, seconds: float, trace: bool,
         out_dir: str, work_dir: str) -> Result:
    check = Check()
    timed = Timed()
    digests: List[Tuple[str, str]] = []
    attempted = 0
    failed = 0

    def verify(outcome: Outcome, inputs: Inputs, label: str) -> None:
        nonlocal attempted, failed
        label = f"round {len(round_s)} {label}"
        failed += check_outcome(outcome, inputs, check, label)
        attempted += len(inputs.serve)
        digests.append((label, digest(outcome.records)))

    start = time.perf_counter()
    round_s: List[float] = []
    while True:
        round_start = time.perf_counter()
        inputs, cold, events = _round(workload, seed, work_dir, timed,
                                      verify)
        if not round_s:
            # Scored after the timed runs of this round.
            sim = sim_metrics(cold, inputs)
            sim_layers = sim_layer_metrics(cold, inputs)
        del cold
        round_s.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if trace or (
            len(round_s) >= MIN_ROUNDS
            and elapsed + median(round_s) > seconds
        ):
            break
    rounds = len(round_s)

    ledger_record = None
    if trace:
        tracer = tracing.Tracer()
        system = workload.make_system(inputs, _fresh_dir(work_dir, "traced"))
        clear_hotpath_memos(inputs.space)
        traced_wall, outcome = _serve(workload, system, inputs, tracer)
        del system
        verify(outcome, inputs, "traced")
        del outcome
        metrics, ledger_record = _per_layer(
            tracer, traced_wall, timed, sim_layers, len(inputs.serve),
            events,
        )
        trace_path = os.path.join(
            out_dir, f"trace-{workload.name}-seed{seed}.json"
        )
        _write_json(trace_path, tracing.chrome_trace(
            tracer.spans, {"workload": workload.name, "seed": seed}
        ))
        ledger_record["chrome_trace"] = trace_path
        del tracer
    else:
        metrics = _end_to_end(timed, sim, len(inputs.serve))

    reference = digests[0][1]
    for label, value in digests[1:]:
        check.expect(value == reference,
                     f"{label} digest {value[:16]} != {reference[:16]}")
    failed += len(check.failures)
    if not trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")

    notes = [
        f"rounds={rounds} served/run={len(inputs.serve)} "
        f"warm={len(inputs.warm)}",
        f"digest {reference}",
        "sim_p50_s={:.4f} sim_tail=p{:g} ({} of {} samples beyond)".format(
            sim["sim_p50_s"], sim["sim_tail_pct"],
            sim["sim_tail_n_beyond"], sim["n_samples"],
        ),
    ] + [f"CHECK FAILED: {f}" for f in check.failures]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "env": environment(seed),
        "rounds": rounds,
        "digest": reference,
        "sim": sim,
        "timings": {k: list(v) for k, v in vars(timed).items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "check_failures": check.failures,
    }
    if ledger_record is not None:
        record["ledger"] = ledger_record
    return Result(
        correct=not check.failures,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
        record=record,
    )


def _end_to_end(timed: Timed, sim: Dict[str, float],
                n_serve: int) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (median(timed.setup_s), "s"),
        "cold_rps": (n_serve / median(timed.cold_s), "1/s"),
        "steady_rps": (n_serve / median(timed.steady_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_mean_s": (sim["sim_mean_s"], "sim_s"),
        "sim_tail_s": (sim["sim_tail_s"], "sim_s"),
        "sim_hit_rate": (sim["sim_hit_rate"], "frac"),
        "sim_slo_attain": (sim["sim_slo_attain"], "frac"),
        "sim_clip": (sim["sim_clip"], "score"),
    }


def _per_layer(tracer: tracing.Tracer, traced_wall: float, timed: Timed,
               sim_layers: Dict[str, Tuple[float, str]], n_serve: int,
               events_processed: int):
    spans = tracer.spans
    costs = tracing.ledger(spans)
    metrics: Dict[str, Tuple[float, str]] = {}
    total_self = 0.0
    rows_ledger = {}
    for layer in tracing.LAYERS:
        cost = costs.get(layer, tracing.LayerCost())
        total_self += cost.self_s
        metrics[f"{layer}.calls"] = (cost.calls, "count")
        metrics[f"{layer}.self_pct"] = (100.0 * cost.self_s / traced_wall, "%")
        rows_ledger[layer] = {"calls": cost.calls, "self_s": cost.self_s,
                              "rows": cost.rows}

    embedding = costs.get("embedding")
    metrics["embedding.rows_per_call"] = (
        embedding.rows / embedding.calls if embedding else 0.0, "rows"
    )
    metrics["core.scheduler.rows_per_decide"] = (
        tracing.rows_per_call(spans, "RequestScheduler.decide_batch"), "rows"
    )
    metrics["core.cluster_router.rows_per_route"] = (
        tracing.rows_per_call(spans, "ClusterRouter.route_batch"), "rows"
    )
    retrieve = tracing.durations_us(
        spans, ("core.cache", "core.tiering"), "retrieve"
    )
    rt = tail(retrieve)
    metrics["cache.retrieve_us_p50"] = (float(np.median(retrieve)), "us")
    metrics["cache.retrieve_us_tail"] = (rt.value, "us")
    metrics["cluster.events.processed_per_req"] = (
        events_processed / n_serve, "count"
    )
    metrics["workloads.trace_s"] = (median(timed.inputs_s), "s")
    metrics.update(sim_layers)
    untraced = median(timed.cold_s)
    metrics["trace.run_s"] = (traced_wall, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall / untraced - 1.0), "%"
    )
    metrics["trace.self_sum_pct"] = (100.0 * total_self / traced_wall, "%")
    metrics["trace.spans"] = (len(spans), "count")
    record = {
        "layers": rows_ledger,
        "traced_wall_s": traced_wall,
        "untraced_cold_wall_s": untraced,
        "retrieve_tail_pct": rt.percentile,
    }
    return metrics, record


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, when it can be asked."""
    import ctypes

    pattern = os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"
    )
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: str) -> Optional[str]:
    """HEAD's commit when ``root`` is a git work tree, read from ``.git``
    directly (no subprocess, nothing read outside ``root``)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> Dict:
    return {
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def _write_json(path: str, payload, indent: Optional[int] = None) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, default=float)


def write_record(out_dir: str, result: Result) -> str:
    rec = result.record
    path = os.path.join(
        out_dir,
        f"result-{rec['workload']}-seed{rec['seed']}-trace{int(rec['trace'])}"
        ".json",
    )
    _write_json(path, rec, indent=1)
    return path


def result_line(result: Result) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    })


def workload_named(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )

