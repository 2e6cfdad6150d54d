"""The benchmark's workloads: inputs from a seed, system build, one run.

Each workload is an open-loop arrival schedule in *simulated* time; in
wall time a run is one batch served as fast as the CPU allows.  A
workload builds its inputs (semantic space and trace) from the seed,
builds and warms a fresh serving system, and serves the trace once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.cluster.arrivals import poisson_arrivals
from repro.core.cluster_router import modm_cluster
from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    ClusterRoutingConfig,
    FailureEvent,
    FailurePlan,
    JournalConfig,
    MoDMConfig,
    SLOClass,
    SLOPolicy,
)
from repro.core.serving import MoDMSystem
from repro.core.tiering import TieredCacheConfig
from repro.diffusion.registry import get_model
from repro.embedding.space import SemanticSpace
from repro.workloads import (
    DiffusionDBConfig,
    MJHQConfig,
    diffusiondb_trace,
    mjhq_trace,
)
from repro.workloads.prompts import Prompt
from repro.workloads.trace import Trace

#: Every workload serves on 16 MI210 GPUs, large model sd3.5-large.
CLUSTER = ClusterConfig(gpu_name="MI210", n_workers=16)
LARGE_MODEL = "sd3.5-large"

#: SLO deadline: this multiple of the large model's solo latency.
SLO_MULTIPLIER = 2.0


@dataclass(frozen=True)
class Size:
    """How many prompts warm the cache and how many requests are served."""

    n_warm: int
    n_serve: int


@dataclass
class Inputs:
    """What a seed generates: the space, warm-up prompts and served trace."""

    space: SemanticSpace
    warm: List[Prompt]
    serve: Trace

    @property
    def span_s(self) -> float:
        """Simulated seconds spanned by the served arrivals."""
        return self.serve.requests[-1].arrival_s


@dataclass
class Outcome:
    """One run's records plus the fleet-only accounting."""

    records: list
    report: object  # ServingReport (the fleet report for a cluster)
    n_lost: int = 0
    n_rerouted: int = 0
    n_migrated: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    size: Size
    make_inputs: Callable[[int, Size], Inputs]
    make_system: Callable[[Inputs, str], object]
    run: Callable[[object, Inputs], Outcome]
    #: Steady runs per round.  More than one where a steady run is short
    #: and its rebuild cheap, so the median rests on more samples.
    steady_runs: int = 1


def large_solo_latency_s() -> float:
    """Solo service time of one full large-model generation."""
    large = get_model(LARGE_MODEL)
    return large.service_time_s(CLUSTER.gpu_name, large.total_steps)


def _large_capacity_rpm() -> float:
    large = get_model(LARGE_MODEL)
    return CLUSTER.n_workers * large.throughput_rpm(
        CLUSTER.gpu_name, large.total_steps
    )


def _split(space: SemanticSpace, trace: Trace, size: Size) -> Inputs:
    warm = [r.prompt for r in trace.requests[: size.n_warm]]
    serve = trace.slice(size.n_warm, size.n_warm + size.n_serve).rebase()
    return Inputs(space=space, warm=warm, serve=serve)


def _diffusiondb(name: str, seed: int, size: Size) -> Inputs:
    space = SemanticSpace()
    trace = diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=size.n_warm + size.n_serve,
            seed=f"perfbench/{name}/{seed}",
        ),
    )
    return _split(space, trace, size)


def _poisson(inputs: Inputs, name: str, seed: int, rate_rpm: float) -> Inputs:
    """``inputs`` with the served requests re-timed as a Poisson process."""
    arrivals = poisson_arrivals(
        rate_rpm, len(inputs.serve), seed=f"perfbench/{name}/{seed}/arrivals"
    )
    return replace(inputs, serve=inputs.serve.with_arrivals(arrivals))


def _serve_single(system: MoDMSystem, inputs: Inputs) -> Outcome:
    report = system.run(inputs.serve)
    return Outcome(records=report.records, report=report)


# ----------------------------------------------------------------------
# hit-heavy: paper-sized exact cache, read-mostly, native trace rate.
# ----------------------------------------------------------------------
HIT_CACHE = 10_000


def _hit_inputs(seed: int, size: Size) -> Inputs:
    return _diffusiondb("hit-heavy", seed, size)


def _hit_system(inputs: Inputs, work_dir: str) -> MoDMSystem:
    system = MoDMSystem(
        inputs.space,
        MoDMConfig(
            cluster=CLUSTER,
            large_model=LARGE_MODEL,
            cache_capacity=HIT_CACHE,
            cache_admission=CacheAdmission.LARGE_ONLY,
        ),
    )
    system.warm_cache(inputs.warm)
    return system


# ----------------------------------------------------------------------
# overload-slo: MJHQ-like trace (no temporal locality), Poisson arrivals
# far above the large pool's capacity, small admit-all cache, SLO gate.
# ----------------------------------------------------------------------
OVERLOAD_FACTOR = 4.5
OVERLOAD_CACHE = 500


def _overload_inputs(seed: int, size: Size) -> Inputs:
    space = SemanticSpace()
    n = size.n_warm + size.n_serve
    # Generated 3x larger than used, as the experiment harness does, so
    # most of a prompt's family mates fall outside the served window.
    full = mjhq_trace(
        space,
        MJHQConfig(n_prompts=3 * n, seed=f"perfbench/overload-slo/{seed}"),
    )
    return _poisson(
        _split(space, full.slice(0, n), size), "overload-slo", seed,
        OVERLOAD_FACTOR * _large_capacity_rpm(),
    )


def _overload_system(inputs: Inputs, work_dir: str) -> MoDMSystem:
    system = MoDMSystem(
        inputs.space,
        MoDMConfig(
            cluster=CLUSTER,
            large_model=LARGE_MODEL,
            small_models=("sdxl", "sana-1.6b"),
            cache_capacity=OVERLOAD_CACHE,
            cache_admission=CacheAdmission.ALL,
            slo=SLOPolicy(
                classes=(
                    SLOClass(name="standard", multiplier=SLO_MULTIPLIER),
                ),
                edf=True,
                admission=True,
                degrade=True,
                monitor_pressure=True,
            ),
        ),
    )
    system.warm_cache(inputs.warm)
    return system


# ----------------------------------------------------------------------
# fleet-failover: four cache_affinity replicas on tiered IVF caches, two
# fate-shared replicas killed mid-trace and restarted cold.
# ----------------------------------------------------------------------
FLEET_REPLICAS = 4
FLEET_CACHE = 4_000
FLEET_RATE_RPM = 14.0


def _fleet_inputs(seed: int, size: Size) -> Inputs:
    return _poisson(
        _diffusiondb("fleet-failover", seed, size), "fleet-failover", seed,
        FLEET_RATE_RPM,
    )


def _fleet_system(inputs: Inputs, work_dir: str):
    kill_t = 0.35 * inputs.span_s
    restart_t = 0.50 * inputs.span_s
    fleet = modm_cluster(
        inputs.space,
        MoDMConfig(
            cluster=CLUSTER,
            large_model=LARGE_MODEL,
            small_models=("sdxl",),
            cache_capacity=FLEET_CACHE,
            retrieval_backend="ivf",
            cache_tiering=TieredCacheConfig(cold_dir=work_dir),
            journal=JournalConfig(snapshot_period_s=kill_t / 4.0),
        ),
        ClusterRoutingConfig(
            n_replicas=FLEET_REPLICAS,
            policy="cache_affinity",
            autoscale=True,
            failures=FailurePlan(
                events=(
                    FailureEvent(time_s=kill_t, replica=1, action="kill"),
                    FailureEvent(
                        time_s=restart_t, replica=1, action="restart",
                        warm=False,
                    ),
                    FailureEvent(
                        time_s=restart_t, replica=2, action="restart",
                        warm=False,
                    ),
                ),
                recovery_window_s=max(60.0, 0.3 * inputs.span_s),
                fate_groups=((1, 2),),
            ),
            migration_policy="nearest_centroid",
        ),
    )
    fleet.warm_cache(inputs.warm)
    return fleet


def _serve_fleet(fleet, inputs: Inputs) -> Outcome:
    report = fleet.run(inputs.serve)
    return Outcome(
        records=report.fleet.records,
        report=report.fleet,
        n_lost=report.n_lost,
        n_rerouted=report.n_rerouted,
        n_migrated=sum(f.n_migrated for f in report.failures),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hit-heavy",
            size=Size(n_warm=HIT_CACHE, n_serve=3_000),
            make_inputs=_hit_inputs,
            make_system=_hit_system,
            run=_serve_single,
        ),
        Workload(
            name="overload-slo",
            size=Size(n_warm=OVERLOAD_CACHE, n_serve=6_000),
            make_inputs=_overload_inputs,
            make_system=_overload_system,
            run=_serve_single,
            steady_runs=3,
        ),
        Workload(
            name="fleet-failover",
            size=Size(n_warm=FLEET_CACHE, n_serve=3_000),
            make_inputs=_fleet_inputs,
            make_system=_fleet_system,
            run=_serve_fleet,
        ),
    )
}
