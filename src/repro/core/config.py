"""Configuration objects for serving systems."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from repro._rng import seed_for
from repro.core.ann import RETRIEVAL_BACKENDS
from repro.core.cache import EVICTION_POLICIES
from repro.core.tiering import TieredCacheConfig
from repro.diffusion.registry import GPU_SPECS


class MonitorMode(str, Enum):
    """Operating modes of the Global Monitor (§5.3)."""

    QUALITY = "quality"
    THROUGHPUT = "throughput"


class CacheAdmission(str, Enum):
    """Which generated images enter the cache (§5.4).

    ``ALL`` caches every generated image (MoDM's default — §A.6 shows no
    quality loss); ``LARGE_ONLY`` caches only large-model outputs (the
    ``cache-large`` configurations of Figs. 9/14/19); ``NONE`` disables
    admission (static warm cache only).
    """

    ALL = "all"
    LARGE_ONLY = "large"
    NONE = "none"


@dataclass(frozen=True)
class SLOClass:
    """One priority class of an :class:`SLOPolicy`.

    A request's deadline is ``arrival + multiplier x solo_latency`` (the
    paper's Figs. 12-13 thresholds are 2x / 4x the large model's solo
    inference time) or ``arrival + deadline_s`` when an absolute deadline
    is given — an absolute deadline takes precedence over the multiplier.

    ``priority`` orders classes at dispatch (lower pops first);
    ``sheddable``/``degradable`` bound what admission control may do to a
    doomed request of this class: a non-degradable request never leaves
    its primary serving path, and a non-sheddable request is served even
    when every path misses its deadline (it just runs late).
    """

    name: str
    priority: int = 0
    multiplier: Optional[float] = 2.0
    deadline_s: Optional[float] = None
    share: float = 1.0
    sheddable: bool = True
    degradable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO class needs a name")
        if self.deadline_s is None:
            if self.multiplier is None or self.multiplier <= 0:
                raise ValueError(
                    f"class {self.name!r} needs a positive multiplier or "
                    "an absolute deadline_s"
                )
        elif self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.share <= 0:
            raise ValueError("share must be positive")

    def deadline_budget_s(self, solo_latency_s: float) -> float:
        """Seconds from arrival to this class's deadline."""
        if self.deadline_s is not None:
            return self.deadline_s
        return self.multiplier * solo_latency_s


@dataclass(frozen=True)
class SLOPolicy:
    """Opt-in SLO subsystem configuration (deadlines, admission, EDF).

    Attaching a policy to a serving system turns on, independently:

    * ``edf`` — the ready queues order by ``(priority, deadline)`` with
      insertion order breaking ties (earliest-deadline-first within a
      priority band) instead of pure FIFO;
    * ``degrade`` — requests whose primary path cannot meet their slack
      are re-routed to the cache-hit/small-model path (DiffServe-style
      cascade) where the system has one;
    * ``admission`` — requests no path can serve in time are shed at
      arrival with a typed rejection instead of queueing doomed work;
    * ``monitor_pressure`` — the Global Monitor reads window-level SLO
      pressure (sheds, lates, violations) and biases its allocation
      toward the small model under pressure.

    With all four off the policy is observe-only: deadlines are assigned
    and violation accounting is reported, but every scheduling decision is
    identical to running without a policy.  ``classes`` are weighted by
    ``share``; each request is assigned a class deterministically by
    hashing ``(assignment_seed, request_id)``, so traces re-serve
    identically across runs and systems.  ``slack_margin_s`` is a safety
    margin subtracted from the available slack in every feasibility check
    (a path is "in time" only if it beats the deadline by the margin).
    """

    classes: Tuple[SLOClass, ...] = (SLOClass(name="standard"),)
    edf: bool = True
    admission: bool = True
    degrade: bool = True
    monitor_pressure: bool = True
    degrade_threshold_shift: float = 0.05
    slack_margin_s: float = 0.0
    assignment_seed: str = "slo-class"

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("SLOPolicy needs at least one class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO class names: {names}")
        if self.slack_margin_s < 0:
            raise ValueError("slack_margin_s must be non-negative")
        if self.degrade_threshold_shift < 0:
            raise ValueError(
                "degrade_threshold_shift must be non-negative (it is "
                "subtracted from the selector thresholds)"
            )

    def class_named(self, name: str) -> SLOClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(
            f"unknown SLO class {name!r}; "
            f"available: {[c.name for c in self.classes]}"
        )

    def class_of(self, request_id: int) -> SLOClass:
        """Deterministic share-weighted class assignment for a request."""
        if len(self.classes) == 1:
            return self.classes[0]
        total = sum(cls.share for cls in self.classes)
        draw = (
            seed_for(self.assignment_seed, request_id) / 2**64
        ) * total
        acc = 0.0
        for cls in self.classes:
            acc += cls.share
            if draw < acc:
                return cls
        return self.classes[-1]  # pragma: no cover - float edge


@dataclass(frozen=True)
class JournalConfig:
    """Opt-in event journaling and periodic state snapshots.

    Attaching one to :class:`MoDMConfig` makes the engine append a
    compact columnar record of every arrival, decision, dispatch,
    completion, and allocation to an :class:`~repro.core.journal.
    EventJournal`, and — when ``snapshot_period_s > 0`` — capture a full
    :class:`~repro.core.journal.Snapshot` every period so the run can be
    restored and resumed bit-identically from any snapshot.  Journaling
    never changes simulation behaviour: with it off (the default) every
    code path is byte-identical to the journal-free engine, and with it
    on the produced report is the same report.
    """

    snapshot_period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.snapshot_period_s < 0:
            raise ValueError(
                "snapshot_period_s must be >= 0 (0 = journal only, "
                "no periodic snapshots)"
            )


@dataclass(frozen=True)
class FailureEvent:
    """One deterministic failure-schedule entry.

    ``action="kill"`` halts the replica at ``time_s`` — its in-flight
    and queued requests are orphaned and re-routed across the
    survivors.  ``action="restart"`` brings a dead replica back: cold
    (empty cache) or, with ``warm=True``, warm-restored from the
    replica's last periodic cache snapshot (falling back to cold when
    none exists yet).
    """

    time_s: float
    replica: int
    action: str = "kill"
    warm: bool = True

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("time_s must be non-negative")
        if self.replica < 0:
            raise ValueError("replica must be non-negative")
        if self.action not in ("kill", "restart"):
            raise ValueError(
                f"unknown failure action {self.action!r}; "
                "choose 'kill' or 'restart'"
            )


@dataclass(frozen=True)
class FailurePlan:
    """Config-driven kill/restart schedule for the cluster layer.

    Deterministic by construction: events fire at fixed simulation
    times, so a failure run is as reproducible as a healthy one.
    ``recovery_window_s`` sizes the hit-rate windows of the recovery
    report (hit rate over the window before each kill, and over the
    window after each restart).

    ``fate_groups`` model rack-style fate sharing: each group is a
    tuple of replica indices that die together — when any member is
    killed, every other member of its group is killed at the same
    instant (lowest index first).  Restarts are unaffected; each
    member needs its own restart event to rejoin.
    """

    events: Tuple[FailureEvent, ...] = ()
    recovery_window_s: float = 300.0
    fate_groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.recovery_window_s <= 0:
            raise ValueError("recovery_window_s must be positive")
        for group in self.fate_groups:
            if len(group) < 2:
                raise ValueError(
                    "each fate group needs at least two replicas"
                )
            if len(set(group)) != len(group):
                raise ValueError(
                    f"duplicate replica in fate group {group}"
                )
            if any(idx < 0 for idx in group):
                raise ValueError("fate group replicas must be >= 0")


def correlated_group(
    time_s: float,
    replicas: Tuple[int, ...],
    action: str = "kill",
    warm: bool = True,
) -> Tuple[FailureEvent, ...]:
    """Simultaneous failure events for several replicas.

    The rack-loss / correlated-failure building block: every listed
    replica gets the same ``action`` at the same instant, in replica
    order (which is also the deterministic firing order at that tick).
    """
    return tuple(
        FailureEvent(
            time_s=time_s, replica=idx, action=action, warm=warm
        )
        for idx in replicas
    )


def cascade(
    time_s: float,
    replicas: Tuple[int, ...],
    delay_s: float,
    p: float = 1.0,
    seed: str = "cascade",
) -> Tuple[FailureEvent, ...]:
    """A cascading kill schedule: one failure triggers the next.

    The first replica dies at ``time_s``; each subsequent replica dies
    ``delay_s`` later than the previous *included* kill, with
    probability ``p`` (drawn deterministically from ``seed`` and the
    replica's position, so the same schedule reproduces bit-for-bit).
    ``p=1.0`` is a full restart-storm over every listed replica.
    """
    if delay_s < 0:
        raise ValueError("delay_s must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    events = []
    t = time_s
    for position, idx in enumerate(replicas):
        if position > 0:
            draw = seed_for(seed, position) / 2**64
            if draw >= p:
                continue
            t += delay_s
        events.append(FailureEvent(time_s=t, replica=idx, action="kill"))
    return tuple(events)


#: Routing policies the cluster router implements
#: (``core/cluster_router.py`` keeps the matching registry).
ROUTING_POLICIES: Tuple[str, ...] = (
    "round_robin",
    "least_loaded",
    "cache_affinity",
)

#: Cache migration policies for replica kills
#: (``core/cluster_router.py`` keeps the matching registry).
#: ``none`` drops a dead replica's cache (the historical default);
#: ``nearest_centroid`` sends each entry of its last cache snapshot to
#: the survivor whose centroid sketch is semantically nearest;
#: ``round_robin`` deals entries across survivors in turn.
MIGRATION_POLICIES: Tuple[str, ...] = (
    "none",
    "nearest_centroid",
    "round_robin",
)


@dataclass(frozen=True)
class ClusterRoutingConfig:
    """Multi-replica serving layer configuration.

    ``n_replicas`` serving engines run under one shared event clock,
    fronted by a router running ``policy``:

    * ``round_robin`` — arrival order modulo replica count;
    * ``least_loaded`` — fewest queued + in-service requests, lowest
      replica index breaking ties;
    * ``cache_affinity`` — the replica whose cache-centroid sketch is
      nearest the request embedding, capped by load imbalance: when the
      chosen replica's load exceeds ``imbalance_cap x min_load +
      spill_slack`` the request spills to the least-loaded replica.

    ``autoscale`` turns on the :class:`ReplicaAutoscaler`: every
    ``autoscale_period_s`` it reads per-replica window stats (hit rate,
    queue depth, SLO pressure) and moves idle workers between replicas
    toward a demand-proportional split, PID-damped
    (``autoscale_kp/ki/kd``) so a load blip does not thrash workers back
    and forth.  Every replica always keeps at least
    ``min_workers_per_replica`` workers.

    With ``n_replicas=1`` the cluster layer is pass-through: every
    decision is bit-for-bit identical to running the wrapped engine
    directly (the seed golden regression pins this), and the autoscaler
    never runs.

    ``journal`` opts into a cluster-level event journal (arrival
    cohorts, routing, kills/restarts, transfers, migrations) even
    without a failure plan; a failure plan implies it.
    ``snapshot_period_s > 0`` additionally captures a periodic
    ``ClusterSnapshot`` — router policy state, autoscaler PID state,
    the shared clock, and every replica's full state — restorable into
    a fresh fleet that resumes bit-identically.  ``migration_policy``
    selects what happens to a killed replica's last cache snapshot
    (:data:`MIGRATION_POLICIES`); the default ``none`` drops it,
    matching historical behaviour bit-for-bit.
    """

    n_replicas: int = 1
    policy: str = "round_robin"
    imbalance_cap: float = 2.0
    spill_slack: int = 8
    autoscale: bool = False
    autoscale_period_s: float = 120.0
    autoscale_window_s: float = 300.0
    autoscale_kp: float = 0.5
    autoscale_ki: float = 0.0
    autoscale_kd: float = 0.1
    min_workers_per_replica: int = 1
    failures: Optional[FailurePlan] = None
    migration_policy: str = "none"
    journal: bool = False
    snapshot_period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.failures is not None:
            for event in self.failures.events:
                if event.replica >= self.n_replicas:
                    raise ValueError(
                        f"failure event targets replica "
                        f"{event.replica} but n_replicas is "
                        f"{self.n_replicas}"
                    )
            for group in self.failures.fate_groups:
                for idx in group:
                    if idx >= self.n_replicas:
                        raise ValueError(
                            f"fate group {group} names replica {idx} "
                            f"but n_replicas is {self.n_replicas}"
                        )
        if self.migration_policy not in MIGRATION_POLICIES:
            raise ValueError(
                f"unknown migration policy "
                f"{self.migration_policy!r}; "
                f"available: {list(MIGRATION_POLICIES)}"
            )
        if self.snapshot_period_s < 0:
            raise ValueError(
                "snapshot_period_s must be >= 0 (0 = no periodic "
                "cluster snapshots)"
            )
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"available: {list(ROUTING_POLICIES)}"
            )
        if self.imbalance_cap < 1.0:
            raise ValueError("imbalance_cap must be >= 1.0")
        if self.spill_slack < 0:
            raise ValueError("spill_slack must be non-negative")
        if self.autoscale_period_s <= 0 or self.autoscale_window_s <= 0:
            raise ValueError("autoscale periods must be positive")
        if self.min_workers_per_replica < 1:
            raise ValueError("min_workers_per_replica must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """How many workers, on which GPU type."""

    gpu_name: str = "MI210"
    n_workers: int = 16

    def __post_init__(self) -> None:
        if self.gpu_name not in GPU_SPECS:
            raise ValueError(
                f"unknown GPU {self.gpu_name!r}; "
                f"available: {sorted(GPU_SPECS)}"
            )
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


@dataclass(frozen=True)
class MoDMConfig:
    """Static configuration of a MoDM serving system.

    ``small_models`` is a preference-ordered tuple: the monitor serves with
    the first (highest-quality) small model whose capacity meets demand and
    falls back to faster ones under load (Fig. 10's SDXL -> SANA switch).

    ``cache_policy`` selects eviction from the cache's policy registry
    (``fifo`` — the paper's sliding window — ``lru``, or ``utility``).

    ``retrieval_backend`` selects the similarity-scan implementation:
    ``"exact"`` (default) is the masked-argmax full scan, bit-for-bit
    the pre-index behavior; ``"ivf"`` puts the IVF approximate index
    (:mod:`repro.core.ann`) behind the cache for sublinear lookups at
    million-entry scale.  ``ann_nlist`` / ``ann_nprobe`` /
    ``ann_train_min`` tune the index (zeros mean auto-sizing from the
    cache capacity); all are ignored by the exact backend.

    ``slo`` opts into the SLO subsystem (deadline-aware dispatch,
    admission control, graceful degradation).  ``None`` — the default —
    keeps the engine's decisions bit-for-bit identical to the policy-free
    engine.

    ``cache_tiering`` opts into the tiered cache
    (:mod:`repro.core.tiering`): a quantized fp16 scan tier, a small
    RAM-resident hot tier, and a ``pread`` cold tier holding every exact
    embedding — the ten-million-entry layout.  ``None`` — the default —
    keeps the flat single-matrix cache bit-for-bit.  Tiering requires
    ``retrieval_backend="ivf"`` (the scan tier *is* the IVF blocks)
    and ``cache_policy="fifo"`` (capacity eviction is a FIFO ring; the
    tiering config's ``tier_policy`` is what drives hot-tier demotion).

    ``image_id_len_cap`` bounds image-id lineage growth: a refined
    image's id embeds its source's full id, so under cache admission
    policies that re-admit refined outputs the ids (and the memo keys
    built from them) grow linearly with refinement-chain depth.  A cap
    replaces any source-id component longer than the cap with its
    16-hex-digit :func:`repro._rng.seed_for` digest, keeping every id
    O(cap) bytes.  ``None`` — the default — preserves the historical
    unbounded format bit-for-bit (image ids seed per-image sampling
    noise, so capping changes generated content for runs whose chains
    exceed the cap; golden traces pin the default).
    """

    large_model: str = "sd3.5-large"
    small_models: Tuple[str, ...] = ("sdxl", "sana-1.6b")
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cache_capacity: int = 10_000
    cache_policy: str = "fifo"
    cache_admission: CacheAdmission = CacheAdmission.ALL
    retrieval: str = "text-to-image"
    retrieval_backend: str = "exact"
    ann_nlist: int = 0
    ann_nprobe: int = 8
    ann_train_min: int = 0
    monitor_mode: MonitorMode = MonitorMode.THROUGHPUT
    use_pid: bool = True
    embed_latency_s: float = 0.01
    threshold_shift: float = 0.0
    seed: str = "run0"
    store_images: bool = True
    slo: Optional[SLOPolicy] = None
    image_id_len_cap: Optional[int] = None
    journal: Optional[JournalConfig] = None
    cache_tiering: Optional[TieredCacheConfig] = None

    def __post_init__(self) -> None:
        if not self.small_models:
            raise ValueError("need at least one small model")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.cache_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}; "
                f"available: {sorted(EVICTION_POLICIES)}"
            )
        if self.retrieval not in ("text-to-image", "text-to-text"):
            raise ValueError(
                "retrieval must be 'text-to-image' or 'text-to-text'"
            )
        if self.retrieval_backend not in RETRIEVAL_BACKENDS:
            raise ValueError(
                f"unknown retrieval_backend "
                f"{self.retrieval_backend!r}; "
                f"available: {list(RETRIEVAL_BACKENDS)}"
            )
        if self.ann_nlist < 0 or self.ann_train_min < 0:
            raise ValueError(
                "ann_nlist/ann_train_min must be >= 0 (0 = auto)"
            )
        if self.ann_nprobe < 1:
            raise ValueError("ann_nprobe must be >= 1")
        if self.embed_latency_s < 0:
            raise ValueError("embed_latency_s must be non-negative")
        if self.image_id_len_cap is not None and self.image_id_len_cap < 1:
            raise ValueError("image_id_len_cap must be >= 1 (or None)")
        if self.cache_tiering is not None:
            if self.retrieval_backend != "ivf":
                raise ValueError(
                    "cache_tiering requires retrieval_backend='ivf' "
                    "(the quantized scan tier is the IVF blocks)"
                )
            if self.cache_policy != "fifo":
                raise ValueError(
                    "cache_tiering requires cache_policy='fifo' "
                    "(capacity eviction is a FIFO ring; use "
                    "cache_tiering.tier_policy for hot-tier demotion)"
                )
