"""Append-only event journal and engine state snapshots.

The serving engine is deterministic: given a trace and a seed, every run
is bit-identical (the golden regressions pin this).  This module exploits
that property for fault tolerance:

- :class:`EventJournal` — a compact columnar record of everything the
  engine decided (arrivals, cache decisions, dispatches, completions,
  allocator and router actions), in the ``RequestStore``/``_ColumnRing``
  style: parallel numpy arrays with amortised-doubling growth, one row
  per event.  A sha256 :meth:`~EventJournal.digest` over the live bytes
  lets two runs prove they took the same path without diffing reports.
- :class:`Snapshot` — a full capture of a single-engine serving system
  mid-run (clock, heap, request store, queues, workers, in-flight jobs,
  stats windows, monitor + PID state, cache incl. IVF index, and the
  RNG-stream counters), restorable into a fresh identically-configured
  system such that resuming the run is bit-identical to never having
  stopped.
- :class:`SnapCounter` — a drop-in replacement for ``itertools.count``
  whose position can be read and restored.  The engine's id streams
  (cache entry ids, image ids) seed content noise draws, so restoring a
  replica means restoring these counters exactly.

Journaling is opt-in (``MoDMConfig.journal``); with it off every code
path is byte-identical to the journal-free engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.request import RequestStore

# NOTE: ``repro.core.request`` is imported lazily inside the functions
# that need it.  Both ``cache`` and ``diffusion.model`` import
# :class:`SnapCounter` from this module, and ``request`` transitively
# imports ``diffusion`` — a module-level import here would be circular.

# ----------------------------------------------------------------------
# Journal event kinds
# ----------------------------------------------------------------------
class JournalKind(IntEnum):
    """Named journal event kinds.

    Values are the journal's wire format: the ``kind`` column is int8 and
    every committed golden digest covers it, so existing values are
    frozen forever — new kinds append at the end, nothing renumbers.
    ``tests/core/test_journal.py`` pins each value explicitly.
    """

    ARRIVAL = 0  # a same-tick arrival cohort entered the system
    DECISION = 1  # one request's cache decision (hit k / miss)
    DISPATCH = 2  # a request started service on a worker
    COMPLETE = 3  # a request finished service
    SHED = 4  # SLO admission rejected a request
    ALLOC = 5  # the Global Monitor re-split the worker pool
    SNAPSHOT = 6  # a periodic state snapshot was captured
    ROUTE = 7  # cluster: a cohort was routed to a replica
    KILL = 8  # cluster: a replica was killed
    RESTART = 9  # cluster: a replica was restarted
    TRANSFER = 10  # cluster: the autoscaler moved a worker
    PROMOTE = 11  # tiered cache: an entry's row promoted to the hot tier
    DEMOTE = 12  # tiered cache: an entry's row demoted to cold-only
    MIGRATE = 13  # cluster: a dead replica's cache shard adopted


# Module-level aliases: the engine journals through bare names
# (``journal.append(now, ARRIVAL, ...)``) and IntEnum members *are*
# ints, so these are drop-in for every existing call site and import.
ARRIVAL = JournalKind.ARRIVAL
DECISION = JournalKind.DECISION
DISPATCH = JournalKind.DISPATCH
COMPLETE = JournalKind.COMPLETE
SHED = JournalKind.SHED
ALLOC = JournalKind.ALLOC
SNAPSHOT = JournalKind.SNAPSHOT
ROUTE = JournalKind.ROUTE
KILL = JournalKind.KILL
RESTART = JournalKind.RESTART
TRANSFER = JournalKind.TRANSFER
PROMOTE = JournalKind.PROMOTE
DEMOTE = JournalKind.DEMOTE
MIGRATE = JournalKind.MIGRATE

KIND_NAMES: Tuple[str, ...] = tuple(
    kind.name.lower() for kind in JournalKind
)


class SnapCounter:
    """``itertools.count`` with a readable, restorable position.

    The engine's id streams double as RNG streams (an image id seeds its
    content noise draw; a cache entry id keys staleness checks), so a
    restored replica must continue each stream exactly where the
    snapshot left it.  Iterator protocol matches ``count()`` — callers
    use ``next(...)`` and never notice the difference.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        self.value = int(start)

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "SnapCounter":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapCounter({self.value})"


class EventJournal:
    """Append-only columnar journal of engine events.

    Each row is ``(time, kind, a, b, x)`` where the integer payloads
    ``a``/``b`` and the float payload ``x`` are kind-specific (request
    id, worker id, similarity, ...).  Storage follows the engine's
    columnar idiom: parallel numpy arrays, amortised doubling, no
    per-event objects.
    """

    __slots__ = ("_time", "_kind", "_a", "_b", "_x", "_n")

    def __init__(self, initial: int = 1024) -> None:
        initial = max(8, int(initial))
        self._time = np.zeros(initial, dtype=np.float64)
        self._kind = np.zeros(initial, dtype=np.int8)
        self._a = np.zeros(initial, dtype=np.int64)
        self._b = np.zeros(initial, dtype=np.int64)
        self._x = np.zeros(initial, dtype=np.float64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        cap = 2 * len(self._time)
        for name in ("_time", "_kind", "_a", "_b", "_x"):
            col = getattr(self, name)
            grown = np.zeros(cap, dtype=col.dtype)
            grown[: self._n] = col[: self._n]
            setattr(self, name, grown)

    def append(
        self,
        time: float,
        kind: int,
        a: int = 0,
        b: int = 0,
        x: float = 0.0,
    ) -> None:
        n = self._n
        if n == len(self._time):
            self._grow()
        self._time[n] = time
        self._kind[n] = kind
        self._a[n] = a
        self._b[n] = b
        self._x[n] = x
        self._n = n + 1

    def entries(
        self, start: int = 0
    ) -> List[Tuple[float, int, int, int, float]]:
        """Rows ``[start, n)`` as plain tuples (journal-suffix replay)."""
        n = self._n
        return [
            (
                float(self._time[i]),
                int(self._kind[i]),
                int(self._a[i]),
                int(self._b[i]),
                float(self._x[i]),
            )
            for i in range(start, n)
        ]

    def digest(self) -> str:
        """sha256 over the live rows — two equal paths share a digest."""
        h = hashlib.sha256()
        n = self._n
        for name in ("_time", "_kind", "_a", "_b", "_x"):
            h.update(np.ascontiguousarray(getattr(self, name)[:n]).tobytes())
        return h.hexdigest()

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind name (reporting/debugging)."""
        counts = np.bincount(
            self._kind[: self._n].astype(np.int64),
            minlength=len(KIND_NAMES),
        )
        return {
            KIND_NAMES[k]: int(counts[k])
            for k in range(len(KIND_NAMES))
            if counts[k]
        }

    def payload(self) -> Dict[str, Any]:
        """JSON-friendly summary (benchmarks, check scripts)."""
        return {
            "n_events": self._n,
            "digest": self.digest(),
            "kinds": self.kind_counts(),
        }

    @classmethod
    def from_entries(
        cls, entries: List[Tuple[float, int, int, int, float]]
    ) -> "EventJournal":
        journal = cls(initial=max(8, len(entries)))
        for time, kind, a, b, x in entries:
            journal.append(time, kind, a, b, x)
        return journal


# ----------------------------------------------------------------------
# Request-store copy
# ----------------------------------------------------------------------
def _copy_store(store: "RequestStore") -> "RequestStore":
    """Deep-enough copy of a :class:`RequestStore`.

    Columns are copied; object payloads (prompts, decisions, images)
    are shared by reference — they are immutable once attached, so a
    snapshot and the live run can safely point at the same objects.
    """
    from repro.core.request import COLUMNS, RequestStore

    clone = RequestStore.__new__(RequestStore)
    clone._n = store._n
    clone._cap = store._cap
    for name in COLUMNS:
        setattr(clone, name, getattr(store, name).copy())
    clone.prompts = list(store.prompts)
    clone.decisions = list(store.decisions)
    clone.images = dict(store.images)
    clone.degrade_sources = dict(store.degrade_sources)
    clone.rejections = dict(store.rejections)
    clone._slo_names = list(store._slo_names)
    clone._slo_codes = dict(store._slo_codes)
    clone._model_names = list(store._model_names)
    clone._model_codes = dict(store._model_codes)
    return clone


# ----------------------------------------------------------------------
# Heap-event classification
# ----------------------------------------------------------------------
# Pending heap events are captured by *kind*, not by closure: every
# event the engine schedules is a bound method of the system, so a
# snapshot stores (time, kind) and restore re-binds against the fresh
# system.  Only relative (time, seq) order matters — fresh sequence
# numbers from re-pushing in sorted order reproduce the firing order.
_HEAP_KINDS: Dict[str, str] = {
    "_complete_cohort": "complete",
    "_monitor_tick": "monitor",
    "_dispatch_wakeup": "wakeup",
    "_snapshot_tick": "snapshot",
}


def _classify_heap(system) -> List[Tuple[float, str]]:
    entries = []
    for time, _seq, callback in system.loop.heap_entries():
        func = getattr(callback, "__func__", None)
        owner = getattr(callback, "__self__", None)
        kind = _HEAP_KINDS.get(getattr(func, "__name__", ""))
        if kind is None or owner is not system:
            raise ValueError(
                "cannot snapshot: pending event "
                f"{callback!r} at t={time:.6f} is not a recognised "
                "engine event (cluster-level events are not "
                "snapshottable)"
            )
        entries.append((time, kind))
    return entries


def _fingerprint(system) -> str:
    """Configuration identity a snapshot refuses to cross.

    Frozen-dataclass reprs are deterministic, so ``repr(config)`` pins
    every knob (including the journal config itself); systems without a
    config fall back to the SLO gate's own fingerprint.
    """
    gate = system._slo_gate
    parts = [
        type(system).__name__,
        system._seed,
        str(len(system.workers)),
        gate.config_fingerprint() if gate is not None else "no-slo",
    ]
    config = getattr(system, "config", None)
    if config is not None:
        parts.append(repr(config))
    return "|".join(parts)


@dataclass
class Snapshot:
    """Full state of a single-engine serving system at one instant.

    ``capture`` is side-effect-free (no memo builds, no window trims);
    ``restore`` rebuilds a fresh, identically-configured system into
    this exact state, so ``resume()`` continues bit-identically.
    """

    time_s: float
    fingerprint: str
    # Event loop
    tl_idx: int
    has_timeline: bool
    heap: List[Tuple[float, str]]
    # Requests
    store: RequestStore
    n_expected: int
    n_completed: int
    n_shed: int
    # In-flight service state
    in_service: List[Tuple[int, int, str, int, int, Optional[object]]]
    buckets: List[Tuple[float, List[int]]]
    workers: List[tuple]
    idle_workers: List[int]
    pending_wakeups: List[float]
    next_monitor_tick_s: float
    next_snapshot_tick_s: float
    # Stats windows
    stats_state: Dict[str, Any]
    # Journal
    journal_entries: List[Tuple[float, int, int, int, float]]
    # snap: derived (verification metadata: restore() rebuilds the
    # journal from journal_entries and the digest is recomputed; kept
    # in the snapshot so replay tooling can cross-check integrity)
    journal_digest: str
    # MoDM-specific (None for other engines)
    miss_queue_state: Optional[tuple] = None
    hit_queue_state: Optional[tuple] = None
    hit_backlog_frac: float = 0.0
    n_large_workers: int = 0
    allocations: Optional[list] = None
    monitor_state: Optional[tuple] = None
    cache_state: Optional[object] = None
    model_counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, system) -> "Snapshot":
        if system._fleet is not None:
            raise ValueError(
                "full snapshots are single-engine only; cluster replicas "
                "capture cache-only snapshots"
            )
        loop = system.loop
        store = _copy_store(system.request_store)
        in_service = [
            (
                rid,
                item.record._row,
                item.model.spec.name,
                item.steps,
                item.skipped_steps,
                item.source_image,
            )
            for rid, item in sorted(system._in_service.items())
        ]
        buckets = [
            (finish, [w.worker_id for w in bucket])
            for finish, bucket in sorted(
                system._completion_buckets.items()
            )
        ]
        workers = [
            (
                w.worker_id,
                w.model_name,
                w.target_model,
                w.available_at,
                w.busy_seconds,
                w.load_seconds,
                w.energy_joules,
                w.jobs_completed,
                w.switches,
                w.current_job,
            )
            for w in system.workers
        ]
        journal = system._journal
        journal_entries = journal.entries() if journal is not None else []
        journal_digest = journal.digest() if journal is not None else ""
        snap = cls(
            time_s=loop.now,
            fingerprint=_fingerprint(system),
            tl_idx=loop.timeline_index,
            has_timeline=loop._tl_times is not None,
            heap=_classify_heap(system),
            store=store,
            n_expected=system._n_expected,
            n_completed=system._n_completed,
            n_shed=system._n_shed,
            in_service=in_service,
            buckets=buckets,
            workers=workers,
            idle_workers=sorted(system._idle_workers),
            pending_wakeups=sorted(system._pending_wakeups),
            next_monitor_tick_s=getattr(
                system, "_next_monitor_tick_s", -1.0
            ),
            next_snapshot_tick_s=system._next_snapshot_tick_s,
            stats_state=system.stats.snapshot_state(),
            journal_entries=journal_entries,
            journal_digest=journal_digest,
        )
        if hasattr(system, "cache"):
            snap.miss_queue_state = system._miss_queue.snapshot_state()
            snap.hit_queue_state = system._hit_queue.snapshot_state()
            snap.hit_backlog_frac = system._hit_backlog_frac
            snap.n_large_workers = system._n_large_workers
            snap.allocations = list(system.allocations)
            snap.monitor_state = system.monitor.snapshot_state()
            snap.cache_state = system.cache.snapshot()
        snap.model_counters = {
            name: sim._counter.value
            for name, sim in sorted(system._model_sims.items())
        }
        return snap

    # ------------------------------------------------------------------
    def restore(self, system, install_timeline: bool = True) -> None:
        """Rebuild ``system`` into this snapshot's state.

        ``system`` must be freshly constructed with the same
        configuration (enforced via the fingerprint); any prior runtime
        state it holds is discarded.

        ``install_timeline=False`` restores the state *without* the
        remaining arrival timeline: the clock jumps to the snapshot
        instant with no future arrivals scheduled.  A
        :class:`JournalReplayer` then drives the run forward from the
        journal suffix alone — the store already holds every trace row
        (runs bulk-load the trace up front), so no trace file is needed.
        """
        fp = _fingerprint(system)
        if fp != self.fingerprint:
            raise ValueError(
                "snapshot/system configuration mismatch:\n"
                f"  snapshot: {self.fingerprint}\n"
                f"  system:   {fp}"
            )
        from repro.core.request import RequestRecord
        from repro.core.serving import _WorkItem

        system._reset_runtime()
        loop = system.loop
        store = _copy_store(self.store)
        system.request_store = store
        records = [
            RequestRecord._view(store, i) for i in range(len(store))
        ]
        system.records = records
        system._n_expected = self.n_expected
        # Reinstall the arrival timeline while the fresh clock is still
        # at zero (schedule_timeline validates times against now), then
        # jump the clock and cursor to the snapshot instant.
        if install_timeline and self.has_timeline and records:
            system._schedule_trace_arrivals(records)
            loop.restore_clock(self.time_s, self.tl_idx)
        else:
            loop.restore_clock(self.time_s, 0)
        handlers = {
            "complete": system._complete_cohort,
            "wakeup": system._dispatch_wakeup,
        }
        if hasattr(system, "_monitor_tick"):
            handlers["monitor"] = system._monitor_tick
        if hasattr(system, "_snapshot_tick"):
            handlers["snapshot"] = system._snapshot_tick
        for time, kind in sorted(self.heap, key=lambda e: e[0]):
            loop.schedule(time, handlers[kind])
        # Workers: scalar fields back in place, job objects by reference.
        if len(system.workers) != len(self.workers):
            raise ValueError(
                f"worker count mismatch: snapshot has "
                f"{len(self.workers)}, system has {len(system.workers)}"
            )
        for worker, state in zip(system.workers, self.workers):
            (
                worker_id,
                model_name,
                target_model,
                available_at,
                busy_seconds,
                load_seconds,
                energy_joules,
                jobs_completed,
                switches,
                current_job,
            ) = state
            if worker.worker_id != worker_id:
                raise ValueError(
                    f"worker id mismatch: {worker.worker_id} != "
                    f"{worker_id}"
                )
            worker.model_name = model_name
            worker.target_model = target_model
            worker.available_at = available_at
            worker.busy_seconds = busy_seconds
            worker.load_seconds = load_seconds
            worker.energy_joules = energy_joules
            worker.jobs_completed = jobs_completed
            worker.switches = switches
            worker.current_job = current_job
        system._workers_by_id = {
            w.worker_id: w for w in system.workers
        }
        system._idle_workers = set(self.idle_workers)
        system._pending_wakeups = set(self.pending_wakeups)
        system._in_service = {
            rid: _WorkItem(
                record=RequestRecord._view(store, row),
                model=system.model_sim(model_name),
                steps=steps,
                skipped_steps=skipped,
                source_image=source_image,
            )
            for rid, row, model_name, steps, skipped, source_image in (
                self.in_service
            )
        }
        by_id = system._workers_by_id
        system._completion_buckets = {
            finish: [by_id[wid] for wid in worker_ids]
            for finish, worker_ids in self.buckets
        }
        system._n_completed = self.n_completed
        system._n_shed = self.n_shed
        system._next_monitor_tick_s = self.next_monitor_tick_s
        system._next_snapshot_tick_s = self.next_snapshot_tick_s
        system.stats.restore_state(self.stats_state)
        if hasattr(system, "cache"):
            system._miss_queue.restore_state(
                self.miss_queue_state, store
            )
            system._hit_queue.restore_state(self.hit_queue_state, store)
            system._hit_backlog_frac = self.hit_backlog_frac
            system._n_large_workers = self.n_large_workers
            system.allocations = list(self.allocations or [])
            system.monitor.restore_state(self.monitor_state)
            system.cache.restore(self.cache_state)
        for name, value in self.model_counters.items():
            system.model_sim(name)._counter.value = value
        if system._journal is not None:
            system._journal = EventJournal.from_entries(
                self.journal_entries
            )


class _TraceStub:
    """Stands in for a :class:`Trace` during journal-suffix replay.

    Report builders consume only ``trace.name`` — the restored store
    already holds every request row — so the replayer never needs the
    original trace object.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class JournalReplayer:
    """Drive a restored system forward from a journal suffix alone.

    The journal is a *sufficient* record of a run's inputs: runs
    bulk-load the whole trace into the request store up front, so a
    snapshot's store copy already holds every future request — the only
    thing a restored system is missing without the trace file is *when
    each arrival cohort fires*.  ARRIVAL rows record exactly that
    (``(time, ARRIVAL, first_request_id, cohort_size)``).  The replayer
    verifies the restored journal is a bit-exact prefix of the
    reference record, re-installs the suffix's arrival cohorts as a
    fresh event-loop timeline, and lets the engine regenerate every
    downstream decision deterministically.

    Works for single engines (restore a :class:`Snapshot` with
    ``install_timeline=False``) and whole fleets (restore a
    ``ClusterSnapshot`` with ``install_timeline=False``) — both route
    replayed cohorts through ``_arrive_cohort``, and everything else
    (completions, monitor/snapshot ticks, failure injections,
    autoscale periods) fires from the restored heap.
    """

    def __init__(
        self,
        system,
        reference_entries: List[Tuple[float, int, int, int, float]],
    ) -> None:
        self._system = system
        journal = self._journal_of(system)
        if journal is None:
            raise ValueError(
                "journal-suffix replay needs a journaled system "
                "(enable MoDMConfig.journal / ClusterRoutingConfig"
                ".journal)"
            )
        have = journal.entries()
        self._start = len(have)
        self._reference = [tuple(row) for row in reference_entries]
        if self._reference[: self._start] != have:
            raise ValueError(
                "journal prefix mismatch: the restored system's "
                f"{self._start} journal rows are not a prefix of the "
                "reference record — wrong snapshot or wrong run"
            )
        arrivals = [
            (time, a, b)
            for time, kind, a, b, _x in self._reference[self._start :]
            if kind == ARRIVAL
        ]
        self.n_cohorts = len(arrivals)
        self._install(arrivals)

    @staticmethod
    def _journal_of(system) -> Optional[EventJournal]:
        journal = getattr(system, "_journal", None)
        if journal is None:
            journal = getattr(system, "journal", None)
        return journal

    def _install(self, arrivals: List[Tuple[float, int, int]]) -> None:
        if not arrivals:
            return
        from repro.core.request import RequestRecord

        system = self._system
        store = system.request_store
        rid_col = store.column("request_id")
        row_of = {int(rid_col[i]): i for i in range(len(store))}
        cohorts = []
        for _time, first_rid, count in arrivals:
            row = row_of[first_rid]
            cohorts.append(
                [
                    RequestRecord._view(store, r)
                    for r in range(row, row + count)
                ]
            )
        times = np.asarray(
            [time for time, _rid, _count in arrivals], dtype=np.float64
        )

        def fire(now: float, i: int) -> None:
            system._arrive_cohort(cohorts[i], now)

        system.loop.schedule_timeline(times, fire)

    def replay(
        self,
        until: Optional[float] = None,
        trace_name: str = "journal-replay",
    ):
        """Run the suffix to completion; returns the system's report."""
        return self._system.resume(_TraceStub(trace_name), until=until)

    def verify(self) -> None:
        """Assert the replay regenerated the reference record exactly."""
        regenerated = self._journal_of(self._system).entries()
        if regenerated != self._reference:
            n = min(len(regenerated), len(self._reference))
            diverged = next(
                (
                    i
                    for i in range(n)
                    if regenerated[i] != self._reference[i]
                ),
                n,
            )
            raise ValueError(
                "replayed journal diverged from the reference at row "
                f"{diverged} ({len(regenerated)} regenerated vs "
                f"{len(self._reference)} reference rows)"
            )


def _replica_fingerprint(system) -> str:
    """Per-replica configuration identity under a fleet.

    Mirrors :func:`_fingerprint` but pins the *configured* worker count
    (``ClusterConfig.n_workers``) instead of the live one — autoscaler
    transfers change how many workers a replica holds mid-run, and a
    fleet snapshot must restore into a fleet built from the same
    configs, not the same instantaneous split.
    """
    gate = system._slo_gate
    parts = [
        type(system).__name__,
        system._seed,
        str(system._cluster.n_workers),
        gate.config_fingerprint() if gate is not None else "no-slo",
    ]
    config = getattr(system, "config", None)
    if config is not None:
        parts.append(repr(config))
    return "|".join(parts)


@dataclass
class ReplicaState:
    """Full state of one fleet-mode replica inside a ``ClusterSnapshot``.

    Deliberately separate from :class:`Snapshot`: a replica under a
    fleet owns no event loop, no request store (its records are views
    into the cluster store), and no arrival timeline — the cluster
    snapshot captures those once for the whole fleet.  Worker tuples
    are authoritative (count and ids included): autoscaler transfers
    move workers between replicas, so restore rebuilds the worker list
    from the tuples instead of matching a freshly constructed one.
    """

    fingerprint: str
    record_rows: List[int]
    n_expected: int
    n_completed: int
    n_shed: int
    dead: bool
    in_service: List[Tuple[int, int, str, int, int, Optional[object]]]
    buckets: List[Tuple[float, List[int]]]
    workers: List[tuple]
    idle_workers: List[int]
    pending_wakeups: List[float]
    next_monitor_tick_s: float
    next_snapshot_tick_s: float
    stats_state: Dict[str, Any]
    journal_entries: List[Tuple[float, int, int, int, float]]
    cache_snapshots: List[Tuple[float, object]]
    miss_queue_state: Optional[tuple] = None
    hit_queue_state: Optional[tuple] = None
    hit_backlog_frac: float = 0.0
    n_large_workers: int = 0
    allocations: Optional[list] = None
    monitor_state: Optional[tuple] = None
    cache_state: Optional[object] = None
    model_counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, replica) -> "ReplicaState":
        journal = replica._journal
        state = cls(
            fingerprint=_replica_fingerprint(replica),
            record_rows=[r._row for r in replica.records],
            n_expected=replica._n_expected,
            n_completed=replica._n_completed,
            n_shed=replica._n_shed,
            dead=replica._dead,
            in_service=[
                (
                    rid,
                    item.record._row,
                    item.model.spec.name,
                    item.steps,
                    item.skipped_steps,
                    item.source_image,
                )
                for rid, item in sorted(replica._in_service.items())
            ],
            buckets=[
                (finish, [w.worker_id for w in bucket])
                for finish, bucket in sorted(
                    replica._completion_buckets.items()
                )
            ],
            workers=[
                (
                    w.worker_id,
                    w.model_name,
                    w.target_model,
                    w.available_at,
                    w.busy_seconds,
                    w.load_seconds,
                    w.energy_joules,
                    w.jobs_completed,
                    w.switches,
                    w.current_job,
                )
                for w in replica.workers
            ],
            idle_workers=sorted(replica._idle_workers),
            pending_wakeups=sorted(replica._pending_wakeups),
            next_monitor_tick_s=getattr(
                replica, "_next_monitor_tick_s", -1.0
            ),
            next_snapshot_tick_s=replica._next_snapshot_tick_s,
            stats_state=replica.stats.snapshot_state(),
            journal_entries=(
                journal.entries() if journal is not None else []
            ),
            cache_snapshots=list(replica._cache_snapshots),
        )
        if hasattr(replica, "cache"):
            state.miss_queue_state = replica._miss_queue.snapshot_state()
            state.hit_queue_state = replica._hit_queue.snapshot_state()
            state.hit_backlog_frac = replica._hit_backlog_frac
            state.n_large_workers = replica._n_large_workers
            state.allocations = list(replica.allocations)
            state.monitor_state = replica.monitor.snapshot_state()
            state.cache_state = replica.cache.snapshot()
        state.model_counters = {
            name: sim._counter.value
            for name, sim in sorted(replica._model_sims.items())
        }
        return state

    # ------------------------------------------------------------------
    def restore(self, replica, store: "RequestStore") -> None:
        """Rebuild ``replica`` into this state against the fleet store.

        The cluster restore has already run ``_reset_runtime()`` and
        installed the shared loop/fleet handles; this fills in
        everything replica-local.
        """
        fp = _replica_fingerprint(replica)
        if fp != self.fingerprint:
            raise ValueError(
                "replica snapshot/configuration mismatch:\n"
                f"  snapshot: {self.fingerprint}\n"
                f"  replica:  {fp}"
            )
        from repro.cluster.worker import GPUWorker
        from repro.core.request import RequestRecord
        from repro.core.serving import _WorkItem

        replica.records = [
            RequestRecord._view(store, row) for row in self.record_rows
        ]
        replica._n_expected = self.n_expected
        replica.workers = [
            GPUWorker(
                worker_id=worker_id,
                gpu=replica._gpu,
                model_name=model_name,
                target_model=target_model,
                available_at=available_at,
                busy_seconds=busy_seconds,
                load_seconds=load_seconds,
                energy_joules=energy_joules,
                jobs_completed=jobs_completed,
                switches=switches,
                current_job=current_job,
            )
            for (
                worker_id,
                model_name,
                target_model,
                available_at,
                busy_seconds,
                load_seconds,
                energy_joules,
                jobs_completed,
                switches,
                current_job,
            ) in self.workers
        ]
        replica._workers_by_id = {
            w.worker_id: w for w in replica.workers
        }
        replica._idle_workers = set(self.idle_workers)
        replica._pending_wakeups = set(self.pending_wakeups)
        replica._in_service = {
            rid: _WorkItem(
                record=RequestRecord._view(store, row),
                model=replica.model_sim(model_name),
                steps=steps,
                skipped_steps=skipped,
                source_image=source_image,
            )
            for rid, row, model_name, steps, skipped, source_image in (
                self.in_service
            )
        }
        by_id = replica._workers_by_id
        replica._completion_buckets = {
            finish: [by_id[wid] for wid in worker_ids]
            for finish, worker_ids in self.buckets
        }
        replica._n_completed = self.n_completed
        replica._n_shed = self.n_shed
        replica._dead = self.dead
        replica._next_monitor_tick_s = self.next_monitor_tick_s
        replica._next_snapshot_tick_s = self.next_snapshot_tick_s
        replica.stats.restore_state(self.stats_state)
        replica._cache_snapshots = list(self.cache_snapshots)
        if hasattr(replica, "cache"):
            replica._miss_queue.restore_state(
                self.miss_queue_state, store
            )
            replica._hit_queue.restore_state(self.hit_queue_state, store)
            replica._hit_backlog_frac = self.hit_backlog_frac
            replica._n_large_workers = self.n_large_workers
            replica.allocations = list(self.allocations or [])
            replica.monitor.restore_state(self.monitor_state)
            if self.cache_state is not None:
                replica.cache.restore(self.cache_state)
            else:
                replica.cache.clear()
        for name, value in self.model_counters.items():
            replica.model_sim(name)._counter.value = value
        if replica._journal is not None:
            replica._journal = EventJournal.from_entries(
                self.journal_entries
            )
