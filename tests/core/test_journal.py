"""Event journal, state snapshots, and replay determinism."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro._rng import rng_for, unit_vector
from repro.cluster.arrivals import poisson_arrivals
from repro.core.baselines import NirvanaSystem, PineconeSystem, VanillaSystem
from repro.core.cache import IVFParams, VectorCache
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    JournalConfig,
    MoDMConfig,
    SLOPolicy,
)
from repro.core.journal import (
    ARRIVAL,
    COMPLETE,
    DECISION,
    KIND_NAMES,
    SHED,
    EventJournal,
    JournalKind,
    JournalReplayer,
    SnapCounter,
    Snapshot,
)
from repro.core.cluster_router import modm_cluster
from repro.core.serving import MoDMSystem
from repro.workloads import DiffusionDBConfig, diffusiondb_trace


def _config(journal=None, seed="journal-tests", n_workers=4):
    return MoDMConfig(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=n_workers),
        cache_capacity=200,
        small_models=("sdxl",),
        seed=seed,
        journal=journal,
    )


def _trace(space, n=100, rate=40.0, seed="journal-trace"):
    return diffusiondb_trace(
        space,
        DiffusionDBConfig(
            n_requests=n, request_rate_per_min=rate, seed=seed
        ),
    )


def _run_payload(report):
    """Everything a bit-identical pair of runs must agree on."""
    times = np.sort(report.completion_times())
    decisions = [
        (r.request_id, r.decision.hit, r.decision.k_steps)
        for r in report.records
        if r.decision is not None
    ]
    return (
        report.n_completed,
        report.hit_rate,
        hashlib.sha256(times.tobytes()).hexdigest(),
        decisions,
    )


# ----------------------------------------------------------------------
# SnapCounter
# ----------------------------------------------------------------------
class TestSnapCounter:
    def test_matches_itertools_count(self):
        counter = SnapCounter()
        assert [next(counter) for _ in range(4)] == [0, 1, 2, 3]
        assert counter.value == 4

    def test_position_restores_exactly(self):
        counter = SnapCounter()
        for _ in range(7):
            next(counter)
        resumed = SnapCounter(counter.value)
        assert next(resumed) == next(counter)

    def test_iter_protocol(self):
        counter = SnapCounter(5)
        assert iter(counter) is counter
        assert list(zip(range(3), counter)) == [(0, 5), (1, 6), (2, 7)]


# ----------------------------------------------------------------------
# EventJournal
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_append_and_entries_round_trip(self):
        journal = EventJournal()
        rows = [
            (0.5, ARRIVAL, 0, 3, 0.0),
            (1.0, DECISION, 1, 25, 0.93),
            (2.5, COMPLETE, 1, 0, 0.0),
        ]
        for time, kind, a, b, x in rows:
            journal.append(time, kind, a=a, b=b, x=x)
        assert len(journal) == 3
        assert journal.entries() == rows
        assert journal.entries(start=2) == rows[2:]

    def test_from_entries_preserves_digest(self):
        journal = EventJournal()
        for i in range(20):
            journal.append(float(i), i % len(KIND_NAMES), a=i, x=0.5 * i)
        clone = EventJournal.from_entries(journal.entries())
        assert clone.digest() == journal.digest()
        assert len(clone) == len(journal)

    def test_digest_tracks_content(self):
        one, two = EventJournal(), EventJournal()
        one.append(1.0, ARRIVAL, a=1)
        two.append(1.0, ARRIVAL, a=1)
        assert one.digest() == two.digest()
        two.append(2.0, COMPLETE, a=1)
        assert one.digest() != two.digest()

    def test_growth_beyond_initial_capacity(self):
        journal = EventJournal(initial=8)
        for i in range(100):
            journal.append(float(i), COMPLETE, a=i)
        assert len(journal) == 100
        assert journal.entries()[99] == (99.0, COMPLETE, 99, 0, 0.0)

    def test_kind_counts_and_payload(self):
        journal = EventJournal()
        journal.append(0.0, ARRIVAL)
        journal.append(1.0, DECISION)
        journal.append(1.5, DECISION)
        counts = journal.kind_counts()
        assert counts == {"arrival": 1, "decision": 2}
        payload = journal.payload()
        assert payload["n_events"] == 3
        assert payload["digest"] == journal.digest()
        assert payload["kinds"] == counts


# ----------------------------------------------------------------------
# Journaling is behavior-neutral
# ----------------------------------------------------------------------
class TestJournalKind:
    # The kind column is int8 and every committed golden digest covers
    # it, so these values are wire format: frozen forever.
    PINNED = {
        "ARRIVAL": 0,
        "DECISION": 1,
        "DISPATCH": 2,
        "COMPLETE": 3,
        "SHED": 4,
        "ALLOC": 5,
        "SNAPSHOT": 6,
        "ROUTE": 7,
        "KILL": 8,
        "RESTART": 9,
        "TRANSFER": 10,
        "PROMOTE": 11,
        "DEMOTE": 12,
        "MIGRATE": 13,
    }

    def test_values_are_pinned(self):
        assert {k.name: int(k) for k in JournalKind} == self.PINNED

    def test_module_aliases_are_the_members(self):
        import repro.core.journal as journal

        for name, value in self.PINNED.items():
            alias = getattr(journal, name)
            assert alias is JournalKind[name]
            assert alias == value

    def test_kind_names_mirror_the_enum(self):
        assert KIND_NAMES == tuple(
            k.name.lower() for k in JournalKind
        )
        assert len(KIND_NAMES) == len(self.PINNED)

    def test_int8_round_trip(self):
        # The journal stores kinds in an int8 column; every member must
        # survive the narrowing and come back as the same member.
        for kind in JournalKind:
            assert JournalKind(int(np.int8(kind))) is kind

    def test_members_are_ints_for_journal_append(self):
        journal = EventJournal()
        journal.append(1.0, JournalKind.MIGRATE, a=2, b=30, x=1.0)
        assert journal.entries() == [(1.0, 13, 2, 30, 1.0)]
        assert journal.kind_counts() == {"migrate": 1}


class TestJournalNeutrality:
    def test_snapshots_off_by_default(self, space):
        # The journal is always on; without a JournalConfig it records
        # the run but no periodic snapshot is captured.
        system = MoDMSystem(space, _config())
        assert isinstance(system.journal, EventJournal)
        report = system.run(_trace(space, n=20))
        counts = system.journal.kind_counts()
        assert counts["complete"] == report.n_completed
        assert "snapshot" not in counts
        assert system.snapshots == []

    def test_journal_on_is_bit_identical(self, space):
        trace = _trace(space)
        plain = MoDMSystem(space, _config())
        journaled = MoDMSystem(
            space, _config(journal=JournalConfig(snapshot_period_s=60.0))
        )
        plain_report = plain.run(trace)
        journaled_report = journaled.run(trace)
        assert _run_payload(plain_report) == _run_payload(
            journaled_report
        )
        # ... and the journaled run actually recorded its path.
        counts = journaled.journal.kind_counts()
        assert counts["arrival"] > 0
        assert counts["decision"] == len(trace)
        assert counts["complete"] == journaled_report.n_completed
        assert counts["snapshot"] == len(journaled.snapshots)
        assert journaled.snapshots


# ----------------------------------------------------------------------
# Conservation: every serving system journals every request exactly once
# ----------------------------------------------------------------------
_OVERLOADED = ClusterConfig(gpu_name="A40", n_workers=2)


def _conserving_system(kind, space):
    if kind == "vanilla":
        return VanillaSystem(space, _OVERLOADED, slo=SLOPolicy())
    if kind == "nirvana":
        return NirvanaSystem(
            space, _OVERLOADED, cache_capacity=300, slo=SLOPolicy()
        )
    if kind == "pinecone":
        # Pinecone has no SLO gate; its cache-served requests complete
        # without a worker.
        return PineconeSystem(space, _OVERLOADED, cache_capacity=300)
    return MoDMSystem(
        space,
        MoDMConfig(
            cluster=_OVERLOADED,
            cache_capacity=300,
            small_models=("sdxl",),
            slo=SLOPolicy(),
        ),
    )


@pytest.fixture(scope="module")
def overload_trace(space):
    trace = _trace(space, n=260, seed="journal-conservation")
    base = trace.slice(60, 260).rebase()
    arrivals = poisson_arrivals(
        20.0, len(base), seed="journal-conservation-rate"
    )
    return trace, base.with_arrivals(arrivals)


class TestJournalConservation:
    @pytest.mark.parametrize(
        "kind", ["vanilla", "nirvana", "pinecone", "modm"]
    )
    def test_every_request_is_journaled_once(
        self, space, overload_trace, kind
    ):
        trace, timed = overload_trace
        system = _conserving_system(kind, space)
        if kind != "vanilla":
            system.warm_cache([r.prompt for r in trace.requests[:60]])
        report = system.run(timed)
        rows = system.journal.entries()
        cohort_sizes = [b for _t, k, _a, b, _x in rows if k == ARRIVAL]
        decided = [a for _t, k, a, _b, _x in rows if k in (DECISION, SHED)]
        completed = [b for _t, k, _a, b, _x in rows if k == COMPLETE]
        assert sum(cohort_sizes) == len(timed)
        assert len(decided) == len(timed)
        assert sorted(decided) == sorted(r.request_id for r in timed)
        assert len(completed) == report.n_completed
        assert report.n_completed + report.n_shed == len(timed)
        if kind in ("vanilla", "nirvana"):
            assert report.n_shed > 0
        if kind == "pinecone":
            # Cache-served completions carry b=-1 ("no worker").
            assert -1 in completed


# ----------------------------------------------------------------------
# Snapshot capture / restore / resume
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_restore_and_resume_is_bit_identical(self, space):
        trace = _trace(space)
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight_payload = _run_payload(straight.run(trace))
        digest = straight.journal.digest()
        assert len(straight.snapshots) >= 2

        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        resumed = MoDMSystem(space, _config(journal=journal))
        snapshot.restore(resumed)
        resumed_payload = _run_payload(resumed.resume(trace))
        assert resumed_payload == straight_payload
        assert resumed.journal.digest() == digest

    def test_every_snapshot_resumes_identically(self, space):
        trace = _trace(space, n=60)
        journal = JournalConfig(snapshot_period_s=60.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight_payload = _run_payload(straight.run(trace))
        for snapshot in straight.snapshots:
            resumed = MoDMSystem(space, _config(journal=journal))
            snapshot.restore(resumed)
            assert _run_payload(resumed.resume(trace)) == (
                straight_payload
            )

    def test_fingerprint_rejects_config_mismatch(self, space):
        journal = JournalConfig(snapshot_period_s=60.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight.run(_trace(space, n=40))
        snapshot = straight.snapshots[0]
        other_seed = MoDMSystem(
            space, _config(journal=journal, seed="other")
        )
        with pytest.raises(ValueError, match="configuration mismatch"):
            snapshot.restore(other_seed)

    def test_restore_rejects_altered_journal_rows(self, space):
        journal = JournalConfig(snapshot_period_s=60.0)
        straight = MoDMSystem(space, _config(journal=journal))
        straight.run(_trace(space, n=40))
        snapshot = straight.snapshots[0]
        rows = snapshot.replica.journal_entries
        time, kind, a, b, x = rows[0]
        rows[0] = (time, kind, a, b + 1, x)
        fresh = MoDMSystem(space, _config(journal=journal))
        with pytest.raises(ValueError, match="journal digest mismatch"):
            snapshot.restore(fresh)

    def test_cluster_restore_rejects_altered_journal_rows(self, space):
        def build():
            return modm_cluster(
                space,
                _config(),
                ClusterRoutingConfig(n_replicas=2, snapshot_period_s=30.0),
            )

        straight = build()
        straight.run(_trace(space, n=40))
        snapshot = straight.snapshots[0]
        time, kind, a, b, x = snapshot.journal_entries[0]
        snapshot.journal_entries[0] = (time, kind, a, b, x + 1.0)
        with pytest.raises(ValueError, match="journal digest mismatch"):
            snapshot.restore(build())

    def test_cluster_replicas_refuse_full_capture(self, space):
        fleet = modm_cluster(
            space,
            _config(journal=JournalConfig(snapshot_period_s=60.0)),
            ClusterRoutingConfig(n_replicas=2),
        )
        # ``_fleet`` is installed on replicas at cluster-run start and
        # marks them as non-snapshottable (cache-only snapshots).
        fleet.run(_trace(space, n=10))
        with pytest.raises(ValueError, match="single-engine"):
            Snapshot.capture(fleet.replicas[0])


# ----------------------------------------------------------------------
# Journal-suffix replay: the journal is a sufficient record
# ----------------------------------------------------------------------
class TestJournalSuffixReplay:
    def _straight(self, space, trace):
        journal = JournalConfig(snapshot_period_s=45.0)
        straight = MoDMSystem(space, _config(journal=journal))
        payload = _run_payload(straight.run(trace))
        assert len(straight.snapshots) >= 2
        return straight, payload

    def test_suffix_replay_is_bit_identical(self, space):
        trace = _trace(space)
        straight, payload = self._straight(space, trace)
        reference = straight.journal.entries()

        snapshot = straight.snapshots[len(straight.snapshots) // 2]
        resumed = MoDMSystem(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
        )
        # No trace timeline: the journal's ARRIVAL suffix is the only
        # source of future arrivals.
        snapshot.restore(resumed, install_timeline=False)
        replayer = JournalReplayer(resumed, reference)
        assert replayer.n_cohorts > 0
        report = replayer.replay(trace_name=trace.name)
        replayer.verify()
        assert _run_payload(report) == payload
        assert resumed.journal.digest() == (
            straight.journal.digest()
        )

    def test_replayer_rejects_prefix_mismatch(self, space):
        trace = _trace(space, n=60)
        straight, _payload_ = self._straight(space, trace)
        reference = straight.journal.entries()
        snapshot = straight.snapshots[-1]
        resumed = MoDMSystem(
            space,
            _config(journal=JournalConfig(snapshot_period_s=45.0)),
        )
        snapshot.restore(resumed, install_timeline=False)
        tampered = list(reference)
        time, kind, a, b, x = tampered[0]
        tampered[0] = (time, kind, a + 1, b, x)
        with pytest.raises(ValueError, match="prefix mismatch"):
            JournalReplayer(resumed, tampered)


# ----------------------------------------------------------------------
# Cache snapshot / restore (IVF included)
# ----------------------------------------------------------------------
def _filled_ivf_cache(n=300, dim=12):
    cache = VectorCache(
        capacity=n,
        embed_dim=dim,
        backend="ivf",
        ann=IVFParams(nlist=8, nprobe=4, train_min=64, seed="snap-ivf"),
    )
    for i in range(n):
        cache.insert(
            i, unit_vector(rng_for("snap-ivf", i), dim), now=float(i)
        )
    return cache


class TestCacheSnapshot:
    def test_ivf_round_trip_preserves_retrieval(self):
        dim = 12
        original = _filled_ivf_cache(dim=dim)
        state = original.snapshot()
        restored = VectorCache(
            capacity=300,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=4, train_min=64, seed="snap-ivf"
            ),
        )
        restored.restore(state)
        assert len(restored) == len(original)
        for i in range(50):
            query = unit_vector(rng_for("snap-ivf-q", i), dim)
            entry_a, sim_a = original.retrieve(query)
            entry_b, sim_b = restored.retrieve(query)
            assert entry_a.payload == entry_b.payload
            assert sim_a == sim_b

    def test_snapshot_is_isolated_from_later_inserts(self):
        dim = 12
        cache = _filled_ivf_cache(n=100, dim=dim)
        state = cache.snapshot()
        size_then = len(cache)
        for i in range(100, 140):
            cache.insert(
                i, unit_vector(rng_for("snap-ivf", i), dim), now=float(i)
            )
        fresh = VectorCache(
            capacity=100,
            embed_dim=dim,
            backend="ivf",
            ann=IVFParams(
                nlist=8, nprobe=4, train_min=64, seed="snap-ivf"
            ),
        )
        fresh.restore(state)
        assert len(fresh) == size_then

    def test_clear_empties_the_cache(self):
        cache = _filled_ivf_cache(n=100)
        cache.clear()
        assert len(cache) == 0
